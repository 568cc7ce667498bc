//! The live workload: the §7.2 firewall inside `Shell` over a real
//! `UdsBackend`, driven in a closed loop through host-kernel Unix datagram
//! sockets by the same thread that steps the shell.
//!
//! Sending, stepping and receiving alternate in one thread, so the frames
//! each `Shell::step` sees are a pure function of the seed: the simulated
//! side repeats exactly and only host cost varies. A round sends a fixed
//! number of frames, which keeps the shell's in-memory event log (and so
//! peak memory) independent of host speed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::os::unix::net::UnixDatagram;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rosebud::accel::{Accelerator, FirewallMatcher};
use rosebud::apps::firewall::{build_firewall_system, firewall_image, synthetic_blacklist};
use rosebud::core::ports::replay;
use rosebud::core::{LoadBalancer, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
use rosebud::kernel::SimRng;
use rosebud::net::PacketBuilder;
use rosebud::shell::{Shell, ShellBackend, UdsBackend};

use crate::check::{fingerprint, Checker, Delivery, FirewallOracle, Oracle};
use crate::probe::{self, BackendStats, Span, SysSpans, TimedAccel, TimedBackend, TimedLb};
use crate::report::Timeline;
use crate::{sub_seed, Layers, SetupTimes};

const RPUS: usize = 16;
const FRAME_BYTES: usize = 128;
/// Frames the driver keeps in flight.
const WINDOW: usize = 64;
/// Byte offset of the sequence stamp: the TCP payload.
const STAMP_AT: usize = 54;
/// A frame not back within this many shell steps frees its slot.
const BUDGET_STEPS: u64 = 50_000;
/// Simulated ns per shell step: one 250 MHz cycle.
const NS_PER_CYCLE: f64 = 4.0;
/// Shell steps per timeline window.
const WINDOW_STEPS: u64 = 256;
/// One frame in this many (by sequence number) contributes a wall-latency
/// sample to the timeline.
const FRAME_SAMPLE: u64 = 16;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub frames: u64,
}

/// The committed plan.
pub const PLAN: Plan = Plan { frames: 40_000 };

/// Seed-derived inputs shared by every round.
pub struct Inputs {
    seed: u64,
    blacklist: Vec<[u8; 4]>,
    oracle: Rc<FirewallOracle>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let blacklist = synthetic_blacklist(1050, sub_seed(seed, 1));
        let oracle = Rc::new(FirewallOracle::new(&blacklist));
        Self {
            seed,
            blacklist,
            oracle,
        }
    }

    /// Builds the firewall; with `spans`, through the same builder calls as
    /// `build_firewall_system` with the load balancer and matchers wrapped.
    fn build(&self, spans: Option<&Arc<SysSpans>>) -> Result<(Rosebud, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let Some(spans) = spans else {
            let t = Instant::now();
            let sys = build_firewall_system(RPUS, &self.blacklist)?;
            times.build_ns = t.elapsed().as_nanos() as u64;
            return Ok((sys, times));
        };
        let t = Instant::now();
        let image = firewall_image();
        times.assemble_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let matcher = FirewallMatcher::from_prefixes(&self.blacklist);
        times.rules_compile_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let lb: Box<dyn LoadBalancer> = Box::new(TimedLb {
            inner: Box::new(RoundRobinLb::new()),
            spans: spans.clone(),
        });
        let accel_spans = spans.clone();
        let sys = Rosebud::builder(RosebudConfig::with_rpus(RPUS))
            .load_balancer(lb)
            .accelerator(move |_| -> Box<dyn Accelerator> {
                Box::new(TimedAccel {
                    inner: Box::new(matcher.clone()),
                    spans: accel_spans.clone(),
                })
            })
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()?;
        times.build_ns = t.elapsed().as_nanos() as u64;
        Ok((sys, times))
    }
}

/// The seeded frame stream: 128 B TCP frames, each stamped with its
/// sequence number, 1 % sourced from blacklisted /24s.
struct Frames {
    rng: SimRng,
    blacklist: Vec<[u8; 4]>,
    next: u64,
}

impl Frames {
    fn next(&mut self) -> (u8, Vec<u8>, u64) {
        let r = &mut self.rng;
        let seq = self.next;
        self.next += 1;
        let src = if r.chance(0.01) {
            let b = self.blacklist[r.below(self.blacklist.len() as u64) as usize];
            [b[0], b[1], b[2], r.below(256) as u8]
        } else {
            [
                10,
                r.below(256) as u8,
                r.below(256) as u8,
                1 + r.below(254) as u8,
            ]
        };
        let dst = [172, 16, r.below(256) as u8, 1 + r.below(254) as u8];
        let mut payload = seq.to_le_bytes().to_vec();
        payload.extend((0..8).map(|_| r.below(256) as u8));
        let port = r.below(2) as u8;
        let frame = PacketBuilder::new()
            .src_ip(src)
            .dst_ip(dst)
            .tcp(
                1024 + r.below(60_000) as u16,
                [80, 443, 22][r.below(3) as usize],
            )
            .payload(&payload)
            .pad_to(FRAME_BYTES)
            .build();
        (port, frame.bytes().to_vec(), seq)
    }
}

/// The socket directory of one run, relative to the working directory so
/// socket paths stay short; removed on drop.
struct SockDir(PathBuf);

impl SockDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench-run").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for SockDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-run");
    }
}

/// What a round simulated, identical for every round of one seed:
/// simulated Gbps returned, simulated send→receive p50 and p99 in cycles, the
/// latency sample count, shell steps, and the ledger.
pub type Outputs = (f64, f64, f64, usize, u64, rosebud::core::Ledger);

/// One round's results.
#[derive(Debug, Clone)]
pub struct Round {
    pub setup: SetupTimes,
    pub outputs: Outputs,
    /// Wall-clock windows of `WINDOW_STEPS` shell steps (driver included)
    /// with sampled send→receive wall latencies.
    pub timeline: Timeline,
    pub attempted: u64,
    pub failed: u64,
    /// The replay was bit-exact and the system drained.
    pub sound: bool,
    pub layers: Layers,
}

struct Driver {
    clients: [UnixDatagram; 2],
    ports: [PathBuf; 2],
    buf: Vec<u8>,
}

#[derive(Default)]
struct Drive {
    steps: u64,
    sent: u64,
    refused: u64,
    returned_bytes: u64,
    sim_lat: Vec<f64>,
    timeline: Timeline,
    /// Frames returned in the open window.
    window_frames: u64,
    /// The loop is at full load: frames and windows go on the timeline.
    loop_open: bool,
    returned_prints: Vec<u64>,
    step: Span,
    backlog_max: usize,
}

impl Driver {
    /// Receives everything the shell sent back since the last call.
    fn receive(
        &mut self,
        checker: &mut Checker<Rc<dyn Oracle>>,
        inflight: &mut HashMap<u64, (u64, Instant)>,
        d: &mut Drive,
    ) -> Result<(), String> {
        for (p, client) in self.clients.iter().enumerate() {
            loop {
                let n = match client.recv(&mut self.buf) {
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("driver receive: {e}")),
                };
                let frame = &self.buf[..n];
                let seq = frame.get(STAMP_AT..STAMP_AT + 8).map_or(u64::MAX, |s| {
                    u64::from_le_bytes(s.try_into().expect("8 bytes"))
                });
                checker.observe(Delivery::Port(p as u8), seq, frame);
                d.returned_bytes += n as u64;
                d.returned_prints.push(fingerprint(frame));
                if let Some((sent_step, sent_at)) = inflight.remove(&seq) {
                    d.sim_lat.push((d.steps - sent_step) as f64);
                    if d.loop_open {
                        d.window_frames += 1;
                        if seq % FRAME_SAMPLE == 0 {
                            let ns = sent_at.elapsed().as_nanos() as f64;
                            d.timeline.frame(sent_step, d.steps, ns);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs the closed loop over `shell` until every frame is back, dropped or
/// out of budget, then settles the core.
fn drive<B: ShellBackend>(
    shell: &mut Shell<B>,
    driver: &mut Driver,
    frames: &mut Frames,
    checker: &mut Checker<Rc<dyn Oracle>>,
    plan: &Plan,
    traced: bool,
) -> Result<Drive, String> {
    let mut d = Drive {
        loop_open: true,
        ..Drive::default()
    };
    let mut inflight: HashMap<u64, (u64, Instant)> = HashMap::new();
    let mut retry: Option<(u8, Vec<u8>, u64)> = None;
    let mut window_at = Instant::now();
    loop {
        while inflight.len() < WINDOW && (retry.is_some() || d.sent < plan.frames) {
            let (port, frame, seq) = retry.take().unwrap_or_else(|| frames.next());
            let p = usize::from(port);
            match driver.clients[p].send_to(&frame, &driver.ports[p]) {
                Ok(_) => {
                    d.sent += 1;
                    checker.expect(seq, &frame, Some(port));
                    if !checker.oracle().drops(&frame) {
                        inflight.insert(seq, (d.steps, Instant::now()));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    d.refused += 1;
                    retry = Some((port, frame, seq));
                    break;
                }
                Err(e) => return Err(format!("driver send: {e}")),
            }
        }
        if d.sent == plan.frames {
            // The timeline ends with the last send (see below).
            d.loop_open = false;
        }
        if traced {
            let o = probe::open();
            shell.step();
            o.close(&mut d.step);
            d.backlog_max = d.backlog_max.max(shell.backlog());
        } else {
            shell.step();
        }
        d.steps += 1;
        driver.receive(checker, &mut inflight, &mut d)?;
        // Windows cover the loop at full load only: once the last frame is
        // sent, steps get cheaper as the window empties.
        if d.steps.is_multiple_of(WINDOW_STEPS) && d.loop_open {
            let now = Instant::now();
            let ns = now.duration_since(window_at).as_nanos() as u64;
            d.timeline.window(ns, WINDOW_STEPS, d.window_frames);
            (window_at, d.window_frames) = (now, 0);
        }
        if d.steps.is_multiple_of(1024) {
            let now = d.steps;
            inflight.retain(|_, (sent, _)| now - *sent <= BUDGET_STEPS);
        }
        if d.sent == plan.frames && retry.is_none() && inflight.is_empty() {
            break;
        }
    }
    // Settle: blacklisted frames may still be inside the core.
    for _ in 0..BUDGET_STEPS {
        if shell.sys().ledger_in_flight() == 0 && shell.backlog() == 0 {
            break;
        }
        shell.step();
        d.steps += 1;
        driver.receive(checker, &mut inflight, &mut d)?;
    }
    Ok(d)
}

/// One round: build, drive, replay the event log through a fresh system
/// and demand a bit-exact match.
///
/// # Errors
///
/// Socket or build failures.
pub fn round(inputs: &Inputs, plan: &Plan, traced: bool) -> Result<Round, String> {
    let dir = SockDir::new()?;
    let path = |name: &str| dir.0.join(name);
    let spans = Arc::new(SysSpans::default());
    let backend_stats = Rc::new(RefCell::new(BackendStats::default()));

    let (sys, setup) = inputs.build(traced.then_some(&spans))?;
    let backend = UdsBackend::bind(&[path("p0"), path("p1")]).map_err(|e| format!("bind: {e}"))?;
    let mut driver = Driver {
        clients: [bind_client(&path("c0"))?, bind_client(&path("c1"))?],
        ports: [path("p0"), path("p1")],
        buf: vec![0u8; 2048],
    };
    let oracle: Rc<dyn Oracle> = inputs.oracle.clone();
    let mut checker = Checker::new(oracle);
    let mut frames = Frames {
        rng: SimRng::seed_from(sub_seed(inputs.seed, 2)),
        blacklist: inputs.blacklist.clone(),
        next: 0,
    };

    if traced {
        let backend = TimedBackend {
            inner: backend,
            stats: backend_stats.clone(),
        };
        let mut shell = Shell::new(sys, backend);
        let perf0 = crate::sim::sum_perf(shell.sys());
        let stalls0 = shell.sys().lb_stall_cycles();
        spans.enable(true);
        let d = drive(
            &mut shell,
            &mut driver,
            &mut frames,
            &mut checker,
            plan,
            true,
        )?;
        spans.enable(false);
        let perf = crate::sim::sum_perf(shell.sys());
        let delta = |i: usize| (perf[i] - perf0[i]) as f64;
        let mut r = conclude(&shell, inputs, d, &checker, setup)?;
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let b = *backend_stats.borrow();
        let (lb_ns, lb_calls) = spans.lb.read();
        let (acc_ns, acc_calls) = spans.accel.read();
        let (reg_ns, reg_calls) = spans.accel_regs.read();
        let steps = r.outputs.4 as f64;
        let l = &mut r.layers;
        l.insert("lb.assign.ns_per_call", per(lb_ns as f64, lb_calls as f64));
        l.insert(
            "lb.stall_cycles",
            (shell.sys().lb_stall_cycles() - stalls0) as f64,
        );
        l.insert("rpu.instret_per_cycle", delta(0) / steps);
        l.insert("rpu.stall_cycles", delta(1));
        l.insert("rpu.mem_wait_cycles", delta(2));
        l.insert(
            "riscv.decode_cache.hit_rate",
            per(delta(3), delta(3) + delta(4)),
        );
        l.insert("accel.ns_per_cycle", (acc_ns + reg_ns) as f64 / steps);
        l.insert("accel.tick_calls", acc_calls as f64);
        l.insert("accel.reg_calls", reg_calls as f64);
        l.insert(
            "shell.backend.recv_ns_per_call",
            per(b.recv.ns as f64, b.recv.calls as f64),
        );
        l.insert(
            "shell.backend.empty_recv_frac",
            per(b.empty_recvs as f64, b.recv.calls as f64),
        );
        l.insert(
            "shell.backend.send_ns_per_frame",
            per(b.send.ns as f64, b.send.calls as f64),
        );
        let t = Instant::now();
        let text = shell.log().to_text();
        l.insert("shell.log.to_text_ns", t.elapsed().as_nanos() as f64);
        l.insert("shell.log.text_bytes", text.len() as f64);
        l.insert("shell.log.events", shell.log().events.len() as f64);
        r.setup.insert_into(l);
        Ok(r)
    } else {
        let mut shell = Shell::new(sys, backend);
        let d = drive(
            &mut shell,
            &mut driver,
            &mut frames,
            &mut checker,
            plan,
            false,
        )?;
        conclude(&shell, inputs, d, &checker, setup)
    }
}

/// Replays the shell's event log through a fresh untraced system and
/// demands a bit-exact match (ledger, diagnostics, every delivered frame),
/// then tallies the round.
fn conclude<B: ShellBackend>(
    shell: &Shell<B>,
    inputs: &Inputs,
    d: Drive,
    checker: &Checker<Rc<dyn Oracle>>,
    setup: SetupTimes,
) -> Result<Round, String> {
    let live = shell.sys();
    let (mut oracle_sys, _) = inputs.build(None)?;
    let t = Instant::now();
    let delivered = replay(shell.log(), &mut oracle_sys);
    let replay_ns = t.elapsed().as_nanos() as f64;
    let mut replay_prints: Vec<u64> = delivered.iter().map(|p| fingerprint(p.bytes())).collect();
    let mut live_prints = d.returned_prints;
    replay_prints.sort_unstable();
    live_prints.sort_unstable();
    let bit_exact = oracle_sys.ledger() == live.ledger()
        && oracle_sys.diagnostics().render() == live.diagnostics().render()
        && replay_prints == live_prints;
    let drained = live.ledger_in_flight() == 0 && live.ledger().balances(0);

    let mut layers = Layers::new();
    if d.step.calls > 0 {
        layers.insert("shell.step.ns", d.step.ns as f64 / d.step.calls as f64);
        layers.insert("shell.backlog.max", d.backlog_max as f64);
        layers.insert("driver.send_refused", d.refused as f64);
        layers.insert(
            "ports.replay.ns_per_cycle",
            replay_ns / shell.log().cycles.max(1) as f64,
        );
    }
    let pct = crate::report::percentile;
    let sim_secs = d.steps as f64 * NS_PER_CYCLE / 1e9;
    Ok(Round {
        setup,
        outputs: (
            d.returned_bytes as f64 * 8.0 / sim_secs / 1e9,
            pct(&d.sim_lat, 50.0),
            pct(&d.sim_lat, 99.0),
            d.sim_lat.len(),
            d.steps,
            live.ledger(),
        ),
        timeline: d.timeline,
        attempted: d.sent,
        failed: checker.failed(d.sent, live.ledger().dropped),
        sound: bit_exact && drained,
        layers,
    })
}

fn bind_client(path: &std::path::Path) -> Result<UnixDatagram, String> {
    let _ = std::fs::remove_file(path);
    let s = UnixDatagram::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    s.set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    Ok(s)
}

/// Builds the live system once, for set-up samples beyond the rounds.
///
/// # Errors
///
/// Socket or build failures.
pub fn setup_once(inputs: &Inputs) -> Result<u64, String> {
    let dir = SockDir::new()?;
    let t = Instant::now();
    let (sys, _) = inputs.build(None)?;
    let backend = UdsBackend::bind(&[dir.0.join("p0"), dir.0.join("p1")])
        .map_err(|e| format!("bind: {e}"))?;
    let shell = Shell::new(sys, backend);
    let ns = t.elapsed().as_nanos() as u64;
    drop(shell);
    Ok(ns)
}
