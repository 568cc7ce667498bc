//! The simulator workloads: an open-loop paced generator feeding a
//! [`Rosebud`] through `Harness` (untraced), or through the same calls made
//! one by one with every layer timed (traced).
//!
//! A run is a series of identical rounds: build the system, warm up, time a
//! fixed window of simulated cycles, drain, check. Every round of one seed
//! simulates the same thing, so the simulated metrics must repeat exactly,
//! and the host metrics are medians over rounds.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rosebud::accel::{Accelerator, PigasusMatcher, Rule, RuleSet};
use rosebud::apps::forwarder::{duty_cycle_forwarder_asm, forwarder_image};
use rosebud::apps::pigasus_asm::pigasus_hw_image;
use rosebud::apps::rules::synthetic_rules;
use rosebud::core::ports::pump;
use rosebud::core::{
    Harness, Ledger, LoadBalancer, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram, SharedEgress,
};
use rosebud::kernel::LatencyStats;
use rosebud::net::{AttackMixGen, FlowTrafficGen, GenPort, Packet, TrafficGen};
use rosebud::riscv::assemble;

use crate::check::{Checker, Delivery, ForwardOracle, IdsOracle, Oracle};
use crate::probe::{
    self, CountingPort, Span, SysSpans, TimedAccel, TimedEgress, TimedGen, TimedLb,
};
use crate::report::Timeline;
use crate::{sub_seed, Layers, SetupTimes};

/// Cycles per timed chunk: the granularity of the wall-clock latency stamps.
const CHUNK: u64 = 16;

/// One simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// §6.1 busy-poll RV32 forwarder, 16 RPUs, 64 B at 205 Gbps.
    Fwd64Busy,
    /// §7.1 HW-reorder IPS, assembled firmware, 8 RPUs × 16 Pigasus engines,
    /// 800 B at 205 Gbps with 1 % attacks.
    IdsPigasus,
    /// `wfi` duty-cycled forwarder, 16 RPUs, 256 B at 5 Gbps.
    DutyIdle,
}

/// Cycle budget of one round.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: u64,
    pub window: u64,
    pub drain_cap: u64,
}

impl SimKind {
    fn rpus(self) -> usize {
        match self {
            SimKind::IdsPigasus => 8,
            SimKind::Fwd64Busy | SimKind::DutyIdle => 16,
        }
    }

    fn offered_gbps(self) -> f64 {
        match self {
            SimKind::Fwd64Busy | SimKind::IdsPigasus => 205.0,
            SimKind::DutyIdle => 5.0,
        }
    }

    /// One frame in this many (by id) contributes a wall-latency sample:
    /// about two thousand per round.
    fn frame_sample(self) -> u64 {
        match self {
            SimKind::Fwd64Busy => 32,
            SimKind::IdsPigasus => 8,
            SimKind::DutyIdle => 2,
        }
    }

    /// Chunks per timeline window: 2048 cycles, or 512 on the IPS, whose
    /// cycles cost most and whose uncontended stretches are the shortest.
    fn window_chunks(self) -> u64 {
        match self {
            SimKind::IdsPigasus => 32,
            SimKind::Fwd64Busy | SimKind::DutyIdle => 128,
        }
    }

    /// The committed round plan: each window holds enough frames for a p99
    /// with more than ten samples beyond it, and takes a fraction of a
    /// second on a laptop-class core.
    pub fn plan(self) -> Plan {
        let (warmup, window) = match self {
            SimKind::Fwd64Busy => (20_000, 49 * 2048),
            SimKind::IdsPigasus => (40_000, 222 * 2048),
            SimKind::DutyIdle => (20_000, 196 * 2048),
        };
        Plan {
            warmup,
            window,
            drain_cap: 200_000,
        }
    }
}

/// Seed-derived inputs shared by every round of a run.
pub struct Inputs {
    kind: SimKind,
    seed: u64,
    rules: Vec<Rule>,
    oracle: Rc<dyn Oracle>,
}

impl Inputs {
    pub fn new(kind: SimKind, seed: u64) -> Self {
        let rules = match kind {
            SimKind::IdsPigasus => synthetic_rules(128, sub_seed(seed, 1)),
            _ => Vec::new(),
        };
        let oracle: Rc<dyn Oracle> = match kind {
            SimKind::IdsPigasus => Rc::new(IdsOracle {
                rules: RuleSet::compile(rules.clone()),
            }),
            _ => Rc::new(ForwardOracle),
        };
        Self {
            kind,
            seed,
            rules,
            oracle,
        }
    }

    fn generator(&self) -> Box<dyn TrafficGen> {
        let flow_seed = sub_seed(self.seed, 2);
        match self.kind {
            SimKind::Fwd64Busy => Box::new(FlowTrafficGen::new(1024, 64, 0.0, flow_seed)),
            SimKind::DutyIdle => Box::new(FlowTrafficGen::new(1024, 256, 0.0, flow_seed)),
            SimKind::IdsPigasus => {
                let base = FlowTrafficGen::new(8192, 800, 0.003, flow_seed);
                let patterns = self.rules.iter().map(|r| r.pattern.clone()).collect();
                Box::new(AttackMixGen::new(
                    base,
                    0.01,
                    patterns,
                    sub_seed(self.seed, 3),
                ))
            }
        }
    }

    /// Builds the system; with `spans`, the load balancer and accelerators
    /// are wrapped to time their calls.
    ///
    /// # Errors
    ///
    /// Propagates the builder's configuration error.
    pub fn build(&self, spans: Option<&Arc<SysSpans>>) -> Result<(Rosebud, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let image = match self.kind {
            SimKind::Fwd64Busy => forwarder_image(),
            SimKind::DutyIdle => assemble(&duty_cycle_forwarder_asm(2000))
                .map_err(|e| format!("duty-cycled forwarder: {e:?}"))?,
            SimKind::IdsPigasus => pigasus_hw_image(),
        };
        times.assemble_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let compiled =
            (self.kind == SimKind::IdsPigasus).then(|| RuleSet::compile(self.rules.clone()));
        times.rules_compile_ns = if compiled.is_some() {
            t.elapsed().as_nanos() as u64
        } else {
            0
        };

        let t = Instant::now();
        let mut cfg = RosebudConfig::with_rpus(self.kind.rpus());
        if self.kind == SimKind::IdsPigasus {
            cfg.slots_per_rpu = 32;
        }
        let lb: Box<dyn LoadBalancer> = Box::new(RoundRobinLb::new());
        let lb: Box<dyn LoadBalancer> = match spans {
            Some(s) => Box::new(TimedLb {
                inner: lb,
                spans: s.clone(),
            }),
            None => lb,
        };
        let mut builder = Rosebud::builder(cfg)
            .load_balancer(lb)
            .firmware(move |_| RpuProgram::Riscv(image.clone()));
        if let Some(rules) = compiled {
            let spans = spans.cloned();
            builder = builder.accelerator(move |_| {
                let m: Box<dyn Accelerator> = Box::new(PigasusMatcher::new(rules.clone(), 16));
                match &spans {
                    Some(s) => Box::new(TimedAccel {
                        inner: m,
                        spans: s.clone(),
                    }),
                    None => m,
                }
            });
        }
        let sys = builder.build()?;
        times.build_ns = t.elapsed().as_nanos() as u64;
        Ok((sys, times))
    }
}

/// What a round simulated: must be identical across rounds of one seed and
/// between the untraced and traced loops.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutputs {
    pub gbps: f64,
    pub p50_cycles: f64,
    pub p99_cycles: f64,
    pub samples: usize,
    pub ledger: Ledger,
    pub port_tx: Vec<u64>,
}

/// One round's results.
#[derive(Debug, Clone)]
pub struct Round {
    pub outputs: SimOutputs,
    /// Timed wall-clock windows of the measured stretch, with sampled
    /// generation→delivery wall latencies (untraced rounds only carry
    /// latencies).
    pub timeline: Timeline,
    pub attempted: u64,
    pub failed: u64,
    /// Every structural check passed (drained, ledger balanced, ports).
    pub sound: bool,
    /// Per-layer metrics (traced rounds only).
    pub layers: Layers,
}

pub(crate) fn sum_perf(sys: &Rosebud) -> [u64; 5] {
    let mut s = [0u64; 5];
    for rpu in sys.rpus().iter() {
        let p = rpu.perf();
        s[0] += p.instret;
        s[1] += p.stall_cycles;
        s[2] += p.mem_wait_cycles;
        if let Some(d) = rpu.inner().decode_cache_stats() {
            s[3] += d.hits;
            s[4] += d.misses;
        }
    }
    s
}

/// The checker fed from a second copy of the round's generator: frame `n`
/// of a generator is the `n`-th it produces, so delivered frames are
/// checked outside the timed loop, which runs no benchmark code.
struct Expectations {
    shadow: Box<dyn TrafficGen>,
    next: u64,
    checker: Checker<Rc<dyn Oracle>>,
}

impl Expectations {
    fn new(inputs: &Inputs) -> Self {
        Self {
            shadow: inputs.generator(),
            next: 0,
            checker: Checker::new(inputs.oracle.clone()),
        }
    }

    fn observe(&mut self, pkts: &[Packet]) {
        for pkt in pkts {
            while self.next <= pkt.id {
                let frame = self.shadow.generate(self.next, 0);
                self.checker.expect(self.next, frame.bytes(), None);
                self.next += 1;
            }
            self.checker.observe(Delivery::of(pkt), pkt.id, pkt.bytes());
        }
    }
}

/// Ticks without new input until nothing is in flight, feeding every
/// delivery to the checker. Returns whether the system drained.
fn drain(sys: &mut Rosebud, sink: Option<&SharedEgress>, exp: &mut Expectations, cap: u64) -> bool {
    for _ in 0..cap {
        if sys.ledger_in_flight() == 0 {
            return true;
        }
        sys.tick();
        let mut out: Vec<Packet> = sink.map(SharedEgress::drain).unwrap_or_default();
        for p in 0..sys.config().num_ports {
            out.extend(sys.take_output(p));
        }
        out.extend(sys.take_host_packets());
        exp.observe(&out);
    }
    sys.ledger_in_flight() == 0
}

/// Closes a round: drain, then the structural checks and the tally.
fn finish(
    kind: SimKind,
    sys: &mut Rosebud,
    sink: Option<&SharedEgress>,
    exp: &mut Expectations,
    plan: &Plan,
) -> (u64, u64, bool, Ledger, Vec<u64>) {
    let drained = drain(sys, sink, exp, plan.drain_cap);
    let ledger = sys.ledger();
    let ports = sys.config().num_ports;
    let rx: Vec<u64> = (0..ports).map(|p| sys.port_counters(p).rx_frames).collect();
    let tx: Vec<u64> = (0..ports).map(|p| sys.port_counters(p).tx_frames).collect();
    // The forwarders send every frame out the other port.
    let flips = kind == SimKind::IdsPigasus || (0..ports).all(|p| tx[p ^ 1] == rx[p]);
    let sound = drained && flips && ledger.balances(0) && ledger.originated == 0;
    let attempted = ledger.injected;
    let failed = exp.checker.failed(attempted, ledger.dropped);
    (attempted, failed, sound, ledger, tx)
}

/// One untraced round through `Harness`.
///
/// # Errors
///
/// Propagates a build failure.
pub fn untraced_round(inputs: &Inputs, plan: &Plan) -> Result<Round, String> {
    let mut exp = Expectations::new(inputs);
    let (sys, _) = inputs.build(None)?;
    let mut h = Harness::new(sys, inputs.generator(), inputs.kind.offered_gbps()).keep_output(true);
    for _ in 0..plan.warmup.div_ceil(CHUNK) {
        h.run(CHUNK);
        exp.observe(&h.take_collected());
    }

    h.begin_window();
    let start = h.sys.now();
    let chunks = plan.window.div_ceil(CHUNK);
    // Cumulative timed ns at each chunk boundary.
    let mut stamps: Vec<u64> = Vec::with_capacity(chunks as usize + 1);
    stamps.push(0);
    let mut timeline = Timeline::default();
    let (mut window_ns, mut window_frames) = (0u64, 0u64);
    for k in 0..chunks {
        let t = Instant::now();
        h.run(CHUNK);
        let ns = t.elapsed().as_nanos() as u64;
        window_ns += ns;
        stamps.push(stamps[k as usize] + ns);
        let out = h.take_collected();
        exp.observe(&out);
        for pkt in &out {
            window_frames += 1;
            if pkt.ts_gen >= start && pkt.id % inputs.kind.frame_sample() == 0 {
                let first = (pkt.ts_gen - start) / CHUNK;
                let lat_ns = stamps[k as usize + 1] - stamps[first as usize];
                timeline.frame(first * CHUNK, (k + 1) * CHUNK, lat_ns as f64);
            }
        }
        let window_chunks = inputs.kind.window_chunks();
        if (k + 1) % window_chunks == 0 || k + 1 == chunks {
            let chunks_in = (k % window_chunks) + 1;
            timeline.window(window_ns, chunks_in * CHUNK, window_frames);
            (window_ns, window_frames) = (0, 0);
        }
    }
    let m = h.measure();
    let ns_per_cycle = h.sys.config().ns_per_cycle();
    let outputs_lat = h.latency();
    let (p50_cycles, p99_cycles, samples) = (
        outputs_lat.percentile(50.0) / ns_per_cycle,
        outputs_lat.percentile(99.0) / ns_per_cycle,
        outputs_lat.count(),
    );
    let (attempted, failed, sound, ledger, port_tx) =
        finish(inputs.kind, &mut h.sys, None, &mut exp, plan);
    Ok(Round {
        outputs: SimOutputs {
            gbps: m.gbps,
            p50_cycles,
            p99_cycles,
            samples,
            ledger,
            port_tx,
        },
        timeline,
        attempted,
        failed,
        sound,
        layers: Layers::new(),
    })
}

/// The window accounting `Harness` does, repeated for the traced loop.
#[derive(Default)]
struct Window {
    received: u64,
    bytes: u64,
    latency: LatencyStats,
}

/// One traced round: `ports::pump`, `Rosebud::tick` and a bound egress port
/// plus `take_host_packets`, each timed, with the generator, load balancer
/// and accelerators wrapped.
///
/// # Errors
///
/// Propagates a build failure.
pub fn traced_round(inputs: &Inputs, plan: &Plan) -> Result<Round, String> {
    let mut exp = Expectations::new(inputs);
    let spans = Arc::new(SysSpans::default());
    let (mut sys, setup) = inputs.build(Some(&spans))?;
    let ports = sys.config().num_ports;
    let ns_per_cycle = sys.config().ns_per_cycle();
    let sink = SharedEgress::new();
    for p in 0..ports {
        let port = TimedEgress {
            sink: sink.clone(),
            spans: spans.clone(),
        };
        sys.bind_egress(p, Box::new(port));
    }
    let gen_span = Rc::new(RefCell::new(Span::default()));
    let gen = TimedGen {
        inner: inputs.generator(),
        span: gen_span.clone(),
    };
    let mut src = CountingPort {
        inner: GenPort::per_port(
            Box::new(gen),
            inputs.kind.offered_gbps(),
            ns_per_cycle,
            ports,
        ),
        offered: 0,
    };

    let (mut pump_s, mut tick_s, mut egress_s) =
        (Span::default(), Span::default(), Span::default());
    let mut timeline = Timeline::default();
    let (mut window_ns, mut window_start) = (0u64, 0u64);
    let mut win = Window::default();
    let (mut accepted, mut offered0, mut perf0, mut stalls0) = (0u64, 0u64, [0u64; 5], 0u64);
    let total = plan.warmup.div_ceil(CHUNK) * CHUNK + plan.window.div_ceil(CHUNK) * CHUNK;
    let start = total - plan.window.div_ceil(CHUNK) * CHUNK;
    for cycle in 0..total {
        if cycle == start {
            *gen_span.borrow_mut() = Span::default();
            (pump_s, tick_s, egress_s) = (Span::default(), Span::default(), Span::default());
            win = Window::default();
            offered0 = src.offered;
            perf0 = sum_perf(&sys);
            stalls0 = sys.lb_stall_cycles();
            spans.enable(true);
        }
        let o = probe::open();
        let n = pump(&mut sys, &mut src);
        o.close(&mut pump_s);
        if cycle >= start {
            accepted += n;
        }

        let o = probe::open();
        sys.tick();
        o.close(&mut tick_s);

        let o = probe::open();
        let mut out = sink.drain();
        out.extend(sys.take_host_packets());
        let now = sys.now();
        for pkt in &out {
            win.received += 1;
            win.bytes += pkt.len();
            win.latency
                .record(now.saturating_sub(pkt.ts_gen) as f64 * ns_per_cycle);
        }
        o.close(&mut egress_s);

        exp.observe(&out);
        let window = inputs.kind.window_chunks() * CHUNK;
        if cycle >= start && (cycle + 1 - start).is_multiple_of(window) {
            let ns = pump_s.ns + tick_s.ns + egress_s.ns;
            timeline.window(ns - window_ns, window, win.received - window_start);
            (window_ns, window_start) = (ns, win.received);
        }
    }
    spans.enable(false);
    let cycles = total - start;
    let perf = sum_perf(&sys);
    let d = |i: usize| (perf[i] - perf0[i]) as f64;
    let lb_stalls = sys.lb_stall_cycles() - stalls0;
    let (p50_cycles, p99_cycles, samples) = (
        win.latency.percentile(50.0) / ns_per_cycle,
        win.latency.percentile(99.0) / ns_per_cycle,
        win.latency.count(),
    );
    let secs = cycles as f64 * ns_per_cycle / 1e9;
    let gbps = win.bytes as f64 * 8.0 / secs / 1e9;
    let offered = src.offered - offered0;
    let (attempted, failed, sound, ledger, port_tx) =
        finish(inputs.kind, &mut sys, Some(&sink), &mut exp, plan);

    let gen = *gen_span.borrow();
    let (lb_ns, lb_calls) = spans.lb.read();
    let (acc_ns, acc_calls) = spans.accel.read();
    let (reg_ns, reg_calls) = spans.accel_regs.read();
    let (eg_ns, _) = spans.egress.read();
    let tick_self = tick_s.ns.saturating_sub(lb_ns + acc_ns + reg_ns + eg_ns) as f64;
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let frames = accepted as f64;
    let delivered = win.received as f64;
    let c = cycles as f64;
    let mut layers = Layers::new();
    layers.insert("net.gen.ns_per_frame", per(gen.ns as f64, gen.calls as f64));
    layers.insert(
        "ports.pump.self_ns_per_cycle",
        pump_s.ns.saturating_sub(gen.ns) as f64 / c,
    );
    layers.insert("ports.pump.accept_ratio", per(frames, offered as f64));
    layers.insert(
        "egress.ns_per_frame",
        per((eg_ns + egress_s.ns) as f64, delivered),
    );
    layers.insert("lb.assign.ns_per_call", per(lb_ns as f64, lb_calls as f64));
    layers.insert("lb.stall_cycles", lb_stalls as f64);
    layers.insert("rpu.instret_per_cycle", d(0) / c);
    layers.insert("rpu.stall_cycles", d(1));
    layers.insert("rpu.mem_wait_cycles", d(2));
    layers.insert("riscv.decode_cache.hit_rate", per(d(3), d(3) + d(4)));
    layers.insert("rpu.ns_per_instr", per(tick_self, d(0)));
    layers.insert("system.tick.self_ns_per_cycle", tick_self / c);
    layers.insert("accel.ns_per_cycle", (acc_ns + reg_ns) as f64 / c);
    layers.insert("accel.tick_calls", acc_calls as f64);
    layers.insert("accel.reg_calls", reg_calls as f64);
    layers.insert("alloc.pump.per_frame", per(pump_s.allocs as f64, frames));
    layers.insert("alloc.tick.per_frame", per(tick_s.allocs as f64, frames));
    layers.insert(
        "alloc.egress.per_frame",
        per(egress_s.allocs as f64, delivered),
    );
    let bytes = pump_s.alloc_bytes + tick_s.alloc_bytes + egress_s.alloc_bytes;
    layers.insert("alloc.bytes_per_frame", per(bytes as f64, frames));
    setup.insert_into(&mut layers);

    Ok(Round {
        outputs: SimOutputs {
            gbps,
            p50_cycles,
            p99_cycles,
            samples,
            ledger,
            port_tx,
        },
        timeline,
        attempted,
        failed,
        sound,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_flags_attacks_to_the_host_and_checks_them() {
        let inputs = Inputs::new(SimKind::IdsPigasus, 3);
        let plan = Plan {
            warmup: 2048,
            window: 16 * 2048,
            drain_cap: 200_000,
        };
        let r = untraced_round(&inputs, &plan).unwrap();
        let on_ports: u64 = r.outputs.port_tx.iter().sum();
        let to_host = r.outputs.ledger.delivered - on_ports;
        assert!(to_host > 0, "no attack reached the host: {:?}", r.outputs);
        assert!(r.sound && r.failed == 0, "{r:?}");
        let traced = traced_round(&inputs, &plan).unwrap();
        assert_eq!(
            traced.outputs, r.outputs,
            "tracing changed what was simulated"
        );
    }
}
