//! Host-cost benchmark of the Rosebud reproduction.
//!
//! One process runs one named workload for a given seed and wall-clock
//! budget, checks every frame the system returns, and prints one JSON
//! result line: the end-to-end metrics from untraced runs, or (with
//! tracing) the per-layer split measured by timing calls into the
//! simulator's public functions and trait objects. See `README.md` for the
//! workloads and the layer→end-to-end map.

#![forbid(unsafe_code)]

pub mod check;
pub mod live;
pub mod probe;
pub mod report;
pub mod sim;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use report::{median, Outcome, END_TO_END, PER_LAYER};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Set-up cost of one system build, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub assemble_ns: u64,
    pub rules_compile_ns: u64,
    pub build_ns: u64,
}

impl SetupTimes {
    fn insert_into(&self, layers: &mut Layers) {
        layers.insert("setup.assemble_ns", self.assemble_ns as f64);
        layers.insert("setup.rules_compile_ns", self.rules_compile_ns as f64);
        layers.insert("setup.build_ns", self.build_ns as f64);
    }
}

/// Derives the `i`-th independent seed from the run seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sim(sim::SimKind),
    Live,
}

/// Every workload with its command-line name.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("fwd-64b-busy", Workload::Sim(sim::SimKind::Fwd64Busy)),
    ("ids-pigasus-800b", Workload::Sim(sim::SimKind::IdsPigasus)),
    ("duty-idle-16rpu", Workload::Sim(sim::SimKind::DutyIdle)),
    ("live-uds-firewall", Workload::Live),
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }
}

/// How long and how big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time spent in rounds; at least one round of each kind runs.
    pub seconds: f64,
    /// Round size: the committed plans, or tiny ones for smoke tests.
    pub small: bool,
}

/// The common shape of a sim or live round, as `run` needs it.
struct RoundView<'a, O> {
    outputs: &'a O,
    timeline: &'a report::Timeline,
    attempted: u64,
    failed: u64,
    sound: bool,
    layers: &'a Layers,
}

/// The result of one run: the result line plus what the summary line shows.
pub struct RunResult {
    pub outcome: Outcome,
    pub summary: BTreeMap<&'static str, String>,
}

/// Runs `workload` for `seed` within `budget`, traced or not.
///
/// # Errors
///
/// A build, socket or I/O failure: nothing was measured.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<RunResult, String> {
    match workload {
        Workload::Sim(kind) => {
            let inputs = sim::Inputs::new(kind, seed);
            let plan = if budget.small {
                sim::Plan {
                    warmup: 2_048,
                    window: 4_096,
                    drain_cap: 200_000,
                }
            } else {
                kind.plan()
            };
            let setup_s = timed_setup(trace, || {
                let t = Instant::now();
                inputs.build(None).map(|_| t.elapsed().as_nanos() as u64)
            })?;
            let rounds = alternate(budget.seconds, trace, |traced| {
                if traced {
                    sim::traced_round(&inputs, &plan)
                } else {
                    sim::untraced_round(&inputs, &plan)
                }
            })?;
            let (untraced, traced): (Vec<_>, Vec<_>) = rounds.iter().partition(|(t, _)| !t);
            let u: Vec<_> = untraced.iter().map(|(_, r)| sim_view(r)).collect();
            let t: Vec<_> = traced.iter().map(|(_, r)| sim_view(r)).collect();
            let o = &rounds[0].1.outputs;
            let sim = (o.gbps, o.p50_cycles, o.p99_cycles, o.samples);
            Ok(conclude(&u, &t, trace, setup_s, sim))
        }
        Workload::Live => {
            let inputs = live::Inputs::new(seed);
            let plan = if budget.small {
                live::Plan { frames: 600 }
            } else {
                live::PLAN
            };
            let setup_s = timed_setup(trace, || live::setup_once(&inputs))?;
            let rounds = alternate(budget.seconds, trace, |traced| {
                live::round(&inputs, &plan, traced)
            })?;
            let (untraced, traced): (Vec<_>, Vec<_>) = rounds.iter().partition(|(t, _)| !t);
            let u: Vec<_> = untraced.iter().map(|(_, r)| live_view(r)).collect();
            let t: Vec<_> = traced.iter().map(|(_, r)| live_view(r)).collect();
            let o = &rounds[0].1.outputs;
            Ok(conclude(&u, &t, trace, setup_s, (o.0, o.1, o.2, o.3)))
        }
    }
}

fn sim_view(r: &sim::Round) -> RoundView<'_, sim::SimOutputs> {
    RoundView {
        outputs: &r.outputs,
        timeline: &r.timeline,
        attempted: r.attempted,
        failed: r.failed,
        sound: r.sound,
        layers: &r.layers,
    }
}

fn live_view(r: &live::Round) -> RoundView<'_, live::Outputs> {
    RoundView {
        outputs: &r.outputs,
        timeline: &r.timeline,
        attempted: r.attempted,
        failed: r.failed,
        sound: r.sound,
        layers: &r.layers,
    }
}

/// `setup_s` of an untraced run: the process's first build, the one a user
/// pays. Later builds reuse memory the earlier ones freed, and how much of
/// it they get back varies from process to process by a factor of two.
fn timed_setup(trace: bool, build: impl FnOnce() -> Result<u64, String>) -> Result<f64, String> {
    if trace {
        return Ok(0.0);
    }
    Ok(build()? as f64 / 1e9)
}

/// Runs rounds until `seconds` have passed: untraced only, or alternating
/// untraced and traced. Each returned round is tagged `true` when traced.
fn alternate<R>(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(bool) -> Result<R, String>,
) -> Result<Vec<(bool, R)>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    loop {
        let traced = trace && rounds.len() % 2 == 1;
        rounds.push((traced, round(traced)?));
        if Instant::now() >= deadline && (!trace || rounds.len() >= 2) {
            return Ok(rounds);
        }
    }
}

/// Folds the rounds into the result: determinism and correctness checks,
/// then the end-to-end metrics (untraced) or the per-layer split (traced).
fn conclude<O: PartialEq>(
    untraced: &[RoundView<'_, O>],
    traced: &[RoundView<'_, O>],
    trace: bool,
    setup_s: f64,
    sim: (f64, f64, f64, usize),
) -> RunResult {
    let all = || untraced.iter().chain(traced);
    let reference = untraced[0].outputs;
    // Every round of one seed simulates the same thing; a traced round that
    // does not is not measuring the same program.
    let deterministic = all().all(|r| r.outputs == reference);
    let sound = all().all(|r| r.sound);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let correct = deterministic && sound && failed == 0;

    let figures = |rs: &[RoundView<'_, O>]| {
        let mut t = report::Timeline::default();
        for r in rs {
            t.append(r.timeline);
        }
        t.figures()
    };
    let host = figures(untraced);
    let mut metrics = BTreeMap::new();
    if trace {
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            metrics.insert(*name, report::fast_median(&values));
        }
        let overhead = figures(traced).ns_per_cycle / host.ns_per_cycle - 1.0;
        metrics.insert("trace.overhead_frac", overhead);
    } else {
        metrics.insert("setup_s", setup_s);
        metrics.insert("host_ns_per_cycle", host.ns_per_cycle);
        metrics.insert("peak_rss_mb", peak_rss_mb());
        metrics.insert("sim_gbps", sim.0);
        metrics.insert("sim_p50_cycles", sim.1);
        metrics.insert("sim_p99_cycles", sim.2);
        metrics.insert("host_fps", host.fps);
        metrics.insert("host_p50_us", host.p50_us);
        metrics.insert("host_p99_us", host.p99_us);
    }
    let mut summary = BTreeMap::new();
    summary.insert("rounds_untraced", untraced.len().to_string());
    summary.insert("rounds_traced", traced.len().to_string());
    summary.insert("windows", host.windows.to_string());
    summary.insert("fast_windows", host.fast_windows.to_string());
    summary.insert(
        "all_windows_ns_per_cycle",
        format!("{:?}", host.all_ns_per_cycle),
    );
    summary.insert("wall_latency_samples", host.latency_samples.to_string());
    summary.insert("sim_latency_samples", sim.3.to_string());
    summary.insert("deterministic", deterministic.to_string());
    summary.insert("structural_checks", sound.to_string());
    let frac = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        0.0
    };
    summary.insert("failed_frac", format!("{frac:?}"));
    RunResult {
        outcome: Outcome {
            correct,
            attempted,
            failed,
            metrics,
        },
        summary,
    }
}

/// The schema a run prints.
pub fn schema(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed integer loop takes: a host-speed reference that no
/// change to the simulator can move. Median of three.
pub fn calibrate_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// The git revision of the working tree, when it is a git checkout.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    if rev.is_empty() {
        "none".to_owned()
    } else {
        rev
    }
}

/// Environment variables that select a different simulation kernel; a run
/// refuses to start under any of them.
pub const FORBIDDEN_ENV: &[&str] = &["ROSEBUD_KERNEL", "ROSEBUD_WORKERS", "ROSEBUD_QUANTUM"];

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, trace: bool) {
        let w = Workload::by_name(name).unwrap();
        let budget = Budget {
            seconds: 0.0,
            small: true,
        };
        let r = run(w, 7, budget, trace).unwrap();
        let o = &r.outcome;
        assert!(o.correct, "{name} trace={trace}: {:?} {:?}", o, r.summary);
        assert!(o.attempted > 0 && o.failed == 0, "{name}: {o:?}");
        let json = o.to_json(schema(trace)).unwrap();
        assert!(json.starts_with("{\"correct\": true"), "{json}");
    }

    #[test]
    fn smoke_fwd() {
        smoke("fwd-64b-busy", false);
        smoke("fwd-64b-busy", true);
    }

    #[test]
    fn smoke_ids() {
        smoke("ids-pigasus-800b", false);
        smoke("ids-pigasus-800b", true);
    }

    #[test]
    fn smoke_duty() {
        smoke("duty-idle-16rpu", false);
        smoke("duty-idle-16rpu", true);
    }

    #[test]
    fn smoke_live() {
        smoke("live-uds-firewall", false);
        smoke("live-uds-firewall", true);
    }

    #[test]
    fn workload_names_obey_the_grammar() {
        for (name, w) in WORKLOADS {
            assert!(report::valid_name(name));
            assert_eq!(Workload::by_name(name), Some(*w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }
}
