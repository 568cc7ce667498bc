//! Metric names, the result line, and the order statistics behind them.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_ns_per_cycle", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_gbps", "Gbps"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("host_fps", "1/s"),
    ("host_p50_us", "us"),
    ("host_p99_us", "us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.gen.ns_per_frame", "ns"),
    ("ports.pump.self_ns_per_cycle", "ns"),
    ("ports.pump.accept_ratio", "ratio"),
    ("egress.ns_per_frame", "ns"),
    ("lb.assign.ns_per_call", "ns"),
    ("lb.stall_cycles", "cycles"),
    ("rpu.instret_per_cycle", "instr/cycle"),
    ("rpu.stall_cycles", "cycles"),
    ("rpu.mem_wait_cycles", "cycles"),
    ("riscv.decode_cache.hit_rate", "ratio"),
    ("rpu.ns_per_instr", "ns"),
    ("system.tick.self_ns_per_cycle", "ns"),
    ("accel.ns_per_cycle", "ns"),
    ("accel.tick_calls", "count"),
    ("accel.reg_calls", "count"),
    ("alloc.pump.per_frame", "count"),
    ("alloc.tick.per_frame", "count"),
    ("alloc.egress.per_frame", "count"),
    ("alloc.bytes_per_frame", "bytes"),
    ("shell.step.ns", "ns"),
    ("shell.backend.recv_ns_per_call", "ns"),
    ("shell.backend.empty_recv_frac", "ratio"),
    ("shell.backend.send_ns_per_frame", "ns"),
    ("shell.backlog.max", "count"),
    ("driver.send_refused", "count"),
    ("shell.log.events", "count"),
    ("shell.log.text_bytes", "bytes"),
    ("shell.log.to_text_ns", "ns"),
    ("ports.replay.ns_per_cycle", "ns"),
    ("setup.assemble_ns", "ns"),
    ("setup.rules_compile_ns", "ns"),
    ("setup.build_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric-name grammar: a letter or digit, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (s.len() - 1) as f64).round() as usize;
    s[rank.min(s.len() - 1)]
}

/// How much slower than the run's fastest window a window may be and still
/// count as running on an uncontended core.
pub const FAST_SLACK: f64 = 1.3;

/// Median of the samples within [`FAST_SLACK`] of the smallest one (0 when
/// empty).
///
/// On a shared host a co-runner can halve this process's speed for seconds
/// at a time, so a plain median mixes two machines in proportions that
/// change from run to run. The samples near the minimum measure the
/// uncontended machine, which is the one a code change can move.
pub fn fast_median(v: &[f64]) -> f64 {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let fast: Vec<f64> = v
        .iter()
        .copied()
        .filter(|x| *x <= min * FAST_SLACK)
        .collect();
    median(&fast)
}

/// Wall-clock windows of one run, each covering a fixed stretch of
/// simulated cycles (shell steps on the live workload), and a sample of the
/// frames that crossed them.
///
/// A shared host runs this process at two speeds, switching every few
/// milliseconds to seconds as a co-runner comes and goes. The figures treat
/// a window more than [`FAST_SLACK`] times slower than the fastest one as
/// contended and replace its time with its cycles at the median cost of the
/// uncontended windows, so every figure describes the uncontended machine.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Per window: wall ns, cycles, frames delivered.
    windows: Vec<(u64, u64, u64)>,
    /// Cycles covered by the windows so far.
    cycles: u64,
    /// Sampled frames: `[start, end)` in cycles on this timeline, and the
    /// measured wall latency in ns.
    frames: Vec<(u32, u32, f32)>,
}

/// Host figures of a run, for the uncontended machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostFigures {
    /// Median wall ns per cycle of the uncontended windows.
    pub ns_per_cycle: f64,
    pub fps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Plain median ns per cycle over every window.
    pub all_ns_per_cycle: f64,
    pub windows: usize,
    pub fast_windows: usize,
    pub latency_samples: usize,
}

impl Timeline {
    /// Closes a window of `cycles` that took `ns` and delivered `frames`.
    pub fn window(&mut self, ns: u64, cycles: u64, frames: u64) {
        self.windows.push((ns, cycles.max(1), frames));
        self.cycles += cycles.max(1);
    }

    /// Records a frame that was in flight over cycles `[start, end)`,
    /// counted from this timeline's first window, and took `ns` of wall time.
    pub fn frame(&mut self, start: u64, end: u64, ns: f64) {
        self.frames.push((start as u32, end as u32, ns as f32));
    }

    /// Appends another segment (a round) after this one.
    pub fn append(&mut self, other: &Timeline) {
        let off = self.cycles as u32;
        self.windows.extend_from_slice(&other.windows);
        self.cycles += other.cycles;
        // A frame still in flight after the segment's last window would
        // otherwise land in the next segment's first one.
        self.frames.extend(
            other
                .frames
                .iter()
                .filter(|f| u64::from(f.1) <= other.cycles)
                .map(|&(a, b, l)| (a + off, b + off, l)),
        );
    }

    pub fn figures(&self) -> HostFigures {
        let cost: Vec<f64> = self
            .windows
            .iter()
            .map(|&(ns, c, _)| ns as f64 / c as f64)
            .collect();
        let min = cost.iter().copied().fold(f64::INFINITY, f64::min);
        let fast: Vec<bool> = cost.iter().map(|&c| c <= min * FAST_SLACK).collect();
        let fast_cost: Vec<f64> = cost
            .iter()
            .zip(&fast)
            .filter(|(_, f)| **f)
            .map(|(c, _)| *c)
            .collect();
        let typical = median(&fast_cost);
        // Wall ns a contended window spent beyond its uncontended cost.
        let excess: Vec<f64> = self
            .windows
            .iter()
            .zip(&fast)
            .map(|(&(ns, c, _), f)| {
                if *f {
                    0.0
                } else {
                    (ns as f64 - c as f64 * typical).max(0.0)
                }
            })
            .collect();
        let mut starts = Vec::with_capacity(self.windows.len() + 1);
        starts.push(0u64);
        for &(_, c, _) in &self.windows {
            starts.push(starts.last().expect("non-empty") + c);
        }
        let lat: Vec<f64> = self
            .frames
            .iter()
            .map(|&(a, b, ns)| {
                let (a, b) = (u64::from(a), u64::from(b));
                let first = starts.partition_point(|&s| s <= a).saturating_sub(1);
                let mut l = f64::from(ns);
                for w in first..self.windows.len() {
                    if starts[w] >= b {
                        break;
                    }
                    let overlap = b.min(starts[w + 1]) - a.max(starts[w]);
                    l -= excess[w] * overlap as f64 / self.windows[w].1 as f64;
                }
                l / 1e3
            })
            .collect();
        let ns: f64 =
            self.windows.iter().map(|w| w.0 as f64).sum::<f64>() - excess.iter().sum::<f64>();
        let frames: u64 = self.windows.iter().map(|w| w.2).sum();
        HostFigures {
            ns_per_cycle: typical,
            fps: if ns > 0.0 {
                frames as f64 / (ns / 1e9)
            } else {
                0.0
            },
            p50_us: percentile(&lat, 50.0),
            p99_us: percentile(&lat, 99.0),
            all_ns_per_cycle: median(&cost),
            windows: cost.len(),
            fast_windows: fast_cost.len(),
            latency_samples: lat.len(),
        }
    }
}

/// The benchmark's last output line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Renders the result as one JSON object holding exactly the metrics of
    /// `schema`, in its order.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, not in the schema, or not finite.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> Result<String, String> {
        if let Some(stray) = self
            .metrics
            .keys()
            .find(|k| !schema.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in the schema"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or(format!("metric {name} missing"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_obeys_the_grammar() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
    }

    #[test]
    fn grammar_rejects_bad_names() {
        for bad in ["", ".lead", "_lead", "has space", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn the_manifest_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let listed = |key: &str| {
            let section = manifest.split(&format!("\"{key}\"")).nth(1).expect(key);
            let section = &section[..section.find(']').expect("closing bracket")];
            section.matches("\"name\"").count()
        };
        assert_eq!(listed("end_to_end"), END_TO_END.len());
        assert_eq!(listed("per_layer"), PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_holds_the_schema_in_order_with_full_precision() {
        let schema = &[("b_metric", "s"), ("a_metric", "ns")];
        let mut metrics = BTreeMap::new();
        metrics.insert("a_metric", 1.0 / 3.0);
        metrics.insert("b_metric", 2.5);
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let json = o.to_json(schema).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"b_metric\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"a_metric\": {\"value\": 0.3333333333333333, \"unit\": \"ns\"}}}"
        );
        let mut missing = o.clone();
        missing.metrics.remove("a_metric");
        assert!(missing.to_json(schema).is_err());
        let mut nan = o;
        nan.metrics.insert("a_metric", f64::NAN);
        assert!(nan.to_json(schema).is_err());
    }

    #[test]
    fn fast_median_ignores_the_contended_mode() {
        let v = [100.0, 104.0, 98.0, 210.0, 205.0, 199.0, 220.0, 101.0, 130.0];
        assert_eq!(fast_median(&v), 101.0);
    }

    #[test]
    fn timeline_replaces_contended_time_with_the_uncontended_cost() {
        let mut t = Timeline::default();
        t.window(1000, 10, 5); // 100 ns/cycle
        t.window(3000, 10, 5); // contended: 2000 ns beyond 100 ns/cycle
        t.window(1000, 10, 5);
        t.frame(0, 10, 1000.0); // inside a clean window
        t.frame(5, 15, 2000.0); // half of its time in the contended one
        t.frame(0, 30, 5000.0);
        let f = t.figures();
        assert_eq!((f.windows, f.fast_windows, f.latency_samples), (3, 2, 3));
        assert_eq!(f.ns_per_cycle, 100.0);
        assert_eq!(f.fps, 15.0 / 3000e-9);
        assert_eq!(f.p50_us, 1.0);
        assert_eq!(f.p99_us, 3.0);
        let mut joined = Timeline::default();
        joined.append(&t);
        joined.append(&t);
        let j = joined.figures();
        assert_eq!((j.windows, j.latency_samples, j.p99_us), (6, 6, 3.0));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
