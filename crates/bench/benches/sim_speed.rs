//! Sim-speed comparison: the stage sweep with every lane awake vs with
//! quiescent-lane elision on, swept over RPU counts and the three workload
//! shapes of [`rosebud_bench::sim_speed::Scenario`]. Prints a table of
//! wall-clock ns per simulated cycle and the elided/awake speedup.
//!
//! Run with: `cargo bench --bench sim_speed`
//! Smoke mode (CI): `ROSEBUD_SIM_SPEED_SMOKE=1 cargo bench --bench sim_speed`
//! exits non-zero if the elided sweep is slower than the awake sweep at
//! 16 RPUs on the duty-cycled scenario.

use rosebud_bench::heading;
use rosebud_bench::sim_speed::{compare, Scenario};

fn main() {
    let scenarios = [
        Scenario::BusyPollLoaded,
        Scenario::DutyCycleLight,
        Scenario::ParkedIdle,
    ];

    if std::env::var_os("ROSEBUD_SIM_SPEED_SMOKE").is_some() {
        // CI gate: elision must pay off on the workload it exists for.
        let (awake, elided) = compare(Scenario::DutyCycleLight, 16);
        let ratio = awake / elided;
        println!(
            "smoke duty-cycle-light n=16: awake {awake:.0} ns/cyc, elided {elided:.0} ns/cyc, \
             {ratio:.2}x"
        );
        if ratio < 1.0 {
            eprintln!("FAIL: elided sweep slower than awake sweep at 16 RPUs");
            std::process::exit(1);
        }
        return;
    }

    heading("sim speed: awake vs elided stage sweep (ns per simulated cycle)");
    println!(
        "{:<18} {:>5} {:>13} {:>13} {:>9}",
        "scenario", "rpus", "awake ns/cyc", "elided ns/cyc", "speedup"
    );
    for scenario in scenarios {
        for rpus in [1usize, 4, 8, 16] {
            let (awake, elided) = compare(scenario, rpus);
            println!(
                "{:<18} {:>5} {:>13.0} {:>13.0} {:>8.2}x",
                scenario.name(),
                rpus,
                awake,
                elided,
                awake / elided
            );
        }
    }
}
