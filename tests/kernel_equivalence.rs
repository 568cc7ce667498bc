//! Differential elision suite: every scenario runs twice through the one
//! stage-sliced sweep — once with every lane awake every cycle (elision
//! off), once with quiescent-lane elision on — and the *complete
//! observable output* (the cycle-stamped compact trace, the conservation
//! ledger, the diagnostics snapshot, and the benchmark measurement) must be
//! byte-identical. The awake run is the oracle; any divergence is an
//! elision bug, usually a missed `wake_lane` or a mask bit lost while a
//! lane slept.
//!
//! The scenarios stress exactly the mechanisms that could diverge:
//! busy-poll forwarding (lanes that never sleep), duty-cycled `wfi`
//! firmware (wake-on-ingress and the timer alarm), firewall injection (host
//! virtual interface + accelerators), chaos runs (faults, supervisor-driven
//! eviction/PR/reload against lanes that may be asleep when the host
//! reaches in), and a host-DMA outage plus broadcast wake (the persistent
//! DMA mask and the stage-10/stage-11 interrupt wakes).

use rosebud::apps::firewall::{
    build_firewall_system, firewall_trace, synthetic_blacklist, NoopGen,
};
use rosebud::apps::forwarder::{
    build_duty_cycle_forwarding_system, build_forwarding_system, build_watchdog_forwarding_system,
};
use rosebud::core::{
    FaultKind, FaultPlan, Harness, Rosebud, RosebudConfig, RpuProgram, Supervisor,
    SupervisorConfig, TraceConfig,
};
use rosebud::net::{FixedSizeGen, ImixGen};

/// The sweeps under test: every lane awake (the oracle), then elided.
fn kernels() -> [(&'static str, bool); 2] {
    [("awake", false), ("elided", true)]
}

/// Everything a scenario observably produces.
#[derive(PartialEq)]
struct Observed {
    trace: String,
    ledger: String,
    diagnostics: String,
    measurement: String,
    received: u64,
    injected: u64,
    drops: u64,
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        counter_interval: 4096,
        pc_profile: true,
        max_events: 1 << 21,
    }
}

/// Runs `sys` under the harness for `cycles`, collecting the full
/// observable output.
fn observe(mut h: Harness, cycles: u64) -> Observed {
    h.begin_window();
    h.run(cycles);
    let m = h.measure();
    Observed {
        trace: h.sys.take_tracer().expect("tracing enabled").compact_text(),
        ledger: format!("{:?}", h.sys.ledger()),
        diagnostics: format!("{:?}", h.sys.diagnostics()),
        measurement: format!("{m:?}"),
        received: h.received(),
        injected: h.injected(),
        drops: h.sys.drop_count(),
    }
}

/// Asserts that the elided run produced the oracle's exact output, pointing
/// at the first diverging trace line when not.
fn assert_equivalent(scenario: &str, runs: &[(&str, Observed)]) {
    let (oracle_name, oracle) = &runs[0];
    assert_eq!(*oracle_name, "awake", "oracle must run first");
    for (name, got) in &runs[1..] {
        if got.trace != oracle.trace {
            for (i, (want, have)) in oracle.trace.lines().zip(got.trace.lines()).enumerate() {
                assert_eq!(
                    want,
                    have,
                    "{scenario}: {name} trace diverges from awake at line {}",
                    i + 1
                );
            }
            panic!(
                "{scenario}: {name} trace length differs ({} vs {} lines)",
                oracle.trace.lines().count(),
                got.trace.lines().count()
            );
        }
        assert_eq!(got.ledger, oracle.ledger, "{scenario}: {name} ledger");
        assert_eq!(
            got.diagnostics, oracle.diagnostics,
            "{scenario}: {name} diagnostics"
        );
        assert_eq!(
            got.measurement, oracle.measurement,
            "{scenario}: {name} measurement"
        );
        assert_eq!(got.received, oracle.received, "{scenario}: {name} received");
        assert_eq!(got.injected, oracle.injected, "{scenario}: {name} injected");
        assert_eq!(got.drops, oracle.drops, "{scenario}: {name} drops");
    }
}

/// Runs `scenario` awake and elided and demands identical output.
fn differential(scenario: &str, run: impl Fn(bool) -> Observed) {
    let runs: Vec<(&str, Observed)> = kernels()
        .into_iter()
        .map(|(name, elide)| (name, run(elide)))
        .collect();
    assert_equivalent(scenario, &runs);
    // Non-vacuity: the scenario must actually have produced events.
    assert!(
        !runs[0].1.trace.is_empty(),
        "{scenario}: empty trace proves nothing"
    );
}

fn with_elision(mut sys: Rosebud, elide: bool) -> Rosebud {
    sys.set_elision(elide);
    sys.enable_tracing(trace_cfg());
    sys
}

#[test]
fn forwarder_is_kernel_invariant() {
    differential("forwarder", |elide| {
        let sys = with_elision(build_forwarding_system(8).unwrap(), elide);
        observe(
            Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 60.0),
            30_000,
        )
    });
}

#[test]
fn forwarder_imix_is_kernel_invariant_across_seeds() {
    for seed in [1u64, 7, 42] {
        differential(&format!("forwarder-imix seed={seed}"), |elide| {
            let sys = with_elision(build_forwarding_system(16).unwrap(), elide);
            observe(
                Harness::new(sys, Box::new(ImixGen::new(2, seed)), 120.0),
                25_000,
            )
        });
    }
}

#[test]
fn duty_cycle_forwarder_is_kernel_invariant() {
    // The prime elision differential: lanes park in `wfi` between timer
    // alarms, so every ingress push against a sleeping lane must wake it on
    // exactly the right cycle.
    for seed in [3u64, 19] {
        differential(&format!("duty-cycle seed={seed}"), |elide| {
            let sys = with_elision(build_duty_cycle_forwarding_system(16, 700).unwrap(), elide);
            observe(
                Harness::new(sys, Box::new(ImixGen::new(2, seed)), 8.0),
                40_000,
            )
        });
    }
}

#[test]
fn firewall_is_kernel_invariant() {
    differential("firewall", |elide| {
        let blacklist = synthetic_blacklist(6, 7);
        let sys = with_elision(build_firewall_system(4, &blacklist).unwrap(), elide);
        let trace = firewall_trace(&blacklist, 16, 256);
        let mut h = Harness::new(sys, Box::new(NoopGen), 0.0);
        for pkt in &trace {
            let mut p = pkt.clone();
            loop {
                match h.sys.inject(p) {
                    Ok(()) => break,
                    Err(back) => {
                        p = back;
                        h.tick();
                    }
                }
            }
            h.tick();
        }
        observe(h, 6_000)
    });
}

#[test]
fn chaos_recovery_is_kernel_invariant_across_seeds() {
    // Faults, supervisor-driven drain/evict/PR/reload, and live IMIX
    // traffic — the host reaches into lanes that may be mid-sleep, so every
    // host-side mutator's wake is on trial here.
    for seed in [11u64, 23] {
        differential(&format!("chaos seed={seed}"), |elide| {
            let mut sys = build_watchdog_forwarding_system(8, 64).unwrap();
            sys.install_fault_plan(
                FaultPlan::new(seed)
                    .at(8_000, FaultKind::FirmwareHang { rpu: 3 })
                    .at(22_000, FaultKind::FirmwareCrash { rpu: 5 }),
            );
            let sys = with_elision(sys, elide);
            let mut h = Harness::new(sys, Box::new(ImixGen::new(2, seed)), 60.0);
            let mut sup = Supervisor::with_config(
                &h.sys,
                SupervisorConfig {
                    drain_timeout: 4_000,
                    ..SupervisorConfig::default()
                },
            );
            h.begin_window();
            for _ in 0..60_000 {
                h.tick();
                sup.poll(&mut h.sys);
            }
            let m = h.measure();
            Observed {
                trace: h.sys.take_tracer().unwrap().compact_text(),
                ledger: format!("{:?}", h.sys.ledger()),
                diagnostics: format!("{:?}", h.sys.diagnostics()),
                measurement: format!("{m:?}"),
                received: h.received(),
                injected: h.injected(),
                drops: h.sys.drop_count(),
            }
        });
    }
}

#[test]
fn host_pokes_against_sleeping_lanes_are_kernel_invariant() {
    // Direct missed-wake hunt: park a duty-cycled fleet under light load
    // and fire host-side state changes (pokes, broadcast wakes via the
    // debug register, firmware reload) at fixed cycles. Each one must take
    // effect on the same cycle awake and elided.
    differential("host-pokes", |elide| {
        let sys = with_elision(build_duty_cycle_forwarding_system(8, 900).unwrap(), elide);
        let mut h = Harness::new(sys, Box::new(ImixGen::new(2, 5)), 4.0);
        h.begin_window();
        for cycle in 0..50_000u64 {
            match cycle {
                10_000 => h.sys.poke(2),
                17_500 => h.sys.write_debug(6, 0xdead_beef),
                25_000 => {
                    let image = rosebud::riscv::assemble(
                        &rosebud::apps::forwarder::duty_cycle_forwarder_asm(300),
                    )
                    .unwrap();
                    h.sys.load_rpu_firmware(4, &image).unwrap();
                }
                33_000 => h.sys.poke(7),
                _ => {}
            }
            h.tick();
        }
        let m = h.measure();
        Observed {
            trace: h.sys.take_tracer().unwrap().compact_text(),
            ledger: format!("{:?}", h.sys.ledger()),
            diagnostics: format!("{:?}", h.sys.diagnostics()),
            measurement: format!("{m:?}"),
            received: h.received(),
            injected: h.injected(),
            drops: h.sys.drop_count(),
        }
    });
}

#[test]
fn recorded_live_shell_session_replays_kernel_invariant() {
    // Record once: a live ring-backed shell serving real frames with
    // elision on. Then replay the event log awake and elided — the
    // record/replay contract must hold whether or not lanes sleep.
    use rosebud::core::ports::replay;
    use rosebud::shell::{RingBackend, Shell};

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(build_forwarding_system(8).unwrap(), backend);
    for i in 0..32u64 {
        peer.send((i % 2) as u8, vec![i as u8; 64 + (i as usize * 13) % 400]);
        shell.pump(29);
    }
    shell.pump(4_000);
    let log = shell.log().clone();
    assert_eq!(log.events.len(), 32, "every live frame must be recorded");

    differential("live-shell-replay", |elide| {
        let mut sys = with_elision(build_forwarding_system(8).unwrap(), elide);
        let delivered = replay(&log, &mut sys);
        Observed {
            trace: sys.take_tracer().unwrap().compact_text(),
            ledger: format!("{:?}", sys.ledger()),
            diagnostics: format!("{:?}", sys.diagnostics()),
            measurement: format!("delivered={}", delivered.len()),
            received: delivered.len() as u64,
            injected: log.events.len() as u64,
            drops: sys.drop_count(),
        }
    });
}

#[test]
fn fleet_failover_is_kernel_invariant() {
    // The whole rack on trial: a box crash and a brownout drive the fleet
    // ladder (probe misses, ring removal, purge, whole-box reload,
    // probation) while the survivors carry re-steered flows. Every box's
    // compact trace — including the archived trace of the incarnation the
    // reload retired — plus the fleet ladder log, ledger, and measurement
    // must be byte-identical awake and elided. The factory sets elision, so
    // boxes rebuilt by a reload keep it.
    use rosebud::core::{Fleet, FleetConfig, FleetHarness, FleetSupervisor, FleetSupervisorConfig};

    for seed in [5u64, 31] {
        differential(&format!("fleet-chaos seed={seed}"), |elide| {
            let mut fleet = Fleet::new(
                FleetConfig {
                    boxes: 2,
                    ..FleetConfig::default()
                },
                move |_| {
                    let mut sys = build_watchdog_forwarding_system(4, 64).unwrap();
                    sys.set_elision(elide);
                    sys
                },
            )
            .unwrap();
            fleet.enable_tracing(trace_cfg());
            fleet.schedule_fault(rosebud::core::FaultEvent {
                at: 8_000,
                kind: FaultKind::BoxCrash { device: 1 },
            });
            fleet.schedule_fault(rosebud::core::FaultEvent {
                at: 30_000,
                kind: FaultKind::BoxBrownout {
                    device: 0,
                    cycles: 4_000,
                    factor: 4,
                },
            });
            let mut h = FleetHarness::new(fleet, Box::new(ImixGen::new(2, seed)), 40.0);
            let mut sup = FleetSupervisor::with_config(
                &h.fleet,
                FleetSupervisorConfig {
                    drain_timeout: 3_000,
                    reload_cycles: 5_000,
                    ..FleetSupervisorConfig::default()
                },
            );
            h.begin_window();
            for _ in 0..60_000 {
                sup.poll(&mut h.fleet);
                h.tick();
            }
            let m = h.measure();
            let mut trace = String::new();
            for archived in h.fleet.archived_traces() {
                trace.push_str(archived);
                trace.push('\n');
            }
            for b in 0..h.fleet.num_boxes() {
                trace.push_str(&format!("=== box {b} (live) ===\n"));
                trace.push_str(
                    &h.fleet
                        .sys_mut(b)
                        .take_tracer()
                        .expect("tracing enabled")
                        .compact_text(),
                );
            }
            trace.push_str("=== fleet ladder ===\n");
            trace.push_str(&h.fleet.log_text());
            let drops = (0..h.fleet.num_boxes())
                .map(|b| h.fleet.sys(b).drop_count())
                .sum();
            Observed {
                trace,
                ledger: format!("{:?}", h.fleet.ledger()),
                diagnostics: h.fleet.diagnostics().render(),
                measurement: format!("{m:?}"),
                received: h.received(),
                injected: h.injected(),
                drops,
            }
        });
    }
}

/// RPU 0's firmware: one host-DRAM → pmem DMA, parked in `wfi` until the
/// DMA interrupt, then the fetched word goes out as a broadcast and the
/// core parks for good.
const DMA_INITIATOR_ASM: &str = "
    .equ IO, 0x02000000
        li t0, IO
        li t1, 0x01000000        # pmem base
        li s0, 0x04000000        # broadcast region
        li t6, 4                 # enable the DMA interrupt line (bit 2)
        csrw mie, t6
        sw zero, 0x44(t0)        # DMA_HOST_ADDR: host DRAM word 0
        sw t1, 0x48(t0)          # DMA_LOCAL_ADDR: pmem base
        li a0, 64
        sw a0, 0x4c(t0)          # DMA_LEN
        li a0, 2
        sw a0, 0x50(t0)          # DMA_CTRL: host DRAM -> pmem
        wfi                      # park across the PCIe outage
        lw a0, 0(t1)             # the fetched word
        sw a0, 0(s0)             # broadcast it to every RPU
        csrw mie, zero
    done:
        wfi
        j done
";

/// Every other RPU: park until a broadcast arrives, then mirror the word
/// into host DRAM (at `host_addr`) and report it on the debug channel.
fn bcast_receiver_asm(host_addr: u32) -> String {
    format!(
        "
    .equ IO, 0x02000000
        li t0, IO
        li t1, 0x01000000        # pmem base
        li s0, 0x04000000        # broadcast region
        li t6, 1                 # enable the broadcast interrupt line (bit 0)
        csrw mie, t6
        wfi                      # park until the broadcast lands
        lw a0, 0(s0)             # the broadcast word
        sw a0, 0(t1)
        li a1, {host_addr}
        sw a1, 0x44(t0)          # DMA_HOST_ADDR
        sw t1, 0x48(t0)          # DMA_LOCAL_ADDR
        li a1, 4
        sw a1, 0x4c(t0)          # DMA_LEN
        li a1, 1
        sw a1, 0x50(t0)          # DMA_CTRL: pmem -> host DRAM
        sw a0, 0x1c(t0)          # DEBUG_OUT_L
        sw zero, 0x20(t0)        # DEBUG_OUT_H (commit)
        csrw mie, zero
    done:
        wfi
        j done
    "
    )
}

#[test]
fn dma_outage_and_broadcast_wakes_are_kernel_invariant() {
    // A parked core's committed host-DMA request must survive elided
    // cycles in the persistent DMA mask while a PCIe outage holds stage 10,
    // and the completion (stage 10) and the broadcast it triggers
    // (stage 11) must wake sleeping lanes on exactly the awake run's cycle.
    const RPUS: usize = 8;
    const MAGIC: u32 = 0x5eed_b0a7;
    let receiver_addr = |r: usize| 0x1000 + 64 * r as u32;
    differential("dma-outage-bcast", |elide| {
        let initiator = rosebud::riscv::assemble(DMA_INITIATOR_ASM).unwrap();
        let receivers: Vec<_> = (0..RPUS)
            .map(|r| rosebud::riscv::assemble(&bcast_receiver_asm(receiver_addr(r))).unwrap())
            .collect();
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(RPUS))
            .firmware(move |r| {
                RpuProgram::Riscv(if r == 0 {
                    initiator.clone()
                } else {
                    receivers[r].clone()
                })
            })
            .build()
            .unwrap();
        sys.host_dram_mut()[..4].copy_from_slice(&MAGIC.to_le_bytes());
        // The first outage holds the initiator's request; the second opens
        // after its completion and holds every receiver's request.
        sys.install_fault_plan(
            FaultPlan::new(9)
                .at(0, FaultKind::HostDmaOutage { cycles: 6_000 })
                .at(6_130, FaultKind::HostDmaOutage { cycles: 2_000 }),
        );
        let mut sys = with_elision(sys, elide);
        sys.run(12_000);
        // Non-vacuity: every receiver woke, mirrored and reported the word.
        let mut debug = Vec::new();
        for r in 1..RPUS {
            let at = receiver_addr(r) as usize;
            assert_eq!(sys.host_dram()[at..at + 4], MAGIC.to_le_bytes(), "RPU {r}");
            debug.push(sys.take_debug(r));
        }
        assert!(
            debug.iter().all(|d| *d == Some(u64::from(MAGIC))),
            "{debug:?}"
        );
        // ...and every DMA request waited out an outage while its core slept.
        let trace = sys.take_tracer().unwrap().compact_text();
        let starts: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("dma.start"))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(starts.len(), RPUS, "{starts:?}");
        assert_eq!(starts[0], "@6000");
        assert!(starts[1..].iter().all(|&at| at == "@8130"), "{starts:?}");
        Observed {
            trace,
            ledger: format!("{:?}", sys.ledger()),
            diagnostics: format!("{:?}", sys.diagnostics()),
            measurement: format!("debug={debug:?}"),
            received: 0,
            injected: 0,
            drops: sys.drop_count(),
        }
    });
}
