//! `rosebud-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, a summary line, and as the last line the JSON
//! result. Exits 0 when every check passed, 1 when a check failed (the
//! result line says which run), 2 on a usage or set-up error.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;

use rosebud_perfbench::{
    calibrate_ms, git_revision, probe, run, schema, Budget, Workload, FORBIDDEN_ENV, WORKLOADS,
};

/// Delegates to the system allocator, counting calls and bytes so the
/// traced run can attribute allocations to the layer spans.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counters are
// plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        probe::count_alloc(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        probe::count_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        probe::count_alloc(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rosebud-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it would change the simulation kernel under measurement. Unset it."
        ));
    }
    let args = parse(std::env::args().skip(1))?;
    let workload = Workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": \"{}\", \"kernel\": \"{}\", \"calib_ms\": {:?}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_revision(),
        kernel.trim(),
        calibrate_ms(),
    );

    let budget = Budget {
        seconds: args.seconds as f64,
        small: false,
    };
    let result = run(workload, args.seed, budget, args.trace)?;
    let summary: Vec<String> = result
        .summary
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"summary\": {{{}}}}}", summary.join(", "));
    println!("{}", result.outcome.to_json(schema(args.trace))?);
    Ok(if result.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
