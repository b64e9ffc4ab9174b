//! The heardof consensus benchmark.
//!
//! ```text
//! heardof-perfbench --workload <async-burst|async-mux|threaded-burst>
//!                   --seed <u64> --seconds <f64> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public
//! runners; `--trace 1` runs the traced per-layer breakdown. Either
//! way the last line of stdout is one JSON result object; the lines
//! above it are a human-readable table. See `perfbench/README.md`.

mod alloc;
mod e2e;
mod layers;
mod report;
mod traced;
mod workload;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one cold set-up and print its seconds.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("heardof-perfbench: {e}");
        std::process::exit(2);
    });
    let Some(w) = Workload::named(&args.workload, args.seed) else {
        eprintln!("heardof-perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if args.setup_probe {
        let (seconds, verdict) = e2e::setup_once(&w);
        if verdict.disagreements > 0 {
            std::process::exit(1);
        }
        println!("{seconds:?}");
        return;
    }
    if args.trace {
        let r = layers::measure(&w, args.seconds);
        report::print_table(
            &format!("{} seed {} (traced)", args.workload, args.seed),
            &r.metrics,
        );
        println!(
            "# traced calls that differ from the runner: {}",
            r.mismatches
        );
        report::print_result(
            r.verdict.disagreements == 0 && r.mismatches == 0,
            r.verdict.attempted,
            r.verdict.failed,
            &r.metrics,
        );
    } else {
        let probe_args = [
            "--workload".to_string(),
            args.workload.clone(),
            "--seed".to_string(),
            args.seed.to_string(),
            "--seconds".to_string(),
            "1".to_string(),
        ];
        let r = e2e::measure(&w, args.seconds, &probe_args);
        report::print_table(
            &format!("{} seed {} (untraced)", args.workload, args.seed),
            &r.gated,
        );
        report::print_table("not gated", &r.ungated);
        report::print_result(
            r.verdict.disagreements == 0,
            r.verdict.attempted,
            r.verdict.failed,
            &r.gated,
        );
    }
}
