//! The untraced run: set-up time, a closed-loop timed pass through the
//! public runner, and a counted pass over a fixed set of calls.
//!
//! Timing metrics come from the timed pass (telemetry off). Count
//! metrics come from the counted pass, which attaches
//! `Telemetry::counters()` to the first [`Workload::counted_calls`]
//! calls; on the async substrate they repeat exactly for a seed.

use crate::alloc;
use crate::report::{metric, percentile, ratio, Metric};
use crate::workload::{Run, Verdict, Workload};
use heardof_telemetry::{EventKind, Telemetry};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Calls per chunk of the timed pass, at least: enough for a p99 with
/// ten samples beyond it.
const CHUNK_CALLS: usize = 1000;
/// Chunks of the timed pass, at most.
const MAX_CHUNKS: usize = 15;

/// Wire-level totals of one counted call, read from the telemetry
/// counter plane.
#[derive(Clone, Copy, Default)]
pub struct WireCount {
    /// Frames handed to links.
    pub frames: u64,
    /// Bytes handed to links.
    pub bytes: u64,
    /// Frames the links classified as undetected value faults.
    pub undetected: u64,
}

const LINK_KINDS: [EventKind; 5] = [
    EventKind::LinkDelivered,
    EventKind::LinkDropped,
    EventKind::LinkCorrected,
    EventKind::LinkDetected,
    EventKind::LinkUndetected,
];

/// Runs call `i` with a fresh counter plane attached.
pub fn counted_call(w: &Workload, i: u64) -> (Run, Verdict, WireCount) {
    let telemetry = Telemetry::counters();
    let mut prepared = w.prepare(i, telemetry.clone());
    let run = Run::from_outcome(prepared.invoke());
    let verdict = run.check(&prepared.initials);
    let wire = WireCount {
        frames: LINK_KINDS.iter().map(|&k| telemetry.total(k)).sum(),
        bytes: LINK_KINDS.iter().map(|&k| telemetry.value_total(k)).sum(),
        undetected: telemetry.total(EventKind::LinkUndetected),
    };
    (run, verdict, wire)
}

/// Cold set-up: builds the warm-up call's inputs and runs it, in a
/// process that has done nothing else yet. Returns the wall time and
/// the checks.
pub fn setup_once(w: &Workload) -> (f64, Verdict) {
    let t0 = Instant::now();
    let mut prepared = w.warmup();
    let run = Run::from_outcome(prepared.invoke());
    let seconds = t0.elapsed().as_secs_f64();
    (seconds, run.check(&prepared.initials))
}

/// Median cold set-up time over [`SETUP_REPS`] fresh processes, each
/// running this binary's `--setup-probe` mode (so one-time lazy
/// initialization shows, as it would for a user).
fn setup_seconds(args: &[String]) -> f64 {
    // The path this process was started by, relative to the unchanged
    // working directory.
    let exe = std::env::args_os().next().expect("own executable path");
    let mut times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(args)
                .arg("--setup-probe")
                .arg("1")
                .output()
                .expect("set-up probe starts");
            assert!(out.status.success(), "set-up probe failed");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("set-up probe prints seconds")
        })
        .collect();
    percentile(&mut times, 0.5)
}

/// One timed runner call.
struct Sample {
    latency_ms: f64,
    decided: u64,
    system_rounds: u64,
}

/// Closed-loop totals of the timed pass.
struct Timed {
    samples: Vec<Sample>,
    verdict: Verdict,
    process_rounds: u64,
    allocs: u64,
    peak_bytes: usize,
}

/// Runs calls 0, 1, 2, … back to back for `seconds`, timing each
/// runner call from call to return.
fn timed_pass(w: &Workload, seconds: f64) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let mut t = Timed {
        samples: Vec::with_capacity(1 << 17),
        verdict: Verdict::default(),
        process_rounds: 0,
        allocs: 0,
        peak_bytes: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let mut prepared = w.prepare(i, Telemetry::null());
        let base = alloc::reset_peak();
        let allocs_before = alloc::allocs();
        let t0 = Instant::now();
        let outcome = prepared.invoke();
        let dt = t0.elapsed();
        t.allocs += alloc::allocs() - allocs_before;
        t.peak_bytes = t.peak_bytes.max(alloc::peak().saturating_sub(base));
        let run = Run::from_outcome(outcome);
        let verdict = run.check(&prepared.initials);
        t.verdict.add(verdict);
        t.process_rounds += run.process_rounds();
        t.samples.push(Sample {
            latency_ms: dt.as_secs_f64() * 1e3,
            decided: verdict.decided,
            system_rounds: run.system_rounds(),
        });
        i += 1;
    }
    t
}

/// Timing statistics over consecutive chunks of the timed pass, so a
/// stretch of interference from outside moves some chunks, not the
/// result: `(decisions/s, rounds/s, p50 ms, p99 ms)`. Rates and the
/// p50 are medians over chunks. The p99 is the lower quartile of the
/// chunk p99s: where a workload's latency tail is flat (`async-mux`,
/// p99 within ~15% of p50), any preemption from outside lands in it,
/// and only the quieter chunks measure the program. Rates are per
/// second of wall time inside runner calls, so the caller's own
/// bookkeeping between calls does not count.
fn chunked(t: &Timed) -> (f64, f64, f64, f64) {
    let calls = t.samples.len();
    let chunks = (calls / CHUNK_CALLS).clamp(1, MAX_CHUNKS);
    let (mut dps, mut rps, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    for c in 0..chunks {
        let part = &t.samples[c * calls / chunks..(c + 1) * calls / chunks];
        let mut lat: Vec<f64> = part.iter().map(|s| s.latency_ms).collect();
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        dps.push(part.iter().map(|s| s.decided).sum::<u64>() as f64 / busy_s);
        rps.push(part.iter().map(|s| s.system_rounds).sum::<u64>() as f64 / busy_s);
        p50.push(percentile(&mut lat, 0.5));
        p99.push(percentile(&mut lat, 0.99));
    }
    (
        percentile(&mut dps, 0.5),
        percentile(&mut rps, 0.5),
        percentile(&mut p50, 0.5),
        percentile(&mut p99, 0.25),
    )
}

/// The untraced run's results.
pub struct E2e {
    /// Metrics gated by `BENCHMARK.json`.
    pub gated: Vec<Metric>,
    /// Issue metrics that may read 0 and so are printed, not gated.
    pub ungated: Vec<Metric>,
    /// Output checks over every instance run.
    pub verdict: Verdict,
}

/// Set-up (in child processes started with `args`), timed pass for
/// `seconds`, counted pass.
pub fn measure(w: &Workload, seconds: f64, args: &[String]) -> E2e {
    let setup_s = setup_seconds(args);
    let timed = timed_pass(w, seconds);
    let mut verdict = timed.verdict;

    let mut counted = Verdict::default();
    let mut wire = WireCount::default();
    let mut decide_rounds = 0u64;
    for i in 0..w.counted_calls() {
        let (run, v, count) = counted_call(w, i);
        counted.add(v);
        wire.frames += count.frames;
        wire.bytes += count.bytes;
        wire.undetected += count.undetected;
        decide_rounds += (0..run.instances())
            .filter_map(|j| run.last_decision_round(j))
            .sum::<u64>();
    }
    verdict.add(counted);

    let (decisions_per_s, rounds_per_s, p50, p99) = chunked(&timed);
    let gated = vec![
        metric("decisions_per_s", decisions_per_s, "1/s"),
        metric("decide_ms_p50", p50, "ms"),
        metric("decide_ms_p99", p99, "ms"),
        metric("rounds_per_s", rounds_per_s, "1/s"),
        metric(
            "decide_rounds_mean",
            ratio(decide_rounds as f64, counted.decided as f64),
            "rounds",
        ),
        metric(
            "wire_bytes_per_decision",
            ratio(wire.bytes as f64, counted.decided as f64),
            "B",
        ),
        metric(
            "allocs_per_round",
            ratio(timed.allocs as f64, timed.process_rounds as f64),
            "count",
        ),
        metric("peak_heap_mb", timed.peak_bytes as f64 / 1e6, "MB"),
        metric("setup_s", setup_s, "s"),
    ];
    let ungated = vec![
        metric(
            "undetected_per_1k_frames",
            ratio(1e3 * wire.undetected as f64, wire.frames as f64),
            "count",
        ),
        metric(
            "failed_frac",
            ratio(verdict.failed as f64, verdict.attempted as f64),
            "frac",
        ),
        metric("calls_timed", timed.samples.len() as f64, "count"),
        metric("instances_counted", counted.attempted as f64, "count"),
    ];
    E2e {
        gated,
        ungated,
        verdict,
    }
}
