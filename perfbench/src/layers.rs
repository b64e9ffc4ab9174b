//! The per-layer run (`--trace 1`): reference passes through the public
//! runner, the traced pass, the reproduction check between them, and
//! the per-rung coding replay on captured frames.

use crate::e2e::{counted_call, setup_once};
use crate::report::{metric, percentile, ratio, Metric};
use crate::traced::{traced_call, Captured, Counts, Span, Tracer};
use crate::workload::{rung_index, Kind, Run, Verdict, Workload, RUNGS};
use heardof_coding::{CodeBook, NoiseTrace};
use heardof_telemetry::Telemetry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of each replay loop.
const REPLAY_MIN: Duration = Duration::from_millis(20);

/// The per-layer results.
pub struct Layers {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Output checks over every instance run.
    pub verdict: Verdict,
    /// Calls whose traced replay differed from the runner.
    pub mismatches: u64,
}

/// How many calls each pass covers: `(reference, capture)`.
fn pass_sizes(kind: Kind) -> (u64, u64) {
    match kind {
        Kind::AsyncMux => (20, 8),
        _ => (1000, 300),
    }
}

/// Process CPU time (user + system, all threads, live and exited):
/// `getrusage(RUSAGE_SELF)`, the counters `/proc/self/stat` shows,
/// read without touching the file system.
fn cpu_seconds() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        _rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the layout the
    // kernel fills for RUSAGE_SELF on 64-bit Linux.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0.0;
    }
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// Round-close and decision-lag tallies over outcomes.
#[derive(Default)]
struct NetTally {
    process_rounds: u64,
    short_rounds: u64,
    past_decision: u64,
    decided: u64,
}

impl NetTally {
    fn add(&mut self, run: &Run, n: usize) {
        for heard in &run.heard {
            self.process_rounds += heard.len() as u64;
            self.short_rounds += heard.iter().filter(|&&h| h < n).count() as u64;
        }
        for (p, rounds) in run.decision_rounds.iter().enumerate() {
            for r in rounds.iter().flatten() {
                self.past_decision += run.rounds_completed[p] - r;
                self.decided += 1;
            }
        }
    }
}

/// Rung usage over code schedules.
#[derive(Default)]
struct RungTally {
    rounds: [u64; RUNGS.len()],
    total: u64,
    switches: u64,
}

impl RungTally {
    fn add(&mut self, run: &Run) {
        for codes in &run.codes {
            for c in codes {
                if let Some(i) = rung_index(*c) {
                    self.rounds[i] += 1;
                }
            }
            self.total += codes.len() as u64;
            self.switches += codes.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        }
    }
}

/// Runs `body` over and over until [`REPLAY_MIN`] has passed; returns
/// nanoseconds per item for `items` items per pass.
fn time_per_item(items: usize, mut body: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t0.elapsed() < REPLAY_MIN {
        body();
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (passes as f64 * items as f64)
}

/// Replays captured frames through the coding layer: tagged decode and
/// encode per rung, and the noise trace alone.
fn coding_replay(w: &Workload, frames: &[Captured]) -> Vec<Metric> {
    let book = CodeBook::from_specs(&w.adaptive().ladder);
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut rate = Vec::new();
    for (i, name) in RUNGS.iter().enumerate() {
        let wires: Vec<&[u8]> = frames
            .iter()
            .filter(|f| rung_index(f.code) == Some(i))
            .map(|f| f.wire.as_slice())
            .collect();
        let tagged: Vec<_> = wires
            .iter()
            .map(|wire| {
                book.decode_tagged_full(wire)
                    .expect("pristine frames decode")
            })
            .collect();
        let decode_ns = time_per_item(wires.len(), || {
            for wire in &wires {
                let _ = black_box(book.decode_tagged(black_box(wire)));
            }
        });
        let encode_ns = time_per_item(tagged.len(), || {
            for t in &tagged {
                black_box(book.encode_tagged_advert(t.code_id, t.advert, black_box(&t.body)));
            }
        });
        let wire_bytes: usize = wires.iter().map(|w| w.len()).sum();
        let body_bytes: usize = tagged.iter().map(|t| t.body.len()).sum();
        decode.push(metric(
            format!("coding.decode.ns_per_frame.{name}"),
            decode_ns,
            "ns",
        ));
        encode.push(metric(
            format!("coding.encode.ns_per_frame.{name}"),
            encode_ns,
            "ns",
        ));
        rate.push(metric(
            format!("coding.rate.{name}"),
            ratio(wire_bytes as f64, body_bytes as f64),
            "B/B",
        ));
    }

    // Noise sampling alone, on copies of the captured frames (flip
    // counts do not depend on the bytes, so corrupting a copy again
    // costs the same as the first time).
    let calls = frames.iter().map(|f| f.call + 1).max().unwrap_or(0);
    let traces: Vec<Option<NoiseTrace>> = (0..calls).map(|c| w.trace(c)).collect();
    let mut noisy: Vec<(&Captured, &NoiseTrace, Vec<u8>)> = frames
        .iter()
        .filter_map(|f| Some((f, traces[f.call as usize].as_ref()?, f.wire.clone())))
        .collect();
    let noise_ns = time_per_item(noisy.len(), || {
        for (f, trace, buf) in noisy.iter_mut() {
            black_box(trace.corrupt_frame(f.round, f.sender, f.receiver, f.copy, buf));
        }
    });

    let mut metrics = vec![metric("coding.noise.ns_per_frame", noise_ns, "ns")];
    metrics.extend(decode);
    metrics.extend(encode);
    metrics.extend(rate);
    metrics
}

/// The traced run for `w`, spending about `seconds` in timed passes.
pub fn measure(w: &Workload, seconds: f64) -> Layers {
    let replay = w.replay();
    let (reference_calls, capture_calls) = pass_sizes(w.kind);
    let (_, mut verdict) = setup_once(w);
    let mut net = NetTally::default();

    // Threaded only: the clock-driven runs themselves, for the
    // outside-visible round-close metrics. Half of the time budget.
    let mut traced_budget = seconds;
    let mut cpu = (0.0, 0.0);
    if w.kind == Kind::ThreadedBurst {
        traced_budget = seconds / 2.0;
        let (wall0, cpu0) = (Instant::now(), cpu_seconds());
        let mut i = 0;
        while wall0.elapsed().as_secs_f64() < seconds / 2.0 {
            let mut prepared = w.prepare(i, Telemetry::null());
            let run = Run::from_outcome(prepared.invoke());
            verdict.add(run.check(&prepared.initials));
            net.add(&run, w.n);
            i += 1;
        }
        cpu = (cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    }

    // Traced pass: at least the reference calls, then on until the
    // budget is spent. Each reference call also runs through the public
    // runner right before its traced run — once timed with telemetry
    // off (the tracing-overhead baseline, measured under the same
    // machine conditions) and once counted (the reproduction check).
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut rungs = RungTally::default();
    let mut mismatches = 0u64;
    let (mut untraced_s, mut traced_s, mut reference_rounds) = (0.0, 0.0, 0u64);
    let (wall0, cpu0) = (Instant::now(), cpu_seconds());
    let mut i = 0;
    while i < reference_calls || wall0.elapsed().as_secs_f64() < traced_budget {
        let reference = (i < reference_calls).then(|| {
            let mut prepared = replay.prepare(i, Telemetry::null());
            let t0 = Instant::now();
            let _ = prepared.invoke();
            untraced_s += t0.elapsed().as_secs_f64();
            counted_call(&replay, i)
        });
        let call = traced_call(&replay, i, &mut tracer, &mut counts, None);
        verdict.add(call.verdict);
        rungs.add(&call.run);
        if w.kind != Kind::ThreadedBurst {
            net.add(&call.run, w.n);
        }
        if let Some((run, v, wire)) = reference {
            let same = run.decision_rounds == call.run.decision_rounds
                && run.codes == call.run.codes
                && wire.bytes == call.wire_bytes;
            mismatches += u64::from(!same);
            verdict.add(v);
            traced_s += call.wall_s;
            reference_rounds += call.run.system_rounds();
        }
        i += 1;
    }
    if w.kind != Kind::ThreadedBurst {
        cpu = (cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    }

    // Capture pass (timings discarded) and the coding replay.
    let mut frames = Vec::new();
    let mut scratch = (Tracer::new(), Counts::default());
    for i in 0..capture_calls {
        traced_call(
            &replay,
            i,
            &mut scratch.0,
            &mut scratch.1,
            Some(&mut frames),
        );
    }
    let coding = coding_replay(w, &frames);

    let c = &counts;
    let t = &tracer;
    let frames_sent = c.frames as f64;
    let ingested = c.ingested as f64;
    let round_total: u64 = c.round_ns.iter().sum();
    let driver = t.ns(Span::Driver) as f64;
    let covered = round_total as f64 - driver;
    let mut round_us: Vec<f64> = c.round_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let untraced_rps = ratio(reference_rounds as f64, untraced_s);
    let traced_rps = ratio(reference_rounds as f64, traced_s);

    let mut metrics = vec![
        metric(
            "engine.send.ns_per_frame",
            ratio(t.ns(Span::Send) as f64, frames_sent),
            "ns",
        ),
        metric(
            "engine.ingest.ns_per_frame",
            ratio(t.ns(Span::Ingest) as f64, ingested),
            "ns",
        ),
        metric(
            "engine.finish.us_per_round",
            ratio(t.ns(Span::Finish) as f64 / 1e3, c.process_rounds as f64),
            "us",
        ),
        metric(
            "engine.ingest.kept_frac",
            ratio(c.kept as f64, ingested),
            "frac",
        ),
        metric(
            "engine.ingest.rejected_frac",
            ratio(c.rejected as f64, ingested),
            "frac",
        ),
        metric("engine.round.us_p50", percentile(&mut round_us, 0.5), "us"),
        metric("engine.round.us_p99", percentile(&mut round_us, 0.99), "us"),
        metric(
            "engine.send.allocs_per_frame",
            ratio(t.allocs(Span::Send) as f64, frames_sent),
            "count",
        ),
        metric(
            "engine.ingest.allocs_per_frame",
            ratio(t.allocs(Span::Ingest) as f64, ingested),
            "count",
        ),
        metric(
            "net.link.ns_per_frame",
            ratio(t.ns(Span::Link) as f64, frames_sent),
            "ns",
        ),
        metric(
            "net.link.allocs_per_frame",
            ratio(t.allocs(Span::Link) as f64, frames_sent),
            "count",
        ),
        metric(
            "net.link.corrupted_frac",
            ratio(c.corrupted as f64, frames_sent),
            "frac",
        ),
        metric(
            "net.link.undetected_per_1k_frames",
            ratio(1e3 * c.undetected as f64, frames_sent),
            "count",
        ),
        metric(
            "net.timeout_close_frac",
            ratio(net.short_rounds as f64, net.process_rounds as f64),
            "frac",
        ),
        metric(
            "net.rounds_past_decision_mean",
            ratio(net.past_decision as f64, net.decided as f64),
            "rounds",
        ),
        metric("net.cpu_busy_frac", ratio(cpu.0, cpu.1), "frac"),
        metric(
            "async.socket.ns_per_frame",
            ratio(t.ns(Span::Socket) as f64, ingested),
            "ns",
        ),
        metric(
            "async.driver_frac",
            ratio(driver, round_total as f64),
            "frac",
        ),
    ];
    metrics.extend(coding);
    for (i, name) in RUNGS.iter().enumerate() {
        metrics.push(metric(
            format!("coding.rung_share.{name}"),
            ratio(rungs.rounds[i] as f64, rungs.total as f64),
            "frac",
        ));
    }
    metrics.extend([
        metric(
            "coding.switches_per_1k_rounds",
            ratio(1e3 * rungs.switches as f64, rungs.total as f64),
            "count",
        ),
        metric(
            "trace.coverage_frac",
            ratio(covered, round_total as f64),
            "frac",
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (ratio(untraced_rps, traced_rps) - 1.0),
            "%",
        ),
    ]);
    Layers {
        metrics,
        verdict,
        mismatches,
    }
}
