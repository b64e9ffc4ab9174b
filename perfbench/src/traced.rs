//! The traced run: a single-threaded, barrier-ordered driver built from
//! the same public pieces `run_async` uses (`RunFabric`, `engine_for` /
//! `mux_engine_for`, `links_for` over `heardof_async::socket` sinks,
//! `begin_round_with`, `ingest_from` / `ingest`, `finish_round`), with
//! a span around every call into a layer.
//!
//! Spans are chained timestamps: each [`Tracer::mark`] closes the
//! interval since the previous mark and charges it, with the
//! allocations made in it, to one span kind. Nested calls (the link
//! sends inside `begin_round_with`'s emit callback) are marked at the
//! callback's entry and exit, so every kind holds *self* time. Time
//! the driver spends between calls is charged to [`Span::Driver`];
//! the few counter increments the driver makes right after a call are
//! charged to that call's span.

use crate::alloc;
use crate::workload::{Kind, Outcome, Run, Verdict, Workload, MAX_ROUNDS};
use heardof_async::{socket, AsyncConfig, NbReceiver, NbSender};
use heardof_coding::CodeSpec;
use heardof_core::Ate;
use heardof_engine::{link_index, Ingest, MuxRoundEngine, RoundEngine};
use heardof_net::{FaultyLink, LinkEvent, RunFabric};
use std::time::Instant;

/// What a traced interval is charged to.
#[derive(Clone, Copy, Debug)]
pub enum Span {
    /// `begin_round_with`, minus the emit callbacks.
    Send,
    /// `FaultyLink::send`, including the copy handed to it and the
    /// delivery into the receiver's socket.
    Link,
    /// `NbReceiver::try_recv`.
    Socket,
    /// `ingest_from` / `ingest`, including dropping the frame.
    Ingest,
    /// `finish_round`.
    Finish,
    /// The driver's own loop between calls within a round.
    Driver,
    /// Per-call wiring before the first round and outcome assembly
    /// after the last — outside every round.
    Setup,
}

const SPANS: usize = 7;

/// Accumulated self time and allocations per [`Span`].
pub struct Tracer {
    last: Instant,
    last_allocs: u64,
    ns: [u64; SPANS],
    allocs: [u64; SPANS],
}

impl Tracer {
    /// A tracer whose first interval starts now.
    pub fn new() -> Self {
        Tracer {
            last: Instant::now(),
            last_allocs: alloc::allocs(),
            ns: [0; SPANS],
            allocs: [0; SPANS],
        }
    }

    /// Charges the interval since the previous mark to `span`.
    #[inline]
    pub fn mark(&mut self, span: Span) {
        let now = Instant::now();
        let allocs = alloc::allocs();
        self.ns[span as usize] += (now - self.last).as_nanos() as u64;
        self.allocs[span as usize] += allocs - self.last_allocs;
        self.last = now;
        self.last_allocs = allocs;
    }

    /// Nanoseconds charged to `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// Allocations charged to `span`.
    pub fn allocs(&self, span: Span) -> u64 {
        self.allocs[span as usize]
    }
}

/// Counts the driver keeps at the layer boundaries.
#[derive(Default)]
pub struct Counts {
    /// Frames handed to links.
    pub frames: u64,
    /// Bytes handed to links.
    pub wire_bytes: u64,
    /// Frames the link flipped at least one bit of.
    pub corrupted: u64,
    /// Frames the link classified as undetected value faults.
    pub undetected: u64,
    /// Frames ingested.
    pub ingested: u64,
    /// Ingested frames kept for their round.
    pub kept: u64,
    /// Ingested frames the code rejected.
    pub rejected: u64,
    /// Process-rounds finished.
    pub process_rounds: u64,
    /// Traced wall time of each system round, in nanoseconds.
    pub round_ns: Vec<u64>,
}

/// One emitted wire frame, with the coordinates a replay needs.
pub struct Captured {
    /// The call the frame belongs to.
    pub call: u64,
    /// Round.
    pub round: u64,
    /// Sending process.
    pub sender: u32,
    /// Receiving process.
    pub receiver: u32,
    /// Retransmission copy.
    pub copy: u8,
    /// The sender's rung when it sent (`current_code()`).
    pub code: CodeSpec,
    /// The wire image as handed to the link.
    pub wire: Vec<u8>,
}

/// The engine operations the driver needs, over both engines.
trait Engine: Sized {
    fn build(fabric: &RunFabric, algo: Ate<u64>, p: usize, n: usize, init: Vec<u64>) -> Self;
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8]));
    fn ingest(&mut self, sender: u32, bytes: &[u8]) -> Ingest;
    fn finish(&mut self);
    fn code(&self) -> CodeSpec;
    fn decided(&self) -> bool;
    fn outcome(engines: Vec<Self>, fabric: &RunFabric) -> Outcome;
}

impl Engine for RoundEngine<Ate<u64>> {
    fn build(fabric: &RunFabric, algo: Ate<u64>, p: usize, n: usize, init: Vec<u64>) -> Self {
        fabric.engine_for(algo, p, n, init[0])
    }
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8])) {
        self.begin_round_with(emit);
    }
    fn ingest(&mut self, sender: u32, bytes: &[u8]) -> Ingest {
        self.ingest_from(sender, bytes)
    }
    fn finish(&mut self) {
        self.finish_round();
    }
    fn code(&self) -> CodeSpec {
        self.current_code()
    }
    fn decided(&self) -> bool {
        self.decision().is_some()
    }
    fn outcome(engines: Vec<Self>, fabric: &RunFabric) -> Outcome {
        let decisions = engines.iter().map(|e| e.decision().copied()).collect();
        let reports = engines.into_iter().map(|e| e.into_report()).collect();
        Outcome::Single(fabric.assemble(reports, decisions))
    }
}

impl Engine for MuxRoundEngine<Ate<u64>> {
    fn build(fabric: &RunFabric, algo: Ate<u64>, p: usize, n: usize, init: Vec<u64>) -> Self {
        fabric.mux_engine_for(algo, p, n, init)
    }
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8])) {
        self.begin_round_with(emit);
    }
    fn ingest(&mut self, _sender: u32, bytes: &[u8]) -> Ingest {
        MuxRoundEngine::ingest(self, bytes)
    }
    fn finish(&mut self) {
        self.finish_round();
    }
    fn code(&self) -> CodeSpec {
        self.current_code()
    }
    fn decided(&self) -> bool {
        self.all_decided()
    }
    fn outcome(engines: Vec<Self>, _fabric: &RunFabric) -> Outcome {
        Outcome::Mux(engines.into_iter().map(|e| e.into_report()).collect())
    }
}

/// One traced call: what it returned and its checks.
pub struct TracedCall {
    /// The normalized outcome.
    pub run: Run,
    /// Output checks.
    pub verdict: Verdict,
    /// Bytes handed to links in this call.
    pub wire_bytes: u64,
    /// Wall time of the traced driver, wiring to outcome.
    pub wall_s: f64,
}

/// Drives call `i` of `w` (an async workload or a replay twin) through
/// the traced driver, charging time to `tracer` and counts to `counts`,
/// and appending every emitted frame to `capture` when given.
pub fn traced_call(
    w: &Workload,
    i: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    capture: Option<&mut Vec<Captured>>,
) -> TracedCall {
    let cfg = w.async_config(i, heardof_telemetry::Telemetry::null());
    let initials = w.initials(i);
    let wire_before = counts.wire_bytes;
    let t0 = Instant::now();
    let outcome = if w.kind == Kind::AsyncMux {
        drive::<MuxRoundEngine<Ate<u64>>>(w, i, cfg, &initials, tracer, counts, capture)
    } else {
        drive::<RoundEngine<Ate<u64>>>(w, i, cfg, &initials, tracer, counts, capture)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let run = Run::from_outcome(outcome);
    let verdict = run.check(&initials);
    TracedCall {
        run,
        verdict,
        wire_bytes: counts.wire_bytes - wire_before,
        wall_s,
    }
}

/// The barrier-ordered round loop of `run_async`, unrolled into one
/// thread: every process sends, then every process drains its socket,
/// then every process finishes the round; all exit once every process
/// has decided.
fn drive<E: Engine>(
    w: &Workload,
    call: u64,
    cfg: AsyncConfig,
    initials: &[Vec<u64>],
    tracer: &mut Tracer,
    counts: &mut Counts,
    mut capture: Option<&mut Vec<Captured>>,
) -> Outcome {
    let n = w.n;
    let algo = w.algo();
    let fabric = RunFabric::new(
        cfg.faults,
        cfg.seed,
        cfg.copies,
        cfg.max_rounds,
        cfg.code,
        cfg.adaptive,
        cfg.trace,
        cfg.telemetry,
    );
    let (txs, inboxes): (Vec<NbSender>, Vec<NbReceiver>) = (0..n).map(|_| socket()).unzip();
    let mut links: Vec<Vec<FaultyLink>> = (0..n)
        .map(|p| fabric.links_for(p, n, |q| Box::new(txs[q].clone())))
        .collect();
    drop(txs);
    let mut engines: Vec<E> = (0..n)
        .map(|p| E::build(&fabric, algo.clone(), p, n, initials[p].clone()))
        .collect();
    let mut decided = vec![false; n];
    tracer.mark(Span::Setup);

    for r in 1..=MAX_ROUNDS {
        let round_start = tracer.last;
        for (p, engine) in engines.iter_mut().enumerate() {
            let code = engine.code();
            let links = &mut links[p];
            let capture = &mut capture;
            tracer.mark(Span::Driver);
            engine.begin(|dest, copy, bytes| {
                tracer.mark(Span::Send);
                let event = links[link_index(dest, p as u32)].send(r, copy, bytes.to_vec());
                counts.frames += 1;
                counts.wire_bytes += bytes.len() as u64;
                counts.corrupted += u64::from(event != LinkEvent::Delivered);
                counts.undetected += u64::from(event == LinkEvent::CorruptedUndetected);
                tracer.mark(Span::Link);
                if let Some(frames) = capture.as_deref_mut() {
                    frames.push(Captured {
                        call,
                        round: r,
                        sender: p as u32,
                        receiver: dest,
                        copy,
                        code,
                        wire: bytes.to_vec(),
                    });
                    tracer.mark(Span::Driver);
                }
            });
            tracer.mark(Span::Send);
        }
        for (engine, inbox) in engines.iter_mut().zip(&inboxes) {
            tracer.mark(Span::Driver);
            loop {
                let frame = inbox.try_recv();
                tracer.mark(Span::Socket);
                let Some((sender, bytes)) = frame else { break };
                let verdict = engine.ingest(sender, &bytes);
                drop(bytes);
                counts.ingested += 1;
                counts.kept += u64::from(verdict == Ingest::Kept);
                counts.rejected += u64::from(verdict == Ingest::Rejected);
                tracer.mark(Span::Ingest);
            }
        }
        for (engine, done) in engines.iter_mut().zip(decided.iter_mut()) {
            tracer.mark(Span::Driver);
            engine.finish();
            tracer.mark(Span::Finish);
            *done = engine.decided();
        }
        counts.process_rounds += n as u64;
        tracer.mark(Span::Driver);
        counts
            .round_ns
            .push((tracer.last - round_start).as_nanos() as u64);
        if decided.iter().all(|d| *d) {
            break;
        }
    }
    E::outcome(engines, &fabric)
}
