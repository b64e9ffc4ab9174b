//! The three workloads, their seeded inputs, the one call site of each
//! runner, and the output checks every instance must pass.
//!
//! A *call* is one runner invocation: one consensus instance for the
//! single-instance workloads, one `k`-instance batch for `async-mux`.
//! Call `i`'s inputs (initial values, noise trace, link seed) are pure
//! functions of the workload seed and `i`.

use heardof_async::{run_async, run_async_mux, AsyncConfig};
use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
use heardof_core::{Ate, AteParams};
use heardof_engine::{MuxReport, SubstrateOutcome};
use heardof_model::ProcessId;
use heardof_net::{run_threaded, LinkFaults, NetConfig};
use heardof_telemetry::Telemetry;
use std::time::Duration;

/// Round cap shared by every workload.
pub const MAX_ROUNDS: u64 = 200;
/// Seed of the warm-up call every set-up runs.
pub const WARMUP_SEED: u64 = 1;
/// The `α` every workload provisions for.
pub const ALPHA: u32 = 1;

/// Which substrate and engine a workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `run_async`, one instance per call, correlated-burst trace.
    AsyncBurst,
    /// `run_async_mux`, `k` instances per call, clean links, no trace.
    AsyncMux,
    /// `run_threaded`, one instance per call, correlated-burst trace,
    /// 5 ms round timeout.
    ThreadedBurst,
}

/// One workload: substrate, system size, batch size and seed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Substrate and engine.
    pub kind: Kind,
    /// Processes.
    pub n: usize,
    /// Instances per call.
    pub k: usize,
    /// The workload seed every input derives from.
    pub seed: u64,
}

/// splitmix64: the benchmark's one source of derived seeds and values.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        let (kind, n, k) = match name {
            "async-burst" => (Kind::AsyncBurst, 8, 1),
            "async-mux" => (Kind::AsyncMux, 8, 64),
            "threaded-burst" => (Kind::ThreadedBurst, 5, 1),
            _ => return None,
        };
        Some(Workload { kind, n, k, seed })
    }

    /// The set-up's warm-up call: the workload's configuration on inputs
    /// from a fixed seed, so set-up does the same work whatever the
    /// workload seed.
    pub fn warmup(&self) -> Prepared {
        let fixed = Workload {
            seed: WARMUP_SEED,
            ..self.clone()
        };
        fixed.prepare(0, Telemetry::null())
    }

    /// Calls in the counted pass: a fixed prefix of the call sequence,
    /// so count metrics do not depend on machine speed.
    pub fn counted_calls(&self) -> u64 {
        match self.kind {
            Kind::AsyncBurst => 12000,
            Kind::AsyncMux => 100,
            Kind::ThreadedBurst => 1000,
        }
    }

    /// The barrier-ordered async twin of this workload: same `n`,
    /// inputs, trace and ladder, driven by `run_async`. The traced run
    /// replays the threaded workload's calls through it.
    pub fn replay(&self) -> Workload {
        match self.kind {
            Kind::ThreadedBurst => Workload {
                kind: Kind::AsyncBurst,
                ..self.clone()
            },
            _ => self.clone(),
        }
    }

    /// `A_{T,E}` at the balanced parameters for `n` and [`ALPHA`].
    pub fn algo(&self) -> Ate<u64> {
        Ate::new(AteParams::balanced(self.n, ALPHA).expect("feasible alpha"))
    }

    /// The adaptive ladder with rung gossip, shared by all workloads.
    pub fn adaptive(&self) -> AdaptiveConfig {
        AdaptiveConfig::standard(self.n, ALPHA).with_gossip()
    }

    /// The seed of call `i`: trace seed and link seed.
    pub fn call_seed(&self, i: u64) -> u64 {
        mix(mix(self.seed) ^ i)
    }

    /// The noise trace of call `i` (`None` on the clean mux workload).
    pub fn trace(&self, i: u64) -> Option<NoiseTrace> {
        match self.kind {
            Kind::AsyncMux => None,
            _ => Some(NoiseTrace::correlated_bursts_moderate(self.call_seed(i))),
        }
    }

    /// Binary initial values of call `i`, `[process][instance]`.
    pub fn initials(&self, i: u64) -> Vec<Vec<u64>> {
        let base = mix(self.call_seed(i) ^ 0x1417);
        (0..self.n)
            .map(|p| {
                (0..self.k)
                    .map(|j| mix(base.wrapping_add((p * self.k + j) as u64)) & 1)
                    .collect()
            })
            .collect()
    }

    /// The async configuration of call `i`. The threaded workload's
    /// barrier-ordered replay uses this too, with the same links, trace
    /// and ladder as its threaded runs.
    pub fn async_config(&self, i: u64, telemetry: Telemetry) -> AsyncConfig {
        AsyncConfig {
            faults: LinkFaults::NONE,
            seed: self.call_seed(i),
            copies: 1,
            max_rounds: MAX_ROUNDS,
            code: CodeSpec::DEFAULT,
            adaptive: Some(self.adaptive()),
            trace: self.trace(i),
            lockstep: false,
            telemetry,
        }
    }

    /// Everything call `i` needs, built before the clock starts.
    pub fn prepare(&self, i: u64, telemetry: Telemetry) -> Prepared {
        let initials = self.initials(i);
        let first: Vec<u64> = initials.iter().map(|p| p[0]).collect();
        let call = match self.kind {
            Kind::AsyncBurst => Call::Async(self.async_config(i, telemetry), first),
            Kind::AsyncMux => Call::AsyncMux(self.async_config(i, telemetry), initials.clone()),
            Kind::ThreadedBurst => Call::Threaded(
                NetConfig {
                    faults: LinkFaults::NONE,
                    seed: self.call_seed(i),
                    round_timeout: Duration::from_millis(5),
                    copies: 1,
                    max_rounds: MAX_ROUNDS,
                    code: CodeSpec::DEFAULT,
                    adaptive: Some(self.adaptive()),
                    trace: self.trace(i),
                    lockstep: false,
                    telemetry,
                },
                first,
            ),
        };
        Prepared {
            algo: self.algo(),
            n: self.n,
            initials,
            call: Some(call),
        }
    }
}

/// The runner configuration and initial values of one call.
enum Call {
    Async(AsyncConfig, Vec<u64>),
    AsyncMux(AsyncConfig, Vec<Vec<u64>>),
    Threaded(NetConfig, Vec<u64>),
}

/// One call's inputs, ready to hand to its runner.
pub struct Prepared {
    algo: Ate<u64>,
    n: usize,
    /// `[process][instance]`, kept for the output checks.
    pub initials: Vec<Vec<u64>>,
    call: Option<Call>,
}

/// What a runner returned.
pub enum Outcome {
    /// `run_async` / `run_threaded`.
    Single(SubstrateOutcome<u64>),
    /// `run_async_mux`, one report per process.
    Mux(Vec<MuxReport<u64>>),
}

impl Prepared {
    /// Hands the inputs to the workload's runner — the benchmark's only
    /// call site of `run_async`, `run_async_mux` and `run_threaded`.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn invoke(&mut self) -> Outcome {
        let algo = self.algo.clone();
        match self.call.take().expect("each call is invoked once") {
            Call::Async(cfg, initial) => Outcome::Single(run_async(algo, self.n, initial, cfg)),
            Call::AsyncMux(cfg, initials) => {
                Outcome::Mux(run_async_mux(algo, self.n, initials, cfg))
            }
            Call::Threaded(cfg, initial) => {
                Outcome::Single(run_threaded(algo, self.n, initial, cfg))
            }
        }
    }
}

/// A runner outcome in one shape for both engines.
pub struct Run {
    /// `[process][instance]` first decision value.
    pub decisions: Vec<Vec<Option<u64>>>,
    /// `[process][instance]` first decision round.
    pub decision_rounds: Vec<Vec<Option<u64>>>,
    /// Rounds each process completed.
    pub rounds_completed: Vec<u64>,
    /// `[process][round-1]` the code each process sent with.
    pub codes: Vec<Vec<CodeSpec>>,
    /// `[process][round-1]` distinct senders heard (`|HO(p, r)|`), over
    /// the rounds the outcome reconstructs.
    pub heard: Vec<Vec<usize>>,
}

impl Run {
    /// Normalizes a runner outcome.
    pub fn from_outcome(outcome: Outcome) -> Run {
        match outcome {
            Outcome::Single(o) => {
                let n = o.decisions.len();
                let mut heard = vec![Vec::new(); n];
                for (_, sets) in o.history.iter() {
                    for (p, h) in heard.iter_mut().enumerate() {
                        h.push(sets.ho(ProcessId::new(p as u32)).len());
                    }
                }
                Run {
                    decisions: o.decisions.iter().map(|d| vec![*d]).collect(),
                    decision_rounds: o.decision_rounds.iter().map(|d| vec![*d]).collect(),
                    rounds_completed: o.rounds_completed,
                    codes: o.code_schedule,
                    heard,
                }
            }
            Outcome::Mux(reports) => Run {
                decisions: reports.iter().map(|r| r.decisions.clone()).collect(),
                decision_rounds: reports.iter().map(|r| r.decision_rounds.clone()).collect(),
                rounds_completed: reports.iter().map(|r| r.rounds_completed).collect(),
                codes: reports.iter().map(|r| r.codes.clone()).collect(),
                heard: reports
                    .iter()
                    .map(|r| r.kept.iter().map(|k| k.len()).collect())
                    .collect(),
            },
        }
    }

    /// Instances in the call.
    pub fn instances(&self) -> usize {
        self.decisions[0].len()
    }

    /// System rounds: the most rounds any process ran.
    pub fn system_rounds(&self) -> u64 {
        self.rounds_completed.iter().copied().max().unwrap_or(0)
    }

    /// Rounds run by all processes together.
    pub fn process_rounds(&self) -> u64 {
        self.rounds_completed.iter().sum()
    }

    /// Per instance: the round the last process decided in, if all did.
    pub fn last_decision_round(&self, i: usize) -> Option<u64> {
        self.decision_rounds
            .iter()
            .map(|d| d[i])
            .try_fold(0, |m, r| r.map(|r| m.max(r)))
    }

    /// Checks every instance against `initials` (`[process][instance]`).
    pub fn check(&self, initials: &[Vec<u64>]) -> Verdict {
        let mut v = Verdict::default();
        for i in 0..self.instances() {
            let decided: Vec<u64> = self.decisions.iter().filter_map(|d| d[i]).collect();
            let agree = decided.windows(2).all(|w| w[0] == w[1]);
            let valid = decided.iter().all(|x| initials.iter().any(|p| p[i] == *x));
            let terminated = decided.len() == self.decisions.len()
                && self.last_decision_round(i).is_some_and(|r| r <= MAX_ROUNDS);
            v.attempted += 1;
            if !agree {
                v.disagreements += 1;
            }
            if agree && valid && terminated {
                v.decided += 1;
            } else {
                v.failed += 1;
            }
        }
        v
    }
}

/// Output-check tally over instances.
#[derive(Clone, Copy, Default)]
pub struct Verdict {
    /// Instances checked.
    pub attempted: u64,
    /// Instances that decided and passed every check.
    pub decided: u64,
    /// Instances that did not decide or failed a check.
    pub failed: u64,
    /// Instances whose processes decided different values.
    pub disagreements: u64,
}

impl Verdict {
    /// Adds another tally.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.decided += other.decided;
        self.failed += other.failed;
        self.disagreements += other.disagreements;
    }
}

/// The issue's rung names, in ladder order, plus the oblivious rung.
pub const RUNGS: [&str; 6] = [
    "checksum4",
    "hamming74",
    "interleaved16",
    "fountain8",
    "repetition5",
    "oblivious",
];

/// The benchmark's name for a rung, if it is one of [`RUNGS`].
pub fn rung_index(spec: CodeSpec) -> Option<usize> {
    match spec {
        CodeSpec::Checksum { width: 4 } => Some(0),
        CodeSpec::Hamming74 => Some(1),
        CodeSpec::Interleaved { depth: 16 } => Some(2),
        CodeSpec::Fountain { repair: 8 } => Some(3),
        CodeSpec::Repetition { k: 5 } => Some(4),
        CodeSpec::Oblivious => Some(5),
        _ => None,
    }
}
