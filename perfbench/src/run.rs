//! The runner every workload shares: timed set-up, one check pass over
//! all of the workload's fixed operations, then repeated passes over its
//! timed sample until the time budget is spent. Every pass runs in a
//! seeded order; every outcome is checked against the check pass, and
//! the check pass against the pinned digest.

use crate::digest::{self, Digest};
use crate::measure::{median, percentile};
use crate::probe::{layer_metrics, Probe};
use nautix_des::DetRng;
use nautix_stats::StatsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The repeat quantile that stands for an operation's host time. A
/// shared host alternates, over seconds to minutes, between a contended
/// and an uncontended regime; the 90th percentile reads the contended
/// one whenever a run sees any of it, so runs agree on it.
pub const REPEAT_QUANTILE: f64 = 0.9;

/// The simulated result of one operation.
pub trait Outcome {
    /// Digest of every simulated field of this outcome.
    fn digest(&self) -> u64;
    /// Simulated machine events the operation processed.
    fn events(&self) -> u64;
    /// Admission decisions the operation made.
    fn decisions(&self) -> u64;
    /// Failure units that failed (see [`Workload::UNITS`]).
    fn failed(&self) -> u64;
    /// Work counters of the simulated nodes.
    fn counters(&self) -> StatsSnapshot;
    /// Shard admissions attempted (placement workloads only).
    fn probes(&self) -> u64 {
        0
    }
}

/// Simulated end-to-end metrics over one full pass. `None` marks a
/// metric whose mechanism the workload does not run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimMetrics {
    /// Mean of the Fig. 13 and Fig. 14 control-quality CVs.
    pub throttle_cv: Option<f64>,
    /// p99 of per-invocation gang dispatch spread, cycles.
    pub gang_spread_p99_cycles: Option<f64>,
    /// Placed demand relative to what a fluid oracle places.
    pub placement_quality: Option<f64>,
}

/// One benchmark workload: a fixed list of operations whose simulated
/// results are pinned, and the state they run on.
pub trait Workload: Sized {
    /// Per-operation simulated result.
    type Outcome: Outcome;
    /// Generate the workload and boot what it runs on.
    fn setup(probe: Option<&mut Probe>) -> Self;
    /// Operations in one pass.
    fn ops(&self) -> usize;
    /// Every `TIMED_EVERY`-th operation forms the timed sample, which
    /// runs again after the check pass.
    const TIMED_EVERY: usize = 1;
    /// Failure units one operation stands for: 1 per trial, 1 per
    /// placement decision.
    const UNITS: u64;
    /// Run operation `op`; with a probe, time its calls from outside.
    fn run(&mut self, op: usize, probe: Option<&mut Probe>) -> Self::Outcome;
    /// Simulated metrics over a full pass, in operation order.
    fn sim_metrics(pass: &[&Self::Outcome]) -> SimMetrics;
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the operation order.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a run prints.
pub struct Report {
    /// No failed operation and the pinned digest reproduced.
    pub correct: bool,
    /// Failure units attempted.
    pub attempted: u64,
    /// Failure units failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the check pass.
    pub digest: u64,
    /// Operations run.
    pub ops_run: u64,
    /// Completed passes.
    pub passes: u64,
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.uniform(0, i as u64) as usize;
        order.swap(i, j);
    }
    order
}

/// Digest of a full pass: its operations' digests in operation order.
pub fn pass_digest(op_digests: &[u64]) -> u64 {
    Digest::new().words(op_digests).finish()
}

/// Run `W` under `args`.
pub fn run<W: Workload>(args: &Args) -> Report {
    let mut probe = args.trace.then(Probe::default);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = W::setup(probe.as_mut());
        setup_s.push(t0.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.expect("at least one set-up");
    let n = w.ops();
    let timed: Vec<usize> = (0..n).step_by(W::TIMED_EVERY).collect();
    let mut rng = DetRng::seed_from(args.seed);
    let mut first: Vec<Option<W::Outcome>> = (0..n).map(|_| None).collect();
    let mut op_digests = vec![0u64; n];
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut ops_run = 0u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut passes = 0u64;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    'passes: loop {
        let ops = if passes == 0 {
            permutation(n, &mut rng)
        } else {
            let order = permutation(timed.len(), &mut rng);
            order.into_iter().map(|i| timed[i]).collect()
        };
        for op in ops {
            if passes > 0 && started.elapsed() >= budget {
                break 'passes;
            }
            attempted += W::UNITS;
            let t0 = Instant::now();
            let plain = catch_unwind(AssertUnwindSafe(|| w.run(op, None)));
            let dt = t0.elapsed().as_nanos() as u64;
            let Ok(mut out) = plain else {
                failed += W::UNITS;
                continue;
            };
            ops_run += 1;
            if op % W::TIMED_EVERY == 0 {
                samples[op].push(dt);
            }
            if let Some(p) = probe.as_mut() {
                untraced_ns += dt;
                let t0 = Instant::now();
                let traced = catch_unwind(AssertUnwindSafe(|| w.run(op, Some(p))));
                traced_ns += t0.elapsed().as_nanos() as u64;
                match traced {
                    // The traced run must simulate exactly what the plain
                    // run did.
                    Ok(t) if t.digest() == out.digest() => out = t,
                    _ => {
                        failed += W::UNITS;
                        continue;
                    }
                }
            }
            let mut bad = out.failed();
            match &first[op] {
                Some(f) if f.digest() != out.digest() => bad = W::UNITS,
                Some(_) => {}
                None => {
                    op_digests[op] = out.digest();
                    first[op] = Some(out);
                }
            }
            failed += bad.min(W::UNITS);
        }
        passes += 1;
        if started.elapsed() >= budget {
            break;
        }
    }

    // An operation that never ran cleanly leaves the pass incomplete.
    let pinned_ok = first.iter().all(Option::is_some)
        && digest::pinned(&args.workload) == Some(pass_digest(&op_digests));
    if !pinned_ok {
        failed = attempted;
    }
    let metrics = match probe.as_mut() {
        Some(p) => {
            let mut counters = StatsSnapshot::default();
            let (mut pass_decisions, mut probes) = (0, 0);
            for o in first.iter().flatten() {
                counters.merge(&o.counters());
                pass_decisions += o.decisions();
                probes += o.probes();
            }
            let overhead = traced_ns as f64 / untraced_ns.max(1) as f64;
            layer_metrics(p, &counters, pass_decisions, probes, overhead)
        }
        None => {
            let (mut events, mut decisions, mut ns) = (0, 0, 0);
            let mut op_ns = Vec::with_capacity(timed.len());
            for &op in &timed {
                if let (Some(o), false) = (&first[op], samples[op].is_empty()) {
                    let t = percentile(&mut samples[op], REPEAT_QUANTILE);
                    events += o.events();
                    decisions += o.decisions();
                    ns += t;
                    op_ns.push(t);
                }
            }
            let secs = ns as f64 / 1e9;
            let per_s = |count: u64| (count > 0).then(|| count as f64 / secs);
            let sim = if pinned_ok {
                let pass: Vec<&W::Outcome> = first.iter().flatten().collect();
                W::sim_metrics(&pass)
            } else {
                SimMetrics::default()
            };
            // A metric the workload does not exercise reads 1, never 0,
            // so ratio checks over it stay defined.
            let na = |m: Option<f64>| m.unwrap_or(1.0);
            vec![
                ("setup_s", median(&mut setup_s), "s"),
                ("events_per_s", na(per_s(events)), "1/s"),
                (
                    "trial_p50_ms",
                    percentile(&mut op_ns.clone(), 0.5) as f64 / 1e6,
                    "ms",
                ),
                (
                    "trial_p99_ms",
                    percentile(&mut op_ns, 0.99) as f64 / 1e6,
                    "ms",
                ),
                ("decisions_per_s", na(per_s(decisions)), "1/s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
                ("throttle_cv", na(sim.throttle_cv), "ratio"),
                (
                    "gang_spread_p99_cycles",
                    na(sim.gang_spread_p99_cycles),
                    "cycles",
                ),
                ("placement_quality", na(sim.placement_quality), "ratio"),
            ]
        }
    };
    Report {
        correct: pinned_ok && failed == 0,
        attempted,
        failed,
        metrics,
        digest: pass_digest(&op_digests),
        ops_run,
        passes,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where the
/// kernel does not report it.
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
