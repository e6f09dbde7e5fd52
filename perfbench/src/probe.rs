//! The traced run's recorder. Every span is taken from outside a public
//! call into the simulator — a boot, a spawn, one `Node::step`, one
//! placement decision — so tracing cannot change what is simulated;
//! splitting the time spent *inside* a step needs probes in the program.

use crate::measure::{percentile, Histogram};
use nautix_rt::Node;
use nautix_stats::StatsSnapshot;
use std::time::Instant;

/// Spans and counters of one traced run.
#[derive(Default)]
pub struct Probe {
    /// `Node::new` durations, ns.
    pub node_new_ns: Vec<u64>,
    /// `NodePool::node` (reset in place) durations, ns.
    pub pool_reset_ns: Vec<u64>,
    /// Per-thread spawn durations (`spawn_on` / `spawn_unbound`, or
    /// `spawn_bsp` divided by its gang width), ns.
    pub spawn_ns: Vec<u64>,
    /// One sample per `Node::step`, ns.
    pub step_ns: Histogram,
    /// `event_backlog()` summed over the steps.
    pub backlog_sum: u64,
    /// Largest backlog seen before a step.
    pub backlog_max: u64,
    /// Interval between successive placement decisions, ns.
    pub decision_ns: Histogram,
    /// Policy self time per decision, ns.
    pub candidates_ns: Histogram,
}

impl Probe {
    /// Time `f`, pushing its duration onto `into`.
    pub fn span<T>(into: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        into.push(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Step `node` while `more(node)` holds, timing each step and
    /// sampling the event backlog before it. Returns false if the
    /// machine ran out of events first.
    pub fn step_while(&mut self, node: &mut Node, mut more: impl FnMut(&Node) -> bool) -> bool {
        while more(node) {
            let backlog = node.machine.event_backlog() as u64;
            self.backlog_sum += backlog;
            self.backlog_max = self.backlog_max.max(backlog);
            let t0 = Instant::now();
            let stepped = node.step();
            self.step_ns.record(t0.elapsed().as_nanos() as u64);
            if !stepped {
                return false;
            }
        }
        true
    }
}

/// Whether `node` still has work that `run_until_quiescent` would step
/// for, as far as the public surface shows (a program alive or a task
/// queued). When this turns false a final `run_until_quiescent` drains
/// any operation still in flight, so the node ends exactly where an
/// untraced `run_until_quiescent` leaves it.
pub fn busy(node: &Node) -> bool {
    node.live_programs() > 0 || (0..node.machine.n_cpus()).any(|c| !node.tasks(c).is_empty())
}

/// Per-layer metric values, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(
    probe: &mut Probe,
    counters: &StatsSnapshot,
    decisions: u64,
    probes: u64,
    overhead_ratio: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let events = counters.events;
    let steps = probe.step_ns.len();
    let sims = counters.sim_hits + counters.sim_misses;
    vec![
        (
            "core.node_new_ms_p50",
            ms(percentile(&mut probe.node_new_ns, 0.5)),
            "ms",
        ),
        (
            "core.pool_reset_ms_p50",
            ms(percentile(&mut probe.pool_reset_ns, 0.5)),
            "ms",
        ),
        (
            "kernel.spawn_us_p50",
            percentile(&mut probe.spawn_ns, 0.5) as f64 / 1e3,
            "us",
        ),
        (
            "core.step_ns_p50",
            probe.step_ns.percentile(0.5) as f64,
            "ns",
        ),
        (
            "core.step_ns_p99",
            probe.step_ns.percentile(0.99) as f64,
            "ns",
        ),
        ("hw.backlog_mean", per(probe.backlog_sum, steps), "count"),
        ("hw.backlog_max", probe.backlog_max as f64, "count"),
        ("des.events", events as f64, "count"),
        (
            "hw.timer_programmings_per_event",
            per(counters.timer_programmings, events),
            "ratio",
        ),
        ("hw.ipis_per_event", per(counters.ipis, events), "ratio"),
        (
            "core.invocations_per_event",
            per(counters.invocations, events),
            "ratio",
        ),
        (
            "core.switches_per_event",
            per(counters.switches, events),
            "ratio",
        ),
        ("core.steals", counters.steals as f64, "count"),
        (
            "core.kick_invocations",
            counters.kick_invocations as f64,
            "count",
        ),
        (
            "cluster.decision_ns_p50",
            probe.decision_ns.percentile(0.5) as f64,
            "ns",
        ),
        (
            "cluster.decision_ns_p99",
            probe.decision_ns.percentile(0.99) as f64,
            "ns",
        ),
        (
            "cluster.candidates_ns_p50",
            probe.candidates_ns.percentile(0.5) as f64,
            "ns",
        ),
        (
            "cluster.candidates_ns_p99",
            probe.candidates_ns.percentile(0.99) as f64,
            "ns",
        ),
        (
            "cluster.probes_per_decision",
            per(probes, decisions),
            "ratio",
        ),
        (
            "core.admission.sim_hit_rate",
            per(counters.sim_hits, sims),
            "ratio",
        ),
        (
            "core.admission.sim_misses",
            counters.sim_misses as f64,
            "count",
        ),
        (
            "core.admission.rollbacks",
            counters.rollbacks as f64,
            "count",
        ),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]
}
