//! `bsp_throttle`: the paper-scale Fig. 13/14 sweep. A 63-worker BSP
//! gang on a 64-CPU Phi is admitted with (τ, σ) constraints at every
//! point of the coarse and fine grids, one freshly booted node per
//! trial. Host time goes to the per-event path over a small backlog.

use crate::digest::Digest;
use crate::probe::{busy, Probe};
use crate::run::{Outcome, SimMetrics, Workload};
use nautix_bench::throttle::{control_quality, grid, worker_count, Granularity, ThrottlePoint};
use nautix_bench::Scale;
use nautix_bsp::{collect_bsp, spawn_bsp, BspMode, BspParams};
use nautix_des::Nanos;
use nautix_hw::MachineConfig;
use nautix_rt::{Node, NodeConfig, SchedConfig};
use nautix_stats::StatsSnapshot;

/// Machine seed of every trial (the one `repro_all` uses for Figs. 13–14).
pub const SEED: u64 = 3;

/// One grid point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Fig. 13 (coarse) or Fig. 14 (fine).
    pub granularity: Granularity,
    /// Period τ, ns.
    pub period_ns: Nanos,
    /// Slice σ, ns.
    pub slice_ns: Nanos,
}

/// The simulated result of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// Slowest worker's execution time, ns.
    pub max_ns: Nanos,
    /// Whether group admission accepted the gang.
    pub admitted: bool,
    /// Deadline misses across the gang.
    pub misses: u64,
    /// Halo reads that saw a stale value.
    pub stale_reads: u64,
    /// Halo reads that saw a value from the future.
    pub torn_reads: u64,
    /// Work counters of the trial's node.
    pub counters: StatsSnapshot,
}

impl Outcome for Trial {
    fn digest(&self) -> u64 {
        Digest::new()
            .word(self.counters.events)
            .word(self.max_ns)
            .word(self.admitted as u64)
            .word(self.misses)
            .word(self.stale_reads)
            .word(self.torn_reads)
            .finish()
    }
    fn events(&self) -> u64 {
        self.counters.events
    }
    fn decisions(&self) -> u64 {
        1
    }
    fn failed(&self) -> u64 {
        (self.stale_reads + self.torn_reads > 0) as u64
    }
    fn counters(&self) -> StatsSnapshot {
        self.counters
    }
}

/// The sweep: every coarse point, then every fine point.
pub struct BspThrottle {
    points: Vec<Point>,
}

/// The sweep's points, as `throttle::run_with_stats` builds them.
pub fn points() -> Vec<Point> {
    let (periods, pcts) = grid(Scale::Paper);
    let mut points = Vec::new();
    for granularity in [Granularity::Coarse, Granularity::Fine] {
        for &period_ns in &periods {
            for &pct in &pcts {
                let slice_ns = (period_ns * pct / 100).max(1000);
                if slice_ns * 100 >= period_ns * 99 {
                    continue;
                }
                points.push(Point {
                    granularity,
                    period_ns,
                    slice_ns,
                });
            }
        }
    }
    points
}

fn params(pt: &Point) -> BspParams {
    let p = worker_count(Scale::Paper);
    let base = match pt.granularity {
        Granularity::Coarse => BspParams::coarse(p, 12),
        Granularity::Fine => BspParams::fine(p, 120),
    };
    base.with_mode(BspMode::RtGroup {
        period: pt.period_ns,
        slice: pt.slice_ns,
    })
}

fn node_cfg() -> NodeConfig {
    let p = worker_count(Scale::Paper);
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(p + 1).with_seed(SEED);
    cfg.sched = SchedConfig::throughput();
    cfg.max_threads = cfg.max_threads.max(p + 1 + p + 1);
    cfg
}

/// Run one trial: boot, spawn the gang, run to quiescence, collect.
pub fn trial(pt: &Point, probe: Option<&mut Probe>) -> Trial {
    let bsp = params(pt);
    let (node, r) = match probe {
        None => {
            let mut node = Node::new(node_cfg());
            let handles = spawn_bsp(&mut node, bsp, 1);
            node.run_until_quiescent();
            let r = collect_bsp(&node, &handles);
            (node, r)
        }
        Some(p) => {
            let mut node = Probe::span(&mut p.node_new_ns, || Node::new(node_cfg()));
            let mut spawn = Vec::with_capacity(1);
            let handles = Probe::span(&mut spawn, || spawn_bsp(&mut node, bsp, 1));
            p.spawn_ns.push(spawn[0] / bsp.p as u64);
            p.step_while(&mut node, busy);
            node.run_until_quiescent();
            let r = collect_bsp(&node, &handles);
            (node, r)
        }
    };
    Trial {
        max_ns: r.max_ns,
        admitted: r.admitted,
        misses: r.misses,
        stale_reads: r.stale_reads,
        torn_reads: r.torn_reads,
        counters: node.stats_snapshot(),
    }
}

impl Workload for BspThrottle {
    type Outcome = Trial;
    const UNITS: u64 = 1;
    // 63 points spread over both grids: the stride is prime to the
    // 30-slice rows, so the sample covers every slice and period.
    const TIMED_EVERY: usize = 29;

    fn setup(probe: Option<&mut Probe>) -> Self {
        let points = points();
        // The one boot the sweep repeats per trial.
        match probe {
            Some(p) => drop(Probe::span(&mut p.node_new_ns, || Node::new(node_cfg()))),
            None => drop(Node::new(node_cfg())),
        }
        BspThrottle { points }
    }

    fn ops(&self) -> usize {
        self.points.len()
    }

    fn run(&mut self, op: usize, probe: Option<&mut Probe>) -> Trial {
        trial(&self.points[op], probe)
    }

    fn sim_metrics(pass: &[&Trial]) -> SimMetrics {
        let pts = points();
        let cv = |g: Granularity| {
            let tp: Vec<ThrottlePoint> = pts
                .iter()
                .zip(pass)
                .filter(|(pt, _)| pt.granularity == g)
                .map(|(pt, t)| ThrottlePoint {
                    period_ns: pt.period_ns,
                    slice_ns: pt.slice_ns,
                    utilization: pt.slice_ns as f64 / pt.period_ns as f64,
                    time_ns: t.max_ns,
                    admitted: t.admitted,
                })
                .collect();
            control_quality(&tp).1
        };
        // Every point is below the utilization limit, so a fluid
        // oracle admits all of them: quality is admitted over offered.
        let util = |pt: &Point| pt.slice_ns as f64 / pt.period_ns as f64;
        let offered: f64 = pts.iter().map(util).sum();
        let admitted: f64 = pts
            .iter()
            .zip(pass)
            .filter(|(_, t)| t.admitted)
            .map(|(pt, _)| util(pt))
            .sum();
        SimMetrics {
            throttle_cv: Some((cv(Granularity::Coarse) + cv(Granularity::Fine)) / 2.0),
            gang_spread_p99_cycles: None,
            placement_quality: Some(admitted / offered),
        }
    }
}
