//! `cluster_churn`: best-fit placement on a 16-shard × 8-CPU fleet fed
//! tenant streams long enough to hold the fleet at saturation, so
//! admissions, departures (release by re-admission) and rejections
//! interleave on the same ledgers and simulation memo. No shard is
//! stepped: host time goes to placement and admission.

use crate::digest::Digest;
use crate::probe::Probe;
use crate::run::{Outcome, SimMetrics, Workload};
use nautix_cluster::{
    run_with_policy, ClusterConfig, ClusterOutcome, ClusterView, Fleet, PlacementPolicy,
    PlacementStrategy, TenantRequest,
};
use nautix_des::DetRng;
use nautix_stats::StatsSnapshot;
use std::time::Instant;

/// Shards in the fleet.
pub const SHARDS: usize = 16;
/// CPUs per shard.
pub const CPUS: usize = 8;
/// Tenant arrivals per stream: the fleet saturates within the first
/// thousand.
pub const TENANTS: u64 = 10_000;
/// Stream seeds of one pass.
pub const SEEDS: [u64; 8] = [
    0xC1_05_7E_12,
    0xC1_05_7E_13,
    0xC1_05_7E_14,
    0xC1_05_7E_15,
    0xC1_05_7E_16,
    0xC1_05_7E_17,
    0xC1_05_7E_18,
    0xC1_05_7E_19,
];

/// The fleet configuration of one stream.
pub fn config(tenants: u64, seed: u64) -> ClusterConfig {
    ClusterConfig::new(SHARDS, CPUS, tenants, PlacementStrategy::BestFit).with_seed(seed)
}

/// The policy `nautix_cluster::run` would build for `cfg`: the same
/// seed derivation, so a wrapped policy reproduces an unwrapped run.
pub fn policy(cfg: &ClusterConfig) -> Box<dyn PlacementPolicy> {
    let mut seeds = DetRng::seed_from(cfg.seed);
    cfg.strategy.build(seeds.fork(4).uniform(0, u64::MAX))
}

/// A policy wrapper that times each `candidates` call (the policy's
/// self time) and the interval from one call to the next (one whole
/// decision: release, view rebuild, policy, admissions).
pub struct TimedPolicy<'a> {
    inner: Box<dyn PlacementPolicy>,
    probe: &'a mut Probe,
    last: Option<Instant>,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn PlacementPolicy>, probe: &'a mut Probe) -> Self {
        TimedPolicy {
            inner,
            probe,
            last: None,
        }
    }
}

impl PlacementPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn candidates(&mut self, req: &TenantRequest, view: &ClusterView, out: &mut Vec<usize>) {
        let t0 = Instant::now();
        if let Some(last) = self.last {
            self.probe.decision_ns.record((t0 - last).as_nanos() as u64);
        }
        self.inner.candidates(req, view, out);
        self.probe
            .candidates_ns
            .record(t0.elapsed().as_nanos() as u64);
        self.last = Some(t0);
    }
}

/// The simulated result of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Placement decisions taken.
    pub decisions: u64,
    /// Tenants placed.
    pub placed: u64,
    /// Tenants rejected.
    pub rejected: u64,
    /// Shard admissions attempted.
    pub probes: u64,
    /// Reservations released.
    pub departures: u64,
    /// Placed demand, ppm.
    pub placed_util_ppm: u64,
    /// Demand the fluid oracle placed, ppm.
    pub oracle_util_ppm: u64,
    /// The final-state fingerprint.
    pub fingerprint: Vec<u64>,
    /// Merged shard counters.
    pub counters: StatsSnapshot,
}

impl From<ClusterOutcome> for Stream {
    fn from(o: ClusterOutcome) -> Self {
        Stream {
            decisions: o.decisions,
            placed: o.placed,
            rejected: o.rejected,
            probes: o.probes,
            departures: o.departures,
            placed_util_ppm: o.placed_util_ppm,
            oracle_util_ppm: o.oracle_util_ppm,
            fingerprint: o.fingerprint,
            counters: o.snapshot,
        }
    }
}

impl Outcome for Stream {
    fn digest(&self) -> u64 {
        Digest::new()
            .word(self.counters.events)
            .word(self.decisions)
            .word(self.placed)
            .word(self.rejected)
            .word(self.probes)
            .word(self.departures)
            .word(self.placed_util_ppm)
            .word(self.oracle_util_ppm)
            .words(&self.fingerprint)
            .finish()
    }
    fn events(&self) -> u64 {
        self.counters.events
    }
    fn decisions(&self) -> u64 {
        self.decisions
    }
    fn failed(&self) -> u64 {
        if self.placed + self.rejected == self.decisions {
            0
        } else {
            self.decisions
        }
    }
    fn counters(&self) -> StatsSnapshot {
        self.counters
    }
    fn probes(&self) -> u64 {
        self.probes
    }
}

/// The fleet the streams reuse.
pub struct ClusterChurn {
    fleet: Fleet,
}

/// Run one stream on `fleet`.
pub fn stream(fleet: &mut Fleet, cfg: &ClusterConfig, probe: Option<&mut Probe>) -> Stream {
    let mut policy = policy(cfg);
    match probe {
        None => run_with_policy(cfg, fleet, policy.as_mut()).into(),
        Some(p) => {
            let mut timed = TimedPolicy::new(policy, p);
            run_with_policy(cfg, fleet, &mut timed).into()
        }
    }
}

impl Workload for ClusterChurn {
    type Outcome = Stream;
    const UNITS: u64 = TENANTS;

    fn setup(_probe: Option<&mut Probe>) -> Self {
        // Boot every shard once: a stream with no tenants.
        let mut fleet = Fleet::new();
        stream(&mut fleet, &config(0, SEEDS[0]), None);
        ClusterChurn { fleet }
    }

    fn ops(&self) -> usize {
        SEEDS.len()
    }

    fn run(&mut self, op: usize, probe: Option<&mut Probe>) -> Stream {
        stream(&mut self.fleet, &config(TENANTS, SEEDS[op]), probe)
    }

    fn sim_metrics(pass: &[&Stream]) -> SimMetrics {
        let placed: u64 = pass.iter().map(|s| s.placed_util_ppm).sum();
        let oracle: u64 = pass.iter().map(|s| s.oracle_util_ppm).sum();
        SimMetrics {
            throttle_cv: None,
            gang_spread_p99_cycles: None,
            placement_quality: Some(placed as f64 / oracle.max(1) as f64),
        }
    }
}
