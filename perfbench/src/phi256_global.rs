//! `phi256_global`: the full 256-CPU Phi, one node reused through a
//! `NodePool`. Each trial admits a 255-member group through Algorithm-1
//! group admission and follows it over many gang-dispatched periods
//! (the Fig. 12 shape), then reboots the node for an aperiodic steal
//! storm of short unbound compute threads piled on eight CPUs, run to
//! quiescence. Host time goes to global work over a large backlog.

use crate::digest::Digest;
use crate::probe::{busy, Probe};
use crate::run::{Outcome, SimMetrics, Workload};
use nautix_hw::MachineConfig;
use nautix_kernel::{Action, Constraints, FnProgram, GroupId, Script, SysCall};
use nautix_rt::{dispatch_spreads, DispatchLog, Node, NodeConfig, NodePool};
use nautix_stats::StatsSnapshot;

/// CPUs of the machine.
pub const CPUS: usize = 256;
/// Group members: every CPU but the interrupt-laden CPU 0.
pub const GANG: usize = CPUS - 1;
/// Gang-dispatched invocations followed per trial.
pub const INVOCATIONS: usize = 200;
/// Group period and slice, ns (Fig. 12).
pub const PERIOD_NS: u64 = 100_000;
const SLICE_NS: u64 = 50_000;
/// Storm piles, and unbound threads per pile.
pub const PILES: usize = 8;
/// Unbound threads per pile.
pub const TASKS_PER_PILE: usize = 64;
/// Compute per storm thread, cycles.
const TASK_CYCLES: u64 = 2_000_000;
/// Machine seeds of the trials in one pass.
pub const SEEDS: [u64; 4] = [21, 22, 23, 24];

/// The simulated result of one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// Whether group admission completed for every member.
    pub admitted: bool,
    /// Per-invocation max cross-CPU dispatch spread, cycles.
    pub spreads: Vec<u64>,
    /// Whether the storm ran to quiescence.
    pub quiescent: bool,
    /// Storm makespan, ns of machine time.
    pub storm_makespan_ns: u64,
    /// Work counters of the gang phase.
    pub gang: StatsSnapshot,
    /// Work counters of the storm phase.
    pub storm: StatsSnapshot,
}

impl Outcome for Trial {
    fn digest(&self) -> u64 {
        Digest::new()
            .word(self.gang.events)
            .word(self.storm.events)
            .word(self.admitted as u64)
            .words(&self.spreads)
            .word(self.quiescent as u64)
            .word(self.storm_makespan_ns)
            .word(self.storm.steals)
            .finish()
    }
    fn events(&self) -> u64 {
        self.gang.events + self.storm.events
    }
    fn decisions(&self) -> u64 {
        1
    }
    fn failed(&self) -> u64 {
        (!self.admitted || !self.quiescent) as u64
    }
    fn counters(&self) -> StatsSnapshot {
        let mut c = self.gang;
        c.merge(&self.storm);
        c
    }
}

/// The pooled node the trials reuse.
pub struct Phi256 {
    pool: NodePool,
}

fn gang_cfg(seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::phi();
    cfg.machine = MachineConfig::phi().with_cpus(CPUS).with_seed(seed);
    cfg.max_threads = cfg.max_threads.max(CPUS + GANG + 64);
    cfg.dispatch_log_cap = INVOCATIONS + 64;
    cfg.record_ga_timing = true;
    cfg.phase_correction = false;
    cfg
}

fn storm_cfg(seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::for_machine(MachineConfig::phi().with_cpus(CPUS).with_seed(seed));
    cfg.max_threads = cfg.max_threads.max(CPUS + PILES * TASKS_PER_PILE + 64);
    cfg
}

fn boot<'a>(pool: &'a mut NodePool, cfg: NodeConfig, probe: Option<&mut Probe>) -> &'a mut Node {
    match probe {
        Some(p) => Probe::span(&mut p.pool_reset_ns, || pool.node(cfg)),
        None => pool.node(cfg),
    }
}

/// The gang phase: returns whether admission completed and the spread
/// series.
fn gang(node: &mut Node, mut probe: Option<&mut Probe>) -> (bool, Vec<u64>) {
    let gid = GroupId(0);
    let mut tids = Vec::with_capacity(GANG);
    for i in 0..GANG {
        let prog = FnProgram::new(move |_cx, step| {
            let k = if i == 0 { step } else { step + 1 };
            match k {
                0 => Action::Call(SysCall::GroupCreate { name: "gang" }),
                1 => Action::Call(SysCall::GroupJoin(gid)),
                2 => Action::Call(SysCall::SleepNs(3_000_000)),
                3 => Action::Call(SysCall::GroupChangeConstraints {
                    group: gid,
                    constraints: Constraints::Periodic {
                        phase: 1_000_000,
                        period: PERIOD_NS,
                        slice: SLICE_NS,
                    },
                }),
                // Compute forever: every period is one gang dispatch.
                _ => Action::Compute(1_000_000),
            }
        });
        let name = format!("g{i}");
        let spawned = match probe.as_deref_mut() {
            Some(p) => Probe::span(&mut p.spawn_ns, || {
                node.spawn_on(i + 1, &name, Box::new(prog))
            }),
            None => node.spawn_on(i + 1, &name, Box::new(prog)),
        };
        tids.push(spawned.expect("spawn gang member"));
    }
    let horizon_ns = 10_000_000 + (INVOCATIONS as u64 + 8) * PERIOD_NS;
    match probe {
        None => node.run_for_ns(horizon_ns),
        Some(p) => {
            let horizon = node.machine.now() + node.freq().ns_to_cycles(horizon_ns);
            p.step_while(node, |n| n.machine.now() < horizon);
        }
    }
    let Some(t_admitted) = node.ga_timings().iter().map(|t| t.t_done).max() else {
        return (false, Vec::new());
    };
    let admitted = node.ga_timings().len() == GANG;
    // Align the logs at the first gang-scheduled dispatch.
    let logs: Vec<DispatchLog> = tids
        .iter()
        .map(|&t| {
            let mut l = DispatchLog::with_capacity(INVOCATIONS + 64);
            for &x in node.thread_state(t).dispatch_log.times() {
                if x > t_admitted + PERIOD_NS {
                    l.record(x);
                }
            }
            l
        })
        .collect();
    let refs: Vec<&DispatchLog> = logs.iter().collect();
    let freq = node.freq();
    let spreads = dispatch_spreads(&refs)
        .iter()
        .take(INVOCATIONS)
        .map(|&ns| freq.ns_to_cycles(ns))
        .collect();
    (admitted, spreads)
}

/// The storm phase: returns whether it reached quiescence.
fn storm(node: &mut Node, mut probe: Option<&mut Probe>) -> bool {
    let stride = CPUS / PILES;
    for pile in 0..PILES {
        for k in 0..TASKS_PER_PILE {
            let name = format!("w{}", pile * TASKS_PER_PILE + k);
            let prog = Box::new(Script::new(vec![Action::Compute(TASK_CYCLES)]));
            let cpu = pile * stride;
            let spawned = match probe.as_deref_mut() {
                Some(p) => Probe::span(&mut p.spawn_ns, || node.spawn_unbound(cpu, &name, prog)),
                None => node.spawn_unbound(cpu, &name, prog),
            };
            spawned.expect("spawn storm thread");
        }
    }
    if let Some(p) = probe {
        p.step_while(node, busy);
    }
    node.run_until_quiescent();
    !busy(node)
}

/// Run one trial on the pooled node.
pub fn trial(pool: &mut NodePool, seed: u64, mut probe: Option<&mut Probe>) -> Trial {
    let node = boot(pool, gang_cfg(seed), probe.as_deref_mut());
    let (admitted, spreads) = gang(node, probe.as_deref_mut());
    let gang_counters = node.stats_snapshot();
    let node = boot(pool, storm_cfg(seed), probe.as_deref_mut());
    let quiescent = storm(node, probe);
    Trial {
        admitted,
        spreads,
        quiescent,
        storm_makespan_ns: node.freq().cycles_to_ns(node.machine.now()),
        gang: gang_counters,
        storm: node.stats_snapshot(),
    }
}

impl Workload for Phi256 {
    type Outcome = Trial;
    const UNITS: u64 = 1;

    fn setup(probe: Option<&mut Probe>) -> Self {
        let mut pool = NodePool::new();
        // The first boot of an empty pool is a fresh construction.
        match probe {
            Some(p) => drop(Probe::span(&mut p.node_new_ns, || {
                pool.node(gang_cfg(SEEDS[0]))
            })),
            None => drop(pool.node(gang_cfg(SEEDS[0]))),
        }
        Phi256 { pool }
    }

    fn ops(&self) -> usize {
        SEEDS.len()
    }

    fn run(&mut self, op: usize, probe: Option<&mut Probe>) -> Trial {
        trial(&mut self.pool, SEEDS[op], probe)
    }

    fn sim_metrics(pass: &[&Trial]) -> SimMetrics {
        let mut spreads: Vec<u64> = pass
            .iter()
            .flat_map(|t| t.spreads.iter().copied())
            .collect();
        SimMetrics {
            throttle_cv: None,
            gang_spread_p99_cycles: Some(crate::measure::percentile(&mut spreads, 0.99) as f64),
            // The one group asks for half of every worker CPU, which a
            // fluid oracle always admits.
            placement_quality: Some(
                pass.iter().filter(|t| t.admitted).count() as f64 / pass.len().max(1) as f64,
            ),
        }
    }
}
