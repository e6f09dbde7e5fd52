//! The nautix benchmark.
//!
//! Three workloads drive the simulator through its public API only, in
//! one process on one thread: `bsp_throttle` (the Fig. 13/14 sweep, the
//! per-event path), `phi256_global` (a 255-member gang and a steal storm
//! on the 256-CPU Phi, global work over a large backlog) and
//! `cluster_churn` (fleet placement and admission, no stepping). Each
//! has a fixed pass of operations whose simulated results are pinned by
//! a digest; `--seed` sets the order the operations run in. The
//! end-to-end run is untraced; the traced run times the same public
//! calls from outside and must reproduce the same digest.

pub mod bsp_throttle;
pub mod cluster_churn;
pub mod digest;
pub mod measure;
pub mod phi256_global;
pub mod probe;
pub mod run;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["bsp_throttle", "phi256_global", "cluster_churn"];

/// Run the named workload.
pub fn run_workload(args: &run::Args) -> Result<run::Report, String> {
    Ok(match args.workload.as_str() {
        "bsp_throttle" => run::run::<bsp_throttle::BspThrottle>(args),
        "phi256_global" => run::run::<phi256_global::Phi256>(args),
        "cluster_churn" => run::run::<cluster_churn::ClusterChurn>(args),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    })
}
