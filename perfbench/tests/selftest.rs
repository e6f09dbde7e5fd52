//! Self-tests of the benchmark: its statistics, its digest, and that
//! timing the simulator from outside changes nothing it simulates.

use nautix_bench::throttle::{measure_instrumented, Granularity};
use nautix_bench::Scale;
use nautix_cluster::Fleet;
use nautix_des::DetRng;
use nautix_perfbench::bsp_throttle::{self, Point};
use nautix_perfbench::cluster_churn::{self, SEEDS};
use nautix_perfbench::digest::{pinned, Digest};
use nautix_perfbench::measure::{median, percentile, Histogram};
use nautix_perfbench::phi256_global;
use nautix_perfbench::probe::Probe;
use nautix_perfbench::run::{pass_digest, permutation, Outcome};
use nautix_perfbench::WORKLOADS;
use nautix_rt::NodePool;
use nautix_stats::StatsSnapshot;

#[test]
fn percentiles_on_known_samples() {
    let mut s: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile(&mut s, 0.5), 50);
    assert_eq!(percentile(&mut s, 0.99), 99);
    assert_eq!(percentile(&mut s, 1.0), 100);
    assert_eq!(percentile(&mut s, 0.0), 1);
    assert_eq!(percentile(&mut [7], 0.99), 7);
    assert_eq!(percentile(&mut [], 0.5), 0);
    // 1000 samples: p99 is the 990th smallest.
    let mut s: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&mut s, 0.99), 990);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn histogram_is_exact_below_64_and_within_a_32nd_above() {
    let mut h = Histogram::default();
    for v in 1..=50 {
        h.record(v);
    }
    assert_eq!(h.percentile(0.5), 25);
    assert_eq!(h.percentile(0.99), 50);
    let mut h = Histogram::default();
    for v in 1..=100_000u64 {
        h.record(v);
    }
    assert_eq!(h.len(), 100_000);
    for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
        let got = h.percentile(q) as f64;
        assert!(
            (got - exact).abs() / exact <= 1.0 / 32.0,
            "p{q}: {got} vs {exact}"
        );
    }
    let mut h = Histogram::default();
    h.record(u64::MAX);
    assert!(h.percentile(0.5) >= 1 << 63);
    assert_eq!(Histogram::default().percentile(0.5), 0);
}

fn bsp_trial() -> bsp_throttle::Trial {
    bsp_throttle::Trial {
        max_ns: 1_234_567,
        admitted: true,
        misses: 0,
        stale_reads: 0,
        torn_reads: 0,
        counters: StatsSnapshot {
            events: 22_222,
            ..StatsSnapshot::default()
        },
    }
}

#[test]
fn digest_flags_a_one_field_change_in_a_trial_outcome() {
    let base = bsp_trial();
    let d = base.digest();
    assert_eq!(d, bsp_trial().digest());
    let mutations: [fn(&mut bsp_throttle::Trial); 6] = [
        |t| t.max_ns += 1,
        |t| t.admitted = false,
        |t| t.misses += 1,
        |t| t.stale_reads += 1,
        |t| t.torn_reads += 1,
        |t| t.counters.events += 1,
    ];
    for (i, m) in mutations.iter().enumerate() {
        let mut t = bsp_trial();
        m(&mut t);
        assert_ne!(t.digest(), d, "mutation {i} went unnoticed");
    }
    // Pass digests see a change in any one operation, and its position.
    assert_ne!(pass_digest(&[1, 2, 3]), pass_digest(&[1, 2, 4]));
    assert_ne!(pass_digest(&[1, 2, 3]), pass_digest(&[2, 1, 3]));
    assert_ne!(
        Digest::new().words(&[0]).finish(),
        Digest::new().words(&[0, 0]).finish()
    );
}

#[test]
fn every_workload_has_a_pin() {
    for w in WORKLOADS {
        assert!(
            pinned(w).is_some_and(|d| d != 0),
            "{w} has no pinned digest"
        );
    }
}

#[test]
fn the_seed_only_orders_the_operations() {
    let a = permutation(50, &mut DetRng::seed_from(1));
    let b = permutation(50, &mut DetRng::seed_from(2));
    assert_eq!(a, permutation(50, &mut DetRng::seed_from(1)));
    assert_ne!(a, b);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
}

#[test]
fn wrapped_policy_reproduces_cluster_run() {
    let cfg = cluster_churn::config(3_000, SEEDS[1]);
    let reference = nautix_cluster::run(&cfg, &mut Fleet::new());
    let mut probe = Probe::default();
    let mut fleet = Fleet::new();
    let wrapped = cluster_churn::stream(&mut fleet, &cfg, Some(&mut probe));
    assert_eq!(wrapped.fingerprint, reference.fingerprint);
    assert_eq!(wrapped.probes, reference.probes);
    assert_eq!(wrapped.decisions, reference.decisions);
    assert!(
        reference.rejected > 0 && reference.departures > 0,
        "stream must churn"
    );
    // One policy span per decision, one interval between each pair.
    assert_eq!(probe.candidates_ns.len(), wrapped.decisions);
    assert_eq!(probe.decision_ns.len(), wrapped.decisions - 1);
    // The untraced path on a reused fleet agrees too.
    let plain = cluster_churn::stream(&mut fleet, &cfg, None);
    assert_eq!(plain, wrapped);
}

#[test]
fn bsp_trial_is_the_figure_sweeps_trial_and_tracing_changes_nothing() {
    let pt = Point {
        granularity: Granularity::Fine,
        period_ns: 3_000_000,
        slice_ns: 2_700_000,
    };
    let plain = bsp_throttle::trial(&pt, None);
    let (reference, events) = measure_instrumented(
        pt.granularity,
        63,
        pt.period_ns,
        pt.slice_ns,
        Scale::Paper,
        3,
    );
    assert_eq!(plain.max_ns, reference.time_ns);
    assert_eq!(plain.admitted, reference.admitted);
    assert_eq!(plain.counters.events, events);
    let mut probe = Probe::default();
    let traced = bsp_throttle::trial(&pt, Some(&mut probe));
    assert_eq!(traced, plain);
    assert_eq!(probe.node_new_ns.len(), 1);
    assert_eq!(probe.spawn_ns.len(), 1);
    assert!(!probe.step_ns.is_empty() && probe.step_ns.len() <= events);
    assert!(probe.backlog_max > 0);
}

#[test]
fn phi256_traced_trial_reproduces_the_untraced_one() {
    let mut pool = NodePool::new();
    let plain = phi256_global::trial(&mut pool, phi256_global::SEEDS[0], None);
    assert!(plain.admitted && plain.quiescent);
    assert!(plain.spreads.len() >= phi256_global::INVOCATIONS / 2);
    assert!(plain.storm.steals > 0, "the storm must steal");
    let mut probe = Probe::default();
    let traced = phi256_global::trial(&mut pool, phi256_global::SEEDS[0], Some(&mut probe));
    assert_eq!(traced, plain);
    assert_eq!(probe.pool_reset_ns.len(), 2);
    assert_eq!(
        probe.spawn_ns.len(),
        phi256_global::GANG + phi256_global::PILES * phi256_global::TASKS_PER_PILE
    );
}
