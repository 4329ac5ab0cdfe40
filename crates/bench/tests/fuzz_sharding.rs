//! Sharding is an execution detail: for any (count, seed, shards, workers)
//! the merged aggregate and the per-instance verdicts must be identical to
//! the serial sweep's. This is the property that makes million-instance
//! campaigns trustworthy — CI can pick whatever parallelism the runner
//! offers without changing what is computed.

use bench::{run_fuzz, run_fuzz_observed, FuzzConfig, FuzzEngine};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-instance (tool, verdict) observations, keyed by draw index. A
/// `BTreeSet` per instance: the observer fires from worker threads in
/// arbitrary order, and the comparison must not depend on that order.
type VerdictMap = BTreeMap<u64, BTreeSet<(String, String)>>;

fn sweep(count: usize, seed: u64, shards: usize, jobs: usize) -> (String, VerdictMap) {
    let config = FuzzConfig {
        count,
        seed,
        engine: FuzzEngine::Nope,
        jobs,
        // Far beyond any nope solve on these scales: a timeout would make
        // verdicts machine-speed-dependent and the comparison flaky.
        timeout: Duration::from_secs(600),
        families: None,
        presolve: true,
        shards,
    };
    let verdicts: Arc<Mutex<VerdictMap>> = Arc::default();
    let observed = Arc::clone(&verdicts);
    let outcome = run_fuzz_observed(&config, move |index, tool, verdict| {
        observed
            .lock()
            .unwrap()
            .entry(index)
            .or_default()
            .insert((tool.to_string(), verdict.to_string()));
    });
    assert_eq!(outcome.violations_total, 0, "oracle violations in sweep");
    let verdicts = verdicts.lock().unwrap().clone();
    (outcome.report.canonicalized().to_json(), verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any sharding of the index space merges to the serial result: same
    /// canonical report, same per-instance verdict sets.
    #[test]
    fn any_sharding_reproduces_the_serial_sweep(
        count in 1usize..=24,
        seed in 0u64..1_000,
        shards in 1usize..=6,
        workers in 1usize..=4,
    ) {
        let (serial_report, serial_verdicts) = sweep(count, seed, 1, 1);
        let (sharded_report, sharded_verdicts) = sweep(count, seed, shards, workers);
        prop_assert_eq!(
            &sharded_report, &serial_report,
            "merged aggregate diverged at count={} seed={} shards={} workers={}",
            count, seed, shards, workers
        );
        prop_assert_eq!(
            &sharded_verdicts, &serial_verdicts,
            "per-instance verdicts diverged at count={} seed={} shards={} workers={}",
            count, seed, shards, workers
        );
    }
}

/// The constant-memory regression test: at count 10⁵ the peak number of
/// simultaneously-live generated instances — the high-water mark of the
/// "queue" that the streaming design refuses to build — must equal the
/// worker count, exactly as it does at count 10³. Before the sharded
/// rewrite, peak memory scaled with `--count` (batches of instances and a
/// Vec of pending jobs); this pins the fix.
#[test]
fn peak_memory_is_independent_of_count() {
    let config = |count: usize| FuzzConfig {
        count,
        seed: 7,
        engine: FuzzEngine::Check,
        jobs: 2,
        timeout: Duration::from_secs(600),
        families: None,
        presolve: true,
        shards: 16,
    };
    let small = run_fuzz(&config(1_000));
    let large = run_fuzz(&config(100_000));
    assert_eq!(large.instances, 100_000);
    assert_eq!(large.violations_total, 0);
    assert!(
        large.mem.peak_live_instances <= 2,
        "peak {} live instances with 2 workers at count 1e5: memory scales with count",
        large.mem.peak_live_instances
    );
    assert_eq!(
        large.mem.peak_live_instances, small.mem.peak_live_instances,
        "peak memory moved between count 1e3 and 1e5"
    );
    // The per-(family, tool) aggregates are fixed-size too: same row
    // count at both scales, 100× the instances.
    assert_eq!(large.rows.len(), small.rows.len());
}
