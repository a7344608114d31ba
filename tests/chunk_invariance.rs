//! Budget invariance: the streaming event core must produce
//! byte-identical reports at every memory budget and worker count —
//! the budget is a memory knob, never an observable one.
//!
//! Per-event RNG and fault streams are keyed by each event's
//! time-sorted index, so where a bucket or chunk boundary (or a shard
//! boundary inside one) falls can change nothing. The budgets under
//! test are `4·n + k·row`: the always-resident rank permutation plus
//! `k` rows of streaming buffer, which sends every event reader out of
//! core with `k`-row buckets and chunks. These tests pin that end to
//! end: full reports across a `k` × worker matrix, clean and
//! fault-injected, the degenerate worlds (empty event log, one bucket
//! holding the whole log), and a property test over arbitrary `k`.
//!
//! Every `k` is at least 64: the sorted reader replays the whole log
//! once per bucket, so a narrower bucket costs quadratic time.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::sync::OnceLock;
use taster::core::{Experiment, Scenario};
use taster::ecosystem::buffer::EventBuffer;
use taster::ecosystem::{EcosystemConfig, GroundTruth};
use taster::sim::FaultProfile;

/// Streaming rows per buffer under test: a narrow bucket that splits
/// the log ~200 ways and a wide one that splits it a few ways.
const ROWS: [u64; 2] = [64, 4096];
const WORKERS: [usize; 3] = [1, 2, 8];

fn scenario() -> Scenario {
    Scenario::default_paper().with_scale(0.01).with_seed(71)
}

fn events(s: &Scenario) -> u64 {
    GroundTruth::generate(&s.ecosystem, s.seed).unwrap().log.len as u64
}

/// The budget that leaves `k` streaming rows beside the rank
/// permutation of an `n`-event log.
fn budget(n: u64, k: u64) -> u64 {
    4 * n + k * EventBuffer::bytes_per_event() as u64
}

/// The full report under `budget` on `workers` workers, and whether
/// the run kept the sorted cache resident.
fn run_with(mut s: Scenario, budget: Option<u64>, workers: usize) -> (String, bool) {
    s.ecosystem.max_mem_bytes = budget;
    let e = Experiment::run(&s.with_threads(workers));
    (e.report().full_report(), e.world.truth.in_core())
}

/// The report of a run that must stream out of core.
fn streamed_report(s: Scenario, budget: u64, workers: usize) -> String {
    let (report, in_core) = run_with(s, Some(budget), workers);
    assert!(
        !in_core,
        "budget {budget} fails to force the out-of-core path"
    );
    report
}

fn clean_reference() -> &'static String {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| run_with(scenario(), None, 1).0)
}

#[test]
fn clean_reports_are_chunk_and_worker_invariant() {
    let n = events(&scenario());
    for k in ROWS {
        for workers in WORKERS {
            assert_eq!(
                &streamed_report(scenario(), budget(n, k), workers),
                clean_reference(),
                "clean report differs at {k} rows, {workers} workers"
            );
        }
    }
}

#[test]
fn faulted_reports_are_chunk_and_worker_invariant() {
    // `lossy-feeds` exercises the per-record fault stream (drops,
    // duplicates, truncations), whose draws are also keyed by sorted
    // event index and so must survive any bucketing.
    let faulted = || scenario().with_faults(FaultProfile::lossy_feeds());
    let reference = run_with(faulted(), None, 1).0;
    assert_ne!(
        &reference,
        clean_reference(),
        "lossy-feeds must actually perturb the report"
    );
    let n = events(&faulted());
    for k in ROWS {
        for workers in WORKERS {
            assert_eq!(
                streamed_report(faulted(), budget(n, k), workers),
                reference,
                "faulted report differs at {k} rows, {workers} workers"
            );
        }
    }
}

#[test]
fn empty_event_log_is_chunk_invariant() {
    // No campaigns and no poisoning: the spam event log is empty, but
    // benign trap mail and provider false positives still exist, so
    // the report is non-trivial. An empty log needs no streaming rows,
    // so a tight budget is accepted and must change nothing.
    let empty = || {
        let mut s = Scenario::default_paper().with_scale(0.02).with_seed(5);
        s.ecosystem.campaign_scale = 0.0;
        s.ecosystem.poison = None;
        s
    };
    assert_eq!(events(&empty()), 0, "world should have no spam events");
    let reference = run_with(empty(), None, 1).0;
    for workers in [1, 8] {
        assert_eq!(
            run_with(empty(), Some(budget(0, 64)), workers).0,
            reference,
            "empty-log report differs under a tight budget, {workers} workers"
        );
    }
}

#[test]
fn chunk_barely_larger_than_log_matches_exact_fit() {
    let n = events(&scenario());
    assert!(n > 0);
    // One byte under the cache footprint streams the log out of core
    // as a single bucket and a single chunk; the exact footprint keeps
    // the cache. Both must render the reference.
    let cache = EcosystemConfig::cache_peak_bytes(n);
    assert_eq!(
        &streamed_report(scenario(), cache - 1, 2),
        clean_reference()
    );
    let (exact, in_core) = run_with(scenario(), Some(cache), 1);
    assert!(in_core, "the exact cache footprint keeps the cache");
    assert_eq!(&exact, clean_reference());
}

#[test]
fn memory_budget_matrix_is_invariant_and_within_budget() {
    let n = events(&scenario());
    assert!(n > 0);
    // Tight: the rank permutation plus 64 streaming rows, far below
    // the sorted-cache footprint. Loose: default budget, cache resident.
    let tight = budget(n, 64);
    assert!(tight < EcosystemConfig::cache_peak_bytes(n));
    for budget in [Some(tight), None] {
        for workers in WORKERS {
            let mut s = scenario();
            s.ecosystem.max_mem_bytes = budget;
            let peak = s.ecosystem.peak_event_bytes(n);
            assert!(
                peak <= s.ecosystem.mem_budget(),
                "peak {peak} exceeds budget {} ({budget:?}, {workers} workers)",
                s.ecosystem.mem_budget()
            );
            assert_eq!(
                &run_with(s, budget, workers).0,
                clean_reference(),
                "report differs under budget {budget:?}, {workers} workers"
            );
        }
    }
}

/// Property test: any streaming width and worker count yields the
/// reference report. Drives [`proptest::run_test`] directly (instead
/// of the `proptest!` macro) to cap the cases at 6 — each case is a
/// full experiment, so the default 96 would dominate the suite.
#[test]
fn arbitrary_chunk_sizes_never_change_the_report() {
    let n = events(&scenario());
    proptest::run_test(
        "arbitrary_chunk_sizes_never_change_the_report",
        |rng, case| {
            if case >= 6 {
                return Ok(());
            }
            let k = Strategy::gen_value(&(64u64..5000), rng);
            let workers = Strategy::gen_value(&(1usize..=8usize), rng);
            prop_assert_eq!(
                &streamed_report(scenario(), budget(n, k), workers),
                clean_reference(),
                "report differs at {k} rows, {workers} workers"
            );
            Ok(())
        },
    );
}
