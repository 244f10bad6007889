//! Tier-1 determinism conformance gate for the parallel campaign
//! executor: the same campaign swept at `--jobs 1`, `--jobs 4` and
//! `--jobs 8` must produce bit-identical per-seed outcomes and
//! identical merged aggregates. `--jobs 4` runs twice, because a
//! scheduling-order bug (reduction in completion order instead of seed
//! order) is exactly the kind of nondeterminism two runs at the same
//! worker count can catch while one cannot.

use sesame::core::chaos::{CampaignConfig, CampaignReport, ChaosCampaign};
use sesame::types::time::SimTime;
use sesame_bench::parallel;

/// Small enough to keep tier-1 affordable in debug builds (every sweep
/// is a full scenario run per seed), large enough that workers
/// genuinely interleave (mixed fault schedules, more seeds than the
/// smaller pools).
fn campaign() -> ChaosCampaign {
    ChaosCampaign::new(CampaignConfig {
        runs: 4,
        base_seed: 900,
        deadline: SimTime::from_secs(50),
        ..CampaignConfig::default()
    })
}

/// Full structural equality of two campaign reports: per-seed rows,
/// per-seed deterministic obs snapshots, merged aggregates, and the
/// rendered bytes the check.sh diff gate compares.
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, label: &str) {
    assert_eq!(a.runs.len(), b.runs.len(), "{label}: run count");
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.seed, rb.seed, "{label}: seed order");
        assert_eq!(
            ra.fault_labels, rb.fault_labels,
            "{label}: seed {}",
            ra.seed
        );
        assert_eq!(
            ra.completed_fraction.to_bits(),
            rb.completed_fraction.to_bits(),
            "{label}: completion of seed {} must be bit-identical",
            ra.seed
        );
        assert_eq!(
            ra.health_transitions, rb.health_transitions,
            "{label}: seed {}",
            ra.seed
        );
        assert_eq!(
            ra.safe_fallbacks, rb.safe_fallbacks,
            "{label}: seed {}",
            ra.seed
        );
        assert_eq!(
            ra.command_retries, rb.command_retries,
            "{label}: seed {}",
            ra.seed
        );
        assert_eq!(ra.violations, rb.violations, "{label}: seed {}", ra.seed);
        assert_eq!(
            ra.obs, rb.obs,
            "{label}: deterministic obs snapshot of seed {}",
            ra.seed
        );
    }
    assert_eq!(a.merged_obs(), b.merged_obs(), "{label}: merged aggregates");
    assert_eq!(a.render_full(), b.render_full(), "{label}: rendered bytes");
}

#[test]
fn campaign_is_bit_identical_across_worker_counts() {
    let campaign = campaign();
    // jobs=1 takes the executor's inline path — the serial reference
    // (`ChaosCampaign::run` is the same per-seed computation reduced
    // the same way; the cheap equivalence is pinned in the test below).
    let jobs1 = parallel::run_campaign(&campaign, 1);
    let jobs4 = parallel::run_campaign(&campaign, 4);
    let jobs4_again = parallel::run_campaign(&campaign, 4);
    let jobs8 = parallel::run_campaign(&campaign, 8);

    assert_reports_identical(&jobs1, &jobs4, "jobs=1 vs jobs=4");
    assert_reports_identical(&jobs4, &jobs4_again, "jobs=4 vs jobs=4 rerun");
    assert_reports_identical(&jobs1, &jobs8, "jobs=1 vs jobs=8");
}

#[test]
fn parallel_matches_serial_and_is_substantive() {
    // The executor must agree with the plain serial runner, and — to
    // guard against the degenerate way to "pass" a determinism gate —
    // the reports must actually contain ran scenarios, not be
    // trivially-identical empty shells.
    let campaign = campaign();
    let serial = campaign.run();
    let report = parallel::run_campaign(&campaign, 2);
    assert_reports_identical(&serial, &report, "ChaosCampaign::run vs jobs=2");
    assert_eq!(report.runs.len(), 4);
    let merged = report.merged_obs();
    assert!(merged.counter("platform.ticks") > 0, "scenarios really ran");
    assert!(
        merged
            .histograms
            .keys()
            .all(|k| !k.starts_with("tick.phase.")),
        "wall-clock timings must not leak into the deterministic aggregate"
    );
    for run in &report.runs {
        assert!(
            run.obs.counter("platform.ticks") > 0,
            "seed {} ticked",
            run.seed
        );
    }
}

#[test]
fn generic_executor_reduces_seed_keyed() {
    // The executor itself (not just the campaign wrapper) must reduce
    // identically: same seeds, different worker counts, same BTreeMap.
    let seeds: Vec<u64> = (0..32).map(|k| 1000 + k * 7).collect();
    let f = |s: u64| s.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    let serial = parallel::run_seeds(1, &seeds, f);
    for jobs in [2, 4, 8] {
        assert_eq!(parallel::run_seeds(jobs, &seeds, f), serial, "jobs={jobs}");
    }
}

/// A 64-UAV platform ticked `ticks` times, digested. Its construction
/// fans the EDDI engine builds out over the shard pool, or runs them
/// inline when called from inside a job body.
fn built_and_ticked(ticks: usize) -> u64 {
    use sesame::core::checkpoint::digest_platform;
    use sesame::core::{FleetSpec, Platform, PlatformConfig};

    let mut p = Platform::new(PlatformConfig {
        area_width_m: 400.0,
        area_height_m: 300.0,
        person_count: 5,
        seed: 77,
        fleet: FleetSpec::uniform(64),
        ..PlatformConfig::default()
    });
    p.launch();
    for _ in 0..ticks {
        p.step();
    }
    digest_platform(&p)
}

#[test]
fn platform_construction_is_identical_on_the_pool_inline_and_concurrently() {
    use sesame::core::shard;
    use std::sync::Barrier;
    const TICKS: usize = 12;

    // 1. Built from this thread: the engine builds fan out on the pool.
    let pooled = built_and_ticked(TICKS);

    // 2. Built inside a job body, where the nested fan-out runs inline:
    // each item waits for the other, so one build runs on the submitting
    // thread and one on the pool's helper.
    let both_started = Barrier::new(2);
    let nested = shard::run_indexed(2, 2, |_| {
        both_started.wait();
        let on_worker = std::thread::current().name() == Some("sesame-shard");
        (on_worker, built_and_ticked(TICKS))
    });
    assert!(
        nested[0].0 != nested[1].0,
        "one build on the submitting thread, one on a pool worker"
    );

    // 3. Two platforms built at once from two threads: the pool takes
    // one job at a time, so one build waits for (or interleaves with)
    // the other, as two campaign-service workers do.
    let concurrent: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| built_and_ticked(TICKS)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (_, digest) in nested {
        assert_eq!(digest, pooled, "nested build vs pool build");
    }
    assert_eq!(
        concurrent,
        vec![pooled, pooled],
        "concurrent builds vs pool build"
    );
}
