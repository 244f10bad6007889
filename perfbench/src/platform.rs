//! The two in-process platform workloads.
//!
//! * `mission_3uav` — the paper's demonstration platform
//!   (`PlatformConfig::default()`, 3 UAVs, serial), whole missions from
//!   launch to all-landed, back to back over consecutive seeds.
//! * `fleet_200uav` — 200 uniform UAVs over 400x300 m with 5 persons,
//!   serial, a fixed window of ticks after launch. It runs serial because
//!   on a two-core virtual machine a two-shard tick waits at every
//!   fan-out for whichever core the host stalls: its 95th-percentile
//!   tick moved by 30-50% between runs. The traced run steps the same
//!   windows under `ShardPolicy::Fixed { shards: 2 }` as well and
//!   reports the fan-out's step time as `core.step_us_2shards`.
//!
//! Every run does the same work: rounds over a fixed pool of seeds,
//! whose end-of-run digests are pinned in `pins.txt`. The run seed
//! picks where in the pool each round starts; rounds repeat, whole,
//! until the time budget has passed. Every run's
//! `checkpoint::digest_platform` must equal its pin. A seed's wall time
//! and tick figures are the median over its rounds; the reported
//! figures are taken over the pool's seeds.

use crate::layers::{LayerTotals, SERVICE_ONLY};
use crate::metrics::{median, peak_rss_mb, percentile, Combine, Report, StepTimes};
use crate::pins::Pins;
use crate::trace::{Tracer, NO_SPAN};
use crate::{Args, Outcome};
use sesame_core::checkpoint::digest_platform;
use sesame_core::fleet::{FleetSpec, ShardPolicy};
use sesame_core::orchestrator::{Platform, PlatformConfig};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mission,
    Fleet,
}

/// Mission seeds in a round, all pinned.
const MISSION_POOL: u64 = 16;
/// A mission also ends at the scenario layer's default deadline
/// (`ScenarioBuilder::new`), as `Platform::run_until_complete` would:
/// pool seeds 10 and 13 leave a UAV returning to base for good.
const MISSION_DEADLINE_MS: u64 = 900_000;
/// Fleet windows in a round, all pinned.
const FLEET_POOL: u64 = 2;
const FLEET_UAVS: usize = 200;
/// Ticks stepped after launch in every fleet window: enough for ten
/// samples beyond its 95th percentile. The per-tick cost grows as the
/// survey spreads out, so the window never varies.
const FLEET_WINDOW_TICKS: u64 = 200;
/// The fan-out the traced fleet run compares with serial.
const FLEET_SHARDS: ShardPolicy = ShardPolicy::Fixed { shards: 2 };

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mission => "mission_3uav",
            Kind::Fleet => "fleet_200uav",
        }
    }

    fn unit_name(self) -> &'static str {
        match self {
            Kind::Mission => "mission",
            Kind::Fleet => "window",
        }
    }

    fn pool(self) -> u64 {
        match self {
            Kind::Mission => MISSION_POOL,
            Kind::Fleet => FLEET_POOL,
        }
    }

    fn config(self, seed: u64, shards: ShardPolicy) -> PlatformConfig {
        match self {
            Kind::Mission => PlatformConfig {
                seed,
                ..PlatformConfig::default()
            },
            Kind::Fleet => PlatformConfig {
                area_width_m: 400.0,
                area_height_m: 300.0,
                person_count: 5,
                seed,
                fleet: FleetSpec::builder()
                    .uavs(FLEET_UAVS)
                    .shard_policy(shards)
                    .build(),
                ..PlatformConfig::default()
            },
        }
    }

    /// The seeds of one round started from `run_seed`: the whole pool,
    /// rotated, or only its first seed in a tiny run.
    fn round(self, run_seed: u64, tiny: bool) -> Vec<u64> {
        let n = if tiny { 1 } else { self.pool() };
        (0..n).map(|i| (run_seed + i) % self.pool()).collect()
    }

    fn done(self, p: &Platform, ticks: u64) -> bool {
        match self {
            Kind::Mission => {
                p.now().as_millis() >= MISSION_DEADLINE_MS
                    || (p.mission_complete_at().is_some()
                        && (0..p.uav_count()).all(|i| !p.sim().mode(p.handle(i)).is_airborne()))
            }
            Kind::Fleet => ticks >= FLEET_WINDOW_TICKS,
        }
    }
}

/// What one platform run measured.
struct Run {
    seed: u64,
    digest: u64,
    setup_s: f64,
    wall_s: f64,
}

/// Runs one mission or window; `layers` receives the run's final
/// metrics when given.
fn run_one(
    kind: Kind,
    seed: u64,
    shards: ShardPolicy,
    tracer: &mut Tracer,
    steps: &mut StepTimes,
    layers: Option<&mut LayerTotals>,
) -> Run {
    let request = tracer.request(|| format!("{}/seed-{seed}", kind.name()));
    let started = Instant::now();
    let unit = tracer.open(kind.unit_name(), request, NO_SPAN);
    let cfg = kind.config(seed, shards);
    let t = Instant::now();
    let mut p = Platform::new(cfg);
    let t_new = Instant::now();
    p.launch();
    let t_launch = Instant::now();
    tracer.record("Platform::new", request, unit, t, t_new);
    tracer.record("Platform::launch", request, unit, t_new, t_launch);
    let setup_s = (t_launch - t).as_secs_f64();

    let mut ticks = 0u64;
    while !kind.done(&p, ticks) {
        let (_, s, e) = steps.time(|| p.step());
        tracer.record("Platform::step", request, unit, s, e);
        ticks += 1;
    }
    let (ticks, step_us) = steps.end_run(p.uav_count());

    let t = Instant::now();
    let digest = digest_platform(&p);
    tracer.record(
        "checkpoint::digest_platform",
        request,
        unit,
        t,
        Instant::now(),
    );
    if let Some(layers) = layers {
        let t = Instant::now();
        let snapshot = p.metrics_snapshot();
        tracer.record(
            "Platform::metrics_snapshot",
            request,
            unit,
            t,
            Instant::now(),
        );
        layers.add_run(&snapshot, ticks, step_us);
    }
    drop(p);
    tracer.close(unit);
    Run {
        seed,
        digest,
        setup_s,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Runs whole rounds until `budget` has passed, at least one; a round
/// never depends on how fast the machine is.
fn run_pass(
    kind: Kind,
    args: &Args,
    budget: Duration,
    shards: ShardPolicy,
    tracer: &mut Tracer,
    steps: &mut StepTimes,
    mut layers: Option<&mut LayerTotals>,
) -> (Vec<Run>, f64) {
    let started = Instant::now();
    let round = kind.round(args.seed, args.tiny);
    let mut runs = Vec::new();
    loop {
        for &seed in &round {
            steps.group(seed as usize);
            runs.push(run_one(
                kind,
                seed,
                shards,
                tracer,
                steps,
                layers.as_deref_mut(),
            ));
        }
        if args.tiny || started.elapsed() >= budget {
            break;
        }
    }
    (runs, started.elapsed().as_secs_f64())
}

/// Compares every run's digest with its pin; returns the failure count.
fn check(kind: Kind, runs: &[Run], pins: &Pins) -> u64 {
    let mut failed = 0;
    for r in runs {
        let pinned = pins.get(kind.name(), r.seed);
        if pinned != Some(r.digest) {
            eprintln!(
                "perfbench: {} seed {} digest {:#018x} does not match pin {}",
                kind.name(),
                r.seed,
                r.digest,
                pinned.map_or("<none>".to_string(), |d| format!("{d:#018x}")),
            );
            failed += 1;
        }
    }
    failed
}

pub fn run(kind: Kind, args: &Args, pins: &Pins, tracer: &mut Tracer) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    if !args.trace {
        let mut steps = StepTimes::default();
        let (runs, _) = run_pass(
            kind,
            args,
            budget,
            ShardPolicy::Serial,
            tracer,
            &mut steps,
            None,
        );
        let failed = check(kind, &runs, pins);
        // A seed's wall time is the median over its rounds (see `Combine`);
        // the percentiles are taken over the pool's seeds.
        let mut wall_ms: Vec<f64> = kind
            .round(args.seed, args.tiny)
            .into_iter()
            .map(|seed| {
                let repeats: Vec<f64> = runs
                    .iter()
                    .filter(|r| r.seed == seed)
                    .map(|r| r.wall_s * 1e3)
                    .collect();
                median(&repeats)
            })
            .collect();
        wall_ms.sort_by(f64::total_cmp);
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        report.set("setup_s", median(&setups));
        steps.report(&mut report, Combine::Median);
        report.set("peak_rss_mb", peak_rss_mb());
        report.set("runs_per_sec", 1e3 / median(&wall_ms));
        report.set("campaign_ms_p50", percentile(&wall_ms, 0.50));
        report.set("campaign_ms_p90", percentile(&wall_ms, 0.90));
        eprintln!(
            "perfbench: {}: {} runs, {failed} digest failures",
            kind.name(),
            runs.len()
        );
        return Outcome {
            attempted: runs.len() as u64,
            failed,
            trustworthy: true,
            report,
        };
    }

    // Traced: every seed of one round twice, untraced and with spans on,
    // in alternating order so that warm-up and drift fall on both sides;
    // the wall-time ratio is the tracing overhead.
    let mut quiet = Tracer::new(false);
    let mut steps = StepTimes::default();
    let mut layers = LayerTotals::default();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for (i, seed) in kind.round(args.seed, args.tiny).into_iter().enumerate() {
        for traced in [i % 2 == 1, i % 2 == 0] {
            steps.group(2 * i + usize::from(traced));
            if traced {
                second.push(run_one(
                    kind,
                    seed,
                    ShardPolicy::Serial,
                    tracer,
                    &mut steps,
                    Some(&mut layers),
                ));
            } else {
                first.push(run_one(
                    kind,
                    seed,
                    ShardPolicy::Serial,
                    &mut quiet,
                    &mut steps,
                    None,
                ));
            }
        }
    }
    let wall_untraced: f64 = first.iter().map(|r| r.wall_s).sum();
    let wall_traced: f64 = second.iter().map(|r| r.wall_s).sum();
    let mut failed = check(kind, &first, pins) + check(kind, &second, pins);
    let mut attempted = first.len() + second.len();
    layers.fill(&mut report);
    for name in SERVICE_ONLY {
        report.set(name, 0.0);
    }
    report.set(
        "trace.overhead_pct",
        (wall_traced / wall_untraced - 1.0) * 100.0,
    );
    // The fan-out: the same round again, traced, with two shards. A
    // shard count never changes a digest.
    let mut step_us_2shards = 0.0;
    if kind == Kind::Fleet {
        let mut sharded = StepTimes::default();
        let (third, _) = run_pass(
            kind,
            args,
            Duration::ZERO,
            FLEET_SHARDS,
            tracer,
            &mut sharded,
            None,
        );
        failed += check(kind, &third, pins);
        attempted += third.len();
        step_us_2shards = sharded.mean_step_us();
    }
    report.set("core.step_us_2shards", step_us_2shards);
    eprintln!(
        "perfbench: {} traced: {} runs, {} spans",
        kind.name(),
        second.len(),
        tracer.len()
    );
    Outcome {
        attempted: attempted as u64,
        failed,
        trustworthy: layers.trustworthy(),
        report,
    }
}

/// The pin file lines for every pool seed of `kind`.
pub fn pin_lines(kind: Kind) -> Vec<String> {
    let mut tracer = Tracer::new(false);
    let mut steps = StepTimes::default();
    (0..kind.pool())
        .map(|seed| {
            let r = run_one(
                kind,
                seed,
                ShardPolicy::Serial,
                &mut tracer,
                &mut steps,
                None,
            );
            format!("{} {seed} {:#018x}", kind.name(), r.digest)
        })
        .collect()
}
