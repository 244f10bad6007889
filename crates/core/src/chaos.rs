//! The chaos-campaign engine: seeded random fault schedules swept over
//! full scenario runs, with robustness invariants checked on every run.
//!
//! A SAR platform that only survives the faults its authors thought of is
//! not dependable; the campaign generates schedules the authors did *not*
//! write down. For each seed it samples a mix of vehicle faults (battery
//! runaway, motor loss, GPS loss/spoof, vision degradation, flapping
//! links) and communication faults (link blackouts, asymmetric
//! partitions, broker outages, telemetry staleness), runs the scenario to
//! its deadline, and asserts the invariants that define "safe, secure and
//! dependable" under stress:
//!
//! 1. **No panic** — the platform degrades, it never dies.
//! 2. **An outcome is always produced**, with finite, in-range headline
//!    metrics.
//! 3. **Supervision reacts**: a full link blackout longer than the
//!    fallback window leaves a `supervision.to_safe_fallback` count
//!    behind.
//! 4. **Determinism**: replaying a seed reproduces the run bit-for-bit
//!    (optional, because it doubles the cost).
//!
//! ```no_run
//! use sesame_core::chaos::{CampaignConfig, ChaosCampaign};
//!
//! let report = ChaosCampaign::new(CampaignConfig {
//!     runs: 10,
//!     ..CampaignConfig::default()
//! })
//! .run();
//! assert!(report.all_clean(), "{}", report.render());
//! ```

use crate::containment::ComputeFaultKind;
use crate::scenario::{ScenarioBuilder, ScenarioOutcome, ScenarioTemplate};
use crate::supervision::FALLBACK_AFTER;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame_middleware::chaos::{CommFaultKind, LinkDirection};
use sesame_obs::MetricsSnapshot;
use sesame_types::geo::Vec3;
use sesame_types::ids::UavId;
use sesame_types::time::{SimDuration, SimTime};
use sesame_uav_sim::faults::FaultKind;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// How many seeded runs to execute.
    pub runs: u64,
    /// Base seed; run `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Per-run simulated deadline.
    pub deadline: SimTime,
    /// Faults sampled per schedule.
    pub faults_per_run: usize,
    /// Compute-plane faults (scheduled EDDI panics, NaN/Inf telemetry,
    /// solver stalls) sampled per schedule, on top of `faults_per_run`.
    /// Defaults to zero so vehicle/comm-only campaigns reproduce their
    /// historical schedules bit-for-bit.
    pub compute_faults_per_run: usize,
    /// SESAME stack on (`true`) or the paper's baseline (`false`).
    pub sesame: bool,
    /// Re-run every seed and require identical outcomes.
    pub replay_check: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 10,
            base_seed: 1,
            deadline: SimTime::from_secs(180),
            faults_per_run: 4,
            compute_faults_per_run: 0,
            sesame: true,
            replay_check: false,
        }
    }
}

/// What one seeded run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed of this run.
    pub seed: u64,
    /// Human-readable labels of the sampled faults, in schedule order.
    pub fault_labels: Vec<String>,
    /// Coverage completion fraction at the end of the run.
    pub completed_fraction: f64,
    /// `supervision.transitions` counter at the end of the run.
    pub health_transitions: u64,
    /// `supervision.to_safe_fallback` counter at the end of the run.
    pub safe_fallbacks: u64,
    /// `commands.retried` counter at the end of the run.
    pub command_retries: u64,
    /// Invariant violations (empty = clean run).
    pub violations: Vec<String>,
    /// The run's deterministic observability projection (wall-clock
    /// phase timings stripped), kept so campaign aggregates can be
    /// reduced bit-identically at any worker count. Empty when the run
    /// panicked.
    pub obs: MetricsSnapshot,
}

impl RunReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The campaign's aggregate result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// One entry per seed, in execution order.
    pub runs: Vec<RunReport>,
}

impl CampaignReport {
    /// Assembles a report from per-seed runs produced in *any* order
    /// (e.g. by a parallel executor's workers racing to completion).
    /// Runs are keyed by seed into a [`BTreeMap`] and emitted in
    /// ascending seed order, so the assembled report — and everything
    /// derived from it, including [`CampaignReport::merged_obs`] — is
    /// byte-identical to the serial path regardless of completion order.
    pub fn from_runs(runs: impl IntoIterator<Item = RunReport>) -> Self {
        let by_seed: BTreeMap<u64, RunReport> = runs.into_iter().map(|r| (r.seed, r)).collect();
        CampaignReport {
            runs: by_seed.into_values().collect(),
        }
    }

    /// The campaign-wide observability aggregate: every run's
    /// deterministic snapshot folded in seed order (saturating counters,
    /// exact histogram-summary merge, last-write-by-seed gauges — see
    /// `sesame-obs`). Because the fold order is the seed order, not the
    /// completion order, the aggregate is identical at any `--jobs`.
    pub fn merged_obs(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for run in &self.runs {
            merged.merge(&run.obs);
        }
        merged
    }

    /// Whether every run of the campaign was violation-free.
    pub fn all_clean(&self) -> bool {
        self.runs.iter().all(RunReport::is_clean)
    }

    /// Total invariant violations across the campaign.
    pub fn total_violations(&self) -> usize {
        self.runs.iter().map(|r| r.violations.len()).sum()
    }

    /// Plain-text table for logs and the bench binary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("seed  completion  transitions  fallbacks  retries  status\n");
        for r in &self.runs {
            out.push_str(&format!(
                "{:<5} {:>9.2}  {:>11} {:>10} {:>8}  {}\n",
                r.seed,
                r.completed_fraction,
                r.health_transitions,
                r.safe_fallbacks,
                r.command_retries,
                if r.is_clean() {
                    "ok".to_string()
                } else {
                    r.violations.join("; ")
                }
            ));
        }
        out.push_str(&format!(
            "{} runs, {} violations\n",
            self.runs.len(),
            self.total_violations()
        ));
        out
    }

    /// [`CampaignReport::render`] plus the merged deterministic metrics
    /// table. Everything in this string is derived from simulation
    /// state, so two campaigns over the same seeds must produce the
    /// same bytes — the serial-vs-parallel gate diffs exactly this.
    pub fn render_full(&self) -> String {
        let mut out = self.render();
        let merged = self.merged_obs();
        if !merged.is_empty() {
            out.push_str("merged deterministic metrics (seed-order reduction):\n");
            out.push_str(&merged.render_table());
        }
        out
    }
}

/// One sampled entry of a schedule, kept so the invariant checks know
/// what was injected.
#[derive(Debug, Clone)]
enum Injected {
    Vehicle {
        at: SimTime,
        uav_index: usize,
        kind: FaultKind,
    },
    Comm {
        at: SimTime,
        duration: SimDuration,
        kind: CommFaultKind,
    },
    Compute {
        at: SimTime,
        duration: SimDuration,
        kind: ComputeFaultKind,
    },
}

impl Injected {
    fn label(&self) -> String {
        match self {
            Injected::Vehicle {
                at,
                uav_index,
                kind,
            } => {
                format!(
                    "t{}s uav{} {:?}",
                    at.as_millis() / 1000,
                    uav_index + 1,
                    kind
                )
            }
            Injected::Comm { at, duration, kind } => format!(
                "t{}s {}s {}",
                at.as_millis() / 1000,
                duration.as_millis() / 1000,
                kind.label()
            ),
            Injected::Compute { at, duration, kind } => format!(
                "t{}s {}s {}",
                at.as_millis() / 1000,
                duration.as_millis() / 1000,
                kind.label()
            ),
        }
    }
}

/// The campaign runner. See the module docs for the invariants.
///
/// The campaign is `Send + Sync`: its configuration and prebuilt
/// scenario template are immutable, and [`ChaosCampaign::run_seed`]
/// takes `&self`, so a parallel executor can share one campaign across
/// workers and sweep disjoint seeds concurrently.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    config: CampaignConfig,
    /// Prebuilt scenario prototype shared by every seed: cloning it is
    /// much cheaper than re-deriving the builder per run, and the
    /// shared state is immutable so workers need no coordination.
    template: ScenarioTemplate,
    /// Fleet size of the template, cached so schedule sampling targets
    /// UAVs the scenario actually flies.
    fleet: usize,
}

impl ChaosCampaign {
    /// A campaign over the paper's three-UAV SAR scenario with the given
    /// parameters.
    pub fn new(config: CampaignConfig) -> Self {
        let template = ScenarioTemplate::new(
            ScenarioBuilder::new(0)
                .sesame(config.sesame)
                .deadline(config.deadline),
        );
        Self::with_template(config, template)
    }

    /// A campaign sweeping random fault schedules over an arbitrary base
    /// scenario — e.g. one compiled from a `.sesame` DSL file. The
    /// template is used as-is: its fleet sizes the per-fault UAV draw,
    /// and its own deadline governs each run, so pass a config whose
    /// `deadline` matches the template's (the `chaos` binary does
    /// exactly that) to keep the sampling horizon honest. With the
    /// default three-UAV template this is [`ChaosCampaign::new`]:
    /// schedules are bit-identical per seed.
    pub fn with_template(config: CampaignConfig, template: ScenarioTemplate) -> Self {
        let fleet = template.config().fleet.total().max(1);
        ChaosCampaign {
            config,
            template,
            fleet,
        }
    }

    /// The campaign parameters.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Every seed of the sweep, in ascending order — the work list a
    /// parallel executor distributes.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.config.runs)
            .map(|k| self.config.base_seed + k)
            .collect()
    }

    /// Runs every seed serially and collects the report.
    pub fn run(&self) -> CampaignReport {
        CampaignReport::from_runs(self.seeds().into_iter().map(|s| self.run_seed(s)))
    }

    /// Samples a schedule from `seed`, runs it, and checks the
    /// invariants. A panic inside the run is caught and reported as a
    /// violation instead of aborting the campaign.
    pub fn run_seed(&self, seed: u64) -> RunReport {
        let schedule = self.sample_schedule(seed);
        let fault_labels: Vec<String> = schedule.iter().map(Injected::label).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.build_scenario(seed, &schedule).build().run()
        }));
        let mut violations = Vec::new();
        let Ok(outcome) = outcome else {
            return RunReport {
                seed,
                fault_labels,
                completed_fraction: 0.0,
                health_transitions: 0,
                safe_fallbacks: 0,
                command_retries: 0,
                violations: vec!["panicked during run".into()],
                obs: MetricsSnapshot::default(),
            };
        };
        self.check_invariants(seed, &schedule, &outcome, &mut violations);
        RunReport {
            seed,
            fault_labels,
            completed_fraction: outcome.metrics.mission_completed_fraction,
            health_transitions: outcome.obs_metrics.counter("supervision.transitions"),
            safe_fallbacks: outcome.obs_metrics.counter("supervision.to_safe_fallback"),
            command_retries: outcome.obs_metrics.counter("commands.retried"),
            violations,
            obs: outcome.obs_metrics.without_wall_clock(),
        }
    }

    fn build_scenario(&self, seed: u64, schedule: &[Injected]) -> ScenarioBuilder {
        let mut builder = self.template.instantiate(seed);
        for inj in schedule {
            builder = match inj.clone() {
                Injected::Vehicle {
                    at,
                    uav_index,
                    kind,
                } => builder.fault(at, uav_index, kind),
                Injected::Comm { at, duration, kind } => builder.comm_fault(at, duration, kind),
                Injected::Compute { at, duration, kind } => {
                    builder.compute_fault(at, duration, kind)
                }
            };
        }
        builder
    }

    /// Deterministically samples a mixed fault schedule from the seed.
    fn sample_schedule(&self, seed: u64) -> Vec<Injected> {
        // Independent stream: must not correlate with the scenario's own
        // world/bus/detector RNGs, which also derive from `seed`.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A0_5CAB_005E_ED42);
        let mut schedule = Vec::with_capacity(self.config.faults_per_run);
        let horizon_s = (self.config.deadline.as_millis() / 1000)
            .saturating_sub(40)
            .max(30);
        for _ in 0..self.config.faults_per_run {
            // Start somewhere the fleet is already flying, early enough
            // that the fault's consequences play out before the deadline.
            let at = SimTime::from_secs(15 + rng.random::<u64>() % horizon_s.min(120));
            let uav_index = (rng.random::<u64>() % self.fleet as u64) as usize;
            let uav = UavId::new(uav_index as u32 + 1);
            schedule.push(match rng.random::<u64>() % 9 {
                0 => Injected::Vehicle {
                    at,
                    uav_index,
                    kind: FaultKind::BatteryOverTemp {
                        soc_drop: 0.2 + 0.3 * rng.random::<f64>(),
                    },
                },
                1 => Injected::Vehicle {
                    at,
                    uav_index,
                    kind: FaultKind::MotorFailure {
                        motor: (rng.random::<u64>() % 4) as usize,
                    },
                },
                2 => Injected::Vehicle {
                    at,
                    uav_index,
                    kind: FaultKind::GpsLoss,
                },
                3 => Injected::Vehicle {
                    at,
                    uav_index,
                    kind: FaultKind::GpsSpoof {
                        drift: Vec3::new(
                            2.0 * rng.random::<f64>() - 1.0,
                            2.0 * rng.random::<f64>() - 1.0,
                            0.0,
                        ),
                    },
                },
                4 => Injected::Vehicle {
                    at,
                    uav_index,
                    kind: FaultKind::VisionDegraded {
                        health: 0.2 + 0.5 * rng.random::<f64>(),
                    },
                },
                5 => Injected::Comm {
                    at,
                    duration: SimDuration::from_secs(8 + rng.random::<u64>() % 8),
                    kind: CommFaultKind::LinkBlackout { uav },
                },
                6 => Injected::Comm {
                    at,
                    duration: SimDuration::from_secs(4 + rng.random::<u64>() % 8),
                    kind: CommFaultKind::AsymmetricPartition {
                        uav,
                        direction: if rng.random::<u64>() % 2 == 0 {
                            LinkDirection::Uplink
                        } else {
                            LinkDirection::Downlink
                        },
                    },
                },
                7 => Injected::Comm {
                    at,
                    duration: SimDuration::from_secs(5 + rng.random::<u64>() % 10),
                    kind: CommFaultKind::BrokerOutage,
                },
                _ => Injected::Comm {
                    at,
                    duration: SimDuration::from_secs(4 + rng.random::<u64>() % 6),
                    kind: CommFaultKind::TelemetryStaleness {
                        uav,
                        delay: SimDuration::from_millis(500 + rng.random::<u64>() % 2000),
                    },
                },
            });
        }
        // Compute faults draw from their own stream so enabling them
        // never perturbs the vehicle/comm schedule a seed has always
        // produced.
        let mut crng = StdRng::seed_from_u64(seed ^ 0x5E5A_3E0F_A017_C0DE);
        for _ in 0..self.config.compute_faults_per_run {
            let at = SimTime::from_secs(15 + crng.random::<u64>() % horizon_s.min(120));
            let duration = SimDuration::from_secs(3 + crng.random::<u64>() % 6);
            let uav = (crng.random::<u64>() % self.fleet as u64) as usize;
            let kind = match crng.random::<u64>() % 4 {
                0 => ComputeFaultKind::EddiPanic { uav },
                1 => ComputeFaultKind::TelemetryNan { uav },
                2 => ComputeFaultKind::TelemetryInf { uav },
                _ => ComputeFaultKind::SolverStall { uav },
            };
            schedule.push(Injected::Compute { at, duration, kind });
        }
        schedule
    }

    fn check_invariants(
        &self,
        seed: u64,
        schedule: &[Injected],
        outcome: &ScenarioOutcome,
        violations: &mut Vec<String>,
    ) {
        let m = &outcome.metrics;
        if !(0.0..=1.0 + 1e-9).contains(&m.mission_completed_fraction)
            || !m.mission_completed_fraction.is_finite()
        {
            violations.push(format!(
                "completion fraction out of range: {}",
                m.mission_completed_fraction
            ));
        }
        for (i, a) in m.availability.iter().enumerate() {
            if !(0.0..=1.0 + 1e-9).contains(a) || !a.is_finite() {
                violations.push(format!("availability[{i}] out of range: {a}"));
            }
        }
        if outcome.obs_metrics.counter("platform.ticks") == 0 {
            violations.push("no platform ticks recorded".into());
        }

        // Supervision must notice a full blackout longer than the
        // fallback window (plus margin for heartbeat cadence) — provided
        // the window actually elapsed before the run ended (a mission
        // that completes early never experiences a late-scheduled fault).
        if self.config.sesame {
            let margin = SimDuration::from_secs(2);
            let run_end = SimTime::ZERO
                + SimDuration::from_millis(outcome.obs_metrics.counter("platform.ticks") * 100);
            // A UAV a compute fault can quarantine is exempt from the
            // fallback expectation: while Quarantined its supervisor
            // deliberately stops assessing (the containment layer owns
            // it), so a blackout on that UAV may never surface as a
            // SafeFallback transition.
            let quarantine_prone: Vec<usize> = schedule
                .iter()
                .filter_map(|inj| match inj {
                    Injected::Compute { kind, .. }
                        if !matches!(kind, ComputeFaultKind::SolverStall { .. }) =>
                    {
                        Some(kind.uav())
                    }
                    _ => None,
                })
                .collect();
            let must_fall_back = schedule.iter().any(|inj| {
                matches!(
                    inj,
                    Injected::Comm {
                        at,
                        duration,
                        kind: CommFaultKind::LinkBlackout { uav },
                    } if *duration >= FALLBACK_AFTER + margin
                        && *at + FALLBACK_AFTER + margin <= run_end
                        && !quarantine_prone.contains(&(uav.index() as usize - 1))
                )
            });
            if must_fall_back && outcome.obs_metrics.counter("supervision.to_safe_fallback") == 0 {
                violations.push(
                    "link blackout exceeded the fallback window but no \
                     SafeFallback transition was recorded"
                        .into(),
                );
            }

            // Containment must isolate a scheduled EDDI panic: the eval
            // guard trips on the first tick of the window, so any panic
            // window that opened before the run ended must have left a
            // quarantine entry behind (zero-aborts is enforced separately
            // by the campaign-level catch_unwind).
            let must_quarantine = schedule.iter().any(|inj| {
                matches!(
                    inj,
                    Injected::Compute {
                        at,
                        kind: ComputeFaultKind::EddiPanic { .. },
                        ..
                    } if *at + margin <= run_end
                )
            });
            if must_quarantine && outcome.obs_metrics.counter("uav.quarantine.entered") == 0 {
                violations.push(
                    "an EDDI panic window opened but no quarantine entry was recorded".into(),
                );
            }
        }

        if self.config.replay_check {
            let replay = catch_unwind(AssertUnwindSafe(|| {
                self.build_scenario(seed, schedule).build().run()
            }));
            match replay {
                Err(_) => violations.push("replay panicked".into()),
                Ok(replay) => {
                    if replay.metrics.mission_completed_fraction != m.mission_completed_fraction
                        || replay.metrics.mission_complete_secs != m.mission_complete_secs
                        || replay.trajectories != outcome.trajectories
                        || replay.obs_metrics.counter("platform.ticks")
                            != outcome.obs_metrics.counter("platform.ticks")
                    {
                        violations.push("replay diverged from the original run".into());
                    }
                }
            }
        }
    }
}

// Campaigns are shared immutably across the parallel executor's
// workers; run reports travel back across the same threads.
sesame_types::assert_send_sync!(CampaignConfig, ChaosCampaign, RunReport, CampaignReport);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sampling_is_deterministic_per_seed() {
        let campaign = ChaosCampaign::new(CampaignConfig::default());
        let a = campaign.sample_schedule(17);
        let b = campaign.sample_schedule(17);
        let c = campaign.sample_schedule(18);
        let label = |s: &[Injected]| s.iter().map(Injected::label).collect::<Vec<_>>();
        assert_eq!(label(&a), label(&b));
        assert_ne!(label(&a), label(&c));
        assert_eq!(a.len(), campaign.config.faults_per_run);
    }

    #[test]
    fn compute_faults_extend_without_perturbing_the_base_schedule() {
        let base = ChaosCampaign::new(CampaignConfig::default());
        let extended = ChaosCampaign::new(CampaignConfig {
            compute_faults_per_run: 3,
            ..CampaignConfig::default()
        });
        let label = |s: &[Injected]| s.iter().map(Injected::label).collect::<Vec<_>>();
        let a = label(&base.sample_schedule(17));
        let b = label(&extended.sample_schedule(17));
        // Independent stream: the vehicle/comm prefix is untouched.
        assert_eq!(a[..], b[..a.len()]);
        assert_eq!(b.len(), a.len() + 3);
        assert!(b[a.len()..].iter().all(|l| {
            l.contains("eddi_panic")
                || l.contains("telemetry_nan")
                || l.contains("telemetry_inf")
                || l.contains("solver_stall")
        }));
    }

    fn stub_run(seed: u64, violations: Vec<String>) -> RunReport {
        RunReport {
            seed,
            fault_labels: Vec::new(),
            completed_fraction: 1.0,
            health_transitions: 0,
            safe_fallbacks: 0,
            command_retries: 0,
            violations,
            obs: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn report_renders_and_aggregates() {
        let report = CampaignReport {
            runs: vec![
                RunReport {
                    seed: 1,
                    fault_labels: vec!["t20s broker_outage".into()],
                    completed_fraction: 0.5,
                    health_transitions: 2,
                    safe_fallbacks: 1,
                    command_retries: 0,
                    violations: Vec::new(),
                    obs: MetricsSnapshot::default(),
                },
                RunReport {
                    seed: 2,
                    fault_labels: Vec::new(),
                    completed_fraction: 1.0,
                    health_transitions: 0,
                    safe_fallbacks: 0,
                    command_retries: 3,
                    violations: vec!["panicked during run".into()],
                    obs: MetricsSnapshot::default(),
                },
            ],
        };
        assert!(!report.all_clean());
        assert_eq!(report.total_violations(), 1);
        let text = report.render();
        assert!(text.contains("2 runs, 1 violations"));
        assert!(text.contains("panicked"));
    }

    #[test]
    fn from_runs_orders_by_seed_regardless_of_arrival() {
        let shuffled = vec![
            stub_run(9, Vec::new()),
            stub_run(3, Vec::new()),
            stub_run(7, Vec::new()),
        ];
        let report = CampaignReport::from_runs(shuffled);
        let seeds: Vec<u64> = report.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![3, 7, 9]);
        let reversed = CampaignReport::from_runs(vec![
            stub_run(7, Vec::new()),
            stub_run(9, Vec::new()),
            stub_run(3, Vec::new()),
        ]);
        assert_eq!(report.render_full(), reversed.render_full());
    }

    #[test]
    fn merged_obs_folds_in_seed_order() {
        let mut early = stub_run(1, Vec::new());
        early.obs.counters.insert("x".into(), 2);
        early.obs.gauges.insert("g".into(), 1.0);
        let mut late = stub_run(2, Vec::new());
        late.obs.counters.insert("x".into(), 3);
        late.obs.gauges.insert("g".into(), 9.0);
        // Arrival order must not matter: the fold is by seed.
        let report = CampaignReport::from_runs(vec![late, early]);
        let merged = report.merged_obs();
        assert_eq!(merged.counter("x"), 5);
        assert_eq!(merged.gauge("g"), Some(9.0), "last write by seed order");
    }
}
