//! The per-UAV executable EDDI runtime.
//!
//! One [`UavEddiRuntime`] per airframe hosts every runtime model the paper
//! distributes "across UAVs and the ground control station" (§III-A):
//! SafeDrones reliability, the SafeML distribution monitor, the
//! DeepKnowledge activation monitor, the SINADRA risk network and the
//! spoofing detector. Each tick it ingests telemetry plus one camera
//! frame's features and produces [`EddiOutputs`] — the runtime evidence
//! the ConSert network consumes.
//!
//! This is the **incremental fast path**: the SafeDrones Markov solver
//! memoizes its rate-matrix profile, the SafeML monitor keeps its window
//! ranked against its sorted reference and fuses dissimilarity + verdict
//! into one pass, and the SINADRA network memoizes full assessments and
//! answers misses by replaying query tapes compiled once per process.
//! Every layer is bit-identical to the naive computation —
//! [`crate::reference::ReferenceEddiRuntime`] keeps that naive path alive
//! and the conformance suite locksteps the two.

use sesame_conserts::catalog::UavEvidence;
use sesame_deepknowledge::nn::{Activation, Mlp};
use sesame_deepknowledge::transfer::TransferAnalyzer;
use sesame_deepknowledge::uncertainty::UncertaintyMonitor;
use sesame_safedrones::monitor::{ReliabilityEstimate, SafeDronesConfig, SafeDronesMonitor};
use sesame_safedrones::ReliabilityLevel;
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor, SafeMlVerdict};
use sesame_security::spoof::{SpoofDetector, SpoofVerdict};
use sesame_sinadra::risk::{RiskAssessment, SarRiskModel, SituationInputs};
use sesame_sinadra::CachedSarRiskModel;
use sesame_types::geo::GeoPoint;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::{FeatureExtractor, SceneCondition};

/// Aggregated cache counters of one EDDI runtime: the SafeDrones solver
/// profile cache plus the SINADRA counters. The orchestrator folds the
/// per-UAV ConSert fingerprint cache on top and mirrors the totals as the
/// `eddi.cache.hit` / `eddi.cache.miss` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EddiCacheStats {
    /// Evaluations answered from a cache.
    pub hits: u64,
    /// Evaluations that ran the full computation.
    pub misses: u64,
}

/// Everything the EDDI runtime reports per tick.
#[derive(Debug, Clone)]
pub struct EddiOutputs {
    /// SafeDrones reliability report.
    pub reliability: ReliabilityEstimate,
    /// SafeML verdict on the perception stream.
    pub safeml_verdict: SafeMlVerdict,
    /// SafeML dissimilarity in `[0, 1]`.
    pub safeml_uncertainty: f64,
    /// DeepKnowledge runtime uncertainty in `[0, 1]`.
    pub dk_uncertainty: f64,
    /// Combined perception uncertainty (the §V-B quantity: the level "from
    /// the output of SafeML, DeepKnowledge, and SINADRA").
    pub combined_uncertainty: f64,
    /// SINADRA risk assessment.
    pub risk: RiskAssessment,
    /// Spoofing verdict on the current GPS fix.
    pub spoof: SpoofVerdict,
}

/// The design-time EDDI artefacts of one UAV (§III-A), which must exist
/// before its first tick: the SafeML reference set and monitor, a
/// trained detector head, and DeepKnowledge's TK-neuron analysis of it.
/// Both [`UavEddiRuntime::new`] and
/// [`ReferenceEddiRuntime::new`](crate::reference::ReferenceEddiRuntime::new)
/// build theirs here, so runtimes built from one seed consume the seeded
/// RNGs in the same order and hold bit-identical models.
#[derive(Debug)]
pub(crate) struct DesignTime {
    /// The camera feature extractor, its RNG past the reference draw.
    pub(crate) features: FeatureExtractor,
    /// The SafeML monitor over the reference set.
    pub(crate) safeml: SafeMlMonitor,
    /// The trained detector head.
    pub(crate) dk_model: Mlp,
    /// The DeepKnowledge runtime monitor of the head's TK neurons.
    pub(crate) dk: UncertaintyMonitor,
}

impl DesignTime {
    /// Draws the 200-row reference set from `seed`'s extractor, trains an
    /// 8-12-1 head on it for three epochs, and selects TK neurons against
    /// 200 frames of the high-altitude condition.
    pub(crate) fn build(seed: u64) -> Self {
        let mut features = FeatureExtractor::new(8, seed);
        let reference = features.reference_set(200);

        // Train a small detector head on the in-domain features so the
        // DeepKnowledge analysis runs on a genuinely trained model.
        let mut dk_model = Mlp::new(&[8, 12, 1], Activation::Tanh, seed ^ 0xD);
        for epoch in 0..3 {
            for (i, row) in reference.iter().enumerate() {
                if (i + epoch) % 2 == 0 {
                    let label = f64::from(row.iter().sum::<f64>() > 0.0);
                    dk_model.train_step(row, &[label], 0.05);
                }
            }
        }
        // Probe shift for TK selection: the high-altitude condition.
        let mut probe_fx = FeatureExtractor::new(8, seed ^ 0x5117);
        let shifted: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                probe_fx.extract(&SceneCondition {
                    altitude_m: 60.0,
                    visibility: 1.0,
                })
            })
            .collect();
        let analyzer = TransferAnalyzer::analyze(&dk_model, &reference, &shifted, 0.5);
        let dk = UncertaintyMonitor::new(analyzer, 40);

        let safeml = SafeMlMonitor::new(reference, SafeMlConfig::default())
            .expect("generated reference set is well-formed");
        DesignTime {
            features,
            safeml,
            dk_model,
            dk,
        }
    }
}

/// The per-UAV runtime. See the crate docs for the integration loop.
#[derive(Debug)]
pub struct UavEddiRuntime {
    safedrones: SafeDronesMonitor,
    safeml: SafeMlMonitor,
    dk_model: Mlp,
    dk: UncertaintyMonitor,
    sinadra: CachedSarRiskModel,
    spoof: SpoofDetector,
    features: FeatureExtractor,
    /// Reused frame buffer for [`FeatureExtractor::extract_into`], so
    /// steady-state ticks draw the camera frame without heap traffic.
    frame: Vec<f64>,
    last_time: Option<SimTime>,
    last_outputs: Option<EddiOutputs>,
}

impl UavEddiRuntime {
    /// Builds the runtime: the [`DesignTime`] artefacts of `seed`, plus
    /// the cached SafeDrones solver and the memoised SINADRA model.
    pub fn new(seed: u64, safedrones: SafeDronesConfig, home: GeoPoint) -> Self {
        let DesignTime {
            features,
            safeml,
            dk_model,
            dk,
        } = DesignTime::build(seed);
        let mut safedrones = SafeDronesMonitor::new(safedrones);
        safedrones.enable_solver_cache();
        UavEddiRuntime {
            safedrones,
            safeml,
            dk_model,
            dk,
            sinadra: CachedSarRiskModel::new(SarRiskModel::new()),
            spoof: SpoofDetector::new(home, 20.0),
            features,
            frame: Vec::new(),
            last_time: None,
            last_outputs: None,
        }
    }

    /// Sets the remaining-mission horizon for the energy-risk term.
    pub fn set_remaining_mission(&mut self, remaining: SimDuration) {
        self.safedrones.set_remaining_mission(remaining);
    }

    /// One runtime tick: ingest telemetry, advance the SafeDrones beliefs
    /// by the telemetry time step, sample one camera frame under `scene`,
    /// run every monitor.
    pub fn tick(&mut self, telemetry: &UavTelemetry, scene: &SceneCondition) -> EddiOutputs {
        let dt = match self.last_time {
            Some(prev) => telemetry.time.since(prev),
            None => SimDuration::ZERO,
        };
        self.last_time = Some(telemetry.time);
        self.safedrones.ingest(telemetry);
        if dt > SimDuration::ZERO {
            self.safedrones.advance(dt);
        }
        let reliability = self.safedrones.estimate();

        // Perception monitors share one frame. `assessment()` computes the
        // dissimilarity once from the rank-indexed window and derives the
        // verdict from it — bit-identical to the naive accessor pair.
        self.features.extract_into(scene, &mut self.frame);
        // Invariant: the monitor was constructed over this extractor's
        // reference set, so widths agree by construction. A violation
        // unwinds into the orchestrator's per-UAV catch and quarantines
        // this engine rather than aborting the fleet tick.
        self.safeml
            .push_sample(&self.frame)
            .expect("extractor and monitor share the feature width");
        let (safeml_uncertainty, safeml_verdict) = self.safeml.assessment();
        let dk_uncertainty = self.dk.assess(&self.dk_model, &self.frame);
        let combined_uncertainty = safeml_uncertainty.max(dk_uncertainty);

        // SINADRA folds the uncertainties into risk.
        let risk = self.sinadra.assess(&SituationInputs {
            detection_uncertainty: combined_uncertainty,
            altitude_high: telemetry.true_position.alt_m > 40.0,
            visibility_poor: scene.visibility < 0.7,
            person_likely: true,
            time_pressure_high: true,
        });

        // Security: innovation check on the reported fix.
        let spoof = self
            .spoof
            .check(&telemetry.gps.position, telemetry.velocity, telemetry.time);

        let outputs = EddiOutputs {
            reliability,
            safeml_verdict,
            safeml_uncertainty,
            dk_uncertainty,
            combined_uncertainty,
            risk,
            spoof,
        };
        self.last_outputs = Some(outputs.clone());
        outputs
    }

    /// The last tick's outputs.
    pub fn last_outputs(&self) -> Option<&EddiOutputs> {
        self.last_outputs.as_ref()
    }

    /// Builds the ConSert evidence snapshot from the latest outputs plus
    /// fleet-level facts the runtime cannot see itself (attack detection
    /// comes from the Security EDDI scripts; neighbour availability from
    /// the platform).
    pub fn evidence(
        &self,
        telemetry: &UavTelemetry,
        attack_detected: bool,
        neighbors_available: bool,
    ) -> UavEvidence {
        let out = self.last_outputs.as_ref();
        let level = out.map(|o| o.reliability.level);
        let safeml_ok = out
            .map(|o| o.safeml_verdict != SafeMlVerdict::Reject)
            .unwrap_or(true);
        let spoofed = out.map(|o| o.spoof.spoofed).unwrap_or(false);
        UavEvidence {
            gps_usable: telemetry.gps.is_usable() && !spoofed,
            no_attack: !attack_detected && !spoofed,
            vision_healthy: telemetry.vision_health > 0.5,
            safeml_ok,
            comm_ok: telemetry.link_quality > 0.4,
            neighbors_available,
            assistant_available: false,
            rel_high: level == Some(ReliabilityLevel::High),
            rel_med: level == Some(ReliabilityLevel::Medium),
            rel_low: level == Some(ReliabilityLevel::Low),
        }
    }

    /// The SafeDrones monitor (for experiment inspection).
    pub fn safedrones(&self) -> &SafeDronesMonitor {
        &self.safedrones
    }

    /// Aggregated cache counters: SafeDrones solver profile cache plus
    /// the SINADRA memo and flags counters (`BnCacheStats::hits`).
    pub fn cache_stats(&self) -> EddiCacheStats {
        let solver = self.safedrones.solver_cache_stats();
        let bn = self.sinadra.stats();
        EddiCacheStats {
            hits: solver.hits + bn.hits(),
            misses: solver.misses + bn.misses(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use sesame_types::ids::UavId;

    fn home() -> GeoPoint {
        GeoPoint::new(35.0, 33.0, 0.0)
    }

    fn telemetry(t: u64, alt: f64) -> UavTelemetry {
        let mut tel =
            UavTelemetry::nominal(UavId::new(1), SimTime::from_secs(t), home().with_alt(alt));
        tel.gps.position = tel.true_position;
        tel
    }

    fn runtime() -> UavEddiRuntime {
        UavEddiRuntime::new(7, SafeDronesConfig::default(), home())
    }

    #[test]
    fn nominal_low_altitude_is_calm() {
        let mut rt = runtime();
        rt.set_remaining_mission(SimDuration::from_secs(600));
        let scene = SceneCondition {
            altitude_m: 10.0,
            visibility: 1.0,
        };
        let mut last = None;
        for t in 0..60 {
            last = Some(rt.tick(&telemetry(t, 10.0), &scene));
        }
        let out = last.unwrap();
        assert!(out.reliability.pof < 0.05);
        assert_eq!(out.reliability.level, ReliabilityLevel::High);
        assert!(
            out.combined_uncertainty < 0.5,
            "u = {}",
            out.combined_uncertainty
        );
        assert!(!out.spoof.spoofed);
        assert!(!out.risk.rescan_advised);
    }

    #[test]
    fn high_altitude_exceeds_uncertainty_threshold() {
        // The §V-B condition: scanning from 60 m drives the combined
        // uncertainty above 0.9.
        let mut rt = runtime();
        let scene = SceneCondition {
            altitude_m: 60.0,
            visibility: 1.0,
        };
        let mut out = None;
        for t in 0..60 {
            out = Some(rt.tick(&telemetry(t, 60.0), &scene));
        }
        let out = out.unwrap();
        assert!(
            out.combined_uncertainty > 0.9,
            "u = {}",
            out.combined_uncertainty
        );
        assert!(out.risk.rescan_advised);
    }

    #[test]
    fn descending_lowers_uncertainty_into_the_75_band() {
        let mut rt = runtime();
        let high = SceneCondition {
            altitude_m: 60.0,
            visibility: 1.0,
        };
        for t in 0..60 {
            rt.tick(&telemetry(t, 60.0), &high);
        }
        let low = SceneCondition {
            altitude_m: 25.0,
            visibility: 1.0,
        };
        let mut out = None;
        for t in 60..140 {
            out = Some(rt.tick(&telemetry(t, 25.0), &low));
        }
        let u = out.unwrap().combined_uncertainty;
        assert!((0.55..0.9).contains(&u), "post-descent uncertainty {u}");
    }

    #[test]
    fn evidence_reflects_attack_and_reliability() {
        let mut rt = runtime();
        let scene = SceneCondition::training();
        let tel = telemetry(1, 10.0);
        rt.tick(&tel, &scene);
        let calm = rt.evidence(&tel, false, true);
        assert!(calm.gps_usable && calm.no_attack && calm.rel_high);
        let attacked = rt.evidence(&tel, true, true);
        assert!(!attacked.no_attack);
        assert!(attacked.gps_usable, "fix itself is still usable");
    }

    #[test]
    fn battery_fault_escalates_reliability() {
        let mut cfg = SafeDronesConfig::default();
        cfg.battery.activation_energy_ev = 1.0;
        let mut rt = UavEddiRuntime::new(7, cfg, home());
        let scene = SceneCondition::training();
        rt.tick(&telemetry(0, 30.0), &scene);
        let mut tel = telemetry(1, 30.0);
        tel.battery_soc = 0.4;
        tel.battery_temp_c = 60.0;
        rt.tick(&tel, &scene);
        let mut level = ReliabilityLevel::High;
        for t in 2..600 {
            let mut tel = telemetry(t, 30.0);
            tel.battery_soc = 0.4;
            tel.battery_temp_c = 60.0;
            level = rt.tick(&tel, &scene).reliability.level;
            if level == ReliabilityLevel::Low {
                break;
            }
        }
        assert_eq!(level, ReliabilityLevel::Low);
    }

    #[test]
    fn spoofed_fix_is_flagged_and_poisons_evidence() {
        let mut rt = runtime();
        let scene = SceneCondition::training();
        rt.tick(&telemetry(0, 30.0), &scene);
        let mut last_tel = telemetry(0, 30.0);
        for t in 1..12 {
            let mut tel = telemetry(t, 30.0);
            // The receiver reports a position dragged 40 m/s north.
            tel.gps.position = home().destination(0.0, 40.0 * t as f64).with_alt(30.0);
            let out = rt.tick(&tel, &scene);
            last_tel = tel;
            if out.spoof.spoofed {
                break;
            }
        }
        let out = rt.last_outputs().unwrap();
        assert!(out.spoof.spoofed, "drag must be detected");
        let ev = rt.evidence(&last_tel, false, true);
        assert!(!ev.gps_usable, "spoofed fix must not count as usable");
        assert!(!ev.no_attack);
    }
}
