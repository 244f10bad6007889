//! The naive reference EDDI runtime — the unaccelerated twin of
//! [`UavEddiRuntime`](crate::eddi::UavEddiRuntime).
//!
//! [`ReferenceEddiRuntime`] keeps the pre-fast-path per-tick computation
//! alive verbatim (the `ReferenceBus` pattern): every monitor is
//! re-evaluated from scratch each tick — the SafeDrones solver rebuilds
//! its rate profile, SafeML re-sorts both samples per column and computes
//! dissimilarity and verdict separately, and SINADRA re-reduces and
//! re-eliminates the full factor set. Both runtimes build their models
//! with [`DesignTime::build`], so a fast and a reference runtime built
//! from the same seed hold bit-identical models by construction, and the
//! conformance suite can lockstep their tick outputs.

use sesame_conserts::catalog::UavEvidence;
use sesame_deepknowledge::nn::Mlp;
use sesame_deepknowledge::uncertainty::UncertaintyMonitor;
use sesame_safedrones::monitor::{SafeDronesConfig, SafeDronesMonitor};
use sesame_safedrones::ReliabilityLevel;
use sesame_safeml::monitor::{SafeMlMonitor, SafeMlVerdict};
use sesame_security::spoof::SpoofDetector;
use sesame_sinadra::risk::{SarRiskModel, SituationInputs};
use sesame_types::geo::GeoPoint;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::{FeatureExtractor, SceneCondition};

use crate::eddi::{DesignTime, EddiOutputs};

/// The naive per-UAV runtime: identical models, no caches.
#[derive(Debug)]
pub struct ReferenceEddiRuntime {
    safedrones: SafeDronesMonitor,
    safeml: SafeMlMonitor,
    dk_model: Mlp,
    dk: UncertaintyMonitor,
    sinadra: SarRiskModel,
    spoof: SpoofDetector,
    features: FeatureExtractor,
    last_time: Option<SimTime>,
    last_outputs: Option<EddiOutputs>,
}

impl ReferenceEddiRuntime {
    /// Builds the runtime on the same [`DesignTime`] artefacts as the
    /// fast path, minus the cache enablement.
    pub fn new(seed: u64, safedrones: SafeDronesConfig, home: GeoPoint) -> Self {
        let DesignTime {
            features,
            safeml,
            dk_model,
            dk,
        } = DesignTime::build(seed);
        ReferenceEddiRuntime {
            safedrones: SafeDronesMonitor::new(safedrones),
            safeml,
            dk_model,
            dk,
            sinadra: SarRiskModel::new(),
            spoof: SpoofDetector::new(home, 20.0),
            features,
            last_time: None,
            last_outputs: None,
        }
    }

    /// Sets the remaining-mission horizon for the energy-risk term.
    pub fn set_remaining_mission(&mut self, remaining: SimDuration) {
        self.safedrones.set_remaining_mission(remaining);
    }

    /// One runtime tick, fully recomputed: ingest telemetry, sample one
    /// camera frame under `scene`, run every monitor from scratch.
    pub fn tick(&mut self, telemetry: &UavTelemetry, scene: &SceneCondition) -> EddiOutputs {
        let dt = match self.last_time {
            Some(prev) => telemetry.time.since(prev),
            None => SimDuration::ZERO,
        };
        self.last_time = Some(telemetry.time);

        // Safety EDDI (SafeDrones).
        self.safedrones.ingest(telemetry);
        if dt > SimDuration::ZERO {
            self.safedrones.advance(dt);
        }
        let reliability = self.safedrones.estimate();

        // Perception monitors share one frame.
        let frame = self.features.extract(scene);
        // Invariant: widths agree by construction (see the fast path);
        // a violation is isolated by the orchestrator's per-UAV catch.
        self.safeml
            .push_sample(&frame)
            .expect("extractor and monitor share the feature width");
        let safeml_uncertainty = self.safeml.dissimilarity();
        let safeml_verdict = self.safeml.verdict();
        let dk_uncertainty = self.dk.assess(&self.dk_model, &frame);
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
    /// fleet-level facts the runtime cannot see itself.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eddi::UavEddiRuntime;
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

    /// The fast runtime and the reference runtime, built from the same
    /// seed, produce bit-identical outputs and evidence across a varied
    /// schedule (climb, steady scan, descent, degraded link).
    #[test]
    fn fast_runtime_locksteps_with_reference() {
        let mut fast = UavEddiRuntime::new(11, SafeDronesConfig::default(), home());
        let mut reference = ReferenceEddiRuntime::new(11, SafeDronesConfig::default(), home());
        fast.set_remaining_mission(SimDuration::from_secs(600));
        reference.set_remaining_mission(SimDuration::from_secs(600));
        for t in 0u32..120 {
            let alt = match t {
                0..=30 => f64::from(t),
                31..=80 => 30.0,
                _ => 60.0,
            };
            let mut tel = telemetry(u64::from(t), alt);
            if t > 90 {
                tel.link_quality = 0.2;
            }
            let scene = SceneCondition {
                altitude_m: alt,
                visibility: if t % 7 == 0 { 0.6 } else { 1.0 },
            };
            let f = fast.tick(&tel, &scene);
            let r = reference.tick(&tel, &scene);
            assert_eq!(
                f.reliability.pof.to_bits(),
                r.reliability.pof.to_bits(),
                "pof diverged at t={t}"
            );
            assert_eq!(f.reliability.level, r.reliability.level, "t={t}");
            assert_eq!(
                f.safeml_uncertainty.to_bits(),
                r.safeml_uncertainty.to_bits(),
                "safeml diverged at t={t}"
            );
            assert_eq!(f.safeml_verdict, r.safeml_verdict, "t={t}");
            assert_eq!(
                f.dk_uncertainty.to_bits(),
                r.dk_uncertainty.to_bits(),
                "dk diverged at t={t}"
            );
            assert_eq!(
                f.combined_uncertainty.to_bits(),
                r.combined_uncertainty.to_bits(),
                "combined diverged at t={t}"
            );
            assert_eq!(
                f.risk.missed_person_prob.to_bits(),
                r.risk.missed_person_prob.to_bits(),
                "risk diverged at t={t}"
            );
            assert_eq!(
                f.risk.criticality_high_prob.to_bits(),
                r.risk.criticality_high_prob.to_bits(),
                "criticality diverged at t={t}"
            );
            assert_eq!(f.risk.rescan_advised, r.risk.rescan_advised, "t={t}");
            assert_eq!(f.spoof.spoofed, r.spoof.spoofed, "t={t}");
            assert_eq!(
                f.spoof.innovation_m.to_bits(),
                r.spoof.innovation_m.to_bits(),
                "innovation diverged at t={t}"
            );
            assert_eq!(
                fast.evidence(&tel, false, true),
                reference.evidence(&tel, false, true),
                "evidence diverged at t={t}"
            );
        }
        let stats = fast.cache_stats();
        assert!(stats.hits > 0, "a 120-tick run must hit the caches");
    }
}
