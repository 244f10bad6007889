//! The SAR missed-person risk model.
//!
//! Encodes the paper's §III-A4 behaviour as a Bayesian network:
//!
//! ```text
//!   Altitude ─┐                 PersonPresence ─┐
//!             ├─► DetectionUncertainty ─────────┼─► MissedPerson ─┐
//!   Visibility┘        ▲ (virtual evidence                        ├─► Criticality
//!                        from SafeML / DeepKnowledge)  TimePressure┘
//! ```
//!
//! `assess` attaches the continuous uncertainty reading from the ML
//! monitors as *virtual evidence* on `DetectionUncertainty`, conditions on
//! the flight situation, and reads out the probability that a person was
//! missed and that the situation is critical. High criticality advises an
//! immediate re-scan; low criticality lets the UAV proceed to the next
//! task.

use crate::bn::BayesianNetwork;
use crate::inference::{query, Evidence};

/// Situation snapshot fed to the risk model each assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SituationInputs {
    /// Combined detection uncertainty from SafeML / DeepKnowledge, `[0,1]`.
    pub detection_uncertainty: f64,
    /// Whether the UAV currently scans from high altitude.
    pub altitude_high: bool,
    /// Whether visibility is degraded (dusk, smoke, rain).
    pub visibility_poor: bool,
    /// Whether mission intel makes a person in this cell likely.
    pub person_likely: bool,
    /// Whether the mission is under high time pressure.
    pub time_pressure_high: bool,
}

impl Default for SituationInputs {
    fn default() -> Self {
        SituationInputs {
            detection_uncertainty: 0.0,
            altitude_high: false,
            visibility_poor: false,
            person_likely: false,
            time_pressure_high: false,
        }
    }
}

/// The model's output for one assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskAssessment {
    /// P(a present person was missed by the scan).
    pub missed_person_prob: f64,
    /// P(criticality = high).
    pub criticality_high_prob: f64,
    /// Whether an immediate re-scan of the area is advised.
    pub rescan_advised: bool,
}

/// The prebuilt SAR risk network with a configurable re-scan threshold.
#[derive(Debug, Clone)]
pub struct SarRiskModel {
    bn: BayesianNetwork,
    rescan_threshold: f64,
}

impl SarRiskModel {
    /// Builds the network with the default re-scan threshold of 0.5 on
    /// criticality.
    pub fn new() -> Self {
        Self::with_threshold(0.5)
    }

    /// Builds the network with an explicit criticality threshold.
    ///
    /// # Panics
    ///
    /// Panics if `rescan_threshold` is outside `(0, 1)`.
    pub fn with_threshold(rescan_threshold: f64) -> Self {
        assert!(
            rescan_threshold > 0.0 && rescan_threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        let mut bn = BayesianNetwork::new();
        bn.add_variable("altitude", &["low", "high"]).unwrap();
        bn.add_variable("visibility", &["good", "poor"]).unwrap();
        bn.add_variable("uncertainty", &["low", "high"]).unwrap();
        bn.add_variable("presence", &["unlikely", "likely"])
            .unwrap();
        bn.add_variable("missed", &["no", "yes"]).unwrap();
        bn.add_variable("pressure", &["low", "high"]).unwrap();
        bn.add_variable("criticality", &["low", "high"]).unwrap();

        bn.set_prior("altitude", &[0.5, 0.5]).unwrap();
        bn.set_prior("visibility", &[0.7, 0.3]).unwrap();
        bn.set_prior("presence", &[0.7, 0.3]).unwrap();
        bn.set_prior("pressure", &[0.5, 0.5]).unwrap();
        // P(uncertainty | altitude, visibility): height and haze both push
        // the detector out of its training distribution.
        bn.set_cpt(
            "uncertainty",
            &["altitude", "visibility"],
            &[
                0.9, 0.1, // low alt, good vis
                0.6, 0.4, // low alt, poor vis
                0.4, 0.6, // high alt, good vis
                0.1, 0.9, // high alt, poor vis
            ],
        )
        .unwrap();
        // P(missed | uncertainty, presence): you can only miss someone who
        // is there; high uncertainty makes missing likely.
        bn.set_cpt(
            "missed",
            &["uncertainty", "presence"],
            &[
                0.999, 0.001, // unc low, presence unlikely
                0.95, 0.05, // unc low, presence likely
                0.98, 0.02, // unc high, presence unlikely
                0.35, 0.65, // unc high, presence likely
            ],
        )
        .unwrap();
        // P(criticality | missed, pressure).
        bn.set_cpt(
            "criticality",
            &["missed", "pressure"],
            &[
                0.98, 0.02, // not missed, low pressure
                0.9, 0.1, // not missed, high pressure
                0.4, 0.6, // missed, low pressure
                0.05, 0.95, // missed, high pressure
            ],
        )
        .unwrap();
        let bn = bn.validate().expect("static model is well-formed");
        SarRiskModel {
            bn,
            rescan_threshold,
        }
    }

    /// Assesses the current situation. The continuous
    /// `detection_uncertainty` enters as virtual evidence on the
    /// uncertainty node; the boolean situation factors are hard evidence.
    pub fn assess(&self, inputs: &SituationInputs) -> RiskAssessment {
        let u = inputs.detection_uncertainty.clamp(0.0, 1.0);
        let id = |name: &str| self.bn.variable_id(name).expect("known variable");
        let mut ev = Evidence::new()
            .observe(id("altitude"), usize::from(inputs.altitude_high))
            .observe(id("visibility"), usize::from(inputs.visibility_poor))
            .observe(id("presence"), usize::from(inputs.person_likely))
            .observe(id("pressure"), usize::from(inputs.time_pressure_high));
        if u > 0.0 {
            ev = ev.likelihood_slice(id("uncertainty"), &[1.0 - u, u]);
        }
        let missed = query(&self.bn, id("missed"), &ev).expect("valid query");
        let criticality = query(&self.bn, id("criticality"), &ev).expect("valid query");
        RiskAssessment {
            missed_person_prob: missed[1],
            criticality_high_prob: criticality[1],
            rescan_advised: criticality[1] >= self.rescan_threshold,
        }
    }

    /// The underlying network (e.g. for the benchmark sweep).
    pub fn network(&self) -> &BayesianNetwork {
        &self.bn
    }

    /// The configured criticality threshold for advising a re-scan.
    pub fn rescan_threshold(&self) -> f64 {
        self.rescan_threshold
    }
}

impl Default for SarRiskModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Range, in metres, under which [`SeparationRiskModel::assess`] counts
/// the nearest UAV as "near". The model reads the range only through
/// `nearest_range_m < NEAR_RANGE_M`.
pub const NEAR_RANGE_M: f64 = 50.0;

/// Inputs to the separation (mid-air collision) risk model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparationInputs {
    /// Distance to the nearest other UAV, metres.
    pub nearest_range_m: f64,
    /// Whether the two tracks are converging.
    pub converging: bool,
    /// Confidence of the nearby-drone detection in `[0, 1]` (the
    /// vision-based nearby-drone-detection output of Fig. 1).
    pub detection_confidence: f64,
}

/// Output of a separation assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparationAssessment {
    /// P(separation loss within the planning horizon).
    pub conflict_prob: f64,
    /// Whether a hold manoeuvre is advised.
    pub hold_advised: bool,
}

/// The separation-risk network: proximity and geometry drive the conflict
/// probability, with the vision detection entering as virtual evidence —
/// a low-confidence sighting still raises the risk, without thresholding.
///
/// ```text
///   Proximity ──┐
///               ├─► Conflict
///   Converging ─┘      ▲ virtual evidence: detection confidence on
///                        the "intruder present" variable
/// ```
#[derive(Debug, Clone)]
pub struct SeparationRiskModel {
    bn: BayesianNetwork,
    hold_threshold: f64,
}

impl SeparationRiskModel {
    /// Builds the network with a 0.3 hold threshold.
    pub fn new() -> Self {
        let mut bn = BayesianNetwork::new();
        bn.add_variable("proximity", &["far", "near"]).unwrap();
        bn.add_variable("converging", &["no", "yes"]).unwrap();
        bn.add_variable("intruder", &["absent", "present"]).unwrap();
        bn.add_variable("conflict", &["no", "yes"]).unwrap();
        bn.set_prior("proximity", &[0.8, 0.2]).unwrap();
        bn.set_prior("converging", &[0.6, 0.4]).unwrap();
        bn.set_prior("intruder", &[0.7, 0.3]).unwrap();
        // Conflict requires an intruder; proximity and convergence amplify.
        bn.set_cpt(
            "conflict",
            &["proximity", "converging", "intruder"],
            &[
                1.0, 0.0, // far, diverging, absent
                0.98, 0.02, // far, diverging, present
                1.0, 0.0, // far, converging, absent
                0.85, 0.15, // far, converging, present
                1.0, 0.0, // near, diverging, absent
                0.7, 0.3, // near, diverging, present
                1.0, 0.0, // near, converging, absent
                0.15, 0.85, // near, converging, present
            ],
        )
        .unwrap();
        SeparationRiskModel {
            bn: bn.validate().expect("static model is well-formed"),
            hold_threshold: 0.3,
        }
    }

    /// Assesses the situation. Ranges under [`NEAR_RANGE_M`] count as
    /// "near".
    pub fn assess(&self, inputs: &SeparationInputs) -> SeparationAssessment {
        let id = |n: &str| self.bn.variable_id(n).expect("known variable");
        let conf = inputs.detection_confidence.clamp(0.0, 1.0);
        let mut ev = Evidence::new()
            .observe(
                id("proximity"),
                usize::from(inputs.nearest_range_m < NEAR_RANGE_M),
            )
            .observe(id("converging"), usize::from(inputs.converging));
        if conf > 0.0 {
            ev = ev.likelihood_slice(id("intruder"), &[1.0 - conf, conf]);
        }
        let conflict = query(&self.bn, id("conflict"), &ev).expect("valid query");
        SeparationAssessment {
            conflict_prob: conflict[1],
            hold_advised: conflict[1] >= self.hold_threshold,
        }
    }
}

impl Default for SeparationRiskModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_inputs() -> SituationInputs {
        SituationInputs {
            detection_uncertainty: 0.5,
            altitude_high: false,
            visibility_poor: false,
            person_likely: true,
            time_pressure_high: false,
        }
    }

    #[test]
    fn high_uncertainty_raises_missed_person_risk() {
        let m = SarRiskModel::new();
        let lo = m.assess(&SituationInputs {
            detection_uncertainty: 0.1,
            ..base_inputs()
        });
        let hi = m.assess(&SituationInputs {
            detection_uncertainty: 0.95,
            ..base_inputs()
        });
        assert!(hi.missed_person_prob > lo.missed_person_prob * 2.0);
    }

    #[test]
    fn paper_scenario_high_altitude_prompts_rescan() {
        // §V-B: at high altitude the uncertainty exceeds 90 % and the UAV
        // must act; at low altitude (~75 % uncertainty) it can proceed with
        // better accuracy.
        let m = SarRiskModel::new();
        let high = m.assess(&SituationInputs {
            detection_uncertainty: 0.93,
            altitude_high: true,
            visibility_poor: false,
            person_likely: true,
            time_pressure_high: true,
        });
        assert!(high.rescan_advised, "criticality = {high:?}");
        let low = m.assess(&SituationInputs {
            detection_uncertainty: 0.3,
            altitude_high: false,
            visibility_poor: false,
            person_likely: true,
            time_pressure_high: true,
        });
        assert!(!low.rescan_advised, "criticality = {low:?}");
    }

    #[test]
    fn no_person_means_low_criticality_even_when_blind() {
        let m = SarRiskModel::new();
        let r = m.assess(&SituationInputs {
            detection_uncertainty: 0.99,
            altitude_high: true,
            visibility_poor: true,
            person_likely: false,
            time_pressure_high: false,
        });
        assert!(r.missed_person_prob < 0.1);
        assert!(!r.rescan_advised);
    }

    #[test]
    fn time_pressure_amplifies_criticality() {
        let m = SarRiskModel::new();
        let calm = m.assess(&SituationInputs {
            time_pressure_high: false,
            detection_uncertainty: 0.9,
            ..base_inputs()
        });
        let rushed = m.assess(&SituationInputs {
            time_pressure_high: true,
            detection_uncertainty: 0.9,
            ..base_inputs()
        });
        assert!(rushed.criticality_high_prob > calm.criticality_high_prob);
    }

    #[test]
    fn uncertainty_clamped() {
        let m = SarRiskModel::new();
        let r = m.assess(&SituationInputs {
            detection_uncertainty: 7.0,
            ..base_inputs()
        });
        assert!(r.missed_person_prob <= 1.0);
    }

    #[test]
    fn threshold_controls_decision() {
        let strict = SarRiskModel::with_threshold(0.05);
        let lax = SarRiskModel::with_threshold(0.95);
        let inputs = SituationInputs {
            detection_uncertainty: 0.9,
            altitude_high: true,
            person_likely: true,
            time_pressure_high: true,
            visibility_poor: false,
        };
        assert!(strict.assess(&inputs).rescan_advised);
        assert!(!lax.assess(&inputs).rescan_advised);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = SarRiskModel::with_threshold(1.5);
    }

    #[test]
    fn separation_risk_needs_proximity_and_convergence() {
        let m = SeparationRiskModel::new();
        let benign = m.assess(&SeparationInputs {
            nearest_range_m: 300.0,
            converging: false,
            detection_confidence: 0.9,
        });
        assert!(benign.conflict_prob < 0.1);
        assert!(!benign.hold_advised);
        let hot = m.assess(&SeparationInputs {
            nearest_range_m: 20.0,
            converging: true,
            detection_confidence: 0.9,
        });
        assert!(hot.conflict_prob > 0.5, "p = {}", hot.conflict_prob);
        assert!(hot.hold_advised);
    }

    #[test]
    fn separation_confidence_scales_risk_smoothly() {
        let m = SeparationRiskModel::new();
        let at = |c: f64| {
            m.assess(&SeparationInputs {
                nearest_range_m: 20.0,
                converging: true,
                detection_confidence: c,
            })
            .conflict_prob
        };
        assert!(at(0.2) < at(0.5) && at(0.5) < at(0.95));
        // Without any sighting, the prior intruder belief still carries
        // some risk in a near/converging geometry.
        assert!(at(0.0) > 0.1);
    }

    #[test]
    fn zero_uncertainty_skips_virtual_evidence() {
        let m = SarRiskModel::new();
        let r = m.assess(&SituationInputs {
            detection_uncertainty: 0.0,
            ..base_inputs()
        });
        assert!(r.missed_person_prob < 0.2);
    }
}
