//! The airspace pass's separation geometry: the nearest-teammate scan
//! that feeds SINADRA's separation-risk network (Fig. 1), and that
//! network folded into a four-entry table.
//!
//! Each tick the platform's airspace pass calls [`chord_teammates`] once,
//! before the shard fan-out, then [`nearest_teammate`] for every UAV
//! flying its mission (on whichever shard owns it). During the serial
//! merge it reads each result through a [`SeparationTable`] built at
//! construction.
//!
//! The scan is exact, not approximate. A teammate is skipped only when
//! [`ChordPoint::distance_lower_bound_m`] — a chord, which is never
//! longer than its arc, minus a rounding margin — is already `>=` the
//! nearest range found so far; its `distance_3d_m` would then be `>=`
//! that range too, which the scan's strict `<` rejects anyway. So the
//! chosen teammate (lowest index on ties), the bits of the range and the
//! closing flag are those of the full haversine scan.

use sesame_sinadra::risk::{
    SeparationAssessment, SeparationInputs, SeparationRiskModel, NEAR_RANGE_M,
};
use sesame_types::geo::ChordPoint;
use sesame_types::telemetry::UavTelemetry;

/// Confidence of the vision-based nearby-drone detection the platform
/// feeds the separation model with every assessment.
pub const DETECTION_CONFIDENCE: f64 = 0.9;

/// Fills `out` with one entry per UAV: its [`ChordPoint`] when it can be
/// a teammate in this tick's scan (airborne and not `excised`), `None`
/// otherwise. `out` is cleared first, so a reused buffer stops
/// allocating once it has reached the fleet size.
pub fn chord_teammates(
    telemetries: &[UavTelemetry],
    excised: impl Fn(usize) -> bool,
    out: &mut Vec<Option<ChordPoint>>,
) {
    out.clear();
    out.extend(telemetries.iter().enumerate().map(|(j, tel)| {
        (tel.mode.is_airborne() && !excised(j)).then(|| ChordPoint::new(&tel.true_position))
    }));
}

/// Range to UAV `i`'s nearest teammate in `teammates` (as filled by
/// [`chord_teammates`] from the same `telemetries`) and whether the two
/// are closing; `None` when no teammate is at a finite range.
pub fn nearest_teammate(
    i: usize,
    telemetries: &[UavTelemetry],
    teammates: &[Option<ChordPoint>],
) -> Option<(f64, bool)> {
    let tel = &telemetries[i];
    let me = ChordPoint::new(&tel.true_position);
    let mut nearest = f64::INFINITY;
    let mut converging = false;
    for (j, mate) in teammates.iter().enumerate() {
        let Some(mate) = mate else { continue };
        if j == i || me.distance_lower_bound_m(mate) >= nearest {
            continue;
        }
        let other = &telemetries[j];
        let d = tel.true_position.distance_3d_m(&other.true_position);
        if d < nearest {
            nearest = d;
            // Converging when the relative velocity points at the
            // teammate.
            let rel = other.true_position.to_enu(&tel.true_position);
            let rel_v = tel.velocity - other.velocity;
            converging = rel_v.dot(&rel.into()) > 0.0;
        }
    }
    nearest.is_finite().then_some((nearest, converging))
}

/// [`SeparationRiskModel::assess`] at the platform's fixed
/// [`DETECTION_CONFIDENCE`], tabulated over its only other inputs: near
/// or not (`nearest_range_m < NEAR_RANGE_M`, the one way the model reads
/// the range) and converging or not. Exact, so a lookup replaces a
/// Bayesian-network solve per UAV per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparationTable([SeparationAssessment; 4]);

impl SeparationTable {
    /// Solves `model` once for each of the four (near, converging) cases.
    pub fn new(model: &SeparationRiskModel) -> Self {
        let solve = |near: bool, converging: bool| {
            model.assess(&SeparationInputs {
                nearest_range_m: if near { 0.0 } else { NEAR_RANGE_M },
                converging,
                detection_confidence: DETECTION_CONFIDENCE,
            })
        };
        SeparationTable([
            solve(false, false),
            solve(false, true),
            solve(true, false),
            solve(true, true),
        ])
    }

    /// The assessment `model.assess` would return for this geometry at
    /// [`DETECTION_CONFIDENCE`].
    pub fn lookup(&self, nearest_range_m: f64, converging: bool) -> SeparationAssessment {
        self.0[2 * usize::from(nearest_range_m < NEAR_RANGE_M) + usize::from(converging)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_the_model_at_every_range_class() {
        let model = SeparationRiskModel::new();
        let table = SeparationTable::new(&model);
        for range in [0.0, 49.999, NEAR_RANGE_M, 1e6, f64::INFINITY] {
            for converging in [false, true] {
                let solved = model.assess(&SeparationInputs {
                    nearest_range_m: range,
                    converging,
                    detection_confidence: DETECTION_CONFIDENCE,
                });
                let looked_up = table.lookup(range, converging);
                assert_eq!(
                    looked_up.conflict_prob.to_bits(),
                    solved.conflict_prob.to_bits(),
                    "range {range}, converging {converging}"
                );
                assert_eq!(looked_up, solved, "range {range}, converging {converging}");
            }
        }
    }
}
