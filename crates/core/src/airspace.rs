//! The airspace pass's separation geometry: the nearest-teammate scan
//! that feeds SINADRA's separation-risk network (Fig. 1), and that
//! network folded into a four-entry table.
//!
//! Each tick the platform's airspace pass calls [`chord_teammates`] once,
//! before the shard fan-out, to build the tick's sorted [`Teammates`]
//! index, then [`nearest_teammate`] for every UAV flying its mission (on
//! whichever shard owns it). During the serial merge it reads each
//! result through a [`SeparationTable`] built at construction.
//!
//! The scan is a sort-and-sweep, and it is exact, not approximate. The
//! index sorts the teammates by one component of their unit-sphere
//! vector (the component with the largest spread this tick), and a scan
//! walks outward from the subject's key, nearer key first. It stops once
//! [`ChordPoint::sweep_gap_bound_m`] of the key gap exceeds the nearest
//! range found so far, and skips a teammate whose
//! [`ChordPoint::distance_lower_bound_m`] does. Both bounds are at most
//! the teammate's `distance_3d_m` (a chord is never shorter than one of
//! its components, nor longer than its arc), so every teammate passed
//! over is strictly farther than the nearest one. A candidate replaces
//! the nearest when its `(range, index)` is lexicographically smaller,
//! so the chosen teammate (lowest index on ties), the bits of the range
//! and the closing flag are those of the full haversine scan over every
//! pair.

use sesame_sinadra::risk::{
    SeparationAssessment, SeparationInputs, SeparationRiskModel, NEAR_RANGE_M,
};
use sesame_types::geo::ChordPoint;
use sesame_types::telemetry::UavTelemetry;

/// Confidence of the vision-based nearby-drone detection the platform
/// feeds the separation model with every assessment.
pub const DETECTION_CONFIDENCE: f64 = 0.9;

/// One tick's airspace index, filled by [`chord_teammates`]: every UAV's
/// [`ChordPoint`], with the teammates (airborne, not excised, every
/// coordinate finite) first, sorted by `(key, index)` along the sweep
/// axis. The other UAVs follow, so any UAV can still be a subject.
#[derive(Debug, Default)]
pub struct Teammates {
    entries: Vec<Entry>,
    /// How many leading `entries` are teammates.
    teammates: usize,
    /// The unit-vector component the teammates are sorted by.
    axis: usize,
}

#[derive(Debug)]
struct Entry {
    /// `point.sweep_key(axis)` for a teammate, NaN (sorted last) for any
    /// other UAV.
    key: f64,
    /// The UAV this entry describes.
    uav: u32,
    /// Where UAV `p`'s entry sits in the index, `p` being this entry's
    /// own position: the sort's inverse, kept in the same buffer.
    slot_of: u32,
    point: ChordPoint,
}

/// Rebuilds `out` as this tick's index over `telemetries`, UAV `j` being
/// a teammate when it is airborne, not `excised(j)` and every coordinate
/// of its position is finite. The sweep axis is the unit-vector
/// component with the largest spread over the teammates, so a fleet
/// strung along one parallel or one meridian still spreads out in key.
/// `out` is cleared first, so a reused index stops allocating once it
/// has reached the fleet size.
pub fn chord_teammates(
    telemetries: &[UavTelemetry],
    excised: impl Fn(usize) -> bool,
    out: &mut Teammates,
) {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    out.entries.clear();
    out.entries
        .extend(telemetries.iter().enumerate().map(|(j, tel)| {
            let point = ChordPoint::new(&tel.true_position);
            let teammate = tel.mode.is_airborne() && !excised(j) && point.is_finite();
            if teammate {
                for axis in 0..3 {
                    lo[axis] = lo[axis].min(point.sweep_key(axis));
                    hi[axis] = hi[axis].max(point.sweep_key(axis));
                }
            }
            Entry {
                key: if teammate { 0.0 } else { f64::NAN },
                uav: j as u32,
                slot_of: 0,
                point,
            }
        }));
    let axis = (0..3)
        .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
        .unwrap_or(0);
    for e in &mut out.entries {
        if !e.key.is_nan() {
            e.key = e.point.sweep_key(axis);
        }
    }
    out.entries
        .sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then(a.uav.cmp(&b.uav)));
    out.teammates = out.entries.partition_point(|e| !e.key.is_nan());
    for p in 0..out.entries.len() {
        let uav = out.entries[p].uav as usize;
        out.entries[uav].slot_of = p as u32;
    }
    out.axis = axis;
}

/// Range to UAV `i`'s nearest teammate in `teammates` (as filled by
/// [`chord_teammates`] from the same `telemetries`) and whether the two
/// are closing; `None` when no teammate is at a finite range.
///
/// A teammate with a non-finite coordinate is never chosen (its range
/// would be NaN or infinite; the index leaves it out), and a subject
/// with a non-finite coordinate always gets `None`.
pub fn nearest_teammate(
    i: usize,
    telemetries: &[UavTelemetry],
    teammates: &Teammates,
) -> Option<(f64, bool)> {
    let at = teammates.entries[i].slot_of as usize;
    let me = teammates.entries[at].point;
    if !me.is_finite() {
        return None;
    }
    let sorted = &teammates.entries[..teammates.teammates];
    let key = me.sweep_key(teammates.axis);
    // The subject's own entry, when it is a teammate, is between `lo`
    // and `hi`; otherwise its key splits the sorted run.
    let (mut lo, mut hi) = if at < sorted.len() {
        (at, at + 1)
    } else {
        let split = sorted.partition_point(|e| e.key < key);
        (split, split)
    };
    let tel = &telemetries[i];
    let mut nearest = f64::INFINITY;
    let mut nearest_j = usize::MAX;
    loop {
        // The nearer key of the next teammate on either side.
        let below = lo.checked_sub(1).map(|p| key - sorted[p].key);
        let above = sorted.get(hi).map(|e| e.key - key);
        let (p, dk) = match (below, above) {
            (Some(b), Some(a)) if b < a => {
                lo -= 1;
                (lo, b)
            }
            (_, Some(a)) => {
                hi += 1;
                (hi - 1, a)
            }
            (Some(b), None) => {
                lo -= 1;
                (lo, b)
            }
            (None, None) => break,
        };
        // Keys only move farther from here on, on both sides.
        if ChordPoint::sweep_gap_bound_m(dk) > nearest {
            break;
        }
        let mate = &sorted[p];
        if me.distance_lower_bound_m(&mate.point) > nearest {
            continue;
        }
        let j = mate.uav as usize;
        let d = tel
            .true_position
            .distance_3d_m(&telemetries[j].true_position);
        if d < nearest || (d == nearest && j < nearest_j) {
            nearest = d;
            nearest_j = j;
        }
    }
    nearest.is_finite().then(|| {
        // Converging when the relative velocity points at the teammate.
        let other = &telemetries[nearest_j];
        let rel = other.true_position.to_enu(&tel.true_position);
        let rel_v = tel.velocity - other.velocity;
        (nearest, rel_v.dot(&rel.into()) > 0.0)
    })
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
