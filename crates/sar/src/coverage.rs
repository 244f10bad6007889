//! Boustrophedon coverage paths.
//!
//! Each strip is swept with north-south lawnmower legs whose spacing
//! equals the camera footprint width at the scan altitude (slightly
//! overlapped), so a complete sweep photographs every point of the strip.

use crate::area::{to_world, Strip};
use sesame_types::geo::GeoPoint;

/// Generates the boustrophedon waypoints for `strip` of an AOI with the
/// given extents, scanning at `alt_m` with a camera whose ground footprint
/// half-width at that altitude is `footprint_half_m`.
///
/// Legs run south→north, north→south, alternating; spacing is 1.8× the
/// half-width (10 % overlap between swaths).
///
/// # Panics
///
/// Panics if extents or the footprint are not positive.
///
/// # Examples
///
/// ```
/// use sesame_sar::area::{split_strips};
/// use sesame_sar::coverage::boustrophedon_path;
/// use sesame_types::geo::GeoPoint;
///
/// let origin = GeoPoint::new(35.0, 33.0, 0.0);
/// let strips = split_strips(3);
/// let path = boustrophedon_path(&origin, 300.0, 200.0, &strips[0], 30.0, 30.0);
/// assert!(path.len() >= 4);
/// assert!(path.iter().all(|wp| (wp.alt_m - 30.0).abs() < 1e-9));
/// ```
pub fn boustrophedon_path(
    origin: &GeoPoint,
    width_m: f64,
    height_m: f64,
    strip: &Strip,
    alt_m: f64,
    footprint_half_m: f64,
) -> Vec<GeoPoint> {
    assert!(width_m > 0.0 && height_m > 0.0, "extents must be positive");
    assert!(footprint_half_m > 0.0, "footprint must be positive");
    let spacing_m = 1.8 * footprint_half_m;
    let strip_width_m = strip.width() * width_m;
    let legs = ((strip_width_m / spacing_m).ceil() as usize).max(1);
    let mut path = Vec::with_capacity(legs * 2);
    for leg in 0..legs {
        // Lane centre in fractional coordinates.
        let fx = strip.x_min
            + ((leg as f64 + 0.5) * spacing_m / width_m)
                .min(strip.width() - 1e-9)
                .max(0.0);
        let (start_y, end_y) = if leg % 2 == 0 { (0.0, 1.0) } else { (1.0, 0.0) };
        path.push(to_world(origin, width_m, height_m, fx, start_y, alt_m));
        path.push(to_world(origin, width_m, height_m, fx, end_y, alt_m));
    }
    path
}

/// Total length of a waypoint path in metres.
pub fn path_length_m(path: &[GeoPoint]) -> f64 {
    path.windows(2).map(|w| w[0].distance_3d_m(&w[1])).sum()
}

/// [`path_length_m`] of the concatenation of `segments`, without building
/// it: the same consecutive pairs, in the same order, through the same
/// `sum`, so the result is bit-identical to concatenating first.
pub fn chained_path_length_m<'a, I>(segments: I) -> f64
where
    I: IntoIterator<Item = &'a [GeoPoint]>,
    I::IntoIter: Clone,
{
    let points = segments.into_iter().flatten();
    points
        .clone()
        .zip(points.skip(1))
        .map(|(a, b)| a.distance_3d_m(b))
        .sum()
}

/// Generates a rectangular inward-spiral coverage path over the strip —
/// the alternative pattern used by swarm path planners the paper cites
/// (\[4\]): the UAV circles the strip perimeter, stepping inward by the
/// swath width each lap, ending near the centre.
///
/// Compared to the boustrophedon sweep, the spiral keeps the UAV near
/// already-covered ground (useful for progressive-assurance missions) at
/// the cost of more turns.
///
/// # Panics
///
/// Panics if extents or the footprint are not positive.
pub fn spiral_path(
    origin: &GeoPoint,
    width_m: f64,
    height_m: f64,
    strip: &Strip,
    alt_m: f64,
    footprint_half_m: f64,
) -> Vec<GeoPoint> {
    assert!(width_m > 0.0 && height_m > 0.0, "extents must be positive");
    assert!(footprint_half_m > 0.0, "footprint must be positive");
    let step = 1.8 * footprint_half_m;
    let (mut x0, mut x1) = (strip.x_min * width_m, strip.x_max * width_m);
    let (mut y0, mut y1) = (0.0, height_m);
    // Start half a swath inside the perimeter so the footprint covers the
    // edge.
    x0 += footprint_half_m;
    x1 -= footprint_half_m;
    y0 += footprint_half_m;
    y1 -= footprint_half_m;
    let mut path = Vec::new();
    let to_world = |x: f64, y: f64| {
        origin
            .destination(90.0, x.clamp(0.0, width_m))
            .destination(0.0, y.clamp(0.0, height_m))
            .with_alt(alt_m)
    };
    while x0 <= x1 && y0 <= y1 {
        path.push(to_world(x0, y0));
        path.push(to_world(x1, y0));
        path.push(to_world(x1, y1));
        path.push(to_world(x0, y1));
        // Close the lap one step up so the next lap starts inward.
        x0 += step;
        x1 -= step;
        y0 += step;
        y1 -= step;
        if x0 <= x1 && y0 <= y1 {
            path.push(to_world(x0 - step, y0));
        }
    }
    if path.is_empty() {
        // A strip narrower than one swath: a single centre pass.
        path.push(to_world((strip.x_min + strip.x_max) / 2.0 * width_m, 0.0));
        path.push(to_world(
            (strip.x_min + strip.x_max) / 2.0 * width_m,
            height_m,
        ));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::split_strips;

    fn origin() -> GeoPoint {
        GeoPoint::new(35.0, 33.0, 0.0)
    }

    #[test]
    fn path_alternates_direction() {
        let strips = split_strips(1);
        let path = boustrophedon_path(&origin(), 120.0, 200.0, &strips[0], 30.0, 20.0);
        assert!(path.len() >= 6, "several legs expected: {}", path.len());
        // First leg goes north, second comes back south.
        let leg1 = path[1].to_enu(&path[0]);
        assert!(leg1.north_m > 150.0);
        let leg2_start = path[2].to_enu(&path[1]);
        assert!(leg2_start.east_m > 0.0, "moves east between legs");
        let leg2 = path[3].to_enu(&path[2]);
        assert!(leg2.north_m < -150.0);
    }

    #[test]
    fn lane_spacing_covers_strip() {
        let strips = split_strips(1);
        let half = 15.0;
        let path = boustrophedon_path(&origin(), 100.0, 100.0, &strips[0], 30.0, half);
        // Every east coordinate in [0, 100] must be within footprint of a lane.
        let lanes: Vec<f64> = path
            .iter()
            .step_by(2)
            .map(|p| p.to_enu(&origin()).east_m)
            .collect();
        for x in 0..=100 {
            let covered = lanes.iter().any(|l| (l - x as f64).abs() <= half + 1e-6);
            assert!(covered, "east {x} uncovered by lanes {lanes:?}");
        }
    }

    #[test]
    fn separate_strips_do_not_overlap_lanes() {
        let strips = split_strips(3);
        let a = boustrophedon_path(&origin(), 300.0, 100.0, &strips[0], 30.0, 20.0);
        let b = boustrophedon_path(&origin(), 300.0, 100.0, &strips[1], 30.0, 20.0);
        let max_a = a
            .iter()
            .map(|p| p.to_enu(&origin()).east_m)
            .fold(0.0, f64::max);
        let min_b = b
            .iter()
            .map(|p| p.to_enu(&origin()).east_m)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_a < min_b,
            "strip 0 lanes end before strip 1 lanes begin"
        );
    }

    #[test]
    fn higher_altitude_needs_fewer_legs() {
        let strips = split_strips(1);
        let low = boustrophedon_path(&origin(), 200.0, 100.0, &strips[0], 25.0, 25.0);
        let high = boustrophedon_path(&origin(), 200.0, 100.0, &strips[0], 60.0, 60.0);
        assert!(high.len() < low.len());
        assert!(path_length_m(&high) < path_length_m(&low));
    }

    #[test]
    fn path_length_of_single_leg() {
        let a = origin().with_alt(30.0);
        let b = a.destination(0.0, 100.0);
        assert!((path_length_m(&[a, b]) - 100.0).abs() < 1e-6);
        assert_eq!(path_length_m(&[a]), 0.0);
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_panics() {
        let strips = split_strips(1);
        let _ = boustrophedon_path(&origin(), 100.0, 100.0, &strips[0], 30.0, 0.0);
    }

    #[test]
    fn spiral_stays_inside_strip_and_shrinks_inward() {
        let strips = split_strips(1);
        let path = spiral_path(&origin(), 200.0, 200.0, &strips[0], 30.0, 20.0);
        assert!(path.len() >= 8, "multiple laps expected");
        let enus: Vec<_> = path.iter().map(|p| p.to_enu(&origin())).collect();
        for e in &enus {
            assert!((-1.0..=201.0).contains(&e.east_m), "{e:?}");
            assert!((-1.0..=201.0).contains(&e.north_m), "{e:?}");
        }
        // Later laps are strictly inside the first lap's bounding box.
        let first_min_e = enus[..4].iter().map(|e| e.east_m).fold(f64::MAX, f64::min);
        let last = &enus[enus.len() - 1];
        assert!(last.east_m > first_min_e, "spiral moves inward");
    }

    #[test]
    fn spiral_on_tiny_strip_falls_back_to_single_pass() {
        let strips = split_strips(4); // 25 m wide strips of a 100 m area
        let path = spiral_path(&origin(), 100.0, 100.0, &strips[1], 30.0, 30.0);
        assert_eq!(path.len(), 2);
        let a = path[0].to_enu(&origin());
        assert!((a.east_m - 37.5).abs() < 1.0, "centre pass at {}", a.east_m);
    }

    #[test]
    fn spiral_and_boustrophedon_have_comparable_length() {
        let strips = split_strips(1);
        let b = path_length_m(&boustrophedon_path(
            &origin(),
            200.0,
            200.0,
            &strips[0],
            30.0,
            20.0,
        ));
        let s = path_length_m(&spiral_path(
            &origin(),
            200.0,
            200.0,
            &strips[0],
            30.0,
            20.0,
        ));
        let ratio = s / b;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
