//! Geodesy on a spherical earth.
//!
//! The paper's collaborative-localization tool refines UAV positions with
//! "trigonometric calculations and the Haversine formula" (§III-C). This
//! module provides exactly that toolbox: [`GeoPoint`] with haversine
//! distance, initial bearing, destination-point computation, and a local
//! east-north-up ([`Enu`]) tangent frame used by the flight simulator and the
//! triangulation code.

use std::fmt;

/// Mean earth radius in metres (IUGG value), the constant used by the
/// haversine formula throughout the workspace.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84-style geodetic position: latitude/longitude in degrees and
/// altitude above the reference surface in metres.
///
/// # Examples
///
/// ```
/// use sesame_types::geo::GeoPoint;
///
/// let a = GeoPoint::new(35.0, 33.0, 50.0);
/// let b = a.destination(90.0, 1000.0);
/// assert!((a.haversine_distance_m(&b) - 1000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east.
    pub lon_deg: f64,
    /// Altitude above the reference surface in metres.
    pub alt_m: f64,
}

impl GeoPoint {
    /// Creates a geodetic point from latitude, longitude (degrees) and
    /// altitude (metres).
    pub fn new(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        Self {
            lat_deg,
            lon_deg,
            alt_m,
        }
    }

    /// Great-circle (haversine) surface distance to `other` in metres,
    /// ignoring the altitude difference.
    ///
    /// This is the formula cited by the paper (\[38\]) for the final position
    /// refinement in collaborative localization.
    pub fn haversine_distance_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Three-dimensional distance to `other` in metres: haversine surface
    /// distance combined with the altitude difference.
    pub fn distance_3d_m(&self, other: &GeoPoint) -> f64 {
        let horiz = self.haversine_distance_m(other);
        let dz = other.alt_m - self.alt_m;
        (horiz * horiz + dz * dz).sqrt()
    }

    /// Initial great-circle bearing from `self` to `other`, degrees in
    /// `[0, 360)` clockwise from true north.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let deg = y.atan2(x).to_degrees();
        (deg + 360.0) % 360.0
    }

    /// Destination point reached by travelling `distance_m` metres along the
    /// great circle with initial bearing `bearing_deg` (degrees clockwise
    /// from north). Altitude is preserved.
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        let brg = bearing_deg.to_radians();
        let lat1 = self.lat_deg.to_radians();
        let lon1 = self.lon_deg.to_radians();
        let ang = distance_m / EARTH_RADIUS_M;
        let lat2 = (lat1.sin() * ang.cos() + lat1.cos() * ang.sin() * brg.cos()).asin();
        let lon2 =
            lon1 + (brg.sin() * ang.sin() * lat1.cos()).atan2(ang.cos() - lat1.sin() * lat2.sin());
        GeoPoint {
            lat_deg: lat2.to_degrees(),
            lon_deg: normalize_lon(lon2.to_degrees()),
            alt_m: self.alt_m,
        }
    }

    /// Returns a copy of this point with a different altitude.
    pub fn with_alt(&self, alt_m: f64) -> GeoPoint {
        GeoPoint { alt_m, ..*self }
    }

    /// Converts this point to local east-north-up coordinates relative to
    /// `origin`, using a small-area equirectangular approximation that is
    /// accurate to centimetres over SAR-mission scales (a few kilometres).
    pub fn to_enu(&self, origin: &GeoPoint) -> Enu {
        let lat0 = origin.lat_deg.to_radians();
        let east = (self.lon_deg - origin.lon_deg).to_radians() * lat0.cos() * EARTH_RADIUS_M;
        let north = (self.lat_deg - origin.lat_deg).to_radians() * EARTH_RADIUS_M;
        Enu {
            east_m: east,
            north_m: north,
            up_m: self.alt_m - origin.alt_m,
        }
    }

    /// Inverse of [`GeoPoint::to_enu`]: reconstructs the geodetic point that
    /// lies at local coordinates `enu` relative to `origin`.
    pub fn from_enu(origin: &GeoPoint, enu: Enu) -> GeoPoint {
        let lat0 = origin.lat_deg.to_radians();
        GeoPoint {
            lat_deg: origin.lat_deg + (enu.north_m / EARTH_RADIUS_M).to_degrees(),
            lon_deg: origin.lon_deg + (enu.east_m / (EARTH_RADIUS_M * lat0.cos())).to_degrees(),
            alt_m: origin.alt_m + enu.up_m,
        }
    }

    /// Linear interpolation between `self` and `other` with parameter
    /// `t ∈ [0, 1]`, in local coordinates. `t` is clamped.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        let enu = other.to_enu(self);
        GeoPoint::from_enu(
            self,
            Enu {
                east_m: enu.east_m * t,
                north_m: enu.north_m * t,
                up_m: enu.up_m * t,
            },
        )
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.6}°, {:.6}°, {:.1} m)",
            self.lat_deg, self.lon_deg, self.alt_m
        )
    }
}

/// Absolute part of the margin [`ChordPoint::distance_lower_bound_m`]
/// subtracts: one micrometre, about a thousand times the ~1e-9 m that
/// rounding moves either the chord or the haversine arc by at earth
/// radius (a few ulps of a unit-scale coordinate, times `EARTH_RADIUS_M`).
pub const CHORD_MARGIN_M: f64 = 1e-6;

/// Relative part of the same margin: one part in 10⁹, a million times
/// the few-ulp relative rounding of the final square roots, so very
/// long ranges and large altitude gaps stay covered as well.
pub const CHORD_MARGIN_REL: f64 = 1e-9;

/// A [`GeoPoint`] reduced to its unit-sphere vector
/// `(cos φ cos λ, cos φ sin λ, sin φ)` and altitude, so that a lower
/// bound on [`GeoPoint::distance_3d_m`] costs no trigonometry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChordPoint {
    unit: [f64; 3],
    alt_m: f64,
}

impl ChordPoint {
    /// Projects `p` onto the unit sphere, keeping its altitude.
    pub fn new(p: &GeoPoint) -> Self {
        let (sin_lat, cos_lat) = p.lat_deg.to_radians().sin_cos();
        let (sin_lon, cos_lon) = p.lon_deg.to_radians().sin_cos();
        ChordPoint {
            unit: [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
            alt_m: p.alt_m,
        }
    }

    /// A lower bound on `a.distance_3d_m(&b)` for the points `self` and
    /// `other` were built from: `sqrt((R·|pₐ − p_b|)² + Δalt²)`, reduced
    /// by `CHORD_MARGIN_REL` of itself plus `CHORD_MARGIN_M`.
    ///
    /// A chord is never longer than its arc (`2R·sin(θ/2) ≤ R·θ`), so
    /// the unreduced value is at most the exact 3-D distance; the margin
    /// covers the rounding of both formulas. Near the antipodes, where
    /// the haversine's `asin` loses precision, the chord is shorter than
    /// the arc by about `(π − 2)·R`. A non-finite coordinate on either
    /// side makes the bound NaN, which compares as "no bound".
    pub fn distance_lower_bound_m(&self, other: &ChordPoint) -> f64 {
        let [dx, dy, dz] = [
            self.unit[0] - other.unit[0],
            self.unit[1] - other.unit[1],
            self.unit[2] - other.unit[2],
        ];
        let chord = EARTH_RADIUS_M * (dx * dx + dy * dy + dz * dz).sqrt();
        let dalt = other.alt_m - self.alt_m;
        let bound = (chord * chord + dalt * dalt).sqrt();
        bound - (CHORD_MARGIN_REL * bound + CHORD_MARGIN_M)
    }

    /// Whether every coordinate is finite: true exactly when the
    /// [`GeoPoint`] it was built from has a finite latitude, longitude
    /// and altitude.
    pub fn is_finite(&self) -> bool {
        self.unit.iter().all(|u| u.is_finite()) && self.alt_m.is_finite()
    }

    /// Component `axis` (0, 1 or 2) of the unit vector: the airspace
    /// sweep's sort key along that axis.
    pub fn sweep_key(&self, axis: usize) -> f64 {
        self.unit[axis]
    }

    /// A lower bound on [`ChordPoint::distance_lower_bound_m`] from one
    /// component alone: `dk` is `a.sweep_key(axis) - b.sweep_key(axis)`
    /// for the same axis, and the result `R·|dk|` minus
    /// `SWEEP_MARGIN_REL` of itself and `SWEEP_MARGIN_M`.
    ///
    /// A chord is never shorter than one of its components, and the
    /// margin (twice the chord margin in both parts) covers the rounding
    /// of the chord's sum, square roots and own margin. The expression
    /// is a chain of roundings of monotone operations in `|dk|`, so a
    /// sweep that walks outward in key order may stop at the first key
    /// whose bound exceeds its nearest range so far.
    pub fn sweep_gap_bound_m(dk: f64) -> f64 {
        EARTH_RADIUS_M * dk.abs() * (1.0 - SWEEP_MARGIN_REL) - SWEEP_MARGIN_M
    }
}

/// Relative part of the margin [`ChordPoint::sweep_gap_bound_m`]
/// subtracts: twice [`CHORD_MARGIN_REL`].
const SWEEP_MARGIN_REL: f64 = 2.0 * CHORD_MARGIN_REL;

/// Absolute part of the same margin: twice [`CHORD_MARGIN_M`].
const SWEEP_MARGIN_M: f64 = 2.0 * CHORD_MARGIN_M;

fn normalize_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

/// Local east-north-up coordinates in metres relative to some origin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Enu {
    /// Metres east of the origin.
    pub east_m: f64,
    /// Metres north of the origin.
    pub north_m: f64,
    /// Metres above the origin.
    pub up_m: f64,
}

impl Enu {
    /// Creates an ENU offset.
    pub fn new(east_m: f64, north_m: f64, up_m: f64) -> Self {
        Self {
            east_m,
            north_m,
            up_m,
        }
    }

    /// Euclidean norm of the offset in metres.
    pub fn norm(&self) -> f64 {
        (self.east_m * self.east_m + self.north_m * self.north_m + self.up_m * self.up_m).sqrt()
    }

    /// Horizontal (east/north only) norm in metres.
    pub fn horizontal_norm(&self) -> f64 {
        (self.east_m * self.east_m + self.north_m * self.north_m).sqrt()
    }
}

/// A plain 3-vector used for velocities and local offsets (metres or m/s,
/// axes east/north/up).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X / east component.
    pub x: f64,
    /// Y / north component.
    pub y: f64,
    /// Z / up component.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the vector scaled by `k`.
    pub fn scaled(&self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }

    /// Returns a unit vector in the same direction, or zero if the norm is
    /// (numerically) zero.
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        if n < 1e-12 {
            Vec3::zero()
        } else {
            self.scaled(1.0 / n)
        }
    }

    /// Dot product with `other`.
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        self.scaled(rhs)
    }
}

impl From<Enu> for Vec3 {
    fn from(e: Enu) -> Vec3 {
        Vec3::new(e.east_m, e.north_m, e.up_m)
    }
}

impl From<Vec3> for Enu {
    fn from(v: Vec3) -> Enu {
        Enu::new(v.x, v.y, v.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = GeoPoint::new(35.0, 33.0, 100.0);
        assert_eq!(p.haversine_distance_m(&p), 0.0);
    }

    #[test]
    fn haversine_matches_known_pair() {
        // Paris -> London is about 344 km.
        let paris = GeoPoint::new(48.8566, 2.3522, 0.0);
        let london = GeoPoint::new(51.5074, -0.1278, 0.0);
        let d = paris.haversine_distance_m(&london);
        assert!((330_000.0..350_000.0).contains(&d), "d = {d}");
    }

    #[test]
    fn destination_round_trips_distance_and_bearing() {
        let start = GeoPoint::new(35.1, 33.4, 30.0);
        for bearing in [0.0, 45.0, 90.0, 180.0, 270.0, 359.0] {
            let dest = start.destination(bearing, 500.0);
            let d = start.haversine_distance_m(&dest);
            assert!(
                (d - 500.0).abs() < 1e-6,
                "distance {d} for bearing {bearing}"
            );
            let b = start.bearing_deg(&dest);
            let diff = (b - bearing).abs().min(360.0 - (b - bearing).abs());
            assert!(diff < 1e-6, "bearing {b} expected {bearing}");
        }
    }

    #[test]
    fn enu_round_trip() {
        let origin = GeoPoint::new(35.0, 33.0, 10.0);
        let p = GeoPoint::new(35.003, 33.004, 60.0);
        let enu = p.to_enu(&origin);
        let back = GeoPoint::from_enu(&origin, enu);
        assert!(p.haversine_distance_m(&back) < 0.01);
        assert!((p.alt_m - back.alt_m).abs() < 1e-9);
    }

    #[test]
    fn enu_distance_agrees_with_haversine_at_small_scale() {
        let origin = GeoPoint::new(35.0, 33.0, 0.0);
        let p = origin.destination(37.0, 1200.0);
        let enu = p.to_enu(&origin);
        assert!((enu.horizontal_norm() - 1200.0).abs() < 1.0);
    }

    #[test]
    fn bearing_east_is_90() {
        let a = GeoPoint::new(0.0, 0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0, 0.0);
        assert!((a.bearing_deg(&b) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = GeoPoint::new(35.0, 33.0, 0.0);
        let b = a.destination(90.0, 1000.0);
        assert!(a.lerp(&b, 0.0).haversine_distance_m(&a) < 1e-9);
        assert!(a.lerp(&b, 1.0).haversine_distance_m(&b) < 0.01);
        let mid = a.lerp(&b, 0.5);
        assert!((a.haversine_distance_m(&mid) - 500.0).abs() < 0.5);
    }

    #[test]
    fn lerp_clamps_parameter() {
        let a = GeoPoint::new(35.0, 33.0, 0.0);
        let b = a.destination(0.0, 100.0);
        assert!(a.lerp(&b, -1.0).haversine_distance_m(&a) < 1e-9);
        assert!(a.lerp(&b, 2.0).haversine_distance_m(&b) < 0.01);
    }

    #[test]
    fn distance_3d_includes_altitude() {
        let a = GeoPoint::new(35.0, 33.0, 0.0);
        let b = a.with_alt(30.0);
        assert!((a.distance_3d_m(&b) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn vec3_algebra() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-12);
        let w = v + Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(w, Vec3::new(4.0, 5.0, 1.0));
        assert_eq!((w - v), Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(v * 2.0, Vec3::new(6.0, 8.0, 0.0));
        assert!((v.dot(&Vec3::new(0.0, 0.0, 1.0))).abs() < 1e-12);
        assert_eq!(Vec3::zero().normalized(), Vec3::zero());
    }

    #[test]
    fn lon_normalization_wraps() {
        let p = GeoPoint::new(0.0, 179.9, 0.0);
        let d = p.destination(90.0, 50_000.0);
        assert!(d.lon_deg < -179.0 || d.lon_deg > 179.9);
        assert!((-180.0..=180.0).contains(&d.lon_deg));
    }
}
