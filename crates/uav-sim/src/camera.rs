//! Camera footprint model.
//!
//! The gimballed camera looks straight down; its square ground footprint
//! scales with altitude and the field of view. The SAR pipeline asks which
//! ground-truth persons are currently inside the footprint and hands them
//! to the `sesame-vision` detector.

use sesame_types::geo::GeoPoint;

/// The nadir-looking camera.
///
/// # Examples
///
/// ```
/// use sesame_types::geo::GeoPoint;
/// use sesame_uav_sim::camera::SimCamera;
///
/// let cam = SimCamera::new(90.0);
/// // At 30 m with a 90° FOV the half-width is 30 m.
/// assert!((cam.footprint_half_width_m(30.0) - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCamera {
    /// Full field of view, degrees.
    pub fov_deg: f64,
    /// Health in `[0, 1]` (1 = nominal; degraded by faults).
    pub health: f64,
}

impl SimCamera {
    /// A camera with the given full field of view.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fov_deg < 180`.
    pub fn new(fov_deg: f64) -> Self {
        assert!(
            fov_deg > 0.0 && fov_deg < 180.0,
            "field of view must be in (0, 180)"
        );
        SimCamera {
            fov_deg,
            health: 1.0,
        }
    }

    /// Half-width of the square ground footprint at `altitude_m`.
    pub fn footprint_half_width_m(&self, altitude_m: f64) -> f64 {
        altitude_m.max(0.0) * (self.fov_deg.to_radians() / 2.0).tan()
    }

    /// The persons currently inside the footprint of a camera at
    /// `position`.
    pub fn visible_persons<'a>(
        &self,
        position: &GeoPoint,
        persons: &'a [GeoPoint],
    ) -> Vec<&'a GeoPoint> {
        self.visible(position, persons).collect()
    }

    /// [`SimCamera::visible_persons`] as a lazy iterator, for callers
    /// that copy the persons into a reused buffer.
    pub fn visible<'a>(
        &self,
        position: &GeoPoint,
        persons: &'a [GeoPoint],
    ) -> impl Iterator<Item = &'a GeoPoint> + 'a {
        // A dead camera sees nobody.
        let persons = if self.health <= 0.0 { &[] } else { persons };
        let half = self.footprint_half_width_m(position.alt_m);
        let ground = position.with_alt(0.0);
        persons.iter().filter(move |p| {
            let enu = p.to_enu(&ground);
            enu.east_m.abs() <= half && enu.north_m.abs() <= half
        })
    }

    /// Degrades the sensor (fault injection).
    pub fn degrade(&mut self, health: f64) {
        self.health = health.clamp(0.0, 1.0);
    }

    /// Restores the sensor to nominal health (ends any degradation).
    pub fn restore(&mut self) {
        self.health = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_scales_with_altitude() {
        let cam = SimCamera::new(90.0);
        assert!(cam.footprint_half_width_m(60.0) > cam.footprint_half_width_m(25.0));
        assert_eq!(cam.footprint_half_width_m(-5.0), 0.0);
    }

    #[test]
    fn visibility_query() {
        let cam = SimCamera::new(90.0);
        let pos = GeoPoint::new(35.0, 33.0, 30.0);
        let inside = pos.with_alt(0.0).destination(45.0, 20.0);
        let outside = pos.with_alt(0.0).destination(45.0, 200.0);
        let persons = vec![inside, outside];
        let vis = cam.visible_persons(&pos, &persons);
        assert_eq!(vis.len(), 1);
        assert!(vis[0].haversine_distance_m(&inside) < 0.01);
    }

    #[test]
    fn dead_sensor_sees_nothing() {
        let mut cam = SimCamera::new(90.0);
        cam.degrade(0.0);
        let pos = GeoPoint::new(35.0, 33.0, 30.0);
        let person = pos.with_alt(0.0);
        assert!(cam.visible_persons(&pos, &[person]).is_empty());
    }

    #[test]
    fn higher_altitude_sees_more() {
        let cam = SimCamera::new(90.0);
        let base = GeoPoint::new(35.0, 33.0, 0.0);
        let persons: Vec<GeoPoint> = (0..10)
            .map(|i| base.destination(90.0, i as f64 * 15.0))
            .collect();
        let low = cam.visible_persons(&base.with_alt(20.0), &persons).len();
        let high = cam.visible_persons(&base.with_alt(80.0), &persons).len();
        assert!(high > low);
    }

    #[test]
    #[should_panic(expected = "field of view")]
    fn bad_fov_panics() {
        let _ = SimCamera::new(180.0);
    }
}
