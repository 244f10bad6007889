//! GPS receiver simulation: noise, quality factors, loss, spoofing.
//!
//! The receiver reports position with Gaussian noise and realistic quality
//! factors (satellite count, HDOP). Two injectable conditions model the
//! paper's scenarios: **signal loss** (the Fig. 7 GPS-denied landing) and
//! **spoofing** — a growing offset dragged onto the solution, which is how
//! the falsified mapping data of Fig. 6 reaches the UAV.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame_types::geo::{GeoPoint, Vec3};
use sesame_types::telemetry::GpsFix;

/// The simulated receiver.
///
/// # Examples
///
/// ```
/// use sesame_types::geo::GeoPoint;
/// use sesame_uav_sim::gps::SimGps;
///
/// let mut gps = SimGps::new(1);
/// let fix = gps.measure(&GeoPoint::new(35.0, 33.0, 40.0), 0.1);
/// assert!(fix.has_fix);
/// assert!(fix.satellites >= 8);
/// ```
#[derive(Debug)]
pub struct SimGps {
    rng: StdRng,
    /// Horizontal noise 1-σ, metres.
    pub sigma_m: f64,
    lost: bool,
    /// Spoofing drag velocity (ENU m/s), `None` when not under attack.
    spoof_drift: Option<Vec3>,
    /// Accumulated spoofing offset (ENU metres).
    spoof_offset: Vec3,
    last_fix: GpsFix,
}

impl SimGps {
    /// A healthy receiver with 1.2 m noise.
    pub fn new(seed: u64) -> Self {
        SimGps {
            rng: StdRng::seed_from_u64(seed),
            sigma_m: 1.2,
            lost: false,
            spoof_drift: None,
            spoof_offset: Vec3::zero(),
            last_fix: GpsFix::default(),
        }
    }

    /// Injects signal loss (no fix until [`SimGps::restore`]).
    pub fn inject_loss(&mut self) {
        self.lost = true;
    }

    /// Starts a spoofing attack: the reported solution is dragged at
    /// `drift` m/s (ENU) away from truth.
    pub fn inject_spoof(&mut self, drift: Vec3) {
        self.spoof_drift = Some(drift);
    }

    /// Ends any injected condition.
    pub fn restore(&mut self) {
        self.lost = false;
        self.spoof_drift = None;
        self.spoof_offset = Vec3::zero();
    }

    /// Whether a spoofing attack is active.
    pub fn is_spoofed(&self) -> bool {
        self.spoof_drift.is_some()
    }

    /// The accumulated spoofing offset in metres.
    pub fn spoof_offset_m(&self) -> f64 {
        self.spoof_offset.norm()
    }

    /// Produces the receiver output for the true position, advancing any
    /// spoof drag by `dt` seconds.
    pub fn measure(&mut self, truth: &GeoPoint, dt: f64) -> GpsFix {
        if self.lost {
            let fix = GpsFix::lost(self.last_fix.position);
            self.last_fix = fix;
            return fix;
        }
        if let Some(drift) = self.spoof_drift {
            self.spoof_offset = self.spoof_offset + drift * dt;
        }
        let noise = Vec3::new(
            self.gaussian() * self.sigma_m,
            self.gaussian() * self.sigma_m,
            self.gaussian() * self.sigma_m * 1.5,
        );
        let offset = self.spoof_offset + noise;
        let position = GeoPoint::from_enu(truth, offset.into());
        // Spoofers often present an unnaturally clean constellation; keep
        // quality factors nominal so naive checks pass (the paper's
        // detection works on innovation, not on quality flags).
        let satellites = 10 + (self.rng.random::<f64>() * 4.0) as u8;
        let hdop = 0.6 + self.rng.random::<f64>() * 0.6;
        let fix = GpsFix {
            has_fix: true,
            satellites,
            hdop,
            position,
        };
        self.last_fix = fix;
        fix
    }

    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GeoPoint {
        GeoPoint::new(35.0, 33.0, 40.0)
    }

    #[test]
    fn healthy_fix_is_near_truth() {
        let mut gps = SimGps::new(3);
        let mut worst: f64 = 0.0;
        for _ in 0..200 {
            let fix = gps.measure(&truth(), 0.1);
            assert!(fix.is_usable());
            worst = worst.max(fix.position.distance_3d_m(&truth()));
        }
        assert!(worst < 10.0, "worst error {worst}");
    }

    #[test]
    fn loss_reports_no_fix_and_holds_last_position() {
        let mut gps = SimGps::new(3);
        let before = gps.measure(&truth(), 0.1);
        gps.inject_loss();
        let lost = gps.measure(&truth(), 0.1);
        assert!(!lost.has_fix);
        assert_eq!(lost.satellites, 0);
        assert_eq!(lost.position, before.position);
        gps.restore();
        assert!(gps.measure(&truth(), 0.1).has_fix);
    }

    #[test]
    fn spoof_drags_solution_linearly() {
        let mut gps = SimGps::new(3);
        gps.inject_spoof(Vec3::new(0.0, 5.0, 0.0)); // 5 m/s north
        for _ in 0..100 {
            let _ = gps.measure(&truth(), 0.1);
        }
        // 10 s at 5 m/s = 50 m offset.
        assert!((gps.spoof_offset_m() - 50.0).abs() < 1.0);
        let fix = gps.measure(&truth(), 0.0);
        let err = fix.position.haversine_distance_m(&truth());
        assert!((err - 50.0).abs() < 10.0, "err = {err}");
        assert!(fix.is_usable(), "quality flags stay nominal under spoof");
    }

    #[test]
    fn restore_clears_spoof() {
        let mut gps = SimGps::new(3);
        gps.inject_spoof(Vec3::new(10.0, 0.0, 0.0));
        let _ = gps.measure(&truth(), 1.0);
        assert!(gps.is_spoofed());
        gps.restore();
        assert!(!gps.is_spoofed());
        assert_eq!(gps.spoof_offset_m(), 0.0);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = SimGps::new(9);
        let mut b = SimGps::new(9);
        for _ in 0..10 {
            assert_eq!(a.measure(&truth(), 0.1), b.measure(&truth(), 0.1));
        }
    }
}
