//! Stochastic person detection.
//!
//! The tiny-YOLOv4 stand-in: per frame, each person inside the camera
//! footprint is detected with a probability that falls off with altitude
//! and haze, and localized with altitude-proportional error; clutter
//! occasionally produces false positives. The *accuracy* model is
//! calibrated to the paper's §V-B claim: ≈99.8 % at the low-altitude
//! operating point (25 m, clear), degrading toward higher altitudes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame_types::geo::GeoPoint;

/// One detection output by the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Estimated ground position of the person.
    pub position: GeoPoint,
    /// Detector confidence score in `[0, 1]`.
    pub confidence: f64,
    /// Whether this detection corresponds to a real person (ground truth,
    /// available because this is a simulation — used for scoring only).
    pub true_positive: bool,
}

/// The stochastic person detector.
///
/// # Examples
///
/// ```
/// use sesame_vision::detector::PersonDetector;
///
/// let det = PersonDetector::new(1);
/// let low = det.accuracy(25.0, 1.0);
/// let high = det.accuracy(60.0, 1.0);
/// assert!(low > 0.99 && high < low);
/// ```
#[derive(Debug)]
pub struct PersonDetector {
    rng: StdRng,
    /// Altitude (m) at which accuracy peaks.
    pub optimal_altitude_m: f64,
    /// Peak accuracy at the optimal altitude — the paper's 99.8 %.
    pub peak_accuracy: f64,
    /// Accuracy decay per metre above the optimum.
    pub decay_per_meter: f64,
    /// False positives per frame at full degradation.
    pub max_false_positive_rate: f64,
}

impl PersonDetector {
    /// Creates a detector with the §V-B calibration.
    pub fn new(seed: u64) -> Self {
        PersonDetector {
            rng: StdRng::seed_from_u64(seed),
            optimal_altitude_m: 25.0,
            peak_accuracy: 0.998,
            decay_per_meter: 0.004,
            max_false_positive_rate: 0.05,
        }
    }

    /// Deterministic per-person detection accuracy at the given altitude
    /// and visibility: the probability a present person is correctly
    /// detected and classified.
    pub fn accuracy(&self, altitude_m: f64, visibility: f64) -> f64 {
        let excess = (altitude_m - self.optimal_altitude_m).abs();
        let alt_term = self.peak_accuracy - self.decay_per_meter * excess;
        let vis_term = visibility.clamp(0.0, 1.0);
        (alt_term * (0.5 + 0.5 * vis_term)).clamp(0.0, 1.0)
    }

    /// Runs one frame over the people currently inside the footprint.
    /// `people` are ground-truth positions; `camera` is the UAV position
    /// (its altitude sets the accuracy and the localization noise).
    pub fn detect_frame(
        &mut self,
        camera: &GeoPoint,
        visibility: f64,
        people: &[GeoPoint],
    ) -> Vec<Detection> {
        let mut out = Vec::new();
        self.detect_frame_into(camera, visibility, people, &mut out);
        out
    }

    /// [`PersonDetector::detect_frame`] into a caller-owned buffer,
    /// replacing its contents (no allocation once the buffer has grown).
    pub fn detect_frame_into(
        &mut self,
        camera: &GeoPoint,
        visibility: f64,
        people: &[GeoPoint],
        out: &mut Vec<Detection>,
    ) {
        let acc = self.accuracy(camera.alt_m, visibility);
        out.clear();
        for p in people {
            if self.rng.random::<f64>() < acc {
                // Localization error grows with altitude: σ = 1 % of alt.
                let sigma = 0.01 * camera.alt_m.max(1.0);
                let bearing = self.rng.random::<f64>() * 360.0;
                let err = self.gaussian().abs() * sigma;
                out.push(Detection {
                    position: p.destination(bearing, err).with_alt(0.0),
                    confidence: (acc + 0.1 * self.gaussian()).clamp(0.05, 1.0),
                    true_positive: true,
                });
            }
        }
        // Clutter false positives appear as accuracy degrades.
        let fp_rate = self.max_false_positive_rate * (1.0 - acc);
        if self.rng.random::<f64>() < fp_rate {
            let bearing = self.rng.random::<f64>() * 360.0;
            let dist = self.rng.random::<f64>() * camera.alt_m;
            out.push(Detection {
                position: camera.destination(bearing, dist).with_alt(0.0),
                confidence: (0.3 + 0.2 * self.gaussian()).clamp(0.05, 0.9),
                true_positive: false,
            });
        }
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

    fn camera(alt: f64) -> GeoPoint {
        GeoPoint::new(35.0, 33.0, alt)
    }

    #[test]
    fn accuracy_peaks_at_optimal_altitude() {
        let d = PersonDetector::new(1);
        let at_opt = d.accuracy(25.0, 1.0);
        assert!((at_opt - 0.998).abs() < 1e-12);
        assert!(d.accuracy(60.0, 1.0) < at_opt);
        assert!(d.accuracy(5.0, 1.0) < at_opt, "too low also hurts");
    }

    #[test]
    fn haze_halves_accuracy_at_zero_visibility() {
        let d = PersonDetector::new(1);
        let clear = d.accuracy(25.0, 1.0);
        let blind = d.accuracy(25.0, 0.0);
        assert!((blind - clear / 2.0).abs() < 1e-9);
    }

    #[test]
    fn detection_rate_matches_accuracy_statistically() {
        let mut d = PersonDetector::new(7);
        let person = [GeoPoint::new(35.0001, 33.0001, 0.0)];
        let mut hits = 0;
        let n = 3000;
        for _ in 0..n {
            let dets = d.detect_frame(&camera(25.0), 1.0, &person);
            hits += dets.iter().filter(|x| x.true_positive).count();
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.998).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn high_altitude_misses_more_and_localizes_worse() {
        let mut d = PersonDetector::new(3);
        let person = [GeoPoint::new(35.0001, 33.0001, 0.0)];
        let mut err_low = 0.0;
        let mut err_high = 0.0;
        let (mut n_low, mut n_high) = (0, 0);
        for _ in 0..2000 {
            for det in d.detect_frame(&camera(25.0), 1.0, &person) {
                if det.true_positive {
                    err_low += det.position.haversine_distance_m(&person[0]);
                    n_low += 1;
                }
            }
            for det in d.detect_frame(&camera(100.0), 1.0, &person) {
                if det.true_positive {
                    err_high += det.position.haversine_distance_m(&person[0]);
                    n_high += 1;
                }
            }
        }
        assert!(n_high < n_low);
        assert!(err_high / n_high as f64 > err_low / n_low as f64);
    }

    #[test]
    fn empty_scene_rarely_detects() {
        let mut d = PersonDetector::new(11);
        let mut fps = 0;
        for _ in 0..1000 {
            fps += d.detect_frame(&camera(25.0), 1.0, &[]).len();
        }
        // At peak accuracy the FP rate is ~0.05 * 0.002 per frame.
        assert!(fps < 10, "false positives = {fps}");
    }

    #[test]
    fn determinism_per_seed() {
        let person = [GeoPoint::new(35.0001, 33.0001, 0.0)];
        let mut a = PersonDetector::new(5);
        let mut b = PersonDetector::new(5);
        assert_eq!(
            a.detect_frame(&camera(30.0), 0.9, &person),
            b.detect_frame(&camera(30.0), 0.9, &person)
        );
    }
}
