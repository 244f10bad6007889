//! The CL session and the guide-to-safe-landing controller.
//!
//! A [`CollabSession`] owns the collaborating agents, fuses their
//! simultaneous sightings, smooths the fused track with a Kalman filter,
//! and keeps a synchronized fix database (the "Database sync" of Fig. 3).
//! [`LandingGuidance`] consumes session fixes to steer the affected,
//! GPS-denied UAV onto a precise landing point — the Fig. 7 mitigation.

use crate::agent::CollaborativeAgent;
use crate::fusion::fuse_estimates;
use crate::geometry::PositionEstimate;
use sesame_types::geo::{Enu, GeoPoint, Vec3};
use sesame_types::time::SimTime;
use sesame_vision::tracking::KalmanTracker;

/// One entry of the synchronized fix database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixRecord {
    /// When the fix was produced.
    pub time: SimTime,
    /// The fused, smoothed estimate.
    pub estimate: PositionEstimate,
    /// How many agents contributed sightings.
    pub contributors: usize,
}

/// A running collaborative-localization session for one affected UAV.
#[derive(Debug)]
pub struct CollabSession {
    agents: Vec<CollaborativeAgent>,
    anchor: GeoPoint,
    tracker: Option<KalmanTracker>,
    database: Vec<FixRecord>,
    last_time: Option<SimTime>,
}

impl CollabSession {
    /// Starts a session with the given agents, anchored near the affected
    /// UAV's last known position (used as the local ENU origin).
    ///
    /// # Panics
    ///
    /// Panics if no agents are supplied — CL needs at least one
    /// collaborator, and the paper's deployment uses two.
    pub fn new(agents: Vec<CollaborativeAgent>, anchor: GeoPoint) -> Self {
        assert!(!agents.is_empty(), "a CL session needs collaborators");
        CollabSession {
            agents,
            anchor,
            tracker: None,
            database: Vec::new(),
            last_time: None,
        }
    }

    /// The synchronized fix database.
    pub fn database(&self) -> &[FixRecord] {
        &self.database
    }

    /// One CL round: every agent tries to sight the affected UAV from its
    /// own position; sightings are fused and smoothed. Returns the new fix
    /// if at least one agent saw the target.
    ///
    /// `observer_positions` must be one position per agent (same order as
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `observer_positions.len()` differs from the agent count.
    pub fn step(
        &mut self,
        now: SimTime,
        observer_positions: &[GeoPoint],
        affected_true_position: &GeoPoint,
    ) -> Option<PositionEstimate> {
        assert_eq!(
            observer_positions.len(),
            self.agents.len(),
            "one observer position per agent"
        );
        let estimates: Vec<PositionEstimate> = self
            .agents
            .iter_mut()
            .zip(observer_positions.iter())
            .filter_map(|(agent, pos)| agent.observe(pos, affected_true_position))
            .collect();
        let contributors = estimates.len();
        let fused = fuse_estimates(&estimates)?;
        self.smooth_and_record(now, fused, contributors)
    }

    /// The latest fix, if any.
    pub fn latest(&self) -> Option<&FixRecord> {
        self.database.last()
    }

    /// One CL round combining vision sightings with RSSI trilateration —
    /// the comm-based localization of Fig. 1 backing up the cameras. The
    /// radio ranges each observer↔target link; with ≥3 observers the
    /// trilaterated fix joins the vision estimates in the fusion (with a
    /// conservative σ, RSSI geometry being coarse).
    ///
    /// # Panics
    ///
    /// Panics if `observer_positions.len()` differs from the agent count.
    pub fn step_with_rssi(
        &mut self,
        now: SimTime,
        observer_positions: &[GeoPoint],
        affected_true_position: &GeoPoint,
        radio: &mut crate::rssi::RssiRanging,
    ) -> Option<PositionEstimate> {
        assert_eq!(
            observer_positions.len(),
            self.agents.len(),
            "one observer position per agent"
        );
        let mut estimates: Vec<PositionEstimate> = self
            .agents
            .iter_mut()
            .zip(observer_positions.iter())
            .filter_map(|(agent, pos)| agent.observe(pos, affected_true_position))
            .collect();
        if observer_positions.len() >= 3 {
            let measurements: Vec<crate::rssi::RangeMeasurement> = observer_positions
                .iter()
                .map(|obs| crate::rssi::RangeMeasurement {
                    anchor: *obs,
                    range_m: radio
                        .measure_range(obs.distance_3d_m(affected_true_position).max(0.1)),
                })
                .collect();
            if let Some(fix) = crate::rssi::trilaterate(&measurements, affected_true_position.alt_m)
            {
                estimates.push(PositionEstimate {
                    position: fix,
                    sigma_m: 8.0,
                });
            }
        }
        let contributors = estimates.len();
        let fused = crate::fusion::fuse_estimates(&estimates)?;
        self.smooth_and_record(now, fused, contributors)
    }

    fn smooth_and_record(
        &mut self,
        now: SimTime,
        fused: PositionEstimate,
        contributors: usize,
    ) -> Option<PositionEstimate> {
        let dt = self
            .last_time
            .map(|t| now.since(t).as_secs_f64())
            .unwrap_or(0.0);
        self.last_time = Some(now);
        let z: Vec3 = fused.position.to_enu(&self.anchor).into();
        let r = fused.sigma_m * fused.sigma_m;
        let tracker = self.tracker.get_or_insert_with(|| KalmanTracker::new(z, r));
        if dt > 0.0 {
            tracker.predict(dt);
        }
        tracker.update(z, r);
        let smoothed_enu: Enu = tracker.position().into();
        let sigma = tracker.position_sigma().norm() / 3f64.sqrt();
        let estimate = PositionEstimate {
            position: GeoPoint::from_enu(&self.anchor, smoothed_enu),
            sigma_m: sigma.max(0.05),
        };
        self.database.push(FixRecord {
            time: now,
            estimate,
            contributors,
        });
        Some(estimate)
    }
}

/// Steers the affected UAV to a safe-landing point using CL fixes instead
/// of GPS.
#[derive(Debug, Clone)]
pub struct LandingGuidance {
    target: GeoPoint,
    /// Horizontal speed command, m/s.
    pub approach_mps: f64,
    /// Descent rate once overhead, m/s.
    pub descent_mps: f64,
    /// Horizontal radius that counts as "overhead", metres.
    pub capture_radius_m: f64,
}

impl LandingGuidance {
    /// Guidance toward a ground `target`.
    pub fn new(target: GeoPoint) -> Self {
        LandingGuidance {
            target: target.with_alt(0.0),
            approach_mps: 3.0,
            descent_mps: 1.5,
            capture_radius_m: 2.0,
        }
    }

    /// The landing target.
    pub fn target(&self) -> GeoPoint {
        self.target
    }

    /// The velocity command (ENU m/s) for the affected UAV given its
    /// current CL-estimated position: close the horizontal gap first, then
    /// descend.
    pub fn velocity_command(&self, estimated: &GeoPoint) -> Vec3 {
        let enu = self.target.to_enu(estimated);
        let horiz = Vec3::new(enu.east_m, enu.north_m, 0.0);
        if horiz.norm() > self.capture_radius_m {
            let dir = horiz.normalized();
            let speed = self.approach_mps.min(horiz.norm());
            Vec3::new(dir.x * speed, dir.y * speed, 0.0)
        } else if estimated.alt_m > 0.2 {
            Vec3::new(0.0, 0.0, -self.descent_mps.min(estimated.alt_m))
        } else {
            Vec3::zero()
        }
    }

    /// Whether the estimated position counts as landed on target.
    pub fn is_landed(&self, estimated: &GeoPoint) -> bool {
        estimated.alt_m <= 0.2
            && self.target.haversine_distance_m(estimated) <= self.capture_radius_m * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agents() -> Vec<CollaborativeAgent> {
        vec![
            CollaborativeAgent::new("collab1", 11),
            CollaborativeAgent::new("collab2", 22),
        ]
    }

    fn anchor() -> GeoPoint {
        GeoPoint::new(35.0, 33.0, 0.0)
    }

    #[test]
    fn session_tracks_static_target_tightly() {
        let affected = anchor().destination(45.0, 40.0).with_alt(30.0);
        let obs1 = anchor().destination(0.0, 20.0).with_alt(32.0);
        let obs2 = anchor().destination(90.0, 25.0).with_alt(28.0);
        let mut session = CollabSession::new(agents(), anchor());
        let mut last = None;
        for s in 1..=100u64 {
            if let Some(fix) = session.step(SimTime::from_millis(s * 100), &[obs1, obs2], &affected)
            {
                last = Some(fix);
            }
        }
        let fix = last.expect("the target is close; fixes must arrive");
        let err = fix.position.distance_3d_m(&affected);
        assert!(err < 3.0, "CL error {err} m");
        assert!(session.database().len() > 50);
        assert!(session.latest().unwrap().contributors >= 1);
    }

    #[test]
    fn moving_target_is_followed() {
        let mut session = CollabSession::new(agents(), anchor());
        let obs1 = anchor().with_alt(35.0);
        let obs2 = anchor().destination(90.0, 30.0).with_alt(35.0);
        let mut err_sum = 0.0;
        let mut n = 0;
        for s in 1..=200u64 {
            let target = anchor()
                .destination(90.0, 10.0 + s as f64 * 0.2)
                .with_alt(30.0);
            if s > 50 {
                if let Some(fix) =
                    session.step(SimTime::from_millis(s * 100), &[obs1, obs2], &target)
                {
                    err_sum += fix.position.distance_3d_m(&target);
                    n += 1;
                }
            } else {
                let _ = session.step(SimTime::from_millis(s * 100), &[obs1, obs2], &target);
            }
        }
        assert!(n > 50);
        let mean = err_sum / n as f64;
        assert!(mean < 5.0, "mean tracking error {mean}");
    }

    #[test]
    fn out_of_range_target_yields_no_fix() {
        let mut session = CollabSession::new(agents(), anchor());
        let far = anchor().destination(0.0, 5000.0).with_alt(30.0);
        let obs = [anchor().with_alt(30.0), anchor().with_alt(30.0)];
        for s in 1..=20u64 {
            assert!(session
                .step(SimTime::from_millis(s * 100), &obs, &far)
                .is_none());
        }
        assert!(session.database().is_empty());
    }

    #[test]
    fn guidance_closes_on_target_then_descends() {
        let target = anchor().destination(90.0, 30.0);
        let g = LandingGuidance::new(target);
        let away = anchor().with_alt(25.0);
        let v = g.velocity_command(&away);
        assert!(v.x > 0.0, "move east toward the pad: {v:?}");
        assert_eq!(v.z, 0.0, "no descent while off target");
        let overhead = target.with_alt(20.0);
        let v2 = g.velocity_command(&overhead);
        assert!(v2.z < 0.0, "descend overhead: {v2:?}");
        assert!(v2.x.abs() < 1e-9);
        let landed = target.with_alt(0.0);
        assert_eq!(g.velocity_command(&landed), Vec3::zero());
        assert!(g.is_landed(&landed));
        assert!(!g.is_landed(&overhead));
    }

    #[test]
    fn full_guided_landing_without_gps() {
        // Integrate the affected UAV purely on CL fixes: true position is
        // only used by the *observers'* cameras, never by the controller.
        let mut session = CollabSession::new(agents(), anchor());
        let pad = anchor().destination(90.0, 25.0);
        let guidance = LandingGuidance::new(pad);
        let obs1 = anchor().destination(0.0, 15.0).with_alt(35.0);
        let obs2 = anchor().destination(90.0, 45.0).with_alt(35.0);
        let mut true_pos = anchor().destination(45.0, 40.0).with_alt(30.0);
        let dt = 0.1;
        let mut landed_at = None;
        for s in 1..=4000u64 {
            let now = SimTime::from_millis(s * 100);
            let fix = session.step(now, &[obs1, obs2], &true_pos);
            if let Some(fix) = fix {
                let v = guidance.velocity_command(&fix.position);
                let step = v * dt;
                true_pos = GeoPoint::from_enu(&true_pos, step.into());
                if true_pos.alt_m < 0.0 {
                    true_pos = true_pos.with_alt(0.0);
                }
                if guidance.is_landed(&fix.position) {
                    landed_at = Some(true_pos);
                    break;
                }
            }
        }
        let final_pos = landed_at.expect("guided landing must complete");
        let miss = pad.haversine_distance_m(&final_pos);
        assert!(miss < 6.0, "landing miss {miss} m");
        assert!(final_pos.alt_m < 1.0);
    }

    #[test]
    fn rssi_backup_produces_fixes_when_cameras_miss() {
        // Blind the cameras by placing the target beyond visual range but
        // keep three radio observers: the comm-localization branch alone
        // must still produce (coarser) fixes.
        let agents = vec![
            CollaborativeAgent::new("c1", 41),
            CollaborativeAgent::new("c2", 42),
            CollaborativeAgent::new("c3", 43),
        ];
        let mut session = CollabSession::new(agents, anchor());
        let target = anchor().destination(45.0, 400.0).with_alt(30.0);
        let observers = [
            target.destination(0.0, 60.0).with_alt(35.0),
            target.destination(120.0, 60.0).with_alt(35.0),
            target.destination(240.0, 60.0).with_alt(35.0),
        ];
        let mut radio = crate::rssi::RssiRanging::new(5);
        radio.shadowing_db = 0.5;
        let mut errors = Vec::new();
        for s in 1..=150u64 {
            if let Some(fix) = session.step_with_rssi(
                SimTime::from_millis(s * 100),
                &observers,
                &target,
                &mut radio,
            ) {
                if s > 50 {
                    errors.push(fix.position.haversine_distance_m(&target));
                }
            }
        }
        assert!(!errors.is_empty());
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 10.0, "mean CL error with RSSI backup {mean} m");
    }

    #[test]
    #[should_panic(expected = "collaborators")]
    fn empty_session_panics() {
        let _ = CollabSession::new(vec![], anchor());
    }

    #[test]
    #[should_panic(expected = "one observer position per agent")]
    fn mismatched_observers_panic() {
        let mut s = CollabSession::new(agents(), anchor());
        let _ = s.step(SimTime::ZERO, &[anchor()], &anchor());
    }
}
