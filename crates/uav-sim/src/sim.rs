//! The fixed-step simulator.
//!
//! Owns the world, the environment and the fleet; each [`Simulator::step`]
//! advances 100 ms (configurable): autopilot → kinematics (with wind and
//! thrust limits) → battery/thermal → sensors → telemetry, firing any
//! scheduled faults first. Everything downstream (the SESAME platform in
//! `sesame-core`) consumes [`Simulator::telemetry`] and issues
//! [`crate::autopilot::FlightCommand`]s — exactly the interface a DJI SDK
//! + ROS deployment would offer.

use crate::autopilot::{Autopilot, FlightCommand};
use crate::battery::SimBattery;
use crate::camera::SimCamera;
use crate::environment::Environment;
use crate::faults::{FaultKind, FaultSchedule, ScheduledFault};
use crate::gps::SimGps;
use crate::propulsion::SimPropulsion;
use crate::world::World;
use sesame_types::events::{EventLog, SystemEvent};
use sesame_types::geo::{GeoPoint, Vec3};
use sesame_types::ids::UavId;
use sesame_types::telemetry::{FlightMode, GpsFix, UavTelemetry};
use sesame_types::time::{SimClock, SimDuration, SimTime};

/// Static configuration of one airframe.
#[derive(Debug, Clone)]
pub struct UavConfig {
    /// Number of motors (4, 6 or 8).
    pub motor_count: usize,
    /// Motor losses the flight controller tolerates.
    pub tolerated_motor_failures: usize,
    /// Camera field of view, degrees.
    pub camera_fov_deg: f64,
    /// How strongly wind displaces the airframe (0 = ignores wind).
    pub windage: f64,
    /// Battery hover drain, fraction of capacity per second (scenario
    /// calibration knob; the default supports ≈17 min of hover).
    pub hover_drain_per_sec: f64,
}

impl Default for UavConfig {
    fn default() -> Self {
        UavConfig {
            motor_count: 4,
            tolerated_motor_failures: 0,
            camera_fov_deg: 90.0,
            windage: 0.3,
            hover_drain_per_sec: 0.001,
        }
    }
}

/// Handle to a UAV inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UavHandle(usize);

impl UavHandle {
    /// The [`UavId`] of this handle (index + 1, matching `uav1`… naming).
    pub fn id(&self) -> UavId {
        UavId::new(self.0 as u32 + 1)
    }
}

#[derive(Debug)]
struct SimUav {
    config: UavConfig,
    position: GeoPoint,
    velocity: Vec3,
    autopilot: Autopilot,
    battery: SimBattery,
    propulsion: SimPropulsion,
    gps: SimGps,
    last_fix: GpsFix,
    camera: SimCamera,
    crashed: bool,
}

/// The simulator. See the crate docs for a quickstart.
#[derive(Debug)]
pub struct Simulator {
    world: World,
    environment: Environment,
    seed: u64,
    clock: SimClock,
    uavs: Vec<SimUav>,
    faults: FaultSchedule,
    events: EventLog,
}

impl Simulator {
    /// Creates a simulator over `world` with deterministic noise from
    /// `seed` and the default 100 ms tick.
    pub fn new(world: World, seed: u64) -> Self {
        Simulator {
            world,
            environment: Environment::new(seed ^ 0xEE),
            seed,
            clock: SimClock::new(),
            uavs: Vec::new(),
            faults: FaultSchedule::new(),
            events: EventLog::new(),
        }
    }

    /// Adds a UAV parked at the world base; returns its handle.
    pub fn add_uav(&mut self, config: UavConfig) -> UavHandle {
        let idx = self.uavs.len();
        let base = self.world.base();
        let seed = self.seed ^ 0x5E5A_4E00u64 ^ ((idx as u64) << 8);
        let mut gps = SimGps::new(seed);
        let last_fix = gps.measure(&base, 0.0);
        let mut battery = SimBattery::new();
        battery.hover_drain_per_sec = config.hover_drain_per_sec;
        self.uavs.push(SimUav {
            autopilot: Autopilot::new(base),
            position: base,
            velocity: Vec3::zero(),
            battery,
            propulsion: SimPropulsion::new(config.motor_count),
            gps,
            last_fix,
            camera: SimCamera::new(config.camera_fov_deg),
            crashed: false,
            config,
        });
        UavHandle(idx)
    }

    /// Number of UAVs.
    pub fn uav_count(&self) -> usize {
        self.uavs.len()
    }

    /// The world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access (visibility changes etc.).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The environment.
    pub fn environment_mut(&mut self) -> &mut Environment {
        &mut self.environment
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The fault schedule (add entries before or during the run).
    pub fn faults_mut(&mut self) -> &mut FaultSchedule {
        &mut self.faults
    }

    /// Sends a command to a UAV's autopilot.
    ///
    /// # Panics
    ///
    /// Panics on an invalid handle.
    pub fn command(&mut self, uav: UavHandle, cmd: FlightCommand) {
        let u = &mut self.uavs[uav.0];
        if matches!(cmd, FlightCommand::TakeOff { .. })
            && u.autopilot.mode() == FlightMode::Grounded
            && !u.crashed
        {
            self.events
                .push(self.clock.now(), SystemEvent::TakeOff(uav.id()));
        }
        u.autopilot.command(cmd, &u.position);
    }

    /// Convenience: take off to `altitude_m`.
    pub fn command_takeoff(&mut self, uav: UavHandle, altitude_m: f64) {
        self.command(uav, FlightCommand::TakeOff { altitude_m });
    }

    /// Sets (or clears) a direct velocity override on a UAV — the CL
    /// guidance channel (see [`Autopilot::set_velocity_override`]).
    pub fn command_velocity(&mut self, uav: UavHandle, v: Option<Vec3>) {
        self.uavs[uav.0].autopilot.set_velocity_override(v);
    }

    /// The autopilot mode of a UAV.
    pub fn mode(&self, uav: UavHandle) -> FlightMode {
        self.uavs[uav.0].autopilot.mode()
    }

    /// Remaining mission waypoints of a UAV.
    pub fn remaining_waypoints(&self, uav: UavHandle) -> usize {
        self.uavs[uav.0].autopilot.remaining_waypoints()
    }

    /// Whether the UAV has crashed (controllability or energy lost in
    /// flight).
    pub fn is_crashed(&self, uav: UavHandle) -> bool {
        self.uavs[uav.0].crashed
    }

    /// Swaps the battery of a grounded UAV (the baseline's pit stop).
    pub fn swap_battery(&mut self, uav: UavHandle) {
        let u = &mut self.uavs[uav.0];
        if u.autopilot.mode() == FlightMode::Grounded {
            u.battery.swap();
        }
    }

    /// Ground-truth persons visible to a UAV's camera right now.
    pub fn visible_persons(&self, uav: UavHandle) -> Vec<GeoPoint> {
        let mut out = Vec::new();
        self.visible_persons_into(uav, &mut out);
        out
    }

    /// [`Simulator::visible_persons`] into a caller-owned buffer,
    /// replacing its contents (no allocation once the buffer has grown).
    pub fn visible_persons_into(&self, uav: UavHandle, out: &mut Vec<GeoPoint>) {
        let u = &self.uavs[uav.0];
        out.clear();
        out.extend(u.camera.visible(&u.position, self.world.persons()).copied());
    }

    /// Builds the current telemetry snapshot for a UAV. GPS is *not*
    /// re-sampled here — the last measured fix is reported — so calling
    /// this repeatedly is side-effect free.
    pub fn telemetry(&mut self, uav: UavHandle) -> UavTelemetry {
        let now = self.clock.now();
        let u = &mut self.uavs[uav.0];
        let fix = u.last_fix;
        let link_quality = {
            let d = u.position.haversine_distance_m(&self.world.base());
            (1.0 / (1.0 + (d / 1500.0).powi(2))).clamp(0.0, 1.0)
        };
        UavTelemetry {
            uav: uav.id(),
            time: now,
            true_position: u.position,
            velocity: u.velocity,
            battery_soc: u.battery.soc(),
            battery_temp_c: u.battery.temperature_c(),
            motors_ok: u.propulsion.motors_ok().iter().copied().collect(),
            gps: fix,
            vision_health: u.camera.health,
            link_quality,
            mode: u.autopilot.mode(),
        }
    }

    /// [`Simulator::telemetry`] into a caller-owned snapshot, reusing its
    /// `motors_ok` storage — the orchestrator refreshes a fleet-sized
    /// telemetry scratch every tick without per-UAV heap traffic. Field
    /// for field identical to [`Simulator::telemetry`].
    pub fn telemetry_into(&mut self, uav: UavHandle, out: &mut UavTelemetry) {
        let now = self.clock.now();
        let u = &mut self.uavs[uav.0];
        let link_quality = {
            let d = u.position.haversine_distance_m(&self.world.base());
            (1.0 / (1.0 + (d / 1500.0).powi(2))).clamp(0.0, 1.0)
        };
        out.uav = uav.id();
        out.time = now;
        out.true_position = u.position;
        out.velocity = u.velocity;
        out.battery_soc = u.battery.soc();
        out.battery_temp_c = u.battery.temperature_c();
        out.motors_ok.clear();
        out.motors_ok.extend_from_slice(u.propulsion.motors_ok());
        out.gps = u.last_fix;
        out.vision_health = u.camera.health;
        out.link_quality = link_quality;
        out.mode = u.autopilot.mode();
    }

    /// Ground-truth position (for scoring; the platform should use GPS).
    pub fn true_position(&self, uav: UavHandle) -> GeoPoint {
        self.uavs[uav.0].position
    }

    /// Whether a UAV's GPS is currently spoofed (ground truth for
    /// experiments).
    pub fn gps_spoofed(&self, uav: UavHandle) -> bool {
        self.uavs[uav.0].gps.is_spoofed()
    }

    /// Advances the simulation by one tick and returns the new time.
    pub fn step(&mut self) -> SimTime {
        let dt = self.clock.tick_len().as_secs_f64();
        let now = self.clock.tick();

        // Fire due faults.
        for ScheduledFault { uav, kind, .. } in self.faults.due(now) {
            let idx = (uav.index() as usize).saturating_sub(1);
            if idx >= self.uavs.len() {
                continue;
            }
            let u = &mut self.uavs[idx];
            let label = match &kind {
                FaultKind::BatteryOverTemp { soc_drop } => {
                    u.battery.inject_thermal_fault(*soc_drop);
                    "battery_overtemp".to_string()
                }
                FaultKind::MotorFailure { motor } => {
                    if *motor < u.propulsion.motor_count() {
                        u.propulsion.fail_motor(*motor);
                    }
                    format!("motor_failure_{motor}")
                }
                FaultKind::GpsLoss => {
                    u.gps.inject_loss();
                    "gps_loss".to_string()
                }
                FaultKind::GpsSpoof { drift } => {
                    u.gps.inject_spoof(*drift);
                    "gps_spoof".to_string()
                }
                FaultKind::VisionDegraded { health } => {
                    u.camera.degrade(*health);
                    "vision_degraded".to_string()
                }
                FaultKind::GpsRestore => {
                    u.gps.restore();
                    "gps_restore".to_string()
                }
                FaultKind::MotorRestore { motor } => {
                    if *motor < u.propulsion.motor_count() {
                        u.propulsion.restore_motor(*motor);
                    }
                    format!("motor_restore_{motor}")
                }
                FaultKind::VisionRestore => {
                    u.camera.restore();
                    "vision_restore".to_string()
                }
            };
            self.events
                .push(now, SystemEvent::FaultInjected { uav, fault: label });
        }

        // Advance every airframe.
        let ambient = self.environment.ambient_c();
        for (i, u) in self.uavs.iter_mut().enumerate() {
            if u.crashed {
                continue;
            }
            let airborne = u.autopilot.mode().is_airborne();
            // Crash conditions: controllability or energy lost in flight.
            if airborne
                && (!u
                    .propulsion
                    .is_controllable(u.config.tolerated_motor_failures)
                    || u.battery.is_empty())
            {
                u.crashed = true;
                u.position = u.position.with_alt(0.0);
                u.velocity = Vec3::zero();
                self.events.push(
                    now,
                    SystemEvent::Landed(UavId::new(i as u32 + 1), "crashed".into()),
                );
                continue;
            }
            let was_airborne = airborne;
            // The airframe navigates by its GPS fix (the IMU/baro supply
            // the vertical channel), exactly like a real flight stack —
            // which is why a spoofed solution bends the *true* trajectory
            // (Fig. 6). With no fix, the visual-inertial estimate (truth
            // plus negligible drift at these horizons) takes over.
            let fix = u.gps.measure(&u.position, dt);
            u.last_fix = fix;
            let nav_pos = if fix.has_fix {
                fix.position.with_alt(u.position.alt_m)
            } else {
                u.position
            };
            let mut v = u.autopilot.step(&nav_pos);
            // Thrust limitation from lost motors slows everything down.
            let thrust = u.propulsion.thrust_factor();
            v = v * thrust;
            let wind = if was_airborne {
                self.environment.wind_at(now.as_secs_f64()) * u.config.windage
            } else {
                Vec3::zero()
            };
            let total = v + wind;
            let step_enu = total * dt;
            u.position = GeoPoint::from_enu(&u.position, step_enu.into());
            if u.position.alt_m < 0.0 {
                u.position = u.position.with_alt(0.0);
            }
            u.velocity = total;
            // Battery load: hover + motion + climb.
            let load = if u.autopilot.mode().is_airborne() {
                1.0 + 0.3 * (total.norm() / 8.0) + 0.5 * (total.z.max(0.0) / 3.0)
            } else {
                0.0
            };
            u.battery.step(dt, load, ambient);
            if was_airborne && u.autopilot.mode() == FlightMode::Grounded {
                self.events.push(
                    now,
                    SystemEvent::Landed(UavId::new(i as u32 + 1), "landed".into()),
                );
            }
        }
        now
    }

    /// Runs until `deadline` (inclusive).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.clock.now() < deadline {
            self.step();
        }
    }

    /// The tick length.
    pub fn tick(&self) -> SimDuration {
        self.clock.tick_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with_one() -> (Simulator, UavHandle) {
        let world = World::rectangle(GeoPoint::new(35.0, 33.0, 0.0), 400.0, 300.0, 4);
        let mut sim = Simulator::new(world, 1);
        let h = sim.add_uav(UavConfig::default());
        (sim, h)
    }

    #[test]
    fn takeoff_and_mission_flight() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(20));
        let t = sim.telemetry(h);
        assert!((t.true_position.alt_m - 30.0).abs() < 3.0);
        assert_eq!(t.mode, FlightMode::Mission);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e.event, SystemEvent::TakeOff(_))));
    }

    #[test]
    fn battery_fault_fires_on_schedule() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.faults_mut().add(
            SimTime::from_secs(10),
            h.id(),
            FaultKind::BatteryOverTemp { soc_drop: 0.4 },
        );
        sim.run_until(SimTime::from_secs(9));
        assert!(sim.telemetry(h).battery_soc > 0.55);
        sim.run_until(SimTime::from_secs(11));
        let t = sim.telemetry(h);
        assert!(t.battery_soc < 0.6, "soc = {}", t.battery_soc);
        assert!(t.battery_temp_c >= 45.0);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(&e.event, SystemEvent::FaultInjected { fault, .. } if fault == "battery_overtemp")));
    }

    #[test]
    fn quad_crashes_on_motor_loss() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(15));
        sim.faults_mut().add(
            SimTime::from_secs(16),
            h.id(),
            FaultKind::MotorFailure { motor: 1 },
        );
        sim.run_until(SimTime::from_secs(17));
        assert!(sim.is_crashed(h));
        assert_eq!(sim.true_position(h).alt_m, 0.0);
    }

    #[test]
    fn hexa_survives_one_motor_loss() {
        let world = World::rectangle(GeoPoint::new(35.0, 33.0, 0.0), 400.0, 300.0, 0);
        let mut sim = Simulator::new(world, 1);
        let h = sim.add_uav(UavConfig {
            motor_count: 6,
            tolerated_motor_failures: 1,
            ..UavConfig::default()
        });
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(15));
        sim.faults_mut().add(
            SimTime::from_secs(16),
            h.id(),
            FaultKind::MotorFailure { motor: 1 },
        );
        sim.run_until(SimTime::from_secs(20));
        assert!(!sim.is_crashed(h));
        assert_eq!(sim.telemetry(h).failed_motors(), 1);
    }

    #[test]
    fn motor_restore_recovers_thrust_before_crash() {
        // A hexa tolerating one loss: fail a motor, restore it, fail a
        // second — at no point do two failures overlap, so it never
        // crashes and ends with one failed motor.
        let world = World::rectangle(GeoPoint::new(35.0, 33.0, 0.0), 400.0, 300.0, 0);
        let mut sim = Simulator::new(world, 1);
        let h = sim.add_uav(UavConfig {
            motor_count: 6,
            tolerated_motor_failures: 1,
            ..UavConfig::default()
        });
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(15));
        sim.faults_mut().add(
            SimTime::from_secs(16),
            h.id(),
            FaultKind::MotorFailure { motor: 0 },
        );
        sim.faults_mut().add(
            SimTime::from_secs(18),
            h.id(),
            FaultKind::MotorRestore { motor: 0 },
        );
        sim.faults_mut().add(
            SimTime::from_secs(20),
            h.id(),
            FaultKind::MotorFailure { motor: 3 },
        );
        sim.run_until(SimTime::from_secs(25));
        assert!(!sim.is_crashed(h));
        assert_eq!(sim.telemetry(h).failed_motors(), 1);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(&e.event, SystemEvent::FaultInjected { fault, .. } if fault == "motor_restore_0")));
    }

    #[test]
    fn vision_restore_recovers_camera_health() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.faults_mut().add(
            SimTime::from_secs(5),
            h.id(),
            FaultKind::VisionDegraded { health: 0.2 },
        );
        sim.run_until(SimTime::from_secs(6));
        assert!((sim.telemetry(h).vision_health - 0.2).abs() < 1e-9);
        sim.faults_mut()
            .add(SimTime::from_secs(7), h.id(), FaultKind::VisionRestore);
        // Restore-after-restore is idempotent at the component level.
        sim.faults_mut()
            .add(SimTime::from_secs(8), h.id(), FaultKind::VisionRestore);
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.telemetry(h).vision_health, 1.0);
    }

    #[test]
    fn flapping_gps_toggles_fix_availability() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.faults_mut().add_flapping(
            SimTime::from_secs(10),
            h.id(),
            FaultKind::GpsLoss,
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            2,
        );
        sim.run_until(SimTime::from_secs(11));
        assert!(!sim.telemetry(h).gps.has_fix, "first outage window");
        sim.run_until(SimTime::from_secs(14));
        assert!(sim.telemetry(h).gps.has_fix, "restored between flaps");
        sim.run_until(SimTime::from_secs(16));
        assert!(!sim.telemetry(h).gps.has_fix, "second outage window");
        sim.run_until(SimTime::from_secs(20));
        assert!(sim.telemetry(h).gps.has_fix, "restored after the last flap");
    }

    #[test]
    fn gps_spoof_diverges_fix_from_truth() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.faults_mut().add(
            SimTime::from_secs(10),
            h.id(),
            FaultKind::GpsSpoof {
                drift: Vec3::new(0.0, 4.0, 0.0),
            },
        );
        sim.run_until(SimTime::from_secs(30));
        let t = sim.telemetry(h);
        let err = t.gps.position.haversine_distance_m(&t.true_position);
        assert!(err > 50.0, "spoof offset = {err}");
        assert!(sim.gps_spoofed(h));
    }

    #[test]
    fn mission_waypoints_are_flown() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(15));
        let base = sim.world().base();
        let wp = base.destination(90.0, 80.0).with_alt(30.0);
        sim.command(h, FlightCommand::SetMission(vec![wp]));
        sim.run_until(SimTime::from_secs(45));
        assert!(sim.true_position(h).haversine_distance_m(&wp) < 10.0);
        assert_eq!(sim.remaining_waypoints(h), 0);
    }

    #[test]
    fn wind_displaces_the_track() {
        let (mut sim, h) = sim_with_one();
        sim.environment_mut().set_wind(6.0, 270.0); // blows east
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(25));
        let enu = sim.true_position(h).to_enu(&sim.world().base());
        assert!(enu.east_m > 5.0, "east drift = {}", enu.east_m);
    }

    #[test]
    fn crashed_uav_stops_everything() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(15));
        sim.faults_mut().add(
            SimTime::from_secs(16),
            h.id(),
            FaultKind::MotorFailure { motor: 0 },
        );
        sim.run_until(SimTime::from_secs(17));
        let pos = sim.true_position(h);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.true_position(h), pos, "crashed airframe stays put");
    }

    #[test]
    fn telemetry_is_side_effect_free() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(5));
        let a = sim.telemetry(h).battery_soc;
        let b = sim.telemetry(h).battery_soc;
        assert_eq!(a, b);
    }

    #[test]
    fn battery_swap_only_on_ground() {
        let (mut sim, h) = sim_with_one();
        sim.command_takeoff(h, 30.0);
        sim.run_until(SimTime::from_secs(60));
        let flown = sim.telemetry(h).battery_soc;
        assert!(flown < 1.0);
        sim.swap_battery(h); // airborne: ignored
        assert_eq!(sim.telemetry(h).battery_soc, flown);
        sim.command(h, FlightCommand::EmergencyLand);
        sim.run_until(SimTime::from_secs(90));
        assert_eq!(sim.mode(h), FlightMode::Grounded);
        sim.swap_battery(h);
        assert_eq!(sim.telemetry(h).battery_soc, 1.0);
    }
}
