// Index-based loops are used throughout the tick: they read `telemetries`
// while mutating disjoint `self` fields, which iterator adaptors cannot
// express without splitting borrows.
#![allow(clippy::needless_range_loop)]

//! The platform orchestrator: simulate → sense → publish → monitor →
//! certify → decide → actuate.
//!
//! [`Platform`] wires the simulated fleet to the bus, the IDS/broker
//! pipeline, the per-UAV EDDI runtimes, the ConSert networks and the
//! task manager, and closes the loop every 100 ms tick. With
//! `sesame_enabled = false` it degrades to the paper's baseline: no
//! monitors, no certificates, no IDS — faults are handled by the naive
//! "abort on first symptom" policy of §V-A and attacks are not handled at
//! all.

use crate::airspace::{chord_teammates, nearest_teammate, SeparationTable, Teammates};
use crate::containment::{ComputeFaultPlane, FaultPhase, UavFault};
use crate::eddi::{EddiCacheStats, EddiOutputs, UavEddiRuntime};
use crate::fleet::{shard_ranges, FleetSpec, ResolvedUavProfile};
use crate::platform::database::DatabaseManager;
use crate::platform::gcs::{GroundControlStation, StatusSnapshot, UavStatusLine};
use crate::platform::task_manager::TaskManager;
use crate::platform::uav_manager::UavManager;
use crate::reference::ReferenceEddiRuntime;
use crate::shard::panic_message;
use crate::supervision::{
    Action, Cause, HealthState, Observation, Supervisor, HEARTBEAT_PERIOD, MAX_COMMAND_RETRIES,
    RETRY_BACKOFF,
};
use sesame_collab_loc::agent::CollaborativeAgent;
use sesame_collab_loc::session::{CollabSession, LandingGuidance};
use sesame_conserts::catalog::{
    certified_navigation_accuracy_m, decide_mission, evaluate_uav, uav_consert_network,
    MissionDecision, UavAction, UavEvidence,
};
use sesame_conserts::engine::ConsertNetwork;
use sesame_conserts::incremental::{ConsertDecision, IncrementalConsertNetwork};
use sesame_middleware::auth::{AuthKey, MessageAuth};
use sesame_middleware::broker::AlertBroker;
use sesame_middleware::bus::{MessageBus, Subscription};
use sesame_middleware::chaos::CommFaultPlane;
use sesame_middleware::message::{Message, Payload};
use sesame_obs::span::phase;
use sesame_obs::{MetricsRegistry, MetricsSnapshot, TickSpan, TraceEvent, TraceLog};
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_safedrones::monitor::SafeDronesMonitor;
use sesame_sar::accuracy::{AltitudeDecision, AltitudePolicy};
use sesame_security::catalog as attack_catalog;
use sesame_security::eddi::SecurityEddi;
use sesame_security::ids::{Ids, IdsConfig};
use sesame_sinadra::risk::SeparationRiskModel;
use sesame_types::events::{EventLog, Severity, SystemEvent};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::{FlightMode, UavTelemetry};
use sesame_types::time::{SimDuration, SimTime};
use sesame_uav_sim::autopilot::FlightCommand;
use sesame_uav_sim::geofence::{FenceStatus, Geofence, GeofenceMonitor};
use sesame_uav_sim::sim::{Simulator, UavConfig, UavHandle};
use sesame_uav_sim::world::World;
use sesame_vision::detector::{Detection, PersonDetector};
use sesame_vision::features::SceneCondition;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Whether the SESAME technologies run (monitors, ConSerts, IDS,
    /// signing, CL). `false` = the paper's baseline.
    pub sesame_enabled: bool,
    /// Fleet composition and shard policy (the paper demonstrates three
    /// uniform UAVs; the platform scales to hundreds — see
    /// [`crate::fleet`]).
    pub fleet: FleetSpec,
    /// Initial scan altitude, metres.
    pub scan_altitude_m: f64,
    /// Whether the §V-B altitude-adaptation policy is active.
    pub altitude_adaptation: bool,
    /// SafeDrones configuration.
    pub safedrones: SafeDronesConfig,
    /// Search-area extent east, metres.
    pub area_width_m: f64,
    /// Search-area extent north, metres.
    pub area_height_m: f64,
    /// Ground-truth persons in the area.
    pub person_count: usize,
    /// Master seed.
    pub seed: u64,
    /// Baseline battery-swap duration at base (§V-A: 60 s).
    pub battery_swap: SimDuration,
    /// Battery hover drain per second (scenario calibration knob).
    pub battery_hover_drain: f64,
    /// World visibility in [0, 1] (1 = clear day).
    pub visibility: f64,
    /// Motors per airframe (4, 6 or 8).
    pub motor_count: usize,
    /// Motor losses each airframe tolerates through reconfiguration.
    pub tolerated_motor_failures: usize,
    /// Whether the incremental EDDI fast path runs (solver profile cache,
    /// rank-indexed SafeML, SINADRA factor cache, attack-tree indexing,
    /// fingerprint-gated ConSerts). `false` selects the naive reference
    /// runtimes — bit-identical results, recomputed from scratch each
    /// tick. On by default; the conformance suite flips it off.
    pub eddi_fast_path: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            sesame_enabled: true,
            fleet: FleetSpec::default(),
            scan_altitude_m: 30.0,
            altitude_adaptation: false,
            safedrones: SafeDronesConfig::default(),
            area_width_m: 400.0,
            area_height_m: 250.0,
            person_count: 6,
            seed: 42,
            battery_swap: SimDuration::from_secs(60),
            battery_hover_drain: 0.001,
            visibility: 1.0,
            motor_count: 4,
            tolerated_motor_failures: 0,
            eddi_fast_path: true,
        }
    }
}

impl PlatformConfig {
    /// Starts a fluent, validated builder seeded with the defaults.
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder {
            config: PlatformConfig::default(),
        }
    }

    /// The platform-wide per-UAV defaults a [`crate::fleet::UavProfile`]
    /// inherits where it leaves fields unset.
    pub fn fleet_defaults(&self) -> ResolvedUavProfile {
        ResolvedUavProfile {
            motor_count: self.motor_count,
            tolerated_motor_failures: self.tolerated_motor_failures,
            battery_hover_drain: self.battery_hover_drain,
        }
    }

    /// Checks the configuration describes a buildable platform — the
    /// same rules [`PlatformConfigBuilder::build`] enforces, callable on
    /// a hand- or compiler-assembled config (the scenario DSL validates
    /// every compiled scenario through here before it ever reaches
    /// [`Platform::new`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fleet.total() == 0 {
            return Err(ConfigError::NoUavs);
        }
        if self.scan_altitude_m <= 0.0 || !self.scan_altitude_m.is_finite() {
            return Err(ConfigError::NonPositiveAltitude);
        }
        if self.area_width_m <= 0.0
            || self.area_height_m <= 0.0
            || !self.area_width_m.is_finite()
            || !self.area_height_m.is_finite()
        {
            return Err(ConfigError::EmptyArea);
        }
        if !(0.0..=1.0).contains(&self.visibility) {
            return Err(ConfigError::VisibilityOutOfRange);
        }
        if ![4, 6, 8].contains(&self.motor_count) {
            return Err(ConfigError::UnsupportedMotorCount);
        }
        if self.tolerated_motor_failures >= self.motor_count {
            return Err(ConfigError::TooManyToleratedFailures);
        }
        // Per-group profiles, resolved against the platform defaults
        // validated above, must describe buildable airframes too.
        for group in self.fleet.groups() {
            let p = group.profile.resolve(&self.fleet_defaults());
            if ![4, 6, 8].contains(&p.motor_count) {
                return Err(ConfigError::UnsupportedMotorCount);
            }
            if p.tolerated_motor_failures >= p.motor_count {
                return Err(ConfigError::TooManyToleratedFailures);
            }
        }
        Ok(())
    }
}

/// A [`PlatformConfig`] that failed validation in
/// [`PlatformConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The fleet spec resolved to zero UAVs — the platform needs a fleet.
    NoUavs,
    /// `scan_altitude_m` was not strictly positive.
    NonPositiveAltitude,
    /// The search area had a non-positive width or height.
    EmptyArea,
    /// `visibility` fell outside `[0, 1]`.
    VisibilityOutOfRange,
    /// `motor_count` was not one of the supported airframes (4, 6, 8).
    UnsupportedMotorCount,
    /// `tolerated_motor_failures` was not below `motor_count`.
    TooManyToleratedFailures,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoUavs => write!(f, "the fleet must contain at least 1 UAV"),
            ConfigError::NonPositiveAltitude => {
                write!(f, "scan_altitude_m must be strictly positive")
            }
            ConfigError::EmptyArea => {
                write!(
                    f,
                    "area_width_m and area_height_m must be strictly positive"
                )
            }
            ConfigError::VisibilityOutOfRange => {
                write!(f, "visibility must lie in [0, 1]")
            }
            ConfigError::UnsupportedMotorCount => {
                write!(f, "motor_count must be 4, 6 or 8")
            }
            ConfigError::TooManyToleratedFailures => {
                write!(f, "tolerated_motor_failures must be below motor_count")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`PlatformConfig`]. Each setter overrides one
/// default; [`PlatformConfigBuilder::build`] validates the combination.
///
/// # Examples
///
/// ```
/// use sesame_core::fleet::FleetSpec;
/// use sesame_core::orchestrator::PlatformConfig;
///
/// let cfg = PlatformConfig::builder()
///     .fleet(FleetSpec::uniform(3))
///     .scan_altitude_m(25.0)
///     .seed(7)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.fleet.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    config: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// Enables or disables the SESAME stack (monitors, ConSerts, IDS).
    pub fn sesame_enabled(mut self, on: bool) -> Self {
        self.config.sesame_enabled = on;
        self
    }

    /// Sets the fleet composition and shard policy.
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.config.fleet = spec;
        self
    }

    /// Sets the initial scan altitude in metres.
    pub fn scan_altitude_m(mut self, alt: f64) -> Self {
        self.config.scan_altitude_m = alt;
        self
    }

    /// Enables the §V-B altitude-adaptation policy.
    pub fn altitude_adaptation(mut self, on: bool) -> Self {
        self.config.altitude_adaptation = on;
        self
    }

    /// Sets the SafeDrones configuration.
    pub fn safedrones(mut self, cfg: SafeDronesConfig) -> Self {
        self.config.safedrones = cfg;
        self
    }

    /// Sets the search-area extent (east × north, metres).
    pub fn area_m(mut self, width: f64, height: f64) -> Self {
        self.config.area_width_m = width;
        self.config.area_height_m = height;
        self
    }

    /// Sets the number of ground-truth persons in the area.
    pub fn person_count(mut self, n: usize) -> Self {
        self.config.person_count = n;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the baseline battery-swap duration.
    pub fn battery_swap(mut self, d: SimDuration) -> Self {
        self.config.battery_swap = d;
        self
    }

    /// Sets the battery hover drain per second.
    pub fn battery_hover_drain(mut self, drain: f64) -> Self {
        self.config.battery_hover_drain = drain;
        self
    }

    /// Sets the world visibility in `[0, 1]`.
    pub fn visibility(mut self, v: f64) -> Self {
        self.config.visibility = v;
        self
    }

    /// Sets motors per airframe and how many losses are tolerated.
    pub fn motors(mut self, count: usize, tolerated_failures: usize) -> Self {
        self.config.motor_count = count;
        self.config.tolerated_motor_failures = tolerated_failures;
        self
    }

    /// Enables or disables the incremental EDDI fast path (on by
    /// default). Disabling selects the naive reference runtimes.
    pub fn eddi_fast_path(mut self, on: bool) -> Self {
        self.config.eddi_fast_path = on;
        self
    }

    /// Validates the assembled configuration.
    pub fn build(self) -> Result<PlatformConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The outcome of a CL-guided safe landing (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClLandingOutcome {
    /// Which UAV was landed.
    pub uav: UavId,
    /// Distance between the pad and the true touchdown, metres.
    pub miss_m: f64,
    /// When touchdown happened.
    pub at: SimTime,
}

/// The per-UAV Safety EDDI engine: the incremental fast path (default)
/// or the naive reference runtime, selected by
/// [`PlatformConfig::eddi_fast_path`]. Both produce bit-identical
/// outputs; the reference variant recomputes everything each tick.
enum EddiEngine {
    Fast(UavEddiRuntime),
    Reference(ReferenceEddiRuntime),
}

impl EddiEngine {
    fn set_remaining_mission(&mut self, remaining: SimDuration) {
        match self {
            EddiEngine::Fast(rt) => rt.set_remaining_mission(remaining),
            EddiEngine::Reference(rt) => rt.set_remaining_mission(remaining),
        }
    }

    fn tick(&mut self, telemetry: &UavTelemetry, scene: &SceneCondition) -> EddiOutputs {
        match self {
            EddiEngine::Fast(rt) => rt.tick(telemetry, scene),
            EddiEngine::Reference(rt) => rt.tick(telemetry, scene),
        }
    }

    fn last_outputs(&self) -> Option<&EddiOutputs> {
        match self {
            EddiEngine::Fast(rt) => rt.last_outputs(),
            EddiEngine::Reference(rt) => rt.last_outputs(),
        }
    }

    fn evidence(
        &self,
        telemetry: &UavTelemetry,
        attack_detected: bool,
        neighbors_available: bool,
    ) -> UavEvidence {
        match self {
            EddiEngine::Fast(rt) => rt.evidence(telemetry, attack_detected, neighbors_available),
            EddiEngine::Reference(rt) => {
                rt.evidence(telemetry, attack_detected, neighbors_available)
            }
        }
    }

    fn safedrones(&self) -> &SafeDronesMonitor {
        match self {
            EddiEngine::Fast(rt) => rt.safedrones(),
            EddiEngine::Reference(rt) => rt.safedrones(),
        }
    }

    fn cache_stats(&self) -> EddiCacheStats {
        match self {
            EddiEngine::Fast(rt) => rt.cache_stats(),
            EddiEngine::Reference(_) => EddiCacheStats::default(),
        }
    }
}

/// The per-UAV ConSert evaluator: fingerprint-gated single evaluation on
/// the fast path, the naive two-evaluation catalog calls on the
/// reference path.
enum ConsertRuntime {
    Fast(IncrementalConsertNetwork),
    Reference(ConsertNetwork),
}

impl ConsertRuntime {
    /// One tick's decision: the UAV action plus the certified navigation
    /// accuracy bound.
    fn decide(&mut self, uav: &str, evidence: &UavEvidence) -> ConsertDecision {
        match self {
            ConsertRuntime::Fast(inc) => inc.decide(evidence),
            ConsertRuntime::Reference(net) => ConsertDecision {
                action: evaluate_uav(net, uav, evidence),
                nav_accuracy_m: certified_navigation_accuracy_m(net, uav, evidence),
            },
        }
    }

    fn cache_stats(&self) -> EddiCacheStats {
        match self {
            ConsertRuntime::Fast(inc) => {
                let s = inc.stats();
                EddiCacheStats {
                    hits: s.hits,
                    misses: s.misses,
                }
            }
            ConsertRuntime::Reference(_) => EddiCacheStats::default(),
        }
    }
}

struct UavRt {
    handle: UavHandle,
    eddi: Option<EddiEngine>,
    conserts: Option<ConsertRuntime>,
    detector: PersonDetector,
    route_uploaded: bool,
    attack_detected: bool,
    spoof_alerted: bool,
    cl_landing: bool,
    /// Baseline state machine: time at which the swap completes.
    swap_until: Option<SimTime>,
    baseline_resumed: bool,
    last_nav_accuracy: Option<f64>,
    productive_ticks: u64,
    detection_attempts: u64,
    detection_hits: u64,
    false_positives: u64,
    /// The revival probe's fresh engine, built on the first probe after
    /// each backoff and promoted to `eddi` on release. The faulted
    /// engine in `eddi` is never ticked again — its internal state is
    /// suspect after an unwind.
    probe_eddi: Option<EddiEngine>,
    /// Outputs of the last clean (finite, non-panicking) EDDI tick.
    last_good_outputs: Option<EddiOutputs>,
    /// The last-known-good outputs frozen at quarantine entry; GCS
    /// snapshots report this instead of the poisoned engine's state.
    frozen_outputs: Option<EddiOutputs>,
}

struct ClState {
    affected: usize,
    session: CollabSession,
    guidance: Option<LandingGuidance>,
    collaborators: Vec<usize>,
}

/// An unacknowledged GCS command awaiting its retry deadline. Keyed in
/// the pending map by `(topic, seq)`; a retry re-publishes the payload
/// under a *fresh* sequence number (re-using the old one would trip the
/// IDS replay detector) and re-inserts under the new key.
struct PendingCommand {
    payload: Payload,
    attempts: u32,
    next_retry_at: SimTime,
}

/// One sampled point of a PoF or trajectory series.
pub type Sample<T> = (f64, T);

/// Read-only view over the time series and milestones a [`Platform`]
/// records during a run. Obtained from [`Platform::series`]; borrows
/// the platform, so take what you need and drop it before stepping.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    platform: &'a Platform,
}

impl SeriesView<'_> {
    /// PoF samples of UAV 1 (one per second).
    pub fn pof(&self) -> &[Sample<f64>] {
        &self.platform.pof_series
    }

    /// Combined-uncertainty samples of UAV 1 (one per second).
    pub fn uncertainty(&self) -> &[Sample<f64>] {
        &self.platform.uncertainty_series
    }

    /// True-position samples of one UAV (one per second).
    ///
    /// # Panics
    /// Panics if `uav_index` is out of range (see [`Self::uav_count`]).
    pub fn trajectory(&self, uav_index: usize) -> &[Sample<GeoPoint>] {
        &self.platform.trajectories[uav_index]
    }

    /// Number of UAVs with a trajectory series.
    pub fn uav_count(&self) -> usize {
        self.platform.trajectories.len()
    }

    /// When the Security EDDI first reached an attack-tree root.
    pub fn attack_detected_at(&self) -> Option<SimTime> {
        self.platform.attack_detected_at
    }

    /// The CL landing outcome, when one happened.
    pub fn cl_outcome(&self) -> Option<ClLandingOutcome> {
        self.platform.cl_outcome
    }
}

/// Reusable per-tick working storage. Every container here is cleared
/// and refilled each tick, so after the first (warm-up) tick the
/// steady-state pipeline runs without heap traffic from these
/// collections. See DESIGN.md § "Hot-loop memory discipline" for the
/// lifetime rules (lease at phase entry, return before the tick ends;
/// nothing in here carries semantic state across ticks).
///
/// The struct is `mem::take`n at the top of the tick passes and restored
/// at their ends, which sidesteps borrow conflicts between the scratch
/// buffers and the rest of the platform. A panic mid-tick loses the
/// warm buffers (the next tick starts from `Default`) but never loses
/// state — that is the point of keeping scratch and state separate.
#[derive(Debug, Default)]
struct TickScratch {
    /// This tick's fleet telemetry snapshot.
    telemetries: Vec<UavTelemetry>,
    /// Detection events buffered by the pre-pass until the merge, in
    /// fleet order (each UAV's count is in its [`UavSlot`]).
    det_events: Vec<SystemEvent>,
    /// Per-UAV results of the shard fan-outs (see [`UavSlot`]).
    slots: Vec<UavSlot>,
    /// Airspace pass: this tick's sorted teammate index.
    teammates: Teammates,
    /// ConSert pass: this tick's per-UAV actions.
    actions: Vec<UavAction>,
    /// Bus pass: this tick's IDS-tap batch, then each UAV's command
    /// batch in turn.
    tapped: Vec<Arc<Message>>,
    cmds: Vec<Arc<Message>>,
    /// Pre-pass: persons in the current UAV's camera footprint and the
    /// detector's output on them.
    persons: Vec<GeoPoint>,
    detections: Vec<Detection>,
    /// Supervision: this tick's per-UAV containment observations and
    /// the kernel's actions.
    observations: Vec<Observation>,
    supervision: Vec<Action>,
}

/// One UAV's results from this tick's shard fan-outs: written by the
/// shard that owns the UAV, taken by the serial merge that follows.
#[derive(Debug, Default)]
struct UavSlot {
    /// Detection events the UAV's pre-pass buffered this tick.
    detections: usize,
    /// Whether the pre-pass admitted the UAV to this tick's EDDI fan-out.
    admitted: bool,
    /// EDDI fan-out: the tick's outputs, or the message of the panic it
    /// raised.
    eddi: Option<Result<EddiOutputs, String>>,
    /// Airspace fan-out: range to the nearest airborne teammate and
    /// whether the two are closing.
    proximity: Option<(f64, bool)>,
    /// ConSert fan-out: the decided action, `None` when no decision ran.
    action: Option<UavAction>,
}

/// Runs `f(i, uav, slot)` once for every fleet index `i` over the shard
/// plan. A one-shard plan calls `f` in fleet order on the caller's thread
/// and allocates nothing; a multi-shard plan hands each disjoint window
/// of the fleet to the shard pool. `f` reaches only its own UAV and slot
/// (plus shared read-only inputs), so every plan fills the same slots.
fn fan_out<F>(shards: &[Range<usize>], uavs: &mut [UavRt], slots: &mut [UavSlot], f: F)
where
    F: Fn(usize, &mut UavRt, &mut UavSlot) + Sync,
{
    let run = |start: usize, uavs: &mut [UavRt], slots: &mut [UavSlot]| {
        for (k, (rt, slot)) in uavs.iter_mut().zip(slots).enumerate() {
            f(start + k, rt, slot);
        }
    };
    if shards.len() <= 1 {
        run(0, uavs, slots);
        return;
    }
    let (mut uavs, mut slots) = (uavs, slots);
    let mut windows = Vec::with_capacity(shards.len());
    for r in shards {
        let (u, u_rest) = std::mem::take(&mut uavs).split_at_mut(r.len());
        let (s, s_rest) = std::mem::take(&mut slots).split_at_mut(r.len());
        windows.push((r.start, u, s));
        (uavs, slots) = (u_rest, s_rest);
    }
    crate::shard::run_tasks(shards.len(), windows, |_, (start, u, s)| run(*start, u, s));
}

/// The platform. Construct with [`Platform::new`], drive with
/// [`Platform::step`] or [`Platform::run_until_complete`].
pub struct Platform {
    config: PlatformConfig,
    sim: Simulator,
    bus: MessageBus,
    broker: AlertBroker,
    auth: Option<MessageAuth>,
    ids: Option<Ids>,
    ids_tap: Subscription,
    cmd_subs: Vec<Subscription>,
    security_eddis: Vec<SecurityEddi>,
    uavs: Vec<UavRt>,
    tasks: TaskManager,
    manager: UavManager,
    db: DatabaseManager,
    gcs: GroundControlStation,
    events: EventLog,
    seq: HashMap<Arc<str>, u64>,
    altitude_policy: AltitudePolicy,
    cl: Option<ClState>,
    cl_outcome: Option<ClLandingOutcome>,
    mission_complete_at: Option<SimTime>,
    total_ticks: u64,
    ticks_at_completion: Option<u64>,
    productive_at_completion: Vec<u64>,
    pof_series: Vec<Sample<f64>>,
    uncertainty_series: Vec<Sample<f64>>,
    trajectories: Vec<Vec<Sample<GeoPoint>>>,
    attack_detected_at: Option<SimTime>,
    current_scan_alt: f64,
    geofences: Vec<GeofenceMonitor>,
    /// The separation-risk network, solved once per geometry class.
    separation_table: SeparationTable,
    separation_hot: Vec<bool>,
    metrics: MetricsRegistry,
    trace: TraceLog,
    /// Every UAV's health, quarantine and watchdog state, and the
    /// demotion deadline (see [`crate::supervision`]).
    supervisor: Supervisor,
    comm_faults: CommFaultPlane,
    compute_faults: ComputeFaultPlane,
    /// Faults isolated during this tick's UAV pass, drained (in fleet
    /// order) by the containment step after supervision.
    pending_faults: Vec<UavFault>,
    /// The mission-level decision of the last ConSert pass (`None` on
    /// the baseline, which has no decider).
    mission_decision: Option<MissionDecision>,
    // BTreeMap, not HashMap: retries are re-published in iteration order,
    // and bus/RNG state must not depend on hash randomization.
    pending_cmds: BTreeMap<(Arc<str>, u64), PendingCommand>,
    next_heartbeat_at: SimTime,
    /// Contiguous fleet partition the tick's fan-outs run over; a single
    /// range runs them on the caller's thread. Resolved once in
    /// [`Platform::new`] from the fleet's shard policy.
    shards: Vec<Range<usize>>,
    /// The shard plan as resolved at construction — what `shards` is
    /// restored to when a watchdog demotion cools down.
    base_shards: Vec<Range<usize>>,
    /// Reusable per-tick working storage (see [`TickScratch`]).
    scratch: TickScratch,
    /// Cached metric keys, indexed by UAV: `eddi.evals.uav{i}`. The
    /// fleet size is fixed at construction, so formatting these once
    /// keeps the hot tick free of `format!` allocations.
    eddi_eval_keys: Vec<String>,
    /// Publish names, built once because the fleet is fixed: a publish
    /// shares them (an `Arc` clone) instead of formatting. Indexed by
    /// UAV: the sender `node:{id}`, the topics `/{id}/telemetry` and
    /// `/{id}/cmd/heartbeat`; plus the ground station's `node:gcs`.
    node_senders: Vec<Arc<str>>,
    telemetry_topics: Vec<Arc<str>>,
    heartbeat_topics: Vec<Arc<str>>,
    gcs_sender: Arc<str>,
    /// Cached metric keys, indexed by UAV: `supervision.state.uav{i}`.
    supervision_state_keys: Vec<String>,
    /// Cached `UavId` display names, indexed by UAV (the reference
    /// ConSert catalog selects networks by name every tick).
    uav_names: Vec<String>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("sesame", &self.config.sesame_enabled)
            .field("uavs", &self.uavs.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Platform {
    /// Builds a platform: world, fleet, mission plan, bus wiring, and —
    /// when SESAME is on — the EDDI runtimes, ConSert networks, IDS and
    /// Security EDDI scripts.
    pub fn new(config: PlatformConfig) -> Self {
        let origin = Self::origin();
        let world = World::rectangle(
            origin,
            config.area_width_m,
            config.area_height_m,
            config.person_count,
        );
        let mut sim = Simulator::new(world, config.seed);
        sim.world_mut().set_visibility(config.visibility);
        let mut manager = UavManager::new();
        let n = config.fleet.total();
        let profiles = config.fleet.resolved(&config.fleet_defaults());
        let mut uavs = Vec::with_capacity(n);
        let mut cmd_subs = Vec::with_capacity(n);

        let mut bus = MessageBus::seeded(config.seed ^ 0xB05);
        let ids_tap = bus.subscribe("#");
        let auth = config
            .sesame_enabled
            .then(|| MessageAuth::new(AuthKey::new(0x5E5A_4E5E_C0DEu64 ^ config.seed)));
        let mut broker = AlertBroker::new();
        let mut ids = config
            .sesame_enabled
            .then(|| Ids::new(IdsConfig::default(), auth));
        let security_eddis = if config.sesame_enabled {
            attack_catalog::all_trees()
                .into_iter()
                .map(|t| {
                    let mut eddi = SecurityEddi::attach(t, &mut broker);
                    if config.eddi_fast_path {
                        eddi.enable_fast_path();
                    }
                    eddi
                })
                .collect()
        } else {
            Vec::new()
        };

        // Every engine depends only on its own seed and lands by index, so
        // the build fans out across the cores with no effect on the
        // platform. A small fleet builds on this thread, and inside a job
        // body the fan-out runs inline.
        let mut engines = if config.sesame_enabled {
            let jobs = if n < crate::fleet::MIN_PARALLEL_FLEET {
                1
            } else {
                std::thread::available_parallelism().map_or(1, |c| c.get())
            };
            crate::shard::run_indexed(jobs, n, |i| Self::eddi_engine(&config, i))
        } else {
            Vec::new()
        }
        .into_iter();
        for i in 0..n {
            let handle = sim.add_uav(UavConfig {
                hover_drain_per_sec: profiles[i].battery_hover_drain,
                motor_count: profiles[i].motor_count,
                tolerated_motor_failures: profiles[i].tolerated_motor_failures,
                ..UavConfig::default()
            });
            let id = handle.id();
            manager.register(id, handle, "matrice300-sim", &["rgb-camera", "jetson-nx"]);
            cmd_subs.push(bus.subscribe(format!("/{id}/cmd/#")));
            let conserts = config
                .sesame_enabled
                .then(|| Self::consert_runtime(&config, id));
            uavs.push(UavRt {
                handle,
                eddi: engines.next(),
                conserts,
                detector: PersonDetector::new(config.seed ^ ((i as u64 + 1) << 24)),
                route_uploaded: false,
                attack_detected: false,
                spoof_alerted: false,
                cl_landing: false,
                swap_until: None,
                baseline_resumed: false,
                last_nav_accuracy: None,
                productive_ticks: 0,
                detection_attempts: 0,
                detection_hits: 0,
                false_positives: 0,
                probe_eddi: None,
                last_good_outputs: None,
                frozen_outputs: None,
            });
        }

        // Plan the mission: one strip per UAV.
        let footprint_half = config.scan_altitude_m; // 90° FOV: half-width = alt
        let ids_list: Vec<UavId> = uavs.iter().map(|u| u.handle.id()).collect();
        let tasks = TaskManager::plan(
            &origin,
            config.area_width_m,
            config.area_height_m,
            &ids_list,
            config.scan_altitude_m,
            footprint_half,
        );
        if let Some(ids_engine) = ids.as_mut() {
            for id in &ids_list {
                let mut plan = tasks.remaining_route(*id);
                plan.push(origin.with_alt(config.scan_altitude_m));
                ids_engine.register_plan(*id, plan);
            }
        }

        let trajectories = vec![Vec::new(); n];
        let current_scan_alt = config.scan_altitude_m;
        let geofences = (0..n)
            .map(|_| GeofenceMonitor::new(Geofence::around(sim.world(), 40.0, 150.0)))
            .collect();
        let separation_hot = vec![false; n];
        let shards = shard_ranges(n, config.fleet.shard_policy().shard_count(n));
        let eddi_eval_keys = (0..n).map(|i| format!("eddi.evals.uav{i}")).collect();
        let node_senders = ids_list
            .iter()
            .map(|id| format!("node:{id}").into())
            .collect();
        let telemetry_topics = ids_list
            .iter()
            .map(|id| format!("/{id}/telemetry").into())
            .collect();
        let heartbeat_topics = ids_list
            .iter()
            .map(|id| format!("/{id}/cmd/heartbeat").into())
            .collect();
        let supervision_state_keys = (0..n)
            .map(|i| format!("supervision.state.uav{i}"))
            .collect();
        let uav_names = uavs.iter().map(|u| u.handle.id().to_string()).collect();
        Platform {
            config,
            sim,
            bus,
            broker,
            auth,
            ids,
            ids_tap,
            cmd_subs,
            security_eddis,
            uavs,
            tasks,
            manager,
            db: DatabaseManager::new(),
            gcs: GroundControlStation::new(),
            events: EventLog::new(),
            seq: HashMap::new(),
            altitude_policy: AltitudePolicy::paper_defaults(),
            cl: None,
            cl_outcome: None,
            mission_complete_at: None,
            total_ticks: 0,
            ticks_at_completion: None,
            productive_at_completion: Vec::new(),
            pof_series: Vec::new(),
            uncertainty_series: Vec::new(),
            trajectories,
            attack_detected_at: None,
            current_scan_alt,
            geofences,
            separation_table: SeparationTable::new(&SeparationRiskModel::new()),
            separation_hot,
            metrics: MetricsRegistry::new(),
            trace: TraceLog::default(),
            supervisor: Supervisor::new(n),
            comm_faults: CommFaultPlane::new(),
            compute_faults: ComputeFaultPlane::new(),
            pending_faults: Vec::new(),
            mission_decision: None,
            pending_cmds: BTreeMap::new(),
            next_heartbeat_at: SimTime::ZERO,
            base_shards: shards.clone(),
            shards,
            // The fleet size is fixed, so the per-UAV slots are sized once
            // here rather than on the first tick.
            scratch: TickScratch {
                slots: std::iter::repeat_with(UavSlot::default).take(n).collect(),
                ..TickScratch::default()
            },
            eddi_eval_keys,
            node_senders,
            telemetry_topics,
            heartbeat_topics,
            gcs_sender: "node:gcs".into(),
            supervision_state_keys,
            uav_names,
        }
    }

    /// The paper's fixed operating-area origin (§IV), shared by
    /// construction and the revival probe's fresh engines.
    fn origin() -> GeoPoint {
        GeoPoint::new(35.05, 33.20, 0.0)
    }

    /// A fresh EDDI engine for UAV `i`, as construction and the revival
    /// probe build it. The engine kind follows the configured path, so a
    /// released UAV rejoins with the engine kind it left.
    fn eddi_engine(config: &PlatformConfig, i: usize) -> EddiEngine {
        let seed = config.seed ^ ((i as u64 + 1) << 16);
        let (safedrones, origin) = (config.safedrones.clone(), Self::origin());
        if config.eddi_fast_path {
            EddiEngine::Fast(UavEddiRuntime::new(seed, safedrones, origin))
        } else {
            EddiEngine::Reference(ReferenceEddiRuntime::new(seed, safedrones, origin))
        }
    }

    /// A fresh ConSert runtime for UAV `id`, matching the configured path.
    fn consert_runtime(config: &PlatformConfig, id: UavId) -> ConsertRuntime {
        if config.eddi_fast_path {
            ConsertRuntime::Fast(IncrementalConsertNetwork::new(id.to_string()))
        } else {
            ConsertRuntime::Reference(uav_consert_network(&id.to_string()))
        }
    }

    /// The simulator (fault injection, environment).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The simulator, read-only.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The bus (the attack plane arms itself here).
    pub fn bus_mut(&mut self) -> &mut MessageBus {
        &mut self.bus
    }

    /// The scheduled communication-fault plane (chaos campaigns arm link
    /// blackouts, partitions, broker outages and staleness here).
    pub fn comm_faults_mut(&mut self) -> &mut CommFaultPlane {
        &mut self.comm_faults
    }

    /// The scheduled compute-fault plane (chaos campaigns arm EDDI
    /// panics, NaN/Inf telemetry corruption and solver stalls here).
    pub fn compute_faults_mut(&mut self) -> &mut ComputeFaultPlane {
        &mut self.compute_faults
    }

    /// The supervision health state of UAV `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn health(&self, index: usize) -> HealthState {
        self.supervisor.health(index)
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The ground control station log.
    pub fn gcs(&self) -> &GroundControlStation {
        &self.gcs
    }

    /// The task manager.
    pub fn tasks(&self) -> &TaskManager {
        &self.tasks
    }

    /// The database manager.
    pub fn database_mut(&mut self) -> &mut DatabaseManager {
        &mut self.db
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// When the coverage mission completed, if it has.
    pub fn mission_complete_at(&self) -> Option<SimTime> {
        self.mission_complete_at
    }

    /// Read-only view of every per-run series and milestone the
    /// platform records: PoF, uncertainty, trajectories, attack
    /// detection and the CL landing outcome.
    pub fn series(&self) -> SeriesView<'_> {
        SeriesView { platform: self }
    }

    /// The live metrics registry: counters, gauges and the per-phase
    /// tick-timing histograms maintained by [`Platform::step`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A cheap, comparable copy of the current metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Closed-loop ticks stepped so far (the checkpoint layer's logical
    /// clock).
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Counts a checkpoint capture. The `checkpoint.*` keys are excluded
    /// from state digests, so capturing never perturbs bit-identity.
    pub(crate) fn record_checkpoint_capture(&mut self) {
        self.metrics.inc("checkpoint.captures");
    }

    /// Marks this platform as recovered from a checkpoint after
    /// replaying `replayed_ticks` logged ticks.
    pub(crate) fn record_recovery(&mut self, replayed_ticks: u64) {
        self.metrics.inc("checkpoint.recoveries");
        self.metrics
            .set_counter("checkpoint.replayed_ticks", replayed_ticks);
    }

    /// The platform-wide structured trace: bus drops/tampers absorbed
    /// from the middleware plus IDS, ConSert and attack-goal events.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Commands the whole fleet to take off and begin the survey.
    pub fn launch(&mut self) {
        for i in 0..self.uavs.len() {
            let h = self.uavs[i].handle;
            self.sim.command_takeoff(h, self.config.scan_altitude_m);
        }
    }

    fn publish(&mut self, sender: &Arc<str>, topic: Arc<str>, payload: Payload) -> u64 {
        let seq = if let Some(c) = self.seq.get_mut(sender) {
            let s = *c;
            *c += 1;
            s
        } else {
            self.seq.insert(Arc::clone(sender), 1);
            0
        };
        let mut msg = Message::new(topic, Arc::clone(sender), seq, self.sim.now(), payload);
        if let Some(auth) = &self.auth {
            auth.sign(&mut msg);
        }
        self.bus.publish_message(msg);
        seq
    }

    /// Publishes a GCS command with at-least-once delivery: the message
    /// is tracked until the UAV-side drain applies it, and re-published
    /// (under a fresh sequence number, with exponential backoff) up to
    /// [`MAX_COMMAND_RETRIES`] times if no acknowledgement arrives.
    fn publish_command(&mut self, topic: Arc<str>, payload: Payload, attempts: u32) {
        let sender = Arc::clone(&self.gcs_sender);
        let seq = self.publish(&sender, Arc::clone(&topic), payload.clone());
        let backoff_ms = RETRY_BACKOFF.as_millis() << attempts;
        self.pending_cmds.insert(
            (topic, seq),
            PendingCommand {
                payload,
                attempts,
                next_retry_at: self.sim.now() + SimDuration::from_millis(backoff_ms),
            },
        );
    }

    /// Uploads a route to a UAV over the (attackable) command channel.
    fn upload_route(&mut self, index: usize, route: Vec<GeoPoint>) {
        let id = self.uavs[index].handle.id();
        let topic: Arc<str> = format!("/{id}/cmd/waypoint").into();
        for wp in route {
            self.publish_command(
                Arc::clone(&topic),
                Payload::WaypointCommand {
                    uav: id,
                    waypoint: wp,
                },
                0,
            );
        }
    }

    /// One closed-loop tick. Returns the new time.
    pub fn step(&mut self) -> SimTime {
        let mut span = TickSpan::start();
        span.enter(phase::SIM_STEP);
        let now = self.sim.step();
        self.total_ticks += 1;
        self.metrics.inc("platform.ticks");
        let second_boundary = now.as_millis().is_multiple_of(1000);
        let visibility = self.sim.world().visibility();

        // ---- Scheduled communication faults ----
        // Applied before this tick's publishes so a blackout starting at
        // `now` already swallows this tick's traffic.
        for tr in self.comm_faults.step(now, &mut self.bus, &mut self.broker) {
            self.metrics.inc("chaos.comm_fault_transitions");
            if tr.activated {
                self.metrics.inc("chaos.comm_faults_activated");
            }
            self.trace.push(
                now.as_millis(),
                TraceEvent::CommFault {
                    label: tr.label.clone(),
                    activated: tr.activated,
                },
            );
            self.events.push(
                now,
                SystemEvent::Note(format!(
                    "comm fault {} {}",
                    tr.label,
                    if tr.activated { "activated" } else { "cleared" }
                )),
            );
        }

        // ---- Scheduled compute faults ----
        // Advanced before sensing so a window opening at `now` already
        // corrupts this tick's telemetry / arms this tick's panic.
        for tr in self.compute_faults.step(now) {
            self.metrics.inc("chaos.compute_fault_transitions");
            if tr.activated {
                self.metrics.inc("chaos.compute_faults_activated");
            }
            self.trace.push(
                now.as_millis(),
                TraceEvent::ComputeFault {
                    label: tr.label.clone(),
                    activated: tr.activated,
                },
            );
            self.events.push(
                now,
                SystemEvent::Note(format!(
                    "compute fault {} {}",
                    tr.label,
                    if tr.activated { "activated" } else { "cleared" }
                )),
            );
        }

        // ---- GCS heartbeat (per-UAV, signed, over the lossy bus) ----
        // Each UAV's supervisor measures uplink liveness from these.
        if now >= self.next_heartbeat_at {
            self.next_heartbeat_at = now + HEARTBEAT_PERIOD;
            let sender = Arc::clone(&self.gcs_sender);
            for i in 0..self.uavs.len() {
                let topic = Arc::clone(&self.heartbeat_topics[i]);
                self.publish(&sender, topic, Payload::Text("heartbeat".into()));
                self.metrics.inc("supervision.heartbeats_sent");
            }
        }

        // ---- Per-UAV sensing, mission logic and EDDI ticks ----
        span.enter(phase::SENSE_PUBLISH);
        let n = self.uavs.len();
        // Leased from the tick scratch: after the first tick the buffer
        // holds last tick's fleet snapshot and refreshes in place
        // (including the per-UAV `motors_ok` heap buffers).
        let mut telemetries = std::mem::take(&mut self.scratch.telemetries);
        telemetries.truncate(n);
        for i in 0..n {
            let handle = self.uavs[i].handle;
            if let Some(slot) = telemetries.get_mut(i) {
                self.sim.telemetry_into(handle, slot);
            } else {
                telemetries.push(self.sim.telemetry(handle));
            }
            // An active telemetry-corruption fault poisons the sensor
            // readings *before* anything consumes them, so both
            // execution plans see the same corrupt inputs (the EDDI
            // input guard rejects them instead of solving on NaN).
            if self
                .compute_faults
                .corrupt_telemetry(i, &mut telemetries[i])
            {
                self.metrics.inc("uav.fault.telemetry_corrupted");
            }
        }
        self.step_uavs(&telemetries, now, second_boundary, visibility, &mut span);

        // ---- Airspace monitors: geofence and separation risk ----
        span.enter(phase::AIRSPACE);
        self.step_airspace(&telemetries, now);

        // ---- Bus delivery, IDS, command application ----
        span.enter(phase::BUS_STEP);
        self.bus.step(now);
        // The IDS tap is subscribed in `new` and never cancelled, so a
        // drain failure would be a wiring bug — but under chaos testing
        // the platform must degrade, not die: count it, trace it, and
        // run the tick with an empty batch.
        let mut tapped = std::mem::take(&mut self.scratch.tapped);
        self.drain_or_degrade(self.ids_tap, format_args!("ids_tap"), now, &mut tapped);
        // Telemetry-staleness watchdog: any telemetry that actually
        // survived the lossy bus refreshes its UAV's link signal.
        for msg in &tapped {
            if let Payload::Telemetry(tel) = &msg.payload {
                if let Some(idx) = self.uav_index(tel.uav) {
                    self.supervisor.telemetry_seen(idx, now);
                }
            }
        }
        if let Some(ids_engine) = self.ids.as_mut() {
            let mut alerts = Vec::new();
            for msg in &tapped {
                alerts.extend(ids_engine.inspect(msg, now));
            }
            for a in alerts {
                self.metrics.inc("ids.alerts");
                self.metrics.inc(&format!("ids.alerts.rule.{}", a.rule));
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::IdsAlert {
                        detector: a.rule.clone(),
                        detail: a.detail.clone(),
                    },
                );
                self.broker.publish(
                    now,
                    "ids",
                    format!("ids/alerts/{}", a.subject),
                    Payload::Alert {
                        rule: a.rule.clone(),
                        subject: a.subject,
                        detail: a.detail.clone(),
                    },
                );
                self.events.push(
                    now,
                    SystemEvent::SecurityAlert {
                        uav: a.subject,
                        rule: a.rule,
                        severity: a.severity,
                    },
                );
            }
        }

        // Drop the batch's message references before parking the buffer.
        tapped.clear();
        self.scratch.tapped = tapped;

        // UAV-side command application: verify signatures when SESAME
        // signs; a stock deployment applies everything (the §V-C hole).
        let mut cmds = std::mem::take(&mut self.scratch.cmds);
        for i in 0..n {
            let sub = self.cmd_subs[i];
            self.drain_or_degrade(sub, format_args!("cmd_sub.uav{i}"), now, &mut cmds);
            let handle = self.uavs[i].handle;
            for msg in cmds.drain(..) {
                if let Some(auth) = &self.auth {
                    if !auth.verify(&msg) {
                        self.metrics.inc("commands.rejected_auth");
                        continue; // reject unauthenticated commands
                    }
                }
                // GCS heartbeat: refreshes the UAV-side link watchdog,
                // is not a flight command.
                if matches!(&msg.payload, Payload::Text(s) if s == "heartbeat") {
                    self.supervisor.heartbeat_heard(i, now);
                    self.metrics.inc("supervision.heartbeats_received");
                    continue;
                }
                self.metrics.inc("commands.applied");
                // Delivery doubles as the acknowledgement for the
                // at-least-once command retry machinery.
                self.pending_cmds.remove(&(Arc::clone(&msg.topic), msg.seq));
                match &msg.payload {
                    Payload::WaypointCommand { waypoint, .. } => {
                        self.sim
                            .command(handle, FlightCommand::PushWaypoint(*waypoint));
                    }
                    Payload::ModeCommand { mode, .. } => {
                        let cmd = match mode.as_str() {
                            "hold" => Some(FlightCommand::Hold),
                            "resume" => Some(FlightCommand::Resume),
                            "rtb" => Some(FlightCommand::ReturnToBase),
                            "land" => Some(FlightCommand::Land),
                            "emergency_land" => Some(FlightCommand::EmergencyLand),
                            _ => None,
                        };
                        if let Some(cmd) = cmd {
                            self.sim.command(handle, cmd);
                        }
                    }
                    _ => {}
                }
            }
        }
        self.scratch.cmds = cmds;

        // ---- Degraded-mode supervision ----
        self.step_supervision(now);

        // ---- Crash containment ----
        // With SESAME only (the baseline runs no EDDI that could fault):
        // quarantine this tick's isolated faults, run the revival probes,
        // feed the watchdog.
        if self.config.sesame_enabled {
            self.step_containment(&telemetries, now);
        }

        // ---- Security EDDI scripts ----
        span.enter(phase::SECURITY);
        let mut newly_attacked: Vec<UavId> = Vec::new();
        for eddi in self.security_eddis.iter_mut() {
            for status in eddi.poll(&mut self.broker, now) {
                self.metrics.inc("security.attack_goals");
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::AttackGoal {
                        description: format!("{}: {}", status.uav, status.tree),
                    },
                );
                self.events.push(
                    now,
                    SystemEvent::AttackGoalDetected {
                        uav: status.uav,
                        tree: status.tree.clone(),
                    },
                );
                newly_attacked.push(status.uav);
            }
        }
        for id in newly_attacked {
            if self.attack_detected_at.is_none() {
                self.attack_detected_at = Some(now);
            }
            if let Some(idx) = self.uav_index(id) {
                if !self.uavs[idx].attack_detected {
                    self.uavs[idx].attack_detected = true;
                    if self.config.sesame_enabled {
                        self.start_cl_landing(idx, now);
                    }
                }
            }
        }

        // ---- CL-guided landing (Fig. 7) ----
        span.enter(phase::CL_LANDING);
        self.step_cl(now);

        // ---- Decisions ----
        if self.config.sesame_enabled {
            span.enter(phase::CONSERT_COMPOSE);
            self.step_conserts(&telemetries, now, &mut span);
        } else {
            span.enter(phase::DECIDE);
            self.step_baseline(&telemetries, now);
        }

        // ---- Mission bookkeeping ----
        span.enter(phase::BOOKKEEPING);
        if self.mission_complete_at.is_none() && self.tasks.is_complete() {
            self.mission_complete_at = Some(now);
            self.ticks_at_completion = Some(self.total_ticks);
            self.productive_at_completion = self.uavs.iter().map(|u| u.productive_ticks).collect();
            self.trace.push(
                now.as_millis(),
                TraceEvent::ModeTransition {
                    from: "survey".into(),
                    to: "return_to_base".into(),
                },
            );
            self.events.push(
                now,
                SystemEvent::MissionComplete {
                    completed_fraction: 1.0,
                },
            );
            // Send everyone home.
            for i in 0..n {
                if !self.uavs[i].cl_landing {
                    let h = self.uavs[i].handle;
                    if self.sim.mode(h).is_airborne() {
                        self.sim.command(h, FlightCommand::ReturnToBase);
                    }
                }
            }
        }

        // Mirror the bus counters into the registry and pull the bus's
        // drop/tamper/overflow trace into the platform-wide log, so one
        // snapshot answers both "how much" and "when". `counters()` is the
        // cheap aggregate view — no per-topic map is rendered every tick.
        let counters = self.bus.counters();
        self.metrics
            .set_counter("bus.published", counters.published);
        self.metrics
            .set_counter("bus.delivered", counters.delivered);
        self.metrics.set_counter("bus.dropped", counters.dropped);
        self.metrics.set_counter("bus.tampered", counters.tampered);
        self.metrics
            .set_counter("bus.overflowed", counters.overflowed);
        self.metrics
            .set_gauge("bus.in_flight", self.bus.in_flight_len() as f64);
        self.trace.absorb(self.bus.trace_mut());

        // EDDI cache counters, mirrored the same way: aggregated hit/miss
        // totals across every UAV's solver, BN and ConSert caches (all
        // zero when the reference path runs).
        if self.config.sesame_enabled {
            let mut cache = EddiCacheStats::default();
            for u in &self.uavs {
                if let Some(e) = &u.eddi {
                    let s = e.cache_stats();
                    cache.hits += s.hits;
                    cache.misses += s.misses;
                }
                if let Some(c) = &u.conserts {
                    let s = c.cache_stats();
                    cache.hits += s.hits;
                    cache.misses += s.misses;
                }
            }
            self.metrics
                .set_cache_counters("eddi.cache", cache.hits, cache.misses);
        }

        let airborne = telemetries.iter().filter(|t| t.mode.is_airborne()).count();
        self.metrics.set_gauge("fleet.airborne", airborne as f64);
        self.metrics
            .set_gauge("mission.completion", self.tasks.completion());

        // GCS snapshot every 5 s.
        if now.as_millis().is_multiple_of(5000) {
            let snap = self.snapshot(&telemetries, now);
            self.gcs.record(snap);
        }
        self.scratch.telemetries = telemetries;
        span.finish(&mut self.metrics);
        now
    }

    /// The fleet index of UAV `id`, or `None` when no UAV has that id
    /// (forged or corrupt telemetry). UAV `k` has id `k + 1` (see
    /// `UavHandle::id`), so this is a bounds check, not a search.
    fn uav_index(&self, id: UavId) -> Option<usize> {
        let k = (id.index() as usize).checked_sub(1)?;
        (self.uavs.get(k)?.handle.id() == id).then_some(k)
    }

    /// Drains a subscription, downgrading a [`sesame_middleware::bus::BusError`]
    /// from a panic to a counted, traced degradation with an empty batch.
    /// `context` names the subscription in the metric and trace; it is
    /// only formatted on that error path.
    fn drain_or_degrade(
        &mut self,
        sub: Subscription,
        context: std::fmt::Arguments<'_>,
        now: SimTime,
        out: &mut Vec<Arc<Message>>,
    ) {
        if let Err(err) = self.bus.drain_into(sub, out) {
            self.metrics.inc("bus.drain_failures");
            self.metrics.inc(&format!("bus.drain_failures.{context}"));
            self.trace.push(
                now.as_millis(),
                TraceEvent::BusDegraded {
                    context: context.to_string(),
                    detail: err.to_string(),
                },
            );
        }
    }

    /// Everything one UAV's tick does *before* the EDDI evaluation:
    /// telemetry publish, database append, battery report, route upload,
    /// coverage progress, person detection and availability accounting.
    /// Called serially in fleet order, so the bus sequence (and with it
    /// the loss-RNG stream), the coverage state and the detector RNGs
    /// evolve identically on every shard plan. Person-detection events
    /// are buffered into `det_events` and pushed by the merge, ahead of
    /// the UAV's EDDI-driven events.
    fn uav_pre_pass(
        &mut self,
        i: usize,
        tel: &UavTelemetry,
        now: SimTime,
        visibility: f64,
        det_events: &mut Vec<SystemEvent>,
    ) {
        let id = tel.uav;

        // Telemetry onto the bus and into the database, under the cached
        // sender and topic names.
        let sender = Arc::clone(&self.node_senders[i]);
        let topic = Arc::clone(&self.telemetry_topics[i]);
        self.publish(&sender, topic, Payload::Telemetry(tel.clone()));
        self.db
            .store_location(id, now, tel.gps.position, tel.battery_soc);
        self.manager.update_battery(id, tel.battery_soc);

        // Route upload once cruising altitude is reached.
        if !self.uavs[i].route_uploaded
            && tel.mode == FlightMode::Mission
            && tel.true_position.alt_m > self.config.scan_altitude_m * 0.9
        {
            self.uavs[i].route_uploaded = true;
            let route = self.tasks.remaining_route(id);
            self.upload_route(i, route);
        }

        // Task progress uses the *reported* position — spoofing
        // corrupts it, which is the point of Fig. 6.
        if tel.mode == FlightMode::Mission {
            self.tasks.record_position(id, &tel.gps.position, 12.0);
        }

        // Person detection while surveying.
        if tel.mode == FlightMode::Mission && tel.true_position.alt_m > 5.0 {
            let mut people = std::mem::take(&mut self.scratch.persons);
            let mut dets = std::mem::take(&mut self.scratch.detections);
            self.sim
                .visible_persons_into(handle_of(&self.uavs, i), &mut people);
            self.uavs[i].detection_attempts += people.len() as u64;
            self.uavs[i].detector.detect_frame_into(
                &tel.true_position,
                visibility,
                &people,
                &mut dets,
            );
            for det in dets.drain(..) {
                if det.true_positive {
                    self.uavs[i].detection_hits += 1;
                } else {
                    self.uavs[i].false_positives += 1;
                }
                let new =
                    self.tasks
                        .mission_mut()
                        .report_person(det.position, id, det.confidence, now);
                if new {
                    det_events.push(SystemEvent::PersonDetected {
                        uav: id,
                        confidence: det.confidence,
                        true_positive: det.true_positive,
                    });
                }
            }
            self.scratch.persons = people;
            self.scratch.detections = dets;
        }

        // Availability accounting.
        if tel.mode.is_productive() && !self.sim.is_crashed(handle_of(&self.uavs, i)) {
            self.uavs[i].productive_ticks += 1;
        }
    }

    /// The serial tail of one UAV's EDDI evaluation: spoofing-alert
    /// fan-out, the per-second PoF/uncertainty series of UAV 1 and the
    /// §V-B altitude adaptation. Runs in the serial merge, in fleet order
    /// (the adaptation reads *and writes* the shared scan altitude, so its
    /// cross-UAV sequencing is load-bearing).
    fn apply_eddi_outputs(
        &mut self,
        i: usize,
        tel: &UavTelemetry,
        out: &EddiOutputs,
        now: SimTime,
        second_boundary: bool,
    ) {
        let id = tel.uav;
        // The EDDI-side spoofing detector acts as the "additional
        // sensor" of §III-B: its finding feeds the GPS-spoofing
        // attack tree through the alert broker.
        if out.spoof.spoofed && !self.uavs[i].spoof_alerted {
            self.uavs[i].spoof_alerted = true;
            self.metrics.inc("ids.alerts");
            self.metrics.inc("ids.alerts.rule.gps_spoofing_suspected");
            self.trace.push(
                now.as_millis(),
                TraceEvent::IdsAlert {
                    detector: "eddi_spoof".into(),
                    detail: format!(
                        "{id}: innovation {:.1} m exceeds gate {:.1} m",
                        out.spoof.innovation_m, out.spoof.gate_m
                    ),
                },
            );
            for rule in ["gps_anomaly", "position_jump"] {
                self.broker.publish(
                    now,
                    "eddi",
                    format!("ids/alerts/{id}"),
                    Payload::Alert {
                        rule: rule.into(),
                        subject: id,
                        detail: format!(
                            "innovation {:.1} m exceeds gate {:.1} m",
                            out.spoof.innovation_m, out.spoof.gate_m
                        ),
                    },
                );
            }
            self.events.push(
                now,
                SystemEvent::SecurityAlert {
                    uav: id,
                    rule: "gps_spoofing_suspected".into(),
                    severity: Severity::Critical,
                },
            );
        }
        if i == 0 && second_boundary {
            self.pof_series
                .push((now.as_secs_f64(), out.reliability.pof));
            self.uncertainty_series
                .push((now.as_secs_f64(), out.combined_uncertainty));
        }
        // §V-B altitude adaptation.
        if self.config.altitude_adaptation
            && tel.mode == FlightMode::Mission
            && !self.uavs[i].cl_landing
            // Only adapt from a steady scan at the commanded
            // altitude — transients during climb/descent would
            // trigger the policy on mixed-altitude windows.
            && (tel.true_position.alt_m - self.current_scan_alt).abs() < 5.0
        {
            match self
                .altitude_policy
                .decide(tel.true_position.alt_m, out.combined_uncertainty)
            {
                AltitudeDecision::DescendTo(alt) | AltitudeDecision::ClimbTo(alt) => {
                    if (alt - self.current_scan_alt).abs() > 1.0 {
                        self.current_scan_alt = alt;
                        self.events.push(
                            now,
                            SystemEvent::MonitorFinding {
                                uav: id,
                                monitor: "sinadra".into(),
                                severity: Severity::Warning,
                                detail: format!("altitude adaptation -> {alt} m"),
                            },
                        );
                    }
                    self.sim.command(
                        handle_of(&self.uavs, i),
                        FlightCommand::SetMissionAltitude(alt),
                    );
                }
                AltitudeDecision::Maintain => {}
            }
        }
    }

    /// The guard at the head of one UAV's EDDI evaluation, run in the
    /// serial pre-pass. Checks, in order: an armed scheduled panic (which
    /// is genuinely raised and caught, exercising the unwind path), then
    /// non-finite telemetry that must not reach the solver.
    fn eval_guard(&self, i: usize, tel: &UavTelemetry, now: SimTime) -> Option<UavFault> {
        let id = tel.uav;
        if self.compute_faults.panic_armed(i) {
            let payload =
                crate::shard::quiet_catch_unwind(|| panic!("chaos: scheduled eddi panic"))
                    .expect_err("the closure unconditionally panics");
            return Some(UavFault {
                uav: i,
                id,
                at: now,
                phase: FaultPhase::Injected,
                message: panic_message(payload.as_ref()),
            });
        }
        for (name, v) in [
            ("battery_soc", tel.battery_soc),
            ("battery_temp_c", tel.battery_temp_c),
            ("vision_health", tel.vision_health),
            ("link_quality", tel.link_quality),
        ] {
            if !v.is_finite() {
                return Some(UavFault {
                    uav: i,
                    id,
                    at: now,
                    phase: FaultPhase::Telemetry,
                    message: format!("non-finite {name} ({v})"),
                });
            }
        }
        None
    }

    /// The guard on one UAV's EDDI outputs: a non-finite
    /// probability-of-failure or combined uncertainty must not feed the
    /// series, the altitude policy or the ConSert evidence. Run in the
    /// serial merge.
    fn output_guard(i: usize, id: UavId, out: &EddiOutputs, now: SimTime) -> Option<UavFault> {
        for (name, v) in [
            ("pof", out.reliability.pof),
            ("combined_uncertainty", out.combined_uncertainty),
        ] {
            if !v.is_finite() {
                return Some(UavFault {
                    uav: i,
                    id,
                    at: now,
                    phase: FaultPhase::Output,
                    message: format!("non-finite {name} ({v})"),
                });
            }
        }
        None
    }

    /// The per-UAV tick, in three steps over the shard plan:
    ///
    /// 1. **Pre-pass** (serial, fleet order): [`Self::uav_pre_pass`], then
    ///    EDDI admission — [`Self::eval_guard`], the `eddi.evals.uav{i}`
    ///    counter and the remaining-mission horizon, which reads the task
    ///    state the pre-passes so far have left.
    /// 2. **Fan-out** (per shard): each admitted UAV's whole EDDI tick,
    ///    caught per UAV. An engine reads only its own state, its
    ///    telemetry and the scene.
    /// 3. **Merge** (serial, fleet order): buffered detection events, the
    ///    output guard, [`Self::apply_eddi_outputs`] and trajectory
    ///    sampling.
    fn step_uavs(
        &mut self,
        telemetries: &[UavTelemetry],
        now: SimTime,
        second_boundary: bool,
        visibility: f64,
        span: &mut TickSpan,
    ) {
        let n = self.uavs.len();
        let mut det_events = std::mem::take(&mut self.scratch.det_events);
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.resize_with(n, UavSlot::default);
        for i in 0..n {
            let tel = &telemetries[i];
            let buffered = det_events.len();
            self.uav_pre_pass(i, tel, now, visibility, &mut det_events);
            slots[i].detections = det_events.len() - buffered;
            // EDDI tick (SESAME only; a quarantined UAV's engine is
            // frozen — the revival probe, not the tick, exercises it).
            slots[i].admitted = false;
            if self.uavs[i].eddi.is_none() || self.supervisor.quarantined(i) {
                continue;
            }
            if let Some(fault) = self.eval_guard(i, tel, now) {
                self.pending_faults.push(fault);
                continue;
            }
            self.metrics.inc(&self.eddi_eval_keys[i]);
            let remaining = self.estimated_remaining_mission(tel.uav);
            if let Some(eddi) = self.uavs[i].eddi.as_mut() {
                eddi.set_remaining_mission(remaining);
                slots[i].admitted = true;
            }
        }

        span.enter(phase::EDDI_EVAL);
        fan_out(&self.shards, &mut self.uavs, &mut slots, |i, rt, slot| {
            let Some(eddi) = rt.eddi.as_mut().filter(|_| slot.admitted) else {
                return;
            };
            let tel = &telemetries[i];
            let scene = SceneCondition {
                altitude_m: tel.true_position.alt_m,
                visibility,
            };
            // Unwind safety: on a panic the engine's internal state is
            // suspect, so the containment layer quarantines the UAV and
            // never ticks this engine again (a release promotes a fresh
            // probe engine).
            let out = crate::shard::quiet_catch_unwind(|| eddi.tick(tel, &scene));
            slot.eddi = Some(out.map_err(|payload| panic_message(payload.as_ref())));
        });

        let mut detections = det_events.drain(..);
        for i in 0..n {
            let tel = &telemetries[i];
            for ev in detections.by_ref().take(slots[i].detections) {
                self.events.push(now, ev);
            }
            match slots[i].eddi.take() {
                Some(Ok(out)) => {
                    if let Some(fault) = Self::output_guard(i, tel.uav, &out, now) {
                        self.pending_faults.push(fault);
                    } else {
                        self.apply_eddi_outputs(i, tel, &out, now, second_boundary);
                        self.uavs[i].last_good_outputs = Some(out);
                    }
                }
                Some(Err(message)) => self.pending_faults.push(UavFault {
                    uav: i,
                    id: tel.uav,
                    at: now,
                    phase: FaultPhase::EddiTick,
                    message,
                }),
                None => {}
            }
            // Trajectory sampling.
            if second_boundary {
                self.trajectories[i].push((now.as_secs_f64(), tel.true_position));
            }
        }
        drop(detections);
        self.scratch.det_events = det_events;
        self.scratch.slots = slots;
        span.enter(phase::SENSE_PUBLISH);
    }

    /// The airspace pass: the nearest-teammate scan (see
    /// [`crate::airspace`]) is a pure function of this tick's telemetry,
    /// so it fans out over the shard plan; geofence updates, risk
    /// assessments and their events then merge serially in fleet order.
    fn step_airspace(&mut self, telemetries: &[UavTelemetry], now: SimTime) {
        let n = telemetries.len();
        let sesame = self.config.sesame_enabled;
        // A quarantined UAV is excised from the separation scan, as
        // subject and as teammate (its telemetry may be the corrupt
        // readings that faulted it); the geofence — which watches true
        // position — keeps running.
        let supervisor = &self.supervisor;
        let mut teammates = std::mem::take(&mut self.scratch.teammates);
        chord_teammates(telemetries, |j| supervisor.quarantined(j), &mut teammates);
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.resize_with(n, UavSlot::default);
        fan_out(&self.shards, &mut self.uavs, &mut slots, |i, _, slot| {
            if sesame && telemetries[i].mode == FlightMode::Mission && !supervisor.quarantined(i) {
                slot.proximity = nearest_teammate(i, telemetries, &teammates);
            }
        });
        for i in 0..n {
            let tel = &telemetries[i];
            if let Some(status) = self.geofences[i].update(&tel.true_position) {
                let severity = match status {
                    FenceStatus::Inside => Severity::Info,
                    FenceStatus::Margin => Severity::Warning,
                    FenceStatus::Breach => Severity::Critical,
                };
                self.events.push(
                    now,
                    SystemEvent::MonitorFinding {
                        uav: tel.uav,
                        monitor: "geofence".into(),
                        severity,
                        detail: format!("fence status -> {status:?}"),
                    },
                );
            }
            if let Some((nearest, converging)) = slots[i].proximity.take() {
                self.assess_separation(i, tel, nearest, converging, now);
            }
        }
        self.scratch.teammates = teammates;
        self.scratch.slots = slots;
    }

    /// Looks up the SINADRA separation assessment for one UAV's
    /// nearest-teammate geometry and emits the rising-edge warning event.
    fn assess_separation(
        &mut self,
        i: usize,
        tel: &UavTelemetry,
        nearest: f64,
        converging: bool,
        now: SimTime,
    ) {
        let assessment = self.separation_table.lookup(nearest, converging);
        if assessment.hold_advised && !self.separation_hot[i] {
            self.separation_hot[i] = true;
            self.events.push(
                now,
                SystemEvent::MonitorFinding {
                    uav: tel.uav,
                    monitor: "separation".into(),
                    severity: Severity::Warning,
                    detail: format!(
                        "conflict probability {:.2} at {nearest:.0} m",
                        assessment.conflict_prob
                    ),
                },
            );
        } else if !assessment.hold_advised {
            self.separation_hot[i] = false;
        }
    }

    /// The staleness half of supervision: apply the kernel's link
    /// transitions, publish every UAV's health gauge, and re-publish
    /// unacknowledged commands whose backoff expired.
    fn step_supervision(&mut self, now: SimTime) {
        let mut actions = std::mem::take(&mut self.scratch.supervision);
        actions.clear();
        self.supervisor.assess_links(now, &mut actions);
        self.apply_supervision(&actions, &mut std::iter::empty(), now);
        self.scratch.supervision = actions;
        for i in 0..self.uavs.len() {
            self.metrics.set_gauge(
                &self.supervision_state_keys[i],
                self.supervisor.health(i).as_gauge(),
            );
        }

        // Command retries: collect due keys first (BTreeMap keeps the
        // order deterministic), then re-publish under fresh sequence
        // numbers so the IDS replay detector stays quiet.
        let due: Vec<(Arc<str>, u64)> = self
            .pending_cmds
            .iter()
            .filter(|(_, pc)| now >= pc.next_retry_at)
            .map(|(k, _)| k.clone())
            .collect();
        for key in due {
            let Some(pc) = self.pending_cmds.remove(&key) else {
                continue;
            };
            if pc.attempts >= MAX_COMMAND_RETRIES {
                self.metrics.inc("commands.retry_exhausted");
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::BusDegraded {
                        context: "command_retry".into(),
                        detail: format!("{} dropped after {} attempts", key.0, pc.attempts),
                    },
                );
                continue;
            }
            let attempt = pc.attempts + 1;
            self.metrics.inc("commands.retried");
            self.trace.push(
                now.as_millis(),
                TraceEvent::CommandRetry {
                    topic: key.0.to_string(),
                    attempt,
                },
            );
            self.publish_command(key.0, pc.payload, attempt);
        }
    }

    /// The containment half of supervision: gather this tick's
    /// observations — isolated faults, solver stalls and the results of
    /// the due revival probes — run the kernel over them and apply its
    /// actions. The faults are sorted by fleet index first, so the order
    /// never depends on which step of the tick isolated them.
    fn step_containment(&mut self, telemetries: &[UavTelemetry], now: SimTime) {
        let n = self.uavs.len();
        let tick = self.total_ticks;
        let mut faults = std::mem::take(&mut self.pending_faults);
        faults.sort_by_key(|f| f.uav);
        let mut observations = std::mem::take(&mut self.scratch.observations);
        observations.clear();
        observations.resize(n, Observation::default());
        for f in &faults {
            observations[f.uav].fault = true;
        }
        for i in 0..n {
            // A solver stall is execution-plane only — outputs are
            // unchanged — but it strikes the watchdog like a fault.
            if self.compute_faults.stalled(i) {
                self.metrics.inc("uav.fault.solver_stall_ticks");
                observations[i].stalled = true;
            }
            if self.supervisor.probe_due(i, tick) {
                observations[i].probe = Some(self.run_probe(i, &telemetries[i], now));
            }
        }
        let mut actions = std::mem::take(&mut self.scratch.supervision);
        actions.clear();
        self.supervisor
            .contain(tick, now, &observations, &mut actions);
        self.apply_supervision(&actions, &mut faults.drain(..), now);
        self.pending_faults = faults;
        self.scratch.observations = observations;
        self.scratch.supervision = actions;
        self.metrics.set_gauge(
            "uav.quarantine.active",
            self.supervisor.quarantine_count() as f64,
        );
    }

    /// One revival probe of quarantined UAV `i` on a *fresh* engine (the
    /// faulted one is suspect after its unwind). A probe is clean when
    /// the tick's own guards pass — [`Self::eval_guard`], a tick that
    /// does not panic, [`Self::output_guard`]. A failed input guard fails
    /// the probe without burning a tick on the engine.
    fn run_probe(&mut self, i: usize, tel: &UavTelemetry, now: SimTime) -> bool {
        if self.eval_guard(i, tel, now).is_some() {
            return false;
        }
        if self.uavs[i].probe_eddi.is_none() {
            self.uavs[i].probe_eddi = Some(Self::eddi_engine(&self.config, i));
        }
        let remaining = self.estimated_remaining_mission(tel.uav);
        let scene = SceneCondition {
            altitude_m: tel.true_position.alt_m,
            visibility: self.sim.world().visibility(),
        };
        // Invariant: built two statements above when absent.
        let eddi = self.uavs[i].probe_eddi.as_mut().expect("built above");
        eddi.set_remaining_mission(remaining);
        // Unwind safety: a failed probe drops the engine (see
        // `Action::Probed`), so a panicking one is never ticked again.
        crate::shard::quiet_catch_unwind(|| eddi.tick(tel, &scene))
            .is_ok_and(|out| Self::output_guard(i, tel.uav, &out, now).is_none())
    }

    /// Applies the supervision kernel's actions in order. `faults` yields
    /// this tick's isolated faults in fleet order, one per
    /// [`Action::Isolated`].
    fn apply_supervision(
        &mut self,
        actions: &[Action],
        faults: &mut impl Iterator<Item = UavFault>,
        now: SimTime,
    ) {
        let mut fault = None;
        for &action in actions {
            match action {
                Action::Isolated { uav } => {
                    let f = faults.next().expect("one fault per isolated action");
                    debug_assert_eq!(f.uav, uav);
                    self.metrics.inc("uav.fault.isolated");
                    self.metrics.inc(&format!("uav.fault.phase.{}", f.phase));
                    self.trace.push(
                        now.as_millis(),
                        TraceEvent::UavFault {
                            uav: f.id.to_string(),
                            phase: f.phase.as_str().to_string(),
                            detail: f.message.clone(),
                        },
                    );
                    self.events.push(
                        now,
                        SystemEvent::MonitorFinding {
                            uav: f.id,
                            monitor: "containment".into(),
                            severity: Severity::Critical,
                            detail: f.describe(),
                        },
                    );
                    fault = Some(f);
                }
                Action::Transition {
                    uav: i,
                    from,
                    to,
                    cause,
                } => {
                    let reason = match cause {
                        Cause::Fault => fault
                            .as_ref()
                            .expect("a quarantine follows its isolated fault")
                            .describe(),
                        Cause::LinksFresh => "links fresh again".to_string(),
                        Cause::TelemetryStale(age) => {
                            format!("telemetry stale {:.1} s", age.as_secs_f64())
                        }
                        Cause::HeartbeatStale(age) => {
                            format!("heartbeat stale {:.1} s", age.as_secs_f64())
                        }
                        Cause::ProbeStreakClean => "revival probe streak clean".to_string(),
                    };
                    let rt = &mut self.uavs[i];
                    if to == HealthState::Quarantined {
                        // Snapshots serve the last-known-good outputs; the
                        // faulted engine stays in place, never ticked again.
                        self.metrics.inc("uav.quarantine.entered");
                        rt.frozen_outputs = rt.last_good_outputs.clone();
                        rt.probe_eddi = None;
                    } else if from == HealthState::Quarantined {
                        // Promote the probe engine, whose state reflects the
                        // recent telemetry, and rebuild the ConSerts fresh.
                        self.metrics.inc("uav.quarantine.released");
                        let promoted = rt.probe_eddi.take();
                        rt.eddi = Some(promoted.expect("release follows a clean probe streak"));
                        rt.frozen_outputs = None;
                        rt.last_good_outputs = None;
                        if rt.conserts.is_some() {
                            rt.conserts = Some(Self::consert_runtime(&self.config, rt.handle.id()));
                        }
                    }
                    self.record_health_transition(i, from, to, reason, now);
                    // The minimal-risk manoeuvre: a cut-off UAV heads home
                    // on its own authority, a quarantined one is commanded
                    // over the retrying GCS channel. The CL landing pipeline
                    // keeps priority: it already owns the vehicle.
                    let (h, id) = (self.uavs[i].handle, self.uavs[i].handle.id());
                    let rtb = !self.uavs[i].cl_landing && self.sim.mode(h).is_airborne();
                    match to {
                        HealthState::SafeFallback if rtb => {
                            self.sim.command(h, FlightCommand::ReturnToBase)
                        }
                        HealthState::Quarantined if rtb => self.publish_command(
                            format!("/{id}/cmd/mode").into(),
                            Payload::ModeCommand {
                                uav: id,
                                mode: "rtb".into(),
                            },
                            0,
                        ),
                        HealthState::Nominal if from == HealthState::Quarantined => {
                            self.events.push(
                                now,
                                SystemEvent::Note(format!("{id}: released from quarantine")),
                            )
                        }
                        _ => {}
                    }
                }
                Action::Probed { uav, clean } => {
                    self.metrics.inc("uav.quarantine.probes");
                    if !clean {
                        self.metrics.inc("uav.quarantine.probe_failures");
                        // The probe engine's state is suspect after a
                        // failed probe — rebuild fresh at the next attempt.
                        self.uavs[uav].probe_eddi = None;
                    }
                }
                // The demotion runs on every plan — vacuously on a one-shard
                // plan — so the `watchdog.*` counters are identical across
                // shard policies.
                Action::WatchdogTrip { uav, fresh } => {
                    let id = self.uavs[uav].handle.id();
                    self.metrics.inc("watchdog.trip");
                    self.trace.push(
                        now.as_millis(),
                        TraceEvent::WatchdogTrip {
                            uav: id.to_string(),
                        },
                    );
                    self.events.push(
                        now,
                        SystemEvent::Note(format!(
                            "{id}: tick watchdog tripped, demoting to serial"
                        )),
                    );
                    if fresh {
                        self.metrics.inc("watchdog.demotions");
                    }
                    self.shards = shard_ranges(self.uavs.len(), 1);
                }
                Action::Demoted => self.metrics.inc("watchdog.demoted_ticks"),
                Action::Restored => self.shards = self.base_shards.clone(),
            }
        }
    }

    /// Records one UAV's health transition: counters, trace and the
    /// supervision event.
    fn record_health_transition(
        &mut self,
        i: usize,
        from: HealthState,
        to: HealthState,
        reason: String,
        now: SimTime,
    ) {
        let id = self.uavs[i].handle.id();
        self.metrics.inc("supervision.transitions");
        self.metrics.inc(&format!("supervision.to_{}", to.as_str()));
        let detail = format!("{from} -> {to}: {reason}");
        self.trace.push(
            now.as_millis(),
            TraceEvent::HealthTransition {
                uav: id.to_string(),
                from: from.as_str().to_string(),
                to: to.as_str().to_string(),
                reason,
            },
        );
        let severity = match to {
            HealthState::Nominal => Severity::Info,
            HealthState::Degraded => Severity::Warning,
            HealthState::SafeFallback | HealthState::Quarantined => Severity::Critical,
        };
        self.events.push(
            now,
            SystemEvent::MonitorFinding {
                uav: id,
                monitor: "supervision".into(),
                severity,
                detail,
            },
        );
    }

    fn estimated_remaining_mission(&self, uav: UavId) -> SimDuration {
        // This UAV's remaining route at cruise speed, floor 30 s.
        let remaining_m = self.tasks.remaining_route_length_m(uav);
        let secs = (remaining_m / 8.0).max(30.0);
        SimDuration::from_secs_f64(secs)
    }

    fn start_cl_landing(&mut self, affected: usize, now: SimTime) {
        if self.cl.is_some() || self.uavs[affected].cl_landing {
            return;
        }
        self.uavs[affected].cl_landing = true;
        let affected_handle = self.uavs[affected].handle;
        // The paper's mitigation flies the UAV GPS-denied: the operator
        // discards the captured receiver.
        self.sim.faults_mut().add(
            now + SimDuration::from_millis(100),
            affected_handle.id(),
            sesame_uav_sim::faults::FaultKind::GpsLoss,
        );
        self.sim.command(affected_handle, FlightCommand::Hold);
        // Collaborators: the other airborne UAVs approach the affected one.
        let affected_pos = self.sim.true_position(affected_handle);
        let mut collaborators = Vec::new();
        for (j, u) in self.uavs.iter().enumerate() {
            if j != affected && self.sim.mode(u.handle).is_airborne() {
                collaborators.push(j);
            }
        }
        for (k, &j) in collaborators.iter().enumerate() {
            let h = self.uavs[j].handle;
            let stand_off = affected_pos
                .destination(90.0 + 180.0 * k as f64, 30.0)
                .with_alt(affected_pos.alt_m + 5.0);
            self.sim
                .command(h, FlightCommand::SetMission(vec![stand_off]));
        }
        let agents: Vec<CollaborativeAgent> = collaborators
            .iter()
            .map(|j| {
                CollaborativeAgent::new(
                    format!("collab-{}", self.uavs[*j].handle.id()),
                    self.config.seed ^ ((*j as u64 + 7) << 32),
                )
            })
            .collect();
        if agents.is_empty() {
            return; // nobody can assist; the UAV holds position
        }
        self.cl = Some(ClState {
            affected,
            session: CollabSession::new(agents, affected_pos.with_alt(0.0)),
            guidance: None,
            collaborators,
        });
    }

    fn step_cl(&mut self, now: SimTime) {
        let Some(cl) = self.cl.as_mut() else { return };
        let affected_handle = self.uavs[cl.affected].handle;
        if self.sim.mode(affected_handle) == FlightMode::Grounded {
            // Touched down: score the landing.
            if self.cl_outcome.is_none() {
                let pad = cl
                    .guidance
                    .as_ref()
                    .map(|g| g.target())
                    .unwrap_or_else(|| self.sim.true_position(affected_handle));
                let miss = self
                    .sim
                    .true_position(affected_handle)
                    .haversine_distance_m(&pad);
                let outcome = ClLandingOutcome {
                    uav: affected_handle.id(),
                    miss_m: miss,
                    at: now,
                };
                self.cl_outcome = Some(outcome);
                self.events.push(
                    now,
                    SystemEvent::Landed(affected_handle.id(), "cl_safe_landing".into()),
                );
            }
            self.cl = None;
            return;
        }
        let affected_true = self.sim.true_position(affected_handle);
        let observer_positions: Vec<GeoPoint> = cl
            .collaborators
            .iter()
            .map(|j| self.sim.true_position(self.uavs[*j].handle))
            .collect();
        if let Some(fix) = cl.session.step(now, &observer_positions, &affected_true) {
            self.events.push(
                now,
                SystemEvent::CollabFix {
                    uav: affected_handle.id(),
                    error_m: fix.position.distance_3d_m(&affected_true),
                },
            );
            let guidance = cl.guidance.get_or_insert_with(|| {
                // First fix: land directly below the estimated position.
                LandingGuidance::new(fix.position.with_alt(0.0))
            });
            let v = guidance.velocity_command(&fix.position);
            self.sim.command_velocity(affected_handle, Some(v));
        }
    }

    /// The ConSert pass. Each UAV's decision depends only on its own
    /// evidence, ConSert cache and telemetry, so the `decide` calls fan
    /// out over the shard plan; actuation, metrics, traces and events then
    /// merge serially in fleet order (the UAV manager's `last_action` edge
    /// detection is per-UAV, so the merge order preserves its stream),
    /// followed by the mission-level decider.
    fn step_conserts(&mut self, telemetries: &[UavTelemetry], now: SimTime, span: &mut TickSpan) {
        let n = self.uavs.len();
        let airborne: usize = telemetries.iter().filter(|t| t.mode.is_airborne()).count();
        // A cut-off UAV is already flying home under supervision
        // authority, and a quarantined one is excised (its engine state is
        // suspect and containment already commanded RTB); declaring either
        // aborting lets the mission decider redistribute its remaining
        // tasks.
        let supervisor = &self.supervisor;
        let withdrawn = |i: usize| {
            matches!(
                supervisor.health(i),
                HealthState::SafeFallback | HealthState::Quarantined
            )
        };
        let uav_names = &self.uav_names;
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.resize_with(n, UavSlot::default);
        fan_out(&self.shards, &mut self.uavs, &mut slots, |i, rt, slot| {
            // A CL-landing UAV is under CL control.
            if rt.cl_landing || withdrawn(i) {
                return;
            }
            let (Some(eddi), Some(conserts)) = (&rt.eddi, rt.conserts.as_mut()) else {
                return;
            };
            let tel = &telemetries[i];
            let neighbors_available = airborne >= 3 && tel.link_quality > 0.4;
            let evidence = eddi.evidence(tel, rt.attack_detected, neighbors_available);
            // One call answers both the action and the accuracy bound —
            // the fast path evaluates the network at most once per tick.
            // The UAV name is cached at construction; the reference
            // catalog keys its network lookup on it every tick.
            let decision = conserts.decide(&uav_names[i], &evidence);
            rt.last_nav_accuracy = decision.nav_accuracy_m;
            slot.action = Some(decision.action.unwrap_or(UavAction::EmergencyLand));
        });
        let mut actions = std::mem::take(&mut self.scratch.actions);
        actions.clear();
        for i in 0..n {
            let id = telemetries[i].uav;
            let decided = slots[i].action.take();
            if self.uavs[i].cl_landing {
                actions.push(UavAction::EmergencyLand); // under CL control
                continue;
            }
            if withdrawn(i) {
                actions.push(UavAction::ReturnToBase);
                continue;
            }
            let Some(action) = decided else {
                actions.push(UavAction::ContinueMission);
                continue;
            };
            actions.push(action);
            let prev = self.manager.last_action(id);
            if let Some(cmd) = self.manager.translate_action(id, action) {
                self.sim.command(self.uavs[i].handle, cmd);
            }
            if prev != Some(action) {
                self.metrics.inc("consert.decisions");
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::GuaranteeChanged {
                        uav: i,
                        from: prev.map_or_else(|| "none".to_string(), |a| a.to_string()),
                        to: action.to_string(),
                    },
                );
                self.events.push(
                    now,
                    SystemEvent::ConsertDecision {
                        uav: id,
                        guarantee: action.to_string(),
                    },
                );
            }
        }
        self.scratch.slots = slots;
        // Mission-level decider.
        span.enter(phase::DECIDE);
        let decision = decide_mission(&actions);
        self.mission_decision = Some(decision);
        if decision == MissionDecision::RedistributeTasks {
            // Redistribute the tasks of every aborting UAV once.
            for i in 0..n {
                let id = self.uavs[i].handle.id();
                if matches!(
                    actions[i],
                    UavAction::ReturnToBase | UavAction::EmergencyLand
                ) {
                    let capable: Vec<UavId> = (0..n)
                        .filter(|j| actions[*j].is_mission_capable())
                        .map(|j| self.uavs[j].handle.id())
                        .collect();
                    let moves = self.tasks.redistribute(id, &capable);
                    for (task, from, to) in moves {
                        self.events
                            .push(now, SystemEvent::TaskReallocated { task, from, to });
                        // Upload the inherited route to the new owner.
                        if let Some(j) = self.uav_index(to) {
                            let route = self.tasks.remaining_route(to);
                            self.upload_route(j, route);
                        }
                    }
                }
            }
        }
        self.scratch.actions = actions;
    }

    /// The baseline policy of §V-A: at the first battery symptom (sharp
    /// SoC drop), abort immediately, swap the battery at base
    /// (`battery_swap` long), then resume the remaining mission.
    fn step_baseline(&mut self, telemetries: &[UavTelemetry], now: SimTime) {
        for i in 0..self.uavs.len() {
            let tel = &telemetries[i];
            let handle = self.uavs[i].handle;
            // Symptom: battery temperature ≥ 45 °C or a drop below 50 %
            // while flying — the stock firmware aborts.
            let symptomatic = tel.battery_temp_c >= 45.0 || tel.battery_soc < 0.45;
            if symptomatic && tel.mode == FlightMode::Mission && self.uavs[i].swap_until.is_none() {
                self.sim.command(handle, FlightCommand::ReturnToBase);
                self.events.push(
                    now,
                    SystemEvent::Note(format!("{}: baseline abort on battery symptom", tel.uav)),
                );
            }
            // Grounded at base with a symptom history: swap.
            if tel.mode == FlightMode::Grounded && !self.uavs[i].baseline_resumed {
                match self.uavs[i].swap_until {
                    None => {
                        if tel.battery_temp_c >= 40.0 || tel.battery_soc < 0.45 {
                            self.uavs[i].swap_until = Some(now + self.config.battery_swap);
                        }
                    }
                    Some(t) if now >= t => {
                        self.sim.swap_battery(handle);
                        self.uavs[i].baseline_resumed = true;
                        self.uavs[i].swap_until = None;
                        // Relaunch and re-upload the remaining route.
                        self.sim
                            .command_takeoff(handle, self.config.scan_altitude_m);
                        self.uavs[i].route_uploaded = false;
                        self.events.push(
                            now,
                            SystemEvent::Note(format!("{}: battery swapped, resuming", tel.uav)),
                        );
                    }
                    Some(_) => {}
                }
            }
        }
    }

    fn snapshot(&self, telemetries: &[UavTelemetry], now: SimTime) -> StatusSnapshot {
        let uavs = telemetries
            .iter()
            .enumerate()
            .map(|(i, tel)| UavStatusLine {
                uav: tel.uav,
                position: tel.true_position,
                battery_soc: tel.battery_soc,
                mode: tel.mode,
                consert_action: self.manager.last_action(tel.uav),
                // A quarantined engine's state is suspect: report the
                // last-known-good outputs frozen at entry instead.
                pof: if self.supervisor.quarantined(i) {
                    self.uavs[i]
                        .frozen_outputs
                        .as_ref()
                        .map(|o| o.reliability.pof)
                } else {
                    self.uavs[i]
                        .eddi
                        .as_ref()
                        .and_then(|e| e.last_outputs().map(|o| o.reliability.pof))
                },
            })
            .collect();
        StatusSnapshot {
            time: now,
            uavs,
            mission_decision: self.mission_decision,
            completion: self.tasks.completion(),
            persons_found: self.tasks.mission().findings().len(),
        }
    }

    /// Runs until the coverage completes and every UAV is grounded, or
    /// `deadline` passes.
    pub fn run_until_complete(&mut self, deadline: SimTime) {
        while self.now() < deadline {
            self.step();
            if self.mission_complete_at.is_some() {
                let all_down = self
                    .uavs
                    .iter()
                    .all(|u| !self.sim.mode(u.handle).is_airborne());
                if all_down {
                    break;
                }
            }
        }
    }

    /// Availability of one UAV: productive ticks over the mission window
    /// (up to coverage completion; the whole run if coverage never
    /// completed).
    pub fn availability(&self, index: usize) -> f64 {
        let (productive, window) = match self.ticks_at_completion {
            Some(ticks) => (self.productive_at_completion[index], ticks),
            None => (self.uavs[index].productive_ticks, self.total_ticks),
        };
        if window == 0 {
            return 0.0;
        }
        productive as f64 / window as f64
    }

    /// The certified navigation accuracy (metres) of one UAV from the
    /// latest ConSert evaluation; `None` before the first evaluation, when
    /// SESAME is off, or when only the emergency level holds.
    pub fn certified_nav_accuracy_m(&self, index: usize) -> Option<f64> {
        self.uavs[index].last_nav_accuracy
    }

    /// Detection statistics of one UAV: `(attempts, hits, false_positives)`.
    pub fn detection_stats(&self, index: usize) -> (u64, u64, u64) {
        let u = &self.uavs[index];
        (u.detection_attempts, u.detection_hits, u.false_positives)
    }

    /// Mission completion fraction.
    pub fn completion(&self) -> f64 {
        self.tasks.completion()
    }

    /// Assembles the holistic safety–security co-engineering report for
    /// one UAV (see [`crate::coengineering`]). Returns `None` when SESAME
    /// is disabled (there are no EDDIs to fuse).
    pub fn dependability_report(
        &self,
        index: usize,
    ) -> Option<crate::coengineering::DependabilityReport> {
        let eddi = self.uavs[index].eddi.as_ref()?;
        let id = self.uavs[index].handle.id();
        let security = self
            .security_eddis
            .iter()
            .map(|e| e.status_for(id))
            .collect();
        Some(crate::coengineering::DependabilityReport::assemble(
            id,
            self.sim.now(),
            eddi.safedrones().estimate(),
            security,
        ))
    }

    /// Number of UAVs.
    pub fn uav_count(&self) -> usize {
        self.uavs.len()
    }

    /// How many shards the tick's fan-outs currently run over (`1` = all
    /// on the caller's thread). Resolved once from the fleet's
    /// [`crate::fleet::ShardPolicy`] at construction; a watchdog demotion
    /// drops it to `1` for the cooldown.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The handle of UAV `index`.
    pub fn handle(&self, index: usize) -> UavHandle {
        self.uavs[index].handle
    }
}

fn handle_of(uavs: &[UavRt], i: usize) -> UavHandle {
    uavs[i].handle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PlatformConfig {
        PlatformConfig {
            area_width_m: 150.0,
            area_height_m: 100.0,
            person_count: 3,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn telemetry_naming_an_unknown_uav_is_ignored() {
        let mut p = Platform::new(quick_config());
        assert_eq!(p.uav_index(UavId::new(1)), Some(0));
        assert_eq!(p.uav_index(UavId::new(3)), Some(2));
        let ghosts = [0, 4, u32::MAX].map(UavId::new);
        for ghost in ghosts {
            assert_eq!(p.uav_index(ghost), None, "{ghost}");
        }
        // Forged telemetry for those ids reaches the staleness watchdog,
        // which must skip it rather than index past the fleet.
        p.launch();
        for _ in 0..5 {
            for ghost in ghosts {
                let now = p.now();
                let tel = UavTelemetry::nominal(ghost, now, Platform::origin());
                p.bus_mut().publish(
                    now,
                    "node:ghost",
                    format!("/{ghost}/telemetry"),
                    Payload::Telemetry(tel),
                );
            }
            p.step();
        }
        assert!((0..3).all(|i| p.health(i) == HealthState::Nominal));
    }

    #[test]
    fn nominal_mission_completes_with_sesame() {
        let mut p = Platform::new(quick_config());
        p.launch();
        p.run_until_complete(SimTime::from_secs(600));
        assert!(p.mission_complete_at().is_some(), "completion by 600 s");
        assert!(p.completion() >= 1.0 - 1e-9);
        assert!(p.availability(0) > 0.5);
        assert!(!p.gcs().log().is_empty());
        assert!(p.series().attack_detected_at().is_none());
    }

    #[test]
    fn nominal_mission_completes_without_sesame() {
        let mut cfg = quick_config();
        cfg.sesame_enabled = false;
        let mut p = Platform::new(cfg);
        p.launch();
        p.run_until_complete(SimTime::from_secs(600));
        assert!(p.mission_complete_at().is_some());
        // No SESAME artefacts in the baseline run.
        assert!(p.series().pof().is_empty());
        assert!(p
            .events()
            .iter()
            .all(|e| !matches!(e.event, SystemEvent::ConsertDecision { .. })));
    }

    #[test]
    fn persons_are_found_during_survey() {
        let mut p = Platform::new(quick_config());
        p.launch();
        p.run_until_complete(SimTime::from_secs(600));
        assert!(
            !p.tasks().mission().findings().is_empty(),
            "3 persons in a small area must be seen"
        );
        let (attempts, hits, _) = p.detection_stats(0);
        let _ = (attempts, hits);
    }

    #[test]
    fn pof_series_is_sampled_per_second() {
        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..100 {
            p.step();
        }
        assert_eq!(p.series().pof().len(), 10);
        assert_eq!(p.series().trajectory(0).len(), 10);
        assert_eq!(p.series().uav_count(), 3);
    }

    #[test]
    fn dependability_report_reflects_live_state() {
        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..100 {
            p.step();
        }
        let report = p.dependability_report(0).expect("SESAME is on");
        assert_eq!(
            report.verdict,
            crate::coengineering::DependabilityVerdict::Dependable
        );
        assert!(report.render().contains("dependable"));
        // Baseline has no EDDIs to fuse.
        let mut cfg = quick_config();
        cfg.sesame_enabled = false;
        let baseline = Platform::new(cfg);
        assert!(baseline.dependability_report(0).is_none());
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = PlatformConfig::builder()
            .fleet(FleetSpec::uniform(2))
            .scan_altitude_m(25.0)
            .area_m(200.0, 100.0)
            .person_count(4)
            .seed(9)
            .visibility(0.8)
            .motors(6, 1)
            .build()
            .expect("valid config");
        assert_eq!(cfg.fleet.total(), 2);
        assert_eq!(cfg.motor_count, 6);
        assert_eq!(cfg.tolerated_motor_failures, 1);

        assert_eq!(
            PlatformConfig::builder()
                .fleet(FleetSpec::uniform(0))
                .build()
                .unwrap_err(),
            ConfigError::NoUavs
        );
        // Per-group profile validation resolves against the defaults.
        assert_eq!(
            PlatformConfig::builder()
                .fleet(
                    FleetSpec::builder()
                        .group(2, crate::fleet::UavProfile::default().motors(5, 0))
                        .build()
                )
                .build()
                .unwrap_err(),
            ConfigError::UnsupportedMotorCount
        );
        assert_eq!(
            PlatformConfig::builder()
                .scan_altitude_m(0.0)
                .build()
                .unwrap_err(),
            ConfigError::NonPositiveAltitude
        );
        assert_eq!(
            PlatformConfig::builder()
                .area_m(0.0, 100.0)
                .build()
                .unwrap_err(),
            ConfigError::EmptyArea
        );
        assert_eq!(
            PlatformConfig::builder()
                .visibility(1.5)
                .build()
                .unwrap_err(),
            ConfigError::VisibilityOutOfRange
        );
        assert_eq!(
            PlatformConfig::builder().motors(5, 0).build().unwrap_err(),
            ConfigError::UnsupportedMotorCount
        );
        assert_eq!(
            PlatformConfig::builder().motors(4, 4).build().unwrap_err(),
            ConfigError::TooManyToleratedFailures
        );
        assert!(!ConfigError::NoUavs.to_string().is_empty());
    }

    #[test]
    fn step_populates_metrics_and_snapshot() {
        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..100 {
            p.step();
        }
        let m = p.metrics();
        assert_eq!(m.counter("platform.ticks"), 100);
        assert_eq!(m.counter("eddi.evals.uav0"), 100);
        assert!(m.histogram("tick.total").is_some());
        for name in phase::ALL {
            let hist = m.histogram(&sesame_obs::span::phase_metric(name));
            assert!(hist.is_some(), "phase {name} must be timed");
        }
        assert!(m.gauge("fleet.airborne").is_some());
        assert!(m.counter("bus.published") > 0);
        assert_eq!(
            p.metrics_snapshot().counter("platform.ticks"),
            m.counter("platform.ticks")
        );
    }

    #[test]
    fn snapshot_reports_the_mission_decision_only_with_sesame() {
        for sesame in [true, false] {
            let mut p = Platform::new(PlatformConfig {
                sesame_enabled: sesame,
                ..quick_config()
            });
            p.launch();
            for _ in 0..50 {
                p.step();
            }
            let snap = p.gcs().latest().expect("5 s boundary passed");
            let expected = sesame.then_some(MissionDecision::CompleteAsPlanned);
            assert_eq!(snap.mission_decision, expected, "sesame = {sesame}");
        }
    }

    #[test]
    fn gcs_link_blackout_degrades_then_falls_back_then_recovers() {
        use sesame_middleware::chaos::CommFaultKind;

        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..50 {
            p.step();
        }
        assert_eq!(p.health(0), HealthState::Nominal);

        // Cut uav1 off completely for 10 s.
        let now = p.now();
        p.comm_faults_mut().schedule(
            now,
            SimDuration::from_secs(10),
            CommFaultKind::LinkBlackout { uav: UavId::new(1) },
        );

        // Inside the degraded window (staleness ≥ 2 s, < 6 s).
        for _ in 0..30 {
            p.step();
        }
        assert_eq!(p.health(0), HealthState::Degraded);
        assert_eq!(p.health(1), HealthState::Nominal, "only uav1 is cut off");

        // Past the fallback window.
        for _ in 0..40 {
            p.step();
        }
        assert_eq!(p.health(0), HealthState::SafeFallback);
        let m = p.metrics();
        assert!(m.counter("supervision.to_degraded") >= 1);
        assert!(m.counter("supervision.to_safe_fallback") >= 1);
        assert_eq!(m.gauge("supervision.state.uav0"), Some(2.0));
        assert!(p.trace().count_kind("health_transition") >= 2);
        assert!(p.trace().count_kind("comm_fault") >= 1);

        // Blackout expires; fresh traffic restores Nominal.
        for _ in 0..80 {
            p.step();
        }
        assert_eq!(p.health(0), HealthState::Nominal);
        assert!(p.metrics().counter("supervision.to_nominal") >= 1);
    }

    #[test]
    fn dead_subscription_degrades_instead_of_panicking() {
        let mut p = Platform::new(quick_config());
        p.launch();
        p.step();
        let tap = p.ids_tap;
        p.bus
            .unsubscribe(tap)
            .expect("tap is live before the test kills it");
        for _ in 0..5 {
            p.step(); // must not panic
        }
        assert!(p.metrics().counter("bus.drain_failures") >= 5);
        assert!(p.metrics().counter("bus.drain_failures.ids_tap") >= 5);
        assert!(p.trace().count_kind("bus_degraded") >= 1);
    }

    #[test]
    fn commands_exhaust_their_retry_budget_over_a_dead_uplink() {
        use sesame_middleware::chaos::{CommFaultKind, LinkDirection};

        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..50 {
            p.step();
        }
        // Uplink dies for longer than the whole backoff ladder
        // (0.4 + 0.8 + 1.6 + 3.2 s), so every retry is swallowed too.
        let now = p.now();
        p.comm_faults_mut().schedule(
            now,
            SimDuration::from_secs(10),
            CommFaultKind::AsymmetricPartition {
                uav: UavId::new(1),
                direction: LinkDirection::Uplink,
            },
        );
        p.step();
        let wp = p.sim.true_position(p.uavs[0].handle).destination(0.0, 50.0);
        p.upload_route(0, vec![wp]);
        for _ in 0..110 {
            p.step();
        }
        let m = p.metrics();
        assert!(m.counter("commands.retried") >= 3, "full ladder walked");
        assert!(m.counter("commands.retry_exhausted") >= 1, "then gave up");
        assert!(p.trace().count_kind("command_retry") >= 3);
        assert!(p.pending_cmds.is_empty(), "nothing left pending");
        // Heartbeats died with the uplink: uav1 was demoted too.
        assert!(m.counter("supervision.to_degraded") >= 1);
    }

    #[test]
    fn retried_command_is_delivered_once_the_uplink_recovers() {
        use sesame_middleware::chaos::{CommFaultKind, LinkDirection};

        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..50 {
            p.step();
        }
        // A short 1 s outage: the initial publish and possibly the first
        // retry are lost, a later retry lands.
        let now = p.now();
        p.comm_faults_mut().schedule(
            now,
            SimDuration::from_secs(1),
            CommFaultKind::AsymmetricPartition {
                uav: UavId::new(1),
                direction: LinkDirection::Uplink,
            },
        );
        p.step();
        let applied_before = p.metrics.counter("commands.applied");
        let wp = p.sim.true_position(p.uavs[0].handle).destination(0.0, 50.0);
        p.upload_route(0, vec![wp]);
        for _ in 0..40 {
            p.step();
        }
        let m = p.metrics();
        assert!(m.counter("commands.retried") >= 1, "a retry fired");
        assert!(
            m.counter("commands.applied") > applied_before,
            "the retried waypoint was applied"
        );
        assert!(p.pending_cmds.is_empty(), "delivery acknowledged");
        assert_eq!(m.counter("commands.retry_exhausted"), 0);
    }

    /// A fast-path platform and a reference-path platform stepped in
    /// lockstep from the same seed agree bit for bit on every recorded
    /// series and decision — only the cache counters differ.
    #[test]
    fn eddi_fast_path_matches_reference_run() {
        let mut fast = Platform::new(quick_config());
        let mut cfg = quick_config();
        cfg.eddi_fast_path = false;
        let mut reference = Platform::new(cfg);
        fast.launch();
        reference.launch();
        for _ in 0..80 {
            fast.step();
            reference.step();
        }
        let (f, r) = (fast.series(), reference.series());
        assert_eq!(f.pof().len(), r.pof().len());
        for (a, b) in f.pof().iter().zip(r.pof()) {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "pof diverged at t={}", a.0);
        }
        for (a, b) in f.uncertainty().iter().zip(r.uncertainty()) {
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "uncertainty diverged at t={}",
                a.0
            );
        }
        for i in 0..fast.uav_count() {
            assert_eq!(
                fast.certified_nav_accuracy_m(i),
                reference.certified_nav_accuracy_m(i),
                "nav accuracy diverged for uav{i}"
            );
        }
        assert_eq!(
            fast.events().iter().count(),
            reference.events().iter().count()
        );
        // The fast path actually cached; the reference path reports zero.
        assert!(fast.metrics().counter("eddi.cache.hit") > 0);
        assert_eq!(reference.metrics().counter("eddi.cache.hit"), 0);
        assert_eq!(reference.metrics().counter("eddi.cache.miss"), 0);
    }

    #[test]
    fn builder_sets_eddi_fast_path() {
        let cfg = PlatformConfig::builder()
            .eddi_fast_path(false)
            .build()
            .expect("valid config");
        assert!(!cfg.eddi_fast_path);
        assert!(PlatformConfig::default().eddi_fast_path, "fast by default");
    }

    #[test]
    fn database_collects_fleet_history() {
        let mut p = Platform::new(quick_config());
        p.launch();
        for _ in 0..50 {
            p.step();
        }
        let id = p.handle(0).id();
        let history = p.database_mut().history("net:gcs", id).unwrap();
        assert_eq!(history.len(), 50);
    }
}
