//! SESAME integration layer — the multi-UAV control platform with the
//! EDDI runtime.
//!
//! This crate assembles every technology of the paper into the running
//! system of §IV: the simulated fleet (`sesame-uav-sim`), the ROS-like bus
//! and MQTT-like broker (`sesame-middleware`), the Safety EDDI
//! (SafeDrones + SafeML + DeepKnowledge + SINADRA), the Security EDDI
//! (IDS + attack trees), collaborative localization, the SAR mission
//! layer, and the ConSert network that folds all runtime evidence into
//! per-UAV and mission-level decisions.
//!
//! * [`eddi`] — the per-UAV executable EDDI runtime (the incremental
//!   fast path);
//! * [`reference`] — the naive reference runtime the fast path is
//!   lockstep-verified against;
//! * [`platform`] — UAV manager, task manager, database manager, ground
//!   control station (the five-layer architecture of §IV-A, with the GUIs
//!   replaced by headless snapshots — see DESIGN.md);
//! * [`orchestrator`] — the closed loop: simulate → sense → publish →
//!   monitor → certify → decide → actuate;
//! * [`airspace`] — the separation geometry of the airspace pass: the
//!   sort-and-sweep nearest-teammate scan and the tabulated
//!   separation-risk network;
//! * [`fleet`] — fleet composition ([`fleet::FleetSpec`]: per-profile
//!   UAV groups) and the shard policy that partitions the tick;
//! * [`shard`] — the deterministic std-only worker pool the sharded
//!   tick and the bench sweeps share (merge in item order, never
//!   completion order);
//! * [`scenario`] — declarative scenario construction (SESAME on/off,
//!   fault, communication-fault and attack schedules);
//! * [`supervision`] — the per-UAV health state machine
//!   (`Nominal → Degraded → SafeFallback`, plus the containment layer's
//!   `Quarantined`) fed by the telemetry-staleness watchdog and the GCS
//!   heartbeat monitor;
//! * [`containment`] — crash containment: the `UavFault` vocabulary,
//!   the scheduled compute-fault injector (panics, NaN/Inf telemetry,
//!   solver stalls) and the logical tick watchdog;
//! * [`checkpoint`] — periodic copy-on-write campaign checkpoints and
//!   the digest-verified `recover(checkpoint, log)` replay path;
//! * [`chaos`] — the seeded chaos-campaign runner that sweeps randomized
//!   fault schedules over full scenario runs and checks robustness
//!   invariants;
//! * [`experiments`] — the runners that regenerate every §V result
//!   (Fig. 5, the SAR-accuracy numbers, Fig. 6, Fig. 7).
//!
//! # Examples
//!
//! ```
//! use sesame_core::scenario::ScenarioBuilder;
//!
//! let outcome = ScenarioBuilder::new(42).build().run();
//! assert!(outcome.metrics.mission_completed_fraction > 0.9);
//! ```

pub mod airspace;
pub mod chaos;
pub mod checkpoint;
pub mod coengineering;
pub mod containment;
pub mod eddi;
pub mod experiments;
pub mod fleet;
pub mod orchestrator;
pub mod platform;
pub mod reference;
pub mod scenario;
pub mod shard;
pub mod supervision;

pub use chaos::{CampaignConfig, CampaignReport, ChaosCampaign};
pub use checkpoint::{Checkpoint, RecoverError};
pub use containment::{ComputeFaultKind, ComputeFaultPlane, FaultPhase, UavFault};
pub use eddi::{EddiCacheStats, EddiOutputs, UavEddiRuntime};
pub use fleet::{FleetSpec, ShardPolicy, UavProfile};
pub use orchestrator::{Platform, PlatformConfig};
pub use reference::ReferenceEddiRuntime;
pub use scenario::{Scenario, ScenarioBuilder, ScenarioOutcome};
pub use supervision::HealthState;
