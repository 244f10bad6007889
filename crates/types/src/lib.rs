//! Shared primitives for the SESAME multi-UAV stack.
//!
//! This crate hosts the vocabulary types used by every other crate in the
//! workspace: geodetic positions and the spherical-earth geodesy the paper's
//! collaborative-localization tool relies on (haversine distances, bearings,
//! destination points), simulation time, strongly-typed identifiers,
//! telemetry records, and the cross-cutting event model.
//!
//! Everything here is deliberately free of behaviour-heavy dependencies so
//! that substrate crates (`sesame-uav-sim`, `sesame-middleware`, …) and
//! technology crates (`sesame-safedrones`, `sesame-conserts`, …) can share a
//! common language without coupling to each other.
//!
//! # Examples
//!
//! ```
//! use sesame_types::geo::GeoPoint;
//!
//! let nicosia = GeoPoint::new(35.1856, 33.3823, 0.0);
//! let limassol = GeoPoint::new(34.7071, 33.0226, 0.0);
//! let d = nicosia.haversine_distance_m(&limassol);
//! assert!((60_000.0..70_000.0).contains(&d));
//! ```

pub mod events;
pub mod geo;
pub mod ids;
pub mod inline;
pub mod telemetry;
pub mod time;

/// Compile-time proof that types are `Send + Sync` (and so may cross
/// the parallel campaign executor's worker threads). Expands to a
/// `const` block that fails to compile — with the offending type in the
/// error — if any listed type loses thread-safety, e.g. by growing an
/// `Rc` or un-`Sync` interior mutability.
///
/// ```
/// sesame_types::assert_send_sync!(sesame_types::GeoPoint, sesame_types::UavId);
/// ```
#[macro_export]
macro_rules! assert_send_sync {
    ($($ty:ty),+ $(,)?) => {
        const _: () = {
            const fn _assert_send_sync<T: Send + Sync>() {}
            $(_assert_send_sync::<$ty>();)+
        };
    };
}

pub use events::{EventLog, Severity, SystemEvent, TimedEvent};
pub use geo::{Enu, GeoPoint, Vec3};
pub use ids::{MissionId, TaskId, TopicName, UavId};
pub use inline::InlineVec;
pub use telemetry::{FlightMode, GpsFix, UavTelemetry};
pub use time::{SimClock, SimDuration, SimTime};

// The vocabulary types cross worker threads in parallel sweeps.
assert_send_sync!(
    InlineVec<u64, 4>,
    EventLog,
    TimedEvent,
    GeoPoint,
    Enu,
    Vec3,
    UavId,
    UavTelemetry,
    SimTime,
    SimDuration
);
