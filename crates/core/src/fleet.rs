//! Fleet composition and shard policy — the `FleetSpec` API.
//!
//! The paper demonstrates three UAVs; the platform is built to fly
//! hundreds. [`FleetSpec`] describes a fleet as an ordered list of
//! [`FleetGroup`]s — each a run of UAVs sharing one [`UavProfile`] — plus
//! a [`ShardPolicy`] that partitions the per-UAV tick work across worker
//! threads.
//!
//! Sharding never changes results. There is one tick implementation,
//! and the policy only chooses how many contiguous fleet windows its
//! per-UAV fan-outs (EDDI tick, proximity scan, ConSert decision) run
//! over; [`ShardPolicy::Serial`] is simply the one-window plan. Every
//! partition produces bit-identical series, events, decisions and
//! (wall-clock-free) metrics.
//!
//! # Examples
//!
//! ```
//! use sesame_core::fleet::{FleetSpec, ShardPolicy, UavProfile};
//!
//! // 3 default quads plus 2 hexacopters tolerating one motor loss,
//! // ticked in 2 shards.
//! let spec = FleetSpec::builder()
//!     .uavs(3)
//!     .group(2, UavProfile::default().motors(6, 1))
//!     .shard_policy(ShardPolicy::Fixed { shards: 2 })
//!     .build();
//! assert_eq!(spec.total(), 5);
//! ```

use std::ops::Range;

/// Per-UAV overrides applied on top of the platform-wide defaults
/// (`motor_count`, `tolerated_motor_failures`, `battery_hover_drain` of
/// [`crate::orchestrator::PlatformConfig`]). `None` inherits the default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UavProfile {
    /// Motors per airframe (4, 6 or 8); `None` inherits the platform default.
    pub motor_count: Option<usize>,
    /// Motor losses tolerated through reconfiguration.
    pub tolerated_motor_failures: Option<usize>,
    /// Battery hover drain per second.
    pub battery_hover_drain: Option<f64>,
}

impl UavProfile {
    /// Overrides motors per airframe and the tolerated motor losses.
    pub fn motors(mut self, count: usize, tolerated_failures: usize) -> Self {
        self.motor_count = Some(count);
        self.tolerated_motor_failures = Some(tolerated_failures);
        self
    }

    /// Overrides the battery hover drain per second.
    pub fn battery_hover_drain(mut self, drain: f64) -> Self {
        self.battery_hover_drain = Some(drain);
        self
    }

    /// Fills every `None` from the platform-wide defaults.
    pub fn resolve(&self, defaults: &ResolvedUavProfile) -> ResolvedUavProfile {
        ResolvedUavProfile {
            motor_count: self.motor_count.unwrap_or(defaults.motor_count),
            tolerated_motor_failures: self
                .tolerated_motor_failures
                .unwrap_or(defaults.tolerated_motor_failures),
            battery_hover_drain: self
                .battery_hover_drain
                .unwrap_or(defaults.battery_hover_drain),
        }
    }
}

/// A fully-resolved per-UAV profile (no inherited fields left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedUavProfile {
    /// Motors per airframe.
    pub motor_count: usize,
    /// Motor losses tolerated through reconfiguration.
    pub tolerated_motor_failures: usize,
    /// Battery hover drain per second.
    pub battery_hover_drain: f64,
}

/// A run of `count` consecutive UAVs sharing one profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetGroup {
    /// UAVs in this group.
    pub count: usize,
    /// The shared profile.
    pub profile: UavProfile,
}

/// How the per-UAV tick work is partitioned across worker threads.
///
/// Outputs are invariant under the policy: the shard executor merges
/// per-shard results in fleet order, so any shard count — on any core
/// count — reproduces the one-shard run bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// One shard: everything on the caller's thread.
    Serial,
    /// Exactly `shards` shards. More shards than UAVs leaves the excess
    /// empty; `0` is clamped to `1`.
    Fixed {
        /// Number of shards.
        shards: usize,
    },
    /// Serial below 16 UAVs, then roughly one shard per 32 UAVs, capped
    /// by the machine's available parallelism.
    #[default]
    Auto,
}

impl ShardPolicy {
    /// Resolves the policy to a concrete shard count for `fleet_size`
    /// UAVs. `1` means serial execution.
    pub fn shard_count(&self, fleet_size: usize) -> usize {
        match self {
            ShardPolicy::Serial => 1,
            ShardPolicy::Fixed { shards } => (*shards).max(1),
            ShardPolicy::Auto => {
                if fleet_size < 16 {
                    1
                } else {
                    let cores = std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1);
                    fleet_size.div_ceil(32).clamp(1, cores.max(1))
                }
            }
        }
    }
}

/// Declarative fleet description: ordered profile groups plus the shard
/// policy. Replaces the flat `uav_count` knob of
/// [`crate::orchestrator::PlatformConfig`]; construct via
/// [`FleetSpec::uniform`] or [`FleetSpec::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    groups: Vec<FleetGroup>,
    shard: ShardPolicy,
}

impl Default for FleetSpec {
    /// The paper's three-UAV demonstration fleet.
    fn default() -> Self {
        FleetSpec::uniform(3)
    }
}

impl FleetSpec {
    /// `count` UAVs with the default profile under the [`ShardPolicy::Auto`]
    /// policy — the exact semantics of the retired `uav_count` knob.
    pub fn uniform(count: usize) -> Self {
        FleetSpec {
            groups: vec![FleetGroup {
                count,
                profile: UavProfile::default(),
            }],
            shard: ShardPolicy::Auto,
        }
    }

    /// Starts a fluent builder with no groups and the default policy.
    pub fn builder() -> FleetSpecBuilder {
        FleetSpecBuilder {
            groups: Vec::new(),
            shard: ShardPolicy::default(),
        }
    }

    /// Total fleet size across every group.
    pub fn total(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// The profile groups, in fleet order.
    pub fn groups(&self) -> &[FleetGroup] {
        &self.groups
    }

    /// The shard policy.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shard
    }

    /// Expands the groups into one resolved profile per UAV, in fleet
    /// order, filling inherited fields from `defaults`.
    pub fn resolved(&self, defaults: &ResolvedUavProfile) -> Vec<ResolvedUavProfile> {
        let mut out = Vec::with_capacity(self.total());
        for g in &self.groups {
            let p = g.profile.resolve(defaults);
            out.extend(std::iter::repeat_n(p, g.count));
        }
        out
    }
}

/// Fluent builder for [`FleetSpec`].
#[derive(Debug, Clone)]
pub struct FleetSpecBuilder {
    groups: Vec<FleetGroup>,
    shard: ShardPolicy,
}

impl FleetSpecBuilder {
    /// Appends a group of `count` UAVs sharing `profile`.
    pub fn group(mut self, count: usize, profile: UavProfile) -> Self {
        self.groups.push(FleetGroup { count, profile });
        self
    }

    /// Appends a group of `count` default-profile UAVs.
    pub fn uavs(self, count: usize) -> Self {
        self.group(count, UavProfile::default())
    }

    /// Sets the shard policy.
    pub fn shard_policy(mut self, policy: ShardPolicy) -> Self {
        self.shard = policy;
        self
    }

    /// Finishes the spec. Composition errors (an empty fleet, an invalid
    /// motor count) surface in
    /// [`crate::orchestrator::PlatformConfigBuilder::build`], which sees
    /// the platform-wide defaults needed to resolve the profiles.
    pub fn build(self) -> FleetSpec {
        FleetSpec {
            groups: self.groups,
            shard: self.shard,
        }
    }
}

/// Splits `0..n` into `shards` contiguous ranges whose lengths differ by
/// at most one (the first `n % shards` ranges get the extra element).
/// More shards than elements leaves the tail ranges empty.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULTS: ResolvedUavProfile = ResolvedUavProfile {
        motor_count: 4,
        tolerated_motor_failures: 0,
        battery_hover_drain: 0.001,
    };

    #[test]
    fn uniform_matches_default() {
        assert_eq!(FleetSpec::default(), FleetSpec::uniform(3));
        assert_eq!(FleetSpec::uniform(7).total(), 7);
        assert_eq!(FleetSpec::uniform(0).total(), 0);
    }

    #[test]
    fn builder_composes_groups_in_order() {
        let spec = FleetSpec::builder()
            .uavs(2)
            .group(3, UavProfile::default().motors(6, 1))
            .shard_policy(ShardPolicy::Fixed { shards: 2 })
            .build();
        assert_eq!(spec.total(), 5);
        assert_eq!(spec.shard_policy(), ShardPolicy::Fixed { shards: 2 });
        let resolved = spec.resolved(&DEFAULTS);
        assert_eq!(resolved.len(), 5);
        assert_eq!(resolved[0].motor_count, 4);
        assert_eq!(resolved[1], DEFAULTS);
        assert_eq!(resolved[2].motor_count, 6);
        assert_eq!(resolved[4].tolerated_motor_failures, 1);
        assert_eq!(
            resolved[4].battery_hover_drain,
            DEFAULTS.battery_hover_drain
        );
    }

    #[test]
    fn profile_overrides_are_selective() {
        let p = UavProfile::default().battery_hover_drain(0.5);
        let r = p.resolve(&DEFAULTS);
        assert_eq!(r.motor_count, 4);
        assert_eq!(r.battery_hover_drain, 0.5);
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for (n, shards) in [(0, 1), (1, 1), (3, 8), (50, 4), (50, 7), (500, 16)] {
            let ranges = shard_ranges(n, shards);
            assert_eq!(ranges.len(), shards);
            let mut seen = 0;
            for r in &ranges {
                assert_eq!(r.start, seen, "contiguous at n={n} shards={shards}");
                seen = r.end;
            }
            assert_eq!(seen, n);
            let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(max - min <= 1, "balanced at n={n} shards={shards}");
        }
    }

    #[test]
    fn shard_ranges_with_more_shards_than_uavs_leaves_empties() {
        let ranges = shard_ranges(3, 8);
        assert_eq!(ranges.iter().filter(|r| r.is_empty()).count(), 5);
        assert_eq!(ranges.iter().map(Range::len).sum::<usize>(), 3);
    }

    #[test]
    fn shard_policy_resolution() {
        assert_eq!(ShardPolicy::Serial.shard_count(500), 1);
        assert_eq!(ShardPolicy::Fixed { shards: 0 }.shard_count(10), 1);
        assert_eq!(ShardPolicy::Fixed { shards: 9 }.shard_count(3), 9);
        assert_eq!(ShardPolicy::Auto.shard_count(3), 1);
        assert_eq!(ShardPolicy::Auto.shard_count(15), 1);
        assert!(ShardPolicy::Auto.shard_count(64) >= 1);
    }
}
