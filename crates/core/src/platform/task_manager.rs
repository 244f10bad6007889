//! The task manager.
//!
//! "Located at the ground control station, makes UAV and multi-UAV
//! cooperation algorithms accessible … provides algorithms as services"
//! (§IV-A). Its service here is the SAR coverage algorithm: decompose the
//! area, generate per-UAV boustrophedon paths, track progress, and
//! redistribute strips when the mission decider demands it.

use sesame_sar::allocation::Allocation;
use sesame_sar::area::split_strips;
use sesame_sar::coverage::{boustrophedon_path, chained_path_length_m, path_length_m};
use sesame_sar::mission::SarMission;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::{TaskId, UavId};

/// The task manager: SAR mission + allocation state.
#[derive(Debug, Clone)]
pub struct TaskManager {
    mission: SarMission,
    allocation: Allocation,
    total_work_m: f64,
}

impl TaskManager {
    /// Plans a SAR mission over a rectangular AOI for the given UAVs: one
    /// strip each, lawnmower paths at `alt_m` with the camera footprint
    /// `footprint_half_m`.
    ///
    /// # Panics
    ///
    /// Panics if `uavs` is empty.
    pub fn plan(
        origin: &GeoPoint,
        width_m: f64,
        height_m: f64,
        uavs: &[UavId],
        alt_m: f64,
        footprint_half_m: f64,
    ) -> Self {
        assert!(!uavs.is_empty(), "need at least one UAV");
        let strips = split_strips(uavs.len());
        let mut mission = SarMission::new();
        let mut allocation = Allocation::new();
        let mut total = 0.0;
        for (i, (strip, uav)) in strips.iter().zip(uavs.iter()).enumerate() {
            let path =
                boustrophedon_path(origin, width_m, height_m, strip, alt_m, footprint_half_m);
            let len = path_length_m(&path);
            let task = TaskId::new(i as u32);
            allocation.assign(task, *uav, len);
            mission.add_task(task, *uav, path);
            total += len;
        }
        TaskManager {
            mission,
            allocation,
            total_work_m: total,
        }
    }

    /// The SAR mission state.
    pub fn mission(&self) -> &SarMission {
        &self.mission
    }

    /// Mutable mission state.
    pub fn mission_mut(&mut self) -> &mut SarMission {
        &mut self.mission
    }

    /// The waypoints of the task currently owned by `uav` that are still
    /// to fly (concatenated over its tasks).
    pub fn remaining_route(&self, uav: UavId) -> Vec<GeoPoint> {
        self.remaining_segments(uav).flatten().copied().collect()
    }

    /// Path length of [`TaskManager::remaining_route`] in metres, computed
    /// without building the route (bit-identical to `path_length_m` of
    /// it).
    pub fn remaining_route_length_m(&self, uav: UavId) -> f64 {
        chained_path_length_m(self.remaining_segments(uav))
    }

    /// The still-to-fly waypoints of each of `uav`'s tasks, in task order.
    fn remaining_segments(&self, uav: UavId) -> impl Iterator<Item = &[GeoPoint]> + Clone {
        self.allocation
            .tasks_of(uav)
            .iter()
            .filter_map(|task| self.mission.task(*task))
            .map(|t| t.remaining())
    }

    /// Records that `uav` reached `position`: advances waypoint progress
    /// of its tasks and mirrors the flown distance into the allocation.
    pub fn record_position(&mut self, uav: UavId, position: &GeoPoint, acceptance_m: f64) {
        // Indexed, because the loop body updates the allocation; progress
        // never changes ownership, so the task list stays put.
        for k in 0..self.allocation.tasks_of(uav).len() {
            let task = self.allocation.tasks_of(uav)[k];
            let before = self
                .mission
                .task(task)
                .map(|t| t.next_waypoint)
                .unwrap_or(0);
            let visited = self.mission.visit(task, position, acceptance_m);
            if visited > 0 {
                // Approximate flown distance by the consumed leg lengths.
                if let Some(t) = self.mission.task(task) {
                    let wps = &t.waypoints;
                    let mut flown = 0.0;
                    for k in before..before + visited {
                        if k > 0 {
                            flown += wps[k - 1].distance_3d_m(&wps[k]);
                        }
                    }
                    self.allocation.record_progress(task, flown);
                }
            }
        }
    }

    /// Redistributes the unfinished work of `lost` to `capable` UAVs,
    /// updating both the allocation and the mission owners. Returns the
    /// reassignments.
    pub fn redistribute(&mut self, lost: UavId, capable: &[UavId]) -> Vec<(TaskId, UavId, UavId)> {
        let moves = self.allocation.redistribute_from(lost, capable);
        for (task, _, to) in &moves {
            self.mission.reassign(*task, *to);
        }
        moves
    }

    /// Overall completion fraction (waypoint-weighted).
    pub fn completion(&self) -> f64 {
        self.mission.completion()
    }

    /// Whether the whole area has been covered.
    pub fn is_complete(&self) -> bool {
        self.mission.is_complete()
    }

    /// Total planned work in metres.
    pub fn total_work_m(&self) -> f64 {
        self.total_work_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan3() -> TaskManager {
        TaskManager::plan(
            &GeoPoint::new(35.0, 33.0, 0.0),
            300.0,
            200.0,
            &[UavId::new(1), UavId::new(2), UavId::new(3)],
            30.0,
            25.0,
        )
    }

    #[test]
    fn plan_assigns_one_strip_each() {
        let tm = plan3();
        assert_eq!(tm.mission().tasks().len(), 3);
        for (i, uav) in [1u32, 2, 3].iter().enumerate() {
            assert_eq!(tm.mission().tasks()[i].owner, UavId::new(*uav));
        }
        assert!(tm.total_work_m() > 500.0);
        assert!(!tm.is_complete());
        assert_eq!(tm.completion(), 0.0);
    }

    #[test]
    fn flying_the_route_completes_the_task() {
        let mut tm = plan3();
        let route = tm.remaining_route(UavId::new(1));
        assert!(!route.is_empty());
        for wp in &route {
            tm.record_position(UavId::new(1), wp, 5.0);
        }
        assert!(tm.remaining_route(UavId::new(1)).is_empty());
        assert!((tm.completion() - 1.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn redistribution_hands_over_remaining_route() {
        let mut tm = plan3();
        // UAV 3 flies half its route, then drops out.
        let route = tm.remaining_route(UavId::new(3));
        for wp in route.iter().take(route.len() / 2) {
            tm.record_position(UavId::new(3), wp, 5.0);
        }
        let moves = tm.redistribute(UavId::new(3), &[UavId::new(1), UavId::new(2)]);
        assert_eq!(moves.len(), 1);
        let (_, _, to) = moves[0];
        assert!(tm.remaining_route(UavId::new(3)).is_empty());
        let inherited = tm.remaining_route(to);
        assert!(!inherited.is_empty(), "new owner sees the leftover route");
    }

    #[test]
    fn route_length_matches_the_built_route_bit_for_bit() {
        let mut tm = plan3();
        let route = tm.remaining_route(UavId::new(3));
        for wp in route.iter().take(route.len() / 3) {
            tm.record_position(UavId::new(3), wp, 5.0);
        }
        // UAV 1 inherits UAV 3's leftover strip: a two-task owner.
        tm.redistribute(UavId::new(3), &[UavId::new(1)]);
        for uav in [1u32, 2, 3] {
            let id = UavId::new(uav);
            let built = path_length_m(&tm.remaining_route(id));
            assert_eq!(tm.remaining_route_length_m(id).to_bits(), built.to_bits());
        }
    }

    #[test]
    fn completion_reaches_one_when_all_fly() {
        let mut tm = plan3();
        for uav in [1u32, 2, 3] {
            let route = tm.remaining_route(UavId::new(uav));
            for wp in &route {
                tm.record_position(UavId::new(uav), wp, 5.0);
            }
        }
        assert!(tm.is_complete());
        assert_eq!(tm.completion(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one UAV")]
    fn empty_fleet_panics() {
        let _ = TaskManager::plan(&GeoPoint::default(), 100.0, 100.0, &[], 30.0, 25.0);
    }
}
