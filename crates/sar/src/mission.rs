//! The SAR mission state machine.
//!
//! Tracks per-task waypoint progress, person findings (with spatial
//! de-duplication so the same person reported by two UAVs counts once),
//! and the overall completion fraction — the quantity behind the paper's
//! availability and mission-completion metrics (§V-A).

use sesame_types::geo::GeoPoint;
use sesame_types::ids::{TaskId, UavId};
use sesame_types::time::SimTime;
use std::collections::HashMap;

/// Progress state of one coverage task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskState {
    /// Task id.
    pub id: TaskId,
    /// Current owner.
    pub owner: UavId,
    /// Full waypoint list.
    pub waypoints: Vec<GeoPoint>,
    /// Index of the next waypoint to visit.
    pub next_waypoint: usize,
}

impl TaskState {
    /// Fraction of waypoints visited.
    pub fn progress(&self) -> f64 {
        if self.waypoints.is_empty() {
            return 1.0;
        }
        self.next_waypoint as f64 / self.waypoints.len() as f64
    }

    /// Whether every waypoint has been visited.
    pub fn is_complete(&self) -> bool {
        self.next_waypoint >= self.waypoints.len()
    }

    /// The remaining waypoints.
    pub fn remaining(&self) -> &[GeoPoint] {
        &self.waypoints[self.next_waypoint.min(self.waypoints.len())..]
    }
}

/// One detected person (after de-duplication).
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Estimated position.
    pub position: GeoPoint,
    /// Reporting UAV.
    pub by: UavId,
    /// Detection confidence.
    pub confidence: f64,
    /// When first reported.
    pub time: SimTime,
}

/// The mission: tasks plus findings.
#[derive(Debug, Clone, Default)]
pub struct SarMission {
    tasks: Vec<TaskState>,
    /// Task id -> position in `tasks` of the first task with that id, so
    /// lookups keep the first-match semantics of a front-to-back scan.
    index: HashMap<TaskId, usize>,
    findings: Vec<Finding>,
    /// Two reports closer than this are the same person, metres.
    pub dedup_radius_m: f64,
}

impl SarMission {
    /// An empty mission with a 10 m de-duplication radius.
    pub fn new() -> Self {
        SarMission {
            tasks: Vec::new(),
            index: HashMap::new(),
            findings: Vec::new(),
            dedup_radius_m: 10.0,
        }
    }

    /// Adds a coverage task.
    pub fn add_task(&mut self, id: TaskId, owner: UavId, waypoints: Vec<GeoPoint>) {
        self.index.entry(id).or_insert(self.tasks.len());
        self.tasks.push(TaskState {
            id,
            owner,
            waypoints,
            next_waypoint: 0,
        });
    }

    /// All tasks.
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// Mutable task lookup.
    pub fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskState> {
        let at = *self.index.get(&id)?;
        self.tasks.get_mut(at)
    }

    /// Task lookup (the first task added under `id`).
    pub fn task(&self, id: TaskId) -> Option<&TaskState> {
        self.tasks.get(*self.index.get(&id)?)
    }

    /// Marks waypoints of `task` visited while the UAV is within
    /// `acceptance_m` of the next one. Returns how many were newly
    /// visited.
    pub fn visit(&mut self, task: TaskId, position: &GeoPoint, acceptance_m: f64) -> usize {
        let Some(t) = self.task_mut(task) else {
            return 0;
        };
        let mut visited = 0;
        while t.next_waypoint < t.waypoints.len() {
            let wp = &t.waypoints[t.next_waypoint];
            if wp.haversine_distance_m(position) <= acceptance_m {
                t.next_waypoint += 1;
                visited += 1;
            } else {
                break;
            }
        }
        visited
    }

    /// Reassigns a task to a new owner (redistribution).
    pub fn reassign(&mut self, task: TaskId, to: UavId) -> bool {
        match self.task_mut(task) {
            Some(t) => {
                t.owner = to;
                true
            }
            None => false,
        }
    }

    /// Reports a person detection; duplicates within
    /// [`SarMission::dedup_radius_m`] update confidence instead of adding
    /// a new finding. Returns `true` for a *new* finding.
    pub fn report_person(
        &mut self,
        position: GeoPoint,
        by: UavId,
        confidence: f64,
        time: SimTime,
    ) -> bool {
        for f in self.findings.iter_mut() {
            if f.position.haversine_distance_m(&position) <= self.dedup_radius_m {
                if confidence > f.confidence {
                    f.confidence = confidence;
                    f.position = position;
                }
                return false;
            }
        }
        self.findings.push(Finding {
            position,
            by,
            confidence,
            time,
        });
        true
    }

    /// De-duplicated findings.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Completion fraction over all tasks (waypoint-weighted).
    pub fn completion(&self) -> f64 {
        let total: usize = self.tasks.iter().map(|t| t.waypoints.len()).sum();
        if total == 0 {
            return 1.0;
        }
        let done: usize = self.tasks.iter().map(|t| t.next_waypoint).sum();
        done as f64 / total as f64
    }

    /// Whether every task is complete.
    pub fn is_complete(&self) -> bool {
        self.tasks.iter().all(|t| t.is_complete())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(i: usize) -> GeoPoint {
        GeoPoint::new(35.0, 33.0, 30.0).destination(90.0, i as f64 * 50.0)
    }

    fn mission() -> SarMission {
        let mut m = SarMission::new();
        m.add_task(TaskId::new(0), UavId::new(1), vec![wp(0), wp(1), wp(2)]);
        m.add_task(TaskId::new(1), UavId::new(2), vec![wp(3), wp(4)]);
        m
    }

    #[test]
    fn visiting_advances_progress_in_order() {
        let mut m = mission();
        assert_eq!(m.visit(TaskId::new(0), &wp(0), 5.0), 1);
        assert_eq!(m.task(TaskId::new(0)).unwrap().next_waypoint, 1);
        // Being near waypoint 2 without passing 1 does not skip.
        assert_eq!(m.visit(TaskId::new(0), &wp(2), 5.0), 0);
        assert_eq!(m.visit(TaskId::new(0), &wp(1), 5.0), 1);
        assert_eq!(m.visit(TaskId::new(0), &wp(2), 5.0), 1);
        assert!(m.task(TaskId::new(0)).unwrap().is_complete());
    }

    #[test]
    fn completion_is_waypoint_weighted() {
        let mut m = mission();
        assert_eq!(m.completion(), 0.0);
        m.visit(TaskId::new(0), &wp(0), 5.0);
        assert!((m.completion() - 0.2).abs() < 1e-12);
        for i in 1..3 {
            m.visit(TaskId::new(0), &wp(i), 5.0);
        }
        m.visit(TaskId::new(1), &wp(3), 5.0);
        m.visit(TaskId::new(1), &wp(4), 5.0);
        assert_eq!(m.completion(), 1.0);
        assert!(m.is_complete());
    }

    #[test]
    fn empty_mission_is_complete() {
        let m = SarMission::new();
        assert_eq!(m.completion(), 1.0);
        assert!(m.is_complete());
    }

    #[test]
    fn reassignment_changes_owner() {
        let mut m = mission();
        assert!(m.reassign(TaskId::new(1), UavId::new(1)));
        assert_eq!(m.task(TaskId::new(1)).unwrap().owner, UavId::new(1));
        assert!(!m.reassign(TaskId::new(9), UavId::new(1)));
    }

    #[test]
    fn person_reports_deduplicate() {
        let mut m = mission();
        let p = GeoPoint::new(35.001, 33.001, 0.0);
        assert!(m.report_person(p, UavId::new(1), 0.8, SimTime::ZERO));
        // Same person seen 3 m away by another UAV: no new finding, but
        // the better confidence wins.
        let nearby = p.destination(0.0, 3.0);
        assert!(!m.report_person(nearby, UavId::new(2), 0.95, SimTime::from_secs(1)));
        assert_eq!(m.findings().len(), 1);
        assert_eq!(m.findings()[0].confidence, 0.95);
        // A person 50 m away is someone else.
        let other = p.destination(0.0, 50.0);
        assert!(m.report_person(other, UavId::new(2), 0.7, SimTime::from_secs(2)));
        assert_eq!(m.findings().len(), 2);
    }

    #[test]
    fn lower_confidence_duplicate_does_not_downgrade() {
        let mut m = mission();
        let p = GeoPoint::new(35.001, 33.001, 0.0);
        m.report_person(p, UavId::new(1), 0.9, SimTime::ZERO);
        m.report_person(p, UavId::new(2), 0.5, SimTime::from_secs(1));
        assert_eq!(m.findings()[0].confidence, 0.9);
    }

    #[test]
    fn duplicate_ids_resolve_to_the_first_task() {
        let mut m = mission();
        m.add_task(TaskId::new(0), UavId::new(3), vec![wp(5)]);
        assert_eq!(m.task(TaskId::new(0)).unwrap().owner, UavId::new(1));
        assert!(m.reassign(TaskId::new(0), UavId::new(2)));
        assert_eq!(m.tasks()[0].owner, UavId::new(2));
        assert_eq!(m.tasks()[2].owner, UavId::new(3));
        assert!(m.task(TaskId::new(7)).is_none());
    }

    #[test]
    fn remaining_waypoints_view() {
        let mut m = mission();
        m.visit(TaskId::new(0), &wp(0), 5.0);
        let t = m.task(TaskId::new(0)).unwrap();
        assert_eq!(t.remaining().len(), 2);
        assert!((t.progress() - 1.0 / 3.0).abs() < 1e-12);
    }
}
