//! Task allocation and redistribution.
//!
//! Strips start one-per-UAV. When the mission decider reports a UAV loss
//! with spare capacity ("Redistribute task among remaining capable UAVs",
//! Fig. 1), the orphaned strips are handed greedily to the capable UAV
//! with the least remaining work.

use sesame_types::ids::{TaskId, UavId};
use std::collections::BTreeMap;

/// The live assignment of tasks (strips) to UAVs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    /// task -> owner.
    owners: BTreeMap<TaskId, UavId>,
    /// owner -> its tasks in ascending `TaskId` order: `owners` inverted,
    /// kept in step by every ownership change so [`Allocation::tasks_of`]
    /// is a lookup instead of a scan. Owners with no tasks have no entry,
    /// so the index is a function of `owners` and equality stays exact.
    by_owner: BTreeMap<UavId, Vec<TaskId>>,
    /// Remaining work per task, metres of path.
    remaining: BTreeMap<TaskId, f64>,
}

impl Allocation {
    /// Empty allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task with its owner and workload.
    pub fn assign(&mut self, task: TaskId, owner: UavId, work_m: f64) {
        self.set_owner(task, owner);
        self.remaining.insert(task, work_m.max(0.0));
    }

    /// Moves `task` to `owner` in both the owner map and its index.
    fn set_owner(&mut self, task: TaskId, owner: UavId) {
        if let Some(prev) = self.owners.insert(task, owner) {
            if let Some(tasks) = self.by_owner.get_mut(&prev) {
                tasks.retain(|t| *t != task);
                if tasks.is_empty() {
                    self.by_owner.remove(&prev);
                }
            }
        }
        let tasks = self.by_owner.entry(owner).or_default();
        if let Err(at) = tasks.binary_search(&task) {
            tasks.insert(at, task);
        }
    }

    /// The owner of a task.
    pub fn owner(&self, task: TaskId) -> Option<UavId> {
        self.owners.get(&task).copied()
    }

    /// Remaining work of a task, metres.
    pub fn remaining(&self, task: TaskId) -> f64 {
        self.remaining.get(&task).copied().unwrap_or(0.0)
    }

    /// Records progress on a task (remaining work floors at zero).
    pub fn record_progress(&mut self, task: TaskId, done_m: f64) {
        if let Some(r) = self.remaining.get_mut(&task) {
            *r = (*r - done_m.max(0.0)).max(0.0);
        }
    }

    /// Tasks owned by a UAV, in ascending `TaskId` order.
    pub fn tasks_of(&self, uav: UavId) -> &[TaskId] {
        self.by_owner.get(&uav).map_or(&[], Vec::as_slice)
    }

    /// Total remaining work of a UAV, metres.
    pub fn load_of(&self, uav: UavId) -> f64 {
        self.tasks_of(uav).iter().map(|t| self.remaining(*t)).sum()
    }

    /// Redistributes every unfinished task of `lost` to the UAV in
    /// `capable` with the smallest current load (greedy, one task at a
    /// time). Returns the reassignments as `(task, from, to)`.
    pub fn redistribute_from(
        &mut self,
        lost: UavId,
        capable: &[UavId],
    ) -> Vec<(TaskId, UavId, UavId)> {
        if capable.is_empty() {
            return Vec::new();
        }
        let mut orphans: Vec<TaskId> = self
            .tasks_of(lost)
            .iter()
            .copied()
            .filter(|t| self.remaining(*t) > 0.0)
            .collect();
        // Hand out the biggest orphan first.
        orphans.sort_by(|a, b| {
            self.remaining(*b)
                .partial_cmp(&self.remaining(*a))
                .expect("finite work")
        });
        let mut moves = Vec::new();
        for task in orphans {
            let target = capable
                .iter()
                .copied()
                .filter(|u| *u != lost)
                .min_by(|a, b| {
                    self.load_of(*a)
                        .partial_cmp(&self.load_of(*b))
                        .expect("finite load")
                });
            let Some(to) = target else { break };
            self.set_owner(task, to);
            moves.push((task, lost, to));
        }
        moves
    }

    /// Completion fraction over all registered work.
    pub fn completion(&self, original_total_m: f64) -> f64 {
        if original_total_m <= 0.0 {
            return 1.0;
        }
        let left: f64 = self.remaining.values().sum();
        (1.0 - left / original_total_m).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Allocation {
        let mut a = Allocation::new();
        a.assign(TaskId::new(0), UavId::new(1), 300.0);
        a.assign(TaskId::new(1), UavId::new(2), 300.0);
        a.assign(TaskId::new(2), UavId::new(3), 300.0);
        a
    }

    #[test]
    fn initial_assignment() {
        let a = setup();
        assert_eq!(a.owner(TaskId::new(0)), Some(UavId::new(1)));
        assert_eq!(a.load_of(UavId::new(2)), 300.0);
        assert_eq!(a.tasks_of(UavId::new(3)), [TaskId::new(2)]);
    }

    #[test]
    fn progress_reduces_load_and_floors() {
        let mut a = setup();
        a.record_progress(TaskId::new(0), 120.0);
        assert_eq!(a.remaining(TaskId::new(0)), 180.0);
        a.record_progress(TaskId::new(0), 1e9);
        assert_eq!(a.remaining(TaskId::new(0)), 0.0);
        a.record_progress(TaskId::new(0), -50.0);
        assert_eq!(
            a.remaining(TaskId::new(0)),
            0.0,
            "negative progress ignored"
        );
    }

    #[test]
    fn redistribution_moves_unfinished_work() {
        let mut a = setup();
        a.record_progress(TaskId::new(2), 100.0); // UAV 3 did 100 of 300
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1), UavId::new(2)]);
        assert_eq!(moves.len(), 1);
        let (task, from, to) = moves[0];
        assert_eq!(task, TaskId::new(2));
        assert_eq!(from, UavId::new(3));
        assert!(to == UavId::new(1) || to == UavId::new(2));
        assert!(a.tasks_of(UavId::new(3)).is_empty());
        assert_eq!(a.remaining(TaskId::new(2)), 200.0, "progress preserved");
    }

    #[test]
    fn redistribution_balances_load() {
        let mut a = Allocation::new();
        a.assign(TaskId::new(0), UavId::new(1), 100.0);
        a.assign(TaskId::new(1), UavId::new(2), 500.0);
        a.assign(TaskId::new(2), UavId::new(3), 300.0);
        a.assign(TaskId::new(3), UavId::new(3), 200.0);
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1), UavId::new(2)]);
        assert_eq!(moves.len(), 2);
        // Biggest orphan (300) goes to the lighter UAV 1 (100), then the
        // 200 m orphan again to UAV 1 (now 400) vs UAV 2 (500) -> UAV 1.
        assert_eq!(a.load_of(UavId::new(1)), 600.0);
        assert_eq!(a.load_of(UavId::new(2)), 500.0);
    }

    #[test]
    fn finished_tasks_are_not_moved() {
        let mut a = setup();
        a.record_progress(TaskId::new(2), 300.0);
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1)]);
        assert!(moves.is_empty());
    }

    #[test]
    fn no_capable_uavs_means_no_moves() {
        let mut a = setup();
        assert!(a.redistribute_from(UavId::new(3), &[]).is_empty());
        assert_eq!(a.owner(TaskId::new(2)), Some(UavId::new(3)));
    }

    #[test]
    fn completion_fraction() {
        let mut a = setup();
        assert_eq!(a.completion(900.0), 0.0);
        a.record_progress(TaskId::new(0), 300.0);
        a.record_progress(TaskId::new(1), 150.0);
        assert!((a.completion(900.0) - 0.5).abs() < 1e-12);
        a.record_progress(TaskId::new(1), 150.0);
        a.record_progress(TaskId::new(2), 300.0);
        assert_eq!(a.completion(900.0), 1.0);
        assert_eq!(Allocation::new().completion(0.0), 1.0);
    }
}
