//! Campaign jobs: the submission unit and its observable lifecycle.
//!
//! A *job* is one campaign — a `.sesame` scenario source plus a seed
//! range — and decomposes into one *run* per seed. Runs are the
//! scheduling grain: the runtime's workers pull `(job, seed)` units off
//! one queue, so many campaigns multiplex over the same pool and a
//! large campaign never head-of-line-blocks a small one.

use sesame_scenario_dsl::{CompiledScenario, Compiler};
use sesame_types::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A service-assigned campaign identifier, unique for the lifetime of
/// the run log (ids keep growing across restarts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The most seeds one campaign may sweep. Each seed is a queued run, so
/// the bound caps what one request can make the service hold.
pub const MAX_SEED_COUNT: u64 = 65_536;

/// What a client submits: a scenario source, the seed range to sweep,
/// and an optional deadline clamp. The clamp is part of the submission
/// (and of the persisted log record), not server configuration — replay
/// must re-apply exactly what ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// A label for diagnostics; the compiled scenario's declared name
    /// is authoritative.
    pub name: String,
    /// The full `.sesame` source text.
    pub source: String,
    /// First seed of the sweep.
    pub seed_start: u64,
    /// How many consecutive seeds to run (1 ..= [`MAX_SEED_COUNT`]).
    pub seed_count: u64,
    /// Clamp the scenario deadline to this many milliseconds (0 = run
    /// as declared).
    pub clamp_ms: u64,
}

impl JobSpec {
    /// A spec over `source` sweeping `seed_start..seed_start+seed_count`.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        seed_start: u64,
        seed_count: u64,
    ) -> Self {
        JobSpec {
            name: name.into(),
            source: source.into(),
            seed_start,
            seed_count,
            clamp_ms: 0,
        }
    }

    /// Sets the deadline clamp.
    pub fn clamp_ms(mut self, ms: u64) -> Self {
        self.clamp_ms = ms;
        self
    }

    /// The seeds this campaign sweeps, in run order.
    pub fn seeds(&self) -> impl Iterator<Item = u64> {
        self.seed_start..self.seed_start.saturating_add(self.seed_count)
    }

    /// Compiles and validates the submission, applying the clamp. This
    /// is the only path from a spec to something runnable — submission
    /// and restart recovery both go through it, so a spec that was
    /// accepted once always recompiles the same way (DSL compilation is
    /// pure). The seed range is checked first: it must hold 1 to
    /// [`MAX_SEED_COUNT`] seeds and end within `u64`.
    pub fn compile(&self) -> Result<CompiledScenario, String> {
        if self.seed_count == 0 {
            return Err("a campaign must sweep at least one seed".into());
        }
        if self.seed_count > MAX_SEED_COUNT {
            return Err(format!(
                "a campaign may sweep at most {MAX_SEED_COUNT} seeds, not {}",
                self.seed_count
            ));
        }
        if self.seed_start.checked_add(self.seed_count).is_none() {
            return Err(format!(
                "seed range {} + {} overflows u64",
                self.seed_start, self.seed_count
            ));
        }
        let compiled = Compiler::new()
            .compile_str(&self.name, &self.source)
            .map_err(|e| e.render())?;
        let first = compiled
            .into_iter()
            .next()
            .ok_or_else(|| "the submission declares no scenario".to_string())?;
        Ok(if self.clamp_ms > 0 {
            first.with_deadline_clamped(SimTime::from_millis(self.clamp_ms))
        } else {
            first
        })
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and logged; no run has started yet.
    Queued,
    /// At least one run started; not all have completed.
    Running,
    /// Every seed has a logged, digest-carrying run.
    Completed,
    /// A run panicked or the job could not be recovered; the message
    /// says why. Failed jobs keep their completed runs replayable.
    Failed(String),
}

impl JobState {
    /// One lowercase word for wire rendering.
    pub fn word(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One completed run's persisted facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFact {
    /// Closed-loop ticks the run took.
    pub ticks: u64,
    /// The end-of-run conformance digest.
    pub digest: u64,
}

/// A point-in-time view of a job, cheap to copy out of the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job's id.
    pub id: JobId,
    /// The scenario's declared name.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// First seed of the sweep.
    pub seed_start: u64,
    /// Seeds in the sweep.
    pub seed_count: u64,
    /// Completed runs, including recovered ones.
    pub completed_runs: u64,
    /// Runs completed by a *previous* process life and recovered from
    /// the log at startup.
    pub recovered_runs: u64,
    /// Digest per completed seed.
    pub digests: BTreeMap<u64, RunFact>,
}

impl JobStatus {
    /// The one-line wire rendering `STATUS` returns.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "{} state={} name={} seeds={}..{} runs={}/{} recovered={}",
            self.id,
            self.state.word(),
            self.name,
            self.seed_start,
            self.seed_start.saturating_add(self.seed_count),
            self.completed_runs,
            self.seed_count,
            self.recovered_runs,
        );
        if let JobState::Failed(reason) = &self.state {
            line.push_str(" error=");
            line.push_str(&reason.replace('\n', " | "));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
scenario "unit" {
    world { area = (60.0, 40.0), persons = 1 }
    mission { deadline = 120s }
}
"#;

    #[test]
    fn spec_compiles_and_clamps() {
        let spec = JobSpec::new("unit", SRC, 0, 2).clamp_ms(10_000);
        let compiled = spec.compile().expect("compiles");
        assert_eq!(compiled.name(), "unit");
        assert_eq!(compiled.deadline(), SimTime::from_secs(10));
        assert_eq!(spec.seeds().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn zero_seeds_and_bad_source_are_rejected() {
        assert!(JobSpec::new("z", SRC, 0, 0).compile().is_err());
        let err = JobSpec::new("bad", "scenario {", 0, 1)
            .compile()
            .unwrap_err();
        assert!(err.contains("error"), "diagnostic rendered: {err}");
    }

    #[test]
    fn seed_range_is_bounded_and_must_not_overflow() {
        let at_cap = JobSpec::new("cap", SRC, 0, MAX_SEED_COUNT);
        assert!(at_cap.compile().is_ok());
        assert_eq!(at_cap.seeds().count() as u64, MAX_SEED_COUNT);
        let err = JobSpec::new("over", SRC, 0, MAX_SEED_COUNT + 1)
            .compile()
            .unwrap_err();
        assert!(err.contains("at most"), "{err}");
        let err = JobSpec::new("wrap", SRC, u64::MAX - 1, 2)
            .compile()
            .unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The last seed range that still ends within u64 is accepted.
        assert!(JobSpec::new("edge", SRC, u64::MAX - 2, 2).compile().is_ok());
    }

    #[test]
    fn status_line_is_single_line_even_for_multiline_errors() {
        let status = JobStatus {
            id: JobId(7),
            name: "x".into(),
            state: JobState::Failed("boom\nline2".into()),
            seed_start: 0,
            seed_count: 3,
            completed_runs: 1,
            recovered_runs: 0,
            digests: BTreeMap::new(),
        };
        let line = status.render_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("state=failed"));
    }
}
