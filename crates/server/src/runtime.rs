//! The long-lived campaign runtime: a std-only thread pool multiplexing
//! many concurrent campaigns, journaling every completion to the run
//! log, and streaming progress through the [`Fanout`].
//!
//! # Scheduling
//!
//! A campaign decomposes into one `(job, seed)` unit per seed; all
//! units share one FIFO queue drained by `workers` threads. Each unit
//! runs its scenario through the exact loop the batch binaries use
//! ([`Scenario::step_once`] until [`Scenario::should_stop`]), so a
//! digest computed here is directly comparable to one computed by
//! `scenario run` or a conformance suite. Inside a unit, the platform's
//! own sharded tick still fans out over the process-wide
//! `sesame_core::shard` pool for large fleets — the service adds
//! *between-campaign* parallelism on top of the *within-tick*
//! parallelism that already exists.
//!
//! # Crash and restart discipline
//!
//! The only durable state is the run log. [`ServerRuntime::start`] on an
//! existing log verifies the digest chain, rebuilds the job table from
//! the records, re-enqueues exactly the seeds that have no
//! `RunCompleted` record, and counts the rest as recovered. Because
//! every run is a pure function of (source, seed, clamp) — all three in
//! the submission record — a run completed before a crash and one
//! completed after recovery are bit-identical, which
//! [`ServerRuntime::replay`] checks on demand.

use crate::job::{JobId, JobSpec, JobState, JobStatus, RunFact};
use crate::log::{self, LogError, Record, RunLog};
use crate::stream::{Fanout, StreamEvent};
use sesame_core::checkpoint::digest_platform;
use sesame_core::scenario::Scenario;
use sesame_core::shard::panic_message;
use sesame_obs::MetricsSnapshot;
use sesame_scenario_dsl::CompiledScenario;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs for a runtime instance. Everything affecting *what a
/// run computes* lives in the [`JobSpec`] instead — the config only
/// shapes scheduling and streaming cadence, so two differently
/// configured servers replaying the same log agree on every digest.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the unit queue.
    pub workers: usize,
    /// Stream a snapshot + metrics delta every this many ticks (when
    /// the job has subscribers). 10 ticks = 1 simulated second.
    pub snapshot_every_ticks: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 16),
            snapshot_every_ticks: 10,
        }
    }
}

/// Why a service operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The run log rejected a read or write.
    Log(LogError),
    /// The submission failed to compile; the string is the rendered
    /// caret diagnostic.
    Compile(String),
    /// No such job.
    UnknownJob(JobId),
    /// The seed has no completed (logged) run to replay against.
    RunNotCompleted {
        /// The job asked about.
        job: JobId,
        /// The seed with no logged run.
        seed: u64,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Log(e) => write!(f, "{e}"),
            ServerError::Compile(e) => write!(f, "submission does not compile: {e}"),
            ServerError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServerError::RunNotCompleted { job, seed } => {
                write!(f, "{job} seed {seed} has no completed run to replay")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<LogError> for ServerError {
    fn from(e: LogError) -> Self {
        ServerError::Log(e)
    }
}

/// What a replay verification produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The job replayed.
    pub job: JobId,
    /// The seed replayed.
    pub seed: u64,
    /// Ticks and digest the live run logged.
    pub logged: RunFact,
    /// Ticks the replay took.
    pub ticks: u64,
    /// The digest the replay produced.
    pub digest: u64,
}

impl ReplayReport {
    /// True when the replay is bit-identical to the logged live run.
    pub fn matches(&self) -> bool {
        self.digest == self.logged.digest && self.ticks == self.logged.ticks
    }
}

struct Job {
    spec: JobSpec,
    /// Compiled at submit, or at recovery while seeds remain to run;
    /// `None` once the job completes or fails (a replay recompiles
    /// `spec`), so the job table keeps no scenario it will not run.
    compiled: Option<CompiledScenario>,
    state: JobState,
    completed: BTreeMap<u64, RunFact>,
    recovered: u64,
}

impl Job {
    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            name: self.spec.name.clone(),
            state: self.state.clone(),
            seed_start: self.spec.seed_start,
            seed_count: self.spec.seed_count,
            completed_runs: self.completed.len() as u64,
            recovered_runs: self.recovered,
            digests: self.completed.clone(),
        }
    }
}

struct State {
    log: RunLog,
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<(u64, u64)>,
    next_job: u64,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when units are queued or shutdown is requested.
    work_cv: Condvar,
    /// Wakes `wait` watchers on any job progress.
    watch_cv: Condvar,
    fanout: Fanout,
    config: ServerConfig,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A cheaply cloneable handle to the campaign service. All clones share
/// one scheduler, one log, and one fanout; [`ServerRuntime::shutdown`]
/// stops the shared workers.
#[derive(Clone)]
pub struct ServerRuntime {
    inner: Arc<Inner>,
}

impl ServerRuntime {
    /// Starts the service on `log_path`. A fresh path begins an empty
    /// log; an existing one is chain-verified and recovered — completed
    /// runs are kept, unfinished campaigns re-enqueue their missing
    /// seeds. A corrupt log refuses to start (see [`LogError`]).
    pub fn start(log_path: impl AsRef<Path>, config: ServerConfig) -> Result<Self, ServerError> {
        let path = log_path.as_ref();
        let (state, finish_records) = if path.exists() {
            let (log, records) = RunLog::open(path)?;
            Self::recover(log, &records)
        } else {
            (
                State {
                    log: RunLog::create(path)?,
                    jobs: BTreeMap::new(),
                    queue: VecDeque::new(),
                    next_job: 1,
                },
                Vec::new(),
            )
        };
        let mut state = state;
        // Jobs whose last run completed right before the crash may be
        // missing only their JobFinished marker; append it now.
        for job in finish_records {
            state.log.append(&Record::JobFinished { job })?;
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            watch_cv: Condvar::new(),
            fanout: Fanout::new(),
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        for i in 0..config.workers.max(1) {
            let worker = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sesame-server-{i}"))
                    .spawn(move || worker_loop(worker))
                    .expect("spawn server worker"),
            );
        }
        *inner.handles.lock().unwrap() = handles;
        Ok(ServerRuntime { inner })
    }

    /// Rebuilds the job table and unit queue from verified log records.
    /// Returns the state plus the ids needing a late `JobFinished`.
    fn recover(log: RunLog, records: &[Record]) -> (State, Vec<u64>) {
        let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
        let mut next_job = 1u64;
        for record in records {
            match record {
                Record::JobSubmitted {
                    job,
                    name,
                    source,
                    seed_start,
                    seed_count,
                    clamp_ms,
                } => {
                    let spec = JobSpec::new(name.clone(), source.clone(), *seed_start, *seed_count)
                        .clamp_ms(*clamp_ms);
                    next_job = next_job.max(job + 1);
                    jobs.insert(
                        *job,
                        Job {
                            spec,
                            compiled: None,
                            state: JobState::Queued,
                            completed: BTreeMap::new(),
                            recovered: 0,
                        },
                    );
                }
                Record::RunCompleted {
                    job,
                    seed,
                    ticks,
                    digest,
                } => {
                    if let Some(j) = jobs.get_mut(job) {
                        j.completed.insert(
                            *seed,
                            RunFact {
                                ticks: *ticks,
                                digest: *digest,
                            },
                        );
                    }
                }
                Record::JobFinished { job } => {
                    if let Some(j) = jobs.get_mut(job) {
                        j.state = JobState::Completed;
                    }
                }
            }
        }
        let mut queue = VecDeque::new();
        let mut finish = Vec::new();
        for (id, job) in jobs.iter_mut() {
            job.recovered = job.completed.len() as u64;
            if job.state == JobState::Completed {
                continue;
            }
            match job.spec.compile() {
                Ok(compiled) => job.compiled = Some(compiled),
                Err(e) => {
                    job.state = JobState::Failed(format!("recovery recompile failed: {e}"));
                    continue;
                }
            }
            let missing: Vec<u64> = job
                .spec
                .seeds()
                .filter(|s| !job.completed.contains_key(s))
                .collect();
            if missing.is_empty() {
                job.state = JobState::Completed;
                finish.push(*id);
            } else {
                if !job.completed.is_empty() {
                    job.state = JobState::Running;
                }
                queue.extend(missing.into_iter().map(|s| (*id, s)));
            }
        }
        (
            State {
                log,
                jobs,
                queue,
                next_job,
            },
            finish,
        )
    }

    /// Accepts a campaign: compiles and validates the submission,
    /// journals it, enqueues its seeds, and returns the new id.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServerError> {
        let compiled = spec.compile().map_err(ServerError::Compile)?;
        let mut state = self.inner.state.lock().unwrap();
        let id = state.next_job;
        state.next_job += 1;
        state.log.append(&Record::JobSubmitted {
            job: id,
            name: compiled.name().to_string(),
            source: spec.source.clone(),
            seed_start: spec.seed_start,
            seed_count: spec.seed_count,
            clamp_ms: spec.clamp_ms,
        })?;
        let seeds: Vec<u64> = spec.seeds().collect();
        let name = compiled.name().to_string();
        let seed_count = spec.seed_count;
        state.jobs.insert(
            id,
            Job {
                spec,
                compiled: Some(compiled),
                state: JobState::Queued,
                completed: BTreeMap::new(),
                recovered: 0,
            },
        );
        state.queue.extend(seeds.into_iter().map(|s| (id, s)));
        drop(state);
        self.inner.work_cv.notify_all();
        self.inner.fanout.publish(StreamEvent::JobQueued {
            job: JobId(id),
            name,
            seed_count,
        });
        Ok(JobId(id))
    }

    /// A point-in-time status of one job.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServerError> {
        let state = self.inner.state.lock().unwrap();
        state
            .jobs
            .get(&id.0)
            .map(|j| j.status(id))
            .ok_or(ServerError::UnknownJob(id))
    }

    /// Statuses of every job, id order.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        state
            .jobs
            .iter()
            .map(|(id, j)| j.status(JobId(*id)))
            .collect()
    }

    /// Subscribes to the event stream of one job (or all with `None`).
    pub fn subscribe(&self, job: Option<JobId>) -> Receiver<Arc<StreamEvent>> {
        self.inner.fanout.subscribe(job)
    }

    /// Blocks until `id` completes or fails (or the service shuts
    /// down), returning its final status.
    pub fn wait(&self, id: JobId) -> Result<JobStatus, ServerError> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            let Some(job) = state.jobs.get(&id.0) else {
                return Err(ServerError::UnknownJob(id));
            };
            if matches!(job.state, JobState::Completed | JobState::Failed(_))
                || self.inner.shutdown.load(Ordering::Acquire)
            {
                return Ok(job.status(id));
            }
            state = self.inner.watch_cv.wait(state).unwrap();
        }
    }

    /// Re-runs a completed seed from the job's logged description and
    /// compares against the logged digest. The replay is a fresh
    /// scenario built from the recompiled source — nothing of the live
    /// run's state is reused, so a match means the log alone reproduces
    /// the run bit-for-bit.
    pub fn replay(&self, id: JobId, seed: u64) -> Result<ReplayReport, ServerError> {
        let (spec, fact) = {
            let state = self.inner.state.lock().unwrap();
            let job = state.jobs.get(&id.0).ok_or(ServerError::UnknownJob(id))?;
            let fact = *job
                .completed
                .get(&seed)
                .ok_or(ServerError::RunNotCompleted { job: id, seed })?;
            (job.spec.clone(), fact)
        };
        let compiled = spec.compile().map_err(ServerError::Compile)?;
        let (ticks, digest) = execute_run(&compiled, seed, u64::MAX, |_| {});
        Ok(ReplayReport {
            job: id,
            seed,
            logged: fact,
            ticks,
            digest,
        })
    }

    /// The run log's whole-history chain digest right now.
    pub fn chain(&self) -> u64 {
        self.inner.state.lock().unwrap().log.chain()
    }

    /// Stream delivery/drop counters (see [`Fanout`]).
    pub fn stream_counters(&self) -> (u64, u64) {
        (self.inner.fanout.delivered(), self.inner.fanout.dropped())
    }

    /// Stops the service: workers finish the unit they are executing,
    /// queued units are **abandoned** (kill semantics — exactly what a
    /// process death looks like to the log), and the log is left
    /// flushed. Restarting on the same path re-enqueues the abandoned
    /// units.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        let handles: Vec<_> = self.inner.handles.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.inner.watch_cv.notify_all();
    }
}

/// Replays one run straight from a log file, without a running service:
/// verify the chain, find the submission and the completed run, re-run,
/// compare. A torn or tampered log fails here with the typed
/// [`LogError`] before any simulation starts.
pub fn replay_offline(
    log_path: impl AsRef<Path>,
    id: JobId,
    seed: u64,
) -> Result<ReplayReport, ServerError> {
    let records = log::read_all(log_path)?;
    let mut spec: Option<JobSpec> = None;
    let mut fact: Option<RunFact> = None;
    for record in &records {
        match record {
            Record::JobSubmitted {
                job,
                name,
                source,
                seed_start,
                seed_count,
                clamp_ms,
            } if *job == id.0 => {
                spec = Some(
                    JobSpec::new(name.clone(), source.clone(), *seed_start, *seed_count)
                        .clamp_ms(*clamp_ms),
                );
            }
            Record::RunCompleted {
                job,
                seed: s,
                ticks,
                digest,
            } if *job == id.0 && *s == seed => {
                fact = Some(RunFact {
                    ticks: *ticks,
                    digest: *digest,
                });
            }
            _ => {}
        }
    }
    let spec = spec.ok_or(ServerError::UnknownJob(id))?;
    let fact = fact.ok_or(ServerError::RunNotCompleted { job: id, seed })?;
    let compiled = spec.compile().map_err(ServerError::Compile)?;
    let (ticks, digest) = execute_run(&compiled, seed, u64::MAX, |_| {});
    Ok(ReplayReport {
        job: id,
        seed,
        logged: fact,
        ticks,
        digest,
    })
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let (job_id, seed, compiled) = {
            let mut state = inner.state.lock().unwrap();
            let unit = loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match state.queue.pop_front() {
                    Some(unit) => break unit,
                    None => state = inner.work_cv.wait(state).unwrap(),
                }
            };
            let (id, seed) = unit;
            let Some(job) = state.jobs.get_mut(&id) else {
                continue;
            };
            // Units of a job that failed meanwhile are dropped.
            if matches!(job.state, JobState::Failed(_)) {
                continue;
            }
            if job.state == JobState::Queued {
                job.state = JobState::Running;
            }
            let Some(compiled) = job.compiled.clone() else {
                continue;
            };
            (id, seed, compiled)
        };
        inner.fanout.publish(StreamEvent::RunStarted {
            job: JobId(job_id),
            seed,
        });
        let every = inner.config.snapshot_every_ticks.max(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_run(&compiled, seed, every, |progress| {
                if inner.fanout.has_subscribers(JobId(job_id)) {
                    emit_progress(&inner.fanout, JobId(job_id), seed, progress);
                }
            })
        }));
        let mut state = inner.state.lock().unwrap();
        match outcome {
            Ok((ticks, digest)) => {
                let append = state.log.append(&Record::RunCompleted {
                    job: job_id,
                    seed,
                    ticks,
                    digest,
                });
                let chain = match append {
                    Ok(chain) => chain,
                    Err(e) => {
                        mark_failed(
                            &mut state,
                            &inner.fanout,
                            job_id,
                            format!("log append: {e}"),
                        );
                        drop(state);
                        inner.watch_cv.notify_all();
                        continue;
                    }
                };
                let mut finished = None;
                if let Some(job) = state.jobs.get_mut(&job_id) {
                    job.completed.insert(seed, RunFact { ticks, digest });
                    if job.spec.seeds().all(|s| job.completed.contains_key(&s)) {
                        job.state = JobState::Completed;
                        job.compiled = None;
                        finished = Some(job.completed.len() as u64);
                    }
                }
                if finished.is_some() {
                    let _ = state.log.append(&Record::JobFinished { job: job_id });
                }
                drop(state);
                inner.fanout.publish(StreamEvent::RunCompleted {
                    job: JobId(job_id),
                    seed,
                    ticks,
                    digest,
                    chain,
                });
                if let Some(runs) = finished {
                    inner.fanout.publish(StreamEvent::JobCompleted {
                        job: JobId(job_id),
                        runs,
                    });
                }
            }
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                mark_failed(
                    &mut state,
                    &inner.fanout,
                    job_id,
                    format!("seed {seed} panicked: {msg}"),
                );
                drop(state);
            }
        }
        inner.watch_cv.notify_all();
    }
}

fn mark_failed(state: &mut State, fanout: &Fanout, job_id: u64, error: String) {
    if let Some(job) = state.jobs.get_mut(&job_id) {
        job.state = JobState::Failed(error.clone());
        job.compiled = None;
    }
    fanout.publish(StreamEvent::JobFailed {
        job: JobId(job_id),
        error,
    });
}

/// Progress handed to the streaming observer every `every` ticks.
pub struct RunProgress<'a> {
    /// Closed-loop tick count.
    pub tick: u64,
    /// Simulation time, milliseconds.
    pub time_ms: u64,
    /// The running scenario (read-only).
    pub scenario: &'a Scenario,
    /// Metrics at the previous observation, for delta computation.
    pub prev_metrics: &'a mut Option<MetricsSnapshot>,
}

fn emit_progress(fanout: &Fanout, job: JobId, seed: u64, progress: RunProgress<'_>) {
    let platform = progress.scenario.platform();
    fanout.publish(StreamEvent::Snapshot {
        job,
        seed,
        tick: progress.tick,
        time_ms: progress.time_ms,
        completion: platform.completion(),
        persons_found: platform.tasks().mission().findings().len(),
    });
    let current = platform.metrics_snapshot();
    let delta = match progress.prev_metrics.as_ref() {
        Some(prev) => current.delta_since(prev),
        None => current.delta_since(&MetricsSnapshot::default()),
    };
    if !delta.is_empty() {
        fanout.publish(StreamEvent::Metrics {
            job,
            seed,
            tick: progress.tick,
            delta,
        });
    }
    *progress.prev_metrics = Some(current);
}

/// Runs one seed to completion through the canonical step loop,
/// invoking `observe` every `every` ticks, and returns the tick count
/// plus the end-of-run conformance digest. Observation is read-only, so
/// streamed and unstreamed runs are bit-identical — the digest never
/// depends on who was watching.
fn execute_run(
    compiled: &CompiledScenario,
    seed: u64,
    every: u64,
    mut observe: impl FnMut(RunProgress<'_>),
) -> (u64, u64) {
    let mut scenario = compiled.builder(seed).build();
    scenario.launch();
    let mut prev_metrics: Option<MetricsSnapshot> = None;
    loop {
        let now = scenario.step_once();
        let tick = scenario.platform().total_ticks();
        if tick.is_multiple_of(every) {
            observe(RunProgress {
                tick,
                time_ms: now.as_millis(),
                scenario: &scenario,
                prev_metrics: &mut prev_metrics,
            });
        }
        if scenario.should_stop(now) {
            break;
        }
    }
    let ticks = scenario.platform().total_ticks();
    let digest = digest_platform(scenario.platform());
    (ticks, digest)
}

sesame_types::assert_send_sync!(ServerConfig, ServerError, ReplayReport, JobSpec, JobStatus);

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerRuntime>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const SRC: &str = r#"
scenario "runtime_unit" {
    world { area = (60.0, 40.0), persons = 1 }
    mission { deadline = 60s }
}
"#;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sesame-runtime-{}-{name}.runlog",
            std::process::id()
        ));
        p
    }

    fn holds_compiled(rt: &ServerRuntime, id: JobId) -> bool {
        rt.inner.state.lock().unwrap().jobs[&id.0]
            .compiled
            .is_some()
    }

    fn config(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            snapshot_every_ticks: 10,
        }
    }

    #[test]
    fn submit_run_wait_and_replay_match() {
        let path = tmp("basic");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, config(2)).unwrap();
        let spec = JobSpec::new("runtime_unit", SRC, 3, 2).clamp_ms(8_000);
        let id = rt.submit(spec).unwrap();
        let status = rt.wait(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.completed_runs, 2);
        assert!(
            !holds_compiled(&rt, id),
            "a finished job drops its scenario"
        );
        for seed in [3, 4] {
            let report = rt.replay(id, seed).unwrap();
            assert!(report.matches(), "replay diverged: {report:?}");
        }
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_recovers_completed_runs_and_finishes_the_rest() {
        let path = tmp("restart");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, config(1)).unwrap();
        let id = rt
            .submit(JobSpec::new("runtime_unit", SRC, 0, 3).clamp_ms(6_000))
            .unwrap();
        // Let at least one run land in the log, then kill with work
        // still queued.
        let rx = rt.subscribe(Some(id));
        loop {
            let ev = rx.recv().expect("stream open");
            if matches!(&*ev, StreamEvent::RunCompleted { .. }) {
                break;
            }
        }
        rt.shutdown();
        let before = rt.status(id).unwrap();
        assert!(before.completed_runs < 3, "kill happened mid-campaign");
        let digests_before = before.digests.clone();

        let rt2 = ServerRuntime::start(&path, config(2)).unwrap();
        let after = rt2.wait(id).unwrap();
        assert_eq!(after.state, JobState::Completed);
        assert!(!holds_compiled(&rt2, id));
        assert_eq!(after.completed_runs, 3);
        assert!(after.recovered_runs >= 1);
        // Runs recovered from the log kept their digests verbatim.
        for (seed, fact) in &digests_before {
            assert_eq!(after.digests.get(seed), Some(fact));
        }
        // And every seed — logged before or after the restart — replays
        // bit-identically.
        for seed in 0..3 {
            assert!(rt2.replay(id, seed).unwrap().matches());
        }
        rt2.shutdown();
        std::fs::remove_file(&path).ok();
    }

    /// A logged job that no longer compiles, for a bad source or an
    /// oversize seed range, fails at recovery without queueing a run.
    #[test]
    fn unfinished_job_that_no_longer_compiles_fails_at_recovery() {
        let path = tmp("recompile");
        std::fs::remove_file(&path).ok();
        let mut log = RunLog::create(&path).unwrap();
        for (job, source, seed_start, seed_count) in
            [(1, "scenario {", 0, 1), (2, SRC, 7, u64::MAX)]
        {
            log.append(&Record::JobSubmitted {
                job,
                name: "bad".into(),
                source: source.into(),
                seed_start,
                seed_count,
                clamp_ms: 5_000,
            })
            .unwrap();
        }
        drop(log);
        let rt = ServerRuntime::start(&path, config(1)).unwrap();
        for id in [JobId(1), JobId(2)] {
            let status = rt.status(id).unwrap();
            // Rendering must not overflow on the oversize range.
            let line = status.render_line();
            assert!(
                matches!(&status.state, JobState::Failed(e) if e.starts_with("recovery recompile failed")),
                "{line}"
            );
            assert!(!holds_compiled(&rt, id));
        }
        assert!(rt.inner.state.lock().unwrap().queue.is_empty());
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_job_and_uncompleted_seed_error_cleanly() {
        let path = tmp("errors");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, config(1)).unwrap();
        assert!(matches!(
            rt.status(JobId(99)),
            Err(ServerError::UnknownJob(_))
        ));
        let id = rt
            .submit(JobSpec::new("runtime_unit", SRC, 0, 1).clamp_ms(5_000))
            .unwrap();
        rt.wait(id).unwrap();
        assert!(matches!(
            rt.replay(id, 42),
            Err(ServerError::RunNotCompleted { .. })
        ));
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_submission_is_rejected_before_touching_the_log() {
        let path = tmp("reject");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, config(1)).unwrap();
        let chain_before = rt.chain();
        let err = rt.submit(JobSpec::new("bad", "scenario {", 0, 1));
        assert!(matches!(err, Err(ServerError::Compile(_))));
        assert_eq!(rt.chain(), chain_before);
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
