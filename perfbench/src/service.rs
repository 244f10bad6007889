//! `service_library`: the in-tree scenario library as campaign traffic
//! through `sesame-server` over TCP.
//!
//! Two client connections run a closed loop against two workers and a
//! fresh run log. Campaign `i` of a run takes library file
//! `f = (i + seed) mod F` and that file's own seeds `2f` and `2f + 1`,
//! with the deadline clamped: every round of the library serves the same
//! units, and the run seed picks the file each round starts at. Clients
//! stop only at a round boundary, so every run serves each file the same
//! number of times.
//!
//! Every library fleet is submitted serial (`shards = serial`; shard
//! count never changes a digest): two workers already fill two cores,
//! and a sharded tick's fan-out would make every run wait on stalls of
//! either core.
//!
//! Correctness: every completed seed is replayed with
//! `ServerRuntime::replay` and must match its logged digest. The tick
//! figures come from re-running the first round's units in-process with
//! `Scenario::step_once` after the service has stopped, on two threads
//! twice each, every digest checked against the log.
//!
//! The traced run replaces that pass: an untraced window, then the same
//! campaigns with spans on, both with a drained stream subscriber and a
//! ping before every campaign; then every served unit is re-run
//! in-process to read its phase histograms, and its digest must equal
//! the service's `RunCompleted` digest.

use crate::layers::LayerTotals;
use crate::metrics::{median, peak_rss_mb, percentile, Combine, Report, StepTimes};
use crate::trace::{SpanId, Tracer, NO_SPAN};
use crate::{Args, Outcome};
use sesame_core::checkpoint::digest_platform;
use sesame_scenario_dsl::CompiledScenario;
use sesame_server::{
    Client, JobId, JobSpec, JobState, JobStatus, Record, RunLog, Server, ServerConfig,
    ServerRuntime, StreamEvent,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SEEDS_PER_CAMPAIGN: u64 = 2;
/// Deadline clamp: long enough for the spoofing (from 120 s), the
/// broker outage and partitions (180-190 s), the first compute panic
/// (150 s) and the blackouts (from 150 s) of the library to fire.
const CLAMP_MS: u64 = 200_000;
const TINY_CLAMP_MS: u64 = 20_000;
const TINY_FILES: usize = 2;
/// `ServerRuntime::start` + `Server::bind` cycles timed per batch; a run
/// times three batches, at its start, after serving and at its end, so
/// its median spans the run rather than its first half second.
const SETUP_REPEATS: usize = 33;
/// Lanes of the in-process tick pass, one thread each, as many as the
/// service has workers, and the rounds each lane runs; a library file's
/// tick figures are the median over its four repeats (see `Combine`).
const TICK_LANES: usize = 2;
const TICK_ROUNDS: usize = 2;

/// One library file that compiles standalone.
struct LibraryFile {
    name: String,
    source: String,
}

struct Library {
    files: Vec<LibraryFile>,
    clamp_ms: u64,
}

impl Library {
    fn spec(&self, c: &Campaign) -> JobSpec {
        let f = &self.files[c.file];
        JobSpec::new(
            f.name.clone(),
            f.source.clone(),
            c.seed_start,
            SEEDS_PER_CAMPAIGN,
        )
        .clamp_ms(self.clamp_ms)
    }

    fn campaign(&self, run_seed: u64, index: u64) -> Campaign {
        let n = self.files.len() as u64;
        let file = (index + run_seed % n) % n;
        Campaign {
            index,
            file: file as usize,
            seed_start: file * SEEDS_PER_CAMPAIGN,
        }
    }
}

#[derive(Clone, Copy)]
struct Campaign {
    index: u64,
    file: usize,
    seed_start: u64,
}

impl Campaign {
    fn seeds(&self) -> std::ops::Range<u64> {
        self.seed_start..self.seed_start + SEEDS_PER_CAMPAIGN
    }
}

/// Makes every fleet serial: `shards = <policy>` becomes `shards = serial`.
fn serial_fleet(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for line in source.lines() {
        let trimmed = line.trim_start();
        let is_shards = trimmed
            .strip_prefix("shards")
            .is_some_and(|rest| rest.trim_start().starts_with('='));
        if is_shards {
            out.push_str(&line[..line.len() - trimmed.len()]);
            out.push_str("shards = serial");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Loads `scenarios/*.sesame` in name order. A file that uses `include`
/// cannot travel as one SUBMIT body, so it is left out, as is any file
/// that does not compile on its own; both are reported on stderr.
fn load_library(root: &Path, tiny: bool) -> Result<Library, String> {
    let dir = root.join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sesame"))
        .collect();
    paths.sort();
    let clamp_ms = if tiny { TINY_CLAMP_MS } else { CLAMP_MS };
    let mut files = Vec::new();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("campaign")
            .to_string();
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if source
            .lines()
            .any(|l| l.trim_start().starts_with("include "))
        {
            eprintln!("perfbench: service_library excludes {name}: it uses `include`");
            continue;
        }
        let source = serial_fleet(&source);
        let compiled = JobSpec::new(name.clone(), source.clone(), 0, 1)
            .clamp_ms(clamp_ms)
            .compile();
        if let Err(e) = compiled {
            let first = e.lines().next().unwrap_or("");
            eprintln!("perfbench: service_library excludes {name}: {first}");
            continue;
        }
        files.push(LibraryFile { name, source });
    }
    if tiny {
        files.truncate(TINY_FILES);
    }
    if files.is_empty() {
        return Err(format!("no usable scenario in {}", dir.display()));
    }
    Ok(Library { files, clamp_ms })
}

/// Hands out campaign indices to the clients. Untimed passes run exactly
/// `limit` campaigns; timed passes open a new round of the library only
/// while the budget lasts, and always finish the rounds they opened.
struct Planner {
    files: u64,
    next: u64,
    rounds_open: u64,
    closed: bool,
    limit: Option<u64>,
    deadline: Instant,
}

impl Planner {
    fn take(&mut self) -> Option<u64> {
        let i = self.next;
        match self.limit {
            Some(limit) if i >= limit => return None,
            Some(_) => {}
            None if i / self.files < self.rounds_open => {}
            None => {
                if self.closed || (self.rounds_open > 0 && Instant::now() >= self.deadline) {
                    self.closed = true;
                    return None;
                }
                self.rounds_open = i / self.files + 1;
            }
        }
        self.next += 1;
        Some(i)
    }
}

/// One campaign as a client saw it.
struct Served {
    campaign: Campaign,
    job: Option<JobId>,
    latency_ms: f64,
    completed: bool,
}

/// A window of closed-loop traffic.
struct Window {
    served: Vec<Served>,
    wall_s: f64,
    pings_us: Vec<f64>,
}

struct Service {
    rt: ServerRuntime,
    server: Server,
    log: PathBuf,
}

impl Service {
    /// Starts a runtime on a log path that does not exist yet.
    fn start(log: PathBuf) -> Result<Service, String> {
        let config = ServerConfig {
            workers: WORKERS,
            snapshot_every_ticks: 10,
        };
        let rt = ServerRuntime::start(&log, config).map_err(|e| format!("start: {e}"))?;
        let server = Server::bind(rt.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Service { rt, server, log })
    }

    fn stop(mut self) {
        self.server.stop();
        self.rt.shutdown();
        std::fs::remove_file(&self.log).ok();
    }
}

/// Runs the clients until the planner stops them.
fn serve(
    service: &Service,
    lib: &Library,
    run_seed: u64,
    planner: Planner,
    ping: bool,
    tracer: &mut Tracer,
) -> Window {
    let planner = Mutex::new(planner);
    let addr = service.server.addr();
    let started = Instant::now();
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let planner = &planner;
                let mut local = tracer.fork();
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut pings = Vec::new();
                    let request = local
                        .request(|| format!("service_library/seed-{run_seed}/client-{client}"));
                    let t = Instant::now();
                    let connected = Client::connect(addr);
                    local.record("Client::connect", request, NO_SPAN, t, Instant::now());
                    let mut conn = match connected {
                        Ok(c) => Some(c),
                        Err(e) => {
                            eprintln!("perfbench: client {client} cannot connect: {e}");
                            None
                        }
                    };
                    while let Some(index) = planner.lock().expect("planner lock").take() {
                        let campaign = lib.campaign(run_seed, index);
                        let Some(c) = conn.as_mut() else {
                            served.push(Served {
                                campaign,
                                job: None,
                                latency_ms: 0.0,
                                completed: false,
                            });
                            continue;
                        };
                        let (outcome, rtt_us) =
                            run_campaign(c, lib, campaign, ping, &mut local, run_seed);
                        pings.extend(rtt_us);
                        served.push(outcome);
                    }
                    (served, pings, local)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("client thread"));
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut served = Vec::new();
    let mut pings_us = Vec::new();
    for (s, p, local) in results {
        served.extend(s);
        pings_us.extend(p);
        tracer.absorb(local);
    }
    served.sort_by_key(|s| s.campaign.index);
    Window {
        served,
        wall_s,
        pings_us,
    }
}

/// Stream events as the drain thread received them.
type Events = Vec<(Instant, Arc<StreamEvent>)>;

/// Runs the clients, pinging before every campaign, while a subscriber
/// drains the stream; returns the window, the events it received and
/// the count the stream dropped.
fn serve_observed(
    service: &Service,
    lib: &Library,
    run_seed: u64,
    planner: Planner,
    tracer: &mut Tracer,
) -> (Window, Events, u64) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let rx = service.rt.subscribe(None);
    let drain = {
        let events = Arc::clone(&events);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => events
                    .lock()
                    .expect("event lock")
                    .push((Instant::now(), ev)),
                Err(RecvTimeoutError::Timeout) if stop.load(Ordering::Acquire) => return,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        })
    };
    let window = serve(service, lib, run_seed, planner, true, tracer);
    // Every RunCompleted is published after its job's status changes, so
    // wait for the stream to catch up before stopping the drain.
    let expected = logged(&service.rt.jobs()).len();
    let patience = Instant::now() + Duration::from_secs(30);
    while Instant::now() < patience {
        let seen = events
            .lock()
            .expect("event lock")
            .iter()
            .filter(|(_, e)| matches!(**e, StreamEvent::RunCompleted { .. }))
            .count();
        if seen >= expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);
    drain.join().expect("stream drain thread");
    let (_, dropped) = service.rt.stream_counters();
    let events = std::mem::take(&mut *events.lock().expect("event lock"));
    (window, events, dropped)
}

/// Submits one campaign and waits for it; returns it and the ping round
/// trip taken before it when `ping` is set.
fn run_campaign(
    client: &mut Client,
    lib: &Library,
    campaign: Campaign,
    ping: bool,
    tracer: &mut Tracer,
    run_seed: u64,
) -> (Served, Option<f64>) {
    let mut rtt_us = None;
    let mut ping_span = None;
    if ping {
        let t = Instant::now();
        let ok = client.ping().is_ok();
        let e = Instant::now();
        if ok {
            rtt_us = Some((e - t).as_secs_f64() * 1e6);
        }
        ping_span = Some((t, e));
    }
    let spec = lib.spec(&campaign);
    let t_submit = Instant::now();
    let submitted = client.submit(&spec);
    let t_wait = Instant::now();
    let waited = submitted.as_ref().ok().map(|id| client.wait(*id));
    let t_done = Instant::now();
    let latency_ms = (t_done - t_submit).as_secs_f64() * 1e3;
    let job = submitted.as_ref().ok().copied();
    let completed = match &waited {
        Some(Ok(status)) => status.is_completed() && status.completed_runs == SEEDS_PER_CAMPAIGN,
        _ => false,
    };
    if !completed {
        let why = match (&submitted, &waited) {
            (Err(e), _) => format!("submit failed: {e}"),
            (_, Some(Err(e))) => format!("wait failed: {e}"),
            (_, Some(Ok(s))) => s.line.clone(),
            _ => String::new(),
        };
        eprintln!(
            "perfbench: campaign {} ({}) did not complete: {why}",
            campaign.index, spec.name
        );
    }
    if tracer.on() {
        let request = tracer.request(|| match job {
            Some(id) => format!("service_library/seed-{run_seed}/{id}"),
            None => format!(
                "service_library/seed-{run_seed}/campaign-{}",
                campaign.index
            ),
        });
        let start = ping_span.map_or(t_submit, |(s, _)| s);
        let root = tracer.record("campaign", request, NO_SPAN, start, t_done);
        if let Some((s, e)) = ping_span {
            tracer.record("Client::ping", request, root, s, e);
        }
        tracer.record("Client::submit", request, root, t_submit, t_wait);
        tracer.record("Client::wait", request, root, t_wait, t_done);
    }
    (
        Served {
            campaign,
            job,
            latency_ms,
            completed,
        },
        rtt_us,
    )
}

/// The logged digest of every completed `(job, seed)`.
fn logged(statuses: &[JobStatus]) -> HashMap<(JobId, u64), u64> {
    statuses
        .iter()
        .flat_map(|s| {
            s.digests
                .iter()
                .map(|(seed, fact)| ((s.id, *seed), fact.digest))
        })
        .collect()
}

/// Replays every completed seed with `ServerRuntime::replay` on the
/// service's worker count; returns the mismatches.
fn replay_all(rt: &ServerRuntime, units: &[(JobId, u64)], tracer: &mut Tracer) -> u64 {
    let mut mismatches = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let mut local = tracer.fork();
                scope.spawn(move || {
                    let mut bad = 0u64;
                    for &(job, seed) in units.iter().skip(w).step_by(WORKERS) {
                        let request = local.request(|| format!("service_library/{job}/seed-{seed}"));
                        let t = Instant::now();
                        let report = rt.replay(job, seed);
                        local.record("ServerRuntime::replay", request, NO_SPAN, t, Instant::now());
                        match report {
                            Ok(r) if r.matches() => {}
                            Ok(r) => {
                                eprintln!(
                                    "perfbench: replay of {job} seed {seed} diverged: logged {:#018x}, replay {:#018x}",
                                    r.logged.digest, r.digest
                                );
                                bad += 1;
                            }
                            Err(e) => {
                                eprintln!("perfbench: replay of {job} seed {seed} failed: {e}");
                                bad += 1;
                            }
                        }
                    }
                    (bad, local)
                })
            })
            .collect();
        for h in handles {
            let (bad, local) = h.join().expect("replay thread");
            mismatches += bad;
            tracer.absorb(local);
        }
    });
    mismatches
}

/// What an in-process re-run of one served unit measured.
struct Rerun {
    digest: u64,
    build_ms: f64,
}

/// Re-runs one `(spec, seed)` with `Scenario::step_once`, timing every
/// step; adds the run's phase histograms to `layers` when given.
fn rerun(
    compiled: &CompiledScenario,
    seed: u64,
    tracer: &mut Tracer,
    request: usize,
    parent: SpanId,
    steps: &mut StepTimes,
    layers: Option<&mut LayerTotals>,
) -> Rerun {
    let t = Instant::now();
    let mut scenario = compiled.builder(seed).build();
    let t_built = Instant::now();
    scenario.launch();
    let t_launched = Instant::now();
    let build_ms = (t_built - t).as_secs_f64() * 1e3;
    tracer.record("ScenarioBuilder::build", request, parent, t, t_built);
    tracer.record("Scenario::launch", request, parent, t_built, t_launched);
    loop {
        let (now, s, e) = steps.time(|| scenario.step_once());
        tracer.record("Scenario::step_once", request, parent, s, e);
        if scenario.should_stop(now) {
            break;
        }
    }
    let platform = scenario.platform();
    let (ticks, step_us) = steps.end_run(platform.uav_count());
    let t = Instant::now();
    let digest = digest_platform(platform);
    tracer.record(
        "checkpoint::digest_platform",
        request,
        parent,
        t,
        Instant::now(),
    );
    if let Some(layers) = layers {
        let t = Instant::now();
        let snapshot = platform.metrics_snapshot();
        tracer.record(
            "Platform::metrics_snapshot",
            request,
            parent,
            t,
            Instant::now(),
        );
        layers.add_run(&snapshot, ticks, step_us);
    }
    Rerun { digest, build_ms }
}

/// The library tick pass: `TICK_LANES` threads each re-run every unit of
/// `first_round` in-process `rounds` times, every digest checked against
/// the log. Returns the step times of every lane and the mismatches.
fn tick_pass(
    lib: &Library,
    first_round: &[Served],
    digests: &HashMap<(JobId, u64), u64>,
    rounds: usize,
    tracer: &mut Tracer,
) -> (StepTimes, u64) {
    let mut steps = StepTimes::default();
    let mut mismatches = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TICK_LANES)
            .map(|_| {
                let mut local = tracer.fork();
                scope.spawn(move || {
                    let mut steps = StepTimes::default();
                    let mut bad = 0u64;
                    for _ in 0..rounds {
                        for served in first_round {
                            let compiled = compile(lib, &served.campaign);
                            steps.group(served.campaign.file);
                            for seed in served.campaign.seeds() {
                                let r =
                                    rerun(&compiled, seed, &mut local, 0, NO_SPAN, &mut steps, None);
                                let logged = served.job.and_then(|id| digests.get(&(id, seed)));
                                if logged != Some(&r.digest) {
                                    eprintln!(
                                        "perfbench: in-process run of {} seed {seed} differs from the service",
                                        lib.files[served.campaign.file].name
                                    );
                                    bad += 1;
                                }
                            }
                        }
                    }
                    (steps, bad, local)
                })
            })
            .collect();
        for h in handles {
            let (lane, bad, local) = h.join().expect("tick pass thread");
            steps.absorb(lane);
            mismatches += bad;
            tracer.absorb(local);
        }
    });
    (steps, mismatches)
}

fn compile(lib: &Library, campaign: &Campaign) -> CompiledScenario {
    lib.spec(campaign)
        .compile()
        .expect("library files were compiled when the library loaded")
}

/// A run log path under `out_dir` with nothing at it.
fn fresh_log(out_dir: &Path, tag: &str) -> PathBuf {
    let path = out_dir.join(format!("service-{}-{tag}.runlog", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Starts and stops the service `SETUP_REPEATS` times; adds each
/// start + bind time, in seconds, to `times`.
fn time_setup(
    out_dir: &Path,
    tracer: &mut Tracer,
    run_seed: u64,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    let request = tracer.request(|| format!("service_library/seed-{run_seed}/setup"));
    for i in 0..SETUP_REPEATS {
        let log = fresh_log(out_dir, &format!("setup-{i}"));
        let t = Instant::now();
        let service = Service::start(log)?;
        let e = Instant::now();
        tracer.record("ServerRuntime::start+Server::bind", request, NO_SPAN, t, e);
        times.push((e - t).as_secs_f64());
        service.stop();
    }
    Ok(())
}

fn failures(window: &Window, statuses: &[JobStatus]) -> u64 {
    let by_id: HashMap<JobId, &JobStatus> = statuses.iter().map(|s| (s.id, s)).collect();
    window
        .served
        .iter()
        .filter(|s| {
            !s.completed
                || s.job
                    .and_then(|id| by_id.get(&id))
                    .is_none_or(|st| st.state != JobState::Completed)
        })
        .count() as u64
}

pub fn run(
    args: &Args,
    root: &Path,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let lib = load_library(root, args.tiny)?;
    let budget = Duration::from_secs(args.seconds);
    let files = lib.files.len() as u64;
    let timed = |limit: Option<u64>, budget: Duration| Planner {
        files,
        next: 0,
        rounds_open: 0,
        closed: false,
        limit,
        deadline: Instant::now() + budget,
    };
    let log = |tag: &str| fresh_log(out_dir, tag);
    let mut report = Report::default();

    if !args.trace {
        let mut setups = Vec::new();
        time_setup(out_dir, tracer, args.seed, &mut setups)?;
        let service = Service::start(log("main"))?;
        let limit = args.tiny.then_some(files);
        let window = serve(
            &service,
            &lib,
            args.seed,
            timed(limit, budget),
            false,
            tracer,
        );
        let statuses = service.rt.jobs();
        let digests = logged(&statuses);
        let mut units: Vec<(JobId, u64)> = digests.keys().copied().collect();
        units.sort();
        let runs = units.len() as u64;
        let mut failed = failures(&window, &statuses) + replay_all(&service.rt, &units, tracer);
        service.stop();
        time_setup(out_dir, tracer, args.seed, &mut setups)?;

        // The tick figures: every unit of the first round, in-process.
        let first_round = &window.served[..window.served.len().min(lib.files.len())];
        let rounds = if args.tiny { 1 } else { TICK_ROUNDS };
        let (mut steps, mismatches) = tick_pass(&lib, first_round, &digests, rounds, tracer);
        failed += mismatches;
        let mut campaign_ms: Vec<f64> = window.served.iter().map(|s| s.latency_ms).collect();
        campaign_ms.sort_by(f64::total_cmp);
        time_setup(out_dir, tracer, args.seed, &mut setups)?;
        report.set("setup_s", median(&setups));
        steps.report(&mut report, Combine::GeometricMean);
        report.set("peak_rss_mb", peak_rss_mb());
        report.set("runs_per_sec", runs as f64 / window.wall_s);
        report.set("campaign_ms_p50", percentile(&campaign_ms, 0.50));
        report.set("campaign_ms_p90", percentile(&campaign_ms, 0.90));
        eprintln!(
            "perfbench: service_library: {} campaigns, {runs} runs in {:.2} s, {failed} failures",
            window.served.len(),
            window.wall_s
        );
        return Ok(Outcome {
            attempted: window.served.len() as u64,
            failed,
            trustworthy: true,
            report,
        });
    }

    // Traced run. Layer probes that need no service first.
    report.set("dsl.compile_ms", time_compiles(&lib, tracer, args.seed));
    report.set(
        "server.log_append_us",
        time_log_appends(&lib, &log("scratch"), tracer, args.seed)?,
    );

    // An untraced pass over half the budget, then the same campaigns with
    // spans on. Both passes drain a stream subscriber (which also turns on
    // snapshot emission) and ping before every campaign, so spans are the
    // only difference between them.
    let quiet_service = Service::start(log("untraced"))?;
    let mut quiet = Tracer::new(false);
    let (first, _, first_dropped) = serve_observed(
        &quiet_service,
        &lib,
        args.seed,
        timed(args.tiny.then_some(files), budget / 2),
        &mut quiet,
    );
    let first_statuses = quiet_service.rt.jobs();
    let first_digests = logged(&first_statuses);
    let mut failed = failures(&first, &first_statuses);
    quiet_service.stop();

    let service = Service::start(log("traced"))?;
    let count = first.served.len() as u64;
    let (second, events, second_dropped) = serve_observed(
        &service,
        &lib,
        args.seed,
        timed(Some(count), budget),
        tracer,
    );
    let statuses = service.rt.jobs();
    failed += failures(&second, &statuses);
    service.stop();
    let stream_dropped = first_dropped + second_dropped;

    // Queue wait and run time from the stream.
    let mut queued: HashMap<JobId, Instant> = HashMap::new();
    let mut started: HashMap<(JobId, u64), Instant> = HashMap::new();
    let mut completed: HashMap<(JobId, u64), u64> = HashMap::new();
    let (mut waits, mut runs) = (Vec::new(), Vec::new());
    for (at, ev) in &events {
        match &**ev {
            StreamEvent::JobQueued { job, .. } => {
                queued.insert(*job, *at);
            }
            StreamEvent::RunStarted { job, seed } => {
                started.insert((*job, *seed), *at);
                if let Some(q) = queued.get(job) {
                    waits.push(at.saturating_duration_since(*q).as_secs_f64() * 1e3);
                }
            }
            StreamEvent::RunCompleted {
                job, seed, digest, ..
            } => {
                completed.insert((*job, *seed), *digest);
                if let Some(s) = started.get(&(*job, *seed)) {
                    runs.push(at.saturating_duration_since(*s).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
    }
    let busy_ms: f64 = runs.iter().sum();
    waits.sort_by(f64::total_cmp);
    report.set("server.queue_wait_ms_p50", percentile(&waits, 0.50));
    report.set("server.queue_wait_ms_p90", percentile(&waits, 0.90));
    report.set("server.run_ms_p50", median(&runs));
    report.set(
        "server.worker_busy_ratio",
        busy_ms / 1e3 / (WORKERS as f64 * second.wall_s),
    );
    report.set("server.rtt_us_p50", median(&second.pings_us));
    report.set("server.stream_dropped", stream_dropped as f64);
    report.set(
        "trace.overhead_pct",
        (second.wall_s / first.wall_s - 1.0) * 100.0,
    );
    report.set("core.step_us_2shards", 0.0);

    // Every served unit again, in-process, for its phase histograms.
    let mut layers = LayerTotals::default();
    let mut steps = StepTimes::default();
    let mut builds = Vec::new();
    let first_by_index: HashMap<u64, JobId> = first
        .served
        .iter()
        .filter_map(|s| s.job.map(|j| (s.campaign.index, j)))
        .collect();
    for served in &second.served {
        let Some(job) = served.job else { continue };
        let compiled = compile(&lib, &served.campaign);
        for seed in served.campaign.seeds() {
            let request =
                tracer.request(|| format!("service_library/seed-{}/{job}/seed-{seed}", args.seed));
            let unit = tracer.open("rerun", request, NO_SPAN);
            let r = rerun(
                &compiled,
                seed,
                tracer,
                request,
                unit,
                &mut steps,
                Some(&mut layers),
            );
            tracer.close(unit);
            builds.push(r.build_ms);
            let streamed = completed.get(&(job, seed)).copied();
            let untraced = first_by_index
                .get(&served.campaign.index)
                .and_then(|j| first_digests.get(&(*j, seed)))
                .copied();
            if streamed != Some(r.digest) || untraced != Some(r.digest) {
                eprintln!(
                    "perfbench: {job} seed {seed}: in-process digest {:#018x}, streamed {streamed:x?}, untraced pass {untraced:x?}",
                    r.digest
                );
                failed += 1;
            }
        }
    }
    layers.fill(&mut report);
    report.set("scenario.build_ms", median(&builds));
    let trustworthy = layers.trustworthy() && stream_dropped == 0;
    eprintln!(
        "perfbench: service_library traced: {} campaigns, {} stream events, {stream_dropped} dropped, {} spans",
        second.served.len(),
        events.len(),
        tracer.len()
    );
    Ok(Outcome {
        attempted: (first.served.len() + second.served.len()) as u64,
        failed,
        trustworthy,
        report,
    })
}

/// Median `JobSpec::compile` time per library file, averaged over the
/// library, in ms.
fn time_compiles(lib: &Library, tracer: &mut Tracer, run_seed: u64) -> f64 {
    let request = tracer.request(|| format!("service_library/seed-{run_seed}/compile"));
    let mut per_file = Vec::new();
    for index in 0..lib.files.len() as u64 {
        let spec = lib.spec(&lib.campaign(run_seed, index));
        let mut times = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let compiled = spec.compile();
            let e = Instant::now();
            tracer.record("JobSpec::compile", request, NO_SPAN, t, e);
            assert!(compiled.is_ok(), "library files compile");
            times.push((e - t).as_secs_f64() * 1e3);
        }
        per_file.push(median(&times));
    }
    per_file.iter().sum::<f64>() / per_file.len() as f64
}

/// Mean `RunLog::append` time in µs over the records one round of the
/// library writes (a submission, one completion per seed, a finish),
/// on a scratch log.
fn time_log_appends(
    lib: &Library,
    path: &Path,
    tracer: &mut Tracer,
    run_seed: u64,
) -> Result<f64, String> {
    let request = tracer.request(|| format!("service_library/seed-{run_seed}/log"));
    let mut log = RunLog::create(path).map_err(|e| format!("scratch log: {e}"))?;
    let mut times = Vec::new();
    for round in 0..3u64 {
        for (i, file) in lib.files.iter().enumerate() {
            let job = round * 100 + i as u64 + 1;
            let mut records = vec![Record::JobSubmitted {
                job,
                name: file.name.clone(),
                source: file.source.clone(),
                seed_start: 0,
                seed_count: SEEDS_PER_CAMPAIGN,
                clamp_ms: lib.clamp_ms,
            }];
            records.extend((0..SEEDS_PER_CAMPAIGN).map(|seed| Record::RunCompleted {
                job,
                seed,
                ticks: 3000,
                digest: 0x5e5a_3e00 + seed,
            }));
            records.push(Record::JobFinished { job });
            for record in &records {
                let t = Instant::now();
                log.append(record)
                    .map_err(|e| format!("scratch log append: {e}"))?;
                let e = Instant::now();
                tracer.record("RunLog::append", request, NO_SPAN, t, e);
                times.push((e - t).as_secs_f64() * 1e6);
            }
        }
    }
    drop(log);
    std::fs::remove_file(path).ok();
    Ok(times.iter().sum::<f64>() / times.len() as f64)
}
