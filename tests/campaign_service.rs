//! Tier-1 campaign-service gate: the full client-to-replay path over a
//! live TCP server, including a kill-and-restart with the digest-chained
//! run log as the only surviving state.
//!
//! The CI-scale soak (8 clients × 34 campaigns with latency gates) lives
//! in `serverbench`; this test keeps a deterministic, seconds-scale
//! slice of the same guarantees in the default suite:
//!
//! * submit → run → stream → replay over the wire, bit-identical;
//! * kill mid-campaign, restart on the same log, recovered and fresh
//!   runs agree; and
//! * the replay digest equals the live digest computed by the plain
//!   batch path (`ScenarioBuilder` + `digest_platform`) for the same
//!   source and seed — the service adds scheduling, never simulation
//!   drift; and
//! * a plain socket client with Nagle's algorithm on gets every reply
//!   without a delayed-ACK stall; and
//! * an oversize seed range is refused with an `err` reply, and the
//!   connection and the service keep serving.

use sesame::core::checkpoint::digest_platform;
use sesame::scenario_dsl::Compiler;
use sesame::server::{
    replay_offline, Client, JobId, JobSpec, JobState, Server, ServerConfig, ServerRuntime,
    StreamEvent,
};
use sesame::types::time::SimTime;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SRC: &str = r#"
scenario "campaign_gate" {
    world { area = (80.0, 60.0), persons = 2 }
    mission { deadline = 120s }
}
"#;
const CLAMP_MS: u64 = 8_000;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sesame-campaign-{}-{name}.runlog",
        std::process::id()
    ));
    p
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        snapshot_every_ticks: 10,
    }
}

/// The digest the plain batch path computes for one seed of `SRC`,
/// bypassing the service entirely.
fn batch_digest(seed: u64) -> u64 {
    let compiled = Compiler::new()
        .compile_str("campaign_gate", SRC)
        .expect("compiles")
        .into_iter()
        .next()
        .expect("one scenario")
        .with_deadline_clamped(SimTime::from_millis(CLAMP_MS));
    let mut scenario = compiled.builder(seed).build();
    scenario.launch();
    loop {
        let now = scenario.step_once();
        if scenario.should_stop(now) {
            break;
        }
    }
    digest_platform(scenario.platform())
}

#[test]
fn service_run_equals_batch_run_and_replays_over_the_wire() {
    let path = tmp("wire");
    std::fs::remove_file(&path).ok();
    let rt = ServerRuntime::start(&path, config(2)).expect("start");
    let mut server = Server::bind(rt.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let id = client
        .submit(&JobSpec::new("campaign_gate", SRC, 5, 2).clamp_ms(CLAMP_MS))
        .expect("submit");
    let status = client.wait(id).expect("wait");
    assert!(status.is_completed(), "campaign finished: {}", status.line);
    assert_eq!(status.completed_runs, 2);

    // Replay over the wire is digest-identical for every seed.
    for seed in [5, 6] {
        assert!(client.replay(id, seed).expect("replay"), "seed {seed}");
    }
    // And the service computed exactly what the batch path computes —
    // the job runtime adds scheduling, not simulation drift.
    let report = rt.replay(id, 5).expect("replay in-process");
    assert_eq!(report.logged.digest, batch_digest(5));

    // The event stream for a finished job closes cleanly.
    let mut streamer = Client::connect(server.addr()).expect("connect streamer");
    streamer.stream(Some(id), |_| {}).expect("stream closes");

    server.stop();
    rt.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_and_restart_preserves_and_completes_campaigns() {
    let path = tmp("restart");
    std::fs::remove_file(&path).ok();

    // Life 1: one worker, a campaign wider than the pool, killed as
    // soon as the first run is durably logged.
    let rt = ServerRuntime::start(&path, config(1)).expect("start");
    let id = rt
        .submit(JobSpec::new("campaign_gate", SRC, 0, 4).clamp_ms(CLAMP_MS))
        .expect("submit");
    let rx = rt.subscribe(Some(id));
    loop {
        let ev = rx.recv().expect("stream open");
        if matches!(&*ev, StreamEvent::RunCompleted { .. }) {
            break;
        }
    }
    rt.shutdown();
    let mid = rt.status(id).expect("status");
    assert!(
        mid.completed_runs < 4,
        "kill landed mid-campaign ({} runs)",
        mid.completed_runs
    );
    let logged_before = mid.digests.clone();

    // Life 2: a differently sized pool recovers the same log and
    // finishes the campaign.
    let rt2 = ServerRuntime::start(&path, config(3)).expect("restart");
    let done = rt2.wait(id).expect("wait");
    assert_eq!(done.state, JobState::Completed);
    assert_eq!(done.completed_runs, 4);
    assert!(done.recovered_runs >= 1, "log carried runs across the kill");
    // Pre-kill digests survive verbatim; every seed replays
    // bit-identically; and both process lives agree with the batch path.
    for (seed, fact) in &logged_before {
        assert_eq!(done.digests.get(seed), Some(fact));
    }
    for seed in 0..4 {
        assert!(rt2.replay(id, seed).expect("replay").matches());
        assert_eq!(done.digests[&seed].digest, batch_digest(seed));
    }
    rt2.shutdown();

    // The log alone — no server — still proves what ran.
    let offline = replay_offline(&path, id, 0).expect("offline replay");
    assert!(offline.matches());
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_campaigns_multiplex_one_pool_without_interference() {
    let path = tmp("multiplex");
    std::fs::remove_file(&path).ok();
    let rt = ServerRuntime::start(&path, config(3)).expect("start");
    // Three campaigns over overlapping seed ranges, submitted at once.
    let ids: Vec<JobId> = (0..3)
        .map(|i| {
            rt.submit(JobSpec::new("campaign_gate", SRC, i, 2).clamp_ms(CLAMP_MS))
                .expect("submit")
        })
        .collect();
    for id in &ids {
        let status = rt.wait(*id).expect("wait");
        assert_eq!(
            status.state,
            JobState::Completed,
            "{}",
            status.render_line()
        );
    }
    // Overlapping seeds agree across campaigns: the digest depends on
    // (source, seed), never on which job or worker ran it.
    let a = rt.status(ids[0]).expect("status a");
    let b = rt.status(ids[1]).expect("status b");
    assert_eq!(a.digests[&1], b.digests[&1]);
    rt.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn plain_socket_client_gets_every_reply_without_a_delayed_ack_stall() {
    let path = tmp("plain-socket");
    std::fs::remove_file(&path).ok();
    let rt = ServerRuntime::start(&path, config(1)).expect("start");
    let mut server = Server::bind(rt.clone(), "127.0.0.1:0").expect("bind");

    // Any third-party client: a raw socket, Nagle's algorithm left on,
    // one write per request. A reply the server writes in pieces would
    // hold its second piece until this side's delayed ACK (~40 ms).
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    let mut roundtrip = |request: &[u8]| {
        let sent = Instant::now();
        writer.write_all(request).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        (reply, sent.elapsed())
    };

    // The accept loop polls every 5 ms: a first PING makes sure the
    // connection is being served before anything is timed.
    let (reply, _) = roundtrip(b"PING\n");
    assert_eq!(reply, "ok pong\n");
    let mut submit = format!("SUBMIT campaign_gate 0 1 2000 {}\n", SRC.len()).into_bytes();
    submit.extend_from_slice(SRC.as_bytes());
    let (reply, submit_rtt) = roundtrip(&submit);
    assert_eq!(reply, "ok job-1 seeds=1\n");
    let mut status_rtts: Vec<Duration> = (0..16)
        .map(|_| {
            let (reply, rtt) = roundtrip(b"STATUS job-1\n");
            assert!(reply.starts_with("ok job-1 "), "status reply: {reply}");
            rtt
        })
        .collect();
    let (reply, _) = roundtrip(b"WAIT job-1\n");
    assert!(reply.contains("state=completed"), "wait reply: {reply}");

    status_rtts.sort();
    let median = status_rtts[status_rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "STATUS round trip median {median:?}: {status_rtts:?}"
    );
    assert!(
        submit_rtt < Duration::from_millis(10),
        "SUBMIT took {submit_rtt:?}"
    );

    server.stop();
    rt.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A `SUBMIT` whose seed count is `u64::MAX` is refused before anything
/// is logged or queued: the reply is an `err`, and the same connection
/// then answers `STATUS` and `WAIT` for a job submitted before it.
#[test]
fn oversize_seed_range_is_refused_and_the_connection_keeps_serving() {
    let path = tmp("oversize");
    std::fs::remove_file(&path).ok();
    let rt = ServerRuntime::start(&path, config(1)).expect("start");
    let mut server = Server::bind(rt.clone(), "127.0.0.1:0").expect("bind");
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    let mut roundtrip = |request: &[u8]| {
        writer.write_all(request).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };
    let submit = |header: &str| {
        let mut bytes = format!("{header} {}\n", SRC.len()).into_bytes();
        bytes.extend_from_slice(SRC.as_bytes());
        bytes
    };

    assert_eq!(
        roundtrip(&submit("SUBMIT campaign_gate 0 1 2000")),
        "ok job-1 seeds=1\n"
    );
    let reply = roundtrip(&submit("SUBMIT x 0 18446744073709551615 0"));
    assert!(reply.starts_with("err "), "oversize submit reply: {reply}");
    let reply = roundtrip(b"STATUS job-1\n");
    assert!(reply.starts_with("ok job-1 "), "status reply: {reply}");
    let reply = roundtrip(b"WAIT job-1\n");
    assert!(reply.contains("state=completed"), "wait reply: {reply}");
    assert_eq!(roundtrip(b"STATUS job-2\n"), "err unknown job job-2\n");

    server.stop();
    rt.shutdown();
    std::fs::remove_file(&path).ok();
}
