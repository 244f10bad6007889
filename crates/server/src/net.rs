//! The wire surface: a line-oriented TCP protocol over `std::net`.
//!
//! No async runtime, no framing library — requests are single lines
//! (`SUBMIT` carries a length-prefixed source body), responses start
//! with `ok` or `err`, and multi-record responses announce their line
//! count up front. One thread per connection; the accept loop polls a
//! nonblocking listener so [`Server::stop`] takes effect promptly.
//!
//! ```text
//! PING                                        → ok pong
//! SUBMIT <name> <seed_start> <count> <clamp_ms> <source_len>\n<source bytes>
//!                                             → ok job-N seeds=<count>
//! STATUS <job>                                → ok job-N state=... runs=...
//! WAIT <job>                                  → (blocks) ok job-N state=...
//! JOBS                                        → ok n=<k> then k status lines
//! REPLAY <job> <seed>                         → ok replay ... match=true|false
//! CHAIN                                       → ok chain=0x...
//! STREAM <job|all>                            → ok streaming, then event
//!                                               lines, then done
//! SHUTDOWN                                    → ok shutting-down
//! ```
//!
//! A request line longer than [`MAX_LINE_LEN`] bytes gets
//! `err line exceeds 4096 bytes` and the connection is closed.
//!
//! Both ends buffer their writes and set `TCP_NODELAY`: a reply (and a
//! request) reaches the kernel in one flush and leaves at once. Written
//! in pieces to a socket with Nagle's algorithm on, every piece after
//! the first would wait for the peer's delayed ACK, ~40 ms on Linux.

use crate::job::{JobId, JobSpec, JobState};
use crate::runtime::ServerRuntime;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted `SUBMIT` source body, matching the run log's frame
/// bound.
pub const MAX_SOURCE_LEN: usize = crate::log::MAX_RECORD_LEN as usize;

/// Longest accepted request line in bytes, newline included. A client
/// that sends more without a newline gets an error reply and is
/// disconnected, so one connection cannot grow the server's line buffer
/// without bound.
pub const MAX_LINE_LEN: usize = 4096;

/// A listening front end over a [`ServerRuntime`]. Stopping the server
/// stops accepting connections; the runtime (and its workers) belong to
/// the caller and outlive the listener, so a front end can be torn down
/// and re-bound — e.g. on a new port after a simulated restart —
/// without touching in-flight campaigns.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `runtime`.
    pub fn bind(runtime: ServerRuntime, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("sesame-server-accept".to_string())
            .spawn(move || loop {
                if stop_loop.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok((conn, _peer)) => {
                        let runtime = runtime.clone();
                        let stop = Arc::clone(&stop_loop);
                        let _ = std::thread::Builder::new()
                            .name("sesame-server-conn".to_string())
                            .spawn(move || {
                                let _ = handle_conn(conn, runtime, stop);
                            });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })?;
        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a stop was requested (by [`Server::stop`] or a wire
    /// `SHUTDOWN`); lets a serve loop block until told to exit.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Stops accepting connections and joins the accept loop. Existing
    /// connection threads finish their current request and exit on the
    /// next read.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn one_line(text: &str) -> String {
    text.replace('\n', " | ")
}

fn parse_job(token: &str) -> Option<JobId> {
    let raw = token.strip_prefix("job-").unwrap_or(token);
    raw.parse().ok().map(JobId)
}

fn handle_conn(conn: TcpStream, runtime: ServerRuntime, stop: Arc<AtomicBool>) -> io::Result<()> {
    conn.set_nodelay(true)?;
    let mut writer = BufWriter::new(conn.try_clone()?);
    let mut reader = BufReader::new(conn);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let read = (&mut reader)
            .take(MAX_LINE_LEN as u64 + 1)
            .read_until(b'\n', &mut raw)?;
        if read == 0 || stop.load(Ordering::Acquire) {
            return Ok(());
        }
        if read > MAX_LINE_LEN {
            writeln!(writer, "err line exceeds {MAX_LINE_LEN} bytes")?;
            writer.flush()?;
            return Ok(());
        }
        let line =
            std::str::from_utf8(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut tokens = line.split_whitespace();
        let Some(cmd) = tokens.next() else { continue };
        match cmd.to_ascii_uppercase().as_str() {
            "PING" => writeln!(writer, "ok pong")?,
            "SUBMIT" => handle_submit(&mut reader, &mut writer, &runtime, &mut tokens)?,
            "STATUS" => match tokens.next().and_then(parse_job) {
                Some(id) => match runtime.status(id) {
                    Ok(status) => writeln!(writer, "ok {}", status.render_line())?,
                    Err(e) => writeln!(writer, "err {}", one_line(&e.to_string()))?,
                },
                None => writeln!(writer, "err usage: STATUS <job>")?,
            },
            "WAIT" => match tokens.next().and_then(parse_job) {
                Some(id) => match runtime.wait(id) {
                    Ok(status) => writeln!(writer, "ok {}", status.render_line())?,
                    Err(e) => writeln!(writer, "err {}", one_line(&e.to_string()))?,
                },
                None => writeln!(writer, "err usage: WAIT <job>")?,
            },
            "JOBS" => {
                let jobs = runtime.jobs();
                writeln!(writer, "ok n={}", jobs.len())?;
                for status in jobs {
                    writeln!(writer, "{}", status.render_line())?;
                }
            }
            "REPLAY" => {
                let id = tokens.next().and_then(parse_job);
                let seed = tokens.next().and_then(|t| t.parse::<u64>().ok());
                match (id, seed) {
                    (Some(id), Some(seed)) => match runtime.replay(id, seed) {
                        Ok(report) => writeln!(
                            writer,
                            "ok replay job={} seed={} match={} ticks={} digest={:#018x} \
                             logged_ticks={} logged_digest={:#018x}",
                            report.job,
                            report.seed,
                            report.matches(),
                            report.ticks,
                            report.digest,
                            report.logged.ticks,
                            report.logged.digest,
                        )?,
                        Err(e) => writeln!(writer, "err {}", one_line(&e.to_string()))?,
                    },
                    _ => writeln!(writer, "err usage: REPLAY <job> <seed>")?,
                }
            }
            "CHAIN" => writeln!(writer, "ok chain={:#018x}", runtime.chain())?,
            "STREAM" => match tokens.next() {
                Some("all") | None => stream_events(&mut writer, &runtime, &stop, None)?,
                Some(token) => match parse_job(token) {
                    Some(id) => stream_events(&mut writer, &runtime, &stop, Some(id))?,
                    None => writeln!(writer, "err usage: STREAM <job|all>")?,
                },
            },
            "SHUTDOWN" => {
                writeln!(writer, "ok shutting-down")?;
                writer.flush()?;
                stop.store(true, Ordering::Release);
                runtime.shutdown();
                return Ok(());
            }
            other => writeln!(writer, "err unknown command {other}")?,
        }
        writer.flush()?;
    }
}

fn handle_submit(
    reader: &mut BufReader<TcpStream>,
    writer: &mut impl Write,
    runtime: &ServerRuntime,
    tokens: &mut std::str::SplitWhitespace<'_>,
) -> io::Result<()> {
    let name = tokens.next().map(str::to_string);
    let seed_start = tokens.next().and_then(|t| t.parse::<u64>().ok());
    let seed_count = tokens.next().and_then(|t| t.parse::<u64>().ok());
    let clamp_ms = tokens.next().and_then(|t| t.parse::<u64>().ok());
    let source_len = tokens.next().and_then(|t| t.parse::<usize>().ok());
    let (Some(name), Some(seed_start), Some(seed_count), Some(clamp_ms), Some(source_len)) =
        (name, seed_start, seed_count, clamp_ms, source_len)
    else {
        writeln!(
            writer,
            "err usage: SUBMIT <name> <seed_start> <count> <clamp_ms> <source_len>"
        )?;
        return Ok(());
    };
    if source_len > MAX_SOURCE_LEN {
        writeln!(writer, "err source exceeds {MAX_SOURCE_LEN} bytes")?;
        return Ok(());
    }
    let mut body = vec![0u8; source_len];
    reader.read_exact(&mut body)?;
    let Ok(source) = String::from_utf8(body) else {
        writeln!(writer, "err source is not valid UTF-8")?;
        return Ok(());
    };
    let spec = JobSpec::new(name, source, seed_start, seed_count).clamp_ms(clamp_ms);
    match runtime.submit(spec) {
        Ok(id) => writeln!(writer, "ok {id} seeds={seed_count}")?,
        Err(e) => writeln!(writer, "err {}", one_line(&e.to_string()))?,
    }
    Ok(())
}

/// Forwards fanout events as wire lines until the job's terminal event
/// (or, for `all`, until the client disconnects or the server stops),
/// then writes `done` for the caller's flush. Each wakeup writes every
/// event already queued and flushes the batch once.
fn stream_events(
    writer: &mut impl Write,
    runtime: &ServerRuntime,
    stop: &AtomicBool,
    target: Option<JobId>,
) -> io::Result<()> {
    let rx = runtime.subscribe(target);
    writeln!(writer, "ok streaming")?;
    writer.flush()?;
    while !stop.load(Ordering::Acquire) {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(first) => {
                let mut next = Some(first);
                while let Some(event) = next {
                    writeln!(writer, "{}", event.render_line())?;
                    if target.is_some() && event.is_terminal() {
                        return writeln!(writer, "done");
                    }
                    next = rx.try_recv().ok();
                }
                writer.flush()?;
            }
            Err(RecvTimeoutError::Timeout) => {
                // If a targeted job already reached a terminal state
                // before we subscribed, close the stream instead of
                // hanging forever.
                if let Some(id) = target {
                    let finished = match runtime.status(id) {
                        Ok(status) => {
                            matches!(status.state, JobState::Completed | JobState::Failed(_))
                        }
                        Err(_) => true,
                    };
                    if finished {
                        break;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    writeln!(writer, "done")
}

/// A blocking protocol client: one connection, lock-step
/// request/response. Used by the CLI, the soak bench, and tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A parsed `STATUS`/`WAIT` response.
#[derive(Debug, Clone)]
pub struct WireStatus {
    /// The job's id.
    pub job: JobId,
    /// Lifecycle word: `queued`/`running`/`completed`/`failed`.
    pub state: String,
    /// `runs=<done>/<total>` as numbers.
    pub completed_runs: u64,
    /// Total seeds in the sweep.
    pub seed_count: u64,
    /// Runs recovered from the log at startup.
    pub recovered_runs: u64,
    /// The raw status line.
    pub line: String,
}

impl WireStatus {
    fn parse(line: &str) -> Result<WireStatus, String> {
        let mut tokens = line.split_whitespace();
        let job = tokens
            .next()
            .and_then(parse_job)
            .ok_or_else(|| format!("malformed status line: {line}"))?;
        let mut state = String::new();
        let mut completed_runs = 0;
        let mut seed_count = 0;
        let mut recovered_runs = 0;
        for token in tokens {
            if let Some(v) = token.strip_prefix("state=") {
                state = v.to_string();
            } else if let Some(v) = token.strip_prefix("runs=") {
                let (done, total) = v.split_once('/').unwrap_or((v, "0"));
                completed_runs = done.parse().unwrap_or(0);
                seed_count = total.parse().unwrap_or(0);
            } else if let Some(v) = token.strip_prefix("recovered=") {
                recovered_runs = v.parse().unwrap_or(0);
            }
        }
        Ok(WireStatus {
            job,
            state,
            completed_runs,
            seed_count,
            recovered_runs,
            line: line.to_string(),
        })
    }

    /// True when every seed completed.
    pub fn is_completed(&self) -> bool {
        self.state == "completed"
    }
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        writeln!(self.writer, "{request}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        self.read_ok()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".to_string());
        }
        Ok(line.trim_end().to_string())
    }

    fn read_ok(&mut self) -> Result<String, String> {
        let line = self.read_line()?;
        if let Some(rest) = line.strip_prefix("ok") {
            Ok(rest.trim_start().to_string())
        } else if let Some(rest) = line.strip_prefix("err") {
            Err(rest.trim_start().to_string())
        } else {
            Err(format!("malformed response: {line}"))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        self.roundtrip("PING").map(|_| ())
    }

    /// Submits a campaign; returns its id.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobId, String> {
        let name = spec.name.split_whitespace().next().unwrap_or("campaign");
        writeln!(
            self.writer,
            "SUBMIT {name} {} {} {} {}",
            spec.seed_start,
            spec.seed_count,
            spec.clamp_ms,
            spec.source.len(),
        )
        .map_err(|e| e.to_string())?;
        self.writer
            .write_all(spec.source.as_bytes())
            .map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let body = self.read_ok()?;
        body.split_whitespace()
            .next()
            .and_then(parse_job)
            .ok_or_else(|| format!("malformed submit response: {body}"))
    }

    /// One job's status, now.
    pub fn status(&mut self, job: JobId) -> Result<WireStatus, String> {
        let line = self.roundtrip(&format!("STATUS {job}"))?;
        WireStatus::parse(&line)
    }

    /// Blocks server-side until the job completes or fails.
    pub fn wait(&mut self, job: JobId) -> Result<WireStatus, String> {
        let line = self.roundtrip(&format!("WAIT {job}"))?;
        WireStatus::parse(&line)
    }

    /// All jobs' status lines.
    pub fn jobs(&mut self) -> Result<Vec<String>, String> {
        let head = self.roundtrip("JOBS")?;
        let n: usize = head
            .strip_prefix("n=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("malformed jobs response: {head}"))?;
        (0..n).map(|_| self.read_line()).collect()
    }

    /// Replays one completed seed server-side; `Ok(true)` means the
    /// replay digest matched the logged live digest.
    pub fn replay(&mut self, job: JobId, seed: u64) -> Result<bool, String> {
        let line = self.roundtrip(&format!("REPLAY {job} {seed}"))?;
        Ok(line.contains("match=true"))
    }

    /// The server's current whole-log chain digest.
    pub fn chain(&mut self) -> Result<u64, String> {
        let line = self.roundtrip("CHAIN")?;
        let hex = line
            .strip_prefix("chain=0x")
            .ok_or_else(|| format!("malformed chain response: {line}"))?;
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }

    /// Starts streaming and hands each event line to `sink` until the
    /// stream's `done` marker. Returns the number of event lines seen.
    pub fn stream(
        &mut self,
        job: Option<JobId>,
        mut sink: impl FnMut(&str),
    ) -> Result<u64, String> {
        let target = match job {
            Some(id) => id.to_string(),
            None => "all".to_string(),
        };
        let head = self.roundtrip(&format!("STREAM {target}"))?;
        if head != "streaming" {
            return Err(format!("malformed stream response: {head}"));
        }
        let mut events = 0;
        loop {
            let line = self.read_line()?;
            if line == "done" {
                return Ok(events);
            }
            events += 1;
            sink(&line);
        }
    }

    /// Asks the server to stop accepting and shut the runtime down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.roundtrip("SHUTDOWN").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ServerConfig, ServerRuntime};
    use std::path::PathBuf;
    use std::time::Instant;

    const SRC: &str = r#"
scenario "net_unit" {
    world { area = (60.0, 40.0), persons = 1 }
    mission { deadline = 60s }
}
"#;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sesame-net-{}-{name}.runlog", std::process::id()));
        p
    }

    #[test]
    fn submit_wait_replay_and_stream_over_tcp() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(
            &path,
            ServerConfig {
                workers: 2,
                snapshot_every_ticks: 10,
            },
        )
        .unwrap();
        let mut server = Server::bind(rt.clone(), "127.0.0.1:0").unwrap();
        // A `STREAM all` subscriber, registered before the submit, that
        // timestamps every line as it arrives.
        let mut subscriber = TcpStream::connect(server.addr()).unwrap();
        subscriber
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        subscriber.write_all(b"STREAM all\n").unwrap();
        let mut subscriber = BufReader::new(subscriber);
        let mut head = String::new();
        subscriber.read_line(&mut head).unwrap();
        assert_eq!(head, "ok streaming\n");
        let subscriber = std::thread::spawn(move || {
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                if subscriber.read_line(&mut line).expect("stream line") == 0 {
                    return lines;
                }
                let line = line.trim_end().to_string();
                let done = line == "done";
                lines.push((Instant::now(), line));
                if done {
                    return lines;
                }
            }
        });

        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();

        let spec = JobSpec::new("net_unit", SRC, 0, 2).clamp_ms(8_000);
        let id = client.submit(&spec).unwrap();
        let status = client.wait(id).unwrap();
        let waited = Instant::now();
        assert!(status.is_completed(), "status: {}", status.line);
        assert_eq!(status.completed_runs, 2);
        for seed in [0, 1] {
            assert!(client.replay(id, seed).unwrap(), "seed {seed} diverged");
        }
        // A post-completion stream closes cleanly instead of hanging.
        let mut streamer = Client::connect(server.addr()).unwrap();
        streamer.stream(Some(id), |_| {}).unwrap();
        assert!(client.chain().unwrap() != 0);
        assert_eq!(client.jobs().unwrap().len(), 1);

        // Protocol errors are single-line and do not poison the
        // connection.
        assert!(client.status(JobId(99)).is_err());
        client.ping().unwrap();

        // Stopping the server ends the `all` stream with `done`. Every
        // run line came through, each seed's start before its
        // completion, and none later than 100 ms after the WAIT reply:
        // batches are flushed as they are written, not on a timeout.
        server.stop();
        let lines = subscriber.join().unwrap();
        assert_eq!(lines.last().unwrap().1, "done");
        let runs: Vec<&(Instant, String)> = lines
            .iter()
            .filter(|(_, line)| line.starts_with("event=run_"))
            .collect();
        assert_eq!(runs.len(), 4, "two starts, two completions: {lines:?}");
        for seed in [0, 1] {
            let position = |event: &str| {
                let prefix = format!("event={event} job={id} seed={seed}");
                runs.iter()
                    .position(|(_, line)| line.split(" ticks=").next() == Some(prefix.as_str()))
                    .unwrap_or_else(|| panic!("no {event} for seed {seed}: {lines:?}"))
            };
            assert!(position("run_started") < position("run_completed"));
        }
        let deadline = waited + Duration::from_millis(100);
        for (arrived, line) in &runs {
            assert!(*arrived <= deadline, "{line} arrived after WAIT + 100 ms");
        }

        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_submissions_are_rejected_over_the_wire() {
        let path = tmp("reject");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, ServerConfig::default()).unwrap();
        let mut server = Server::bind(rt.clone(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client
            .submit(&JobSpec::new("bad", "scenario {", 0, 1))
            .unwrap_err();
        assert!(err.contains("compile"), "error says why: {err}");
        client.ping().unwrap();
        server.stop();
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlong_request_line_is_refused_and_closed() {
        let path = tmp("overlong");
        std::fs::remove_file(&path).ok();
        let rt = ServerRuntime::start(&path, ServerConfig::default()).unwrap();
        let mut server = Server::bind(rt.clone(), "127.0.0.1:0").unwrap();

        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // 5,000 bytes and no newline: the server must stop reading at
        // the cap instead of waiting for the line to end.
        conn.write_all(&[b'A'; 5_000]).unwrap();
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, format!("err line exceeds {MAX_LINE_LEN} bytes\n"));
        // Then the server hangs up: EOF, or a reset when bytes past the
        // cap were still unread on its side at close.
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "nothing after the refusal"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
        }

        // The refusal closed that connection only.
        let mut client = Client::connect(server.addr()).unwrap();
        client.ping().unwrap();

        server.stop();
        rt.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
