//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mission_3uav --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list-metrics
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-pins > perfbench/pins.txt
//! ```
//!
//! Workloads: `mission_3uav`, `fleet_200uav`, `service_library` (see
//! `platform.rs` and `service.rs`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer ones with
//! `--trace 1`. A traced run also writes its spans and per-layer table
//! to `.bench_out/` at the repository root.
//!
//! Every run checks its results before it reports: platform digests
//! against `pins.txt`, served campaigns by replay. Any mismatch, and a
//! per-layer table that fails its sanity checks, exits with code 1.

mod layers;
mod metrics;
mod pins;
mod platform;
mod service;
mod trace;

use pins::Pins;
use platform::Kind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Counts heap allocations per thread, so that a step timed on one
/// thread is charged only its own allocations while another thread
/// steps too.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const WORKLOADS: [&str; 3] = ["mission_3uav", "fleet_200uav", "service_library"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One unit of work per workload (self-test).
    pub tiny: bool,
    /// A pin file to use instead of the built-in one.
    pub pins: Option<PathBuf>,
}

/// What a workload measured and whether it can be trusted.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a traced run's per-layer table fails its sanity checks.
    pub trustworthy: bool,
    pub report: metrics::Report,
}

const USAGE: &str = "usage: perfbench --workload <mission_3uav|fleet_200uav|service_library> \
--seed <n> --seconds <n> --trace <0|1> [--tiny] [--pins <file>]
       perfbench --list-metrics
       perfbench --write-pins";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
        pins: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--pins" => args.pins = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// The repository root this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in a directory of the repository")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--list-metrics") => {
            print!("{}", metrics::list());
            return ExitCode::SUCCESS;
        }
        Some("--write-pins") => {
            println!("# workload seed digest -- written by `perfbench --write-pins`");
            for kind in [Kind::Mission, Kind::Fleet] {
                for line in platform::pin_lines(kind) {
                    println!("{line}");
                }
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = match &args.pins {
        None => Pins::built_in(),
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Pins::parse(&t))
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: pins {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
    };
    let root = repo_root();
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "mission_3uav" => Ok(platform::run(Kind::Mission, &args, &pins, &mut tracer)),
        "fleet_200uav" => Ok(platform::run(Kind::Fleet, &args, &pins, &mut tracer)),
        _ => service::run(&args, &root, &out_dir, &mut tracer),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    let catalogue = metrics::catalogue(args.trace);
    if args.trace {
        let stem = out_dir.join(format!("{}-seed-{}", args.workload, args.seed));
        let written = std::fs::write(stem.with_extension("spans.jsonl"), tracer.render_jsonl())
            .and_then(|()| {
                std::fs::write(
                    stem.with_extension("layers.tsv"),
                    outcome.report.table(catalogue),
                )
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing the trace: {e}");
            return ExitCode::from(2);
        }
        if !outcome.trustworthy {
            eprintln!(
                "perfbench: per-layer table rejected: a run's phases exceed its measured step \
                 time, or the stream dropped events"
            );
        }
    }
    let correct = outcome.failed == 0 && outcome.trustworthy;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.report.render(catalogue)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
