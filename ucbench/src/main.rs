//! `ucbench` — times ucsim end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path ucbench/Cargo.toml -- \
//!     --workload cli-oneshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The run builds the release `ucsim` and `ucsim-serve` binaries from the
//! checkout, drives one workload for about `--seconds` (whole rounds, one
//! operation in flight), checks every answer, and prints one JSON line:
//! `{"correct","attempted","failed","metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around the benchmark's
//! calls, runs the per-layer probe and reports the per-layer metrics (its
//! own end-to-end figures go to stderr, to measure the tracing overhead).

mod checks;
mod cli;
mod layers;
mod run;
mod serve;
mod stats;
mod svc;
mod sweep;
mod sys;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ucsim::model::Json;

use crate::checks::Walks;
use crate::run::{Ctx, EndToEnd, Metric, Tally};
use crate::tracer::Tracer;

/// Runs one workload's rounds, filling the run's samples and tally.
type Workload = fn(&mut Ctx) -> Result<(), String>;

/// The workloads by name (BENCHMARK.json says why each is there).
const WORKLOADS: [(&str, Workload); 3] = [
    ("cli-oneshot", cli::run),
    ("serve-keepalive", serve::run),
    ("sweep-resume", sweep::run),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ucbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The checkout this benchmark was built in: its parent directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the checkout")
        .to_path_buf();
    let work = root
        .join(".ucbench")
        .join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| bench(&args, root, work.clone()));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ucbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and returns the result line.
fn bench(args: &Args, root: PathBuf, work: PathBuf) -> Result<String, String> {
    let bins = sys::build(&root)?;
    let mut ctx = Ctx {
        root,
        work,
        bins,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        tally: Tally::default(),
        e2e: EndToEnd::default(),
        walks: Walks::default(),
    };
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("validated by parse_args");
    let span = ctx.tracer.open("workload");
    workload(&mut ctx)?;
    ctx.tracer.close(span);
    let (e2e, missing) = ctx.e2e.metrics();
    show(&args.workload, "end-to-end", &e2e);
    let metrics = if args.trace {
        // Its own end-to-end figures, for comparison with an untraced run.
        eprintln!("ucbench: traced end-to-end {}", metrics_json(&e2e));
        let layers = layers::probe(&mut ctx)?;
        show(&args.workload, "per-layer", &layers);
        let path = ctx
            .root
            .join(".ucbench/spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("ucbench: spans written to {}", path.display());
        layers
    } else {
        // Failed operations can leave a metric without samples; the
        // counts are still reported, and the metric is left out.
        for name in &missing {
            eprintln!("ucbench: no measurement for {name}");
        }
        e2e
    };
    let line = Json::Obj(vec![
        (
            "correct".to_owned(),
            Json::Bool(ctx.tally.failed == 0 && missing.is_empty()),
        ),
        ("attempted".to_owned(), Json::Uint(ctx.tally.attempted)),
        ("failed".to_owned(), Json::Uint(ctx.tally.failed)),
        ("metrics".to_owned(), metrics_json(&metrics)),
    ]);
    Ok(line.to_string())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Float(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

fn show(workload: &str, kind: &str, metrics: &[Metric]) {
    for m in metrics {
        eprintln!(
            "ucbench: {workload} {kind} {:<32} {:>16.4} {}",
            m.name, m.value, m.unit
        );
    }
}
