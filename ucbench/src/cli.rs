//! `cli-oneshot`: one `ucsim --workload` process at a time, cycling every
//! Table II profile at the baseline and with F-PWAC compaction — what a
//! researcher pays per figure cell. Each process synthesizes the program,
//! walks it, predicts, caches, decodes and retires; no HTTP, result cache
//! or store is involved.

use std::collections::HashMap;
use std::process::Command;

use ucsim::model::SplitMix64;
use ucsim::pipeline::SimConfig;
use ucsim::trace::WorkloadProfile;

use crate::checks::{CliReport, Source};
use crate::run::{derive, Ctx};
use crate::stats::{shuffle, Samples};
use crate::sys::{run_timed, Timed};

/// Rounds per run: 2 × 26 cells.
const MIN_ROUNDS: u32 = 2;
/// Samples beyond the hit p90: 5 of the 52 cells, the most a run within
/// the benchmark's time can give at this cell length.
const HIT_TAIL_BEYOND: usize = 5;
/// Instructions each set-up process simulates: enough to build the
/// simulator and run it, too few to weigh against its start.
const SETUP_INSTS: u64 = 1_000;

/// One figure cell: a profile at the baseline or with F-PWAC.
#[derive(Debug, Clone, Copy)]
struct Job {
    profile: &'static str,
    fpwac: bool,
}

/// Warm-up and measured instructions of a figure cell: the `ucsim`
/// defaults, `SimConfig::table1()`.
fn cell_length() -> (u64, u64) {
    let cfg = SimConfig::table1();
    (cfg.warmup_insts, cfg.measure_insts)
}

/// Runs the workload.
///
/// # Errors
///
/// A message when `ucsim` cannot be started at all.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (warmup, insts) = cell_length();
    let mut jobs: Vec<Job> = WorkloadProfile::table2()
        .iter()
        .flat_map(|p| {
            [false, true].map(|fpwac| Job {
                profile: p.name,
                fpwac,
            })
        })
        .collect();
    shuffle(&mut jobs, &mut SplitMix64::new(derive(ctx.seed, 0)));

    // A discarded pass of set-up processes loads the binary and its pages.
    for &job in &jobs {
        set_up(ctx, job)?;
    }

    // The reference walks are recorded before anything is timed.
    for p in WorkloadProfile::table2() {
        ctx.walks
            .get(&Source::Profile(p.name, p.seed), warmup + insts)?;
    }

    let mut upc: HashMap<(&str, bool), f64> = HashMap::new();
    let mut compacted = Vec::new();
    // The largest process of each round; their median is reported, so one
    // mis-sampled process cannot set the run's figure.
    let mut round_peaks = Samples::default();
    ctx.rounds(MIN_ROUNDS, |ctx, _| {
        let mut seen: HashMap<&str, CliReport> = HashMap::new();
        let mut round_peak = 0;
        for &job in &jobs {
            let setup_ms = set_up(ctx, job)?;
            ctx.e2e.setup.push(setup_ms / 1e3);
            let span = ctx.tracer.open("cli.process");
            let t = run_timed(&mut command(ctx, job, warmup, insts), true)?;
            ctx.tracer.close(span);
            round_peak = round_peak.max(t.peak_kb);
            let outcome = report(&t).and_then(|r| {
                check(ctx, job, &r, warmup + insts)?;
                if let Some(other) = seen.get(job.profile) {
                    if (other.insts, other.uops, &other.mpki) != (r.insts, r.uops, &r.mpki) {
                        return Err(format!(
                            "{}: insts/uops/MPKI differ between baseline and F-PWAC",
                            job.profile
                        ));
                    }
                }
                Ok(r)
            });
            let what = format!("ucsim --workload {} fpwac={}", job.profile, job.fpwac);
            match outcome {
                Ok(r) => {
                    ctx.tally.record(&what, Ok(()));
                    // Every process simulates and starts from nothing, and
                    // the CLI keeps no results: asking for a cell again
                    // (every cell of the second round) simulates it again.
                    ctx.e2e.simulated(warmup + insts, t.ms);
                    ctx.e2e.resume.push(t.ms);
                    ctx.e2e.hit.push(t.ms);
                    upc.insert((job.profile, job.fpwac), r.upc);
                    if job.fpwac {
                        compacted.push(r.compacted);
                    }
                    seen.insert(job.profile, r);
                }
                Err(e) => {
                    ctx.tally.record(&what, Err(e));
                }
            }
        }
        round_peaks.push(round_peak as f64);
        Ok(())
    })?;
    ctx.e2e.peak_rss_kb = round_peaks.median().unwrap_or(0.0) as u64;
    ctx.e2e.hit_tail_beyond = Some(HIT_TAIL_BEYOND);
    summarize(&upc, &compacted, insts);
    Ok(())
}

/// Times what `job` costs before its simulation — starting the process,
/// synthesizing the program, building the simulator — as a process that
/// simulates almost nothing; returns its wall time in ms.
///
/// # Errors
///
/// A message when the process fails: the cell cannot be set up at all.
fn set_up(ctx: &mut Ctx, job: Job) -> Result<f64, String> {
    let span = ctx.tracer.open("cli.setup");
    let t = run_timed(&mut command(ctx, job, 0, SETUP_INSTS), false)?;
    ctx.tracer.close(span);
    if t.ok {
        Ok(t.ms)
    } else {
        Err(format!("ucsim --workload {} failed in set-up", job.profile))
    }
}

/// The command line of one cell.
fn command(ctx: &Ctx, job: Job, warmup: u64, insts: u64) -> Command {
    let mut cmd = Command::new(&ctx.bins.ucsim);
    cmd.args(["--workload", job.profile])
        .args(["--warmup", &warmup.to_string()])
        .args(["--insts", &insts.to_string()]);
    if job.fpwac {
        cmd.args(["--compaction", "fpwac"]);
    }
    cmd
}

fn report(t: &Timed) -> Result<CliReport, String> {
    if !t.ok {
        return Err("ucsim exited with an error".to_owned());
    }
    CliReport::parse(&t.stdout)
}

fn check(ctx: &mut Ctx, job: Job, r: &CliReport, total: u64) -> Result<(), String> {
    r.check_upc()?;
    let seed = WorkloadProfile::by_name(job.profile)
        .expect("table2 names resolve")
        .seed;
    let walk = ctx.walks.get(&Source::Profile(job.profile, seed), total)?;
    crate::checks::check_walk(r.insts, r.uops, &walk)
}

/// Prints the model's headline figures beside the paper's.
fn summarize(upc: &HashMap<(&str, bool), f64>, compacted: &[f64], insts: u64) {
    let geomean = |fpwac: bool| {
        let v: Vec<f64> = WorkloadProfile::table2()
            .iter()
            .filter_map(|p| upc.get(&(p.name, fpwac)).copied())
            .collect();
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp()
    };
    let (base, fpwac) = (geomean(false), geomean(true));
    let frac = compacted.iter().sum::<f64>() / compacted.len().max(1) as f64;
    eprintln!(
        "ucbench: model figures (2K uops, {insts} insts): geomean UPC baseline {base:.4}, \
         F-PWAC {fpwac:.4} ({:+.2}%; paper +5.45%); F-PWAC compacted fills {:.1}% (paper 66.3%)",
        (fpwac / base - 1.0) * 100.0,
        frac * 100.0
    );
}
