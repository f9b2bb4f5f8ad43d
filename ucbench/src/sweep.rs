//! `sweep-resume`: a capacity × policy sweep through the service's store.
//!
//! In each round a `ucsim-serve` on a fresh `--data-dir` receives one
//! `POST /v1/matrix` — two profiles × three capacities × three policies,
//! another pair of profiles in the next round — polled to `done` (the
//! cold sweep). The server is then stopped and
//! started again on the same directory several times, and each time the
//! same matrix is submitted again (the resume: store replay plus
//! from-store plan resolution). After the last restart every cell is
//! asked for as a foreground job, a few times over, answered from the
//! replayed results. Every cell runs at the length of a figure cell,
//! `SimConfig::table1()`.

use std::time::{Duration, Instant};

use ucsim::model::{FromJson, Json, SplitMix64, ToJson};
use ucsim::pipeline::{SimConfig, SimReport, SweepReport};
use ucsim::serve::{expand_request, format_key, CellMeta, Client, MatrixRequest};

use crate::checks::{self, Answer, Source};
use crate::run::{derive, ms_since, Ctx};
use crate::svc::{self, call};
use crate::sys::ServeProc;

/// The profiles swept, two per round: cloud and server, then two SPEC.
const PROFILES: [[&str; 2]; 2] = [["mahout", "redis"], ["bm-cc", "bm-z"]];
/// Capacity axis, in uops.
const CAPACITIES: [u64; 3] = [2048, 4096, 8192];
/// Policy axis.
const POLICIES: [&str; 3] = ["baseline", "clasp", "fpwac"];
/// Rounds per run at the least: one per pair of profiles.
const MIN_ROUNDS: u32 = 2;
/// Restarts on the populated store per round.
const RESTARTS: usize = 5;
/// Requests for every cell after the last restart: when nothing fails,
/// 2 rounds × 3 × 18 give a p90 with more than ten hits beyond it.
const HIT_PASSES: usize = 3;
/// Server starts on a fresh store timed in set-up; the median is
/// reported.
const SETUPS: usize = 5;

/// Runs the workload.
///
/// # Errors
///
/// A message when the service cannot be started, reached or stopped.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let plans = [
        plan(ctx.seed, 0, PROFILES[0])?,
        plan(ctx.seed, 1, PROFILES[1])?,
    ];
    let mut order = SplitMix64::new(derive(ctx.seed, 201));

    // Set-up: start a server on a fresh store until it answers.
    for k in 0..SETUPS {
        let dir = ctx.work.join(format!("setup-{k}"));
        let mut flags = svc::one_worker();
        flags.extend(["--data-dir".to_owned(), dir.display().to_string()]);
        let t0 = Instant::now();
        let server = svc::start(&ctx.bins, &flags)?;
        ctx.e2e.setup.push(t0.elapsed().as_secs_f64());
        stop(ctx, server)?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }

    ctx.rounds(MIN_ROUNDS, |ctx, r| {
        let plan = &plans[r as usize % plans.len()];
        let dir = ctx.work.join(format!("store-{r}"));
        let mut flags = svc::one_worker();
        flags.extend(["--data-dir".to_owned(), dir.display().to_string()]);

        let cold = cold_sweep(ctx, plan, &flags)?;
        for k in 0..RESTARTS {
            let (server, mut c) = resume(ctx, plan, &flags, cold.as_ref())?;
            if k + 1 == RESTARTS {
                cell_hits(ctx, plan, &mut c, cold.as_ref(), &mut order);
            }
            ctx.tally
                .record("restarted simulation count", svc::audit(&mut c, 0));
            drop(c);
            stop(ctx, server)?;
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// The matrix a round submits.
struct Plan {
    profiles: [&'static str; 2],
    body: String,
    cells: Vec<CellMeta>,
    seed: u64,
    /// Instructions each cell simulates, warm-up included.
    insts: u64,
}

/// The matrix of `profiles` × capacities × policies, at a seed drawn
/// from the run's.
fn plan(run_seed: u64, i: u64, profiles: [&'static str; 2]) -> Result<Plan, String> {
    let seed = derive(run_seed, 200 + i);
    let cfg = SimConfig::table1();
    let body = Json::Obj(vec![
        (
            "workloads".to_owned(),
            Json::Arr(
                profiles
                    .iter()
                    .map(|p| Json::Str((*p).to_owned()))
                    .collect(),
            ),
        ),
        (
            "capacities".to_owned(),
            Json::Arr(CAPACITIES.iter().map(|&c| Json::Uint(c)).collect()),
        ),
        (
            "policies".to_owned(),
            Json::Arr(
                POLICIES
                    .iter()
                    .map(|p| Json::Str((*p).to_owned()))
                    .collect(),
            ),
        ),
        ("seed".to_owned(), Json::Uint(seed)),
        ("warmup".to_owned(), Json::Uint(cfg.warmup_insts)),
        ("insts".to_owned(), Json::Uint(cfg.measure_insts)),
    ])
    .to_string();
    let request = MatrixRequest::parse(&body).map_err(|e| e.to_string())?;
    let cells = expand_request(&request, false).map_err(|(_, m)| m)?;
    Ok(Plan {
        profiles,
        body,
        cells,
        seed,
        insts: cfg.warmup_insts + cfg.measure_insts,
    })
}

/// The cold sweep's status text and decoded report.
type Cold = (String, SweepReport);

/// Starts a server on a fresh store and sweeps the matrix; `None` when
/// the sweep failed (counted as a failed operation).
fn cold_sweep(ctx: &mut Ctx, plan: &Plan, flags: &[String]) -> Result<Option<Cold>, String> {
    let server = svc::start(&ctx.bins, flags)?;
    let mut c = svc::client(&server.addr);
    let t0 = Instant::now();
    let span = ctx.tracer.open("sweep.cold");
    let status = submit(&mut c, &plan.body);
    ctx.tracer.close(span);
    let ms = ms_since(t0);
    let checked = status.and_then(|text| {
        let report = check_cold(ctx, &text, plan)?;
        Ok((text, report))
    });
    let cells = plan.cells.len() as u64;
    let cold = match checked {
        Ok(v) => {
            ctx.tally.record("cold sweep", Ok(()));
            ctx.e2e.simulated(cells * plan.insts, ms);
            Some(v)
        }
        Err(e) => {
            ctx.tally.record("cold sweep", Err(e));
            None
        }
    };
    ctx.tally
        .record("cold simulation count", svc::audit(&mut c, cells));
    drop(c);
    stop(ctx, server)?;
    Ok(cold)
}

/// Restarts the server on the populated store and submits the matrix
/// again, timing start to `done`; returns the server and its connection.
fn resume(
    ctx: &mut Ctx,
    plan: &Plan,
    flags: &[String],
    cold: Option<&Cold>,
) -> Result<(ServeProc, Client), String> {
    let t0 = Instant::now();
    let span = ctx.tracer.open("sweep.resume");
    let server = ServeProc::spawn(&ctx.bins.serve, flags)?;
    let mut c = svc::client(&server.addr);
    let status = submit(&mut c, &plan.body);
    ctx.tracer.close(span);
    let ms = ms_since(t0);
    let outcome = status.and_then(|text| {
        let (cold_text, _) = cold.ok_or("no cold sweep to resume")?;
        check_resumed(&text, cold_text, plan.cells.len())
    });
    if ctx.tally.record("resumed sweep", outcome) {
        ctx.e2e.resume.push(ms);
        ctx.e2e.ops.push(ms);
    }
    Ok((server, c))
}

/// Asks for every cell as a foreground job, `HIT_PASSES` times, each pass
/// in a seed-shuffled order; each must repeat the cold sweep's cell from
/// the store.
fn cell_hits(
    ctx: &mut Ctx,
    plan: &Plan,
    c: &mut Client,
    cold: Option<&Cold>,
    order: &mut SplitMix64,
) {
    let mut idx: Vec<usize> = Vec::new();
    for _ in 0..HIT_PASSES {
        let mut pass: Vec<usize> = (0..plan.cells.len()).collect();
        crate::stats::shuffle(&mut pass, order);
        idx.extend(pass);
    }
    for i in idx {
        let meta = &plan.cells[i];
        let job = svc::sim_body(&meta.spec.workload, meta.spec.seed, &meta.spec.config);
        let t0 = Instant::now();
        let span = ctx.tracer.open("sweep.cell_hit");
        let out = call(c, "POST", "/v1/sim", job.as_bytes());
        ctx.tracer.close(span);
        let ms = ms_since(t0);
        let outcome = out.and_then(|b| {
            let (_, report) = cold.ok_or("no cold sweep to compare")?;
            let want = report.cells.get(i).ok_or("cold sweep lacks the cell")?;
            let first = Answer {
                key: format_key(meta.key_hash),
                cached: false,
                report_text: want.report.to_json_string(),
                report: want.report.clone(),
            };
            Answer::parse(&b)?.check_repeats(&first)
        });
        if ctx.tally.record(&format!("cell {}", meta.label), outcome) {
            ctx.e2e.repeated(ms);
        }
    }
}

fn stop(ctx: &mut Ctx, server: ServeProc) -> Result<(), String> {
    let peak = server.stop()?;
    ctx.e2e.rss(peak);
    Ok(())
}

/// Submits the matrix and polls it on the same connection until it
/// settles; returns the final status body.
fn submit(c: &mut Client, body: &str) -> Result<String, String> {
    let posted = svc::json(&call(c, "POST", "/v1/matrix", body.as_bytes())?)?;
    let id = svc::uint(&posted, "id")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let text = call(c, "GET", &format!("/v1/matrix/{id}"), b"")?;
        let state = svc::json(&text)?
            .get("state")
            .and_then(|s| s.as_str().map(str::to_owned))
            .ok_or("sweep status lacks state")?;
        if state != "running" {
            return if state == "done" {
                Ok(text)
            } else {
                Err(format!("sweep ended {state}"))
            };
        }
        if Instant::now() > deadline {
            return Err("sweep did not finish in 120 s".to_owned());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The `report` member of a sweep status, as served.
fn report_text(status: &str) -> Result<&str, String> {
    let at = status
        .find(",\"report\":")
        .ok_or("sweep status lacks report")?;
    status[at + 10..]
        .strip_suffix('}')
        .ok_or_else(|| "sweep status is not one object".to_owned())
}

fn check_cold(ctx: &mut Ctx, status: &str, plan: &Plan) -> Result<SweepReport, String> {
    let cells = plan.cells.len();
    let doc = svc::json(status)?;
    let planned = svc::uint(&doc, "planned")?;
    let simulated = svc::uint(&doc, "simulated")?;
    if planned != cells as u64 || simulated != planned {
        return Err(format!(
            "cold sweep planned {planned}, simulated {simulated}"
        ));
    }
    let report = SweepReport::from_json_str(report_text(status)?).map_err(|e| e.to_string())?;
    if report.cells.len() != cells {
        return Err(format!("cold report has {} cells", report.cells.len()));
    }
    for name in plan.profiles {
        let ours: Vec<&SimReport> = report
            .cells
            .iter()
            .filter(|c| c.workload == name)
            .map(|c| &c.report)
            .collect();
        let walk = ctx
            .walks
            .get(&Source::Profile(name, plan.seed), plan.insts)?;
        for r in &ours {
            checks::check_sums(r)?;
            checks::check_walk(r.insts, r.uops, &walk)?;
            checks::check_same_front_end(ours[0], r)?;
        }
    }
    Ok(report)
}

fn check_resumed(status: &str, cold: &str, cells: usize) -> Result<(), String> {
    let doc = svc::json(status)?;
    let planned = svc::uint(&doc, "planned")?;
    let skipped = svc::uint(&doc, "skipped_from_store")?;
    let simulated = svc::uint(&doc, "simulated")?;
    if planned != cells as u64 || skipped != planned || simulated != 0 {
        return Err(format!(
            "resumed sweep planned {planned}, skipped {skipped}, simulated {simulated}"
        ));
    }
    if report_text(status)? != report_text(cold)? {
        return Err("resumed report differs from the cold one".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLD: &str = r#"{"state":"done","planned":2,"skipped_from_store":0,"simulated":2,"report":{"upc":[1.5]}}"#;

    #[test]
    fn resume_check_rejects_a_corrupted_report() {
        let good = r#"{"state":"done","planned":2,"skipped_from_store":2,"simulated":0,"report":{"upc":[1.5]}}"#;
        check_resumed(good, COLD, 2).unwrap();
        for bad in [
            good.replace(r#""simulated":0"#, r#""simulated":1"#),
            good.replace(r#""skipped_from_store":2"#, r#""skipped_from_store":1"#),
            good.replace("1.5", "1.25"),
        ] {
            assert!(check_resumed(&bad, COLD, 2).is_err(), "{bad}");
        }
        assert!(check_resumed(good, COLD, 3).is_err(), "wrong plan size");
    }
}
