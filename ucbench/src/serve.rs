//! `serve-keepalive`: the interactive service. One kept-alive
//! `ucsim_serve::Client` sends foreground `POST /v1/sim` jobs to a
//! `ucsim-serve` without a store: every Table II profile at a fresh seed
//! and one uop-cache configuration, every uploaded `examples/asm` program
//! at a fresh seed and two configurations, and then each of those jobs
//! again, several times, answered from the result cache. A few repeats go
//! over fresh connections. Every job runs at the length of a figure cell,
//! `SimConfig::table1()`.

use std::sync::Arc;
use std::time::Instant;

use ucsim::model::SplitMix64;
use ucsim::pipeline::SimConfig;
use ucsim::serve::Client;
use ucsim::trace::WorkloadProfile;
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

use crate::checks::{self, Answer, Source};
use crate::run::{derive, ms_since, Ctx};
use crate::stats::shuffle;
use crate::svc::{self, call};
use crate::sys::ServeProc;

/// Cached repeats of every job per round: when nothing fails, 6 × 19
/// jobs give a p90 with more than ten hits beyond it.
const REPEATS: usize = 6;
/// Repeats per round sent over a fresh connection.
const RESUMES: usize = 8;
/// Rounds per run at the least.
const MIN_ROUNDS: u32 = 1;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 5;

/// Uop-cache configurations a job may run at.
fn configs() -> Vec<UopCacheConfig> {
    let fpwac = |oc: UopCacheConfig| oc.with_compaction(CompactionPolicy::Fpwac, 2);
    vec![
        UopCacheConfig::baseline_2k(),
        UopCacheConfig::baseline_2k().with_clasp(),
        fpwac(UopCacheConfig::baseline_2k()),
        UopCacheConfig::baseline_with_capacity(4096),
        fpwac(UopCacheConfig::baseline_with_capacity(4096)),
        UopCacheConfig::baseline_with_capacity(8192).with_clasp(),
    ]
}

/// One distinct job of a round.
struct Job {
    label: String,
    source: Source,
    /// Jobs with equal `group` share workload and seed.
    group: usize,
    body: String,
    first: Option<Answer>,
}

/// Runs the workload.
///
/// # Errors
///
/// A message when the service cannot be started or reached.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let mut asm: Vec<(String, Arc<String>)> = Vec::new();
    let dir = ctx.root.join("examples/asm");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    files.sort();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        asm.push((String::new(), Arc::new(text)));
    }

    // Set-up: start the service until it answers, then upload the
    // programs. The last of the timed set-ups serves the run.
    let mut server: Option<ServeProc> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            let peak = old.stop()?;
            ctx.e2e.rss(peak);
        }
        let t0 = Instant::now();
        let proc = svc::start(&ctx.bins, &svc::one_worker())?;
        let mut c = svc::client(&proc.addr);
        for (id, text) in &mut asm {
            let answer = svc::json(&call(&mut c, "POST", "/v1/programs", text.as_bytes())?)?;
            *id = answer
                .get("ref")
                .and_then(|v| v.as_str())
                .ok_or("upload answer lacks ref")?
                .to_owned();
        }
        ctx.e2e.setup.push(t0.elapsed().as_secs_f64());
        server = Some(proc);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();
    let mut c = svc::client(&addr);

    let mut distinct = 0u64;
    ctx.rounds(MIN_ROUNDS, |ctx, r| {
        let mut jobs = round_jobs(ctx.seed, r, &asm);
        distinct += jobs.len() as u64;
        // Reference walks first, so no recording runs between timed jobs.
        for job in &jobs {
            if let Err(e) = ctx.walks.get(&job.source, job_insts()) {
                eprintln!("ucbench: cannot record {}: {e}", job.label);
            }
        }
        // Each new job is followed by its cached repeats, so the
        // simulating requests are spread over the whole round.
        for i in 0..jobs.len() {
            miss(ctx, &mut c, &mut jobs, i);
            let job = &jobs[i];
            let Some(first) = &job.first else { continue };
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let span = ctx.tracer.open("serve.hit");
                let out = call(&mut c, "POST", "/v1/sim", job.body.as_bytes());
                ctx.tracer.close(span);
                let ms = ms_since(t0);
                let outcome = out.and_then(|b| Answer::parse(&b)?.check_repeats(first));
                if ctx.tally.record(&format!("repeat {}", job.label), outcome) {
                    ctx.e2e.repeated(ms);
                }
            }
        }
        for job in jobs.iter().filter(|j| j.first.is_some()).take(RESUMES) {
            let first = job.first.as_ref().expect("filtered");
            let t0 = Instant::now();
            let span = ctx.tracer.open("serve.reconnect");
            let out = call(
                &mut svc::client(&addr),
                "POST",
                "/v1/sim",
                job.body.as_bytes(),
            );
            ctx.tracer.close(span);
            let ms = ms_since(t0);
            let outcome = out.and_then(|b| Answer::parse(&b)?.check_repeats(first));
            if ctx
                .tally
                .record(&format!("reconnect {}", job.label), outcome)
            {
                ctx.e2e.resume.push(ms);
                ctx.e2e.ops.push(ms);
            }
        }
        // The service simulated each distinct job exactly once.
        ctx.tally
            .record("simulation count", svc::audit(&mut c, distinct));
        Ok(())
    })?;
    drop(c);
    let peak = server.stop()?;
    ctx.e2e.rss(peak);
    Ok(())
}

/// The distinct jobs of round `r`: every profile at a fresh seed and one
/// configuration of the list, every program at a fresh seed and two
/// neighbouring ones (the same configurations in every round, so the work
/// per round does not depend on the seed), in a seed-shuffled order.
fn round_jobs(seed: u64, r: u32, asm: &[(String, Arc<String>)]) -> Vec<Job> {
    let mut rng = SplitMix64::new(derive(seed, 100 + u64::from(r)));
    let configs = configs();
    let mut workloads: Vec<(String, Source)> = Vec::new();
    for p in WorkloadProfile::table2() {
        let s = rng.next_u64();
        workloads.push((p.name.to_owned(), Source::Profile(p.name, s)));
    }
    for (id, text) in asm {
        let s = rng.next_u64();
        workloads.push((id.clone(), Source::Asm(Arc::clone(text), s)));
    }
    let mut jobs = Vec::new();
    for (group, (workload, source)) in workloads.into_iter().enumerate() {
        let (seed, pair) = match &source {
            Source::Profile(_, s) => (*s, false),
            Source::Asm(_, s) => (*s, true),
        };
        let a = group % configs.len();
        let picks = if pair {
            vec![a, (a + 1) % configs.len()]
        } else {
            vec![a]
        };
        for (k, oc) in picks.into_iter().enumerate() {
            let cfg = SimConfig::table1().with_uop_cache(configs[oc].clone());
            jobs.push(Job {
                label: format!("{workload}@{seed}#{k}"),
                source: source.clone(),
                group,
                body: svc::sim_body(&workload, seed, &cfg),
                first: None,
            });
        }
    }
    shuffle(&mut jobs, &mut rng);
    jobs
}

/// Instructions a job simulates, warm-up included.
fn job_insts() -> u64 {
    let cfg = SimConfig::table1();
    cfg.warmup_insts + cfg.measure_insts
}

/// Sends job `i` for the first time: it is new to the service, so it
/// simulates.
fn miss(ctx: &mut Ctx, c: &mut Client, jobs: &mut [Job], i: usize) {
    let t0 = Instant::now();
    let span = ctx.tracer.open("serve.miss");
    let out = call(c, "POST", "/v1/sim", jobs[i].body.as_bytes());
    ctx.tracer.close(span);
    let ms = ms_since(t0);
    let checked = out.and_then(|b| {
        let a = Answer::parse(&b)?;
        if a.cached {
            return Err("a new job was answered from cache".to_owned());
        }
        checks::check_sums(&a.report)?;
        let walk = ctx.walks.get(&jobs[i].source, job_insts())?;
        checks::check_walk(a.report.insts, a.report.uops, &walk)?;
        let partner = jobs
            .iter()
            .filter(|j| j.group == jobs[i].group)
            .find_map(|j| j.first.as_ref());
        if let Some(p) = partner {
            checks::check_same_front_end(&p.report, &a.report)?;
        }
        Ok(a)
    });
    let label = jobs[i].label.clone();
    match checked {
        Ok(a) => {
            ctx.tally.record(&format!("job {label}"), Ok(()));
            ctx.e2e.simulated(job_insts(), ms);
            jobs[i].first = Some(a);
        }
        Err(e) => {
            ctx.tally.record(&format!("job {label}"), Err(e));
        }
    }
}
