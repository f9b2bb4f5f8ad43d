//! The traced run's per-layer probe: the benchmark's own calls into each
//! crate's public functions, every call inside a span, over inputs made
//! from the run's seed.
//!
//! | layer      | calls timed                                             |
//! |------------|---------------------------------------------------------|
//! | `trace`    | `Program::generate`, `record_workload`                  |
//! | `isa`      | `ucsim_isa::assemble` + `load_asm` on `examples/asm`    |
//! | `bpu`      | a `SlicePwGen::advance` loop over a recorded trace      |
//! | `uopcache` | `UopCache::lookup` / `fill` over `AccumulationBuffer` entries |
//! | `mem`      | `MemoryHierarchy::access` over the trace's I-cache lines |
//! | `pipeline` | `Simulator::run`, `Simulator::run_trace`, `PwTrace::replay` |
//! | `serve`    | `SimRequest::parse`, report encoding, round trips, `Server::start` |
//! | `store`    | `ResultStore::open`, `ResultStore::append`              |

use std::hint::black_box;

use ucsim::bpu::SlicePwGen;
use ucsim::mem::{AccessKind, HierarchyConfig, MemoryHierarchy};
use ucsim::model::{SplitMix64, ToJson};
use ucsim::pipeline::{PwTrace, SimConfig, SimReport, Simulator};
use ucsim::serve::{ResultStore, Server, ServerConfig, SimRequest};
use ucsim::trace::{load_asm, record_workload, Program, SharedTrace, WorkloadProfile};
use ucsim::uopcache::{
    AccumulationBuffer, CompactionPolicy, UopCache, UopCacheConfig, UopCacheEntry,
};

use crate::run::{derive, Ctx, Metric};
use crate::stats::Samples;
use crate::svc::{self, call};
use crate::tracer::Tracer;

/// Profiles whose recorded traces feed the bpu, uopcache, mem and
/// pipeline probes: server, SPEC and high-MPKI SPEC.
const PROFILES: [&str; 3] = ["redis", "bm-cc", "bm-z"];
/// Instructions recorded per probe trace.
const RECORD: u64 = 400_000;
/// Warm-up part of `RECORD` in the pipeline probes.
const WARMUP: u64 = 100_000;

/// One recorded probe input.
struct Input {
    profile: WorkloadProfile,
    program: Program,
    trace: SharedTrace,
}

/// Runs every probe and reduces its spans to the per-layer metrics.
///
/// # Errors
///
/// A message when an input cannot be read or the in-process service
/// cannot start.
pub fn probe(ctx: &mut Ctx) -> Result<Vec<Metric>, String> {
    let seed = ctx.seed;
    let tr = &mut ctx.tracer;
    let layer = tr.open("probe");

    // trace: synthesize every profile's program, record three of them.
    let mut inputs = Vec::new();
    for (i, mut profile) in WorkloadProfile::table2().into_iter().enumerate() {
        profile.seed = derive(seed, 300 + i as u64);
        let program = tr.time("trace.generate", || Program::generate(&profile));
        if PROFILES.contains(&profile.name) {
            let trace = tr.time("trace.record", || {
                record_workload(&profile, &program, RECORD)
            });
            tr.count("trace.record.insts", trace.len() as u64);
            inputs.push(Input {
                profile,
                program,
                trace,
            });
        }
    }

    // isa: assemble and lay out the example programs.
    let mut sources: Vec<_> = std::fs::read_dir(ctx.root.join("examples/asm"))
        .map_err(|e| format!("cannot list examples/asm: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    sources.sort();
    for path in &sources {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        for _ in 0..20 {
            let program = tr.time("isa.assemble", || {
                ucsim::isa::assemble(&text).map(|asm| load_asm(&asm, seed))
            });
            program.map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let cfg = SimConfig::table1().with_insts(WARMUP, RECORD - WARMUP);
    let mut outcomes = Vec::new();
    let mut reports = Vec::new();
    for input in &inputs {
        let spans = bpu(tr, &cfg, &input.trace);
        for oc in [
            UopCacheConfig::baseline_2k(),
            UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
        ] {
            uop_cache(tr, oc, &input.trace, &spans);
        }
        mem(tr, &input.trace);
        let (checked, report) = pipeline(tr, &cfg, input);
        outcomes.push(checked);
        reports.push(report);
    }

    // serve: the request and report codecs.
    let mut rng = SplitMix64::new(derive(seed, 400));
    let bodies: Vec<String> = WorkloadProfile::table2()
        .iter()
        .map(|p| svc::sim_body(p.name, rng.next_u64(), &cfg))
        .collect();
    for _ in 0..10 {
        for body in &bodies {
            let parsed = tr.time("serve.parse_request", || SimRequest::parse(black_box(body)));
            parsed.map_err(|e| e.to_string())?;
        }
    }
    for _ in 0..20 {
        for r in &reports {
            black_box(tr.time("serve.encode_report", || r.to_json_string()));
        }
    }

    let small: Vec<String> = WorkloadProfile::table2()
        .iter()
        .map(|p| {
            svc::sim_body(
                p.name,
                rng.next_u64(),
                &SimConfig::table1().with_insts(5_000, 20_000),
            )
        })
        .collect();
    let served = service(tr, &ctx.work, &small, &reports[0]);
    tr.close(layer);
    for (i, ok) in outcomes.into_iter().enumerate() {
        ctx.tally
            .record(&format!("pipeline paths agree on {}", PROFILES[i]), ok);
    }
    ctx.tally.record("in-process service", served);
    metrics(&ctx.tracer)
}

/// Predicts the trace's prediction windows; returns them for the
/// uop-cache probe.
fn bpu(tr: &mut Tracer, cfg: &SimConfig, trace: &SharedTrace) -> Vec<ucsim::bpu::PwSpan> {
    let (spans, stats) = tr.time("bpu.pwgen", || {
        let mut generator = SlicePwGen::new(cfg.bpu.clone(), trace.insts());
        let mut spans = Vec::new();
        while let Some(s) = generator.advance() {
            spans.push(s);
        }
        (spans, generator.stats())
    });
    tr.count("bpu.insts", stats.insts);
    tr.count("bpu.pws", stats.pws);
    tr.count(
        "bpu.mispredicts",
        stats.direction_mispredicts + stats.target_mispredicts,
    );
    spans
}

/// Builds entries the way the decode path does, then looks each up and
/// fills it on a miss; a second, lookup-only pass over the warm cache
/// separates lookup from fill time.
fn uop_cache(
    tr: &mut Tracer,
    oc: UopCacheConfig,
    trace: &SharedTrace,
    spans: &[ucsim::bpu::PwSpan],
) {
    let insts = trace.insts();
    let mut acc = AccumulationBuffer::new(oc.clone());
    let mut entries: Vec<UopCacheEntry> = Vec::new();
    for s in spans {
        for (i, inst) in insts[s.start..s.end].iter().enumerate() {
            let taken = s.start + i + 1 == s.end && s.pw.ends_in_taken_branch;
            entries.extend(acc.push(inst, s.pw.id, taken));
        }
        if s.mispredict.is_some() {
            entries.extend(acc.flush());
        }
    }
    let mut cache = UopCache::new(oc);
    let (hits, fills) = tr.time("uopcache.lookup_fill", || {
        let (mut hits, mut fills) = (0u64, 0u64);
        for e in &entries {
            if cache.lookup(e.start).is_some() {
                hits += 1;
            } else {
                black_box(cache.fill(*e));
                fills += 1;
            }
        }
        (hits, fills)
    });
    tr.time("uopcache.lookup", || {
        for e in &entries {
            black_box(cache.lookup(e.start));
        }
    });
    tr.count("uopcache.lookups", entries.len() as u64);
    tr.count("uopcache.hits", hits);
    tr.count("uopcache.fills", fills);
}

/// Fetches every I-cache line the trace moves to, in order.
fn mem(tr: &mut Tracer, trace: &SharedTrace) {
    let mut lines = Vec::new();
    for inst in trace.insts() {
        let line = inst.pc.line();
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    }
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::default());
    tr.time("mem.access", || {
        for &line in &lines {
            black_box(hierarchy.access(AccessKind::Fetch, line));
        }
    });
    tr.count("mem.accesses", lines.len() as u64);
}

/// Runs the three pipeline entry points; they must agree byte for byte.
fn pipeline(tr: &mut Tracer, cfg: &SimConfig, input: &Input) -> (Result<(), String>, SimReport) {
    let sim = Simulator::new(cfg.clone());
    let name = input.profile.name;
    let stream = tr.time("pipeline.stream", || {
        sim.run(&input.profile, &input.program)
    });
    let traced = tr.time("pipeline.trace", || sim.run_trace(name, &input.trace));
    let pwt = tr.time("pipeline.pw_record", || PwTrace::record(&input.trace, cfg));
    let replayed = tr.time("pipeline.pw_replay", || pwt.replay(name, cfg));
    tr.count("pipeline.insts", RECORD);
    let a = stream.to_json_string();
    let ok = if a == traced.to_json_string() && a == replayed.to_json_string() {
        Ok(())
    } else {
        Err(format!(
            "{name}: run, run_trace and PwTrace::replay disagree"
        ))
    };
    (ok, stream)
}

/// Round trips against an in-process service on a store, then restarts
/// and store I/O on that store.
fn service(
    tr: &mut Tracer,
    work: &std::path::Path,
    jobs: &[String],
    report: &SimReport,
) -> Result<(), String> {
    let dir = work.join("probe-store");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let mut c = svc::client(&addr);
    for job in jobs {
        call(&mut c, "POST", "/v1/sim", job.as_bytes())?;
    }
    for i in 0..24 {
        let job = &jobs[i % jobs.len()];
        tr.time("serve.hit_rtt", || {
            call(&mut c, "POST", "/v1/sim", job.as_bytes())
        })?;
    }
    for _ in 0..24 {
        tr.time("serve.get_rtt", || call(&mut c, "GET", "/v1/healthz", b""))?;
    }
    drop(c);
    for _ in 0..12 {
        tr.time("serve.connect", || {
            call(&mut svc::client(&addr), "GET", "/v1/healthz", b"")
        })?;
    }
    server.shutdown();

    for _ in 0..3 {
        let server = tr
            .time("serve.start", || Server::start(cfg.clone()))
            .map_err(|e| e.to_string())?;
        server.shutdown();
    }
    for _ in 0..3 {
        let (store, records) = tr
            .time("store.open", || ResultStore::open(&dir, false))
            .map_err(|e| e.to_string())?;
        drop(store);
        tr.count("store.opens", 1);
        tr.count("store.records", records.len() as u64);
    }
    let (store, _) =
        ResultStore::open(&work.join("probe-append"), false).map_err(|e| e.to_string())?;
    let payload = report.to_json_string();
    for i in 0..200u64 {
        let canonical = jobs[i as usize % jobs.len()].as_str();
        tr.time("store.append", || store.append(i, canonical, &payload))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn median(tr: &Tracer, name: &str) -> Option<f64> {
    let mut s = Samples::default();
    for ns in tr.durations(name) {
        s.push(ns as f64);
    }
    s.median()
}

fn rate(tr: &Tracer, count: &str, span: &str) -> Option<f64> {
    let ns = tr.total_ns(span);
    (ns > 0).then(|| tr.counter(count) as f64 / (ns as f64 / 1e9))
}

fn per(tr: &Tracer, ns: Option<f64>, count: &str) -> Option<f64> {
    let n = tr.counter(count);
    ns.filter(|_| n > 0).map(|ns| ns / n as f64)
}

fn metrics(tr: &Tracer) -> Result<Vec<Metric>, String> {
    let lookup_ns = tr.total_ns("uopcache.lookup") as f64;
    let fill_ns = (tr.total_ns("uopcache.lookup_fill") as f64 - lookup_ns).max(1.0);
    let lookups = tr.counter("uopcache.lookups");
    let ms = |v: Option<f64>| v.map(|ns| ns / 1e6);
    let us = |v: Option<f64>| v.map(|ns| ns / 1e3);
    let rows: Vec<(&'static str, &'static str, Option<f64>)> = vec![
        ("trace.generate_ms", "ms", ms(median(tr, "trace.generate"))),
        (
            "trace.record_insts_per_s",
            "insts/s",
            rate(tr, "trace.record.insts", "trace.record"),
        ),
        ("isa.assemble_us", "us", us(median(tr, "isa.assemble"))),
        (
            "bpu.pwgen_insts_per_s",
            "insts/s",
            rate(tr, "bpu.insts", "bpu.pwgen"),
        ),
        ("bpu.pws", "count", Some(tr.counter("bpu.pws") as f64)),
        (
            "bpu.mispredicts",
            "count",
            Some(tr.counter("bpu.mispredicts") as f64),
        ),
        (
            "uopcache.lookup_ns",
            "ns",
            per(tr, Some(lookup_ns), "uopcache.lookups"),
        ),
        (
            "uopcache.fill_ns",
            "ns",
            per(tr, Some(fill_ns), "uopcache.fills"),
        ),
        ("uopcache.lookups", "count", Some(lookups as f64)),
        (
            "uopcache.hit_ratio",
            "ratio",
            (lookups > 0).then(|| tr.counter("uopcache.hits") as f64 / lookups as f64),
        ),
        (
            "mem.access_ns",
            "ns",
            per(tr, Some(tr.total_ns("mem.access") as f64), "mem.accesses"),
        ),
        (
            "pipeline.stream_insts_per_s",
            "insts/s",
            rate(tr, "pipeline.insts", "pipeline.stream"),
        ),
        (
            "pipeline.trace_insts_per_s",
            "insts/s",
            rate(tr, "pipeline.insts", "pipeline.trace"),
        ),
        (
            "pipeline.pw_replay_insts_per_s",
            "insts/s",
            rate(tr, "pipeline.insts", "pipeline.pw_replay"),
        ),
        (
            "serve.parse_request_us",
            "us",
            us(median(tr, "serve.parse_request")),
        ),
        (
            "serve.encode_report_us",
            "us",
            us(median(tr, "serve.encode_report")),
        ),
        ("serve.hit_rtt_ms", "ms", ms(median(tr, "serve.hit_rtt"))),
        ("serve.get_rtt_ms", "ms", ms(median(tr, "serve.get_rtt"))),
        ("serve.connect_ms", "ms", ms(median(tr, "serve.connect"))),
        ("serve.start_ms", "ms", ms(median(tr, "serve.start"))),
        ("store.open_ms", "ms", ms(median(tr, "store.open"))),
        (
            "store.records",
            "count",
            per(tr, Some(tr.counter("store.records") as f64), "store.opens"),
        ),
        ("store.append_us", "us", us(median(tr, "store.append"))),
    ];
    rows.into_iter()
        .map(|(name, unit, v)| {
            v.filter(|v| v.is_finite() && *v > 0.0)
                .map(|value| Metric { name, value, unit })
                .ok_or_else(|| format!("no measurement for {name}"))
        })
        .collect()
}
