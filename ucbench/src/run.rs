//! What every workload shares: the run context, the operation tally, the
//! end-to-end samples and the metrics they reduce to.

use std::path::PathBuf;
use std::time::Instant;

use crate::checks::Walks;
use crate::stats::Samples;
use crate::sys::Bins;
use crate::tracer::Tracer;

/// One benchmark run.
pub struct Ctx {
    /// Root of the checkout under test.
    pub root: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Release binaries built from the checkout.
    pub bins: Bins,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the timed loop runs before it stops starting rounds.
    pub seconds: f64,
    /// Spans (recorded only in a traced run).
    pub tracer: Tracer,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end samples.
    pub e2e: EndToEnd,
    /// Recorded reference walks for the uop-count check.
    pub walks: Walks,
}

impl Ctx {
    /// Runs whole rounds — at least `min_rounds`, then more while the
    /// run's time lasts — so every run attempts the same operations.
    ///
    /// # Errors
    ///
    /// The first round error (an environment fault, not a failed
    /// operation).
    pub fn rounds(
        &mut self,
        min_rounds: u32,
        mut round: impl FnMut(&mut Ctx, u32) -> Result<(), String>,
    ) -> Result<u32, String> {
        let start = Instant::now();
        let mut r = 0;
        while r < min_rounds || start.elapsed().as_secs_f64() < self.seconds {
            round(self, r)?;
            r += 1;
        }
        Ok(r)
    }
}

/// Operations attempted and failed; an operation fails when it errors or
/// when any check of its output fails.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation with its outcome; returns whether it passed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("ucbench: FAILED {what}: {e}");
                }
                false
            }
        }
    }
}

/// End-to-end samples of one run, in the terms every workload shares:
///
/// - a *miss* is an operation that has to simulate,
/// - a *hit* asks again for an answer the run already had,
/// - a *resume* restarts one side — the program or the client's
///   connection — and ends when a repeated answer arrives.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Instructions simulated by the operations in `sim_secs`.
    pub sim_insts: u64,
    /// Summed wall time of the operations that simulated them.
    pub sim_secs: f64,
    /// Every timed operation, ms.
    pub ops: Samples,
    /// Operations that simulated, ms.
    pub miss: Samples,
    /// Repeated requests, ms.
    pub hit: Samples,
    /// Restart-to-repeated-answer times, ms.
    pub resume: Samples,
    /// Set-up times, s.
    pub setup: Samples,
    /// Peak resident set of any process under test, KiB.
    pub peak_rss_kb: u64,
    /// Samples that must lie beyond the reported hit p90: ten, unless a
    /// workload sets the few its runs can give.
    pub hit_tail_beyond: Option<usize>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
}

impl EndToEnd {
    /// Times one simulating operation.
    pub fn simulated(&mut self, insts: u64, ms: f64) {
        self.sim_insts += insts;
        self.sim_secs += ms / 1e3;
        self.miss.push(ms);
        self.ops.push(ms);
    }

    /// Times one repeated request.
    pub fn repeated(&mut self, ms: f64) {
        self.hit.push(ms);
        self.ops.push(ms);
    }

    /// Notes a process's peak resident set.
    pub fn rss(&mut self, kb: u64) {
        self.peak_rss_kb = self.peak_rss_kb.max(kb);
    }

    /// Every end-to-end metric the run has samples for, in BENCHMARK.json
    /// order, and the names of those it has none (or too few) for — which
    /// happens only when operations failed.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<&'static str>) {
        let all = [
            (
                "sim_insts_per_s",
                "insts/s",
                (self.sim_secs > 0.0).then(|| self.sim_insts as f64 / self.sim_secs),
            ),
            ("op_p50_ms", "ms", self.ops.median()),
            ("miss_p50_ms", "ms", self.miss.median()),
            ("hit_p50_ms", "ms", self.hit.median()),
            (
                "hit_p90_ms",
                "ms",
                self.hit.tail(0.9, self.hit_tail_beyond.unwrap_or(10)),
            ),
            ("resume_ms", "ms", self.resume.median()),
            ("setup_s", "s", self.setup.median()),
            (
                "peak_rss_mb",
                "MB",
                Some(self.peak_rss_kb as f64 * 1024.0 / 1e6),
            ),
        ];
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit, v) in all {
            match v.filter(|v| v.is_finite() && *v > 0.0) {
                Some(value) => metrics.push(Metric { name, value, unit }),
                None => missing.push(name),
            }
        }
        (metrics, missing)
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A seed for input `i` of the run, derived from the run's seed.
pub fn derive(seed: u64, i: u64) -> u64 {
    ucsim::model::mix64(seed ^ ucsim::model::mix64(i.wrapping_add(0x5eed)))
}
