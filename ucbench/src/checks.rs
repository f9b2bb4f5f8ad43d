//! Correctness checks built on properties the simulation method must
//! have, not on saved output.
//!
//! - A report's uop sources add up, and its UPC is its uops over cycles.
//! - Its uops are the uops of the last `insts` instructions of the walk
//!   it simulated, which the benchmark records itself.
//! - The front end is decoupled from the uop cache, so instruction, uop
//!   and misprediction counts do not depend on uop-cache capacity or
//!   policy for one workload and seed.
//! - A cached answer repeats the first answer byte for byte, marked
//!   `cached: true`.

use std::collections::HashMap;
use std::sync::Arc;

use ucsim::model::FromJson;
use ucsim::pipeline::SimReport;
use ucsim::trace::{load_asm, record_workload, Program, WorkloadProfile};

/// The numbers the `ucsim` CLI prints for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CliReport {
    /// Measured instructions.
    pub insts: u64,
    /// Committed uops.
    pub uops: u64,
    /// Cycles.
    pub cycles: u64,
    /// UPC as printed (four decimals).
    pub upc: f64,
    /// Branch MPKI as printed, to two decimals: equal text means the
    /// misprediction counts differ by less than 0.01 per thousand measured
    /// instructions (20 mispredictions at the CLI's 2M), not that they are
    /// equal. The served paths report the count itself.
    pub mpki: String,
    /// Fraction of uop-cache fills compacted into an occupied line.
    pub compacted: f64,
}

impl CliReport {
    /// Parses the CLI's `name   value` lines.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed line.
    pub fn parse(text: &str) -> Result<CliReport, String> {
        let field = |name: &str| -> Result<&str, String> {
            text.lines()
                .find_map(|l| {
                    let rest = l.strip_prefix(name)?;
                    rest.starts_with("  ").then(|| rest.trim())
                })
                .ok_or_else(|| format!("CLI output lacks {name:?}"))
        };
        let num = |name: &str| -> Result<u64, String> {
            field(name)?
                .parse()
                .map_err(|_| format!("CLI {name:?} is not a count"))
        };
        let float = |name: &str| -> Result<f64, String> {
            field(name)?
                .parse()
                .map_err(|_| format!("CLI {name:?} is not a number"))
        };
        Ok(CliReport {
            insts: num("insts")?,
            uops: num("uops")?,
            cycles: num("cycles")?,
            upc: float("UPC")?,
            mpki: field("branch MPKI")?.to_owned(),
            compacted: float("compacted fraction")?,
        })
    }

    /// UPC agrees with uops / cycles to the four printed decimals.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_upc(&self) -> Result<(), String> {
        if self.cycles == 0 {
            return Err("CLI report has 0 cycles".to_owned());
        }
        let upc = self.uops as f64 / self.cycles as f64;
        if (upc - self.upc).abs() > 0.5e-4 + 1e-12 {
            return Err(format!("CLI UPC {} but uops/cycles = {upc}", self.upc));
        }
        Ok(())
    }
}

/// Uop sources add up to the committed uops, and UPC is exactly
/// uops / cycles.
///
/// # Errors
///
/// Describes the first broken identity.
pub fn check_sums(r: &SimReport) -> Result<(), String> {
    let sources = r.oc_uops + r.decoder_uops + r.loop_uops;
    if r.uops != sources {
        return Err(format!(
            "{}: uops {} != oc {} + decoder {} + loop {}",
            r.workload, r.uops, r.oc_uops, r.decoder_uops, r.loop_uops
        ));
    }
    if r.cycles == 0 || r.upc.to_bits() != (r.uops as f64 / r.cycles as f64).to_bits() {
        return Err(format!(
            "{}: upc {} != uops {} / cycles {}",
            r.workload, r.upc, r.uops, r.cycles
        ));
    }
    Ok(())
}

/// The report's uops equal the uops of the last `insts` instructions of
/// `walk`, the uop counts of the instruction stream it simulated.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_walk(insts: u64, uops: u64, walk: &[u8]) -> Result<(), String> {
    let n = usize::try_from(insts).unwrap_or(usize::MAX);
    if n == 0 || n > walk.len() {
        return Err(format!(
            "report covers {insts} insts of a {}-inst walk",
            walk.len()
        ));
    }
    let expect: u64 = walk[walk.len() - n..].iter().map(|&u| u64::from(u)).sum();
    if uops != expect {
        return Err(format!(
            "report has {uops} uops; its last {insts} walked insts carry {expect}"
        ));
    }
    Ok(())
}

/// Two runs of one workload and seed agree on everything the front end
/// decides, whatever their uop-cache configuration.
///
/// # Errors
///
/// Names the first differing count.
pub fn check_same_front_end(a: &SimReport, b: &SimReport) -> Result<(), String> {
    for (what, x, y) in [
        ("insts", a.insts, b.insts),
        ("uops", a.uops, b.uops),
        ("mispredicts", a.mispredicts, b.mispredicts),
    ] {
        if x != y {
            return Err(format!(
                "{}: {what} {x} vs {y} across uop-cache configs",
                a.workload
            ));
        }
    }
    Ok(())
}

/// The service ran exactly as many simulations as the run expects.
///
/// # Errors
///
/// Describes the difference.
pub fn check_simulations(ran: u64, want: u64) -> Result<(), String> {
    if ran == want {
        Ok(())
    } else {
        Err(format!("service ran {ran} simulations, expected {want}"))
    }
}

/// A served `/v1/sim` answer: `{"key":…,"cached":…,"report":…}`.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Content address.
    pub key: String,
    /// Whether the service answered from its cache.
    pub cached: bool,
    /// The report bytes exactly as served.
    pub report_text: String,
    /// The decoded report.
    pub report: SimReport,
}

impl Answer {
    /// Splits and decodes a response body.
    ///
    /// # Errors
    ///
    /// Describes the malformed part.
    pub fn parse(body: &str) -> Result<Answer, String> {
        let rest = body
            .strip_prefix("{\"key\":\"")
            .ok_or("answer does not start with its key")?;
        let (key, rest) = rest.split_once('"').ok_or("unterminated key")?;
        let (cached, report_text) =
            if let Some(r) = rest.strip_prefix(",\"cached\":true,\"report\":") {
                (true, r)
            } else if let Some(r) = rest.strip_prefix(",\"cached\":false,\"report\":") {
                (false, r)
            } else {
                return Err("answer lacks cached/report members".to_owned());
            };
        let report_text = report_text
            .strip_suffix('}')
            .ok_or("answer is not one object")?;
        let report = SimReport::from_json_str(report_text).map_err(|e| e.to_string())?;
        Ok(Answer {
            key: key.to_owned(),
            cached,
            report_text: report_text.to_owned(),
            report,
        })
    }

    /// This answer repeats `first` from the cache: same key, same report
    /// bytes, `cached: true`.
    ///
    /// # Errors
    ///
    /// Describes the difference.
    pub fn check_repeats(&self, first: &Answer) -> Result<(), String> {
        if !self.cached {
            return Err(format!(
                "repeat of {} was not answered from cache",
                first.key
            ));
        }
        if self.key != first.key || self.report_text != first.report_text {
            return Err(format!(
                "cached answer for {} differs from the first",
                first.key
            ));
        }
        Ok(())
    }
}

/// What a walk is recorded from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Source {
    /// A Table II profile with its seed replaced.
    Profile(&'static str, u64),
    /// An assembled ucasm program, laid out and walked at a seed.
    Asm(Arc<String>, u64),
}

/// Uop counts of recorded walks, recorded once per source and length.
#[derive(Default)]
pub struct Walks(HashMap<(Source, u64), Arc<Vec<u8>>>);

impl Walks {
    /// Per-instruction uop counts of the first `total` instructions the
    /// simulator walks for `source` — the same stream `ucsim` and the
    /// service feed their simulations.
    ///
    /// # Errors
    ///
    /// A message for an unknown profile or unassemblable program.
    pub fn get(&mut self, source: &Source, total: u64) -> Result<Arc<Vec<u8>>, String> {
        let key = (source.clone(), total);
        if let Some(w) = self.0.get(&key) {
            return Ok(Arc::clone(w));
        }
        let trace = match source {
            Source::Profile(name, seed) => {
                let mut profile =
                    WorkloadProfile::by_name(name).ok_or(format!("unknown profile {name}"))?;
                profile.seed = *seed;
                record_workload(&profile, &Program::generate(&profile), total)
            }
            Source::Asm(text, seed) => {
                let asm = ucsim::isa::assemble(text).map_err(|e| e.to_string())?;
                let profile = WorkloadProfile::user_program(*seed);
                record_workload(&profile, &load_asm(&asm, *seed), total)
            }
        };
        let uops: Arc<Vec<u8>> = Arc::new(trace.insts().iter().map(|i| i.uops).collect());
        self.0.insert(key, Arc::clone(&uops));
        Ok(uops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim::model::ToJson;
    use ucsim::pipeline::{SimConfig, Simulator};
    use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

    const TOTAL: u64 = 30_000;

    fn run(oc: UopCacheConfig) -> SimReport {
        let profile = WorkloadProfile::by_name("bm-cc").expect("profile");
        let cfg = SimConfig::table1()
            .with_uop_cache(oc)
            .with_insts(10_000, TOTAL - 10_000);
        Simulator::new(cfg).run(&profile, &Program::generate(&profile))
    }

    fn walk() -> Arc<Vec<u8>> {
        let seed = WorkloadProfile::by_name("bm-cc").expect("profile").seed;
        Walks::default()
            .get(&Source::Profile("bm-cc", seed), TOTAL)
            .expect("walk")
    }

    #[test]
    fn a_true_report_passes_every_check() {
        let base = run(UopCacheConfig::baseline_2k());
        let fpwac = run(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2));
        check_sums(&base).unwrap();
        check_walk(base.insts, base.uops, &walk()).unwrap();
        check_same_front_end(&base, &fpwac).unwrap();
    }

    #[test]
    fn sum_check_rejects_a_corrupted_report() {
        let mut r = run(UopCacheConfig::baseline_2k());
        r.decoder_uops += 1;
        assert!(check_sums(&r).is_err());
        let mut r = run(UopCacheConfig::baseline_2k());
        r.upc = f64::from_bits(r.upc.to_bits() + 1);
        assert!(check_sums(&r).is_err());
    }

    #[test]
    fn walk_check_rejects_a_corrupted_report() {
        let r = run(UopCacheConfig::baseline_2k());
        assert!(check_walk(r.insts, r.uops + 1, &walk()).is_err());
        assert!(check_walk(r.insts - 1, r.uops, &walk()).is_err());
    }

    #[test]
    fn front_end_check_rejects_a_corrupted_report() {
        let base = run(UopCacheConfig::baseline_2k());
        let mut other = run(UopCacheConfig::baseline_with_capacity(4096));
        check_same_front_end(&base, &other).unwrap();
        other.mispredicts += 1;
        assert!(check_same_front_end(&base, &other).is_err());
    }

    #[test]
    fn repeat_check_rejects_a_corrupted_or_uncached_answer() {
        let r = run(UopCacheConfig::baseline_2k()).to_json_string();
        let first = Answer::parse(&format!(
            "{{\"key\":\"00ab\",\"cached\":false,\"report\":{r}}}"
        ))
        .unwrap();
        let hit = Answer::parse(&format!(
            "{{\"key\":\"00ab\",\"cached\":true,\"report\":{r}}}"
        ))
        .unwrap();
        hit.check_repeats(&first).unwrap();
        assert!(first.check_repeats(&first).is_err(), "uncached repeat");
        let bent = r.replacen("\"cycles\":", "\"cycles\":1", 1);
        let bad = Answer::parse(&format!(
            "{{\"key\":\"00ab\",\"cached\":true,\"report\":{bent}}}"
        ))
        .unwrap();
        assert!(bad.check_repeats(&first).is_err(), "different bytes");
    }

    #[test]
    fn simulation_count_check_rejects_a_wrong_count() {
        check_simulations(32, 32).unwrap();
        assert!(check_simulations(33, 32).is_err());
        assert!(check_simulations(1, 0).is_err());
    }

    #[test]
    fn cli_checks_reject_a_corrupted_report() {
        let text =
            "insts                 100\nuops                  150\ncycles                100\n\
                    UPC                   1.5000\nbranch MPKI             2.00\n\
                    compacted fraction     0.100\n";
        let r = CliReport::parse(text).unwrap();
        r.check_upc().unwrap();
        let bad = CliReport::parse(&text.replace("1.5000", "1.5100")).unwrap();
        assert!(bad.check_upc().is_err());
        assert!(CliReport::parse(&text.replace("cycles", "cyc")).is_err());
    }
}
