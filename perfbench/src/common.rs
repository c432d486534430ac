//! Pieces every workload shares: run settings, the metric list a run
//! fills, the outcome it returns, and small statistics helpers.

use std::fmt;

use merch_hm::{RoundReport, RunReport};

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum wall time of the untraced measured phase, seconds.
    pub seconds: f64,
    /// Also make a traced pass and report per-layer metrics.
    pub trace: bool,
    /// Toy-sized inputs (the benchmark's own tests).
    pub toy: bool,
}

/// Untraced passes a run makes at least, whatever `seconds` says. Metrics
/// that must not depend on host speed (`acv`) use exactly these passes.
pub const MIN_PASSES: usize = 3;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics of the untraced run.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced pass (empty without `trace`).
    pub layers: Metrics,
    /// Operations the run attempted (app runs or tenant jobs).
    pub attempted: u64,
    /// Attempted operations that ended other than their plan says.
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub failures: Vec<String>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Spans of the traced pass.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Wall time of the traced set-up and pass next to untraced ones of the
/// same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Walls {
    pub setup_s: f64,
    pub pass_s: f64,
    pub untraced_setup_s: f64,
    pub untraced_pass_s: f64,
    /// Untraced passes `untraced_pass_s` is the median of.
    pub untraced_passes: usize,
}

impl Walls {
    /// Report the traced wall and the tracing overhead: traced minus
    /// untraced wall of the measured pass, where the spans are dense. The
    /// set-up difference is printed beside it.
    pub fn report(&self, out: &mut Outcome) {
        let pass = self.pass_s - self.untraced_pass_s;
        let setup = self.setup_s - self.untraced_setup_s;
        out.layers
            .put("trace.wall_s", self.setup_s + self.pass_s, "s");
        out.layers.put("trace.overhead_s", pass, "s");
        out.notes.push(format!(
            "tracing overhead: pass {pass:.6} s (traced {:.6} s, untraced {:.6} s, \
             median of {} pass(es)); set-up {setup:.6} s (traced {:.6} s, untraced {:.6} s)",
            self.pass_s,
            self.untraced_pass_s,
            self.untraced_passes,
            self.setup_s,
            self.untraced_setup_s
        ));
    }
}

/// splitmix64 finalizer: the seeded draw every generated input uses.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over everything written to it: a digest of a `{:?}` rendering
/// without building the string.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Digest of `value`'s `{:?}` rendering.
pub fn digest(value: &impl fmt::Debug) -> u64 {
    use fmt::Write as _;
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median, the mean of the two middle values for an even count; 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One pass as the round metrics see it: its wall time in seconds and the
/// wall time of each of its rounds in ms.
pub type PassRounds = (f64, Vec<f64>);

/// Put `rounds_per_s` (rounds over wall time of every pass) and the
/// round-time percentiles p50, p90 and p99 over the rounds of every pass,
/// and note the per-pass figures with their sample counts.
pub fn put_round_metrics(out: &mut Outcome, passes: &[PassRounds]) {
    let all: Vec<f64> = passes.iter().flat_map(|(_, r)| r.iter().copied()).collect();
    let wall: f64 = passes.iter().map(|(w, _)| w).sum();
    out.e2e
        .put("rounds_per_s", all.len() as f64 / wall, "rounds/s");
    out.e2e.put("round_p50_ms", percentile(&all, 0.5), "ms");
    out.e2e.put("round_p90_ms", percentile(&all, 0.9), "ms");
    out.e2e.put("round_p99_ms", percentile(&all, 0.99), "ms");
    let per_pass = |f: &dyn Fn(&PassRounds) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    out.notes.push(format!(
        "per pass: rounds/s {:.1?}, round p50 {:.3?} ms, p99 {:.3?} ms, samples {:?}",
        per_pass(&|(wall, r)| r.len() as f64 / wall),
        per_pass(&|(_, r)| percentile(r, 0.5)),
        per_pass(&|(_, r)| percentile(r, 0.99)),
        passes.iter().map(|(_, r)| r.len()).collect::<Vec<_>>()
    ));
}

/// Put the placement counts summed over `runs` (`pages` is the working
/// set allocated for them) and return `(failed pages, migration attempts)`.
pub fn put_placement_counts(m: &mut Metrics, runs: &[&RunReport], pages: u64) -> (f64, f64) {
    let per_run = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let per_round = |f: &dyn Fn(&RoundReport) -> u64| per_run(&|r| r.rounds.iter().map(f).sum());
    let migrated = per_round(&|x| x.migration_pages);
    let attempts = per_round(&|x| x.migration_attempts);
    let failed = per_round(&|x| x.failed_pages);
    m.put("hm.rounds", per_round(&|_| 1), "count");
    m.put("hm.tasks", per_round(&|x| x.tasks.len() as u64), "count");
    m.put("hm.pages", pages as f64, "count");
    m.put("hm.pages_migrated", migrated, "count");
    m.put("hm.migration_attempts", attempts, "count");
    let success = if attempts > 0.0 {
        migrated / attempts
    } else {
        1.0
    };
    m.put("hm.migration_success_ratio", success, "ratio");
    m.put("hm.failed_pages", failed, "count");
    m.put(
        "core.degraded_rounds",
        per_run(&|r| r.fault.degraded_rounds),
        "count",
    );
    m.put("hm.epoch_commits", per_run(&|r| r.epoch_commits), "count");
    m.put(
        "hm.epoch_rollbacks",
        per_run(&|r| r.epoch_rollbacks),
        "count",
    );
    m.put(
        "hm.straggler_events",
        per_round(&|x| x.straggler_events),
        "count",
    );
    (failed, attempts)
}

/// Peak resident set size of this process (VmHWM), MiB; 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds between two `trace::now_ns` readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn digest_follows_debug_text() {
        assert_eq!(digest(&(1, "a")), digest(&(1, "a")));
        assert_ne!(digest(&(1, "a")), digest(&(1, "b")));
    }
}
