//! End-to-end benchmark of the Merchandiser runtime.
//!
//! Three workloads, each run by name with a seed (see `README.md` in this
//! directory for why each was chosen and which layer it stresses):
//!
//! * `apps` — the five paper apps under `MerchandiserPolicy`;
//! * `apps-recover` — four apps under faults, checkpointed every round,
//!   crashed mid-run and resumed from the WAL;
//! * `serve` — 3 000 synthetic tenants on one `PlacementService`.
//!
//! A run measures the untraced end-to-end metrics ([`END_TO_END`]); with
//! tracing on it then makes one traced pass and derives the per-layer
//! metrics ([`per_layer`]) from span self times. Layer spans are recorded
//! from the benchmark's own code around calls into public functions; the
//! program under test is not changed.

pub mod apps;
pub mod common;
pub mod serve;
pub mod timed;
pub mod trace;

use std::path::PathBuf;

pub use common::{Outcome, RunConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["apps", "apps-recover", "serve"];

/// End-to-end metrics every workload reports from its untraced run:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "rounds/s", "higher"),
    ("round_p50_ms", "ms", "lower"),
    ("acv", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, before the per-app round-path timings:
/// `(name, unit, better)`.
const LAYERS: [(&str, &str, &str); 54] = [
    // Set-up → setup_s.
    ("apps.input_gen_s", "s", "lower"),
    ("models.train_s", "s", "lower"),
    ("hm.alloc_s", "s", "lower"),
    ("core.policy_setup_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    // Round path → rounds_per_s and the round latencies.
    ("apps.instance_s", "s", "lower"),
    ("core.before_round_s", "s", "lower"),
    ("core.after_round_s", "s", "lower"),
    ("core.plan_s", "s", "lower"),
    ("hm.execute_s", "s", "lower"),
    // Placement counts → speedup_vs_pm, acv, failed_frac.
    ("hm.rounds", "count", "higher"),
    ("hm.tasks", "count", "higher"),
    ("hm.pages", "count", "higher"),
    ("hm.pages_migrated", "count", "lower"),
    ("hm.migration_attempts", "count", "lower"),
    ("hm.migration_success_ratio", "ratio", "higher"),
    ("hm.failed_pages", "count", "lower"),
    ("core.degraded_rounds", "count", "lower"),
    ("hm.epoch_commits", "count", "higher"),
    ("hm.epoch_rollbacks", "count", "lower"),
    ("hm.straggler_events", "count", "lower"),
    // Checkpoint → rounds_per_s and recovery_s on apps-recover.
    ("hm.snapshot_s", "s", "lower"),
    ("hm.wal_append_s", "s", "lower"),
    ("hm.wal_bytes", "bytes", "lower"),
    ("hm.wal_records", "count", "higher"),
    ("hm.wal_write_retries", "count", "lower"),
    ("hm.wal_skipped", "count", "lower"),
    ("hm.wal_scan_s", "s", "lower"),
    ("hm.resume_s", "s", "lower"),
    ("hm.resume_replayed_rounds", "count", "lower"),
    // Service → the serve metrics.
    ("service.tenant_round_s", "s", "lower"),
    ("service.control_self_s", "s", "lower"),
    ("sched.parallelism", "ratio", "higher"),
    ("service.submitted", "count", "higher"),
    ("service.admitted", "count", "higher"),
    ("service.completed", "count", "higher"),
    ("service.quarantined", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.squeezed", "count", "lower"),
    ("service.tripped", "count", "lower"),
    ("service.tenant_rounds", "count", "higher"),
    ("service.quota_violations", "count", "lower"),
    // Workload results: the round tail (too host-sensitive on two vCPUs to
    // carry a bound), then results that are deterministic per seed except
    // recovery_s.
    ("round_p90_ms", "ms", "lower"),
    ("round_p99_ms", "ms", "lower"),
    ("speedup_vs_pm", "x", "higher"),
    ("recovery_s", "s", "lower"),
    ("slo_miss_frac", "ratio", "lower"),
    ("fairness_jain", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
    // The trace itself.
    ("bench.harness_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.self_sum_s", "s", "lower"),
];

/// Every per-layer metric: the layer list plus the round-path timings per
/// app (`core.before_round_s.DMRG`, ...).
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<_> = LAYERS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for metric in apps::PER_APP_TIMINGS {
        for app in apps::APPS {
            v.push((format!("{metric}.{app}"), "s", "lower"));
        }
    }
    v
}

/// Where runs write WAL files and span dumps: `out/` beside this crate's
/// manifest, inside the checkout that built it.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("the benchmark's output directory must be creatable");
    dir
}

/// Run one workload by name.
pub fn run(workload: &str, cfg: &RunConfig) -> Option<Outcome> {
    let mut out = match workload {
        "apps" => apps::run(apps::Mode::Apps, cfg),
        "apps-recover" => apps::run(apps::Mode::Recover, cfg),
        "serve" => serve::run(cfg),
        _ => return None,
    };
    if cfg.trace {
        let sum: f64 = trace::self_times(&out.spans).iter().sum::<u64>() as f64 / 1e9;
        out.layers.put("trace.self_sum_s", sum, "s");
        for tail in ["round_p90_ms", "round_p99_ms"] {
            let v = out
                .e2e
                .get(tail)
                .expect("every workload measures the round tail");
            out.layers.put(tail, v, "ms");
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    /// The span and round buffers are process-global, so tests that run
    /// workloads take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn toy(seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            trace,
            toy: true,
        }
    }

    /// Every output check passes at toy size, on two seeds, and the run
    /// reports every end-to-end metric with a positive value.
    #[test]
    fn toy_runs_pass_every_check() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for workload in WORKLOADS {
            for seed in [1, 7] {
                let out = run(workload, &toy(seed, 0.0, true)).expect("known workload");
                assert!(
                    out.failures.is_empty(),
                    "{workload} seed {seed}: {:?}",
                    out.failures
                );
                assert_eq!(out.failed, 0, "{workload} seed {seed}");
                for (name, ..) in END_TO_END {
                    let v = out
                        .e2e
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: no {name}"));
                    assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                }
                assert!(!out.spans.is_empty(), "{workload}: no spans");
            }
        }
    }

    /// `acv` does not depend on how many passes the host's speed allows.
    #[test]
    fn acv_does_not_depend_on_seconds() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for workload in WORKLOADS {
            let short = run(workload, &toy(3, 0.0, false)).expect("known workload");
            let long = run(workload, &toy(3, 0.5, false)).expect("known workload");
            assert!(
                long.attempted > short.attempted,
                "{workload}: the longer run made no more passes"
            );
            assert_eq!(short.e2e.get("acv"), long.e2e.get("acv"), "{workload}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closed string")])
            .collect();
        let mut want: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        want.extend(END_TO_END.iter().map(|(n, ..)| n.to_string()));
        want.extend(per_layer().into_iter().map(|(n, ..)| n));
        assert_eq!(names, want);
    }
}
