//! Multi-tenant serve scaling on the unified scheduler (DESIGN.md §16):
//! a placement service over many tenants, run twice — the serial DRR loop
//! (`merch_sched` pool forced to 1 job) and the concurrent tenant-round
//! executor (one task per admitted tenant on the shared work-stealing
//! pool) — with the `ServiceReport` and every per-tenant run report
//! asserted `{:?}`-identical between the two before either time is
//! recorded. The registry row carries the serial time as the baseline and
//! the concurrent time as the engine, so the artifact states the measured
//! speedup *on the host that ran it*; there is deliberately no relative
//! gate (a speedup floor would encode the runner's core count), only an
//! absolute per-run ceiling at 64+ tenants.
//!
//! Tenants run the synthetic skewed workload under a static policy — the
//! same executor the service proptests use — not full paper applications:
//! the subject here is how the *scheduler* scales with tenant count
//! (admission, DRR interleaving, pipe handoff, retirement), and app-sized
//! rounds at 500 tenants would drown that signal in application time.
//! Every 7th tenant runs under a chaos plan (scripted crash, flaky
//! migrations, DRAM pressure) so quarantine and retirement churn under
//! the concurrent executor too.
//!
//! `harness = false`: plain main with its own timing loop so the measured
//! means can be written to `BENCH_serve.json` through the bench registry.
//! `--smoke` (or `MERCH_BENCH_SMOKE=1`) runs 64 tenants for CI and skips
//! the JSON unless `MERCH_BENCH_OUT` is set. The full matrix runs
//! 100–500 tenants.

use std::time::Instant;

use merch_bench::registry::{self, BenchRow};
use merch_hm::page::PAGE_SIZE;
use merch_hm::runtime::StaticPolicy;
use merch_hm::service::{PlacementService, ServiceConfig, TenantId, TenantSpec};
use merch_hm::workload::testutil::SkewedWorkload;
use merch_hm::{CrashPoint, Executor, FaultKind, FaultPlan, HmConfig, HmSystem, Tier};

/// Concurrent-executor job count: every core the host has, but at least 2
/// so the concurrent code path (tenant-round tasks, pipes, helping join)
/// is exercised even on a single-core runner.
fn concurrent_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// One synthetic tenant job: a few rounds of the skewed workload with a
/// DRAM-hungry static policy, seeded per tenant; every 7th tenant gets a
/// chaos plan (crash between rounds or mid-migration, flaky migrations,
/// co-tenant DRAM pressure).
fn job(i: usize, seed: u64) -> Executor<SkewedWorkload, StaticPolicy> {
    let app = SkewedWorkload {
        tasks: 2,
        rounds: 3 + i % 4,
        base_accesses: 1e5,
        obj_bytes: 8 * PAGE_SIZE,
    };
    let mut sys = HmSystem::new(
        HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE),
        seed ^ i as u64,
    );
    if i % 7 == 3 {
        let point = if i.is_multiple_of(2) {
            CrashPoint::MidMigration { after_attempts: 1 }
        } else {
            CrashPoint::BetweenRounds
        };
        let mut p = FaultPlan::none().with_fault(FaultKind::Crash {
            round: (i % 3) as u64,
            point,
        });
        p.seed = seed ^ 0xC4A5 ^ i as u64;
        p.migration_fail_rate = 0.3;
        p.dram_pressure_bytes = 4 * PAGE_SIZE;
        p.pressure_period_rounds = 2;
        sys.set_fault_plan(p).expect("plan set before any round");
    }
    let tier = if i.is_multiple_of(2) {
        Tier::Dram
    } else {
        Tier::Pm
    };
    Executor::new(sys, app, StaticPolicy { tier })
}

/// Build and run the n-tenant service; returns the rollup report and every
/// per-tenant run report, both as canonical `{:?}` strings.
fn run_service(n: usize, seed: u64) -> (String, Vec<String>) {
    // Pool at ~2/3 of requested quotas: grants squeeze and admission
    // queues, so the DRR control loop does real work at every size.
    let quota_pages = 16u64;
    let pool = quota_pages * (n as u64 * 2 / 3).max(1) * PAGE_SIZE;
    let mut svc = PlacementService::new(ServiceConfig::new(pool).with_seed(seed));
    for i in 0..n {
        let spec = TenantSpec::new(format!("t{i}"), quota_pages * PAGE_SIZE)
            .with_min_quota((4 + (i as u64 % 8)) * PAGE_SIZE)
            .with_weight(1 + (i as u32 % 4))
            .with_priority((i % 8) as u8);
        svc.submit(spec, Box::new(job(i, seed)))
            .expect("spec is valid");
    }
    let report = svc.run();
    let runs = (0..n)
        .map(|i| format!("{:?}", svc.tenant_run_report(TenantId(i as u32))))
        .collect();
    (format!("{report:?}"), runs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("MERCH_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let tenant_counts: &[usize] = if smoke { &[64] } else { &[100, 250, 500] };

    let jobs = concurrent_jobs();
    let mut rows = Vec::new();
    println!(
        "{:<24} {:>8} {:>8} {:>14} {:>14} {:>9}",
        "benchmark", "tenants", "jobs", "serial_us", "concurrent_us", "speedup"
    );
    for &n in tenant_counts {
        let seed = 0x5CA1E ^ n as u64;

        merch_sched::set_pool_jobs(1);
        let t0 = Instant::now();
        let serial = run_service(n, seed);
        let serial_us = t0.elapsed().as_secs_f64() * 1e6;

        merch_sched::set_pool_jobs(jobs);
        let t1 = Instant::now();
        let concurrent = run_service(n, seed);
        let concurrent_us = t1.elapsed().as_secs_f64() * 1e6;
        merch_sched::set_pool_jobs(0);

        // The whole point: concurrency must be bitwise invisible.
        assert_eq!(
            serial.0, concurrent.0,
            "concurrent ServiceReport diverged from the serial loop at {n} tenants"
        );
        assert_eq!(
            serial.1, concurrent.1,
            "per-tenant run reports diverged from the serial loop at {n} tenants"
        );

        let r = BenchRow {
            bench: "serve".to_string(),
            name: "concurrent_rounds".to_string(),
            size: n as u64,
            baseline_us: Some(serial_us),
            engine_us: concurrent_us,
        };
        println!(
            "{:<24} {:>8} {:>8} {:>14.0} {:>14.0} {:>8.2}x",
            r.name,
            n,
            jobs,
            serial_us,
            concurrent_us,
            r.speedup().expect("serial baseline always runs")
        );
        rows.push(r);
    }

    registry::enforce(&rows);

    let json = registry::emit_json("serve", &rows);
    let out = std::env::var("MERCH_BENCH_OUT").ok().map(Into::into).or({
        if smoke {
            None
        } else {
            Some(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json"))
        }
    });
    if let Some(path) = out {
        std::fs::write(&path, json).expect("bench JSON must be writable");
        eprintln!("wrote {}", path.display());
    }
}
