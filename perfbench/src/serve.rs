//! The `serve` workload: synthetic skewed tenants on one
//! `PlacementService`, at the default scheduler pool size.
//!
//! Every tenant runs the two-task skewed workload for 8–11 rounds under a
//! static policy, so the policy layer does almost nothing and the
//! executor, the service control loop and the pool do the work. The queue
//! bound equals the tenant count and the pool holds two thirds of the
//! requested quotas, so admission squeezes grants but sheds nobody for
//! space. Every 7th tenant runs a crash / flaky-migration plan (it may be
//! quarantined); every 4th declares a deadline (it may be shed for it).
//!
//! One set-up builds and submits every tenant; one pass is one
//! `PlacementService::run`. A tenant round is timed from its workload's
//! `object_sizes` call to its policy's `after_round` return.

use std::sync::atomic::Ordering;

use merch_hm::runtime::StaticPolicy;
use merch_hm::service::{
    PlacementService, ServiceConfig, ServiceReport, ShedReason, TenantId, TenantReport, TenantSpec,
    TenantStatus,
};
use merch_hm::workload::testutil::SkewedWorkload;
use merch_hm::{
    CrashPoint, Executor, FaultKind, FaultPlan, HmConfig, HmSystem, RunReport, Tier, PAGE_SIZE,
};

use crate::common::{
    digest, median, mix64, peak_rss_mb, percentile, put_placement_counts, put_round_metrics, secs,
    Metrics, Outcome, RunConfig, Walls, MIN_PASSES,
};
use crate::timed::{take_rounds, TimedPolicy, TimedWorkload, SERVE_ROOT};
use crate::trace;

const QUOTA_PAGES: u64 = 16;
/// Set-ups timed before each pass take at least this long together, s.
/// A set-up takes milliseconds; spreading the samples over the whole run
/// lets their median average the host's drift the way the passes do.
const SETUP_BATCH_S: f64 = 0.7;
/// Mean virtual time one tenant round is charged, ns: sizes deadlines
/// against the expected service clock.
const ROUND_VIRTUAL_NS: f64 = 3.1e5;

/// What a tenant was built to do, for the output checks.
#[derive(Debug, Clone, Copy)]
struct Plan {
    rounds: u64,
    pages: u64,
    chaos: bool,
    deadline: bool,
}

fn tenant_count(cfg: &RunConfig) -> usize {
    if cfg.toy {
        48
    } else {
        3000
    }
}

type Job = Executor<TimedWorkload<SkewedWorkload>, TimedPolicy<StaticPolicy>>;

/// Build tenant `i` of `n`: its executor, its contract and its plan.
fn tenant(i: usize, n: usize, seed: u64, parent: u32) -> (Job, TenantSpec, Plan) {
    let run = i as u32;
    let mut draw = mix64(seed ^ ((i as u64) << 8) ^ 0x7E4A_4775);
    let mut next = move || {
        draw = mix64(draw);
        draw
    };
    let rounds = 8 + next() % 4;
    let chaos = i % 7 == 3;
    let deadline = i.is_multiple_of(4);
    let w = trace::scoped("apps.input_gen", None, run, parent, |_| SkewedWorkload {
        tasks: 2,
        rounds: rounds as usize,
        base_accesses: 1e5 * (0.75 + (next() % 1024) as f64 / 2048.0),
        obj_bytes: 8 * PAGE_SIZE,
    });
    let tier = if next() % 2 == 0 {
        Tier::Dram
    } else {
        Tier::Pm
    };
    let sys_seed = next();
    let crash = chaos.then(|| {
        let point = if next() % 2 == 0 {
            CrashPoint::MidMigration { after_attempts: 1 }
        } else {
            CrashPoint::BetweenRounds
        };
        (next() % 3, point, next())
    });
    let job = trace::scoped("hm.alloc", None, run, parent, |_| {
        let mut sys = HmSystem::new(
            HmConfig::calibrated(64 * PAGE_SIZE, 1024 * PAGE_SIZE),
            sys_seed,
        );
        if let Some((round, point, plan_seed)) = crash {
            let mut p = FaultPlan::none()
                .with_seed(plan_seed)
                .with_fault(FaultKind::Crash { round, point })
                .with_migration_failures(0.3, 2);
            p.dram_pressure_bytes = 4 * PAGE_SIZE;
            p.pressure_period_rounds = 2;
            sys.set_fault_plan(p)
                .expect("the benchmark's plans validate");
        }
        let w = TimedWorkload {
            inner: w,
            label: None,
            run,
            tenant_rounds: true,
        };
        let p = TimedPolicy {
            inner: StaticPolicy { tier },
            label: None,
            run,
            tenant_rounds: true,
        };
        Executor::new(sys, w, p)
    });
    let mut spec = TenantSpec::new(format!("t{i}"), QUOTA_PAGES * PAGE_SIZE)
        .with_min_quota((4 + next() % 8) * PAGE_SIZE)
        .with_weight(1 + (next() % 4) as u32)
        .with_priority((next() % 8) as u8);
    if deadline {
        // Between half and one and a half times the expected final clock.
        let expected_ns = n as f64 * 9.5 * ROUND_VIRTUAL_NS;
        spec = spec.with_deadline_ns(expected_ns * (0.5 + (next() % 1024) as f64 / 1024.0));
    }
    let pages = job.sys.page_table().len() as u64;
    (
        job,
        spec,
        Plan {
            rounds,
            pages,
            chaos,
            deadline,
        },
    )
}

fn setup(cfg: &RunConfig) -> (PlacementService, Vec<Plan>) {
    trace::scoped("setup", None, 0, 0, |sid| {
        let n = tenant_count(cfg);
        let pool = QUOTA_PAGES * (n as u64 * 2 / 3).max(1) * PAGE_SIZE;
        let mut svc = PlacementService::new(
            ServiceConfig::new(pool)
                .with_seed(cfg.seed)
                .with_max_queue(n),
        );
        let mut plans = Vec::with_capacity(n);
        for i in 0..n {
            let (job, spec, plan) = tenant(i, n, cfg.seed, sid);
            trace::scoped("service.submit", None, i as u32, sid, |_| {
                svc.submit(spec, Box::new(job))
            })
            .expect("generated specs validate");
            plans.push(plan);
        }
        (svc, plans)
    })
}

/// One `PlacementService::run`. The service is dropped with the pass; its
/// report, round times and A.C.V stay (and every tenant's run report when
/// the pass is traced).
struct Pass {
    wall_ns: u64,
    rounds: Vec<(u64, u64)>,
    report: ServiceReport,
    /// Mean A.C.V of the completed tenants.
    acv: f64,
    /// Every tenant's run report, in submission order (traced pass only).
    runs: Vec<RunReport>,
}

fn run_pass(mut svc: PlacementService) -> Pass {
    let _ = take_rounds();
    let token = trace::begin("service.run", None, 0, 0);
    SERVE_ROOT.store(trace::id_of(&token), Ordering::Relaxed);
    let t0 = trace::now_ns();
    let report = svc.run();
    let wall_ns = trace::now_ns() - t0;
    trace::end(token);
    let run_of = |t: &TenantReport| svc.tenant_run_report(TenantId(t.id));
    let acvs: Vec<f64> = report
        .tenants
        .iter()
        .filter(|t| t.status == TenantStatus::Completed)
        .map(|t| run_of(t).acv())
        .collect();
    let runs = if trace::enabled() {
        report.tenants.iter().map(run_of).collect()
    } else {
        Vec::new()
    };
    Pass {
        wall_ns,
        rounds: take_rounds(),
        acv: acvs.iter().sum::<f64>() / acvs.len().max(1) as f64,
        report,
        runs,
    }
}

fn check_pass(pass: &Pass, plans: &[Plan], want: u64, what: &str, out: &mut Outcome) {
    let r = &pass.report;
    out.check(r.quota_violations == 0, || {
        format!("{what}: {} quota violations", r.quota_violations)
    });
    out.check(r.tenants.len() == plans.len(), || {
        format!(
            "{what}: {} tenant reports for {} tenants",
            r.tenants.len(),
            plans.len()
        )
    });
    for (t, plan) in r.tenants.iter().zip(plans) {
        let ok = match t.status {
            TenantStatus::Completed => {
                t.rounds_done == plan.rounds && t.rounds_total == plan.rounds
            }
            TenantStatus::Quarantined { .. } => plan.chaos,
            TenantStatus::Shed(ShedReason::DeadlineExpired) => plan.deadline,
            TenantStatus::Shed(ShedReason::QueueFull | ShedReason::CapacityExceeded)
            | TenantStatus::Queued
            | TenantStatus::Running => false,
        };
        out.check(ok, || {
            format!(
                "{what}: tenant {} ended {:?} after {}/{} rounds (planned {}, chaos {}, deadline {})",
                t.name, t.status, t.rounds_done, t.rounds_total, plan.rounds, plan.chaos, plan.deadline
            )
        });
    }
    let served: u64 = r.tenants.iter().map(|t| t.rounds_done).sum();
    out.check(served == pass.rounds.len() as u64, || {
        format!(
            "{what}: tenants report {served} rounds but {} were timed",
            pass.rounds.len()
        )
    });
    out.check(digest(r) == want, || {
        format!("{what}: ServiceReport differs from the first untraced pass")
    });
}

/// Tenants whose run ended other than their plan allows.
fn unplanned(report: &ServiceReport, plans: &[Plan]) -> u64 {
    report
        .tenants
        .iter()
        .zip(plans)
        .filter(|(t, p)| match t.status {
            TenantStatus::Completed => false,
            TenantStatus::Quarantined { .. } => !p.chaos,
            TenantStatus::Shed(ShedReason::DeadlineExpired) => !p.deadline,
            _ => true,
        })
        .count() as u64
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let batch_s = if cfg.toy { 0.0 } else { SETUP_BATCH_S };
    let mut measured = 0.0;
    let mut peak_rss = 0.0;
    let plans = loop {
        // A batch of set-ups before every pass; the last one feeds it.
        let mut batch = 0.0;
        let (svc, plans) = loop {
            let t0 = trace::now_ns();
            let built = setup(cfg);
            let took = secs(t0, trace::now_ns());
            setups.push(took);
            batch += took;
            if batch >= batch_s {
                break built;
            }
        };
        let pass = run_pass(svc);
        measured += pass.wall_ns as f64 / 1e9;
        passes.push(pass);
        if passes.len() == MIN_PASSES {
            // The same work on any host: later passes only add samples.
            peak_rss = peak_rss_mb();
        }
        if measured >= cfg.seconds && passes.len() >= MIN_PASSES {
            break plans;
        }
    };
    let want = digest(&passes[0].report);
    for (i, pass) in passes.iter().enumerate() {
        check_pass(pass, &plans, want, &format!("untraced pass {i}"), &mut out);
        out.attempted += plans.len() as u64;
        out.failed += unplanned(&pass.report, &plans);
    }

    let wall: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let round_ms: Vec<(f64, Vec<f64>)> = passes
        .iter()
        .map(|p| {
            let ms = p
                .rounds
                .iter()
                .map(|&(s, e)| (e - s) as f64 / 1e6)
                .collect();
            (p.wall_ns as f64 / 1e9, ms)
        })
        .collect();
    let samples: usize = round_ms.iter().map(|(_, r)| r.len()).sum();
    out.e2e.put("setup_s", median(&setups), "s");
    put_round_metrics(&mut out, &round_ms);
    out.e2e.put("acv", passes[0].acv, "ratio");
    out.e2e.put("peak_rss_mb", peak_rss, "MB");
    let first = &passes[0].report;
    out.notes.push(format!(
        "untraced: {} set-ups (p10/p50/p90 {:.6}/{:.6}/{:.6} s), passes {:.3?} s, {} tenant-round samples \
         in {wall:.3} s; {} tenants submitted, {} completed, {} quarantined, {} shed, \
         virtual clock {:.0} ns",
        setups.len(),
        percentile(&setups, 0.1),
        median(&setups),
        percentile(&setups, 0.9),
        passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect::<Vec<_>>(),
        samples,
        plans.len(),
        first.completed,
        first.quarantined,
        first.shed,
        first.clock_ns
    ));

    if cfg.trace {
        let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
        trace::set_enabled(true);
        let t0 = trace::now_ns();
        let (svc, plans) = setup(cfg);
        let setup_s = secs(t0, trace::now_ns());
        let pass = run_pass(svc);
        trace::set_enabled(false);
        let walls = Walls {
            setup_s,
            pass_s: pass.wall_ns as f64 / 1e9,
            untraced_setup_s: median(&setups),
            untraced_pass_s: median(&pass_walls),
            untraced_passes: pass_walls.len(),
        };
        check_pass(&pass, &plans, want, "traced pass", &mut out);
        out.spans = trace::take();
        layer_metrics(&mut out, &pass, &plans, &walls);
    }
    out
}

fn layer_metrics(out: &mut Outcome, pass: &Pass, plans: &[Plan], walls: &Walls) {
    let roll = trace::Rollup::of(&out.spans);
    let r = &pass.report;
    let m: &mut Metrics = &mut out.layers;
    m.put("apps.input_gen_s", roll.self_of("apps.input_gen"), "s");
    m.put("hm.alloc_s", roll.self_of("hm.alloc"), "s");
    m.put("service.submit_s", roll.self_of("service.submit"), "s");
    m.put("core.policy_setup_s", roll.self_of("core.on_allocate"), "s");
    m.put("apps.instance_s", roll.self_of("apps.instance"), "s");
    m.put(
        "core.before_round_s",
        roll.self_of("core.before_round"),
        "s",
    );
    m.put("core.after_round_s", roll.self_of("core.after_round"), "s");
    m.put("hm.execute_s", roll.self_of("service.tenant_round"), "s");
    let run_s = roll.total_of("service.run");
    let rounds_s = roll.total_of("service.tenant_round");
    m.put("service.tenant_round_s", rounds_s, "s");
    m.put("service.control_self_s", roll.self_of("service.run"), "s");
    m.put("sched.parallelism", rounds_s / run_s, "ratio");
    let runs: Vec<&RunReport> = pass.runs.iter().collect();
    put_placement_counts(m, &runs, plans.iter().map(|p| p.pages).sum());
    let n = plans.len() as f64;
    m.put("service.submitted", n, "count");
    m.put("service.admitted", r.admitted as f64, "count");
    m.put("service.completed", r.completed as f64, "count");
    m.put("service.quarantined", r.quarantined as f64, "count");
    m.put("service.shed", r.shed as f64, "count");
    m.put("service.squeezed", r.squeezed as f64, "count");
    m.put("service.tripped", r.tripped as f64, "count");
    m.put(
        "service.tenant_rounds",
        r.tenants.iter().map(|t| t.rounds_done).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "service.quota_violations",
        r.quota_violations as f64,
        "count",
    );
    let with_deadline = plans.iter().filter(|p| p.deadline).count().max(1) as f64;
    m.put(
        "slo_miss_frac",
        r.deadline_misses as f64 / with_deadline,
        "ratio",
    );
    m.put("fairness_jain", r.fairness_jain, "ratio");
    m.put("failed_frac", (r.quarantined + r.shed) as f64 / n, "ratio");
    m.put("bench.harness_s", roll.self_of("setup"), "s");
    m.put("trace.spans", out.spans.len() as f64, "count");
    walls.report(out);
    out.notes.push(format!(
        "serve accounting: run wall {run_s:.6} s = control self {:.6} s + tenant-round union {:.6} s; \
         sum of tenant rounds {rounds_s:.6} s",
        roll.self_of("service.run"),
        run_s - roll.self_of("service.run")
    ));
}
