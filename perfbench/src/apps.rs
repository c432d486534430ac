//! The `apps` and `apps-recover` workloads: the paper's applications under
//! `MerchandiserPolicy`, one after another, driven round by round through
//! `Executor::step`.
//!
//! * `apps` runs all five apps fault-free with the quick model. The policy
//!   layer (`core`) dominates it.
//! * `apps-recover` runs SpGEMM, WarpX, BFS and NWChem-TC under migration,
//!   sampling and checkpoint-write faults. After every step it snapshots
//!   the executor and appends the snapshot to a WAL, as `run_supervised`
//!   does. A scripted crash at the middle round of every app is recovered
//!   with `Wal::latest` + `Executor::resume` on a spare workload and policy
//!   built during set-up. DMRG stays out: its policy time would bury the
//!   checkpoint layer.
//!
//! One set-up trains the model, generates every input, builds the policies
//! and allocates every executor. One pass runs every app to completion.
//! The untraced phase alternates set-ups and passes until `seconds` of
//! passes and at least `MIN_PASSES` passes have run.

use std::path::{Path, PathBuf};

use merch_apps::{BfsApp, DmrgApp, HpcApp, NwchemTcApp, SpgemmApp, WarpxApp};
use merch_hm::runtime::StaticPolicy;
use merch_hm::system::HmError;
use merch_hm::{
    CrashPoint, Executor, FaultKind, FaultPlan, HmConfig, HmSystem, RunReport, Tier, Wal, Workload,
};
use merchandiser::training::{
    build_training_dataset, generate_code_samples, train_correlation_function, TrainingOptions,
};
use merchandiser::{MerchandiserPolicy, PerformanceModel};

use crate::common::{
    digest, median, mix64, peak_rss_mb, put_placement_counts, put_round_metrics, secs, Outcome,
    RunConfig, Walls, MIN_PASSES,
};
use crate::timed::{take_plan_s, TimedPolicy, TimedWorkload};
use crate::trace;

/// The paper's applications, in its column order.
pub const APPS: [&str; 5] = ["SpGEMM", "WarpX", "BFS", "DMRG", "NWChem-TC"];

/// Round-path timings reported per app as well as in total.
pub const PER_APP_TIMINGS: [&str; 5] = [
    "apps.instance_s",
    "core.before_round_s",
    "core.after_round_s",
    "core.plan_s",
    "hm.execute_s",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Apps,
    Recover,
}

impl Mode {
    fn apps(self) -> &'static [usize] {
        match self {
            Mode::Apps => &[0, 1, 2, 3, 4],
            Mode::Recover => &[0, 1, 2, 4],
        }
    }
}

type Wl = TimedWorkload<Box<dyn HpcApp>>;
type Pl = TimedPolicy<MerchandiserPolicy>;

/// 32-bit input seed of `app` in input set `set`: full-width seeds
/// overflow debug-build seed arithmetic in some app constructors.
fn app_seed(seed: u64, set: u64, app: usize) -> u64 {
    mix64(seed ^ 0xA995_0000 ^ (set << 24) ^ ((app as u64) << 40)) & 0xFFFF_FFFF
}

fn build_app(app: usize, toy: bool, seed: u64) -> Box<dyn HpcApp> {
    match (app, toy) {
        (0, false) => Box::new(SpgemmApp::default_scaled(seed)),
        (0, true) => Box::new(SpgemmApp::new(9, 8, 4, 4, seed)),
        (1, false) => Box::new(WarpxApp::default_scaled(seed)),
        (1, true) => Box::new(WarpxApp::new(2, 2, 256, 4000, 4, seed)),
        (2, false) => Box::new(BfsApp::default_scaled(seed)),
        (2, true) => Box::new(BfsApp::new(11, 8, 4, 4, seed)),
        (3, false) => Box::new(DmrgApp::default_scaled(seed)),
        (3, true) => Box::new(DmrgApp::new(vec![60, 70, 80], 16, 2, seed)),
        (4, false) => Box::new(NwchemTcApp::default_scaled(seed)),
        _ => Box::new(NwchemTcApp::new(4, 40, 40, 80, 10, 4, seed)),
    }
}

/// Offline phase with the quick model: code samples, training set, GBR.
fn train(toy: bool, seed: u64) -> PerformanceModel {
    let samples = generate_code_samples(if toy { 24 } else { 70 }, seed);
    let dataset = build_training_dataset(&HmConfig::default(), &samples, 10, seed ^ 0xD5);
    let opts = TrainingOptions {
        include_mlp: false,
        include_all_models: false,
        selected_events: 8,
        mlp_epochs: 60,
    };
    train_correlation_function(&dataset, &opts, seed ^ 0x7A).model
}

fn policy(model: &PerformanceModel, app: &dyn HpcApp, seed: u64) -> MerchandiserPolicy {
    let map = merch_patterns::classify_kernel(&app.kernel_ir());
    MerchandiserPolicy::new(model.clone(), map, app.reuse_hints(), seed ^ 0x3E)
}

/// The fault plan of `apps-recover` (no crash); `None` for `apps`.
fn fault_plan(mode: Mode, seed: u64) -> Option<FaultPlan> {
    (mode == Mode::Recover).then(|| {
        FaultPlan::none()
            .with_seed(seed ^ 0xFA17)
            .with_migration_failures(0.1, 2)
            .with_sample_dropout(0.2, 0.2)
            .with_checkpoint_write_failures(0.1)
    })
}

fn system(app: &dyn HpcApp, seed: u64, plan: Option<FaultPlan>) -> HmSystem {
    let mut sys = HmSystem::new(app.recommended_config(), seed);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan)
            .expect("the benchmark's plans validate");
    }
    sys
}

/// One app, ready to run.
struct Case {
    app: usize,
    run: u32,
    ex: Executor<Wl, Pl>,
    /// Workload and policy the resumed executor gets after the crash.
    spare: Option<(Wl, Pl)>,
    pages: u64,
}

fn wrap_w(inner: Box<dyn HpcApp>, label: &'static str, run: u32) -> Wl {
    TimedWorkload {
        inner,
        label: Some(label),
        run,
        tenant_rounds: false,
    }
}

fn wrap_p(inner: MerchandiserPolicy, label: &'static str, run: u32) -> Pl {
    TimedPolicy {
        inner,
        label: Some(label),
        run,
        tenant_rounds: false,
    }
}

/// One timed set-up of input set `set`: train, generate inputs, build
/// policies, allocate.
fn setup(mode: Mode, cfg: &RunConfig, set: u64) -> (Vec<Case>, PerformanceModel) {
    trace::scoped("setup", None, 0, 0, |sid| {
        let model = trace::scoped("models.train", None, 0, sid, |_| train(cfg.toy, cfg.seed));
        let mut cases = Vec::new();
        for (run, &app) in mode.apps().iter().enumerate() {
            let (run, label, seed) = (run as u32, APPS[app], app_seed(cfg.seed, set, app));
            let gen = || {
                trace::scoped("apps.input_gen", Some(label), run, sid, |_| {
                    build_app(app, cfg.toy, seed)
                })
            };
            let make_policy = |w: &dyn HpcApp| {
                trace::scoped("core.policy_new", Some(label), run, sid, |_| {
                    policy(&model, w, seed)
                })
            };
            let w = gen();
            let p = make_policy(w.as_ref());
            let spare = (mode == Mode::Recover).then(|| {
                let w = gen();
                let p = make_policy(w.as_ref());
                (wrap_w(w, label, run), wrap_p(p, label, run))
            });
            let mut plan = fault_plan(mode, seed);
            if let Some(plan) = plan.as_mut() {
                plan.crash = Some(FaultKind::Crash {
                    round: w.num_instances() as u64 / 2,
                    point: CrashPoint::BetweenRounds,
                });
            }
            let ex = trace::scoped("hm.alloc", Some(label), run, sid, |_| {
                let sys = system(w.as_ref(), seed, plan);
                Executor::new(sys, wrap_w(w, label, run), wrap_p(p, label, run))
            });
            let pages = ex.sys.page_table().len() as u64;
            cases.push(Case {
                app,
                run,
                ex,
                spare,
                pages,
            });
        }
        (cases, model)
    })
}

/// What one app's run produced.
struct CaseOut {
    app: usize,
    report: RunReport,
    pages: u64,
    crashed: bool,
    recovery_ns: u64,
    replayed: u64,
    wal_bytes: u64,
    wal: merch_hm::WalStats,
}

/// What one pass over every app produced.
struct Pass {
    /// Input set the pass ran.
    set: u64,
    wall_ns: u64,
    round_ns: Vec<f64>,
    cases: Vec<CaseOut>,
}

fn checkpoint(
    ex: &Executor<Wl, Pl>,
    wal: &mut Wal,
    label: &'static str,
    run: u32,
    parent: u32,
) -> Result<(), HmError> {
    let ck = trace::scoped("hm.snapshot", Some(label), run, parent, |_| ex.checkpoint());
    trace::scoped("hm.wal_append", Some(label), run, parent, |_| {
        wal.append(&ck, ex.sys.fault_injector())
    })
    .map(|_| ())
}

/// Removes an app's WAL file when its run ends, however it ends.
struct WalFile(PathBuf);

impl Drop for WalFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run_case(
    case: Case,
    wal_dir: &Path,
    parent: u32,
    round_ns: &mut Vec<f64>,
) -> Result<CaseOut, String> {
    let Case {
        app,
        run,
        mut ex,
        mut spare,
        pages,
    } = case;
    let label = APPS[app];
    let err = |e: HmError| format!("{label}: {e}");
    let supervised = spare.is_some();
    let wal_file = WalFile(wal_dir.join(format!("{}-{label}.wal", std::process::id())));
    let wal_path = &wal_file.0;
    let mut wal = if supervised {
        let mut wal = Wal::create(wal_path).map_err(err)?;
        checkpoint(&ex, &mut wal, label, run, parent).map_err(err)?;
        Some(wal)
    } else {
        None
    };
    let (mut crashed, mut recovery_ns, mut replayed) = (false, 0, 0);
    while ex.next_round() < ex.workload.num_instances() {
        let t0 = trace::now_ns();
        let stepped = trace::scoped("hm.step", Some(label), run, parent, |_| {
            ex.step().map(|r| r.is_some())
        });
        match stepped {
            Ok(true) => {
                round_ns.push((trace::now_ns() - t0) as f64);
                if let Some(wal) = wal.as_mut() {
                    checkpoint(&ex, wal, label, run, parent).map_err(err)?;
                }
            }
            Ok(false) => break,
            Err(HmError::Crashed { round }) if spare.is_some() => {
                let (w, p) = spare.take().expect("checked by the match guard");
                let t1 = trace::now_ns();
                let ck = trace::scoped("hm.wal_scan", Some(label), run, parent, |_| {
                    Wal::latest(wal_path)
                })
                .map_err(err)?
                .ok_or_else(|| format!("{label}: the WAL holds no checkpoint"))?;
                replayed += round - ck.next_round as u64;
                ex = trace::scoped("hm.resume", Some(label), run, parent, |_| {
                    Executor::resume(ck, w, p)
                })
                .map_err(err)?;
                recovery_ns += trace::now_ns() - t1;
                crashed = true;
                let wal = wal.as_mut().expect("supervised runs keep a WAL");
                checkpoint(&ex, wal, label, run, parent).map_err(err)?;
            }
            Err(e) => return Err(err(e)),
        }
    }
    let (wal_stats, wal_bytes) = match wal {
        Some(wal) => {
            let bytes = std::fs::metadata(wal_path).map_or(0, |m| m.len());
            (wal.stats, bytes)
        }
        None => Default::default(),
    };
    Ok(CaseOut {
        app,
        report: ex.report(),
        pages,
        crashed,
        recovery_ns,
        replayed,
        wal_bytes,
        wal: wal_stats,
    })
}

fn run_pass(cases: Vec<Case>, set: u64, wal_dir: &Path, out: &mut Outcome) -> Pass {
    let t0 = trace::now_ns();
    let mut round_ns = Vec::new();
    let mut done = Vec::new();
    trace::scoped("pass", None, 0, 0, |pid| {
        for case in cases {
            let (label, run) = (APPS[case.app], case.run);
            let r = trace::scoped("app.run", Some(label), run, pid, |rid| {
                run_case(case, wal_dir, rid, &mut round_ns)
            });
            out.attempted += 1;
            match r {
                Ok(c) => done.push(c),
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("run failed: {e}"));
                }
            }
        }
    });
    Pass {
        set,
        wall_ns: trace::now_ns() - t0,
        round_ns,
        cases: done,
    }
}

/// Uninterrupted run of an app under its plan minus the crash, with
/// `Merchandiser` or PM-only placement. Runs outside every timed phase.
fn reference(
    mode: Mode,
    cfg: &RunConfig,
    model: &PerformanceModel,
    set: u64,
    app: usize,
    pm_only: bool,
) -> RunReport {
    let seed = app_seed(cfg.seed, set, app);
    let w = build_app(app, cfg.toy, seed);
    let sys = system(w.as_ref(), seed, fault_plan(mode, seed));
    let label = APPS[app];
    if pm_only {
        Executor::new(sys, wrap_w(w, label, 0), StaticPolicy { tier: Tier::Pm }).run()
    } else {
        let p = policy(model, w.as_ref(), seed);
        Executor::new(sys, wrap_w(w, label, 0), wrap_p(p, label, 0)).run()
    }
}

/// Output checks on one pass; `reference` holds the digest each app's
/// report must match.
fn check_pass(mode: Mode, pass: &Pass, reference: &[(usize, u64)], what: &str, out: &mut Outcome) {
    for c in &pass.cases {
        let label = APPS[c.app];
        let r = &c.report;
        out.check(
            r.total_time_ns().is_finite() && r.total_time_ns() > 0.0,
            || format!("{what}: {label} reports a non-positive makespan"),
        );
        match mode {
            Mode::Apps => out.check(
                r.fault.failed_pages == 0
                    && r.rounds
                        .iter()
                        .all(|x| x.migration_attempts == x.migration_pages),
                || format!("{what}: {label} lost migrations on a fault-free run"),
            ),
            Mode::Recover => out.check(c.crashed, || {
                format!("{what}: the scripted crash did not fire on {label}")
            }),
        }
        if let Some(&(_, want)) = reference.iter().find(|(a, _)| *a == c.app) {
            out.check(digest(r) == want, || match mode {
                Mode::Apps => {
                    format!("{what}: {label} RunReport differs from the first untraced pass")
                }
                Mode::Recover => format!(
                    "{what}: {label} resumed RunReport differs from the uninterrupted run \
                     of the same plan (program bug: crash recovery is not bit-identical)"
                ),
            });
        }
    }
    out.check(pass.cases.len() == mode.apps().len(), || {
        format!(
            "{what}: {} of {} apps finished",
            pass.cases.len(),
            mode.apps().len()
        )
    });
}

pub fn run(mode: Mode, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let wal_dir = crate::out_dir();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss = 0.0;
    let model = loop {
        // Set-up k generates input set k from the seed, so a run averages
        // over several input sets: its figures then vary less by seed.
        let set = setups.len() as u64;
        let t0 = trace::now_ns();
        let (cases, model) = setup(mode, cfg, set);
        setups.push(secs(t0, trace::now_ns()));
        let pass = run_pass(cases, set, &wal_dir, &mut out);
        measured += pass.wall_ns as f64 / 1e9;
        passes.push(pass);
        if passes.len() == MIN_PASSES {
            // The same work on any host: later passes only add samples.
            peak_rss = peak_rss_mb();
        }
        if measured >= cfg.seconds && passes.len() >= MIN_PASSES {
            break model;
        }
    };

    // The digests the first input set must reproduce. On apps-recover:
    // the uninterrupted run of the same plan without the crash, checked
    // against the first untraced pass (one reference run per input set is
    // as long as a pass, so the other passes check only that the crash
    // fired). On both: the traced pass, which reruns the first input set.
    let want: Vec<(usize, u64)> = match mode {
        Mode::Recover => mode
            .apps()
            .iter()
            .map(|&a| {
                (
                    a,
                    digest(&reference(mode, cfg, &model, passes[0].set, a, false)),
                )
            })
            .collect(),
        Mode::Apps => passes[0]
            .cases
            .iter()
            .map(|c| (c.app, digest(&c.report)))
            .collect(),
    };
    for (i, pass) in passes.iter().enumerate() {
        let want = if i == 0 && mode == Mode::Recover {
            &want[..]
        } else {
            &[]
        };
        check_pass(mode, pass, want, &format!("untraced pass {i}"), &mut out);
    }

    let wall: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let rounds: usize = passes.iter().map(|p| p.round_ns.len()).sum();
    let round_ms: Vec<(f64, Vec<f64>)> = passes
        .iter()
        .map(|p| {
            let ms = p.round_ns.iter().map(|ns| ns / 1e6).collect();
            (p.wall_ns as f64 / 1e9, ms)
        })
        .collect();
    // Over the input sets every run makes, whatever the host's speed.
    let acvs: Vec<f64> = passes[..MIN_PASSES]
        .iter()
        .flat_map(|p| p.cases.iter().map(|c| c.report.acv()))
        .collect();
    let acv = acvs.iter().sum::<f64>() / acvs.len().max(1) as f64;
    let recovery_s = median(
        &passes
            .iter()
            .map(|p| p.cases.iter().map(|c| c.recovery_ns as f64 / 1e9).sum())
            .collect::<Vec<f64>>(),
    );
    out.e2e.put("setup_s", median(&setups), "s");
    put_round_metrics(&mut out, &round_ms);
    out.e2e.put("acv", acv, "ratio");
    out.e2e.put("peak_rss_mb", peak_rss, "MB");
    out.notes.push(format!(
        "untraced: {rounds} rounds in {wall:.3} s; set-ups {setups:.3?} s; passes {:.3?} s; \
         recovery_s {recovery_s}",
        passes
            .iter()
            .map(|p| p.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>()
    ));

    if cfg.trace {
        // The tracing overhead compares the traced set-up and pass with one
        // untraced rerun of the same input set taken just before them, so
        // host drift between the two stays small.
        let set = passes[0].set;
        let t0 = trace::now_ns();
        let (cases, _) = setup(mode, cfg, set);
        let untraced_setup_s = secs(t0, trace::now_ns());
        let rerun = run_pass(cases, set, &wal_dir, &mut out);
        check_pass(mode, &rerun, &want, "untraced rerun", &mut out);
        trace::set_enabled(true);
        let _ = take_plan_s();
        let t0 = trace::now_ns();
        let (cases, _) = setup(mode, cfg, set);
        let setup_s = secs(t0, trace::now_ns());
        let pass = run_pass(cases, set, &wal_dir, &mut out);
        trace::set_enabled(false);
        let walls = Walls {
            setup_s,
            pass_s: pass.wall_ns as f64 / 1e9,
            untraced_setup_s,
            untraced_pass_s: rerun.wall_ns as f64 / 1e9,
            untraced_passes: 1,
        };
        check_pass(mode, &pass, &want, "traced pass", &mut out);
        let plan_s = take_plan_s();
        out.spans = trace::take();
        let pm_speedups: Vec<f64> = pass
            .cases
            .iter()
            .map(|c| {
                let pm = reference(mode, cfg, &model, pass.set, c.app, true);
                pm.total_time_ns() / c.report.total_time_ns()
            })
            .collect();
        layer_metrics(&mut out, &pass, &plan_s, &pm_speedups, recovery_s, &walls);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    pass: &Pass,
    plan_s: &std::collections::BTreeMap<&'static str, f64>,
    pm_speedups: &[f64],
    recovery_s: f64,
    walls: &Walls,
) {
    let roll = trace::Rollup::of(&out.spans);
    let m = &mut out.layers;
    m.put("apps.input_gen_s", roll.self_of("apps.input_gen"), "s");
    m.put("models.train_s", roll.self_of("models.train"), "s");
    m.put("hm.alloc_s", roll.self_of("hm.alloc"), "s");
    m.put(
        "core.policy_setup_s",
        roll.self_of("core.policy_new") + roll.self_of("core.on_allocate"),
        "s",
    );
    m.put("apps.instance_s", roll.self_of("apps.instance"), "s");
    m.put(
        "core.before_round_s",
        roll.self_of("core.before_round"),
        "s",
    );
    m.put("core.after_round_s", roll.self_of("core.after_round"), "s");
    m.put("core.plan_s", plan_s.values().sum(), "s");
    m.put("hm.execute_s", roll.self_of("hm.step"), "s");
    for span in ["hm.snapshot", "hm.wal_append", "hm.wal_scan", "hm.resume"] {
        m.put(format!("{span}_s"), roll.self_of(span), "s");
    }
    for label in APPS {
        let per_app = [
            roll.self_of_label("apps.instance", label),
            roll.self_of_label("core.before_round", label),
            roll.self_of_label("core.after_round", label),
            plan_s.get(label).copied().unwrap_or(0.0),
            roll.self_of_label("hm.step", label),
        ];
        for (metric, v) in PER_APP_TIMINGS.iter().zip(per_app) {
            m.put(format!("{metric}.{label}"), v, "s");
        }
    }
    let sum = |f: &dyn Fn(&CaseOut) -> u64| pass.cases.iter().map(f).sum::<u64>() as f64;
    let reports: Vec<&RunReport> = pass.cases.iter().map(|c| &c.report).collect();
    let (failed_pages, attempts) =
        put_placement_counts(m, &reports, pass.cases.iter().map(|c| c.pages).sum());
    m.put("hm.wal_bytes", sum(&|c| c.wal_bytes), "bytes");
    m.put("hm.wal_records", sum(&|c| c.wal.records_appended), "count");
    m.put(
        "hm.wal_write_retries",
        sum(&|c| c.wal.write_retries),
        "count",
    );
    m.put(
        "hm.wal_skipped",
        sum(&|c| c.wal.skipped_checkpoints),
        "count",
    );
    m.put("hm.resume_replayed_rounds", sum(&|c| c.replayed), "count");
    let geo =
        (pm_speedups.iter().map(|s| s.ln()).sum::<f64>() / pm_speedups.len().max(1) as f64).exp();
    m.put("speedup_vs_pm", geo, "x");
    m.put("recovery_s", recovery_s, "s");
    m.put(
        "failed_frac",
        if attempts > 0.0 {
            failed_pages / attempts
        } else {
            0.0
        },
        "ratio",
    );
    let harness = roll.self_of("setup") + roll.self_of("pass") + roll.self_of("app.run");
    m.put("bench.harness_s", harness, "s");
    m.put("trace.spans", out.spans.len() as f64, "count");
    walls.report(out);
}
