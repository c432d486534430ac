//! Workload and policy wrappers that time the calls an `Executor` makes
//! into the `apps` and `core` layers. Both the untraced and the traced run
//! drive the same wrapper types, so the program executes the same calls in
//! the same order either way; only span recording differs.
//!
//! With `tenant_rounds` set (the serve workload), the wrappers also bracket
//! each tenant round: the workload's `object_sizes` call — the first call a
//! round makes into the tenant — opens it, and the policy's `after_round`
//! return — the last — closes it. A round cut short by a scripted crash
//! never reaches `after_round` and is not counted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use merch_hm::runtime::StaticPolicy;
use merch_hm::system::HmError;
use merch_hm::{
    HmSystem, ObjectAccess, ObjectSpec, PlacementPolicy, RoundReport, TaskWork, Workload,
};
use merchandiser::MerchandiserPolicy;

use crate::trace;

/// Span id of the running `service.run`, the parent of every tenant round.
pub static SERVE_ROOT: AtomicU32 = AtomicU32::new(0);

/// `(start_ns, end_ns)` of every finished tenant round, recorded in both
/// runs: the round-latency metrics need them.
static ROUNDS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

/// Algorithm 1 planning wall time per app label, ns (traced run only).
static PLAN_NS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

struct OpenRound {
    start_ns: u64,
    token: Option<trace::Token>,
    outer_parent: u32,
}

thread_local! {
    static ROUND: RefCell<Option<OpenRound>> = const { RefCell::new(None) };
}

fn round_begin(run: u32) {
    let start_ns = trace::now_ns();
    let token = trace::begin(
        "service.tenant_round",
        None,
        run,
        SERVE_ROOT.load(Ordering::Relaxed),
    );
    let id = trace::id_of(&token);
    ROUND.with(|r| {
        let mut r = r.borrow_mut();
        // A round left open here was cut short by a crash; restore the
        // parent slot that was current before it, not its id.
        let outer_parent = match r.take() {
            Some(stale) => {
                trace::set_parent(id);
                stale.outer_parent
            }
            None => trace::set_parent(id),
        };
        *r = Some(OpenRound {
            start_ns,
            token,
            outer_parent,
        });
    });
}

fn round_end() {
    if let Some(open) = ROUND.with(|r| r.borrow_mut().take()) {
        trace::set_parent(open.outer_parent);
        trace::end(open.token);
        let end_ns = trace::now_ns();
        ROUNDS
            .lock()
            .expect("round buffer lock is never held across a panic")
            .push((open.start_ns, end_ns));
    }
}

/// Take every recorded tenant round interval.
pub fn take_rounds() -> Vec<(u64, u64)> {
    std::mem::take(
        &mut *ROUNDS
            .lock()
            .expect("round buffer lock is never held across a panic"),
    )
}

/// Take the planning time recorded per app label, seconds.
pub fn take_plan_s() -> BTreeMap<&'static str, f64> {
    std::mem::take(
        &mut *PLAN_NS
            .lock()
            .expect("plan buffer lock is never held across a panic"),
    )
    .into_iter()
    .map(|(k, ns)| (k, ns / 1e9))
    .collect()
}

/// A workload whose `instance` calls are timed as `apps.instance`.
pub struct TimedWorkload<W> {
    pub inner: W,
    pub label: Option<&'static str>,
    pub run: u32,
    pub tenant_rounds: bool,
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        self.inner.object_specs()
    }
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
    fn num_instances(&self) -> usize {
        self.inner.num_instances()
    }
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        if self.tenant_rounds {
            round_begin(self.run);
        }
        self.inner.object_sizes(round)
    }
    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        let inner = &mut self.inner;
        trace::scoped(
            "apps.instance",
            self.label,
            self.run,
            trace::parent(),
            |_| inner.instance(round, sys),
        )
    }
    fn kernel_ir(&self) -> merch_patterns::KernelIr {
        self.inner.kernel_ir()
    }
    fn reuse_hints(&self) -> BTreeMap<String, f64> {
        self.inner.reuse_hints()
    }
    fn hot_page_drift(&self, round: usize) -> Vec<(String, f64)> {
        self.inner.hot_page_drift(round)
    }
}

/// Policies that can report the wall time of their Algorithm 1 plan.
pub trait PlanClock {
    /// Clear the reading before a round.
    fn reset_plan_clock(&mut self) {}
    /// Planning wall time of the last `before_round`, ns.
    fn plan_ns(&self) -> f64 {
        0.0
    }
}

impl PlanClock for MerchandiserPolicy {
    fn reset_plan_clock(&mut self) {
        // The field keeps its value across rounds that do not plan (base
        // profiling, fallback rungs); clearing it first counts each plan
        // once. It is a wall-clock reading and feeds no decision.
        self.last_prediction_wall_ns = 0.0;
    }
    fn plan_ns(&self) -> f64 {
        self.last_prediction_wall_ns
    }
}

impl PlanClock for StaticPolicy {}

/// A policy whose round hooks are timed as `core.before_round` and
/// `core.after_round`.
pub struct TimedPolicy<P> {
    pub inner: P,
    pub label: Option<&'static str>,
    pub run: u32,
    pub tenant_rounds: bool,
}

impl<P: PlacementPolicy + PlanClock> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_allocate(&mut self, sys: &mut HmSystem) {
        let inner = &mut self.inner;
        trace::scoped(
            "core.on_allocate",
            self.label,
            self.run,
            trace::parent(),
            |_| inner.on_allocate(sys),
        )
    }
    fn before_round(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        let inner = &mut self.inner;
        inner.reset_plan_clock();
        trace::scoped(
            "core.before_round",
            self.label,
            self.run,
            trace::parent(),
            |_| inner.before_round(sys, round, works),
        );
        if trace::enabled() {
            let ns = inner.plan_ns();
            if ns > 0.0 {
                *PLAN_NS
                    .lock()
                    .expect("plan buffer lock is never held across a panic")
                    .entry(self.label.unwrap_or("-"))
                    .or_default() += ns;
            }
        }
    }
    fn after_round(&mut self, sys: &mut HmSystem, round: usize, report: &RoundReport) {
        let inner = &mut self.inner;
        trace::scoped(
            "core.after_round",
            self.label,
            self.run,
            trace::parent(),
            |_| inner.after_round(sys, round, report),
        );
        if self.tenant_rounds {
            round_end();
        }
    }
    fn dram_fraction_override(&self, sys: &HmSystem, access: &ObjectAccess) -> Option<f64> {
        self.inner.dram_fraction_override(sys, access)
    }
    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
    fn save_state(&self) -> String {
        self.inner.save_state()
    }
    fn restore_state(&mut self, blob: &str) -> Result<(), HmError> {
        self.inner.restore_state(blob)
    }
    fn round_deadlines_ns(&self, round: usize) -> Option<Vec<f64>> {
        self.inner.round_deadlines_ns(round)
    }
    fn on_straggler(
        &mut self,
        sys: &mut HmSystem,
        round: usize,
        task: usize,
        observed_ns: f64,
        deadline_ns: f64,
    ) -> bool {
        self.inner
            .on_straggler(sys, round, task, observed_ns, deadline_ns)
    }
}
