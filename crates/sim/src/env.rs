//! Environment warm-up state.
//!
//! Section 4 measures every function in three situations: *right after the
//! entire system has been booted*, *after some other function has been
//! invoked*, and *after the same function has been processed*. [`EnvState`]
//! reproduces those tiers: the first call through a component pays its boot
//! cost, the first execution of a given statement pays plan compilation,
//! and the first instantiation of a workflow template pays the template
//! load.

use std::collections::HashSet;

use crate::clock::Meter;
use crate::cost::{Component, CostModel};
use crate::trace::SpanName;

/// Long-running processes of the testbed that must be booted once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Process {
    /// The FDBS server.
    Fdbs,
    /// The controller that isolates UDTF processes from the database and
    /// keeps the WfMS connection alive.
    Controller,
    /// The workflow engine.
    Wfms,
    /// One application system, by name.
    AppSystem(String),
}

impl Process {
    fn label(&self) -> SpanName {
        match self {
            Process::Fdbs => "Boot FDBS".into(),
            Process::Controller => "Boot controller".into(),
            Process::Wfms => "Boot WfMS".into(),
            Process::AppSystem(name) => format!("Boot application system {name}").into(),
        }
    }
}

/// Mutable warm-up state of the whole environment.
#[derive(Debug, Default, Clone)]
pub struct EnvState {
    booted: HashSet<Process>,
    plan_cache: HashSet<String>,
    template_cache: HashSet<String>,
}

impl EnvState {
    /// A completely cold environment, as right after machine start.
    pub fn cold() -> EnvState {
        EnvState::default()
    }

    /// An environment with every process booted but all caches empty —
    /// the paper's "after some other function" tier for a function whose
    /// plan and template have not been seen yet.
    pub fn booted(app_systems: &[&str]) -> EnvState {
        let mut env = EnvState::default();
        env.booted.insert(Process::Fdbs);
        env.booted.insert(Process::Controller);
        env.booted.insert(Process::Wfms);
        for name in app_systems {
            env.booted.insert(Process::AppSystem(name.to_string()));
        }
        env
    }

    /// Charge the boot cost of `process` if it has not been booted yet,
    /// then mark it booted. Returns whether a boot was paid.
    pub fn ensure_booted(
        &mut self,
        process: Process,
        model: &CostModel,
        meter: &mut Meter,
    ) -> bool {
        if self.booted.contains(&process) {
            return false;
        }
        let cost = match &process {
            Process::Fdbs => model.boot_fdbs,
            Process::Controller => model.boot_controller,
            Process::Wfms => model.boot_wfms,
            Process::AppSystem(_) => model.boot_app_system,
        };
        meter.charge(Component::Boot, process.label(), cost);
        self.booted.insert(process);
        true
    }

    pub fn is_booted(&self, process: &Process) -> bool {
        self.booted.contains(process)
    }

    /// Charge plan compilation unless the statement is in the plan cache.
    /// Returns true on a cache miss.
    pub fn ensure_plan(&mut self, sql: &str, model: &CostModel, meter: &mut Meter) -> bool {
        if self.plan_cache.contains(sql) {
            return false;
        }
        meter.charge(Component::Fdbs, "Compile statement", model.plan_compile);
        self.plan_cache.insert(sql.to_string());
        true
    }

    pub fn plan_cached(&self, sql: &str) -> bool {
        self.plan_cache.contains(sql)
    }

    /// Charge workflow template loading unless cached. True on a miss.
    pub fn ensure_template(
        &mut self,
        process_name: &str,
        model: &CostModel,
        meter: &mut Meter,
    ) -> bool {
        if self.template_cache.contains(process_name) {
            return false;
        }
        meter.charge(
            Component::WfEngine,
            format!("Load workflow template {process_name}"),
            model.wf_template_load,
        );
        self.template_cache.insert(process_name.to_string());
        true
    }

    pub fn template_cached(&self, process_name: &str) -> bool {
        self.template_cache.contains(process_name)
    }

    /// Drop all cached plans and templates but keep processes booted —
    /// used to construct the middle warm-up tier explicitly.
    pub fn clear_caches(&mut self) {
        self.plan_cache.clear();
        self.template_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_is_paid_once() {
        let mut env = EnvState::cold();
        let model = CostModel::default();
        let mut meter = Meter::new();
        assert!(env.ensure_booted(Process::Fdbs, &model, &mut meter));
        assert!(!env.ensure_booted(Process::Fdbs, &model, &mut meter));
        assert_eq!(meter.now_us(), model.boot_fdbs);
    }

    #[test]
    fn app_systems_boot_individually() {
        let mut env = EnvState::cold();
        let model = CostModel::default();
        let mut meter = Meter::new();
        env.ensure_booted(Process::AppSystem("purchasing".into()), &model, &mut meter);
        assert!(env.is_booted(&Process::AppSystem("purchasing".into())));
        assert!(!env.is_booted(&Process::AppSystem("stock".into())));
    }

    #[test]
    fn plan_cache_hits_are_free() {
        let mut env = EnvState::booted(&[]);
        let model = CostModel::default();
        let mut meter = Meter::new();
        assert!(env.ensure_plan("SELECT 1", &model, &mut meter));
        let after_first = meter.now_us();
        assert!(!env.ensure_plan("SELECT 1", &model, &mut meter));
        assert_eq!(meter.now_us(), after_first);
        assert!(env.ensure_plan("SELECT 2", &model, &mut meter));
    }

    #[test]
    fn template_cache_behaves_like_plan_cache() {
        let mut env = EnvState::booted(&[]);
        let model = CostModel::default();
        let mut meter = Meter::new();
        assert!(env.ensure_template("BuySuppComp", &model, &mut meter));
        assert!(!env.ensure_template("BuySuppComp", &model, &mut meter));
        assert_eq!(meter.now_us(), model.wf_template_load);
    }

    #[test]
    fn booted_constructor_skips_boot_charges() {
        let mut env = EnvState::booted(&["stock"]);
        let model = CostModel::default();
        let mut meter = Meter::new();
        assert!(!env.ensure_booted(Process::Fdbs, &model, &mut meter));
        assert!(!env.ensure_booted(Process::AppSystem("stock".into()), &model, &mut meter));
        assert_eq!(meter.now_us(), 0);
    }

    #[test]
    fn clear_caches_keeps_boots() {
        let mut env = EnvState::booted(&[]);
        let model = CostModel::default();
        let mut meter = Meter::new();
        env.ensure_plan("q", &model, &mut meter);
        env.clear_caches();
        assert!(!env.plan_cached("q"));
        assert!(env.is_booted(&Process::Fdbs));
    }

    #[test]
    fn three_warmup_tiers_are_ordered() {
        // cold > after-other-function > repeated, for the same "call".
        let model = CostModel::default();
        let run = |env: &mut EnvState| -> u64 {
            let mut meter = Meter::new();
            env.ensure_booted(Process::Fdbs, &model, &mut meter);
            env.ensure_booted(Process::Controller, &model, &mut meter);
            env.ensure_plan("SELECT * FROM T(BuySuppComp(1,'x'))", &model, &mut meter);
            meter.charge(Component::Udtf, "work", 10_000);
            meter.now_us()
        };
        let mut env = EnvState::cold();
        let cold = run(&mut env);
        env.clear_caches();
        let warm_process = run(&mut env);
        let repeated = run(&mut env);
        assert!(cold > warm_process, "{cold} > {warm_process}");
        assert!(warm_process > repeated, "{warm_process} > {repeated}");
    }
}
