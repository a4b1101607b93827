//! Environment boot state.
//!
//! Section 4 measures every function in three situations: *right after the
//! entire system has been booted*, *after some other function has been
//! invoked*, and *after the same function has been processed*. The first
//! tier's boots live here: [`EnvState`] remembers which long-running
//! processes have been booted, and the first call through a component pays
//! its boot cost. The other two tiers come from the caches that do the
//! work — the FDBS plan cache (plan compilation) and the workflow wrapper's
//! loaded templates (template load).

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

/// Which processes of the environment have been booted.
#[derive(Debug, Default, Clone)]
pub struct EnvState {
    booted: HashSet<Process>,
}

impl EnvState {
    /// A completely cold environment, as right after machine start.
    pub fn cold() -> EnvState {
        EnvState::default()
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
}
