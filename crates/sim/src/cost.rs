//! Named primitive costs, calibrated against the paper's Fig. 6.
//!
//! The defaults are chosen so that, for a warm (repeated) call of a
//! federated function mapped to three local functions — the paper's
//! `GetNoSuppComp` — the two architectures land on the published shapes:
//!
//! * UDTF approach total ≈ 100 virtual milliseconds with step shares close
//!   to Fig. 6's right-hand table (prepare ≈ 28 %, RMI calls ≈ 24 %,
//!   local-function work ≈ 6 %, finish ≈ 21 %, I-UDTF start/finish ≈ 20 %);
//! * WfMS approach total ≈ 300 virtual milliseconds (the paper's factor 3)
//!   with activity processing ≈ 51 %, engine navigation ≈ 9 %, Java
//!   environment start ≈ 10 %, controller ≈ 5 %;
//! * removing every charge tagged [`Component::Controller`] moves the ratio
//!   from ≈ 3.0 to ≈ 3.7, the paper's controller ablation.
//!
//! Charges carry *two* classifications: the **step label** (a row of a
//! Fig. 6-style table) and the **component tag** (used for ablations). They
//! are deliberately orthogonal: e.g. part of the "Prepare A-UDTF" step is
//! controller work, which is how the paper can report the controller at 25 %
//! of the UDTF total although no single step row says "controller".

use std::fmt;

/// The architectural component a charge is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// UDTF machinery of the FDBS (fenced process invocation, marshalling).
    Udtf,
    /// RMI hop between the FDBS address space and the controller.
    Rmi,
    /// The controller process mandated by the DB2 security restrictions.
    Controller,
    /// Per-call startup of workflow process instance + Java environment.
    JavaEnv,
    /// Workflow engine navigation (scheduling, connector evaluation).
    WfEngine,
    /// Workflow activity implementation (program start, containers).
    Activity,
    /// The local function executing inside an application system.
    LocalFunction,
    /// FDBS query processing (parse, plan, join-with-selection).
    Fdbs,
    /// One-time process boots and cache warm-up.
    Boot,
}

impl Component {
    pub fn name(&self) -> &'static str {
        match self {
            Component::Udtf => "UDTF",
            Component::Rmi => "RMI",
            Component::Controller => "Controller",
            Component::JavaEnv => "Java environment",
            Component::WfEngine => "Workflow engine",
            Component::Activity => "Activity",
            Component::LocalFunction => "Local function",
            Component::Fdbs => "FDBS",
            Component::Boot => "Boot",
        }
    }

    /// The stable on-wire tag of this component. Like the error-layer
    /// codes, these travel across process boundaries and must never be
    /// renumbered — only extended.
    #[inline]
    pub fn wire_tag(self) -> u8 {
        match self {
            Component::Udtf => 0,
            Component::Rmi => 1,
            Component::Controller => 2,
            Component::JavaEnv => 3,
            Component::WfEngine => 4,
            Component::Activity => 5,
            Component::LocalFunction => 6,
            Component::Fdbs => 7,
            Component::Boot => 8,
        }
    }

    /// Inverse of [`Component::wire_tag`].
    #[inline]
    pub fn from_wire_tag(tag: u8) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.wire_tag() == tag)
    }

    pub const ALL: [Component; 9] = [
        Component::Udtf,
        Component::Rmi,
        Component::Controller,
        Component::JavaEnv,
        Component::WfEngine,
        Component::Activity,
        Component::LocalFunction,
        Component::Fdbs,
        Component::Boot,
    ];
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Primitive virtual costs, all in microseconds.
///
/// Construct with [`CostModel::default`] for the Fig. 6 calibration, or
/// [`CostModel::zero`] for tests that want pure-logic runs, then tweak
/// fields for ablation studies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    // ----- enhanced-UDTF architecture, per federated call -----
    /// Start of the integration UDTF (fenced process invocation).
    pub iudtf_start: u64,
    /// Tear-down of the integration UDTF.
    pub iudtf_finish: u64,

    // ----- enhanced-UDTF architecture, per A-UDTF (local function) call -----
    /// FDBS-side share of preparing one access UDTF.
    pub audtf_prepare_udtf: u64,
    /// Controller-side share of preparing one access UDTF.
    pub audtf_prepare_controller: u64,
    /// RMI call from the UDTF process into the controller.
    pub rmi_call: u64,
    /// RMI result return.
    pub rmi_return: u64,
    /// Dispatch inside the already-running controller.
    pub controller_dispatch: u64,
    /// FDBS-side share of finishing one access UDTF.
    pub audtf_finish_udtf: u64,
    /// Controller-side share of finishing one access UDTF.
    pub audtf_finish_controller: u64,
    /// FDBS work to compose independent A-UDTF results
    /// ("join with selection"), charged per composed row pair.
    pub join_with_selection_per_row: u64,
    /// Fixed FDBS overhead for setting up a join-with-selection.
    pub join_with_selection_setup: u64,

    // ----- WfMS architecture, per federated call -----
    /// Start of the connecting UDTF that bridges to the workflow engine.
    pub wf_conn_udtf_start: u64,
    /// Processing inside the connecting UDTF (container marshalling).
    pub wf_conn_udtf_process: u64,
    /// Tear-down of the connecting UDTF.
    pub wf_conn_udtf_finish: u64,
    /// Single RMI hop to the controller in the WfMS architecture.
    pub wf_rmi_call: u64,
    /// RMI return in the WfMS architecture.
    pub wf_rmi_return: u64,
    /// Controller work bridging to the (kept-alive) workflow engine.
    pub wf_controller_bridge: u64,
    /// Starting the workflow process instance and the Java environment for
    /// the WfMS Java API — constant per call, independent of activity count.
    pub wf_java_env_start: u64,

    // ----- WfMS architecture, per activity -----
    /// Starting a fresh Java program for one activity (JVM boot).
    pub wf_activity_program_start: u64,
    /// Handling the activity's input and output containers.
    pub wf_activity_container: u64,
    /// Executing a built-in helper activity (cast / constant / compose):
    /// cheaper than a program activity but still a scheduled step.
    pub wf_helper_activity: u64,
    /// Per row pair examined by a composing (join) helper activity.
    pub wf_helper_per_row: u64,
    /// Engine navigation per activity (connector evaluation, scheduling).
    pub wf_navigation: u64,
    /// Evaluating one transition condition on a control connector.
    pub wf_condition_eval: u64,
    /// Instantiating a sub-workflow (block / loop body).
    pub wf_subworkflow_start: u64,

    // ----- application systems -----
    /// Base cost of executing a local function.
    pub local_function_base: u64,
    /// Additional cost per result row of a set-returning local function.
    pub local_function_per_row: u64,

    // ----- FDBS query processing -----
    /// Compiling a statement into a plan (skipped on plan-cache hits).
    pub plan_compile: u64,
    /// Evaluating one predicate on one row.
    pub predicate_eval: u64,
    /// Producing one output row in the executor.
    pub row_output: u64,

    // ----- one-time boots (cold-start effects) -----
    /// Booting the FDBS server process.
    pub boot_fdbs: u64,
    /// Booting the controller process.
    pub boot_controller: u64,
    /// Booting the workflow engine.
    pub boot_wfms: u64,
    /// Booting one application system.
    pub boot_app_system: u64,
    /// Loading a workflow process template on first use.
    pub wf_template_load: u64,

    // ----- wrapper-internal optimizations (the paper's future work) -----
    /// Probing the wrapper's federated-function result cache.
    pub wrapper_cache_lookup: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            iudtf_start: 11_000,
            iudtf_finish: 9_000,
            audtf_prepare_udtf: 5_000,
            audtf_prepare_controller: 4_333,
            rmi_call: 8_000,
            rmi_return: 333,
            controller_dispatch: 150,
            audtf_finish_udtf: 3_000,
            audtf_finish_controller: 4_000,
            join_with_selection_per_row: 15,
            join_with_selection_setup: 6_000,

            wf_conn_udtf_start: 27_000,
            wf_conn_udtf_process: 33_000,
            wf_conn_udtf_finish: 6_000,
            wf_rmi_call: 9_000,
            wf_rmi_return: 1_000,
            wf_controller_bridge: 15_000,
            wf_java_env_start: 30_000,

            wf_activity_program_start: 45_000,
            wf_activity_container: 4_000,
            wf_helper_activity: 12_000,
            wf_helper_per_row: 10,
            wf_navigation: 9_000,
            wf_condition_eval: 400,
            wf_subworkflow_start: 5_000,

            local_function_base: 2_000,
            local_function_per_row: 15,

            plan_compile: 25_000,
            predicate_eval: 4,
            row_output: 2,

            boot_fdbs: 500_000,
            boot_controller: 250_000,
            boot_wfms: 900_000,
            boot_app_system: 150_000,
            wf_template_load: 40_000,
            wrapper_cache_lookup: 800,
        }
    }
}

impl CostModel {
    /// A model where every primitive costs nothing — for logic-only tests.
    pub fn zero() -> CostModel {
        CostModel {
            iudtf_start: 0,
            iudtf_finish: 0,
            audtf_prepare_udtf: 0,
            audtf_prepare_controller: 0,
            rmi_call: 0,
            rmi_return: 0,
            controller_dispatch: 0,
            audtf_finish_udtf: 0,
            audtf_finish_controller: 0,
            join_with_selection_per_row: 0,
            join_with_selection_setup: 0,
            wf_conn_udtf_start: 0,
            wf_conn_udtf_process: 0,
            wf_conn_udtf_finish: 0,
            wf_rmi_call: 0,
            wf_rmi_return: 0,
            wf_controller_bridge: 0,
            wf_java_env_start: 0,
            wf_activity_program_start: 0,
            wf_activity_container: 0,
            wf_helper_activity: 0,
            wf_helper_per_row: 0,
            wf_navigation: 0,
            wf_condition_eval: 0,
            wf_subworkflow_start: 0,
            local_function_base: 0,
            local_function_per_row: 0,
            plan_compile: 0,
            predicate_eval: 0,
            row_output: 0,
            boot_fdbs: 0,
            boot_controller: 0,
            boot_wfms: 0,
            boot_app_system: 0,
            wf_template_load: 0,
            wrapper_cache_lookup: 0,
        }
    }

    /// The controller ablation of Section 4: a model where all controller
    /// work is free, as if the UDTF could connect to the database directly.
    pub fn without_controller(&self) -> CostModel {
        CostModel {
            audtf_prepare_controller: 0,
            controller_dispatch: 0,
            audtf_finish_controller: 0,
            wf_controller_bridge: 0,
            boot_controller: 0,
            ..self.clone()
        }
    }

    /// Cost of one local function execution returning `rows` rows.
    pub fn local_function_cost(&self, rows: usize) -> u64 {
        self.local_function_base + self.local_function_per_row * rows as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Warm-call totals for a 3-local-function federated function, computed
    /// the same way the architectures charge them.
    fn totals(model: &CostModel) -> (u64, u64) {
        let n = 3u64;
        let per_audtf = model.audtf_prepare_udtf
            + model.audtf_prepare_controller
            + model.rmi_call
            + model.controller_dispatch
            + model.local_function_cost(1)
            + model.audtf_finish_udtf
            + model.audtf_finish_controller
            + model.rmi_return;
        let udtf_total = model.iudtf_start + n * per_audtf + model.iudtf_finish;

        let per_activity = model.wf_activity_program_start
            + model.wf_activity_container
            + model.local_function_cost(1)
            + model.wf_navigation;
        let wf_total = model.wf_conn_udtf_start
            + model.wf_conn_udtf_process
            + model.wf_rmi_call
            + model.wf_controller_bridge
            + model.wf_java_env_start
            + n * per_activity
            + model.wf_rmi_return
            + model.wf_conn_udtf_finish;
        (udtf_total, wf_total)
    }

    #[test]
    fn calibration_ratio_is_about_three() {
        let m = CostModel::default();
        let (u, w) = totals(&m);
        let ratio = w as f64 / u as f64;
        assert!(
            (2.6..=3.4).contains(&ratio),
            "warm ratio {ratio} out of the paper's band"
        );
    }

    #[test]
    fn controller_ablation_raises_ratio_to_about_3_7() {
        let m = CostModel::default().without_controller();
        let (u, w) = totals(&m);
        let ratio = w as f64 / u as f64;
        assert!(
            (3.4..=4.1).contains(&ratio),
            "ablated ratio {ratio} should be near the paper's 3.7"
        );
    }

    #[test]
    fn controller_share_matches_paper_bands() {
        let m = CostModel::default();
        let (u, w) = totals(&m);
        let (u_no, w_no) = totals(&m.without_controller());
        let udtf_controller_share = (u - u_no) as f64 / u as f64;
        let wf_controller_share = (w - w_no) as f64 / w as f64;
        assert!(
            (0.20..=0.30).contains(&udtf_controller_share),
            "udtf controller share {udtf_controller_share}, paper says 25%"
        );
        assert!(
            (0.03..=0.10).contains(&wf_controller_share),
            "wf controller share {wf_controller_share}, paper says 5-8%"
        );
    }

    #[test]
    fn activity_processing_dominates_wf_total() {
        let m = CostModel::default();
        let (_, w) = totals(&m);
        let activities =
            3 * (m.wf_activity_program_start + m.wf_activity_container + m.local_function_cost(1));
        let share = activities as f64 / w as f64;
        assert!(
            (0.45..=0.60).contains(&share),
            "activity share {share}, paper says 51%"
        );
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        let (u, w) = totals(&m);
        assert_eq!((u, w), (0, 0));
    }

    #[test]
    fn local_function_cost_scales_with_rows() {
        let m = CostModel::default();
        assert!(m.local_function_cost(100) > m.local_function_cost(1));
        assert_eq!(m.local_function_cost(0), m.local_function_base);
    }
}
