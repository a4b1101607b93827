//! The enhanced Java UDTF architecture: a host-language I-UDTF issuing as
//! many SQL statements as needed ("JDBC calls invoking the A-UDTFs").

use std::collections::HashMap;
use std::sync::Arc;

use fedwf_fdbs::{Fdbs, Udtf, UdtfKind};
use fedwf_sim::Meter;
use fedwf_types::{cast_value, FedError, FedResult, Ident, Row, SchemaRef, Table, Value};
use fedwf_wrapper::Controller;

use crate::arch::{
    call_schema, call_sql_for, ensure_access_udtfs, make_deployed, spec_output_schema,
    Architecture, ArchitectureKind, DeployedFunction,
};
use crate::classify::ComplexityCase;
use crate::mapping::{ArgSource, FedOutput, MappingSpec};

/// Precomputed join composition: left/right call ids, the join-column
/// indexes, and the projection (from-left flag + source index).
type JoinPlan = (Ident, Ident, usize, usize, Vec<(bool, usize)>);

/// One precompiled inner statement of the I-UDTF body.
struct Step {
    id: Ident,
    sql: String,
    host_names: Vec<String>,
    args: Vec<ArgSource>,
}

/// Compiles a [`MappingSpec`] into a *native* I-UDTF whose body executes
/// one SQL statement per local call against the A-UDTFs — the moral
/// equivalent of the paper's Java I-UDTF with JDBC. Because the body is a
/// program, control structures are available and the cyclic case works.
pub struct JavaUdtfArchitecture {
    fdbs: Arc<Fdbs>,
    controller: Controller,
}

impl JavaUdtfArchitecture {
    pub fn new(fdbs: Arc<Fdbs>, controller: Controller) -> JavaUdtfArchitecture {
        JavaUdtfArchitecture { fdbs, controller }
    }

    fn compile_step(call: &crate::mapping::LocalCall) -> Step {
        let host_names: Vec<String> = (0..call.args.len())
            .map(|i| format!("v{}_{i}", call.id.normalized()))
            .collect();
        let sql = format!(
            "SELECT T.* FROM TABLE ({}({})) AS T",
            call.function,
            host_names.join(", ")
        );
        Step {
            id: call.id.clone(),
            sql,
            host_names,
            args: call.args.clone(),
        }
    }
}

fn resolve_arg(
    arg: &ArgSource,
    fed_args: &[Value],
    fed_params: &[(Ident, fedwf_types::DataType)],
    results: &HashMap<Ident, Table>,
    counter: Option<i64>,
) -> FedResult<Value> {
    match arg {
        ArgSource::Param(p) => {
            let idx = fed_params
                .iter()
                .position(|(n, _)| n == p)
                .ok_or_else(|| FedError::execution(format!("unknown parameter {p}")))?;
            Ok(fed_args[idx].clone())
        }
        ArgSource::Constant(v) => Ok(v.clone()),
        ArgSource::Counter => counter
            .map(|i| Value::Int(i as i32))
            .ok_or_else(|| FedError::execution("loop counter outside the loop")),
        ArgSource::Output { call, column } => {
            let table = results.get(call).ok_or_else(|| {
                FedError::execution(format!("call {call} has not produced a result yet"))
            })?;
            let idx = table.schema().index_of(column).ok_or_else(|| {
                FedError::execution(format!("call {call} has no output column {column}"))
            })?;
            match table.rows().first() {
                Some(row) => Ok(row.values()[idx].clone()),
                None => Err(FedError::execution(format!(
                    "call {call} returned no row for {column}"
                ))),
            }
        }
    }
}

impl Architecture for JavaUdtfArchitecture {
    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::JavaUdtf
    }

    fn mechanism(&self, case: ComplexityCase) -> Option<&'static str> {
        match case {
            ComplexityCase::Trivial => Some("hidden behind the federated function's signature"),
            ComplexityCase::Simple => Some("host-language conversions and constants"),
            ComplexityCase::Independent => Some("multiple statements, composed in the program"),
            ComplexityCase::DependentLinear
            | ComplexityCase::Dependent1N
            | ComplexityCase::DependentN1 => {
                Some("one statement per local function, ordered by the program")
            }
            ComplexityCase::Cyclic => Some("host-language loop issuing SQL statements"),
            ComplexityCase::General => Some("full host-language control structures"),
        }
    }

    fn supports(&self, _spec: &MappingSpec) -> bool {
        true
    }

    fn deploy(&self, spec: &MappingSpec) -> FedResult<DeployedFunction> {
        spec.validate()?;
        ensure_access_udtfs(&self.fdbs, &self.controller, spec)?;
        let returns = spec_output_schema(&self.controller, spec)?;

        // Precompile the inner statements.
        let steps: Vec<Step> = spec
            .topo_calls()?
            .into_iter()
            .map(Self::compile_step)
            .collect();
        let cyclic = spec
            .cyclic
            .clone()
            .map(|cy| (Self::compile_step(&cy.body), cy));

        // Precompute join projection indexes, if the output composes sets.
        let join_plan: Option<JoinPlan> = if let FedOutput::Join {
            left,
            right,
            left_on,
            right_on,
            project,
        } = &spec.output
        {
            let ls = call_schema(&self.controller, spec, left)?;
            let rs = call_schema(&self.controller, spec, right)?;
            let li = ls
                .index_of(left_on)
                .ok_or_else(|| FedError::plan(format!("join column {left_on} missing")))?;
            let ri = rs
                .index_of(right_on)
                .ok_or_else(|| FedError::plan(format!("join column {right_on} missing")))?;
            let proj = project
                .iter()
                .map(|(from_left, src, _)| {
                    let side = if *from_left { &ls } else { &rs };
                    side.index_of(src).map(|i| (*from_left, i)).ok_or_else(|| {
                        FedError::plan(format!("join projects unknown column {src}"))
                    })
                })
                .collect::<FedResult<Vec<_>>>()?;
            Some((left.clone(), right.clone(), li, ri, proj))
        } else {
            None
        };

        let fdbs = self.fdbs.clone();
        let fed_params = spec.params.clone();
        let output = spec.output.clone();
        let body_returns: SchemaRef = returns.clone();
        let spec_name = spec.name.clone();

        let body = move |fed_args: &[Value], meter: &mut Meter| -> FedResult<Table> {
            let mut results: HashMap<Ident, Table> = HashMap::new();
            for step in &steps {
                let values: Vec<Value> = step
                    .args
                    .iter()
                    .map(|a| resolve_arg(a, fed_args, &fed_params, &results, None))
                    .collect::<FedResult<_>>()?;
                let bound: Vec<(&str, Value)> = step
                    .host_names
                    .iter()
                    .map(String::as_str)
                    .zip(values)
                    .collect();
                let t = fdbs.execute_with_params(&step.sql, &bound, meter)?;
                results.insert(step.id.clone(), t);
            }

            // The host-language loop for the cyclic case.
            if let Some((step, cy)) = &cyclic {
                let limit = resolve_arg(&cy.limit, fed_args, &fed_params, &results, None)?
                    .as_i64()
                    .ok_or_else(|| FedError::execution("loop limit is not an integer"))?;
                let mut accumulated: Option<Table> = None;
                let mut i = cy.counter_init as i64;
                let mut iterations = 0usize;
                // do-until: the body runs at least once.
                loop {
                    iterations += 1;
                    if iterations > cy.max_iterations {
                        return Err(FedError::execution(format!(
                            "loop in {spec_name} exceeded max_iterations = {}",
                            cy.max_iterations
                        )));
                    }
                    let values: Vec<Value> = step
                        .args
                        .iter()
                        .map(|a| resolve_arg(a, fed_args, &fed_params, &results, Some(i)))
                        .collect::<FedResult<_>>()?;
                    let bound: Vec<(&str, Value)> = step
                        .host_names
                        .iter()
                        .map(String::as_str)
                        .zip(values)
                        .collect();
                    let t = fdbs.execute_with_params(&step.sql, &bound, meter)?;
                    match (&mut accumulated, cy.accumulate) {
                        (acc @ None, _) => *acc = Some(t),
                        (Some(acc), true) => {
                            for row in t.rows() {
                                acc.push_unchecked(row.clone());
                            }
                        }
                        (Some(acc), false) => *acc = t,
                    }
                    i += 1;
                    if i > limit {
                        break;
                    }
                }
                if let Some(t) = accumulated {
                    results.insert(step.id.clone(), t);
                }
            }

            // Assemble the output in the host language.
            match &output {
                FedOutput::FromCall(id) => results
                    .get(id)
                    .cloned()
                    .ok_or_else(|| FedError::execution(format!("no result for call {id}"))),
                FedOutput::Row(fields) => {
                    let mut row = Vec::with_capacity(fields.len());
                    for f in fields {
                        let v = resolve_arg(&f.source, fed_args, &fed_params, &results, None)?;
                        row.push(cast_value(&v, f.data_type)?);
                    }
                    let mut t = Table::new(body_returns.clone());
                    t.push_unchecked(Row::new(row));
                    Ok(t)
                }
                FedOutput::Join { .. } => {
                    let (left, right, li, ri, proj) =
                        join_plan.as_ref().expect("join plan precomputed");
                    let lt = results
                        .get(left)
                        .ok_or_else(|| FedError::execution("missing left join input"))?;
                    let rt = results
                        .get(right)
                        .ok_or_else(|| FedError::execution("missing right join input"))?;
                    let mut t = Table::new(body_returns.clone());
                    for lrow in lt.rows() {
                        for rrow in rt.rows() {
                            if lrow.values()[*li].sql_eq(&rrow.values()[*ri]) == Some(true) {
                                let values: Vec<Value> = proj
                                    .iter()
                                    .map(|(from_left, idx)| {
                                        if *from_left {
                                            lrow.values()[*idx].clone()
                                        } else {
                                            rrow.values()[*idx].clone()
                                        }
                                    })
                                    .collect();
                                t.push_unchecked(Row::new(values));
                            }
                        }
                    }
                    Ok(t)
                }
            }
        };

        let udtf = Udtf {
            name: spec.name.clone(),
            params: spec.params.clone(),
            returns: returns.clone(),
            kind: UdtfKind::Native(Arc::new(body)),
            charges: self.fdbs.iudtf_charge_spec(),
        };
        self.fdbs.register_udtf(udtf)?;
        Ok(make_deployed(
            self.fdbs.clone(),
            spec,
            returns,
            ArchitectureKind::JavaUdtf,
            call_sql_for(&spec.name, spec.params.len()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_functions;
    use fedwf_appsys::{build_scenario, DataGenConfig};
    use fedwf_sim::CostModel;

    fn arch() -> JavaUdtfArchitecture {
        let scenario = build_scenario(DataGenConfig::tiny()).unwrap();
        let controller = Controller::new(scenario.registry, CostModel::zero());
        JavaUdtfArchitecture::new(Arc::new(Fdbs::new(CostModel::zero())), controller)
    }

    #[test]
    fn buy_supp_comp_runs_as_many_statements() {
        let a = arch();
        let deployed = a.deploy(&paper_functions::buy_supp_comp()).unwrap();
        let mut meter = Meter::new();
        let t = deployed
            .call(
                &[
                    Value::Int(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NO),
                    Value::str(fedwf_appsys::datagen::WELL_KNOWN_COMPONENT_NAME),
                ],
                &mut meter,
            )
            .unwrap();
        assert_eq!(t.value(0, "Decision"), Some(&Value::str("YES")));
    }

    #[test]
    fn cyclic_case_is_supported_via_host_loop() {
        let a = arch();
        assert!(a.supports(&paper_functions::all_comp_names()));
        assert!(a.mechanism(ComplexityCase::Cyclic).is_some());
        let deployed = a.deploy(&paper_functions::all_comp_names()).unwrap();
        let mut meter = Meter::new();
        let t = deployed.call(&[Value::Int(4)], &mut meter).unwrap();
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn join_output_composes_in_program() {
        let a = arch();
        let deployed = a
            .deploy(&paper_functions::get_sub_comp_discounts())
            .unwrap();
        let mut meter = Meter::new();
        // The well-known component has sub-components; ask for any
        // discount >= 1 so the right side is large.
        let t = deployed
            .call(
                &[
                    Value::Int(fedwf_appsys::datagen::WELL_KNOWN_COMPONENT_NO),
                    Value::Int(1),
                ],
                &mut meter,
            )
            .unwrap();
        assert_eq!(t.schema().len(), 2);
    }

    #[test]
    fn linear_chain_threads_results_between_statements() {
        let a = arch();
        let deployed = a.deploy(&paper_functions::get_supp_qual()).unwrap();
        let mut meter = Meter::new();
        let t = deployed
            .call(
                &[Value::str(fedwf_appsys::datagen::WELL_KNOWN_SUPPLIER_NAME)],
                &mut meter,
            )
            .unwrap();
        assert_eq!(t.value(0, "Qual"), Some(&Value::Int(93)));
    }
}
