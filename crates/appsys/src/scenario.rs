//! The paper's sample scenario: three application systems and their
//! predefined local functions.
//!
//! * **stock** (stock-keeping system): components in stock, supplier
//!   quality, stock numbers. Functions `GetQuality`, `GetNumber`,
//!   `GetInStock`.
//! * **purchasing** (purchasing system): suppliers, reliability, discounts,
//!   the decision logic. Functions `GetReliability`, `GetSupplierNo`,
//!   `GetCompSupp4Discount`, `GetGrade`, `DecidePurchase`.
//! * **pdm** (product data management): the component catalogue and bill of
//!   material. Functions `GetCompNo`, `GetCompName`, `GetSubCompNo`,
//!   `GetCompCount`.

use std::sync::Arc;

use fedwf_relstore::{CmpOp, IndexKind, Predicate};
use fedwf_types::{DataType, FedError, FedResult, Row, Schema, Table, Value};

use crate::datagen::{self, DataGenConfig, GeneratedData};
use crate::function::{FunctionSignature, LocalFunction};
use crate::system::{AppSystemRegistry, ApplicationSystem};

/// The built scenario: the registry plus the config used to generate it.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub registry: AppSystemRegistry,
    pub config: DataGenConfig,
}

impl Scenario {
    /// Supplier number used by the paper's examples.
    pub fn well_known_supplier_no(&self) -> i32 {
        datagen::WELL_KNOWN_SUPPLIER_NO
    }

    pub fn well_known_supplier_name(&self) -> &'static str {
        datagen::WELL_KNOWN_SUPPLIER_NAME
    }

    pub fn well_known_component_name(&self) -> &'static str {
        datagen::WELL_KNOWN_COMPONENT_NAME
    }

    pub fn well_known_component_no(&self) -> i32 {
        datagen::WELL_KNOWN_COMPONENT_NO
    }
}

/// Build the three application systems over freshly generated data.
pub fn build_scenario(config: DataGenConfig) -> FedResult<Scenario> {
    let data = datagen::generate(&config);
    let mut registry = AppSystemRegistry::new();
    registry.add(build_stock_system(&data)?)?;
    registry.add(build_purchasing_system(&data)?)?;
    registry.add(build_pdm_system(&data)?)?;
    Ok(Scenario { registry, config })
}

fn single_int(
    table: Table,
    column: &str,
    what: &str,
    key: &dyn std::fmt::Display,
) -> FedResult<Value> {
    match table.rows().first() {
        Some(row) => {
            let idx = table
                .schema()
                .index_of(&fedwf_types::Ident::new(column))
                .expect("column exists by construction");
            Ok(row.values()[idx].clone())
        }
        None => Err(FedError::app_system(format!("{what} not found: {key}"))),
    }
}

fn build_stock_system(data: &GeneratedData) -> FedResult<Arc<ApplicationSystem>> {
    let sys = ApplicationSystem::new("stock");
    let db = sys.database();

    db.create_table(
        "SupplierQuality",
        Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("Qual", DataType::Int),
        ])),
    )?;
    db.create_index("SupplierQuality", "pk", "SupplierNo", IndexKind::Unique)?;
    db.insert_all(
        "SupplierQuality",
        data.suppliers
            .iter()
            .map(|s| Row::new(vec![Value::Int(s.supplier_no), Value::Int(s.quality)]))
            .collect(),
    )?;

    db.create_table(
        "StockNumbers",
        Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("CompNo", DataType::Int),
            ("StockNo", DataType::Int),
        ])),
    )?;
    db.create_index("StockNumbers", "by_comp", "CompNo", IndexKind::NonUnique)?;
    db.insert_all(
        "StockNumbers",
        data.stock_numbers
            .iter()
            .map(|s| {
                Row::new(vec![
                    Value::Int(s.supplier_no),
                    Value::Int(s.comp_no),
                    Value::Int(s.stock_no),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "InStock",
        Arc::new(Schema::of(&[
            ("CompNo", DataType::Int),
            ("Quantity", DataType::Int),
        ])),
    )?;
    db.create_index("InStock", "pk", "CompNo", IndexKind::Unique)?;
    db.insert_all(
        "InStock",
        data.components
            .iter()
            .map(|c| Row::new(vec![Value::Int(c.comp_no), Value::Int(c.in_stock)]))
            .collect(),
    )?;

    // GetQuality(SupplierNo) -> (Qual)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetQuality",
            &[("SupplierNo", DataType::Int)],
            &[("Qual", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("SupplierQuality", &Predicate::eq(0, args[0].clone()), None)?;
            let qual = single_int(t, "Qual", "supplier", &args[0])?;
            Ok(Table::scalar("Qual", qual))
        },
    ))?;

    // GetNumber(SupplierNo, CompNo) -> (Number)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetNumber",
            &[("SupplierNo", DataType::Int), ("CompNo", DataType::Int)],
            &[("Number", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project(
                "StockNumbers",
                &Predicate::eq(0, args[0].clone()).and(Predicate::eq(1, args[1].clone())),
                None,
            )?;
            let no = single_int(
                t,
                "StockNo",
                "stock number for supplier/component",
                &args[0],
            )?;
            Ok(Table::scalar("Number", no))
        },
    ))?;

    // GetInStock(CompNo) -> (Quantity)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetInStock",
            &[("CompNo", DataType::Int)],
            &[("Quantity", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("InStock", &Predicate::eq(0, args[0].clone()), None)?;
            let q = single_int(t, "Quantity", "component", &args[0])?;
            Ok(Table::scalar("Quantity", q))
        },
    ))?;

    Ok(Arc::new(sys))
}

fn build_purchasing_system(data: &GeneratedData) -> FedResult<Arc<ApplicationSystem>> {
    let sys = ApplicationSystem::new("purchasing");
    let db = sys.database();

    db.create_table(
        "Suppliers",
        Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("Name", DataType::Varchar),
            ("Relia", DataType::Int),
        ])),
    )?;
    db.create_index("Suppliers", "pk", "SupplierNo", IndexKind::Unique)?;
    db.create_index("Suppliers", "by_name", "Name", IndexKind::NonUnique)?;
    db.insert_all(
        "Suppliers",
        data.suppliers
            .iter()
            .map(|s| {
                Row::new(vec![
                    Value::Int(s.supplier_no),
                    Value::str(s.name.clone()),
                    Value::Int(s.reliability),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "Discounts",
        Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("CompNo", DataType::Int),
            ("Discount", DataType::Int),
        ])),
    )?;
    db.insert_all(
        "Discounts",
        data.discounts
            .iter()
            .map(|d| {
                Row::new(vec![
                    Value::Int(d.supplier_no),
                    Value::Int(d.comp_no),
                    Value::Int(d.discount),
                ])
            })
            .collect(),
    )?;

    // GetReliability(SupplierNo) -> (Relia)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetReliability",
            &[("SupplierNo", DataType::Int)],
            &[("Relia", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("Suppliers", &Predicate::eq(0, args[0].clone()), None)?;
            let r = single_int(t, "Relia", "supplier", &args[0])?;
            Ok(Table::scalar("Relia", r))
        },
    ))?;

    // GetSupplierNo(SupplierName) -> (SupplierNo)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetSupplierNo",
            &[("SupplierName", DataType::Varchar)],
            &[("SupplierNo", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("Suppliers", &Predicate::eq(1, args[0].clone()), None)?;
            let no = single_int(t, "SupplierNo", "supplier name", &args[0])?;
            Ok(Table::scalar("SupplierNo", no))
        },
    ))?;

    // GetCompSupp4Discount(Discount) -> (CompNo, SupplierNo): all offers
    // with at least the requested discount. Set-returning.
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetCompSupp4Discount",
            &[("Discount", DataType::Int)],
            &[("CompNo", DataType::Int), ("SupplierNo", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project(
                "Discounts",
                &Predicate::cmp(2, CmpOp::GtEq, args[0].clone()),
                None,
            )?;
            let schema = Arc::new(Schema::of(&[
                ("CompNo", DataType::Int),
                ("SupplierNo", DataType::Int),
            ]));
            let mut out = Table::new(schema);
            for row in t.rows() {
                out.push_unchecked(Row::new(vec![
                    row.values()[1].clone(),
                    row.values()[0].clone(),
                ]));
            }
            Ok(out)
        },
    ))?;

    // GetGrade(Qual, Relia) -> (Grade): the purchasing system's scoring
    // formula, a pure computation.
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetGrade",
            &[("Qual", DataType::Int), ("Relia", DataType::Int)],
            &[("Grade", DataType::Int)],
        ),
        |_db, args| {
            let q = args[0]
                .as_i64()
                .ok_or_else(|| FedError::app_system("Qual must not be NULL"))?;
            let r = args[1]
                .as_i64()
                .ok_or_else(|| FedError::app_system("Relia must not be NULL"))?;
            // Quality weighs more than reliability.
            let grade = (2 * q + r) / 3;
            Ok(Table::scalar("Grade", Value::Int(grade as i32)))
        },
    ))?;

    // DecidePurchase(Grade, No) -> (Answer): buy when the grade is good, or
    // when it is acceptable and a discount makes up for it.
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "DecidePurchase",
            &[("Grade", DataType::Int), ("No", DataType::Int)],
            &[("Answer", DataType::Varchar)],
        ),
        |db, args| {
            let grade = args[0]
                .as_i64()
                .ok_or_else(|| FedError::app_system("Grade must not be NULL"))?;
            let comp_no = args[1].clone();
            let offers = db.scan_project("Discounts", &Predicate::eq(1, comp_no), None)?;
            let best_discount = offers
                .rows()
                .iter()
                .filter_map(|r| r.values()[2].as_i64())
                .max()
                .unwrap_or(0);
            let answer = if grade >= 80 || grade + best_discount >= 90 {
                "YES"
            } else {
                "NO"
            };
            Ok(Table::scalar("Answer", Value::str(answer)))
        },
    ))?;

    Ok(Arc::new(sys))
}

fn build_pdm_system(data: &GeneratedData) -> FedResult<Arc<ApplicationSystem>> {
    let sys = ApplicationSystem::new("pdm");
    let db = sys.database();

    db.create_table(
        "Components",
        Arc::new(Schema::of(&[
            ("CompNo", DataType::Int),
            ("Name", DataType::Varchar),
        ])),
    )?;
    db.create_index("Components", "pk", "CompNo", IndexKind::Unique)?;
    db.create_index("Components", "by_name", "Name", IndexKind::NonUnique)?;
    db.insert_all(
        "Components",
        data.components
            .iter()
            .map(|c| Row::new(vec![Value::Int(c.comp_no), Value::str(c.name.clone())]))
            .collect(),
    )?;

    db.create_table(
        "Bom",
        Arc::new(Schema::of(&[
            ("ParentNo", DataType::Int),
            ("ChildNo", DataType::Int),
        ])),
    )?;
    db.create_index("Bom", "by_parent", "ParentNo", IndexKind::NonUnique)?;
    db.insert_all(
        "Bom",
        data.bom
            .iter()
            .map(|b| Row::new(vec![Value::Int(b.parent_no), Value::Int(b.child_no)]))
            .collect(),
    )?;

    // GetCompNo(CompName) -> (No)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetCompNo",
            &[("CompName", DataType::Varchar)],
            &[("No", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("Components", &Predicate::eq(1, args[0].clone()), None)?;
            let no = single_int(t, "CompNo", "component name", &args[0])?;
            Ok(Table::scalar("No", no))
        },
    ))?;

    // GetCompName(CompNo) -> (Name)
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetCompName",
            &[("CompNo", DataType::Int)],
            &[("Name", DataType::Varchar)],
        ),
        |db, args| {
            let t = db.scan_project("Components", &Predicate::eq(0, args[0].clone()), None)?;
            let name = single_int(t, "Name", "component", &args[0])?;
            Ok(Table::scalar("Name", name))
        },
    ))?;

    // GetSubCompNo(CompNo) -> (SubCompNo): direct children in the BOM.
    sys.register(LocalFunction::new(
        FunctionSignature::new(
            "GetSubCompNo",
            &[("CompNo", DataType::Int)],
            &[("SubCompNo", DataType::Int)],
        ),
        |db, args| {
            let t = db.scan_project("Bom", &Predicate::eq(0, args[0].clone()), None)?;
            let schema = Arc::new(Schema::of(&[("SubCompNo", DataType::Int)]));
            let mut out = Table::new(schema);
            for row in t.rows() {
                out.push_unchecked(Row::new(vec![row.values()[1].clone()]));
            }
            Ok(out)
        },
    ))?;

    // GetCompCount() -> (N): how many components exist; drives the
    // do-until loop of the cyclic case (AllCompNames).
    sys.register(LocalFunction::new(
        FunctionSignature::new("GetCompCount", &[], &[("N", DataType::Int)]),
        |db, _args| {
            let n = db.scan_all("Components")?.row_count();
            Ok(Table::scalar("N", Value::Int(n as i32)))
        },
    ))?;

    Ok(Arc::new(sys))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        build_scenario(DataGenConfig::tiny()).unwrap()
    }

    #[test]
    fn builds_three_systems() {
        let s = scenario();
        assert_eq!(
            s.registry.system_names(),
            vec!["pdm", "purchasing", "stock"]
        );
    }

    #[test]
    fn fig1_workflow_steps_run_manually() {
        // The five local function calls of the sample scenario, exactly as
        // the purchasing department employee would issue them by hand.
        let s = scenario();
        let reg = &s.registry;
        let supplier = Value::Int(s.well_known_supplier_no());

        let qual = reg
            .call("GetQuality", std::slice::from_ref(&supplier))
            .unwrap();
        let relia = reg.call("GetReliability", &[supplier]).unwrap();
        let grade = reg
            .call(
                "GetGrade",
                &[
                    qual.value(0, "Qual").unwrap().clone(),
                    relia.value(0, "Relia").unwrap().clone(),
                ],
            )
            .unwrap();
        let comp_no = reg
            .call("GetCompNo", &[Value::str(s.well_known_component_name())])
            .unwrap();
        let decision = reg
            .call(
                "DecidePurchase",
                &[
                    grade.value(0, "Grade").unwrap().clone(),
                    comp_no.value(0, "No").unwrap().clone(),
                ],
            )
            .unwrap();
        // Quality 93, reliability 87 -> grade (186+87)/3 = 91 -> YES.
        assert_eq!(grade.value(0, "Grade"), Some(&Value::Int(91)));
        assert_eq!(decision.value(0, "Answer"), Some(&Value::str("YES")));
    }

    #[test]
    fn get_supplier_no_resolves_names() {
        let s = scenario();
        let t = s
            .registry
            .call("GetSupplierNo", &[Value::str(s.well_known_supplier_name())])
            .unwrap();
        assert_eq!(
            t.value(0, "SupplierNo"),
            Some(&Value::Int(s.well_known_supplier_no()))
        );
    }

    #[test]
    fn get_number_finds_well_known_pair() {
        let s = scenario();
        let t = s
            .registry
            .call(
                "GetNumber",
                &[
                    Value::Int(s.well_known_supplier_no()),
                    Value::Int(s.well_known_component_no()),
                ],
            )
            .unwrap();
        assert!(t.value(0, "Number").unwrap().as_i64().unwrap() >= 100_000);
    }

    #[test]
    fn set_returning_functions_return_multiple_rows() {
        let s = scenario();
        let subs = s
            .registry
            .call("GetSubCompNo", &[Value::Int(s.well_known_component_no())])
            .unwrap();
        assert!(subs.row_count() >= 2, "forced BOM edges must be visible");
        let offers = s
            .registry
            .call("GetCompSupp4Discount", &[Value::Int(10)])
            .unwrap();
        assert!(!offers.is_empty());
    }

    #[test]
    fn missing_entities_produce_app_errors() {
        let s = scenario();
        assert!(s
            .registry
            .call("GetQuality", &[Value::Int(99_999)])
            .is_err());
        assert!(s
            .registry
            .call("GetCompNo", &[Value::str("no such part")])
            .is_err());
    }

    #[test]
    fn comp_count_matches_config() {
        let s = scenario();
        let t = s.registry.call("GetCompCount", &[]).unwrap();
        assert_eq!(
            t.value(0, "N"),
            Some(&Value::Int(s.config.components as i32))
        );
    }

    #[test]
    fn decide_purchase_uses_discounts() {
        let s = scenario();
        // Low grade, no discount on a component that has none: NO.
        let no_discount_comp = Value::Int(10_000); // surely absent
        let t = s
            .registry
            .call("DecidePurchase", &[Value::Int(50), no_discount_comp])
            .unwrap();
        assert_eq!(t.value(0, "Answer"), Some(&Value::str("NO")));
        // High grade: YES regardless.
        let t = s
            .registry
            .call("DecidePurchase", &[Value::Int(85), Value::Int(10_000)])
            .unwrap();
        assert_eq!(t.value(0, "Answer"), Some(&Value::str("YES")));
    }
}
