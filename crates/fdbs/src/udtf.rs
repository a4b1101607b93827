//! User-defined table functions and their charge specifications.

use std::fmt;
use std::sync::Arc;

use fedwf_sim::{Component, Meter, SpanName};
use fedwf_sql::SelectStmt;
use fedwf_types::{DataType, FedResult, Ident, SchemaRef, Table, Value};

/// One cost item booked around a UDTF invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChargeItem {
    pub component: Component,
    pub step: SpanName,
    pub micros: u64,
}

impl ChargeItem {
    pub fn new(component: Component, step: impl Into<SpanName>, micros: u64) -> ChargeItem {
        ChargeItem {
            component,
            step: step.into(),
            micros,
        }
    }
}

/// The cost sequence an architecture attaches to a UDTF: `on_start` is
/// booked before the body runs, `on_finish` after. This is how a single
/// executor reproduces both columns of the paper's Fig. 6 — an A-UDTF
/// carries prepare/RMI/controller charges, an I-UDTF carries its
/// start/finish charges, and the WfMS-connecting UDTF carries the
/// connect-process-RMI-controller sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChargeSpec {
    pub on_start: Vec<ChargeItem>,
    pub on_finish: Vec<ChargeItem>,
}

impl ChargeSpec {
    pub fn none() -> ChargeSpec {
        ChargeSpec::default()
    }

    pub fn book_start(&self, meter: &mut Meter) {
        for c in &self.on_start {
            meter.charge(c.component, c.step.clone(), c.micros);
        }
    }

    pub fn book_finish(&self, meter: &mut Meter) {
        for c in &self.on_finish {
            meter.charge(c.component, c.step.clone(), c.micros);
        }
    }
}

/// A native UDTF body: gets the argument values and the caller's meter (so
/// that e.g. the WfMS-connecting UDTF can thread virtual time through the
/// workflow engine's fork/join accounting).
pub type NativeBody = Arc<dyn Fn(&[Value], &mut Meter) -> FedResult<Table> + Send + Sync>;

/// How a UDTF is implemented.
#[derive(Clone)]
pub enum UdtfKind {
    /// A closure — A-UDTFs, "Java" I-UDTFs, wrapper-connecting UDTFs.
    Native(NativeBody),
    /// A SQL-bodied I-UDTF (`LANGUAGE SQL RETURN SELECT ...`); executed by
    /// the FDBS engine with the parameters bound. `plan_key` caches the
    /// body's plan: `fn:<name>`, written once at CREATE FUNCTION.
    Sql {
        body: Box<SelectStmt>,
        plan_key: String,
    },
}

impl fmt::Debug for UdtfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdtfKind::Native(_) => write!(f, "Native(..)"),
            UdtfKind::Sql { body, .. } => write!(f, "Sql({body})"),
        }
    }
}

/// A registered user-defined table function.
#[derive(Debug, Clone)]
pub struct Udtf {
    pub name: Ident,
    pub params: Vec<(Ident, DataType)>,
    pub returns: SchemaRef,
    pub kind: UdtfKind,
    pub charges: ChargeSpec,
}

impl Udtf {
    pub fn native(
        name: impl Into<Ident>,
        params: Vec<(Ident, DataType)>,
        returns: SchemaRef,
        body: impl Fn(&[Value], &mut Meter) -> FedResult<Table> + Send + Sync + 'static,
    ) -> Udtf {
        Udtf {
            name: name.into(),
            params,
            returns,
            kind: UdtfKind::Native(Arc::new(body)),
            charges: ChargeSpec::none(),
        }
    }

    pub fn with_charges(mut self, charges: ChargeSpec) -> Udtf {
        self.charges = charges;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::Schema;

    #[test]
    fn charge_spec_books_in_order() {
        let spec = ChargeSpec {
            on_start: vec![
                ChargeItem::new(Component::Udtf, "Start I-UDTF", 10),
                ChargeItem::new(Component::Rmi, "RMI call", 5),
            ],
            on_finish: vec![ChargeItem::new(Component::Udtf, "Finish I-UDTF", 3)],
        };
        let mut meter = Meter::new();
        spec.book_start(&mut meter);
        assert_eq!(meter.now_us(), 15);
        spec.book_finish(&mut meter);
        assert_eq!(meter.now_us(), 18);
        assert_eq!(meter.charges()[1].step, "RMI call");
    }

    #[test]
    fn native_udtf_invokes_body() {
        let udtf = Udtf::native(
            "Answer",
            vec![],
            Arc::new(Schema::of(&[("x", DataType::Int)])),
            |_args, _meter| Ok(Table::scalar("x", Value::Int(1))),
        );
        let UdtfKind::Native(body) = &udtf.kind else {
            panic!()
        };
        let mut meter = Meter::new();
        let t = body(&[], &mut meter).unwrap();
        assert_eq!(t.row_count(), 1);
    }
}
