//! The three workloads: what each loads at set-up, which distinct inputs
//! it draws from the seed, and the reference reply of every input.
//!
//! * `fn_mix` — warm calls of the nine Fig. 5 federated functions, mixed
//!   uniformly, with seeded valid arguments from the generated scenario.
//! * `sql_mix` — SQL over a loaded federation: a 50 000-row, 16-column
//!   local fact table with NULLs and indexes, a local dimension table and
//!   a foreign table behind `RelstoreServer`; 30 % `point`, 20 % `range`,
//!   20 % `join_agg`, 10 % `fed_join`, 20 % `adhoc`.
//! * `ingest` — a durable local store under group commit (see `ingest.rs`).

use std::sync::Arc;

use fedwf_appsys::AppSystemRegistry;
use fedwf_core::{paper_functions, IntegrationServer, Outcome, Request};
use fedwf_fdbs::RelstoreServer;
use fedwf_relstore::{CmpOp, Database, IndexKind, Predicate};
use fedwf_sim::Meter;
use fedwf_types::rng::Rng;
use fedwf_types::{DataType, FedError, FedResult, Ident, Row, Schema, Table, Value};
use fedwf_wfms::{AuditEvent, Engine, ProgramExecutor};

use crate::rig::TimedForeign;

/// What a reply must equal.
#[derive(Debug, Clone)]
pub struct Reference {
    pub table: Table,
    pub elapsed_us: u64,
}

impl Reference {
    pub fn of(outcome: &Outcome) -> Reference {
        Reference {
            table: outcome.table.clone(),
            elapsed_us: outcome.elapsed_us(),
        }
    }

    pub fn matches(&self, outcome: &Outcome) -> bool {
        outcome.table == self.table && outcome.elapsed_us() == self.elapsed_us
    }
}

/// Local function calls (name, arguments) in the order a workflow makes them.
pub type LocalCalls = Vec<(String, Vec<Value>)>;

/// One federated-function invocation below the FDBS: the arguments of
/// `Fdbs::call_function`, and the local calls its workflow makes.
#[derive(Debug, Clone)]
pub struct FnCall {
    pub name: String,
    pub args: Vec<Value>,
    pub locals: LocalCalls,
    pub activities: usize,
}

/// A relstore scan a SQL request's plan performs, re-issued directly.
#[derive(Debug, Clone)]
pub struct Scan {
    pub table: &'static str,
    pub predicate: Predicate,
    pub projection: Option<Vec<usize>>,
}

/// One distinct, reference-checked input.
#[derive(Debug, Clone)]
pub struct Input {
    pub class: &'static str,
    pub request: Request,
    pub reference: Reference,
    /// For `adhoc`: the SQL text around a per-request unique literal. Each
    /// request inlines a fresh one, so it misses the plan cache.
    pub adhoc: Option<(String, String)>,
    /// The statement the FDBS executes, and its host variables (the
    /// deployed function's call statement for function requests).
    pub fdbs_sql: String,
    pub fdbs_params: Vec<(String, Value)>,
    /// Federated functions invoked below the FDBS.
    pub calls: Vec<FnCall>,
    /// Local relstore scans the plan performs.
    pub scans: Vec<Scan>,
}

impl Input {
    /// The request to send for the `n`-th use of this input; `tag` is
    /// unique per request (only `adhoc` inputs use it).
    pub fn request_for(&self, tag: u64) -> Request {
        match &self.adhoc {
            Some((before, after)) => Request::sql(format!("{before}{tag}{after}")),
            None => self.request.clone(),
        }
    }
}

/// A drawn mix of inputs: the distinct inputs and, per client, the
/// sequence of input indexes it cycles through.
#[derive(Debug)]
pub struct Mix {
    pub inputs: Vec<Input>,
    pub sequences: Vec<Vec<u32>>,
}

/// Length of each client's pre-generated input sequence.
pub const SEQUENCE_LEN: usize = 1 << 16;

/// Solo, warm reference: run once to warm, keep the second reply.
fn warm_reference(server: &IntegrationServer, request: &Request) -> FedResult<Reference> {
    server.execute(request)?;
    Ok(Reference::of(&server.execute(request)?))
}

/// Draw each client's sequence: a class by `weights`, then an input of
/// that class uniformly.
fn sequences(
    rng: &mut Rng,
    inputs: &[Input],
    weights: &[(&str, u32)],
    clients: usize,
) -> Vec<Vec<u32>> {
    let by_class: Vec<Vec<u32>> = weights
        .iter()
        .map(|(class, _)| {
            (0..inputs.len() as u32)
                .filter(|&i| inputs[i as usize].class == *class)
                .collect()
        })
        .collect();
    let total: u32 = weights.iter().map(|(_, w)| w).sum();
    (0..clients)
        .map(|_| {
            (0..SEQUENCE_LEN)
                .map(|_| {
                    let mut pick = rng.next_below(u64::from(total)) as u32;
                    let mut class = 0;
                    while pick >= weights[class].1 {
                        pick -= weights[class].1;
                        class += 1;
                    }
                    let members = &by_class[class];
                    members[rng.next_below(members.len() as u64) as usize]
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// fn_mix
// ---------------------------------------------------------------------------

/// Distinct argument lists drawn per function.
const ARGS_PER_FUNCTION: usize = 16;

/// Records the local calls a workflow makes, answering from the registry.
struct RecordingExecutor<'a> {
    registry: &'a AppSystemRegistry,
    calls: fedwf_types::sync::Mutex<LocalCalls>,
}

impl ProgramExecutor for RecordingExecutor<'_> {
    fn execute(&self, function: &str, args: &[Value]) -> FedResult<Table> {
        self.calls
            .lock()
            .push((function.to_string(), args.to_vec()));
        self.registry.call(function, args)
    }
}

/// The local calls and completed activities of one process instance, found
/// by running the deployed process once on a recording executor.
pub fn record_locals(
    server: &IntegrationServer,
    process: &str,
    args: &[Value],
) -> FedResult<(LocalCalls, usize)> {
    let model = server.wrapper().process(process)?;
    let mut input = model.input.instantiate();
    let fields = model.input.fields();
    if fields.len() != args.len() {
        return Err(FedError::wrapper(format!(
            "process {process} takes {} inputs, got {}",
            fields.len(),
            args.len()
        )));
    }
    for ((name, _), value) in fields.iter().zip(args) {
        input.set(name, value.clone())?;
    }
    let recorder = RecordingExecutor {
        registry: &server.scenario().registry,
        calls: Default::default(),
    };
    let engine = Engine::new(server.config().cost.clone());
    let instance = engine.run(&model, &input, &recorder, &mut Meter::new())?;
    let activities = instance
        .audit
        .count_events(|e| matches!(e, AuditEvent::ActivityCompleted { .. }));
    Ok((recorder.calls.into_inner(), activities))
}

fn column(table: &Table, name: &str) -> Vec<Value> {
    let idx = table
        .schema()
        .index_of(&Ident::new(name))
        .unwrap_or_else(|| panic!("scenario table has column {name}"));
    table
        .rows()
        .iter()
        .map(|r| r.values()[idx].clone())
        .collect()
}

fn scan_all(registry: &AppSystemRegistry, system: &str, table: &str) -> FedResult<Table> {
    registry
        .system(system)
        .ok_or_else(|| FedError::catalog(format!("no application system {system}")))?
        .database()
        .scan_all(table)
}

pub fn fn_mix(server: &IntegrationServer, seed: u64, clients: usize) -> FedResult<Mix> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xF0F0);
    let registry = &server.scenario().registry;
    let suppliers = scan_all(registry, "purchasing", "Suppliers")?;
    let supplier_nos = column(&suppliers, "SupplierNo");
    let supplier_names = column(&suppliers, "Name");
    let components = scan_all(registry, "pdm", "Components")?;
    let comp_nos = column(&components, "CompNo");
    let comp_names = column(&components, "Name");
    let stock = scan_all(registry, "stock", "StockNumbers")?;
    let stocked: Vec<(Value, Value)> = column(&stock, "SupplierNo")
        .into_iter()
        .zip(column(&stock, "CompNo"))
        .collect();
    let name_of = |nos: &[Value], names: &[Value], no: &Value| -> Value {
        names[nos
            .iter()
            .position(|n| n == no)
            .expect("stocked keys exist")]
        .clone()
    };
    let stocked_1234: Vec<Value> = stocked
        .iter()
        .filter(|(s, _)| *s == Value::Int(server.scenario().well_known_supplier_no()))
        .map(|(_, c)| c.clone())
        .collect();

    let mut inputs = Vec::new();
    let mut classes = Vec::new();
    for (spec, _) in paper_functions::fig5_workload() {
        let name = spec.name.as_str().to_string();
        // Nine names per set-up, leaked so inputs can share `&'static str`
        // class names with the SQL classes.
        let class: &'static str = Box::leak(name.clone().into_boxed_str());
        classes.push(class);
        let deployed = server.deployed_function(&name)?;
        for _ in 0..ARGS_PER_FUNCTION {
            let mut pick = |v: &[Value]| v[rng.next_below(v.len() as u64) as usize].clone();
            let args = match spec.name.normalized() {
                "gibkompnr" => vec![pick(&comp_names)],
                "getnumbersupp1234" => vec![pick(&stocked_1234)],
                "getsubcompdiscounts" => {
                    vec![pick(&comp_nos), Value::Int(5 + pick_int(&mut rng, 26))]
                }
                "getsuppqualrelia" => vec![pick(&supplier_nos)],
                "getsuppqual" | "getsuppscores" => vec![pick(&supplier_names)],
                "getnosuppcomp" => {
                    let (s, c) = stocked[rng.next_below(stocked.len() as u64) as usize].clone();
                    vec![
                        name_of(&supplier_nos, &supplier_names, &s),
                        name_of(&comp_nos, &comp_names, &c),
                    ]
                }
                "buysuppcomp" => vec![pick(&supplier_nos), pick(&comp_names)],
                "allcompnames" => vec![Value::Int(1 + pick_int(&mut rng, 20))],
                other => return Err(FedError::catalog(format!("no argument recipe for {other}"))),
            };
            let request = Request::function(name.clone()).params(args.as_slice());
            // An argument the scenario cannot answer is skipped, so that no
            // request of the run fails.
            let Ok(reference) = warm_reference(server, &request) else {
                continue;
            };
            let (locals, activities) = record_locals(server, &name, &args)?;
            let fdbs_params = args
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("p{i}"), v.clone()))
                .collect();
            inputs.push(Input {
                class,
                request,
                reference,
                adhoc: None,
                fdbs_sql: deployed.call_sql.clone(),
                fdbs_params,
                calls: vec![FnCall {
                    name: name.clone(),
                    args,
                    locals,
                    activities,
                }],
                scans: Vec::new(),
            });
        }
    }
    if let Some(class) = classes
        .iter()
        .find(|c| !inputs.iter().any(|i| i.class == **c))
    {
        return Err(FedError::catalog(format!("{class} has no valid argument")));
    }
    let weights: Vec<(&str, u32)> = classes.iter().map(|c| (*c, 1)).collect();
    let sequences = sequences(&mut rng, &inputs, &weights, clients);
    Ok(Mix { inputs, sequences })
}

fn pick_int(rng: &mut Rng, below: u64) -> i32 {
    rng.next_below(below) as i32
}

// ---------------------------------------------------------------------------
// sql_mix
// ---------------------------------------------------------------------------

const FACT_ROWS: usize = 50_000;
const CUSTOMERS: i32 = 2_000;
const DAYS: i32 = 1_000;
const SEGMENTS: [&str; 8] = [
    "auto", "aero", "rail", "marine", "energy", "medical", "retail", "public",
];
const REGIONS: [&str; 5] = ["north", "south", "east", "west", "central"];
const STATUSES: [&str; 4] = ["open", "shipped", "billed", "closed"];
const CHANNELS: [&str; 3] = ["web", "edi", "phone"];

/// Column numbers of `Orders` used by predicates and projections.
const O_ID: usize = 0;
const O_CUST: usize = 1;
const O_DAY: usize = 3;
const O_QTY: usize = 4;
const O_PRICE: usize = 5;

const POINT_SQL: &str = "SELECT O.* FROM Orders AS O WHERE O.Id = pk";
const RANGE_SQL: &str = "SELECT O.Id, O.Qty, O.Price FROM Orders AS O \
     WHERE O.CustNo = pc AND O.Day >= plo AND O.Day < phi ORDER BY O.Id";
const JOIN_AGG_SQL: &str = "SELECT C.Segment, COUNT(*) AS N, SUM(O.Qty) AS Q \
     FROM Orders AS O, Customers AS C \
     WHERE O.CustNo = C.CustNo AND O.Day = pd \
     GROUP BY C.Segment ORDER BY Q DESC, C.Segment LIMIT 5";
const FED_JOIN_SQL: &str = "SELECT S.SupplierNo, T.Qual \
     FROM ErpSuppliers AS S, TABLE (GetSuppQual(S.Name)) AS T \
     WHERE S.SupplierNo >= plo AND S.SupplierNo < phi ORDER BY S.SupplierNo";

/// Days a `range` request covers, for one customer (about 25 fact rows
/// per customer over all days).
const RANGE_DAYS: i32 = 400;
/// Suppliers a `fed_join` request covers: one workflow per supplier.
const FED_SUPPLIERS: i32 = 3;

fn load_federation(server: &IntegrationServer, seed: u64) -> FedResult<()> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
    let local = server.fdbs().catalog().local();
    let orders = Arc::new(Schema::of(&[
        ("Id", DataType::Int),
        ("CustNo", DataType::Int),
        ("PartNo", DataType::Int),
        ("Day", DataType::Int),
        ("Qty", DataType::Int),
        ("Price", DataType::Double),
        ("Discount", DataType::Double),
        ("Status", DataType::Varchar),
        ("Region", DataType::Varchar),
        ("Prio", DataType::Int),
        ("Note", DataType::Varchar),
        ("Flag", DataType::Boolean),
        ("Weight", DataType::Double),
        ("Code", DataType::BigInt),
        ("Channel", DataType::Varchar),
        ("Rating", DataType::Int),
    ]));
    local.create_table("Orders", orders)?;
    local.create_index("Orders", "orders_pk", "Id", IndexKind::Unique)?;
    local.create_index("Orders", "orders_day", "Day", IndexKind::NonUnique)?;
    local.create_index("Orders", "orders_cust", "CustNo", IndexKind::NonUnique)?;
    let rows = (0..FACT_ROWS as i32)
        .map(|id| {
            let nullable =
                |rng: &mut Rng, p: f64, v: Value| if rng.gen_bool(p) { Value::Null } else { v };
            let discount = Value::Double(rng.next_below(300) as f64 / 10.0);
            let note = Value::str(format!("note {}", rng.next_below(10_000)));
            let rating = Value::Int(pick_int(&mut rng, 5) + 1);
            Row::new(vec![
                Value::Int(id),
                Value::Int(pick_int(&mut rng, CUSTOMERS as u64)),
                Value::Int(pick_int(&mut rng, 5_000)),
                Value::Int(pick_int(&mut rng, DAYS as u64)),
                Value::Int(1 + pick_int(&mut rng, 100)),
                Value::Double(1.0 + rng.next_below(100_000) as f64 / 100.0),
                nullable(&mut rng, 0.3, discount),
                Value::str(STATUSES[rng.next_below(4) as usize]),
                Value::str(REGIONS[rng.next_below(5) as usize]),
                Value::Int(pick_int(&mut rng, 5)),
                nullable(&mut rng, 0.8, note),
                Value::Boolean(rng.gen_bool(0.5)),
                Value::Double(rng.next_below(10_000) as f64 / 10.0),
                Value::BigInt(rng.next_u64() as i64 >> 16),
                Value::str(CHANNELS[rng.next_below(3) as usize]),
                nullable(&mut rng, 0.1, rating),
            ])
        })
        .collect();
    local.insert_all("Orders", rows)?;

    let customers = Arc::new(Schema::of(&[
        ("CustNo", DataType::Int),
        ("Name", DataType::Varchar),
        ("Segment", DataType::Varchar),
        ("Region", DataType::Varchar),
    ]));
    local.create_table("Customers", customers)?;
    local.create_index("Customers", "customers_pk", "CustNo", IndexKind::Unique)?;
    let rows = (0..CUSTOMERS)
        .map(|c| {
            Row::new(vec![
                Value::Int(c),
                Value::str(format!("customer {c}")),
                Value::str(SEGMENTS[rng.next_below(8) as usize]),
                Value::str(REGIONS[rng.next_below(5) as usize]),
            ])
        })
        .collect();
    local.insert_all("Customers", rows)?;

    // The foreign table: the purchasing system's suppliers, served by a
    // separate relstore database through the SQL/MED wrapper.
    let suppliers = scan_all(&server.scenario().registry, "purchasing", "Suppliers")?;
    let remote = Database::new("erp");
    remote.create_table(
        "Suppliers",
        Arc::new(Schema::of(&[
            ("SupplierNo", DataType::Int),
            ("Name", DataType::Varchar),
            ("Relia", DataType::Int),
        ])),
    )?;
    remote.create_index("Suppliers", "erp_pk", "SupplierNo", IndexKind::Unique)?;
    remote.insert_all("Suppliers", suppliers.into_rows())?;
    server.fdbs().catalog().register_foreign_table(
        "ErpSuppliers",
        Arc::new(TimedForeign(RelstoreServer::new("erp", Arc::new(remote)))),
        "Suppliers",
    )?;
    server.fdbs().analyze()?;
    Ok(())
}

/// A parameterized `sql_mix` input with its solo reference. Only the
/// first input of a statement needs warming: the plan cache keys on the
/// statement text, so the others find its plan.
fn sql_input(
    server: &IntegrationServer,
    class: &'static str,
    sql: &str,
    params: &[(&str, i32)],
    calls: Vec<FnCall>,
    scans: Vec<Scan>,
) -> FedResult<Input> {
    let mut request = Request::sql(sql);
    for (name, v) in params {
        request = request.bind(*name, Value::Int(*v));
    }
    let cold = server.fdbs().cached_plan_count();
    let mut reference = Reference::of(&server.execute(&request)?);
    if server.fdbs().cached_plan_count() != cold {
        reference = Reference::of(&server.execute(&request)?);
    }
    Ok(Input {
        class,
        request,
        reference,
        adhoc: None,
        fdbs_sql: sql.to_string(),
        fdbs_params: params
            .iter()
            .map(|(n, v)| (n.to_string(), Value::Int(*v)))
            .collect(),
        calls,
        scans,
    })
}

/// Literals at or above this are left to the requests of a run; the
/// references of set-up use smaller ones.
pub const RUN_TAGS: u64 = 1_000_000;

/// The `adhoc` form of a parameterized input: the same shape with its
/// literals inlined and an always-true `O.Id > -<tag>` conjunct whose
/// literal is unique per request. The reference is a solo cold execution
/// (parse + plan + run) of the text with the input's own tag `reference_tag`
/// (below [`RUN_TAGS`]), so that no two references share a text.
fn adhoc_input(server: &IntegrationServer, base: &Input, reference_tag: u64) -> FedResult<Input> {
    let v = |name: &str| {
        base.fdbs_params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.to_string())
            .expect("parameter bound")
    };
    let (before, after) = match base.class {
        "point" => (
            format!(
                "SELECT O.* FROM Orders AS O WHERE O.Id = {} AND O.Id > -",
                v("pk")
            ),
            String::new(),
        ),
        "range" => (
            format!(
                "SELECT O.Id, O.Qty, O.Price FROM Orders AS O \
                 WHERE O.CustNo = {} AND O.Day >= {} AND O.Day < {} AND O.Id > -",
                v("pc"),
                v("plo"),
                v("phi")
            ),
            " ORDER BY O.Id".to_string(),
        ),
        "join_agg" => (
            format!(
                "SELECT C.Segment, COUNT(*) AS N, SUM(O.Qty) AS Q \
                 FROM Orders AS O, Customers AS C \
                 WHERE O.CustNo = C.CustNo AND O.Day = {} AND O.Id > -",
                v("pd")
            ),
            " GROUP BY C.Segment ORDER BY Q DESC, C.Segment LIMIT 5".to_string(),
        ),
        other => return Err(FedError::catalog(format!("no adhoc form of {other}"))),
    };
    let text = format!("{before}{reference_tag}{after}");
    let reference = Reference::of(&server.execute(&Request::sql(text.clone()))?);
    Ok(Input {
        class: "adhoc",
        request: Request::sql(text.clone()),
        reference,
        adhoc: Some((before, after)),
        fdbs_sql: text,
        fdbs_params: Vec::new(),
        calls: Vec::new(),
        scans: base.scans.clone(),
    })
}

/// `sql_mix` inputs: distinct inputs per class.
const POINTS: usize = 256;
const RANGES: usize = 128;
const JOINS: usize = 64;
const FED_JOINS: usize = 32;
const ADHOC_BASES: usize = 128;

pub fn sql_mix(server: &IntegrationServer, seed: u64, clients: usize) -> FedResult<Mix> {
    load_federation(server, seed)?;
    let mut rng = Rng::seed_from_u64(seed ^ 0x50_4C);
    let mut inputs = Vec::new();
    for _ in 0..POINTS {
        let key = pick_int(&mut rng, FACT_ROWS as u64);
        let scan = Scan {
            table: "Orders",
            predicate: Predicate::eq(O_ID, key),
            projection: None,
        };
        inputs.push(sql_input(
            server,
            "point",
            POINT_SQL,
            &[("pk", key)],
            vec![],
            vec![scan],
        )?);
    }
    for _ in 0..RANGES {
        let customer = pick_int(&mut rng, CUSTOMERS as u64);
        let lo = pick_int(&mut rng, (DAYS - RANGE_DAYS) as u64);
        let range = Predicate::cmp(O_DAY, CmpOp::GtEq, lo).and(Predicate::cmp(
            O_DAY,
            CmpOp::Lt,
            lo + RANGE_DAYS,
        ));
        let scan = Scan {
            table: "Orders",
            predicate: Predicate::eq(O_CUST, customer).and(range),
            projection: Some(vec![O_ID, O_QTY, O_PRICE]),
        };
        let params = [("pc", customer), ("plo", lo), ("phi", lo + RANGE_DAYS)];
        inputs.push(sql_input(
            server,
            "range",
            RANGE_SQL,
            &params,
            vec![],
            vec![scan],
        )?);
    }
    for _ in 0..JOINS {
        let day = pick_int(&mut rng, DAYS as u64);
        let scans = vec![
            Scan {
                table: "Orders",
                predicate: Predicate::eq(O_DAY, day),
                projection: Some(vec![O_CUST, O_QTY]),
            },
            Scan {
                table: "Customers",
                predicate: Predicate::True,
                projection: Some(vec![0, 2]),
            },
        ];
        inputs.push(sql_input(
            server,
            "join_agg",
            JOIN_AGG_SQL,
            &[("pd", day)],
            vec![],
            scans,
        )?);
    }
    let suppliers = scan_all(&server.scenario().registry, "purchasing", "Suppliers")?;
    let mut by_no: Vec<(i32, Value)> = column(&suppliers, "SupplierNo")
        .into_iter()
        .zip(column(&suppliers, "Name"))
        .filter_map(|(no, name)| Some((no.as_i64()? as i32, name)))
        .collect();
    by_no.sort_by_key(|(no, _)| *no);
    let max_no = by_no
        .iter()
        .map(|(no, _)| *no)
        .filter(|no| *no < 1_000)
        .max()
        .unwrap_or(1);
    for _ in 0..FED_JOINS {
        let lo = 1 + pick_int(&mut rng, (max_no - FED_SUPPLIERS) as u64);
        let mut calls = Vec::new();
        for (_, name) in by_no
            .iter()
            .filter(|(no, _)| (lo..lo + FED_SUPPLIERS).contains(no))
        {
            let args = vec![name.clone()];
            let (locals, activities) = record_locals(server, "GetSuppQual", &args)?;
            calls.push(FnCall {
                name: "GetSuppQual".to_string(),
                args,
                locals,
                activities,
            });
        }
        let params = [("plo", lo), ("phi", lo + FED_SUPPLIERS)];
        inputs.push(sql_input(
            server,
            "fed_join",
            FED_JOIN_SQL,
            &params,
            calls,
            vec![],
        )?);
    }
    let bases: Vec<usize> = (0..inputs.len())
        .filter(|&i| matches!(inputs[i].class, "point" | "range" | "join_agg"))
        .collect();
    for reference_tag in 1..=ADHOC_BASES as u64 {
        let base = bases[rng.next_below(bases.len() as u64) as usize];
        let input = adhoc_input(server, &inputs[base], reference_tag)?;
        inputs.push(input);
    }
    let weights = [
        ("point", 30),
        ("range", 20),
        ("join_agg", 20),
        ("fed_join", 10),
        ("adhoc", 20),
    ];
    let sequences = sequences(&mut rng, &inputs, &weights, clients);
    Ok(Mix { inputs, sequences })
}
