//! FDL — a textual *flow definition language* for process models, in the
//! spirit of MQSeries Workflow's buildtime format. [`export_fdl`] renders a
//! [`ProcessModel`] to text and [`parse_fdl`] reads it back;
//! `parse(export(p)) == p` holds for every expressible model and is
//! property-tested against all of the paper's compiled processes.
//!
//! ```text
//! PROCESS GetSuppQual
//! INPUT SupplierName VARCHAR
//! PROGRAM GetSupplierNo CALLS GetSupplierNo
//!   IN SupplierName = INPUT SupplierName
//!   OUT SupplierNo INT
//! PROGRAM GetQuality CALLS GetQuality
//!   IN SupplierNo = OUTPUT GetSupplierNo.SupplierNo
//!   OUT Qual INT
//! CONNECT GetSupplierNo -> GetQuality
//! OUTPUT TABLE GetQuality
//! END
//! ```

use fedwf_types::{DataType, FedError, FedResult, Ident, Value, MAX_EXPR_DEPTH};

use crate::condition::{CondOp, Condition};
use crate::container::ContainerSchema;
use crate::model::{
    Activity, ActivityKind, ControlConnector, DataBinding, DataSource, HelperOp, LoopNode, Node,
    OutputSource, ProcessModel, RetryPolicy,
};

// ===========================================================================
// Export
// ===========================================================================

/// Render a process model as FDL text.
pub fn export_fdl(model: &ProcessModel) -> String {
    let mut out = String::new();
    export_into(model, &mut out, 0);
    out
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn export_into(model: &ProcessModel, out: &mut String, depth: usize) {
    let i0 = indent(depth);
    let i1 = indent(depth + 1);
    out.push_str(&format!("{i0}PROCESS {}\n", model.name));
    if !model.input.is_empty() {
        out.push_str(&format!("{i0}INPUT {}\n", schema_list(&model.input)));
    }
    for node in &model.nodes {
        match node {
            Node::Activity(a) => match &a.kind {
                ActivityKind::Program { function, inputs } => {
                    out.push_str(&format!("{i0}PROGRAM {} CALLS {function}\n", a.name));
                    for b in inputs {
                        out.push_str(&format!(
                            "{i1}IN {} = {}\n",
                            b.target,
                            source_text(&b.source)
                        ));
                    }
                    out.push_str(&format!("{i1}OUT {}\n", schema_list(&a.output)));
                    if a.retry.max_attempts > 1 {
                        out.push_str(&format!("{i1}RETRY {}\n", a.retry.max_attempts));
                    }
                }
                ActivityKind::Helper(HelperOp::Const { value, .. }) => {
                    out.push_str(&format!("{i0}CONST {} = {}\n", a.name, literal_text(value)));
                }
                ActivityKind::Helper(HelperOp::Cast { input, to, .. }) => {
                    out.push_str(&format!(
                        "{i0}CAST {} = {} AS {}\n",
                        a.name,
                        source_text(input),
                        to.sql_name()
                    ));
                }
                ActivityKind::Helper(HelperOp::Add { left, right, .. }) => {
                    out.push_str(&format!(
                        "{i0}ADD {} = {} + {}\n",
                        a.name,
                        source_text(left),
                        source_text(right)
                    ));
                }
                ActivityKind::Helper(HelperOp::Join {
                    left,
                    right,
                    left_on,
                    right_on,
                    project,
                }) => {
                    let projections: Vec<String> = project
                        .iter()
                        .map(|(from_left, src, name)| {
                            format!("{}.{src} AS {name}", if *from_left { left } else { right })
                        })
                        .collect();
                    out.push_str(&format!(
                        "{i0}JOIN {} = {left}.{left_on} WITH {right}.{right_on} PROJECT {}\n",
                        a.name,
                        projections.join(", ")
                    ));
                }
            },
            Node::Loop(l) => {
                out.push_str(&format!(
                    "{i0}LOOP {} VARS {}\n",
                    l.name,
                    schema_list(&l.vars)
                ));
                for b in &l.init {
                    out.push_str(&format!(
                        "{i1}INIT {} = {}\n",
                        b.target,
                        source_text(&b.source)
                    ));
                }
                if let Some((var, step)) = &l.counter {
                    out.push_str(&format!("{i1}COUNTER {var} STEP {step}\n"));
                }
                for (var, from) in &l.update {
                    out.push_str(&format!("{i1}UPDATE {var} = {from}\n"));
                }
                out.push_str(&format!("{i1}UNTIL {}\n", condition_text(&l.until)));
                if l.accumulate {
                    out.push_str(&format!("{i1}ACCUMULATE\n"));
                }
                out.push_str(&format!("{i1}MAXITER {}\n", l.max_iterations));
                out.push_str(&format!("{i1}BODY\n"));
                export_into(&l.body, out, depth + 2);
                out.push_str(&format!("{i1}ENDBODY\n"));
            }
        }
    }
    for c in &model.connectors {
        if c.condition == Condition::True {
            out.push_str(&format!("{i0}CONNECT {} -> {}\n", c.from, c.to));
        } else {
            out.push_str(&format!(
                "{i0}CONNECT {} -> {} WHEN {}\n",
                c.from,
                c.to,
                condition_text(&c.condition)
            ));
        }
    }
    match &model.output {
        OutputSource::NodeTable(name) => {
            out.push_str(&format!("{i0}OUTPUT TABLE {name}\n"));
        }
        OutputSource::Row(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(name, dt, source)| {
                    format!("{name} {} = {}", dt.sql_name(), source_text(source))
                })
                .collect();
            out.push_str(&format!("{i0}OUTPUT ROW {}\n", parts.join(", ")));
        }
    }
    out.push_str(&format!("{i0}END\n"));
}

fn schema_list(schema: &ContainerSchema) -> String {
    schema
        .fields()
        .iter()
        .map(|(n, t)| format!("{n} {}", t.sql_name()))
        .collect::<Vec<_>>()
        .join(", ")
}

fn source_text(source: &DataSource) -> String {
    match source {
        DataSource::ProcessInput(f) => format!("INPUT {f}"),
        DataSource::ActivityOutput { activity, field } => format!("OUTPUT {activity}.{field}"),
        DataSource::Constant(v) => format!("CONST {}", literal_text(v)),
    }
}

fn literal_text(v: &Value) -> String {
    match v {
        Value::Varchar(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.render(),
    }
}

fn cond_op_text(op: CondOp) -> &'static str {
    match op {
        CondOp::Eq => "=",
        CondOp::NotEq => "<>",
        CondOp::Lt => "<",
        CondOp::LtEq => "<=",
        CondOp::Gt => ">",
        CondOp::GtEq => ">=",
    }
}

fn condition_text(c: &Condition) -> String {
    match c {
        Condition::True => "TRUE".to_string(),
        Condition::Cmp { field, op, value } => {
            format!("{field} {} {}", cond_op_text(*op), literal_text(value))
        }
        Condition::CmpField { left, op, right } => {
            format!("{left} {} {right}", cond_op_text(*op))
        }
        Condition::And(a, b) => format!("({} AND {})", condition_text(a), condition_text(b)),
        Condition::Or(a, b) => format!("({} OR {})", condition_text(a), condition_text(b)),
        Condition::Not(inner) => format!("NOT {}", condition_text(inner)),
    }
}

// ===========================================================================
// Parse
// ===========================================================================

/// Parse FDL text into a process model. The result is structurally
/// validated through the same checks the builder applies.
pub fn parse_fdl(text: &str) -> FedResult<ProcessModel> {
    let mut lines = Lines::new(text);
    let model = parse_process(&mut lines, 0)?;
    if let Some((n, line)) = lines.peek() {
        return Err(FedError::workflow(format!(
            "FDL line {n}: unexpected content after END: {line}"
        )));
    }
    crate::builder::validate(&model)?;
    Ok(model)
}

struct Lines<'a> {
    items: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Lines<'a> {
        Lines {
            items: text
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.trim()))
                .filter(|(_, l)| !l.is_empty() && !l.starts_with("--"))
                .collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.items.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let item = self.items.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        item
    }
}

fn err_at(n: usize, msg: impl std::fmt::Display) -> FedError {
    FedError::workflow(format!("FDL line {n}: {msg}"))
}

/// First word (uppercased) and the rest of a line.
fn split_keyword(line: &str) -> (String, &str) {
    match line.split_once(char::is_whitespace) {
        Some((head, rest)) => (head.to_ascii_uppercase(), rest.trim()),
        None => (line.to_ascii_uppercase(), ""),
    }
}

/// Parse one `PROCESS … END` block; `loops` counts the `LOOP` bodies it
/// sits in.
fn parse_process(lines: &mut Lines, loops: usize) -> FedResult<ProcessModel> {
    let (n, line) = lines
        .next()
        .ok_or_else(|| FedError::workflow("FDL: empty input"))?;
    let (kw, rest) = split_keyword(line);
    if kw != "PROCESS" || rest.is_empty() {
        return Err(err_at(n, "expected PROCESS <name>"));
    }
    let name = rest.to_string();
    let mut input = ContainerSchema::empty();
    let mut nodes: Vec<Node> = Vec::new();
    let mut connectors: Vec<ControlConnector> = Vec::new();
    let mut output: Option<OutputSource> = None;

    loop {
        let (n, line) = lines
            .next()
            .ok_or_else(|| FedError::workflow("FDL: missing END"))?;
        let (kw, rest) = split_keyword(line);
        match kw.as_str() {
            "END" => break,
            "INPUT" => input = parse_schema_list(n, rest)?,
            "PROGRAM" => nodes.push(parse_program(lines, n, rest)?),
            "CONST" => {
                let (id, value_text) = split_eq(n, rest)?;
                let value = parse_literal(n, value_text)?;
                let dt = value.data_type().unwrap_or(DataType::Varchar);
                nodes.push(Node::Activity(Activity {
                    name: Ident::new(id),
                    kind: ActivityKind::Helper(HelperOp::Const {
                        value,
                        output_field: Ident::new("value"),
                    }),
                    output: ContainerSchema::new(&[("value", dt)]),
                    retry: RetryPolicy::default(),
                }));
            }
            "CAST" => {
                let (id, rhs) = split_eq(n, rest)?;
                let (source_text, type_text) = rhs
                    .rsplit_once(" AS ")
                    .ok_or_else(|| err_at(n, "expected CAST <id> = <source> AS <TYPE>"))?;
                let to = parse_type(n, type_text.trim())?;
                nodes.push(Node::Activity(Activity {
                    name: Ident::new(id),
                    kind: ActivityKind::Helper(HelperOp::Cast {
                        input: parse_source(n, source_text.trim())?,
                        to,
                        output_field: Ident::new("value"),
                    }),
                    output: ContainerSchema::new(&[("value", to)]),
                    retry: RetryPolicy::default(),
                }));
            }
            "ADD" => {
                let (id, rhs) = split_eq(n, rest)?;
                let (l, r) = rhs
                    .split_once(" + ")
                    .ok_or_else(|| err_at(n, "expected ADD <id> = <source> + <source>"))?;
                nodes.push(Node::Activity(Activity {
                    name: Ident::new(id),
                    kind: ActivityKind::Helper(HelperOp::Add {
                        left: parse_source(n, l.trim())?,
                        right: parse_source(n, r.trim())?,
                        output_field: Ident::new("value"),
                    }),
                    output: ContainerSchema::new(&[("value", DataType::Int)]),
                    retry: RetryPolicy::default(),
                }));
            }
            "JOIN" => nodes.push(parse_join(n, rest, &nodes)?),
            "LOOP" => nodes.push(parse_loop(lines, n, rest, loops + 1)?),
            "CONNECT" => {
                let (spec, condition) = match rest.split_once(" WHEN ") {
                    Some((spec, cond)) => (spec, parse_condition(n, cond.trim(), 0)?),
                    None => (rest, Condition::True),
                };
                let (from, to) = spec
                    .split_once("->")
                    .ok_or_else(|| err_at(n, "expected CONNECT <from> -> <to>"))?;
                connectors.push(ControlConnector {
                    from: Ident::new(from.trim()),
                    to: Ident::new(to.trim()),
                    condition,
                });
            }
            "OUTPUT" => {
                let (mode, spec) = split_keyword(rest);
                output = Some(match mode.as_str() {
                    "TABLE" => OutputSource::NodeTable(Ident::new(spec)),
                    "ROW" => {
                        let mut fields = Vec::new();
                        for part in split_top_level_commas(spec) {
                            let (decl, source_text) = split_eq(n, &part)?;
                            let (fname, ftype) = decl
                                .rsplit_once(' ')
                                .ok_or_else(|| err_at(n, "expected <name> <TYPE> = <source>"))?;
                            fields.push((
                                Ident::new(fname.trim()),
                                parse_type(n, ftype.trim())?,
                                parse_source(n, source_text.trim())?,
                            ));
                        }
                        OutputSource::Row(fields)
                    }
                    other => return Err(err_at(n, format!("unknown OUTPUT mode {other}"))),
                });
            }
            other => return Err(err_at(n, format!("unknown FDL keyword {other}"))),
        }
    }

    Ok(ProcessModel {
        name,
        input,
        nodes,
        connectors,
        output: output.ok_or_else(|| FedError::workflow("FDL: process has no OUTPUT"))?,
    })
}

fn parse_program(lines: &mut Lines, n: usize, rest: &str) -> FedResult<Node> {
    let (id, function) = rest
        .split_once(" CALLS ")
        .ok_or_else(|| err_at(n, "expected PROGRAM <id> CALLS <function>"))?;
    let mut inputs = Vec::new();
    let mut output = None;
    let mut retry = RetryPolicy::default();
    while let Some((ln, line)) = lines.peek() {
        let (kw, body) = split_keyword(line);
        match kw.as_str() {
            "IN" => {
                lines.next();
                let (target, source_text) = split_eq(ln, body)?;
                inputs.push(DataBinding {
                    target: Ident::new(target),
                    source: parse_source(ln, source_text.trim())?,
                });
            }
            "OUT" => {
                lines.next();
                output = Some(parse_schema_list(ln, body)?);
            }
            "RETRY" => {
                lines.next();
                let attempts: u32 = body
                    .trim()
                    .parse()
                    .map_err(|e| err_at(ln, format!("bad RETRY count: {e}")))?;
                retry = RetryPolicy {
                    max_attempts: attempts,
                };
            }
            _ => break,
        }
    }
    Ok(Node::Activity(Activity {
        name: Ident::new(id.trim()),
        kind: ActivityKind::Program {
            function: function.trim().to_string(),
            inputs,
        },
        output: output.ok_or_else(|| err_at(n, "PROGRAM without OUT line"))?,
        retry,
    }))
}

fn parse_join(n: usize, rest: &str, existing: &[Node]) -> FedResult<Node> {
    // JOIN <id> = <left>.<on> WITH <right>.<on> PROJECT a.b AS c, ...
    let (id, rhs) = split_eq(n, rest)?;
    let (pair, projection) = rhs
        .split_once(" PROJECT ")
        .ok_or_else(|| err_at(n, "expected JOIN ... PROJECT ..."))?;
    let (l, r) = pair
        .split_once(" WITH ")
        .ok_or_else(|| err_at(n, "expected <left>.<col> WITH <right>.<col>"))?;
    let (left, left_on) = split_dotted(n, l.trim())?;
    let (right, right_on) = split_dotted(n, r.trim())?;
    let mut project = Vec::new();
    for part in split_top_level_commas(projection) {
        let (src, out_name) = part
            .split_once(" AS ")
            .ok_or_else(|| err_at(n, "expected <node>.<col> AS <name> in PROJECT"))?;
        let (node, col) = split_dotted(n, src.trim())?;
        let from_left = if node == left {
            true
        } else if node == right {
            false
        } else {
            return Err(err_at(
                n,
                format!("PROJECT references {node}, expected {left} or {right}"),
            ));
        };
        project.push((from_left, col, Ident::new(out_name.trim())));
    }
    // Resolve the output schema from the already-parsed sides.
    let schema_of = |name: &Ident| -> FedResult<ContainerSchema> {
        existing
            .iter()
            .find(|node| node.name() == name)
            .map(|node| node.output_schema())
            .ok_or_else(|| err_at(n, format!("JOIN references unknown node {name}")))
    };
    let ls = schema_of(&left)?;
    let rs = schema_of(&right)?;
    let mut fields = Vec::new();
    for (from_left, src, out_name) in &project {
        let side = if *from_left { &ls } else { &rs };
        let dt = side
            .field_type(src)
            .ok_or_else(|| err_at(n, format!("JOIN projects unknown column {src}")))?;
        fields.push((out_name.as_str().to_string(), dt));
    }
    let spec: Vec<(&str, DataType)> = fields.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    Ok(Node::Activity(Activity {
        name: Ident::new(id),
        kind: ActivityKind::Helper(HelperOp::Join {
            left,
            right,
            left_on,
            right_on,
            project,
        }),
        output: ContainerSchema::new(&spec),
        retry: RetryPolicy::default(),
    }))
}

/// Parse a `LOOP` whose body is the `loops`-th nested one; past
/// [`MAX_EXPR_DEPTH`] the loop is an error, so a hostile document cannot
/// recurse without bound.
fn parse_loop(lines: &mut Lines, n: usize, rest: &str, loops: usize) -> FedResult<Node> {
    if loops > MAX_EXPR_DEPTH {
        return Err(err_at(
            n,
            format!("LOOP bodies nested deeper than {MAX_EXPR_DEPTH} levels"),
        ));
    }
    let (id, vars_text) = rest
        .split_once(" VARS ")
        .ok_or_else(|| err_at(n, "expected LOOP <id> VARS <fields>"))?;
    let vars = parse_schema_list(n, vars_text)?;
    let mut init = Vec::new();
    let mut counter = None;
    let mut update = Vec::new();
    let mut until = None;
    let mut accumulate = false;
    let mut max_iterations = None;
    let body = loop {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| err_at(n, "LOOP without ENDBODY/END"))?;
        let (kw, rest) = split_keyword(line);
        match kw.as_str() {
            "INIT" => {
                let (target, source_text) = split_eq(ln, rest)?;
                init.push(DataBinding {
                    target: Ident::new(target),
                    source: parse_source(ln, source_text.trim())?,
                });
            }
            "COUNTER" => {
                let (var, step_text) = rest
                    .split_once(" STEP ")
                    .ok_or_else(|| err_at(ln, "expected COUNTER <var> STEP <n>"))?;
                let step: i64 = step_text
                    .trim()
                    .parse()
                    .map_err(|e| err_at(ln, format!("bad STEP: {e}")))?;
                counter = Some((Ident::new(var.trim()), step));
            }
            "UPDATE" => {
                let (var, from) = split_eq(ln, rest)?;
                update.push((Ident::new(var), Ident::new(from.trim())));
            }
            "UNTIL" => until = Some(parse_condition(ln, rest, 0)?),
            "ACCUMULATE" => accumulate = true,
            "MAXITER" => {
                max_iterations = Some(
                    rest.trim()
                        .parse()
                        .map_err(|e| err_at(ln, format!("bad MAXITER: {e}")))?,
                )
            }
            "BODY" => {
                let parsed = parse_process(lines, loops)?;
                let (ln2, line2) = lines
                    .next()
                    .ok_or_else(|| err_at(ln, "BODY without ENDBODY"))?;
                if split_keyword(line2).0 != "ENDBODY" {
                    return Err(err_at(ln2, "expected ENDBODY"));
                }
                break parsed;
            }
            other => return Err(err_at(ln, format!("unknown LOOP keyword {other}"))),
        }
    };
    Ok(Node::Loop(LoopNode {
        name: Ident::new(id.trim()),
        vars,
        init,
        body,
        update,
        counter,
        until: until.ok_or_else(|| err_at(n, "LOOP without UNTIL"))?,
        accumulate,
        max_iterations: max_iterations.ok_or_else(|| err_at(n, "LOOP without MAXITER"))?,
    }))
}

// ---- small parsers --------------------------------------------------------

fn split_eq(n: usize, text: &str) -> FedResult<(&str, &str)> {
    text.split_once('=')
        .map(|(a, b)| (a.trim(), b.trim()))
        .ok_or_else(|| err_at(n, "expected <lhs> = <rhs>"))
}

fn split_dotted(n: usize, text: &str) -> FedResult<(Ident, Ident)> {
    text.split_once('.')
        .map(|(a, b)| (Ident::new(a.trim()), Ident::new(b.trim())))
        .ok_or_else(|| err_at(n, format!("expected <node>.<column>, got {text}")))
}

/// Split on commas that are not inside quotes.
fn split_top_level_commas(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for ch in text.chars() {
        match ch {
            '\'' => {
                in_string = !in_string;
                current.push(ch);
            }
            ',' if !in_string => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

fn parse_schema_list(n: usize, text: &str) -> FedResult<ContainerSchema> {
    let mut fields = Vec::new();
    for part in split_top_level_commas(text) {
        let (name, ty) = part
            .rsplit_once(' ')
            .ok_or_else(|| err_at(n, format!("expected <name> <TYPE>, got {part}")))?;
        fields.push((name.trim().to_string(), parse_type(n, ty.trim())?));
    }
    let spec: Vec<(&str, DataType)> = fields.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    Ok(ContainerSchema::new(&spec))
}

fn parse_type(n: usize, text: &str) -> FedResult<DataType> {
    DataType::parse(text).ok_or_else(|| err_at(n, format!("unknown type {text}")))
}

fn parse_source(n: usize, text: &str) -> FedResult<DataSource> {
    let (kw, rest) = split_keyword(text);
    match kw.as_str() {
        "INPUT" => Ok(DataSource::ProcessInput(Ident::new(rest))),
        "OUTPUT" => {
            let (node, field) = split_dotted(n, rest)?;
            Ok(DataSource::ActivityOutput {
                activity: node,
                field,
            })
        }
        "CONST" => Ok(DataSource::Constant(parse_literal(n, rest)?)),
        other => Err(err_at(
            n,
            format!("expected INPUT/OUTPUT/CONST source, got {other}"),
        )),
    }
}

fn parse_literal(n: usize, text: &str) -> FedResult<Value> {
    let t = text.trim();
    if t.eq_ignore_ascii_case("NULL") {
        return Ok(Value::Null);
    }
    if t.eq_ignore_ascii_case("TRUE") {
        return Ok(Value::Boolean(true));
    }
    if t.eq_ignore_ascii_case("FALSE") {
        return Ok(Value::Boolean(false));
    }
    if t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2 {
        return Ok(Value::Varchar(t[1..t.len() - 1].replace("''", "'").into()));
    }
    if let Ok(v) = t.parse::<i32>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = t.parse::<i64>() {
        return Ok(Value::BigInt(v));
    }
    if let Ok(v) = t.parse::<f64>() {
        return Ok(Value::Double(v));
    }
    Err(err_at(n, format!("cannot parse literal {t}")))
}

/// Conditions: `TRUE`, `<field> <op> <literal-or-field>`, `NOT <cond>`,
/// and parenthesized `(<a> AND <b>)` / `(<a> OR <b>)` — exactly the shape
/// the exporter emits. `depth` counts the `NOT`s and parentheses around
/// `text`; past [`MAX_EXPR_DEPTH`] the condition is an error.
fn parse_condition(n: usize, text: &str, depth: usize) -> FedResult<Condition> {
    if depth > MAX_EXPR_DEPTH {
        return Err(err_at(
            n,
            format!("condition nested deeper than {MAX_EXPR_DEPTH} levels"),
        ));
    }
    let t = text.trim();
    if t.eq_ignore_ascii_case("TRUE") {
        return Ok(Condition::True);
    }
    if let Some(rest) = strip_keyword(t, "NOT") {
        return Ok(Condition::Not(Box::new(parse_condition(
            n,
            rest,
            depth + 1,
        )?)));
    }
    if t.starts_with('(') && t.ends_with(')') {
        let inner = &t[1..t.len() - 1];
        // Find the top-level AND/OR.
        if let Some((a, b, is_and)) = split_bool(inner) {
            let left = Box::new(parse_condition(n, a, depth + 1)?);
            let right = Box::new(parse_condition(n, b, depth + 1)?);
            return Ok(if is_and {
                Condition::And(left, right)
            } else {
                Condition::Or(left, right)
            });
        }
        return parse_condition(n, inner, depth + 1);
    }
    // Comparison: find the operator (longest first).
    for op_text in ["<=", ">=", "<>", "=", "<", ">"] {
        if let Some((l, r)) = t.split_once(op_text) {
            let op = match op_text {
                "=" => CondOp::Eq,
                "<>" => CondOp::NotEq,
                "<" => CondOp::Lt,
                "<=" => CondOp::LtEq,
                ">" => CondOp::Gt,
                ">=" => CondOp::GtEq,
                _ => unreachable!(),
            };
            let field = Ident::new(l.trim());
            let rhs = r.trim();
            // An identifier on the right makes it a field-field compare.
            let is_ident = rhs
                .chars()
                .next()
                .map(|c| c.is_ascii_alphabetic() || c == '_')
                .unwrap_or(false)
                && !rhs.eq_ignore_ascii_case("TRUE")
                && !rhs.eq_ignore_ascii_case("FALSE")
                && !rhs.eq_ignore_ascii_case("NULL");
            return Ok(if is_ident {
                Condition::CmpField {
                    left: field,
                    op,
                    right: Ident::new(rhs),
                }
            } else {
                Condition::Cmp {
                    field,
                    op,
                    value: parse_literal(n, rhs)?,
                }
            });
        }
    }
    Err(err_at(n, format!("cannot parse condition {t}")))
}

fn strip_keyword<'a>(text: &'a str, kw: &str) -> Option<&'a str> {
    let upper = text.to_ascii_uppercase();
    if upper.starts_with(kw)
        && text[kw.len()..]
            .chars()
            .next()
            .map(char::is_whitespace)
            .unwrap_or(false)
    {
        Some(text[kw.len()..].trim_start())
    } else {
        None
    }
}

/// Split `a AND b` / `a OR b` at the top parenthesis level; returns
/// `(left, right, is_and)`.
fn split_bool(text: &str) -> Option<(&str, &str, bool)> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let upper = text.to_ascii_uppercase();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'\'' => in_string = !in_string,
            b'(' if !in_string => depth += 1,
            b')' if !in_string => depth = depth.saturating_sub(1),
            _ if depth == 0 && !in_string => {
                if upper[i..].starts_with(" AND ") {
                    return Some((&text[..i], &text[i + 5..], true));
                }
                if upper[i..].starts_with(" OR ") {
                    return Some((&text[..i], &text[i + 4..], false));
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;

    fn linear() -> ProcessModel {
        ProcessBuilder::new("GetSuppQual")
            .input(&[("SupplierName", DataType::Varchar)])
            .program(
                "GetSupplierNo",
                "GetSupplierNo",
                vec![DataBinding::new(
                    "SupplierName",
                    DataSource::input("SupplierName"),
                )],
                &[("SupplierNo", DataType::Int)],
            )
            .with_retry(3)
            .program(
                "GetQuality",
                "GetQuality",
                vec![DataBinding::new(
                    "SupplierNo",
                    DataSource::output("GetSupplierNo", "SupplierNo"),
                )],
                &[("Qual", DataType::Int)],
            )
            .sequence(&["GetSupplierNo", "GetQuality"])
            .output_table("GetQuality")
            .build()
            .unwrap()
    }

    #[test]
    fn export_emits_expected_shape() {
        let text = export_fdl(&linear());
        assert!(text.contains("PROCESS GetSuppQual"));
        assert!(text.contains("PROGRAM GetSupplierNo CALLS GetSupplierNo"));
        assert!(text.contains("IN SupplierName = INPUT SupplierName"));
        assert!(text.contains("RETRY 3"));
        assert!(text.contains("CONNECT GetSupplierNo -> GetQuality"));
        assert!(text.contains("OUTPUT TABLE GetQuality"));
        assert!(text.trim_end().ends_with("END"));
    }

    #[test]
    fn linear_round_trip() {
        let original = linear();
        let reparsed = parse_fdl(&export_fdl(&original)).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn helpers_round_trip() {
        let model = ProcessBuilder::new("helpers")
            .input(&[("x", DataType::Int)])
            .constant("c", "hello'world")
            .cast("w", DataSource::input("x"), DataType::BigInt)
            .add("a", DataSource::input("x"), DataSource::constant(1))
            .program(
                "p",
                "F",
                vec![],
                &[("u", DataType::Int), ("v", DataType::Int)],
            )
            .program(
                "q",
                "G",
                vec![],
                &[("u", DataType::Int), ("w2", DataType::Varchar)],
            )
            .join(
                "j",
                "p",
                "q",
                "u",
                "u",
                &[(true, "v", "v"), (false, "w2", "w2")],
            )
            .connector("p", "j")
            .connector("q", "j")
            .output_table("j")
            .build()
            .unwrap();
        let text = export_fdl(&model);
        let reparsed = parse_fdl(&text).unwrap();
        assert_eq!(model, reparsed, "FDL:\n{text}");
    }

    #[test]
    fn conditions_round_trip() {
        let model = ProcessBuilder::new("cond")
            .input(&[])
            .constant("a", 5)
            .constant("b", 6)
            .connector_if(
                "a",
                "b",
                Condition::cmp("value", CondOp::GtEq, 3)
                    .and(Condition::eq("value", 5).negate())
                    .or(Condition::cmp("value", CondOp::Lt, Value::str("x"))),
            )
            .output_table("b")
            .build()
            .unwrap();
        let text = export_fdl(&model);
        let reparsed = parse_fdl(&text).unwrap();
        assert_eq!(model, reparsed, "FDL:\n{text}");
    }

    #[test]
    fn loop_round_trip() {
        let body = ProcessBuilder::new("body")
            .input(&[("i", DataType::Int), ("limit", DataType::Int)])
            .program(
                "R",
                "Render",
                vec![DataBinding::new("i", DataSource::input("i"))],
                &[("Text", DataType::Varchar)],
            )
            .output_table("R")
            .build()
            .unwrap();
        let model = ProcessBuilder::new("loopy")
            .input(&[("n", DataType::Int)])
            .loop_node(LoopNode {
                name: Ident::new("L"),
                vars: ContainerSchema::new(&[("i", DataType::Int), ("limit", DataType::Int)]),
                init: vec![
                    DataBinding::new("i", DataSource::constant(1)),
                    DataBinding::new("limit", DataSource::input("n")),
                ],
                body,
                update: vec![],
                counter: Some((Ident::new("i"), 1)),
                until: Condition::cmp_fields("i", CondOp::Gt, "limit"),
                accumulate: true,
                max_iterations: 500,
            })
            .output_table("L")
            .build()
            .unwrap();
        let text = export_fdl(&model);
        let reparsed = parse_fdl(&text).unwrap();
        assert_eq!(model, reparsed, "FDL:\n{text}");
    }

    #[test]
    fn output_row_round_trip() {
        let model = ProcessBuilder::new("rowout")
            .input(&[("x", DataType::Int)])
            .constant("c", 9)
            .output_row(&[
                ("a", DataType::Int, DataSource::output("c", "value")),
                (
                    "b",
                    DataType::Varchar,
                    DataSource::Constant(Value::str("s, with comma")),
                ),
                ("d", DataType::Int, DataSource::input("x")),
            ])
            .build()
            .unwrap();
        let reparsed = parse_fdl(&export_fdl(&model)).unwrap();
        assert_eq!(model, reparsed);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_fdl("PROCESS p\nBOGUS line\nEND").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_fdl("PROCESS p\nOUTPUT TABLE missing\nEND\ntrailing").unwrap_err();
        assert!(err.to_string().contains("line 4") || err.to_string().contains("unknown"));
    }

    #[test]
    fn parsed_model_is_validated() {
        // The connector references an unknown node: builder validation
        // must reject it.
        let text = "PROCESS p\nCONST a = 1\nCONNECT a -> ghost\nOUTPUT TABLE a\nEND\n";
        let err = parse_fdl(text).unwrap_err();
        assert!(err.to_string().contains("ghost") || err.to_string().contains("unknown"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "-- a comment\nPROCESS p\n\nCONST a = 1\n-- another\nOUTPUT TABLE a\nEND\n";
        let model = parse_fdl(text).unwrap();
        assert_eq!(model.name, "p");
        assert_eq!(model.nodes.len(), 1);
    }

    /// A transition condition nested `depth` levels deep in one shape.
    fn nested_condition(shape: &str, depth: usize) -> String {
        match shape {
            "not" => format!("{}value = 1", "NOT ".repeat(depth)),
            "parentheses" => format!("{}value = 1{}", "(".repeat(depth), ")".repeat(depth)),
            "and" => format!(
                "{}value = 1{}",
                "(value = 1 AND ".repeat(depth),
                ")".repeat(depth)
            ),
            other => unreachable!("unknown shape {other}"),
        }
    }

    fn process_with_condition(condition: &str) -> String {
        format!(
            "PROCESS p\nCONST a = 1\nCONST b = 2\nCONNECT a -> b WHEN {condition}\nOUTPUT TABLE b\nEND\n"
        )
    }

    #[test]
    fn conditions_nest_up_to_the_bound_and_run() {
        for shape in ["not", "parentheses", "and"] {
            let text = process_with_condition(&nested_condition(shape, MAX_EXPR_DEPTH));
            let model = parse_fdl(&text).unwrap_or_else(|e| panic!("{shape}: {e}"));
            let engine = crate::Engine::new(fedwf_sim::CostModel::zero());
            let mut meter = fedwf_sim::Meter::new();
            let instance = engine
                .run(
                    &model,
                    &model.input.instantiate(),
                    &crate::EchoExecutor::new(),
                    &mut meter,
                )
                .unwrap_or_else(|e| panic!("{shape}: {e}"));
            // An even number of NOTs and a chain of true comparisons hold.
            assert_eq!(
                instance.output.value(0, "value"),
                Some(&Value::Int(2)),
                "{shape}"
            );
        }
    }

    #[test]
    fn conditions_nested_past_the_bound_are_workflow_errors() {
        for shape in ["not", "parentheses", "and"] {
            for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
                let text = process_with_condition(&nested_condition(shape, depth));
                let err = parse_fdl(&text).unwrap_err();
                assert_eq!(
                    err.layer,
                    fedwf_types::ErrorLayer::Workflow,
                    "{shape}: {err}"
                );
                assert!(
                    err.message
                        .contains("FDL line 4: condition nested deeper than 64 levels"),
                    "{shape} at {depth}: {err}"
                );
            }
        }
    }

    /// A process whose only node is a loop, whose body is a process whose
    /// only node is a loop, and so on `depth` times; the innermost body
    /// outputs a constant. Every loop runs its body once.
    fn nested_loops(depth: usize) -> String {
        let mut text = String::new();
        for k in 0..depth {
            if k > 0 {
                text.push_str("INPUT i INT\n");
            }
            text.push_str(&format!(
                "LOOP L{k} VARS i INT\nINIT i = CONST 1\nCOUNTER i STEP 1\nUNTIL i > 1\nMAXITER 1\nBODY\nPROCESS p{}\n",
                k + 1
            ));
        }
        let mut out = format!("PROCESS p0\n{text}");
        if depth > 0 {
            out.push_str("INPUT i INT\n");
        }
        out.push_str("CONST c = 7\nOUTPUT TABLE c\nEND\n");
        for k in (0..depth).rev() {
            out.push_str(&format!("ENDBODY\nOUTPUT TABLE L{k}\nEND\n"));
        }
        out
    }

    /// Run `f` on a thread with a 2 MiB stack, the size of a spawned
    /// thread's default stack.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn loops_nest_up_to_the_bound_and_run() {
        on_small_stack(|| {
            let text = nested_loops(MAX_EXPR_DEPTH);
            let model = parse_fdl(&text).unwrap();
            assert_eq!(parse_fdl(&export_fdl(&model)).unwrap(), model);
            let engine = crate::Engine::new(fedwf_sim::CostModel::zero());
            let mut meter = fedwf_sim::Meter::new();
            let instance = engine
                .run(
                    &model,
                    &model.input.instantiate(),
                    &crate::EchoExecutor::new(),
                    &mut meter,
                )
                .unwrap();
            // The outermost loop ran its body once and counted i to 2.
            assert_eq!(instance.output.value(0, "i"), Some(&Value::Int(2)));
        });
    }

    #[test]
    fn loops_nested_past_the_bound_are_workflow_errors() {
        on_small_stack(|| {
            for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
                let err = parse_fdl(&nested_loops(depth)).unwrap_err();
                assert_eq!(err.layer, fedwf_types::ErrorLayer::Workflow, "{err}");
                // The 65th LOOP line: `PROCESS p0`, then eight lines per
                // level from `LOOP L0` to the next `LOOP`.
                let line = 2 + 8 * MAX_EXPR_DEPTH;
                assert!(
                    err.message.contains(&format!(
                        "FDL line {line}: LOOP bodies nested deeper than 64 levels"
                    )),
                    "{depth}: {err}"
                );
            }
        });
    }
}
