//! Hostile nesting over a real socket. The SQL parser, binder and
//! evaluator recurse over an expression tree on the thread that serves
//! the connection, and no `catch_unwind` can contain a stack overflow, so
//! without a bound one deeply nested statement aborts the whole server.
//! Every nesting shape up to `MAX_EXPR_DEPTH` levels parses, binds and
//! executes through the full serving stack (`TcpClient` → `NetServer` →
//! `ServerFront` → `IntegrationServer`), and one level more — or 100 000 —
//! is a `[parse]` error after which the same connection keeps serving.
//!
//! CI also runs this suite in a release build: the stack cost of one
//! nesting level differs about tenfold between debug and release.

use std::sync::Arc;

use fedwf::core::{ArchitectureKind, FrontConfig, IntegrationServer, Request, ServerFront, Submit};
use fedwf::net::{NetServer, TcpClient};
use fedwf::types::{ErrorLayer, Value, MAX_EXPR_DEPTH};

const SHAPES: [&str; 9] = [
    "parentheses",
    "not",
    "minus",
    "plus",
    "abs",
    "cast",
    "add_chain",
    "and_chain",
    "is_null_chain",
];

/// `depth` levels of one nesting shape, and what the expression evaluates
/// to when `depth` is even.
fn nested(shape: &str, depth: usize) -> (String, Value) {
    match shape {
        "parentheses" => (
            format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
            Value::Int(1),
        ),
        "not" => (
            format!("{}TRUE", "NOT ".repeat(depth)),
            Value::Boolean(true),
        ),
        "minus" => (format!("{}1", "- ".repeat(depth)), Value::Int(1)),
        "plus" => (format!("{}1", "+ ".repeat(depth)), Value::Int(1)),
        "abs" => (
            format!("{}1{}", "ABS(".repeat(depth), ")".repeat(depth)),
            Value::Int(1),
        ),
        "cast" => (
            format!("{}1{}", "CAST(".repeat(depth), " AS BIGINT)".repeat(depth)),
            Value::BigInt(1),
        ),
        "add_chain" => (
            format!("1{}", " + 1".repeat(depth)),
            Value::Int(depth as i32 + 1),
        ),
        "and_chain" => (
            format!("TRUE{}", " AND TRUE".repeat(depth)),
            Value::Boolean(true),
        ),
        "is_null_chain" => (
            format!("1{}", " IS NOT NULL".repeat(depth)),
            Value::Boolean(true),
        ),
        other => unreachable!("unknown shape {other}"),
    }
}

#[test]
fn nesting_past_the_bound_is_a_parse_error_and_the_connection_keeps_serving() {
    assert_eq!(
        MAX_EXPR_DEPTH % 2,
        0,
        "the expected values assume an even bound"
    );
    let server = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap());
    server.boot();
    let front = Arc::new(ServerFront::start(
        Arc::clone(&server),
        FrontConfig::default(),
    ));
    let net = NetServer::start("127.0.0.1:0", Arc::clone(&front)).unwrap();
    let client = TcpClient::connect(net.local_addr()).unwrap();
    let select = |expr: &str| client.submit(Request::sql(format!("SELECT {expr} AS V")));
    let still_serving = |after: &str| {
        let outcome = select("2 * 21").unwrap_or_else(|e| panic!("after {after}: {e}"));
        assert_eq!(
            outcome.table.value(0, "V"),
            Some(&Value::Int(42)),
            "after {after}"
        );
    };

    for shape in SHAPES {
        let (expr, expected) = nested(shape, MAX_EXPR_DEPTH);
        let outcome = select(&expr).unwrap_or_else(|e| panic!("{shape} at the bound: {e}"));
        assert_eq!(outcome.table.value(0, "V"), Some(&expected), "{shape}");

        for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
            let (expr, _) = nested(shape, depth);
            let err = select(&expr).unwrap_err();
            assert_eq!(err.layer, ErrorLayer::Parse, "{shape} at {depth}: {err}");
            assert!(
                err.message.contains("at most 64 levels deep"),
                "{shape} at {depth}: {err}"
            );
            still_serving(&format!("{shape} at {depth}"));
        }
    }

    let explains = format!("{}SELECT 1", "EXPLAIN ".repeat(100_000));
    let err = client.submit(Request::sql(explains)).unwrap_err();
    assert_eq!(err.layer, ErrorLayer::Parse, "{err}");
    still_serving("100 000 EXPLAINs");

    assert_eq!(
        net.metrics().snapshot().get("net.connections"),
        Some(1),
        "every request went over the one connection"
    );
    drop(client);
    net.shutdown();
}
