//! SQL and FDL text against byte-level mutation.
//!
//! The corpus is real text: the benchmark's `sql_mix` statements, the
//! paper's SQL (a Section 4 query and SQL-function definitions) and a few
//! statements with quotes, comments and multi-byte UTF-8, fed through
//! `fedwf_sql::parse_statements`; and the FDL export of every Fig. 5
//! process, fed through `parse_fdl`. Each case cuts the text at every
//! byte, or applies a few random mutations: cut, flip a bit, insert a
//! token (a quote, a comment opener, a parenthesis, a keyword or a
//! multi-byte character) or delete a run of bytes. Bytes that are no longer
//! UTF-8 are read lossily, as a text front end reads them. Every case
//! parses or fails with a typed error — `[parse]` for SQL, `[workflow]` for
//! FDL — and never panics; a failing case reports its seed and its input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer, WfmsArchitecture};
use fedwf::sql::parse_statements;
use fedwf::types::rng::Rng;
use fedwf::types::{check, ErrorLayer, FedResult};
use fedwf::wfms::{export_fdl, parse_fdl};
use fedwf_bench::network::sql_mix_requests;

/// What an insertion adds: the tokens that steer a lexer or a line parser
/// into its rarer branches.
const TOKENS: &[&str] = &[
    "'",
    "''",
    "\"",
    "--",
    "/*",
    "*/",
    "(",
    ")",
    ",",
    ";",
    ".",
    "*",
    "=",
    "<>",
    "-",
    "ü",
    "東京",
    "🚀",
    "\u{0}",
    "\n",
    " ",
    "NOT ",
    "AND ",
    "SELECT ",
    "TABLE (",
    "CAST(",
    " AS ",
    "99999999999999999999",
    "1e999",
    "PROCESS ",
    "LOOP ",
    "BODY\n",
    "ENDBODY\n",
    "END\n",
    "CONNECT ",
    " -> ",
    " WHEN ",
    "CONST ",
    "INPUT ",
    "OUTPUT ",
    "VARS ",
    "UNTIL ",
    "PROJECT ",
];

fn sql_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = sql_mix_requests()
        .into_iter()
        .map(|(_, request)| request.label().to_string())
        .collect();
    corpus.extend(
        [
            "SELECT DP.Answer FROM TABLE (GetQuality(SupplierNo)) AS GQ, TABLE (GetReliability(SupplierNo)) AS GR, TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG, TABLE (GetCompNo(CompName)) AS GCN, TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP",
            "CREATE FUNCTION GetNumberSupp1234 (CompNo INT) RETURNS TABLE (Number INT) LANGUAGE SQL RETURN SELECT BIGINT(GN.Number) FROM TABLE (GetNumber(1234, GetNumberSupp1234.CompNo)) AS GN",
            "CREATE FUNCTION GetSuppQual (SupplierName VARCHAR) RETURNS TABLE (Qual INT) LANGUAGE SQL RETURN SELECT GQ.Qual FROM TABLE (GetSupplierNo(GetSuppQual.SupplierName)) AS GSN, TABLE (GetQuality(GSN.SupplierNo)) AS GQ",
            "SELECT T.Qual FROM TABLE (GetSuppQual('Precision Parts GmbH')) AS T; -- the paper's call",
            "INSERT INTO T VALUES (1, 'Grüße, 東京 🚀', NULL); /* three columns */ SELECT COUNT(*) FROM T",
            "UPDATE T SET Name = 'it''s' WHERE Id >= -2 AND NOT (Qty < 3 OR Qty IS NULL)",
            "SELECT CAST(Price AS VARCHAR) || 'x' AS P FROM Orders ORDER BY P DESC LIMIT 3",
        ]
        .map(String::from),
    );
    corpus
}

fn fdl_corpus() -> Vec<String> {
    let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
    let arch = WfmsArchitecture::new(server.fdbs().clone(), server.wrapper().clone());
    paper_functions::fig5_workload()
        .into_iter()
        .map(|(spec, _)| export_fdl(&arch.compile_process(&spec).unwrap()))
        .collect()
}

/// One to three random mutations of `text`, read back lossily.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 4) {
        let len = bytes.len();
        match rng.next_below(4) {
            0 => bytes.truncate(rng.range_usize(0, len + 1)),
            1 if len > 0 => bytes[rng.range_usize(0, len)] ^= 1 << rng.next_below(8),
            2 => {
                let at = rng.range_usize(0, len + 1);
                bytes.splice(at..at, rng.pick(TOKENS).bytes());
            }
            _ if len > 0 => {
                let from = rng.range_usize(0, len);
                let to = (from + rng.range_usize(1, 9)).min(len);
                bytes.drain(from..to);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feed `input` to `parse`: `Ok` or an error of `layer`, never a panic.
/// Returns whether it parsed.
fn parses_or_fails_typed<T>(
    what: &str,
    layer: ErrorLayer,
    input: &str,
    parse: impl FnOnce(&str) -> FedResult<T>,
) -> bool {
    match catch_unwind(AssertUnwindSafe(|| parse(input))) {
        Ok(Ok(_)) => true,
        Ok(Err(e)) => {
            assert_eq!(e.layer, layer, "{what} on {input:?}: {e}");
            false
        }
        Err(_) => panic!("{what} parser panicked on {input:?}"),
    }
}

fn sql_parses(input: &str) -> bool {
    parses_or_fails_typed("SQL", ErrorLayer::Parse, input, parse_statements)
}

fn fdl_parses(input: &str) -> bool {
    parses_or_fails_typed("FDL", ErrorLayer::Workflow, input, parse_fdl)
}

/// Every cut of every corpus text, then `cases` random mutations of
/// random corpus texts. Returns how many inputs parsed, and how many ran.
fn fuzz(corpus: &[String], cases: u64, parses: impl Fn(&str) -> bool) -> (usize, usize) {
    let (mut parsed, mut total) = (0, 0);
    for text in corpus {
        assert!(parses(text), "a corpus text must parse: {text:?}");
        for cut in 0..text.len() {
            parsed += parses(&String::from_utf8_lossy(&text.as_bytes()[..cut])) as usize;
            total += 1;
        }
    }
    check::cases(cases, |rng| {
        let text = rng.pick(corpus);
        parsed += parses(&mutate(rng, text)) as usize;
        total += 1;
    });
    (parsed, total)
}

#[test]
fn mutated_sql_parses_or_fails_typed() {
    let (parsed, total) = fuzz(&sql_corpus(), 50_000, sql_parses);
    // Both outcomes occur, so the mutations reach past the first token.
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}

#[test]
fn mutated_fdl_parses_or_fails_typed() {
    let (parsed, total) = fuzz(&fdl_corpus(), 20_000, fdl_parses);
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}
