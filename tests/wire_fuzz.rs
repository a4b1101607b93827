//! The wire against real traffic and hostile bytes.
//!
//! The corpus is what a server really sends and receives: the outcome of
//! every Fig. 5 function on all four architectures (cold and warm), one
//! request of each `sql_mix` shape traced and untraced, the requests
//! themselves, and typed error bodies.
//!
//! * Exactness: every body decodes to exactly what was encoded (table,
//!   virtual clock, every charge, materialization counters, span tree,
//!   metrics delta), and re-encodes to the same bytes.
//! * Mutation: bodies cut at every byte, random byte flips (with the
//!   frame CRC recomputed, so the body decoder sees the damage),
//!   inflated `u32` counts and an overlong varint in place of the charge
//!   count. Every case decodes or fails with a typed `[protocol]` (body)
//!   or `[network]` (torn frame) error: no panic, and no charge log past
//!   [`MAX_CHARGES`]. A failing random case reports its seed.

use std::io::Cursor;
use std::sync::OnceLock;

use fedwf::core::wire::{
    decode_error, decode_outcome, decode_request, encode_error, encode_outcome, encode_request,
    MAX_CHARGES,
};
use fedwf::core::{paper_functions, ArchitectureKind, IntegrationServer, Outcome, Request};
use fedwf::net::frame::{read_frame, write_frame};
use fedwf::net::FrameKind;
use fedwf::types::wire::{crc32, WireWriter};
use fedwf::types::{check, ErrorLayer, FedError, FedResult};
use fedwf_bench::args_for;
use fedwf_bench::network::{load_sql_mix_federation, sql_mix_requests};

struct Corpus {
    outcomes: Vec<(String, Outcome)>,
    requests: Vec<Request>,
    errors: Vec<FedError>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Corpus {
            outcomes: Vec::new(),
            requests: Vec::new(),
            errors: Vec::new(),
        };
        for kind in ArchitectureKind::ALL {
            let server = IntegrationServer::with_architecture(kind).unwrap();
            server.boot();
            for (spec, _) in paper_functions::fig5_workload() {
                if !server.architecture().supports(&spec) {
                    continue;
                }
                server.deploy(&spec).unwrap();
                let request = Request::function(spec.name.as_str())
                    .params(args_for(server.scenario(), &spec))
                    .traced(kind == ArchitectureKind::Wfms);
                for phase in ["cold", "warm"] {
                    let outcome = server.execute(&request).unwrap();
                    corpus
                        .outcomes
                        .push((format!("{} {phase} ({})", spec.name, kind.name()), outcome));
                }
                corpus.requests.push(request);
            }
            corpus.errors.push(
                server
                    .execute(&Request::function("NoSuchFunction"))
                    .unwrap_err(),
            );
        }
        let server = IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap();
        server.boot();
        server.deploy(&paper_functions::get_supp_qual()).unwrap();
        load_sql_mix_federation(&server).unwrap();
        for (shape, request) in sql_mix_requests() {
            server.execute(&request).unwrap(); // warm the plan cache
            for traced in [false, true] {
                let request = request.clone().traced(traced);
                let outcome = server.execute(&request).unwrap();
                corpus
                    .outcomes
                    .push((format!("sql_mix {shape} (traced: {traced})"), outcome));
                corpus.requests.push(request);
            }
        }
        // `fed_join` with a residual filter storage cannot evaluate (`+ 0`):
        // every foreign row reaches the filter, which books one `Evaluate
        // predicates` charge per row, back to back.
        let residual = Request::sql(
            "SELECT S.SupplierNo, T.Qual \
             FROM ErpSuppliers AS S, TABLE (GetSuppQual(S.Name)) AS T \
             WHERE S.SupplierNo + 0 >= plo AND S.SupplierNo + 0 < phi ORDER BY S.SupplierNo",
        )
        .bind("plo", 1)
        .bind("phi", 4);
        server.execute(&residual).unwrap(); // warm the plan cache
        let outcome = server.execute(&residual).unwrap();
        corpus
            .outcomes
            .push(("residual filter over foreign rows".to_string(), outcome));
        corpus.requests.push(residual);
        corpus
            .errors
            .push(server.execute(&Request::sql("SELEC oops")).unwrap_err());
        corpus.errors.push(
            FedError::overloaded("admission queue full")
                .with_context("über the wire")
                .with_context("second frame"),
        );
        corpus
    })
}

/// Every body of the corpus with the frame kind it travels in.
fn bodies() -> Vec<(FrameKind, Vec<u8>)> {
    let c = corpus();
    let outcomes = c
        .outcomes
        .iter()
        .map(|(_, o)| (FrameKind::Outcome, encode_outcome(o)));
    let requests = c
        .requests
        .iter()
        .map(|r| (FrameKind::Request, encode_request(r, r.deadline_opt())));
    let errors = c.errors.iter().map(|e| (FrameKind::Error, encode_error(e)));
    outcomes.chain(requests).chain(errors).collect()
}

/// Decode a body of `kind`; only the error layer matters to the callers.
fn decode(kind: FrameKind, body: &[u8]) -> FedResult<()> {
    match kind {
        FrameKind::Request => decode_request(body).map(drop),
        FrameKind::Error => decode_error(body).map(drop),
        FrameKind::Outcome => {
            let outcome = decode_outcome(body)?;
            assert!(
                outcome.meter.charges().len() <= MAX_CHARGES,
                "expanded past the charge cap"
            );
            Ok(())
        }
    }
}

fn assert_protocol(result: FedResult<()>, what: &str) {
    if let Err(e) = result {
        assert_eq!(e.layer, ErrorLayer::Protocol, "{what}: {e}");
    }
}

/// Longest run of consecutive charges with the same component, step and
/// duration, each starting where the previous one ended.
fn longest_run(outcome: &Outcome) -> usize {
    let charges = outcome.meter.charges();
    let mut best = usize::from(!charges.is_empty());
    let mut run = 1;
    for pair in charges.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let continues = a.component == b.component
            && a.step == b.step
            && a.duration_us == b.duration_us
            && a.start_us.checked_add(a.duration_us) == Some(b.start_us);
        run = if continues { run + 1 } else { 1 };
        best = best.max(run);
    }
    best
}

#[test]
fn every_real_body_round_trips_exactly() {
    let c = corpus();
    assert!(c.outcomes.len() >= 4 * 8 * 2 + 10, "{}", c.outcomes.len());
    for (label, outcome) in &c.outcomes {
        let bytes = encode_outcome(outcome);
        let decoded = decode_outcome(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(decoded.table, outcome.table, "{label}: table");
        assert_eq!(decoded.meter.now_us(), outcome.meter.now_us(), "{label}");
        assert_eq!(decoded.meter.charges(), outcome.meter.charges(), "{label}");
        assert_eq!(
            decoded.meter.rows_materialized(),
            outcome.meter.rows_materialized(),
            "{label}"
        );
        assert_eq!(
            decoded.meter.bytes_materialized(),
            outcome.meter.bytes_materialized(),
            "{label}"
        );
        assert_eq!(decoded.trace, outcome.trace, "{label}: trace");
        assert_eq!(decoded.metrics_delta, outcome.metrics_delta, "{label}");
        assert_eq!(encode_outcome(&decoded), bytes, "{label}: re-encoding");
    }
    for request in &c.requests {
        let decoded = decode_request(&encode_request(request, None)).unwrap();
        assert_eq!(decoded.target(), request.target());
        assert_eq!(decoded.params_ref(), request.params_ref());
        assert_eq!(decoded.trace_requested(), request.trace_requested());
    }
    for error in &c.errors {
        assert_eq!(&decode_error(&encode_error(error)).unwrap(), error);
    }
    // The corpus exercises long runs: a residual filter over the foreign
    // rows books one identical charge per row.
    let residual = c
        .outcomes
        .iter()
        .find(|(label, _)| label.starts_with("residual filter"))
        .map(|(_, o)| o)
        .unwrap();
    assert!(longest_run(residual) >= 50, "{}", longest_run(residual));
}

#[test]
fn cut_bodies_and_frames_fail_typed() {
    for (kind, body) in bodies() {
        for cut in 0..body.len() {
            let result = decode(kind, &body[..cut]);
            assert!(result.is_err(), "{kind:?} body cut at {cut} decoded");
            assert_protocol(result, &format!("{kind:?} body cut at {cut}"));
        }
        let mut frame = Vec::new();
        write_frame(&mut frame, kind, &body).unwrap();
        assert_eq!(
            read_frame(&mut Cursor::new(&frame[..0]), || false).unwrap(),
            None
        );
        for cut in 1..frame.len() {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), || false).unwrap_err();
            assert_eq!(
                err.layer,
                ErrorLayer::Network,
                "{kind:?} frame cut at {cut}"
            );
        }
    }
}

#[test]
fn flipped_bytes_decode_or_fail_typed() {
    let bodies = bodies();
    check::cases(48, |rng| {
        for (kind, body) in &bodies {
            if body.is_empty() {
                continue;
            }
            let mut bad = body.clone();
            for _ in 0..rng.range_usize(1, 5) {
                let at = rng.range_usize(0, bad.len());
                bad[at] ^= rng.range_u64(1, 255) as u8;
            }
            // Through a frame: the CRC covers the damaged body, so the
            // frame reads back and the body decoder meets the damage.
            let mut frame = Vec::new();
            write_frame(&mut frame, *kind, &bad).unwrap();
            let (got_kind, got) = read_frame(&mut Cursor::new(&frame), || false)
                .unwrap()
                .expect("one frame");
            assert_eq!((got_kind, &got), (*kind, &bad));
            assert_protocol(decode(*kind, &got), &format!("{kind:?} flipped"));
            // The same damage under the original CRC: the frame layer
            // refuses it before any decoder runs.
            let mut original = Vec::new();
            write_frame(&mut original, *kind, body).unwrap();
            let mut torn = frame.clone();
            torn[4..8].copy_from_slice(&original[4..8]);
            if crc32(&torn[8..]) != crc32(&original[8..]) {
                let err = read_frame(&mut Cursor::new(&torn), || false).unwrap_err();
                assert_eq!(err.layer, ErrorLayer::Protocol, "{err}");
            }
        }
    });
}

#[test]
fn inflated_counts_decode_or_fail_typed() {
    let bodies = bodies();
    check::cases(16, |rng| {
        for (kind, body) in &bodies {
            if body.len() < 4 {
                continue;
            }
            for _ in 0..16 {
                let at = rng.range_usize(0, body.len() - 3);
                let claim = *rng.pick(&[u32::MAX, 0x7FFF_FFFF, 1 << 24, 65_537]);
                let mut bad = body.clone();
                bad[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                assert_protocol(
                    decode(*kind, &bad),
                    &format!("{kind:?} count {claim} at {at}"),
                );
            }
        }
    });
}

/// The charge count follows the table and the virtual clock; spelling it
/// as an overlong ten-byte varint is a protocol error, not a decode.
#[test]
fn an_overlong_charge_count_is_a_protocol_error() {
    for (label, outcome) in &corpus().outcomes {
        let bytes = encode_outcome(outcome);
        let mut table = WireWriter::new();
        table.put_table(&outcome.table);
        let at = table.len() + 8;
        let mut count = WireWriter::new();
        count.put_var_u64(outcome.meter.charges().len() as u64);
        let width = count.len();
        let mut overlong = count.into_bytes();
        overlong[width - 1] |= 0x80;
        overlong.resize(9, 0x80);
        overlong.push(0x00);
        let mut bad = bytes[..at].to_vec();
        bad.extend_from_slice(&overlong);
        bad.extend_from_slice(&bytes[at + width..]);
        let err = decode_outcome(&bad).map(drop).unwrap_err();
        assert_eq!(err.layer, ErrorLayer::Protocol, "{label}: {err}");
    }
}
