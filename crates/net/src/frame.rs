//! The frame layer: how request/outcome/error bodies travel a byte
//! stream.
//!
//! One frame is
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [version: u8] [kind: u8] [body ...]
//!               \_____________ CRC-32 covers version..body ______/
//!               \_____________ len counts version..body _________/
//! ```
//!
//! — the same length-prefix + checksum discipline as the relstore WAL
//! (and the same in-tree CRC-32 implementation,
//! [`fedwf_types::wire::crc32`]), applied to a socket instead of a log
//! file. The checksum is not about disk corruption here; it catches
//! desynchronized streams (a peer speaking a different dialect, a
//! half-written frame from a dying server) *before* the body decoder
//! runs, turning them into typed [`Protocol`](fedwf_types::ErrorLayer)
//! errors instead of garbage decodes.
//!
//! [`read_frame`] takes a `keep_waiting` callback because the two peers
//! wait differently: the server polls with a short read timeout so it can
//! notice shutdown between frames (return `true` to keep waiting), while
//! the client passes `|| false` so its read timeout — derived from the
//! request deadline — is final.

use std::io::{ErrorKind, Read, Write};

use fedwf_types::wire::crc32;
use fedwf_types::{FedError, FedResult};

/// Version byte of the protocol this build speaks. A frame carrying any
/// other version is rejected with a [`Protocol`](fedwf_types::ErrorLayer)
/// error naming both versions; bump it on any incompatible grammar
/// change (see DESIGN.md §14).
pub const WIRE_VERSION: u8 = 3;

/// Bytes a frame adds around its body: `len`, `crc`, version and kind.
pub const FRAME_OVERHEAD: usize = 10;

/// Upper bound on `len`. Far above any real table the workloads produce;
/// its job is to make a desynchronized length prefix fail fast instead of
/// attempting a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// What a frame's body contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an encoded `Request` body.
    Request,
    /// Server → client: an encoded `Outcome` body.
    Outcome,
    /// Server → client: an encoded `FedError` body.
    Error,
}

impl FrameKind {
    pub fn tag(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Outcome => 2,
            FrameKind::Error => 3,
        }
    }

    pub fn from_tag(tag: u8) -> Option<FrameKind> {
        Some(match tag {
            1 => FrameKind::Request,
            2 => FrameKind::Outcome,
            3 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Write one frame. The whole frame is assembled into a single buffer and
/// written with one `write_all`, so a frame is never interleaved with
/// another writer's bytes and small replies cost one syscall.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> FedResult<()> {
    let payload_len = body.len() + 2;
    if payload_len > MAX_FRAME_LEN as usize {
        return Err(FedError::protocol(format!(
            "frame of {payload_len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + body.len());
    frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
    frame.extend_from_slice(&[0, 0, 0, 0]); // crc placeholder
    frame.push(WIRE_VERSION);
    frame.push(kind.tag());
    frame.extend_from_slice(body);
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| FedError::network(format!("frame write failed: {e}")))
}

/// Read one frame.
///
/// Returns `Ok(None)` on a *clean* close: the stream ended (or
/// `keep_waiting` said stop) exactly on a frame boundary. Ending
/// mid-frame is a [`Network`](fedwf_types::ErrorLayer) error; a bad CRC,
/// unknown version or unknown kind is a
/// [`Protocol`](fedwf_types::ErrorLayer) error.
///
/// `keep_waiting` is consulted whenever a read times out
/// (`WouldBlock`/`TimedOut` — the reader is expected to have a read
/// timeout configured): return `true` to keep waiting, `false` to give
/// up. Giving up between frames is a clean close; giving up mid-frame is
/// a network error.
pub fn read_frame(
    r: &mut impl Read,
    mut keep_waiting: impl FnMut() -> bool,
) -> FedResult<Option<(FrameKind, Vec<u8>)>> {
    let mut header = [0u8; 8];
    if !read_full(r, &mut header, &mut keep_waiting, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(FedError::protocol(format!(
            "frame length {len} outside [2, {MAX_FRAME_LEN}] — stream desynchronized?"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload, &mut keep_waiting, false)? {
        unreachable!("read_full reports mid-frame close as an error");
    }
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(FedError::protocol(format!(
            "frame checksum mismatch: header says {want_crc:#010x}, payload hashes to {got_crc:#010x}"
        )));
    }
    if payload[0] != WIRE_VERSION {
        return Err(FedError::protocol(format!(
            "peer speaks wire version {}, this build speaks {WIRE_VERSION}",
            payload[0]
        )));
    }
    let kind = FrameKind::from_tag(payload[1])
        .ok_or_else(|| FedError::protocol(format!("unknown frame kind {}", payload[1])))?;
    payload.drain(..2);
    Ok(Some((kind, payload)))
}

/// Fill `buf` completely. Returns `Ok(false)` for a clean stop (EOF or
/// `keep_waiting() == false` before the first byte, only honoured when
/// `at_boundary`); errors for every unclean case.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    keep_waiting: &mut impl FnMut() -> bool,
    at_boundary: bool,
) -> FedResult<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && at_boundary {
                    return Ok(false);
                }
                return Err(FedError::network("connection closed mid-frame"));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if keep_waiting() {
                    continue;
                }
                if got == 0 && at_boundary {
                    return Ok(false);
                }
                return Err(FedError::network("read timed out mid-frame"));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FedError::network(format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(kind: FrameKind, body: &[u8]) -> (FrameKind, Vec<u8>) {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, body).unwrap();
        read_frame(&mut Cursor::new(wire), || true)
            .unwrap()
            .expect("one frame present")
    }

    #[test]
    fn frame_round_trips() {
        let (kind, body) = roundtrip(FrameKind::Request, b"hello");
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(body, b"hello");
        let (kind, body) = roundtrip(FrameKind::Error, b"");
        assert_eq!(kind, FrameKind::Error);
        assert!(body.is_empty());
    }

    #[test]
    fn two_frames_in_sequence() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"a").unwrap();
        write_frame(&mut wire, FrameKind::Outcome, b"bb").unwrap();
        let mut cursor = Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor, || true).unwrap(),
            Some((FrameKind::Request, b"a".to_vec()))
        );
        assert_eq!(
            read_frame(&mut cursor, || true).unwrap(),
            Some((FrameKind::Outcome, b"bb".to_vec()))
        );
        assert_eq!(read_frame(&mut cursor, || true).unwrap(), None);
    }

    #[test]
    fn eof_on_boundary_is_clean_mid_frame_is_not() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"payload").unwrap();
        // Clean EOF before any frame.
        assert_eq!(
            read_frame(&mut Cursor::new(&[][..]), || true).unwrap(),
            None
        );
        // Torn anywhere inside: a network error, never a silent None.
        for cut in 1..wire.len() {
            let err = read_frame(&mut Cursor::new(&wire[..cut]), || true).unwrap_err();
            assert!(err.is_network(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corruption_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"payload").unwrap();
        // Flip one payload bit: CRC catches it.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(read_frame(&mut Cursor::new(bad), || true)
            .unwrap_err()
            .is_protocol());
        // Wrong version byte (CRC recomputed so only the version differs):
        // the previous grammars (1, 2) and an unknown one (9).
        for version in [1u8, 2, 9] {
            let mut versioned = wire.clone();
            versioned[8] = version;
            let crc = crc32(&versioned[8..]);
            versioned[4..8].copy_from_slice(&crc.to_le_bytes());
            let err = read_frame(&mut Cursor::new(versioned), || true).unwrap_err();
            assert!(err.is_protocol());
            assert!(
                err.to_string().contains(&format!("version {version}"))
                    && err.to_string().contains(&format!("speaks {WIRE_VERSION}")),
                "{err}"
            );
        }
        // Absurd length prefix: rejected before allocating.
        let mut huge = wire;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut Cursor::new(huge), || true)
            .unwrap_err()
            .is_protocol());
    }

    #[test]
    fn unknown_kind_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"x").unwrap();
        wire[9] = 77;
        let crc = crc32(&wire[8..]);
        wire[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(read_frame(&mut Cursor::new(wire), || true)
            .unwrap_err()
            .is_protocol());
    }

    /// A reader that yields `WouldBlock` between real chunks, like a
    /// socket with a read timeout under a slow sender.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
        timeouts_first: bool,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.timeouts_first {
                self.timeouts_first = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            match self.chunks.first_mut() {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len()).min(3);
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.remove(0);
                    }
                    self.timeouts_first = true;
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn keep_waiting_rides_out_timeouts() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Outcome, b"slow but steady").unwrap();
        let mut reader = Chunked {
            chunks: vec![wire],
            timeouts_first: true,
        };
        let (kind, body) = read_frame(&mut reader, || true).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Outcome);
        assert_eq!(body, b"slow but steady");
    }

    #[test]
    fn giving_up_idle_is_clean_giving_up_mid_frame_is_an_error() {
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(ErrorKind::TimedOut))
            }
        }
        assert_eq!(read_frame(&mut AlwaysTimeout, || false).unwrap(), None);

        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Request, b"x").unwrap();
        let mut torn = Chunked {
            chunks: vec![wire[..5].to_vec()],
            timeouts_first: false,
        };
        let mut budget = 5;
        let err = read_frame(&mut torn, || {
            budget -= 1;
            budget > 0
        })
        .unwrap_err();
        assert!(err.is_network(), "{err}");
    }
}
