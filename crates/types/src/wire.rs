//! The byte-level wire codec shared by the network protocol and the WAL.
//!
//! Everything that crosses a process boundary — WAL frames on disk,
//! `Request`/`Outcome` frames on a socket — is encoded with the same
//! little-endian primitives: length-prefixed strings, tagged [`Value`]s,
//! schemas as column lists, tables as schema + row block. The reader is
//! bounds-checked and never panics on malformed input; every decode error
//! is a typed [`FedError::protocol`] so a garbage frame surfaces as a
//! protocol violation instead of a crash.
//!
//! The CRC-32 (IEEE 802.3 polynomial, as used by zip/png) lives here too:
//! it guards both the WAL's on-disk frames and the network protocol's
//! on-wire frames with the same checksum discipline.

use std::sync::Arc;

use crate::error::{FedError, FedResult};
use crate::row::{Column, Row, Schema, Table};
use crate::value::{DataType, Value};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial) — slicing-by-8, no external crates.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which lets the main
/// loop fold eight input bytes per step with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 checksum of `bytes` (IEEE polynomial, as used by zip/png).
///
/// Slicing-by-8: eight bytes per step through eight lookup tables, the
/// tail bytewise. The values are those of the plain bytewise algorithm,
/// so WAL files and network frames written by either stay readable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t0[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only encoder over a byte buffer. Fixed-width integers are
/// little-endian and strings `u32` length-prefixed; the `put_var_*`
/// methods write LEB128 varints and varint-prefixed strings instead.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    pub fn with_capacity(capacity: usize) -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `v` as an unsigned LEB128 varint: seven bits per byte, low bits
    /// first, the high bit set on every byte but the last. Values below
    /// 128 take one byte, `u64::MAX` takes ten.
    #[inline]
    pub fn put_var_u64(&mut self, mut v: u64) {
        self.buf.reserve(10);
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A string with a varint length prefix.
    pub fn put_var_str(&mut self, s: &str) {
        self.put_var_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `Some(s)` as a present marker + string, `None` as an absent marker.
    pub fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
            None => self.put_u8(0),
        }
    }

    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::BigInt(i) => {
                self.put_u8(2);
                self.buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                self.put_u8(3);
                self.buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Varchar(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Value::Boolean(b) => {
                self.put_u8(5);
                self.put_u8(*b as u8);
            }
        }
    }

    pub fn put_schema(&mut self, schema: &Schema) {
        self.put_u32(schema.len() as u32);
        for c in schema.columns() {
            self.put_str(c.name.as_str());
            self.put_u8(data_type_tag(c.data_type));
            self.put_bool(c.nullable);
        }
    }

    /// Schema followed by a `u32` row count and the row values in order.
    pub fn put_table(&mut self, table: &Table) {
        self.put_schema(table.schema());
        self.put_u32(table.row_count() as u32);
        for row in table.rows() {
            for v in row.values() {
                self.put_value(v);
            }
        }
    }
}

/// Stable on-wire tag of a [`DataType`]. Matches the WAL's historical
/// encoding, so the tags must never be renumbered.
pub fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::BigInt => 1,
        DataType::Double => 2,
        DataType::Varchar => 3,
        DataType::Boolean => 4,
    }
}

fn utf8(bytes: &[u8]) -> FedResult<&str> {
    std::str::from_utf8(bytes)
        .map_err(|e| FedError::protocol(format!("invalid utf-8 in string: {e}")))
}

/// Inverse of [`data_type_tag`].
pub fn data_type_from_tag(tag: u8) -> FedResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::BigInt,
        2 => DataType::Double,
        3 => DataType::Varchar,
        4 => DataType::Boolean,
        other => return Err(FedError::protocol(format!("unknown data-type tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte slice. Every read
/// fails with [`FedError::protocol`] instead of panicking when the slice
/// is shorter than the encoding claims.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(bytes: &'a [u8]) -> WireReader<'a> {
        WireReader { bytes, pos: 0 }
    }

    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> FedResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(FedError::protocol(format!(
                "truncated frame: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    pub fn get_u8(&mut self) -> FedResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> FedResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FedError::protocol(format!("invalid bool byte {other}"))),
        }
    }

    pub fn get_u16(&mut self) -> FedResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> FedResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> FedResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> FedResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_str(&mut self) -> FedResult<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// A `u32`-length-prefixed string, borrowed from the frame.
    pub fn get_str_ref(&mut self) -> FedResult<&'a str> {
        let len = self.get_u32()? as usize;
        utf8(self.take(len)?)
    }

    /// Inverse of [`WireWriter::put_var_u64`]. Only the shortest encoding
    /// of a value decodes: a varint that runs past ten bytes, exceeds
    /// `u64::MAX` or ends in a padding zero byte is a protocol error.
    #[inline]
    pub fn get_var_u64(&mut self) -> FedResult<u64> {
        let rest = &self.bytes[self.pos..];
        // Fast path: counts, ids and deltas mostly fit in one byte.
        if let Some(&b) = rest.first() {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(10).enumerate() {
            if i == 9 && b > 1 {
                return Err(FedError::protocol("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if b == 0 {
                    return Err(FedError::protocol("overlong varint"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(FedError::protocol(format!(
            "truncated frame: varint runs past the last {} bytes",
            rest.len()
        )))
    }

    /// A varint-length-prefixed string, borrowed from the frame.
    pub fn get_var_str(&mut self) -> FedResult<&'a str> {
        let len = usize::try_from(self.get_var_u64()?).unwrap_or(usize::MAX);
        utf8(self.take(len)?)
    }

    pub fn get_opt_str(&mut self) -> FedResult<Option<String>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            other => Err(FedError::protocol(format!(
                "invalid option marker {other} for string"
            ))),
        }
    }

    pub fn get_value(&mut self) -> FedResult<Value> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Int(i32::from_le_bytes(self.take(4)?.try_into().unwrap())),
            2 => Value::BigInt(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            3 => Value::Double(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            4 => Value::Varchar(Arc::from(self.get_str_ref()?)),
            5 => Value::Boolean(self.get_bool()?),
            other => return Err(FedError::protocol(format!("unknown value tag {other}"))),
        })
    }

    pub fn get_schema(&mut self) -> FedResult<Schema> {
        let n = self.get_u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = self.get_str()?;
            let data_type = data_type_from_tag(self.get_u8()?)?;
            let nullable = self.get_bool()?;
            let mut column = Column::new(name, data_type);
            column.nullable = nullable;
            columns.push(column);
        }
        Ok(Schema::new(columns))
    }

    pub fn get_table(&mut self) -> FedResult<Table> {
        let schema = Arc::new(self.get_schema()?);
        let arity = schema.len();
        let rows = self.get_u32()? as usize;
        // Every value costs at least its tag byte, so a row count the rest
        // of the frame cannot hold is garbage. That includes any row of a
        // zero-column table, which would otherwise decode from no bytes.
        if rows > 0 && (arity == 0 || rows.saturating_mul(arity) > self.remaining()) {
            return Err(FedError::protocol(format!(
                "table claims {rows} rows of {arity} columns but {} bytes remain",
                self.remaining()
            )));
        }
        let mut table = Table::new(schema);
        for _ in 0..rows {
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(self.get_value()?);
            }
            // The sender's table already passed its own schema check;
            // re-checking here would reject NULLs a nullable column allows
            // but a NOT NULL one doesn't after a lossy round-trip — and the
            // wire carries nullability, so the check holds by construction.
            table.push_unchecked(Row::new(values));
        }
        Ok(table)
    }

    /// Fail unless every byte of the frame was consumed — trailing garbage
    /// means the two sides disagree about the encoding.
    pub fn expect_exhausted(&self) -> FedResult<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(FedError::protocol(format!(
                "{} trailing bytes after decoded frame",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain one-byte-at-a-time CRC-32: the oracle `crc32` must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC32_TABLES[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 is the canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Slicing-by-8 agrees with the bytewise loop on every short length,
    /// on a band of long ones, and at all eight alignments of the input.
    #[test]
    fn crc32_matches_the_bytewise_oracle() {
        let mut rng = crate::rng::Rng::seed_from_u64(0xC3C3);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in (0..=64).chain(1000..=4096) {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0, 1, 127, 128, 255, 300, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|bit| 1u64 << bit));
        values.extend((1..64).map(|bit| (1u64 << bit) - 1));
        for v in values {
            let mut w = WireWriter::new();
            w.put_var_u64(v);
            let bytes = w.into_bytes();
            let width = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(bytes.len(), width, "{v}");
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_var_u64().unwrap(), v);
            r.expect_exhausted().unwrap();
            // Every cut is a typed truncation error.
            for cut in 0..bytes.len() {
                let err = WireReader::new(&bytes[..cut]).get_var_u64().unwrap_err();
                assert_eq!(err.layer, crate::ErrorLayer::Protocol, "{v} cut at {cut}");
            }
        }
        let mut w = WireWriter::new();
        w.put_var_str("grüße");
        w.put_var_str("");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_var_str().unwrap(), "grüße");
        assert_eq!(r.get_var_str().unwrap(), "");
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        let cases: [&[u8]; 6] = [
            // Zero padded to two and to ten bytes.
            &[0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            // A tenth byte above bit 63, and an eleventh byte.
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81, 0x00,
            ],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            // A string length beyond the frame.
            &[0x05, b'a', b'b'],
        ];
        for (i, bytes) in cases.into_iter().enumerate() {
            let mut r = WireReader::new(bytes);
            let err = if i == 5 {
                r.get_var_str().unwrap_err()
            } else {
                r.get_var_u64().unwrap_err()
            };
            assert_eq!(err.layer, crate::ErrorLayer::Protocol, "case {i}: {err}");
        }
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(WireReader::new(&max).get_var_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_str("hello");
        w.put_opt_str(None);
        w.put_opt_str(Some("x"));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_opt_str().unwrap(), None);
        assert_eq!(r.get_opt_str().unwrap(), Some("x".to_string()));
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn values_round_trip() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::BigInt(1 << 40),
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::str(""),
            Value::str("übergröße"),
            Value::Boolean(false),
        ];
        let mut w = WireWriter::new();
        for v in &values {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for v in &values {
            let got = r.get_value().unwrap();
            match (v, &got) {
                // NaN != NaN under PartialEq; compare bit patterns instead.
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(&got, v),
            }
        }
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn table_round_trips_schema_and_rows() {
        let schema = Arc::new(Schema::new(vec![
            Column::new("Id", DataType::Int).not_null(),
            Column::new("Name", DataType::Varchar),
        ]));
        let table = Table::with_rows(
            Arc::clone(&schema),
            vec![
                Row::new(vec![Value::Int(1), Value::str("a")]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
        )
        .unwrap();
        let mut w = WireWriter::new();
        w.put_table(&table);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let got = r.get_table().unwrap();
        assert_eq!(got, table);
        assert!(!got.schema().columns()[0].nullable);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_protocol_errors() {
        let mut w = WireWriter::new();
        w.put_str("truncate me");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..bytes.len() - 3]);
        let err = r.get_str().unwrap_err();
        assert_eq!(err.layer, crate::ErrorLayer::Protocol);
    }

    #[test]
    fn row_counts_the_bytes_cannot_hold_are_rejected() {
        let zero_columns = Arc::new(Schema::new(vec![]));
        let mut w = WireWriter::new();
        w.put_table(&Table::new(zero_columns.clone()));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_table().unwrap(), Table::new(zero_columns));
        // A zero-column header claiming rows, and one-column rows with
        // fewer bytes left than rows.
        for (columns, rows) in [(0u32, 1u32), (0, u32::MAX), (1, 3)] {
            let mut w = WireWriter::new();
            w.put_u32(columns);
            for i in 0..columns {
                w.put_str(&format!("c{i}"));
                w.put_u8(data_type_tag(DataType::Int));
                w.put_bool(true);
            }
            w.put_u32(rows);
            w.put_value(&Value::Null);
            w.put_value(&Value::Null);
            let err = WireReader::new(&w.into_bytes()).get_table().unwrap_err();
            assert_eq!(err.layer, crate::ErrorLayer::Protocol, "{err}");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut r = WireReader::new(&[9]);
        assert!(r.get_value().is_err());
        assert!(data_type_from_tag(200).is_err());
    }
}
