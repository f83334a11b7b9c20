//! The versioned operand-trace formats and their bounded streaming readers.
//!
//! A *trace* is an ordered stream of addition operands — the additions an
//! application actually performed — from which the profiler estimates the
//! per-bit input statistics the paper's analysis consumes. Two encodings
//! carry the same data:
//!
//! * **NDJSON** (human-friendly, line-oriented): a header line
//!   `{"sealpaa_trace":1,"width":8}` followed by one record per line,
//!   `{"a":13,"b":77}` or `{"a":13,"b":77,"cin":1}`. Only flat objects of
//!   unsigned integers (and `true`/`false` for `cin`) are part of the
//!   grammar, so the reader needs no general JSON machinery.
//! * **Binary** (compact): the magic `SPTB`, a format version byte, the
//!   width, a record count, then fixed-size records (little-endian operands
//!   plus a flags byte).
//!
//! Both readers are *bounded*: memory use is independent of the input size.
//! The NDJSON reader holds one line at a time, and lines longer than
//! [`TraceLimits::max_line_bytes`] are rejected without being buffered. The
//! binary reader holds one chunk at a time: a power-of-two number of whole
//! records within 16 KiB of raw input, never more than the header still
//! promises, decoded by a loop specialised for the operand byte count. Both
//! stop with an error after [`TraceLimits::max_records`] records; the binary
//! reader rejects a larger header count before reading any record.

use std::io::{BufRead, Read, Write};

/// NDJSON header version this crate reads and writes.
pub const TRACE_VERSION: u64 = 1;

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: [u8; 4] = *b"SPTB";

/// Binary format version this crate reads and writes.
pub const BINARY_VERSION: u8 = 1;

/// One traced addition: the two operands and the carry-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Carry-in bit.
    pub cin: bool,
}

impl TraceRecord {
    /// Builds a record.
    pub fn new(a: u64, b: u64, cin: bool) -> TraceRecord {
        TraceRecord { a, b, cin }
    }
}

/// Resource bounds for the streaming readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLimits {
    /// Maximum accepted NDJSON line length in bytes; longer lines error out
    /// without ever being buffered whole.
    pub max_line_bytes: usize,
    /// Maximum number of records a reader yields before erroring.
    pub max_records: u64,
}

impl Default for TraceLimits {
    fn default() -> TraceLimits {
        TraceLimits {
            max_line_bytes: 1 << 16,
            max_records: 1 << 32,
        }
    }
}

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The header line/block is malformed or has the wrong version.
    Header(String),
    /// A record is malformed; `line` is 1-based (the header is line 1).
    Record {
        /// 1-based line (NDJSON) or record-plus-header ordinal (binary).
        line: u64,
        /// What was wrong.
        message: String,
    },
    /// An NDJSON line exceeded [`TraceLimits::max_line_bytes`].
    LineTooLong {
        /// 1-based line number.
        line: u64,
        /// The configured limit.
        limit: usize,
    },
    /// The stream holds more than [`TraceLimits::max_records`] records.
    TooManyRecords {
        /// The configured limit.
        limit: u64,
    },
    /// The width is outside `1..=64`.
    InvalidWidth {
        /// The offending width.
        width: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Header(msg) => write!(f, "trace header: {msg}"),
            TraceError::Record { line, message } => write!(f, "trace line {line}: {message}"),
            TraceError::LineTooLong { line, limit } => {
                write!(f, "trace line {line} exceeds {limit} bytes")
            }
            TraceError::TooManyRecords { limit } => {
                write!(f, "trace holds more than {limit} records")
            }
            TraceError::InvalidWidth { width } => {
                write!(f, "trace width must be 1..=64, got {width}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

fn check_width(width: usize) -> Result<(), TraceError> {
    if width == 0 || width > 64 {
        return Err(TraceError::InvalidWidth { width });
    }
    Ok(())
}

fn width_mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Writes a trace in NDJSON form. Operand bits above `width` are masked off.
///
/// # Errors
///
/// Fails on an invalid width or an I/O error.
pub fn write_ndjson<W: Write>(
    mut out: W,
    width: usize,
    records: impl IntoIterator<Item = TraceRecord>,
) -> Result<(), TraceError> {
    check_width(width)?;
    let mask = width_mask(width);
    writeln!(
        out,
        "{{\"sealpaa_trace\":{TRACE_VERSION},\"width\":{width}}}"
    )?;
    for r in records {
        if r.cin {
            writeln!(
                out,
                "{{\"a\":{},\"b\":{},\"cin\":1}}",
                r.a & mask,
                r.b & mask
            )?;
        } else {
            writeln!(out, "{{\"a\":{},\"b\":{}}}", r.a & mask, r.b & mask)?;
        }
    }
    Ok(())
}

/// Writes a trace in the compact binary framing. Operand bits above `width`
/// are masked off.
///
/// # Errors
///
/// Fails on an invalid width or an I/O error.
pub fn write_binary<W: Write>(
    mut out: W,
    width: usize,
    records: &[TraceRecord],
) -> Result<(), TraceError> {
    check_width(width)?;
    let mask = width_mask(width);
    let nb = width.div_ceil(8);
    out.write_all(&BINARY_MAGIC)?;
    out.write_all(&[BINARY_VERSION, width as u8])?;
    out.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in records {
        out.write_all(&(r.a & mask).to_le_bytes()[..nb])?;
        out.write_all(&(r.b & mask).to_le_bytes()[..nb])?;
        out.write_all(&[u8::from(r.cin)])?;
    }
    Ok(())
}

/// Parses a flat JSON object of unsigned-integer (or `true`/`false`) fields
/// — the only object shape the trace grammar admits.
fn parse_flat_object(line: &str) -> Result<Vec<(&str, u64)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let mut pairs = Vec::new();
    let mut rest = inner.trim();
    if rest.is_empty() {
        return Ok(pairs);
    }
    loop {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or("expected a quoted field name")?;
        let end = after_quote.find('"').ok_or("unterminated field name")?;
        let key = &after_quote[..end];
        rest = after_quote[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected ':' after the field name")?
            .trim_start();
        let (value, remainder) = if let Some(r) = rest.strip_prefix("true") {
            (1u64, r)
        } else if let Some(r) = rest.strip_prefix("false") {
            (0u64, r)
        } else {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if digits == 0 {
                return Err(format!("field {key:?} must be an unsigned integer"));
            }
            let value: u64 = rest[..digits]
                .parse()
                .map_err(|_| format!("field {key:?} does not fit in 64 bits"))?;
            (value, &rest[digits..])
        };
        pairs.push((key, value));
        rest = remainder.trim_start();
        if rest.is_empty() {
            return Ok(pairs);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or("expected ',' between fields")?
            .trim_start();
    }
}

/// Reads one `\n`-terminated line into `buf` without ever holding more than
/// `limit` bytes, so a newline-free flood cannot balloon memory. Returns
/// `false` at clean EOF.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    limit: usize,
    line: u64,
) -> Result<bool, TraceError> {
    buf.clear();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            // Retried, as `BufRead::read_line` does: a signal is no error.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > limit {
                    return Err(TraceError::LineTooLong { line, limit });
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(true);
            }
            None => {
                let take = chunk.len();
                if buf.len() + take > limit {
                    return Err(TraceError::LineTooLong { line, limit });
                }
                buf.extend_from_slice(chunk);
                reader.consume(take);
            }
        }
    }
}

/// Decodes one record object against the trace width.
fn record_from_pairs(
    pairs: &[(&str, u64)],
    mask: u64,
    line: u64,
) -> Result<TraceRecord, TraceError> {
    let fail = |message: String| TraceError::Record { line, message };
    let mut a = None;
    let mut b = None;
    let mut cin = None;
    for &(key, value) in pairs {
        let slot = match key {
            "a" => &mut a,
            "b" => &mut b,
            "cin" => &mut cin,
            other => return Err(fail(format!("unknown field {other:?}"))),
        };
        if slot.replace(value).is_some() {
            return Err(fail(format!("duplicate field {key:?}")));
        }
    }
    let a = a.ok_or_else(|| fail("missing field \"a\"".to_owned()))?;
    let b = b.ok_or_else(|| fail("missing field \"b\"".to_owned()))?;
    for (key, value) in [("a", a), ("b", b)] {
        if value & !mask != 0 {
            return Err(fail(format!(
                "field {key:?} value {value} exceeds the trace width"
            )));
        }
    }
    let cin = match cin {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(fail(format!("field \"cin\" must be 0 or 1, got {other}"))),
    };
    Ok(TraceRecord { a, b, cin })
}

/// A bounded streaming NDJSON trace reader: yields records one line at a
/// time without buffering the stream.
#[derive(Debug)]
pub struct NdjsonReader<R: BufRead> {
    reader: R,
    width: usize,
    mask: u64,
    limits: TraceLimits,
    /// 1-based line number of the *next* line to read.
    line: u64,
    yielded: u64,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> NdjsonReader<R> {
    /// Opens a reader with default [`TraceLimits`], parsing the header line.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/unsupported header.
    pub fn new(reader: R) -> Result<NdjsonReader<R>, TraceError> {
        NdjsonReader::with_limits(reader, TraceLimits::default())
    }

    /// Opens a reader with explicit limits, parsing the header line.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/unsupported header.
    pub fn with_limits(mut reader: R, limits: TraceLimits) -> Result<NdjsonReader<R>, TraceError> {
        let mut buf = Vec::new();
        if !read_bounded_line(&mut reader, &mut buf, limits.max_line_bytes, 1)? {
            return Err(TraceError::Header("empty stream".to_owned()));
        }
        let text = std::str::from_utf8(&buf)
            .map_err(|_| TraceError::Header("header is not UTF-8".to_owned()))?;
        let pairs = parse_flat_object(text).map_err(TraceError::Header)?;
        let mut version = None;
        let mut width = None;
        for (key, value) in pairs {
            match key {
                "sealpaa_trace" => version = Some(value),
                "width" => width = Some(value),
                other => {
                    return Err(TraceError::Header(format!("unknown field {other:?}")));
                }
            }
        }
        match version {
            Some(TRACE_VERSION) => {}
            Some(v) => {
                return Err(TraceError::Header(format!(
                    "unsupported version {v} (this reader speaks version {TRACE_VERSION})"
                )))
            }
            None => {
                return Err(TraceError::Header(
                    "missing field \"sealpaa_trace\"".to_owned(),
                ))
            }
        }
        let width =
            width.ok_or_else(|| TraceError::Header("missing field \"width\"".to_owned()))? as usize;
        check_width(width)?;
        Ok(NdjsonReader {
            reader,
            width,
            mask: width_mask(width),
            limits,
            line: 2,
            yielded: 0,
            buf,
            done: false,
        })
    }

    /// The operand width declared by the header.
    pub fn width(&self) -> usize {
        self.width
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        loop {
            let line = self.line;
            if !read_bounded_line(
                &mut self.reader,
                &mut self.buf,
                self.limits.max_line_bytes,
                line,
            )? {
                return Ok(None);
            }
            self.line += 1;
            if self.buf.iter().all(u8::is_ascii_whitespace) {
                continue; // blank lines separate nothing, but are tolerated
            }
            if self.yielded == self.limits.max_records {
                return Err(TraceError::TooManyRecords {
                    limit: self.limits.max_records,
                });
            }
            let text = std::str::from_utf8(&self.buf).map_err(|_| TraceError::Record {
                line,
                message: "line is not UTF-8".to_owned(),
            })?;
            let pairs =
                parse_flat_object(text).map_err(|message| TraceError::Record { line, message })?;
            let record = record_from_pairs(&pairs, self.mask, line)?;
            self.yielded += 1;
            return Ok(Some(record));
        }
    }
}

impl<R: BufRead> Iterator for NdjsonReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Raw bytes one binary chunk holds at most.
const CHUNK_BYTES: usize = 1 << 14;

/// Records per binary chunk: the largest power of two whose raw bytes fit in
/// [`CHUNK_BYTES`]. A power of two, so that `read_binary`'s output, grown a
/// chunk at a time, ends at the capacity of a `Vec` grown one push at a
/// time (a power of two), not at up to twice that: at 2^20 width-16
/// records the larger block was mapped afresh, and page-faulted, on every
/// read.
fn chunk_records(record_bytes: usize) -> usize {
    1 << (CHUNK_BYTES / record_bytes).ilog2()
}

/// A streaming reader for the compact binary framing. It reads and decodes a
/// chunk of whole records at a time (at most 16 KiB of raw input) and holds
/// at most one chunk, whatever record count the header claims.
#[derive(Debug)]
pub struct BinaryReader<R: Read> {
    chunks: ChunkDecoder<R>,
    width: usize,
    /// Records the header promises that have not been yielded yet.
    remaining: u64,
    /// The current chunk's records, and the index of the next to yield.
    chunk: Vec<TraceRecord>,
    next: usize,
    /// The error that cut the current chunk short, yielded after its records.
    error: Option<TraceError>,
}

/// The one binary decode path, shared by [`BinaryReader`] and
/// [`read_binary`].
#[derive(Debug)]
struct ChunkDecoder<R: Read> {
    reader: R,
    mask: u64,
    /// Bytes per operand: `width.div_ceil(8)`, so `1..=8`.
    nb: usize,
    /// Records the header promises that have not been read yet.
    unread: u64,
    /// Ordinal of the next record to read, for error messages (header = 1).
    ordinal: u64,
    /// Room for one chunk of raw records.
    raw: Vec<u8>,
}

impl<R: Read> BinaryReader<R> {
    /// Opens a reader with default [`TraceLimits`], parsing the header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/unsupported header.
    pub fn new(reader: R) -> Result<BinaryReader<R>, TraceError> {
        BinaryReader::with_limits(reader, TraceLimits::default())
    }

    /// Opens a reader with explicit limits, parsing the header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a malformed/unsupported header, or a declared
    /// record count beyond [`TraceLimits::max_records`].
    pub fn with_limits(mut reader: R, limits: TraceLimits) -> Result<BinaryReader<R>, TraceError> {
        let mut header = [0u8; 14];
        reader
            .read_exact(&mut header)
            .map_err(|e| TraceError::Header(format!("short header: {e}")))?;
        if header[..4] != BINARY_MAGIC {
            return Err(TraceError::Header("bad magic (want SPTB)".to_owned()));
        }
        if header[4] != BINARY_VERSION {
            return Err(TraceError::Header(format!(
                "unsupported version {} (this reader speaks version {BINARY_VERSION})",
                header[4]
            )));
        }
        let width = header[5] as usize;
        check_width(width)?;
        let count = u64::from_le_bytes(header[6..14].try_into().expect("8 header bytes"));
        if count > limits.max_records {
            return Err(TraceError::TooManyRecords {
                limit: limits.max_records,
            });
        }
        let nb = width.div_ceil(8);
        let record_bytes = 2 * nb + 1;
        let chunk_records = count.min(chunk_records(record_bytes) as u64) as usize;
        Ok(BinaryReader {
            chunks: ChunkDecoder {
                reader,
                mask: width_mask(width),
                nb,
                unread: count,
                ordinal: 2,
                raw: vec![0; chunk_records * record_bytes],
            },
            width,
            remaining: count,
            chunk: Vec::new(),
            next: 0,
            error: None,
        })
    }

    /// The operand width declared by the header.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Records the header still promises.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<R: Read> ChunkDecoder<R> {
    /// Reads the next chunk, never past the header's record count, and
    /// appends its records to `out`. On an error `out` gains the records
    /// before the failing one, and the decoder reads nothing more.
    fn read_chunk(&mut self, out: &mut Vec<TraceRecord>) -> Result<(), TraceError> {
        let record_bytes = 2 * self.nb + 1;
        let records = self.unread.min((self.raw.len() / record_bytes) as u64) as usize;
        let (filled, short) = fill(&mut self.reader, &mut self.raw[..records * record_bytes]);
        let whole = filled / record_bytes;
        let raw = &self.raw[..whole * record_bytes];
        let (mask, line) = (self.mask, self.ordinal);
        let decoded = match self.nb {
            1 => decode_chunk::<1>(raw, mask, line, out),
            2 => decode_chunk::<2>(raw, mask, line, out),
            3 => decode_chunk::<3>(raw, mask, line, out),
            4 => decode_chunk::<4>(raw, mask, line, out),
            5 => decode_chunk::<5>(raw, mask, line, out),
            6 => decode_chunk::<6>(raw, mask, line, out),
            7 => decode_chunk::<7>(raw, mask, line, out),
            8 => decode_chunk::<8>(raw, mask, line, out),
            nb => unreachable!("a width of 1..=64 has 1..=8 operand bytes, not {nb}"),
        };
        self.unread -= whole as u64;
        self.ordinal += whole as u64;
        let result = decoded.and_then(|()| match short {
            None => Ok(()),
            Some(e) => Err(TraceError::Record {
                line: self.ordinal,
                message: format!("short record: {e}"),
            }),
        });
        if result.is_err() {
            self.unread = 0;
        }
        result
    }
}

/// Reads into `buf` until it is full, the stream ends or a read fails,
/// retrying interrupted reads as `read_exact` does. Returns the bytes read
/// and, if they fall short of `buf.len()`, why.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> (usize, Option<std::io::Error>) {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                let eof = std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                );
                return (filled, Some(eof));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return (filled, Some(e)),
        }
    }
    (filled, None)
}

/// The operands and flags byte of one record of `NB`-byte operands.
fn record_fields<const NB: usize>(record: &[u8]) -> (u64, u64, u8) {
    let word = |bytes: &[u8]| {
        let mut word = [0u8; 8];
        word[..NB].copy_from_slice(&bytes[..NB]);
        u64::from_le_bytes(word)
    };
    (word(&record[..NB]), word(&record[NB..]), record[2 * NB])
}

/// The record checks, in the order their errors are reported.
fn check_record(a: u64, b: u64, flags: u8, mask: u64, line: u64) -> Result<(), TraceError> {
    let fail = |message: String| Err(TraceError::Record { line, message });
    for (key, value) in [("a", a), ("b", b)] {
        if value & !mask != 0 {
            return fail(format!(
                "field {key:?} value {value} exceeds the trace width"
            ));
        }
    }
    if flags > 1 {
        return fail(format!("flags byte must be 0 or 1, got {flags}"));
    }
    Ok(())
}

/// Decodes the whole records in `raw` onto `out`. The operand byte count is
/// a const parameter so the loop has a fixed stride and fixed-size loads;
/// `line` is the first record's ordinal. If a record is invalid, `out` keeps
/// only the records before it and its error is returned.
fn decode_chunk<const NB: usize>(
    raw: &[u8],
    mask: u64,
    line: u64,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let start = out.len();
    let mut invalid = 0u64;
    out.extend(raw.chunks_exact(2 * NB + 1).map(|record| {
        let (a, b, flags) = record_fields::<NB>(record);
        invalid |= (a | b) & !mask | u64::from(flags > 1);
        TraceRecord {
            a,
            b,
            cin: flags == 1,
        }
    }));
    if invalid == 0 {
        return Ok(());
    }
    // At most once per stream: find the first invalid record and report it.
    let (i, error) = raw
        .chunks_exact(2 * NB + 1)
        .enumerate()
        .find_map(|(i, record)| {
            let (a, b, flags) = record_fields::<NB>(record);
            check_record(a, b, flags, mask, line + i as u64)
                .err()
                .map(|e| (i, e))
        })
        .expect("the chunk holds an invalid record");
    out.truncate(start + i);
    Err(error)
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.chunk.len() {
            if self.chunks.unread > 0 {
                self.chunk.clear();
                self.next = 0;
                self.error = self.chunks.read_chunk(&mut self.chunk).err();
            }
            if self.next == self.chunk.len() {
                return self.error.take().map(Err);
            }
        }
        let record = self.chunk[self.next];
        self.next += 1;
        self.remaining -= 1;
        Some(Ok(record))
    }
}

/// Convenience: reads a whole NDJSON trace into memory, returning
/// `(width, records)`.
///
/// # Errors
///
/// Propagates any reader error.
pub fn read_ndjson<R: BufRead>(reader: R) -> Result<(usize, Vec<TraceRecord>), TraceError> {
    let reader = NdjsonReader::new(reader)?;
    let width = reader.width();
    let records = reader.collect::<Result<Vec<_>, _>>()?;
    Ok((width, records))
}

/// Convenience: reads a whole binary trace into memory, returning
/// `(width, records)`.
///
/// # Errors
///
/// Propagates any reader error.
pub fn read_binary<R: Read>(reader: R) -> Result<(usize, Vec<TraceRecord>), TraceError> {
    let reader = BinaryReader::new(reader)?;
    let (width, mut chunks) = (reader.width, reader.chunks);
    let mut records = Vec::new();
    while chunks.unread > 0 {
        chunks.read_chunk(&mut records)?;
    }
    Ok((width, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_sim::Xoshiro256pp;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(13, 77, false),
            TraceRecord::new(0, 255, true),
            TraceRecord::new(200, 3, false),
        ]
    }

    #[test]
    fn ndjson_round_trip() {
        let mut buf = Vec::new();
        write_ndjson(&mut buf, 8, sample()).expect("write");
        let (width, records) = read_ndjson(buf.as_slice()).expect("read");
        assert_eq!(width, 8);
        assert_eq!(records, sample());
    }

    #[test]
    fn ndjson_accepts_whitespace_and_bool_cin() {
        let text = "{\"sealpaa_trace\": 1, \"width\": 4}\n{ \"a\": 3 , \"b\": 9, \"cin\": true }\n\n{\"cin\":false,\"b\":1,\"a\":2}\n";
        let (width, records) = read_ndjson(text.as_bytes()).expect("read");
        assert_eq!(width, 4);
        assert_eq!(
            records,
            vec![TraceRecord::new(3, 9, true), TraceRecord::new(2, 1, false)]
        );
    }

    #[test]
    fn ndjson_rejects_bad_headers() {
        for (text, needle) in [
            ("", "empty"),
            ("{\"width\":4}\n", "sealpaa_trace"),
            ("{\"sealpaa_trace\":2,\"width\":4}\n", "version 2"),
            ("{\"sealpaa_trace\":1}\n", "width"),
            ("{\"sealpaa_trace\":1,\"width\":0}\n", "1..=64"),
            ("{\"sealpaa_trace\":1,\"width\":65}\n", "1..=64"),
            (
                "{\"sealpaa_trace\":1,\"width\":4,\"x\":1}\n",
                "unknown field",
            ),
            ("width=4\n", "JSON object"),
        ] {
            let err = read_ndjson(text.as_bytes()).expect_err(text).to_string();
            assert!(err.contains(needle), "{text:?}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn ndjson_rejects_bad_records() {
        for (record, needle) in [
            ("{\"a\":1}", "\"b\""),
            ("{\"b\":1}", "\"a\""),
            ("{\"a\":1,\"b\":2,\"c\":3}", "unknown field"),
            ("{\"a\":1,\"a\":2,\"b\":3}", "duplicate"),
            ("{\"a\":16,\"b\":0}", "exceeds the trace width"),
            ("{\"a\":1,\"b\":2,\"cin\":2}", "0 or 1"),
            ("{\"a\":-1,\"b\":2}", "unsigned integer"),
            ("{\"a\":1.5,\"b\":2}", "expected ','"),
            ("{\"a\":99999999999999999999,\"b\":2}", "64 bits"),
        ] {
            let text = format!("{{\"sealpaa_trace\":1,\"width\":4}}\n{record}\n");
            let err = read_ndjson(text.as_bytes()).expect_err(record).to_string();
            assert!(err.contains("line 2"), "{record:?}: {err}");
            assert!(err.contains(needle), "{record:?}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn ndjson_line_limit_is_enforced_while_reading() {
        // A newline-free flood: the reader must fail at the limit without
        // buffering the whole stream.
        let mut text = b"{\"sealpaa_trace\":1,\"width\":4}\n".to_vec();
        text.resize(text.len() + 4096, b'x');
        let reader = NdjsonReader::with_limits(
            text.as_slice(),
            TraceLimits {
                max_line_bytes: 128,
                max_records: 1 << 32,
            },
        )
        .expect("header fits");
        let err = reader
            .collect::<Result<Vec<_>, _>>()
            .expect_err("flood rejected");
        assert!(
            matches!(err, TraceError::LineTooLong { limit: 128, .. }),
            "{err}"
        );
    }

    #[test]
    fn record_limits_are_enforced() {
        let limits = TraceLimits {
            max_line_bytes: 1 << 16,
            max_records: 2,
        };
        let mut buf = Vec::new();
        write_ndjson(&mut buf, 8, sample()).expect("write");
        let err = NdjsonReader::with_limits(buf.as_slice(), limits)
            .expect("header")
            .collect::<Result<Vec<_>, _>>()
            .expect_err("over the record limit");
        assert!(
            matches!(err, TraceError::TooManyRecords { limit: 2 }),
            "{err}"
        );

        let mut buf = Vec::new();
        write_binary(&mut buf, 8, &sample()).expect("write");
        let err = BinaryReader::with_limits(buf.as_slice(), limits).expect_err("header rejects");
        assert!(
            matches!(err, TraceError::TooManyRecords { limit: 2 }),
            "{err}"
        );
    }

    fn below(rng: &mut Xoshiro256pp, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// What the iterator yields for a stream: records, then at most one
    /// error, which is compared by its `Debug` form (variant, ordinal and
    /// message).
    type Items = Vec<Result<TraceRecord, String>>;

    /// The binary framing decoded one record at a time, written
    /// independently of the reader: the header's width (or its error) and
    /// the items. A read past the end of `stream` fails with `end`.
    fn oracle(stream: &[u8], end: &str) -> Result<(usize, Items), String> {
        let debug = |e: TraceError| format!("{e:?}");
        let header = |message: String| Err(debug(TraceError::Header(message)));
        if stream.len() < 14 {
            return header(format!("short header: {end}"));
        }
        if &stream[..4] != b"SPTB" {
            return header("bad magic (want SPTB)".to_owned());
        }
        if stream[4] != 1 {
            return header(format!(
                "unsupported version {} (this reader speaks version 1)",
                stream[4]
            ));
        }
        let width = usize::from(stream[5]);
        if !(1..=64).contains(&width) {
            return Err(debug(TraceError::InvalidWidth { width }));
        }
        let count = u64::from_le_bytes(stream[6..14].try_into().expect("8 bytes"));
        if count > 1 << 32 {
            return Err(debug(TraceError::TooManyRecords { limit: 1 << 32 }));
        }
        let nb = width.div_ceil(8);
        let mut body = &stream[14..];
        let mut items = Vec::new();
        for line in 2..count + 2 {
            let fail = |message: String| Err(debug(TraceError::Record { line, message }));
            if body.len() < 2 * nb + 1 {
                items.push(fail(format!("short record: {end}")));
                break;
            }
            let operand = |bytes: &[u8]| {
                bytes
                    .iter()
                    .rev()
                    .fold(0u64, |word, &byte| word << 8 | u64::from(byte))
            };
            let (a, b, flags) = (
                operand(&body[..nb]),
                operand(&body[nb..2 * nb]),
                body[2 * nb],
            );
            let too_wide = |value: u64| width < 64 && value >> width != 0;
            let item = if too_wide(a) {
                fail(format!("field \"a\" value {a} exceeds the trace width"))
            } else if too_wide(b) {
                fail(format!("field \"b\" value {b} exceeds the trace width"))
            } else if flags > 1 {
                fail(format!("flags byte must be 0 or 1, got {flags}"))
            } else {
                Ok(TraceRecord::new(a, b, flags == 1))
            };
            let failed = item.is_err();
            items.push(item);
            if failed {
                break;
            }
            body = &body[2 * nb + 1..];
        }
        Ok((width, items))
    }

    /// Serves a stream in reads of random length up to `max` bytes, with
    /// the odd `Interrupted`; past the end it returns EOF, or fails with
    /// `fail` if set.
    struct HostileReader<'a> {
        stream: &'a [u8],
        max: usize,
        fail: Option<&'static str>,
        rng: Xoshiro256pp,
    }

    impl Read for HostileReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if below(&mut self.rng, 8) == 0 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            if self.stream.is_empty() {
                return match self.fail {
                    Some(message) => Err(std::io::Error::other(message)),
                    None => Ok(0),
                };
            }
            let n = (1 + below(&mut self.rng, self.max))
                .min(buf.len())
                .min(self.stream.len());
            buf[..n].copy_from_slice(&self.stream[..n]);
            self.stream = &self.stream[n..];
            Ok(n)
        }
    }

    /// Reads `stream` through the iterator and through `read_binary`, each
    /// over random short reads, checks both against the oracle, and returns
    /// the iterator's view.
    fn read_both(
        stream: &[u8],
        fail: Option<&'static str>,
        rng: &mut Xoshiro256pp,
        context: &str,
    ) -> Result<(usize, Items), String> {
        let end = fail.unwrap_or("failed to fill whole buffer");
        let expected = oracle(stream, end);
        let mut hostile = || {
            let max = match below(rng, 4) {
                0 => 1,
                1 => 1 + below(rng, 64),
                2 => 1 + below(rng, stream.len().max(1)),
                _ => stream.len().max(1),
            };
            let rng = Xoshiro256pp::seed_from_u64(rng.next_u64());
            HostileReader {
                stream,
                max,
                fail,
                rng,
            }
        };
        let iterated = BinaryReader::new(hostile())
            .map_err(|e| format!("{e:?}"))
            .map(|mut reader| {
                let width = reader.width();
                let count = u64::from_le_bytes(stream[6..14].try_into().expect("whole header"));
                let (mut items, mut yielded) = (Vec::new(), 0);
                let most = chunk_records(2 * reader.chunks.nb + 1);
                while let Some(item) = reader.next() {
                    assert!(reader.chunks.raw.len() <= CHUNK_BYTES, "{context}");
                    assert!(reader.chunk.capacity() <= most, "{context}");
                    yielded += u64::from(item.is_ok());
                    assert_eq!(reader.remaining(), count - yielded, "{context}");
                    items.push(item.map_err(|e| format!("{e:?}")));
                }
                (width, items)
            });
        assert_eq!(iterated, expected, "{context}: iterator");
        let whole = read_binary(hostile()).map_err(|e| format!("{e:?}"));
        let expected_whole = expected.and_then(|(width, items)| {
            let records = items.into_iter().collect::<Result<Vec<_>, _>>()?;
            Ok((width, records))
        });
        assert_eq!(whole, expected_whole, "{context}: read_binary");
        iterated
    }

    fn ends_in_error(read: &Result<(usize, Items), String>) -> bool {
        read.as_ref()
            .map_or(true, |(_, items)| items.last().is_some_and(Result::is_err))
    }

    fn encode(width: usize, records: &[TraceRecord]) -> Vec<u8> {
        let mut stream = Vec::new();
        write_binary(&mut stream, width, records).expect("in-memory write");
        stream
    }

    #[test]
    fn binary_reader_matches_a_per_record_oracle_on_hostile_input() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5EED);

        // Fixed inputs: round trips at byte-boundary widths, then damage.
        for width in [1usize, 7, 8, 9, 33, 64] {
            let mask = width_mask(width);
            let records: Vec<TraceRecord> = sample()
                .into_iter()
                .map(|r| TraceRecord::new(r.a & mask, r.b & mask, r.cin))
                .collect();
            let items = records.iter().copied().map(Ok).collect();
            let stream = encode(width, &records);
            assert_eq!(
                read_both(&stream, None, &mut rng, &format!("width {width}")),
                Ok((width, items))
            );
        }
        let good = encode(8, &sample());
        let last = good.len() - 1;
        let damaged = |damage: &dyn Fn(&mut Vec<u8>)| {
            let mut stream = good.clone();
            damage(&mut stream);
            stream
        };
        for (stream, needle) in [
            (damaged(&|s| s[0] = b'X'), "magic"),
            (damaged(&|s| s[4] = 9), "version 9"),
            (damaged(&|s| s[5] = 65), "1..=64"),
            (damaged(&|s| s.truncate(last)), "line 4: short record"),
            (
                damaged(&|s| s[last] = 7),
                "line 4: flags byte must be 0 or 1, got 7",
            ),
        ] {
            let error = read_binary(stream.as_slice())
                .expect_err(needle)
                .to_string();
            assert!(error.contains(needle), "{error} (wanted {needle})");
            let iterated = read_both(&stream, None, &mut rng, needle);
            assert!(ends_in_error(&iterated), "{needle}");
        }

        // A header that promises 2^32 records over an empty body holds one
        // chunk at most and fails at the first record.
        let mut claim = encode(8, &[]);
        claim[6..14].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let reader = BinaryReader::new(claim.as_slice()).expect("header");
        assert!(reader.chunks.raw.len() <= CHUNK_BYTES);
        let error = read_binary(claim.as_slice()).expect_err("empty body");
        assert!(
            matches!(&error, TraceError::Record { line: 2, message } if message.starts_with("short record")),
            "{error}"
        );
        let iterated = read_both(&claim, None, &mut rng, "2^32 claim");
        assert!(ends_in_error(&iterated));

        for width in 1..=64usize {
            let mask = width_mask(width);
            let nb = width.div_ceil(8);
            let record_bytes = 2 * nb + 1;
            let chunk = chunk_records(record_bytes);
            for count in [
                0,
                1,
                chunk - 1,
                chunk,
                chunk + 1,
                2 * chunk + 1 + below(&mut rng, chunk),
            ] {
                let context = format!("width {width}, {count} records");
                let records: Vec<TraceRecord> = (0..count)
                    .map(|_| {
                        let r = rng.next_u64();
                        TraceRecord::new(rng.next_u64() & mask, r & mask, r >> 63 == 1)
                    })
                    .collect();
                let stream = encode(width, &records);
                let items = records.iter().copied().map(Ok).collect();
                assert_eq!(
                    read_both(&stream, None, &mut rng, &context),
                    Ok((width, items)),
                    "{context}"
                );

                // A cut at a random byte: the complete records before it,
                // then `short record` at the cut record (`Header` inside the
                // header), whether the reader reports EOF or an error.
                let cut = below(&mut rng, stream.len());
                let fail = [None, Some("link reset")][below(&mut rng, 2)];
                let got = read_both(
                    &stream[..cut],
                    fail,
                    &mut rng,
                    &format!("{context}, cut {cut}"),
                );
                match cut.checked_sub(14) {
                    None => assert!(got
                        .expect_err("cut header")
                        .starts_with("Header(\"short header")),
                    Some(body) => {
                        let (_, mut items) = got.expect("the header is whole");
                        let whole = body / record_bytes;
                        let error = items.pop().expect("an error item").expect_err("last item");
                        assert_eq!(
                            items,
                            records[..whole].iter().copied().map(Ok).collect::<Items>()
                        );
                        let line = whole + 2;
                        assert!(
                            error.starts_with(&format!(
                                "Record {{ line: {line}, message: \"short record"
                            )),
                            "{error}"
                        );
                    }
                }

                // One bad record: any mix of an `a` or `b` bit above the
                // width (where the top byte has one) and a flags byte above 1.
                if count > 0 {
                    let k = below(&mut rng, count);
                    let at = 14 + k * record_bytes;
                    let mut bad = stream.clone();
                    let fields = if width % 8 == 0 {
                        4
                    } else {
                        1 + below(&mut rng, 7)
                    };
                    if fields & 1 != 0 {
                        bad[at + nb - 1] |= 0x80;
                    }
                    if fields & 2 != 0 {
                        bad[at + 2 * nb - 1] |= 0x80;
                    }
                    if fields & 4 != 0 {
                        bad[at + 2 * nb] = 2 + below(&mut rng, 254) as u8;
                    }
                    let (_, items) =
                        read_both(&bad, None, &mut rng, &format!("{context}, bad record {k}"))
                            .expect("the header is whole");
                    assert_eq!(items.len(), k + 1, "{context}");
                }

                // A header that promises fewer records than follow leaves the
                // rest of the stream unread.
                let promised = below(&mut rng, count + 1);
                let mut short = stream.clone();
                short[6..14].copy_from_slice(&(promised as u64).to_le_bytes());
                let mut rest = short.as_slice();
                let (_, got) = read_binary(&mut rest).expect("promised records are whole");
                assert_eq!(got, records[..promised], "{context}");
                assert_eq!(rest, &short[14 + promised * record_bytes..], "{context}");
            }
        }
    }

    /// Reads an NDJSON stream through random short reads and a small
    /// buffer, checking after every item that the reader holds no more than
    /// `limit` bytes of a line.
    fn read_ndjson_items(
        stream: &[u8],
        limit: usize,
        rng: &mut Xoshiro256pp,
    ) -> Result<(usize, Items), String> {
        let hostile = HostileReader {
            stream,
            max: 1 + below(rng, 96),
            fail: None,
            rng: Xoshiro256pp::seed_from_u64(rng.next_u64()),
        };
        let buffered = std::io::BufReader::with_capacity(1 + below(rng, 48), hostile);
        let limits = TraceLimits {
            max_line_bytes: limit,
            max_records: 1 << 32,
        };
        let mut reader =
            NdjsonReader::with_limits(buffered, limits).map_err(|e| format!("{e:?}"))?;
        let mut items = Vec::new();
        while let Some(item) = reader.next() {
            assert!(reader.buf.len() <= limit, "buffered past the line limit");
            items.push(item.map_err(|e| format!("{e:?}")));
        }
        assert!(reader.next().is_none(), "the reader stops after an error");
        Ok((reader.width(), items))
    }

    #[test]
    fn ndjson_reader_yields_a_clean_prefix_then_an_error_on_hostile_input() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x4D15);
        // Bytes that no valid trace line holds anywhere.
        const POISON: [u8; 8] = [b'x', b'#', 0, 0xFF, b'-', b'.', b'[', b']'];
        for case in 0..400 {
            let width = 1 + below(&mut rng, 64);
            let mask = width_mask(width);
            let records: Vec<TraceRecord> = (0..below(&mut rng, 40))
                .map(|_| {
                    let cin = rng.next_u64() & 1 == 1;
                    TraceRecord::new(rng.next_u64() & mask, rng.next_u64() & mask, cin)
                })
                .collect();
            let mut clean = Vec::new();
            write_ndjson(&mut clean, width, records.iter().copied()).expect("in-memory write");
            // The longest clean line is 59 bytes, so every limit admits it.
            let limit = 64 + below(&mut rng, 64);
            let ok = |n: usize| records[..n].iter().copied().map(Ok).collect::<Items>();
            let got = read_ndjson_items(&clean, limit, &mut rng);
            assert_eq!(got, Ok((width, ok(records.len()))), "case {case}: clean");

            // Byte ranges of the lines, newline excluded: the header, then
            // record `k` at `lines[k + 1]`.
            let mut lines = Vec::new();
            let mut start = 0;
            for (i, &byte) in clean.iter().enumerate() {
                if byte == b'\n' {
                    lines.push(start..i);
                    start = i + 1;
                }
            }
            let line_of = |at: usize| lines.iter().position(|l| at <= l.end).expect("in a line");
            let context = format!("case {case}, width {width}, {} records", records.len());
            // What damage to line `line` must yield: the records before it,
            // then one error; damage to the header fails the open.
            let check = |got: Result<(usize, Items), String>, line: usize, what: &str| {
                if line == 0 {
                    assert!(got.is_err(), "{context}: {what} in the header");
                    return;
                }
                let (_, mut items) = got.unwrap_or_else(|e| panic!("{context}: {what}: {e}"));
                let error = items.pop().expect("an item").expect_err(what);
                assert_eq!(items, ok(line - 1), "{context}: {what}");
                assert!(
                    error.contains(&format!("line: {}", line + 1)),
                    "{context}: {what}: {error}"
                );
            };

            // A cut anywhere: the whole lines before it, and the cut line
            // too if only its newline was lost; otherwise an error.
            let cut = below(&mut rng, clean.len() + 1);
            let got = read_ndjson_items(&clean[..cut], limit, &mut rng);
            match lines.iter().position(|l| cut <= l.end) {
                None => assert_eq!(got, Ok((width, ok(records.len()))), "{context}: cut {cut}"),
                Some(line) if cut == lines[line].end || cut == lines[line].start => {
                    let whole = if cut == lines[line].end {
                        line + 1
                    } else {
                        line
                    };
                    if whole == 0 {
                        assert!(got.is_err(), "{context}: cut {cut}");
                    } else {
                        assert_eq!(got, Ok((width, ok(whole - 1))), "{context}: cut {cut}");
                    }
                }
                Some(line) => check(got, line, &format!("cut {cut}")),
            }

            // One poisoned byte (a newline joins two lines into one bad one).
            let at = below(&mut rng, clean.len());
            let mut bad = clean.clone();
            bad[at] = POISON[below(&mut rng, POISON.len())];
            check(
                read_ndjson_items(&bad, limit, &mut rng),
                line_of(at),
                &format!("poison at {at}"),
            );

            if records.is_empty() {
                continue;
            }
            let k = below(&mut rng, records.len());
            let line = k + 1;
            let splice = |replacement: &str| {
                let mut bad = clean[..lines[line].start].to_vec();
                bad.extend_from_slice(replacement.as_bytes());
                bad.extend_from_slice(&clean[lines[line].end..]);
                bad
            };
            let r = records[k];
            // An over-long line, and a newline-free flood after the last one.
            let padded = format!("{{\"a\":{},{}\"b\":{}}}", r.a, " ".repeat(limit), r.b);
            check(
                read_ndjson_items(&splice(&padded), limit, &mut rng),
                line,
                "long line",
            );
            let mut flood = clean.clone();
            flood.resize(clean.len() + limit + 1 + below(&mut rng, 4096), b' ');
            check(
                read_ndjson_items(&flood, limit, &mut rng),
                lines.len(),
                "flood",
            );
            // Out-of-range numbers: past the width, past 64 bits, a carry-in
            // other than 0 or 1.
            let wide = if width < 64 {
                format!("{}", r.a | 1 << (width + below(&mut rng, 64 - width)))
            } else {
                format!("{}{}", u64::MAX, below(&mut rng, 10))
            };
            let cin = 2 + below(&mut rng, 1000);
            for value in [
                format!("{{\"a\":{wide},\"b\":{}}}", r.b),
                format!(
                    "{{\"a\":{},\"b\":{}{}}}",
                    r.a,
                    u64::MAX,
                    below(&mut rng, 10)
                ),
                format!("{{\"a\":{},\"b\":{},\"cin\":{cin}}}", r.a, r.b),
            ] {
                check(
                    read_ndjson_items(&splice(&value), limit, &mut rng),
                    line,
                    &value,
                );
            }
        }
    }

    #[test]
    fn writers_mask_out_of_range_operands() {
        let wide = vec![TraceRecord::new(0x1ff, 0x100, false)];
        let mut buf = Vec::new();
        write_ndjson(&mut buf, 8, wide.clone()).expect("write");
        let (_, records) = read_ndjson(buf.as_slice()).expect("read");
        assert_eq!(records, vec![TraceRecord::new(0xff, 0, false)]);

        let mut buf = Vec::new();
        write_binary(&mut buf, 8, &wide).expect("write");
        let (_, records) = read_binary(buf.as_slice()).expect("read");
        assert_eq!(records, vec![TraceRecord::new(0xff, 0, false)]);
    }

    #[test]
    fn invalid_widths_rejected() {
        for width in [0usize, 65] {
            assert!(matches!(
                write_ndjson(Vec::new(), width, []),
                Err(TraceError::InvalidWidth { .. })
            ));
            assert!(matches!(
                write_binary(Vec::new(), width, &[]),
                Err(TraceError::InvalidWidth { .. })
            ));
        }
    }
}
