//! Durable cache snapshots: the warm-restart format behind `--cache-snapshot`.
//!
//! A snapshot is the [`ResultCache`](crate::cache::ResultCache) export —
//! `(canonical key, rendered result)` pairs in least-recently-used-first
//! order — framed the same way as the `sealpaa-trace` binary format: a
//! magic/version header, length-prefixed records, and a trailing checksum.
//! Re-inserting the pairs in file order into an empty cache of the same
//! capacity reproduces both the cached answers and the per-shard eviction
//! order, so a restarted daemon picks up exactly where the old one left off.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    4 bytes  b"SPCS"
//! version  1 byte   0x01
//! reserved 1 byte   0x00
//! count    u64      number of records
//! record   repeated count times:
//!   key_len   u32
//!   value_len u32
//!   key       key_len bytes of UTF-8
//!   value     value_len bytes of UTF-8
//! checksum u64      FNV-1a 64 over every record byte (not the header)
//! ```
//!
//! The reader is bounded and streaming: it enforces caller-supplied
//! [`SnapshotLimits`] before allocating, so a truncated, version-bumped, or
//! bit-flipped file — or a hostile one claiming billions of entries — is
//! rejected with a structured [`SnapshotError`] using O(record) memory, and
//! the daemon simply starts cold. Writes go to a sibling temp file which is
//! fsynced and atomically renamed into place, so a crash mid-write never
//! clobbers the previous good snapshot.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::fnv::Fnv1a;

/// File magic: **S**eal**P**aa **C**ache **S**napshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SPCS";

/// Current format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Bounds enforced while reading a snapshot, before any allocation sized by
/// file contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotLimits {
    /// Maximum number of records accepted. The server passes its configured
    /// cache capacity: a snapshot larger than the cache could hold is either
    /// corrupt or from an incompatible configuration.
    pub max_entries: u64,
    /// Maximum size of a single key or value, in bytes.
    pub max_entry_bytes: u32,
}

impl Default for SnapshotLimits {
    fn default() -> SnapshotLimits {
        SnapshotLimits {
            max_entries: 1 << 20,
            max_entry_bytes: 4 << 20,
        }
    }
}

/// Why a snapshot file was rejected. Every variant leaves the caller free to
/// start cold; none of them is a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O error (file missing, permission, short device...).
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The reserved header byte is nonzero.
    BadReserved(u8),
    /// The file ended before the declared records (and checksum) did.
    Truncated,
    /// The header declares more records than [`SnapshotLimits::max_entries`].
    TooManyEntries {
        /// Declared record count.
        declared: u64,
        /// The enforced bound.
        limit: u64,
    },
    /// A record declares a key or value larger than
    /// [`SnapshotLimits::max_entry_bytes`].
    EntryTooLarge {
        /// Declared length in bytes.
        declared: u32,
        /// The enforced bound.
        limit: u32,
    },
    /// The stored checksum does not match the record bytes.
    ChecksumMismatch {
        /// Checksum read from the file.
        stored: u64,
        /// Checksum computed over the records actually read.
        computed: u64,
    },
    /// Extra bytes follow the checksum.
    TrailingData,
    /// A key or value is not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::BadMagic(magic) => {
                write!(f, "bad snapshot magic {magic:?} (expected \"SPCS\")")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads version {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadReserved(b) => {
                write!(f, "nonzero reserved header byte {b:#04x}")
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::TooManyEntries { declared, limit } => {
                write!(
                    f,
                    "snapshot declares {declared} entries, more than the limit of {limit}"
                )
            }
            SnapshotError::EntryTooLarge { declared, limit } => {
                write!(
                    f,
                    "snapshot entry of {declared} bytes exceeds the limit of {limit}"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SnapshotError::TrailingData => {
                write!(f, "snapshot has trailing bytes after the checksum")
            }
            SnapshotError::InvalidUtf8 => write!(f, "snapshot entry is not valid UTF-8"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> SnapshotError {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(err)
        }
    }
}

/// Writes `entries` to `path` atomically: the bytes go to a sibling
/// `.tmp` file which is flushed, fsynced, and renamed over `path`, so
/// readers only ever observe the previous complete snapshot or the new one.
///
/// # Errors
///
/// Returns the underlying I/O error; the previous snapshot (if any) is left
/// untouched.
pub fn write_snapshot(path: &Path, entries: &[(String, String)]) -> io::Result<()> {
    let tmp = sibling_tmp_path(path);
    let result = (|| -> io::Result<()> {
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        let mut checksum = Fnv1a::new();
        writer.write_all(&SNAPSHOT_MAGIC)?;
        writer.write_all(&[SNAPSHOT_VERSION, 0])?;
        writer.write_all(&(entries.len() as u64).to_le_bytes())?;
        for (key, value) in entries {
            let mut record = Vec::with_capacity(8 + key.len() + value.len());
            record.extend_from_slice(&(key.len() as u32).to_le_bytes());
            record.extend_from_slice(&(value.len() as u32).to_le_bytes());
            record.extend_from_slice(key.as_bytes());
            record.extend_from_slice(value.as_bytes());
            checksum.update(&record);
            writer.write_all(&record)?;
        }
        writer.write_all(&checksum.finish().to_le_bytes())?;
        let file = writer
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the error we report is the write failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn sibling_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads a snapshot from `path`, enforcing `limits` before any
/// contents-sized allocation.
///
/// # Errors
///
/// Returns a [`SnapshotError`] describing the first problem found; partial
/// results are never returned.
pub fn read_snapshot(
    path: &Path,
    limits: SnapshotLimits,
) -> Result<Vec<(String, String)>, SnapshotError> {
    let file = File::open(path).map_err(SnapshotError::Io)?;
    let mut reader = BufReader::new(file);

    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let mut head = [0u8; 2];
    reader.read_exact(&mut head)?;
    if head[0] != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(head[0]));
    }
    if head[1] != 0 {
        return Err(SnapshotError::BadReserved(head[1]));
    }
    let count = read_u64(&mut reader)?;
    if count > limits.max_entries {
        return Err(SnapshotError::TooManyEntries {
            declared: count,
            limit: limits.max_entries,
        });
    }

    let mut checksum = Fnv1a::new();
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut lens = [0u8; 8];
        reader.read_exact(&mut lens)?;
        checksum.update(&lens);
        let key_len = u32::from_le_bytes(lens[0..4].try_into().expect("4 bytes"));
        let value_len = u32::from_le_bytes(lens[4..8].try_into().expect("4 bytes"));
        for len in [key_len, value_len] {
            if len > limits.max_entry_bytes {
                return Err(SnapshotError::EntryTooLarge {
                    declared: len,
                    limit: limits.max_entry_bytes,
                });
            }
        }
        let key = read_string(&mut reader, key_len as usize, &mut checksum)?;
        let value = read_string(&mut reader, value_len as usize, &mut checksum)?;
        entries.push((key, value));
    }

    let stored = read_u64(&mut reader)?;
    let computed = checksum.finish();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut probe = [0u8; 1];
    match reader.read(&mut probe).map_err(SnapshotError::Io)? {
        0 => Ok(entries),
        _ => Err(SnapshotError::TrailingData),
    }
}

fn read_u64(reader: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads `len` UTF-8 bytes in bounded chunks, folding them into `checksum`.
fn read_string(
    reader: &mut impl Read,
    len: usize,
    checksum: &mut Fnv1a,
) -> Result<String, SnapshotError> {
    // Chunked so a corrupt length within the per-entry limit still cannot
    // trigger one huge upfront allocation for a file that is mostly absent.
    const CHUNK: usize = 64 * 1024;
    let mut bytes = Vec::new();
    let mut remaining = len;
    let mut chunk = [0u8; CHUNK];
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        reader.read_exact(&mut chunk[..take])?;
        checksum.update(&chunk[..take]);
        bytes.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    String::from_utf8(bytes).map_err(|_| SnapshotError::InvalidUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(String, String)> {
        (0..20)
            .map(|i| {
                (
                    format!("analyze|kind=eta1|n=32|k={i}|p=0.5"),
                    format!("{{\"result\":{{\"value\":{i}.25}}}}"),
                )
            })
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "sealpaa-snapshot-test-{name}-{}",
            std::process::id()
        ));
        path
    }

    #[test]
    fn round_trips_entries_in_order() {
        let path = temp_path("roundtrip");
        let entries = sample_entries();
        write_snapshot(&path, &entries).expect("write");
        let loaded = read_snapshot(&path, SnapshotLimits::default()).expect("read");
        assert_eq!(loaded, entries, "order and contents must survive");
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let path = temp_path("empty");
        write_snapshot(&path, &[]).expect("write");
        let loaded = read_snapshot(&path, SnapshotLimits::default()).expect("read");
        assert!(loaded.is_empty());
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn write_replaces_previous_snapshot_atomically() {
        let path = temp_path("replace");
        write_snapshot(&path, &sample_entries()).expect("first write");
        let second = vec![("k".to_string(), "v".to_string())];
        write_snapshot(&path, &second).expect("second write");
        assert_eq!(
            read_snapshot(&path, SnapshotLimits::default()).expect("read"),
            second
        );
        assert!(
            !sibling_tmp_path(&path).exists(),
            "temp file must not linger"
        );
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("magic");
        write_snapshot(&path, &sample_entries()).expect("write");
        let mut bytes = fs::read(&path).expect("read bytes");
        bytes[0] = b'X';
        fs::write(&path, &bytes).expect("rewrite");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_version_bump() {
        let path = temp_path("version");
        write_snapshot(&path, &sample_entries()).expect("write");
        let mut bytes = fs::read(&path).expect("read bytes");
        bytes[4] = SNAPSHOT_VERSION + 1;
        fs::write(&path, &bytes).expect("rewrite");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, SNAPSHOT_VERSION + 1),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let path = temp_path("truncate");
        write_snapshot(&path, &sample_entries()).expect("write");
        let bytes = fs::read(&path).expect("read bytes");
        // Chop at a spread of prefixes: inside the header, inside a record
        // length, inside record bytes, and inside the checksum.
        for cut in [3, 5, 10, 15, 20, bytes.len() / 2, bytes.len() - 3] {
            fs::write(&path, &bytes[..cut]).expect("rewrite");
            match read_snapshot(&path, SnapshotLimits::default()) {
                Err(SnapshotError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_bit_flips_in_record_bytes() {
        let path = temp_path("bitflip");
        write_snapshot(&path, &sample_entries()).expect("write");
        let bytes = fs::read(&path).expect("read bytes");
        // Flip a bit inside a record payload (past header, before checksum);
        // byte 40 sits inside the first record's key.
        let mut flipped = bytes.clone();
        flipped[40] ^= 0x10;
        fs::write(&path, &flipped).expect("rewrite");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_entry_counts_beyond_the_limit_without_allocating() {
        let path = temp_path("count");
        // A hand-built header claiming u64::MAX entries: the reader must
        // refuse before reserving anything.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&[SNAPSHOT_VERSION, 0]);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).expect("write");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::TooManyEntries { declared, .. }) => {
                assert_eq!(declared, u64::MAX);
            }
            other => panic!("expected TooManyEntries, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_oversized_entries() {
        let path = temp_path("oversize");
        write_snapshot(&path, &[("key".to_string(), "value".to_string())]).expect("write");
        let limits = SnapshotLimits {
            max_entries: 16,
            max_entry_bytes: 4,
        };
        match read_snapshot(&path, limits) {
            Err(SnapshotError::EntryTooLarge { declared, limit }) => {
                assert_eq!(declared, 5);
                assert_eq!(limit, 4);
            }
            other => panic!("expected EntryTooLarge, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_trailing_data() {
        let path = temp_path("trailing");
        write_snapshot(&path, &sample_entries()).expect("write");
        let mut bytes = fs::read(&path).expect("read bytes");
        bytes.push(0);
        fs::write(&path, &bytes).expect("rewrite");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::TrailingData) => {}
            other => panic!("expected TrailingData, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_invalid_utf8() {
        let path = temp_path("utf8");
        write_snapshot(&path, &[("key".to_string(), "value".to_string())]).expect("write");
        let mut bytes = fs::read(&path).expect("read bytes");
        // Corrupt a key byte to an invalid UTF-8 continuation, then fix up
        // the checksum so only the UTF-8 check can object.
        let record_start = 14;
        bytes[record_start + 8] = 0xFF;
        let record_end = bytes.len() - 8;
        let mut checksum = Fnv1a::new();
        checksum.update(&bytes[record_start..record_end]);
        let finish = checksum.finish().to_le_bytes();
        bytes[record_end..].copy_from_slice(&finish);
        fs::write(&path, &bytes).expect("rewrite");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::InvalidUtf8) => {}
            other => panic!("expected InvalidUtf8, got {other:?}"),
        }
        fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_file_reports_io_error() {
        let path = temp_path("missing-never-created");
        match read_snapshot(&path, SnapshotLimits::default()) {
            Err(SnapshotError::Io(err)) => {
                assert_eq!(err.kind(), io::ErrorKind::NotFound);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
