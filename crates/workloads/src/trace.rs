//! Op-level trace recording and replay.
//!
//! Capturing a workload's operation stream once and replaying it bit-for-bit
//! lets the evaluation run *the same program* against different network
//! abstractions, isolating the network's contribution to timing (the replay
//! is still timing-reactive: ops are consumed when the simulated core is
//! ready, so a slower network stretches the same stream over more cycles).
//!
//! Two replay paths exist:
//!
//! * [`TraceReplay`] materializes the whole trace in memory — fine for the
//!   short captures tests use;
//! * [`TraceStream`] replays straight from a `.ratr` file through a
//!   bounded per-core chunk buffer, so traces far larger than RAM stream
//!   through at constant memory.
//!
//! # Wire format (`RATR`)
//!
//! ```text
//! u32 magic "RATR" | u32 cores | per core: u32 count, then `count` ops
//! op: u8 tag (0 compute, 1 load, 2 store) | u32 cycles or u64 address
//! ```
//!
//! All integers are big-endian.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ra_fullsys::workload::{Op, Workload};

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const MAGIC: u32 = 0x5241_5452; // "RATR"
/// Bytes of a per-core op count.
const COUNT_BYTES: usize = 4;
/// Bytes of the smallest op (a compute op's tag and count): what bounds
/// how many ops the bytes left can hold.
const MIN_OP_BYTES: usize = 5;

/// Bytes fetched per streaming refill (bounds `TraceStream` memory at
/// roughly this much per core).
const STREAM_CHUNK_BYTES: usize = 16 * 1024;

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The buffer or file ended before the field being read.
    Truncated {
        /// What was being decoded when the input ran out.
        expected: &'static str,
    },
    /// The leading magic number is not `RATR`.
    BadMagic {
        /// The value found instead.
        found: u32,
    },
    /// An op carried a tag outside the known set.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The underlying file could not be read.
    Io {
        /// Stringified I/O error (kept as text so the kind stays `Eq`).
        detail: String,
    },
}

/// A malformed or unreadable trace, pinpointed by byte offset.
///
/// Chains into the service layer's `SpecError` (and from there into the
/// wire `error_chain`) the same way `ParseModeError` does, so a client
/// submitting a corrupt trace sees the offset and cause, not a bare
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Byte offset into the trace at which decoding failed.
    pub offset: u64,
    /// What went wrong there.
    pub kind: TraceErrorKind,
}

impl TraceError {
    fn new(offset: u64, kind: TraceErrorKind) -> Self {
        TraceError { offset, kind }
    }

    fn io(offset: u64, err: &io::Error) -> Self {
        TraceError::new(
            offset,
            TraceErrorKind::Io {
                detail: err.to_string(),
            },
        )
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace invalid at byte {}: ", self.offset)?;
        match &self.kind {
            TraceErrorKind::Truncated { expected } => {
                write!(f, "input ends inside {expected}")
            }
            TraceErrorKind::BadMagic { found } => {
                write!(f, "magic {found:#010x} is not RATR")
            }
            TraceErrorKind::UnknownTag { tag } => write!(f, "unknown op tag {tag}"),
            TraceErrorKind::Io { detail } => write!(f, "read failed: {detail}"),
        }
    }
}

impl Error for TraceError {}

/// One decoded op and the bytes it consumed, or why decoding stopped.
enum OpDecode {
    Done(Op, usize),
    NeedMore(&'static str),
    BadTag(u8),
}

/// Decodes a single op from the front of `buf` without consuming it.
fn decode_one(buf: &[u8]) -> OpDecode {
    let Some(&tag) = buf.first() else {
        return OpDecode::NeedMore("an op tag");
    };
    match tag {
        TAG_COMPUTE => {
            if buf.len() < 5 {
                return OpDecode::NeedMore("a compute-op payload");
            }
            let n = u32::from_be_bytes(buf[1..5].try_into().expect("4 bytes"));
            OpDecode::Done(Op::Compute(n), 5)
        }
        TAG_LOAD | TAG_STORE => {
            if buf.len() < 9 {
                return OpDecode::NeedMore("a memory-op address");
            }
            let addr = u64::from_be_bytes(buf[1..9].try_into().expect("8 bytes"));
            let op = if tag == TAG_LOAD {
                Op::Load(addr)
            } else {
                Op::Store(addr)
            };
            OpDecode::Done(op, 9)
        }
        other => OpDecode::BadTag(other),
    }
}

/// Records the ops another workload produces, per core.
///
/// # Example
///
/// ```
/// use ra_fullsys::workload::{SyntheticParams, SyntheticWorkload, Workload};
/// use ra_workloads::{TraceRecorder, TraceReplay};
///
/// let inner = SyntheticWorkload::new(2, SyntheticParams::default(), 1);
/// let mut rec = TraceRecorder::new(inner, 2);
/// let first = rec.next_op(0);
/// let bytes = rec.to_bytes();
/// let mut replay = TraceReplay::from_bytes(&bytes).expect("valid trace");
/// assert_eq!(replay.next_op(0), first);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder<W> {
    inner: W,
    log: Vec<Vec<Op>>,
}

impl<W: Workload> TraceRecorder<W> {
    /// Wraps `inner`, recording for `cores` cores.
    pub fn new(inner: W, cores: usize) -> Self {
        TraceRecorder {
            inner,
            log: vec![Vec::new(); cores],
        }
    }

    /// The recorded per-core op streams so far.
    pub fn log(&self) -> &[Vec<Op>] {
        &self.log
    }

    /// Consumes the recorder, returning the inner workload and the log.
    pub fn into_parts(self) -> (W, Vec<Vec<Op>>) {
        (self.inner, self.log)
    }

    /// Serializes the recorded trace.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.log)
    }

    /// Writes the recorded trace to a `.ratr` file ready for
    /// [`TraceStream::open`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying file I/O error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(&self.to_bytes())?;
        file.flush()
    }
}

impl<W: Workload> Workload for TraceRecorder<W> {
    fn next_op(&mut self, core: usize) -> Op {
        let op = self.inner.next_op(core);
        self.log[core].push(op);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Replays a fully-materialized trace; cores that exhaust their stream
/// spin on `Compute(1)`.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    streams: Vec<Vec<Op>>,
    pos: Vec<usize>,
}

impl TraceReplay {
    /// Builds a replay from per-core op streams.
    pub fn new(streams: Vec<Vec<Op>>) -> Self {
        let pos = vec![0; streams.len()];
        TraceReplay { streams, pos }
    }

    /// Deserializes a trace produced by [`TraceRecorder::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] locating the first malformed byte if the
    /// buffer is truncated or not a trace.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, TraceError> {
        let total = buf.len();
        let offset = |rest: &[u8]| (total - rest.len()) as u64;
        let mut rest = buf;
        if rest.len() < 8 {
            return Err(TraceError::new(
                0,
                TraceErrorKind::Truncated {
                    expected: "the trace header",
                },
            ));
        }
        let magic = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(TraceError::new(0, TraceErrorKind::BadMagic { found: magic }));
        }
        let cores = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        rest = &rest[8..];
        // Counts are untrusted: reserve no more than the bytes can hold.
        let mut streams = Vec::with_capacity(cores.min(rest.len() / COUNT_BYTES));
        for _ in 0..cores {
            if rest.len() < 4 {
                return Err(TraceError::new(
                    offset(rest),
                    TraceErrorKind::Truncated {
                        expected: "a per-core op count",
                    },
                ));
            }
            let n = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            rest = &rest[4..];
            let mut ops = Vec::with_capacity(n.min(rest.len() / MIN_OP_BYTES));
            for _ in 0..n {
                match decode_one(rest) {
                    OpDecode::Done(op, used) => {
                        ops.push(op);
                        rest = &rest[used..];
                    }
                    OpDecode::NeedMore(expected) => {
                        return Err(TraceError::new(
                            offset(rest),
                            TraceErrorKind::Truncated { expected },
                        ));
                    }
                    OpDecode::BadTag(tag) => {
                        return Err(TraceError::new(
                            offset(rest),
                            TraceErrorKind::UnknownTag { tag },
                        ));
                    }
                }
            }
            streams.push(ops);
        }
        Ok(TraceReplay::new(streams))
    }

    /// True once `core` has replayed every recorded op.
    pub fn exhausted(&self, core: usize) -> bool {
        self.pos[core] >= self.streams[core].len()
    }

    /// Total recorded ops across all cores.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Workload for TraceReplay {
    fn next_op(&mut self, core: usize) -> Op {
        let stream = &self.streams[core];
        if self.pos[core] < stream.len() {
            let op = stream[self.pos[core]];
            self.pos[core] += 1;
            op
        } else {
            Op::Compute(1)
        }
    }

    fn name(&self) -> &str {
        "trace-replay"
    }
}

/// Per-core read cursor of a [`TraceStream`].
#[derive(Debug, Clone)]
struct CoreCursor {
    /// Absolute file offset of the next undecoded byte of this core's
    /// op stream.
    offset: u64,
    /// Ops not yet decoded from the file.
    remaining: u64,
    /// Decoded ops waiting to be replayed.
    chunk: Vec<Op>,
    pos: usize,
}

/// Streams a `.ratr` trace from disk with bounded memory.
///
/// Opening indexes the file in a single forward pass (validating every
/// op tag and finding each core's stream start) without materializing
/// any ops; replay then refills a small per-core chunk buffer from the
/// file on demand, so the resident set stays around
/// [`STREAM_CHUNK_BYTES`] per core however large the trace is.
///
/// Cloning clones the *cursors*, not the data: both streams continue
/// independently from the same positions (this is what lets the
/// speculative pipeline checkpoint a trace-driven run).
///
/// # Panics
///
/// [`Workload::next_op`] panics if the file shrinks or becomes
/// unreadable after `open` validated it — replay determinism is
/// meaningless once the trace changes underfoot.
#[derive(Debug, Clone)]
pub struct TraceStream {
    path: PathBuf,
    cursors: Vec<CoreCursor>,
    total_ops: u64,
}

impl TraceStream {
    /// Opens and indexes a trace file written by
    /// [`TraceRecorder::write_to`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file cannot be read or any part
    /// of it fails to decode.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| TraceError::io(0, &e))?;
        let file_len = file.metadata().map_err(|e| TraceError::io(0, &e))?.len();
        let mut reader = BufReader::new(file);
        let mut offset = 0u64;
        let mut header = [0u8; 8];
        read_exact_at(&mut reader, &mut header, &mut offset, "the trace header")?;
        let magic = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(TraceError::new(0, TraceErrorKind::BadMagic { found: magic }));
        }
        let cores = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        // Counts are untrusted: reserve no more than the file can hold.
        let room = file_len.saturating_sub(offset) / COUNT_BYTES as u64;
        let mut cursors = Vec::with_capacity(cores.min(room as usize));
        let mut total_ops = 0u64;
        for _ in 0..cores {
            let mut count_buf = [0u8; 4];
            read_exact_at(
                &mut reader,
                &mut count_buf,
                &mut offset,
                "a per-core op count",
            )?;
            let count = u64::from(u32::from_be_bytes(count_buf));
            cursors.push(CoreCursor {
                offset,
                remaining: count,
                chunk: Vec::new(),
                pos: 0,
            });
            total_ops += count;
            // Walk the core's ops tag by tag (seeking over payloads) so
            // the index pass validates structure at constant memory.
            for _ in 0..count {
                let mut tag = [0u8; 1];
                read_exact_at(&mut reader, &mut tag, &mut offset, "an op tag")?;
                let (skip, expected) = match tag[0] {
                    TAG_COMPUTE => (4, "a compute-op payload"),
                    TAG_LOAD | TAG_STORE => (8, "a memory-op address"),
                    other => {
                        return Err(TraceError::new(
                            offset - 1,
                            TraceErrorKind::UnknownTag { tag: other },
                        ));
                    }
                };
                // Seeking past the end succeeds, so check the payload is
                // there (located at its op, as `from_bytes` does).
                if offset + skip as u64 > file_len {
                    return Err(TraceError::new(
                        offset - 1,
                        TraceErrorKind::Truncated { expected },
                    ));
                }
                reader
                    .seek_relative(skip)
                    .map_err(|e| TraceError::io(offset, &e))?;
                offset += skip as u64;
            }
        }
        Ok(TraceStream {
            path,
            cursors,
            total_ops,
        })
    }

    /// Cores recorded in the trace.
    pub fn cores(&self) -> usize {
        self.cursors.len()
    }

    /// Total ops in the trace (all cores).
    pub fn len(&self) -> u64 {
        self.total_ops
    }

    /// True if the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// True once `core` has replayed every recorded op.
    pub fn exhausted(&self, core: usize) -> bool {
        let c = &self.cursors[core];
        c.remaining == 0 && c.pos >= c.chunk.len()
    }

    /// Refills `core`'s chunk buffer from the file.
    fn refill(&mut self, core: usize) -> Result<(), TraceError> {
        let cursor = &mut self.cursors[core];
        cursor.chunk.clear();
        cursor.pos = 0;
        let mut file = File::open(&self.path).map_err(|e| TraceError::io(cursor.offset, &e))?;
        file.seek(SeekFrom::Start(cursor.offset))
            .map_err(|e| TraceError::io(cursor.offset, &e))?;
        let mut buf = vec![0u8; STREAM_CHUNK_BYTES];
        let mut filled = 0usize;
        // A short read is not EOF; keep pulling until the chunk is full
        // or the file ends.
        loop {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    if filled == buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceError::io(cursor.offset, &e)),
            }
        }
        let mut rest = &buf[..filled];
        while cursor.remaining > 0 {
            match decode_one(rest) {
                OpDecode::Done(op, used) => {
                    cursor.chunk.push(op);
                    cursor.remaining -= 1;
                    cursor.offset += used as u64;
                    rest = &rest[used..];
                }
                OpDecode::NeedMore(expected) => {
                    if cursor.chunk.is_empty() {
                        // A full chunk held no complete op: the file lost
                        // bytes since `open` indexed it.
                        return Err(TraceError::new(
                            cursor.offset,
                            TraceErrorKind::Truncated { expected },
                        ));
                    }
                    break;
                }
                OpDecode::BadTag(tag) => {
                    return Err(TraceError::new(
                        cursor.offset,
                        TraceErrorKind::UnknownTag { tag },
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Workload for TraceStream {
    fn next_op(&mut self, core: usize) -> Op {
        if self.cursors[core].pos >= self.cursors[core].chunk.len() {
            if self.cursors[core].remaining == 0 {
                return Op::Compute(1);
            }
            if let Err(e) = self.refill(core) {
                panic!("trace {} changed during replay: {e}", self.path.display());
            }
        }
        let cursor = &mut self.cursors[core];
        let op = cursor.chunk[cursor.pos];
        cursor.pos += 1;
        op
    }

    fn name(&self) -> &str {
        "trace-stream"
    }
}

fn read_exact_at(
    reader: &mut impl Read,
    buf: &mut [u8],
    offset: &mut u64,
    expected: &'static str,
) -> Result<(), TraceError> {
    match reader.read_exact(buf) {
        Ok(()) => {
            *offset += buf.len() as u64;
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(TraceError::new(
            *offset,
            TraceErrorKind::Truncated { expected },
        )),
        Err(e) => Err(TraceError::io(*offset, &e)),
    }
}

fn encode(log: &[Vec<Op>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_be_bytes());
    buf.extend_from_slice(&(log.len() as u32).to_be_bytes());
    for ops in log {
        buf.extend_from_slice(&(ops.len() as u32).to_be_bytes());
        for op in ops {
            match *op {
                Op::Compute(n) => {
                    buf.push(TAG_COMPUTE);
                    buf.extend_from_slice(&n.to_be_bytes());
                }
                Op::Load(a) => {
                    buf.push(TAG_LOAD);
                    buf.extend_from_slice(&a.to_be_bytes());
                }
                Op::Store(a) => {
                    buf.push(TAG_STORE);
                    buf.extend_from_slice(&a.to_be_bytes());
                }
            }
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_fullsys::workload::{SyntheticParams, SyntheticWorkload};

    fn temp_trace(tag: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "ra-trace-test-{}-{tag}.ratr",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("write temp trace");
        path
    }

    #[test]
    fn record_then_replay_is_identical() {
        let inner = SyntheticWorkload::new(3, SyntheticParams::default(), 21);
        let mut rec = TraceRecorder::new(inner, 3);
        let mut reference = Vec::new();
        for core in 0..3 {
            for _ in 0..50 {
                reference.push((core, rec.next_op(core)));
            }
        }
        let bytes = rec.to_bytes();
        let mut replay = TraceReplay::from_bytes(&bytes).unwrap();
        for (core, expect) in reference {
            assert_eq!(replay.next_op(core), expect);
        }
        assert!(replay.exhausted(0));
        assert_eq!(replay.next_op(0), Op::Compute(1));
    }

    #[test]
    fn round_trip_preserves_counts() {
        let inner = SyntheticWorkload::new(2, SyntheticParams::default(), 5);
        let mut rec = TraceRecorder::new(inner, 2);
        for _ in 0..10 {
            rec.next_op(0);
        }
        rec.next_op(1);
        let replay = TraceReplay::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(replay.len(), 11);
        assert!(!replay.is_empty());
    }

    #[test]
    fn corrupt_traces_are_rejected_with_offsets() {
        let err = TraceReplay::from_bytes(&[]).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }));

        let err = TraceReplay::from_bytes(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(
            err.kind,
            TraceErrorKind::BadMagic { found: 0xdead_beef }
        );

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(9); // bogus tag at offset 12
        let err = TraceReplay::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.offset, 12);
        assert_eq!(err.kind, TraceErrorKind::UnknownTag { tag: 9 });

        // Truncated payload after a valid tag.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(TAG_LOAD);
        bytes.push(0);
        let err = TraceReplay::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.offset, 12);
        assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }));
        assert!(err.to_string().contains("byte 12"), "{err}");
    }

    /// A small valid trace: two cores, every op kind.
    fn small_trace() -> Vec<u8> {
        encode(&[
            vec![Op::Compute(3), Op::Load(0x40), Op::Store(0x80)],
            vec![Op::Load(0x1000)],
        ])
    }

    /// Both parsers on the same bytes; they must agree.
    fn parse_both(tag: &str, bytes: &[u8]) -> Result<usize, TraceError> {
        let replayed = TraceReplay::from_bytes(bytes).map(|t| t.len());
        let path = temp_trace(tag, bytes);
        let streamed = TraceStream::open(&path).map(|t| t.len() as usize);
        std::fs::remove_file(&path).ok();
        assert_eq!(replayed, streamed, "{tag}: the parsers disagree");
        replayed
    }

    #[test]
    fn every_truncation_is_an_error_at_its_offset() {
        let full = small_trace();
        assert_eq!(parse_both("full", &full).unwrap(), 4);
        // Where each op and count starts: a cut inside one is reported
        // there.
        let starts = [0u64, 8, 12, 17, 26, 35, 39];
        for cut in 0..full.len() {
            let err = parse_both(&format!("cut-{cut}"), &full[..cut]).unwrap_err();
            assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }), "cut {cut}: {err}");
            let at = *starts.iter().rev().find(|&&s| s <= cut as u64).expect("0 starts");
            assert_eq!(err.offset, at, "cut {cut}: {err}");
        }
    }

    #[test]
    fn huge_counts_and_unknown_tags_are_errors_not_aborts() {
        let header = |cores: u32| {
            let mut bytes = MAGIC.to_be_bytes().to_vec();
            bytes.extend_from_slice(&cores.to_be_bytes());
            bytes
        };
        // `u32::MAX` cores in an 8-byte file.
        let err = parse_both("huge-cores", &header(u32::MAX)).unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }), "{err}");
        // One core claiming `u32::MAX` ops, with one op present.
        let mut bytes = header(1);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.push(TAG_COMPUTE);
        bytes.extend_from_slice(&7u32.to_be_bytes());
        let err = parse_both("huge-ops", &bytes).unwrap_err();
        assert_eq!(err.offset, 17);
        assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }), "{err}");
        // An unknown tag where the second op of a valid trace starts.
        let mut bytes = small_trace();
        bytes[17] = 7;
        let err = parse_both("bad-tag", &bytes).unwrap_err();
        assert_eq!(err.offset, 17);
        assert_eq!(err.kind, TraceErrorKind::UnknownTag { tag: 7 });
    }

    #[test]
    fn into_parts_returns_the_log() {
        let inner = SyntheticWorkload::new(1, SyntheticParams::default(), 1);
        let mut rec = TraceRecorder::new(inner, 1);
        rec.next_op(0);
        rec.next_op(0);
        let (_, log) = rec.into_parts();
        assert_eq!(log[0].len(), 2);
    }

    #[test]
    fn stream_replays_a_file_identically() {
        let inner = SyntheticWorkload::new(2, SyntheticParams::default(), 33);
        let mut rec = TraceRecorder::new(inner, 2);
        let mut reference = Vec::new();
        // Enough ops that core 0 needs multiple chunk refills.
        for _ in 0..5_000 {
            reference.push((0usize, rec.next_op(0)));
        }
        for _ in 0..17 {
            reference.push((1usize, rec.next_op(1)));
        }
        let path = temp_trace("stream", &rec.to_bytes());
        let mut stream = TraceStream::open(&path).unwrap();
        assert_eq!(stream.cores(), 2);
        assert_eq!(stream.len(), 5_017);
        for (core, expect) in reference {
            assert_eq!(stream.next_op(core), expect);
        }
        assert!(stream.exhausted(0));
        assert!(stream.exhausted(1));
        assert_eq!(stream.next_op(0), Op::Compute(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_clone_forks_the_cursor() {
        let inner = SyntheticWorkload::new(1, SyntheticParams::default(), 9);
        let mut rec = TraceRecorder::new(inner, 1);
        for _ in 0..200 {
            rec.next_op(0);
        }
        let path = temp_trace("clone", &rec.to_bytes());
        let mut a = TraceStream::open(&path).unwrap();
        for _ in 0..50 {
            a.next_op(0);
        }
        let mut b = a.clone();
        for _ in 0..150 {
            assert_eq!(a.next_op(0), b.next_op(0));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_open_rejects_corrupt_files() {
        let path = temp_trace("bad-magic", &[1, 2, 3, 4, 0, 0, 0, 0]);
        let err = TraceStream::open(&path).unwrap_err();
        assert!(matches!(err.kind, TraceErrorKind::BadMagic { .. }));
        std::fs::remove_file(&path).ok();

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.push(TAG_COMPUTE);
        bytes.extend_from_slice(&7u32.to_be_bytes());
        // Second op missing entirely.
        let path = temp_trace("truncated", &bytes);
        let err = TraceStream::open(&path).unwrap_err();
        assert_eq!(err.offset, 17);
        assert!(matches!(err.kind, TraceErrorKind::Truncated { .. }));
        std::fs::remove_file(&path).ok();

        let err = TraceStream::open("/nonexistent/ra-trace.ratr").unwrap_err();
        assert!(matches!(err.kind, TraceErrorKind::Io { .. }));
    }

    #[test]
    fn write_to_then_stream_round_trips() {
        let inner = SyntheticWorkload::new(2, SyntheticParams::default(), 13);
        let mut rec = TraceRecorder::new(inner, 2);
        for core in 0..2 {
            for _ in 0..30 {
                rec.next_op(core);
            }
        }
        let path = std::env::temp_dir().join(format!(
            "ra-trace-test-{}-write-to.ratr",
            std::process::id()
        ));
        rec.write_to(&path).unwrap();
        let (_, log) = rec.into_parts();
        let mut stream = TraceStream::open(&path).unwrap();
        for (core, ops) in log.iter().enumerate() {
            for op in ops {
                assert_eq!(stream.next_op(core), *op);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
