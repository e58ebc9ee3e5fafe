//! Length-prefixed binary frames for the coordinator ↔ worker pipes.
//!
//! Every message on a worker's stdin/stdout is one frame:
//!
//! | offset | size | field                                      |
//! |--------|------|--------------------------------------------|
//! | 0      | 4    | magic `b"NFS2"`                            |
//! | 4      | 1    | kind byte ([`FrameKind`])                  |
//! | 5      | 4    | payload length, u32 little-endian          |
//! | 9      | len  | payload bytes                              |
//!
//! | kind byte | [`FrameKind`] | direction           | payload                      |
//! |-----------|---------------|---------------------|------------------------------|
//! | 1         | `Task`        | coordinator → worker | shard index, blueprint slice (once per worker) |
//! | 2         | `Epoch`       | worker → coordinator | one epoch's node reports (flat codec) |
//! | 3         | `Done`        | worker → coordinator | cursors after a run          |
//! | 4         | `Error`       | worker → coordinator | structured failure report    |
//! | 5         | `Run`         | coordinator → worker | horizon, eval mode, optional cursors and fault |
//!
//! `NFS1`, the magic of the one-task-per-process protocol that had no `Run`
//! kind, is rejected as bad magic, so a stale worker binary fails with a
//! named framing error instead of misreading the conversation.
//!
//! Control payloads (task, run, cursors, error reports) are a [`Value`]
//! tree rendered with the compact binary codec in this module — a
//! bincode-style tagged encoding over the vendored serde's interchange
//! tree, so anything that derives `Serialize`/`Deserialize` goes on the
//! wire without new dependencies. Floats travel as raw IEEE-754 bits, so
//! NaN payloads and signed zeros round-trip bit-exactly (JSON could not
//! carry them). A `Done` frame's cursors go as a count-prefixed sequence
//! of one tree per node ([`encode_seq`]), so neither side ever holds a
//! tree for the whole shard. The hot per-epoch report frames bypass the
//! tree entirely; see the `protocol` module.
//!
//! The decoder is total: any byte stream either parses or returns a
//! structured [`FrameError`] — bad magic, unknown kind, oversized or
//! truncated payloads, and malformed payload bytes are all loud errors,
//! never panics or unbounded allocations (fuzzed in
//! `tests/shard_equivalence.rs`).

use std::fmt;
use std::io::{ErrorKind, Read, Write};

use serde::{Deserialize, Serialize, Value};

/// Magic bytes opening every frame (`NFS2` = NFv Shard protocol v2:
/// long-lived workers, one `Task` then a `Run` per call).
pub const FRAME_MAGIC: [u8; 4] = *b"NFS2";

/// Hard cap on a frame payload (64 MiB): a corrupt length prefix fails
/// structurally instead of triggering a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Nesting depth cap for the binary [`Value`] decoder, bounding recursion
/// on adversarial input.
pub const MAX_VALUE_DEPTH: u32 = 64;

/// Discriminates the five frame types on a worker pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Coordinator → worker: the shard index and blueprint slice, sent
    /// once as the worker's first frame.
    Task,
    /// Worker → coordinator: one epoch's per-node reports (flat codec).
    Epoch,
    /// Worker → coordinator: traffic/knob cursors after a run; closes
    /// that run's stream.
    Done,
    /// Worker → coordinator: structured failure report before exiting.
    Error,
    /// Coordinator → worker: run a horizon (one per `run_epochs*` call).
    Run,
}

impl FrameKind {
    /// The on-wire kind byte.
    pub fn as_byte(self) -> u8 {
        match self {
            FrameKind::Task => 1,
            FrameKind::Epoch => 2,
            FrameKind::Done => 3,
            FrameKind::Error => 4,
            FrameKind::Run => 5,
        }
    }

    /// Parses a kind byte; `None` for anything off-protocol.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Task),
            2 => Some(FrameKind::Epoch),
            3 => Some(FrameKind::Done),
            4 => Some(FrameKind::Error),
            5 => Some(FrameKind::Run),
            _ => None,
        }
    }
}

/// Structured failure while reading, writing, or decoding a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (no partial bytes).
    CleanEof,
    /// The stream ended mid-frame; `context` names what was being read.
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// Underlying I/O failure.
    Io(String),
    /// The 4 magic bytes did not match [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown frame-kind byte.
    BadKind(u8),
    /// Length prefix exceeds [`MAX_FRAME_LEN`].
    Oversize(u32),
    /// The payload bytes did not decode as the expected message.
    Decode(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::CleanEof => write!(f, "stream ended at a frame boundary"),
            FrameError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            FrameError::Io(msg) => write!(f, "frame I/O error: {msg}"),
            FrameError::BadMagic(bytes) => {
                write!(f, "bad frame magic {bytes:?} (expected {FRAME_MAGIC:?})")
            }
            FrameError::BadKind(b) => write!(f, "unknown frame kind byte {b}"),
            FrameError::Oversize(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Decode(msg) => write!(f, "frame payload decode error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (header + payload). Deliberately does NOT flush: a
/// worker streaming hundreds of epoch frames through a `BufWriter` must
/// not pay a pipe wake-up (on a single core, a worker/coordinator
/// context-switch round trip) per epoch. Callers flush at protocol
/// boundaries instead — after `Done`/`Error` and before a fault-injected
/// exit. The coordinator writes its control frames straight into the
/// unbuffered pipe.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversize(payload.len() as u32));
    }
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = kind.as_byte();
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let io = |e: std::io::Error| FrameError::Io(e.to_string());
    w.write_all(&header).map_err(io)?;
    w.write_all(payload).map_err(io)
}

fn read_fully(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated { context }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads one frame. A clean end-of-stream *before any header byte* is
/// [`FrameError::CleanEof`]; ending anywhere inside a frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; 9];
    // First byte separately: zero bytes here is a clean close, not a
    // truncation.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::CleanEof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    read_fully(r, &mut header[1..], "frame header")?;
    if header[..4] != FRAME_MAGIC {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[..4]);
        return Err(FrameError::BadMagic(magic));
    }
    let kind = FrameKind::from_byte(header[4]).ok_or(FrameError::BadKind(header[4]))?;
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_fully(r, &mut payload, "frame payload")?;
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Binary Value codec (control frames)
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_SEQ: u8 = 5;
const TAG_MAP: u8 = 6;

/// Appends the binary encoding of a [`Value`] tree to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(n) => {
            out.push(TAG_INT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, val) in entries {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// A bounds-checked reader over payload bytes.
struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Decode(format!(
                "payload ends inside {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A length prefix for `n` items of at least `min_item_bytes` each:
    /// rejects counts the remaining bytes cannot possibly satisfy, so a
    /// corrupt count never drives a huge allocation.
    fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(FrameError::Decode(format!(
                "{what} count {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Decode(format!("{what} is not valid UTF-8")))
    }
}

fn decode_value_at(c: &mut ByteCursor<'_>, depth: u32) -> Result<Value, FrameError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(FrameError::Decode(format!(
            "value nesting exceeds depth cap {MAX_VALUE_DEPTH}"
        )));
    }
    match c.u8("value tag")? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match c.u8("bool")? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(FrameError::Decode(format!(
                "bool byte must be 0/1, got {b}"
            ))),
        },
        TAG_INT => {
            let b = c.take(16, "int")?;
            let mut le = [0u8; 16];
            le.copy_from_slice(b);
            Ok(Value::Int(i128::from_le_bytes(le)))
        }
        TAG_FLOAT => {
            let b = c.take(8, "float")?;
            let mut le = [0u8; 8];
            le.copy_from_slice(b);
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(le))))
        }
        TAG_STR => Ok(Value::Str(c.str("string")?)),
        TAG_SEQ => {
            let n = c.count(1, "sequence")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_at(c, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            // Each entry is at least a 4-byte key length + 1-byte value tag.
            let n = c.count(5, "map")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = c.str("map key")?;
                let val = decode_value_at(c, depth + 1)?;
                entries.push((key, val));
            }
            Ok(Value::Map(entries))
        }
        tag => Err(FrameError::Decode(format!("unknown value tag {tag}"))),
    }
}

/// Decodes a binary [`Value`] tree; trailing bytes are an error.
pub fn decode_value(bytes: &[u8]) -> Result<Value, FrameError> {
    let mut c = ByteCursor { bytes, pos: 0 };
    let v = decode_value_at(&mut c, 0)?;
    if c.remaining() != 0 {
        return Err(FrameError::Decode(format!(
            "{} trailing bytes after value",
            c.remaining()
        )));
    }
    Ok(v)
}

/// Serializes any serde-capable message into control-frame payload bytes.
pub fn encode_message<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&msg.to_value(), &mut out);
    out
}

/// Parses control-frame payload bytes back into a message.
pub fn decode_message<T: Deserialize>(bytes: &[u8]) -> Result<T, FrameError> {
    let v = decode_value(bytes)?;
    T::from_value(&v).map_err(|e| FrameError::Decode(e.to_string()))
}

/// Serializes a sequence as a `u32` count followed by one [`Value`] tree
/// per item. Encoding and decoding then hold one item's tree at a time
/// instead of one tree for the whole sequence — a `Done` frame carries a
/// cursor per node, and a tree for thousands of them is tens of MiB of
/// short-lived allocations on every call.
pub fn encode_seq<T: Serialize>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        encode_value(&item.to_value(), &mut out);
    }
    out
}

/// Parses [`encode_seq`] payload bytes back into the items; trailing bytes
/// are an error.
pub fn decode_seq<T: Deserialize>(bytes: &[u8]) -> Result<Vec<T>, FrameError> {
    let mut c = ByteCursor { bytes, pos: 0 };
    let n = c.count(1, "sequence")?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let v = decode_value_at(&mut c, 0)?;
        items.push(T::from_value(&v).map_err(|e| FrameError::Decode(e.to_string()))?);
    }
    if c.remaining() != 0 {
        return Err(FrameError::Decode(format!(
            "{} trailing bytes after sequence",
            c.remaining()
        )));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(v, &mut bytes);
        decode_value(&bytes).expect("roundtrip decodes")
    }

    #[test]
    fn value_roundtrips_bit_exactly() {
        let v = Value::Map(vec![
            ("null".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
            ("n".into(), Value::Int(-17)),
            ("big".into(), Value::Int(i128::from(u64::MAX))),
            ("x".into(), Value::Float(0.1 + 0.2)),
            ("s".into(), Value::Str("héllo".into())),
            (
                "seq".into(),
                Value::Seq(vec![Value::Int(1), Value::Float(2.5)]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn floats_preserve_nan_and_negative_zero() {
        let nan = roundtrip(&Value::Float(f64::NAN));
        match nan {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
        let nz = roundtrip(&Value::Float(-0.0));
        match nz {
            Value::Float(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrips_over_a_pipe_shaped_buffer() {
        let payload = encode_message(&vec![1u32, 2, 3]);
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Epoch, &payload).unwrap();
        let mut reader = &wire[..];
        let (kind, got) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FrameKind::Epoch);
        assert_eq!(got, payload);
        let back: Vec<u32> = decode_message(&got).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        // Nothing left: the next read is a clean EOF, not truncation.
        assert_eq!(read_frame(&mut reader), Err(FrameError::CleanEof));
    }

    #[test]
    fn sequences_roundtrip_and_reject_corruption() {
        let items: Vec<Vec<u32>> = vec![vec![1, 2], Vec::new(), vec![7]];
        let bytes = encode_seq(&items);
        assert_eq!(decode_seq::<Vec<u32>>(&bytes), Ok(items));
        assert_eq!(decode_seq::<u32>(&encode_seq::<u32>(&[])), Ok(Vec::new()));
        for cut in 0..bytes.len() {
            assert!(
                decode_seq::<Vec<u32>>(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut long = bytes.clone();
        long.push(TAG_NULL);
        assert!(decode_seq::<Vec<u32>>(&long).is_err());
        // A corrupt count cannot drive a huge allocation.
        let mut corrupt = bytes;
        corrupt[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_seq::<Vec<u32>>(&corrupt),
            Err(FrameError::Decode(_))
        ));
    }

    #[test]
    fn every_kind_roundtrips_and_v1_magic_is_rejected() {
        for byte in 1..=5u8 {
            let kind = FrameKind::from_byte(byte).expect("protocol kind");
            assert_eq!(kind.as_byte(), byte);
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, b"p").unwrap();
            assert_eq!(read_frame(&mut &wire[..]), Ok((kind, b"p".to_vec())));
        }
        assert_eq!(FrameKind::from_byte(6), None);
        // A frame from a worker speaking the previous protocol revision.
        let mut v1 = Vec::new();
        write_frame(&mut v1, FrameKind::Error, b"").unwrap();
        v1[..4].copy_from_slice(b"NFS1");
        assert_eq!(
            read_frame(&mut &v1[..]),
            Err(FrameError::BadMagic(*b"NFS1"))
        );
    }

    #[test]
    fn bad_magic_kind_and_length_are_structured_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Done, b"xyz").unwrap();
        // Corrupt the magic.
        let mut bad = wire.clone();
        bad[0] = b'Z';
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::BadMagic(_))
        ));
        // Corrupt the kind byte.
        let mut bad = wire.clone();
        bad[4] = 99;
        assert_eq!(read_frame(&mut &bad[..]), Err(FrameError::BadKind(99)));
        // Oversized length prefix.
        let mut bad = wire.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Oversize(u32::MAX))
        );
        // Truncated payload.
        let short = &wire[..wire.len() - 1];
        assert_eq!(
            read_frame(&mut &short[..]),
            Err(FrameError::Truncated {
                context: "frame payload"
            })
        );
    }

    #[test]
    fn corrupt_counts_do_not_allocate() {
        // A sequence claiming u32::MAX elements inside a 9-byte payload
        // must fail on the count check, not attempt the allocation.
        let mut bytes = vec![TAG_SEQ];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[TAG_NULL; 4]);
        assert!(matches!(decode_value(&bytes), Err(FrameError::Decode(_))));
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut bytes = Vec::new();
        for _ in 0..(MAX_VALUE_DEPTH + 8) {
            bytes.push(TAG_SEQ);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        assert!(matches!(decode_value(&bytes), Err(FrameError::Decode(_))));
    }
}
