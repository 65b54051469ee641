//! Compact binary trace persistence.
//!
//! The related work the paper criticizes stores full memory traces on disk
//! — "the traces, even compressed, take a large amount of space (more than
//! 100 gigabytes)" (§II, on Barrow-Williams et al.). Our workloads are far
//! smaller, but the same storage question arises when precomputing
//! workloads once and reusing them across experiment campaigns. This codec
//! serializes per-thread traces with delta + varint encoding:
//!
//! * each event is one tag byte (read/write/fetch/compute/barrier),
//! * access addresses are zigzag-encoded deltas from the previous address
//!   of the same thread (stencil sweeps compress to ~2 bytes/access),
//! * compute durations are LEB128 varints.
//!
//! The format is self-describing (`TLBT` magic + version) and fully
//! round-trips: `decode(encode(t)) == t` is property-tested.

use crate::trace::{ThreadTrace, TraceEvent, MAX_COMPUTE, MAX_VADDR};
use tlbmap_cache::{AccessKind, MemOp};
use tlbmap_mem::VirtAddr;

const MAGIC: &[u8; 4] = b"TLBT";
const VERSION: u8 = 1;

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_FETCH: u8 = 2;
const TAG_COMPUTE: u8 = 3;
const TAG_BARRIER: u8 = 4;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not a trace file (bad magic).
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Ran out of bytes mid-stream.
    Truncated,
    /// Unknown event tag.
    BadTag(u8),
    /// A decoded payload exceeds what a trace can hold (hostile stream).
    OutOfRange,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a TLBT trace file"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace file truncated"),
            CodecError::BadTag(t) => write!(f, "unknown event tag {t}"),
            CodecError::OutOfRange => write!(f, "event payload out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serialize traces to the compact binary format.
pub fn encode_traces(traces: &[ThreadTrace]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, traces.len() as u64);
    for trace in traces {
        put_varint(&mut out, trace.len() as u64);
        let mut prev_addr: u64 = 0;
        for event in trace.iter() {
            match event {
                TraceEvent::Access { vaddr, op, kind } => {
                    let tag = match (op, kind) {
                        (MemOp::Read, AccessKind::Data) => TAG_READ,
                        (MemOp::Write, AccessKind::Data) => TAG_WRITE,
                        (_, AccessKind::Instr) => TAG_FETCH,
                    };
                    out.push(tag);
                    let delta = vaddr.0.wrapping_sub(prev_addr) as i64;
                    put_varint(&mut out, zigzag(delta));
                    prev_addr = vaddr.0;
                }
                TraceEvent::Compute(c) => {
                    out.push(TAG_COMPUTE);
                    put_varint(&mut out, c);
                }
                TraceEvent::Barrier => out.push(TAG_BARRIER),
            }
        }
    }
    out
}

/// Deserialize traces from the compact binary format.
pub fn decode_traces(data: &[u8]) -> Result<Vec<ThreadTrace>, CodecError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if data[4] != VERSION {
        return Err(CodecError::BadVersion(data[4]));
    }
    let mut pos = 5usize;
    let n_threads = get_varint(data, &mut pos)? as usize;
    // Cap preallocations: lengths are untrusted until the stream proves
    // them (a hostile header must not force a huge allocation).
    let mut traces = Vec::with_capacity(n_threads.min(1024));
    for _ in 0..n_threads {
        let len = get_varint(data, &mut pos)? as usize;
        let mut trace = ThreadTrace::with_capacity(len.min(1 << 16));
        let mut prev_addr: u64 = 0;
        for _ in 0..len {
            let &tag = data.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            let event = match tag {
                TAG_READ | TAG_WRITE | TAG_FETCH => {
                    let delta = unzigzag(get_varint(data, &mut pos)?);
                    let addr = prev_addr.wrapping_add(delta as u64);
                    if addr > MAX_VADDR {
                        return Err(CodecError::OutOfRange);
                    }
                    prev_addr = addr;
                    let (op, kind) = match tag {
                        TAG_READ => (MemOp::Read, AccessKind::Data),
                        TAG_WRITE => (MemOp::Write, AccessKind::Data),
                        _ => (MemOp::Read, AccessKind::Instr),
                    };
                    TraceEvent::Access {
                        vaddr: VirtAddr(addr),
                        op,
                        kind,
                    }
                }
                TAG_COMPUTE => {
                    let c = get_varint(data, &mut pos)?;
                    if c > MAX_COMPUTE {
                        return Err(CodecError::OutOfRange);
                    }
                    TraceEvent::Compute(c)
                }
                TAG_BARRIER => TraceEvent::Barrier,
                other => return Err(CodecError::BadTag(other)),
            };
            trace.push(event);
        }
        traces.push(trace);
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ThreadTrace> {
        vec![
            vec![
                TraceEvent::read(VirtAddr(0x1000)),
                TraceEvent::read(VirtAddr(0x1040)),
                TraceEvent::write(VirtAddr(0x1080)),
                TraceEvent::Compute(12345),
                TraceEvent::Barrier,
                TraceEvent::fetch(VirtAddr(0xFFFF_0000)),
            ]
            .into(),
            vec![TraceEvent::Barrier].into(),
            ThreadTrace::new(),
        ]
    }

    #[test]
    fn roundtrip_exact() {
        let traces = sample();
        let bytes = encode_traces(&traces);
        let back = decode_traces(&bytes).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn sequential_sweeps_compress_well() {
        // A stencil-like sweep: constant stride.
        let trace: ThreadTrace = (0..10_000u64)
            .map(|i| TraceEvent::read(VirtAddr(0x10_0000 + i * 128)))
            .collect();
        let traces = vec![trace];
        let bpe = encode_traces(&traces).len() as f64 / 10_000.0;
        assert!(
            bpe < 3.5,
            "sweeps should encode in ~2-3 bytes/event, got {bpe:.2}"
        );
        assert_eq!(decode_traces(&encode_traces(&traces)).unwrap(), traces);
    }

    #[test]
    fn error_cases() {
        assert_eq!(decode_traces(b"nope"), Err(CodecError::BadMagic));
        assert_eq!(
            decode_traces(b"TLBT\x63"),
            Err(CodecError::BadVersion(0x63))
        );
        let mut bytes = encode_traces(&sample());
        bytes.truncate(bytes.len() - 2);
        assert_eq!(decode_traces(&bytes), Err(CodecError::Truncated));
        // Corrupt a tag (first event byte after header + 2 length varints).
        let mut bad = encode_traces(&[vec![TraceEvent::Barrier].into()]);
        let last = bad.len() - 1;
        bad[last] = 99;
        assert_eq!(decode_traces(&bad), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
