//! Little-endian binary primitives and the binary [`TraceEvent`] codec.
//!
//! This module is the bottom layer of the cache's binary artifact format
//! (`docs/FORMAT.md`): a [`Writer`] that appends fixed-width
//! little-endian primitives to a growable byte buffer, and a borrowing
//! [`Reader`] that decodes them back out of a single contiguous buffer —
//! typically the result of one `fs::read` — without any intermediate
//! tree. String reads return `&str` slices **borrowed from the input
//! buffer**; callers copy into owned `String`s only for the fields that
//! end up in long-lived artifacts, which is what makes warm cache loads
//! near-zero-allocation per node compared to the JSON path.
//!
//! [`write_events`]/[`read_events`] are the one encoding of a journal:
//! cached run artifacts embed it, and a served reply carries it (base64
//! inside the JSON line, `core::api`).
//!
//! ## Representation contract
//!
//! * All multi-byte integers are **little-endian**, fixed width.
//! * `f64`/`f32` are stored as their IEEE-754 bit patterns
//!   ([`f64::to_bits`]) — `NaN`, infinities and `-0.0` round-trip
//!   exactly.
//! * `bool` is one byte, `0` or `1`; any other value is a decode error.
//! * Strings are a `u32` byte length followed by that many bytes of
//!   UTF-8; invalid UTF-8 is a decode error.
//! * `Option<T>` is a one-byte tag (`0` = `None`, `1` = `Some`) followed
//!   by the payload when present.
//! * Sequences are a `u32` element count followed by the elements. A
//!   count larger than the bytes remaining in the buffer is rejected
//!   before any allocation (every element encodes to at least one byte),
//!   so an oversized length prefix cannot drive an OOM.
//! * A value from a closed set (a time category, coherence side, state or
//!   cause, a severity, stage label or cache op here; types, operators,
//!   clauses and the like in the artifact codecs) is a one-byte code: its
//!   position in the set's table, normatively ordered in `docs/FORMAT.md`
//!   §10. [`Writer::put_code`] and [`Reader::code`] are the one pair every
//!   codec uses; an out-of-range code is a decode error.
//!
//! Every decode error is a `Result::Err(String)` carrying the byte
//! offset where decoding failed — the disk cache maps any such error to
//! "corrupt entry: delete and recompute", never a panic.

use crate::event::{
    CacheOp, Category, Cause, EventKind, Phase, Severity, Side, St, TraceEvent, Track,
};

/// Appends fixed-width little-endian primitives to a byte buffer.
///
/// The writer never fails: lengths that exceed `u32::MAX` (unreachable
/// for any artifact this stack produces) panic rather than truncate,
/// because silent truncation would corrupt the store.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (8 bytes, LE).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `f32` as its IEEE-754 bit pattern (4 bytes, LE).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a `bool` as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub fn put_str(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string exceeds u32::MAX bytes");
        self.put_u32(len);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with no length prefix (caller frames them).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a sequence count (`u32`). Panics if `n` exceeds `u32::MAX`.
    pub fn put_seq_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("sequence exceeds u32::MAX elements"));
    }

    /// Append `v`'s one-byte code: its position in the closed `table`.
    ///
    /// Encoded values come from the stack itself, and an enum's table is
    /// its `ALL`, which a unit test beside the enum matches exhaustively,
    /// so a value missing from its table is a programming error: it panics.
    pub fn put_code<T: PartialEq>(&mut self, table: &[T], v: T) {
        let code = table
            .iter()
            .position(|t| *t == v)
            .expect("value missing from its closed code table");
        self.put_u8(code as u8);
    }

    /// Append an `Option<i64>` (`u8` tag + payload when `Some`).
    pub fn put_opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_i64(x);
            }
        }
    }

    /// Overwrite the 8 bytes at `at` with `v` (LE). Used to patch
    /// section lengths after the payload is written. Panics when `at+8`
    /// exceeds the bytes written so far.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A borrowing cursor over one contiguous encoded buffer.
///
/// All reads are bounds-checked; running off the end of the buffer —
/// truncation, in cache terms — yields `Err` with the failing offset,
/// never a panic. String reads borrow `&'a str` straight out of the
/// buffer: the zero-copy property the warm-load path is built on.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Build a decode error tagged with the current offset.
    pub fn err(&self, msg: &str) -> String {
        format!("offset {}: {msg}", self.pos)
    }

    /// Fail unless the whole buffer was consumed — trailing bytes mean
    /// the entry does not match the format spec.
    pub fn expect_end(&self) -> Result<(), String> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.err(&format!("{} trailing bytes", self.remaining())))
        }
    }

    /// Take `n` raw bytes, borrowed from the buffer.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(self.err(&format!("need {n} bytes, {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an `f32` stored as its bit pattern.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a `bool`; bytes other than `0`/`1` are decode errors.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(&format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|e| format!("offset {at}: invalid UTF-8: {e}"))
    }

    /// Read a length-prefixed string into an owned `String`.
    pub fn string(&mut self) -> Result<String, String> {
        Ok(self.str()?.to_string())
    }

    /// Read a sequence count, rejecting counts that could not possibly
    /// fit in the remaining bytes (every element is ≥ 1 byte) so a
    /// corrupt length prefix cannot force a huge allocation.
    pub fn seq_len(&mut self) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.err(&format!(
                "sequence claims {n} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a one-byte code written by [`Writer::put_code`] and return its
    /// `table` entry; a code past the table's end is an error naming `what`.
    pub fn code<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, String> {
        let c = self.u8()?;
        table
            .get(c as usize)
            .copied()
            .ok_or_else(|| self.err(&format!("unknown {what} code {c}")))
    }

    /// Read an `Option<i64>` written by [`Writer::put_opt_i64`].
    pub fn opt_i64(&mut self) -> Result<Option<i64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            b => Err(self.err(&format!("invalid Option tag {b:#04x}"))),
        }
    }
}

/// One-byte event-kind tags, in the normative order of `docs/FORMAT.md`.
mod tag {
    pub const SLICE: u8 = 0;
    pub const LAUNCH: u8 = 1;
    pub const COMPLETE: u8 = 2;
    pub const ALLOC: u8 = 3;
    pub const FREE: u8 = 4;
    pub const TRANSFER: u8 = 5;
    pub const PRESENT_HIT: u8 = 6;
    pub const PRESENT_MISS: u8 = 7;
    pub const COHERENCE: u8 = 8;
    pub const FINDING: u8 = 9;
    pub const VERIFICATION: u8 = 10;
    pub const STAGE: u8 = 11;
    pub const CACHE: u8 = 12;
    pub const SERVE: u8 = 13;
}

/// Encode one event: kind tag, timestamps as bit patterns, track, then
/// the kind's payload fields in declaration order.
pub fn write_event(w: &mut Writer, ev: &TraceEvent) {
    let t = match &ev.kind {
        EventKind::Slice { .. } => tag::SLICE,
        EventKind::KernelLaunch { .. } => tag::LAUNCH,
        EventKind::KernelComplete { .. } => tag::COMPLETE,
        EventKind::DevAlloc { .. } => tag::ALLOC,
        EventKind::DevFree { .. } => tag::FREE,
        EventKind::Transfer { .. } => tag::TRANSFER,
        EventKind::PresentHit { .. } => tag::PRESENT_HIT,
        EventKind::PresentMiss { .. } => tag::PRESENT_MISS,
        EventKind::Coherence { .. } => tag::COHERENCE,
        EventKind::Finding { .. } => tag::FINDING,
        EventKind::Verification { .. } => tag::VERIFICATION,
        EventKind::Stage { .. } => tag::STAGE,
        EventKind::Cache { .. } => tag::CACHE,
        EventKind::Serve { .. } => tag::SERVE,
    };
    w.put_u8(t);
    w.put_f64(ev.ts_us);
    w.put_f64(ev.dur_us);
    // Track: option tag over the queue id, then (present only for queue
    // tracks) the owning device id.
    w.put_opt_i64(ev.track.queue());
    if let Some(dev) = ev.track.device() {
        w.put_u32(dev);
    }
    match &ev.kind {
        EventKind::Slice { cat } => w.put_code(&Category::ALL, *cat),
        EventKind::KernelLaunch {
            kernel,
            n_threads,
            queue,
            dev,
        } => {
            w.put_str(kernel);
            w.put_u64(*n_threads);
            w.put_opt_i64(*queue);
            w.put_u32(*dev);
        }
        EventKind::KernelComplete { kernel } => w.put_str(kernel),
        EventKind::DevAlloc { var, bytes } => {
            w.put_str(var);
            w.put_u64(*bytes);
        }
        EventKind::DevFree { var } => w.put_str(var),
        EventKind::Transfer {
            var,
            site,
            bytes,
            to_device,
        } => {
            w.put_str(var);
            w.put_str(site);
            w.put_u64(*bytes);
            w.put_bool(*to_device);
        }
        EventKind::PresentHit { var } | EventKind::PresentMiss { var } => w.put_str(var),
        EventKind::Coherence {
            var,
            side,
            from,
            to,
            cause,
        } => {
            w.put_str(var);
            w.put_code(&Side::ALL, *side);
            w.put_code(&St::ALL, *from);
            w.put_code(&St::ALL, *to);
            w.put_code(&Cause::ALL, *cause);
        }
        EventKind::Finding {
            severity,
            kind,
            var,
            site,
            message,
        } => {
            w.put_code(&Severity::ALL, *severity);
            w.put_str(kind);
            w.put_str(var);
            w.put_str(site);
            w.put_str(message);
        }
        EventKind::Verification {
            kernel,
            passed,
            compared_elems,
            mismatched_elems,
            max_abs_err,
        } => {
            w.put_str(kernel);
            w.put_bool(*passed);
            w.put_u64(*compared_elems);
            w.put_u64(*mismatched_elems);
            w.put_f64(*max_abs_err);
        }
        EventKind::Stage { stage, cached } => {
            w.put_code(&Phase::ALL, *stage);
            w.put_bool(*cached);
        }
        EventKind::Cache { stage, op } => {
            w.put_code(&Phase::ALL, *stage);
            w.put_code(&CacheOp::ALL, *op);
        }
        EventKind::Serve { gauge, value } => {
            w.put_str(gauge);
            w.put_f64(*value);
        }
    }
}

/// Decode one event written by [`write_event`].
pub fn read_event(r: &mut Reader<'_>) -> Result<TraceEvent, String> {
    let t = r.u8()?;
    let ts_us = r.f64()?;
    let dur_us = r.f64()?;
    let track = match r.opt_i64()? {
        None => Track::Host,
        Some(q) => Track::Queue {
            dev: r.u32()?,
            id: q,
        },
    };
    let kind = match t {
        tag::SLICE => EventKind::Slice {
            cat: r.code(&Category::ALL, "category")?,
        },
        tag::LAUNCH => EventKind::KernelLaunch {
            kernel: r.string()?,
            n_threads: r.u64()?,
            queue: r.opt_i64()?,
            dev: r.u32()?,
        },
        tag::COMPLETE => EventKind::KernelComplete {
            kernel: r.string()?,
        },
        tag::ALLOC => EventKind::DevAlloc {
            var: r.string()?,
            bytes: r.u64()?,
        },
        tag::FREE => EventKind::DevFree { var: r.string()? },
        tag::TRANSFER => EventKind::Transfer {
            var: r.string()?,
            site: r.string()?,
            bytes: r.u64()?,
            to_device: r.bool()?,
        },
        tag::PRESENT_HIT => EventKind::PresentHit { var: r.string()? },
        tag::PRESENT_MISS => EventKind::PresentMiss { var: r.string()? },
        tag::COHERENCE => EventKind::Coherence {
            var: r.string()?,
            side: r.code(&Side::ALL, "side")?,
            from: r.code(&St::ALL, "state")?,
            to: r.code(&St::ALL, "state")?,
            cause: r.code(&Cause::ALL, "cause")?,
        },
        tag::FINDING => EventKind::Finding {
            severity: r.code(&Severity::ALL, "severity")?,
            kind: r.string()?,
            var: r.string()?,
            site: r.string()?,
            message: r.string()?,
        },
        tag::VERIFICATION => EventKind::Verification {
            kernel: r.string()?,
            passed: r.bool()?,
            compared_elems: r.u64()?,
            mismatched_elems: r.u64()?,
            max_abs_err: r.f64()?,
        },
        tag::STAGE => EventKind::Stage {
            stage: r.code(&Phase::ALL, "stage")?,
            cached: r.bool()?,
        },
        tag::CACHE => EventKind::Cache {
            stage: r.code(&Phase::ALL, "stage")?,
            op: r.code(&CacheOp::ALL, "cache op")?,
        },
        tag::SERVE => EventKind::Serve {
            gauge: r.string()?,
            value: r.f64()?,
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    Ok(TraceEvent {
        ts_us,
        dur_us,
        track,
        kind,
    })
}

/// Encode a whole event stream (`u32` count + events).
pub fn write_events(w: &mut Writer, events: &[TraceEvent]) {
    w.put_seq_len(events.len());
    for ev in events {
        write_event(w, ev);
    }
}

/// Decode an event stream written by [`write_events`].
pub fn read_events(r: &mut Reader<'_>) -> Result<Vec<TraceEvent>, String> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_event(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mk = |track, kind| TraceEvent {
            ts_us: 1.25,
            dur_us: 0.5,
            track,
            kind,
        };
        vec![
            mk(
                Track::Host,
                EventKind::Slice {
                    cat: Category::MemTransfer,
                },
            ),
            mk(
                Track::queue0(2),
                EventKind::KernelLaunch {
                    kernel: "k0".into(),
                    n_threads: 64,
                    queue: Some(2),
                    dev: 0,
                },
            ),
            mk(
                Track::Queue { dev: 0, id: -3 },
                EventKind::KernelComplete {
                    kernel: "k0".into(),
                },
            ),
            mk(
                Track::Queue { dev: 3, id: 1 },
                EventKind::KernelComplete {
                    kernel: "k1".into(),
                },
            ),
            mk(
                Track::Host,
                EventKind::DevAlloc {
                    var: "a".into(),
                    bytes: 512,
                },
            ),
            mk(Track::Host, EventKind::DevFree { var: "a".into() }),
            mk(
                Track::Host,
                EventKind::Transfer {
                    var: "a".into(),
                    site: "k0_in".into(),
                    bytes: 256,
                    to_device: true,
                },
            ),
            mk(Track::Host, EventKind::PresentHit { var: "a".into() }),
            mk(Track::Host, EventKind::PresentMiss { var: "b".into() }),
            mk(
                Track::Host,
                EventKind::Coherence {
                    var: "a".into(),
                    side: Side::Gpu,
                    from: St::MayStale,
                    to: St::NotStale,
                    cause: Cause::Transfer,
                },
            ),
            mk(
                Track::Host,
                EventKind::Finding {
                    severity: Severity::Warning,
                    kind: "Redundant".into(),
                    var: "a".into(),
                    site: "k0_in".into(),
                    message: "line \"42\"\nredundant — π".into(),
                },
            ),
            mk(
                Track::Host,
                EventKind::Verification {
                    kernel: "k0".into(),
                    passed: false,
                    compared_elems: 64,
                    mismatched_elems: 3,
                    max_abs_err: 1e-3,
                },
            ),
            mk(
                Track::Host,
                EventKind::Stage {
                    stage: Phase::VerifyCompare,
                    cached: true,
                },
            ),
            mk(
                Track::Host,
                EventKind::Cache {
                    stage: Phase::Execute,
                    op: CacheOp::Hit,
                },
            ),
        ]
    }

    fn encode(events: &[TraceEvent]) -> Vec<u8> {
        let mut w = Writer::new();
        write_events(&mut w, events);
        w.into_bytes()
    }

    #[test]
    fn every_kind_round_trips_bit_identically() {
        let events = sample_events();
        let bytes = encode(&events);
        let mut r = Reader::new(&bytes);
        let back = read_events(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, events);
        // Deterministic: re-encoding yields the same bytes.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn f64_bit_patterns_survive() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 0.1 + 0.2, 1e-300] {
            let ev = TraceEvent {
                ts_us: v,
                dur_us: -v,
                track: Track::Host,
                kind: EventKind::Slice {
                    cat: Category::CpuTime,
                },
            };
            let bytes = encode(std::slice::from_ref(&ev));
            let back = read_events(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back[0].ts_us.to_bits(), v.to_bits());
            assert_eq!(back[0].dur_us.to_bits(), (-v).to_bits());
        }
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        let bytes = encode(&sample_events());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = read_events(&mut r).and_then(|evs| r.expect_end().map(|()| evs));
            assert!(res.is_err(), "truncation at {cut} did not error");
        }
    }

    #[test]
    fn bad_tags_and_codes_are_errors() {
        // Unknown event tag.
        let mut w = Writer::new();
        w.put_seq_len(1);
        w.put_u8(200);
        w.put_f64(0.0);
        w.put_f64(0.0);
        w.put_opt_i64(None);
        let bytes = w.into_bytes();
        assert!(read_events(&mut Reader::new(&bytes)).is_err());

        // Bad bool byte inside a Transfer.
        let ev = TraceEvent {
            ts_us: 0.0,
            dur_us: 0.0,
            track: Track::Host,
            kind: EventKind::Transfer {
                var: "a".into(),
                site: "s".into(),
                bytes: 1,
                to_device: true,
            },
        };
        let mut bytes = encode(std::slice::from_ref(&ev));
        let at = bytes.len() - 1;
        bytes[at] = 7;
        assert!(read_events(&mut Reader::new(&bytes)).is_err());

        // Out-of-range label code inside a Coherence event.
        let ev = TraceEvent {
            ts_us: 0.0,
            dur_us: 0.0,
            track: Track::Host,
            kind: EventKind::Coherence {
                var: "a".into(),
                side: Side::Cpu,
                from: St::Stale,
                to: St::Stale,
                cause: Cause::Write,
            },
        };
        let mut bytes = encode(std::slice::from_ref(&ev));
        let at = bytes.len() - 1;
        bytes[at] = 250;
        assert!(read_events(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn oversized_sequence_counts_are_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(read_events(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn invalid_utf8_is_a_decode_error() {
        let mut w = Writer::new();
        w.put_seq_len(1);
        w.put_u8(4); // DevFree tag
        w.put_f64(0.0);
        w.put_f64(0.0);
        w.put_opt_i64(None);
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(read_events(&mut Reader::new(&bytes)).is_err());
    }
}
