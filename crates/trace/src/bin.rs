//! Little-endian binary primitives, the [`Wire`] trait every OARCBIN
//! record implements, and the binary [`TraceEvent`] codec.
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
//! ## One wire declaration per type
//!
//! A type's wire shape is declared once, and both directions of [`Wire`]
//! are generated from that declaration: [`wire_record!`] lists a record's
//! fields in wire order, [`wire_enum!`] lists an enum's one-byte tags and
//! each variant's payload fields, and [`wire_codes!`] sends a closed enum
//! as its code in `ALL`. An encoder and its decoder therefore cannot drift
//! apart. The generic impls below supply the shapes the declarations
//! compose: primitives, `String`, `Box`, `Option`, `Vec`, tuples and
//! maps (sorted by key).
//!
//! [`wire_record!`]: crate::wire_record
//! [`wire_enum!`]: crate::wire_enum
//! [`wire_codes!`]: crate::wire_codes
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
//! * A tree's nodes (a record declared `nested`) open one
//!   [`Reader::nested`] level each; past [`MAX_NESTING`] levels the input
//!   is a decode error, so no tree can overflow the decoder's stack.
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
use std::collections::HashMap;
use std::hash::Hash;

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

    /// Append a sequence: its `u32` count, then each element.
    pub fn put_seq<T: Wire>(&mut self, xs: &[T]) {
        self.put_seq_len(xs.len());
        for x in xs {
            x.put(self);
        }
    }

    /// Overwrite the 8 bytes at `at` with `v` (LE). Used to patch
    /// section lengths after the payload is written. Panics when `at+8`
    /// exceeds the bytes written so far.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Open levels of the recursive shapes ([`Reader::nested`]) a decode
/// accepts. A MiniC tree the parser accepts is at most
/// `minic::ast::MAX_DEPTH` (128) levels deep and translation adds a few,
/// so this admits every tree the pipeline builds, and decoding this deep
/// fits a 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

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
    /// Open [`Reader::nested`] levels.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Decode one level of a recursive shape with `get`. Past
    /// [`MAX_NESTING`] open levels the input is refused, so no encoded
    /// tree, however deep, can overflow the decoder's stack.
    pub fn nested<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = get(self);
        self.depth -= 1;
        out
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

    /// Read a sequence written by [`Writer::put_seq`].
    pub fn seq<T: Wire>(&mut self) -> Result<Vec<T>, String> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(out)
    }
}

/// A type with one declared wire shape.
///
/// Implement it through [`wire_record!`], [`wire_enum!`] or
/// [`wire_codes!`], never by hand outside this module: the declaration
/// is then the only place the shape is spelled.
///
/// [`wire_record!`]: crate::wire_record
/// [`wire_enum!`]: crate::wire_enum
/// [`wire_codes!`]: crate::wire_codes
pub trait Wire: Sized {
    /// Append this value's encoding.
    fn put(&self, w: &mut Writer);
    /// Decode one value written by [`Wire::put`].
    fn get(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// The tag and the payload of a [`wire_enum!`] type, apart: a record whose
/// wire form puts other fields between them (a [`TraceEvent`]) names the
/// two halves in its declaration.
///
/// [`wire_enum!`]: crate::wire_enum
pub trait Tagged: Sized {
    /// The variant's one-byte tag.
    fn tag(&self) -> u8;
    /// Append the variant's payload fields.
    fn put_fields(&self, w: &mut Writer);
    /// Decode the payload of the variant tagged `tag`.
    fn get_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, String>;
}

macro_rules! wire_primitives {
    ($($t:ty => $put:ident / $get:ident),+ $(,)?) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Writer) {
                w.$put(*self)
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, String> {
                r.$get()
            }
        }
    )+};
}

wire_primitives! {
    u8 => put_u8 / u8,
    u16 => put_u16 / u16,
    u32 => put_u32 / u32,
    u64 => put_u64 / u64,
    i64 => put_i64 / i64,
    f32 => put_f32 / f32,
    f64 => put_f64 / f64,
    bool => put_bool / bool,
}

/// A `usize` (an index into a table) travels as a `u64`.
impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.put_u64(*self as u64)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let x = r.u64()?;
        usize::try_from(x).map_err(|_| r.err(&format!("index {x} overflows usize")))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        r.string()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Box::new(T::get(r)?))
    }
}

/// A `u8` tag, `0` for `None` and `1` for `Some`, then the payload.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(x) => {
                w.put_u8(1);
                x.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(r.err(&format!("invalid Option tag {b:#04x}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_seq(self)
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        r.seq()
    }
}

macro_rules! wire_tuples {
    ($(($($t:ident),+)),+ $(,)?) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut Writer) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )+};
}

wire_tuples!((A, B), (A, B, C));

/// A map travels as a sequence of `(key, value)` pairs sorted by key, so
/// equal maps encode to equal bytes.
impl<K: Wire + Ord + Hash, V: Wire> Wire for HashMap<K, V> {
    fn put(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_seq_len(entries.len());
        for (k, v) in entries {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = r.seq_len()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::get(r)?;
            out.insert(k, V::get(r)?);
        }
        Ok(out)
    }
}

/// Declare closed enums that travel as one-byte codes: each value's
/// position in its type's `ALL` table (`docs/FORMAT.md` §10).
#[macro_export]
macro_rules! wire_codes {
    ($($ty:ident),+ $(,)?) => {$(
        impl $crate::bin::Wire for $ty {
            fn put(&self, w: &mut $crate::bin::Writer) {
                w.put_code(&$ty::ALL, *self)
            }
            fn get(r: &mut $crate::bin::Reader<'_>) -> ::std::result::Result<Self, String> {
                r.code(&$ty::ALL, stringify!($ty))
            }
        }
    )+};
}

/// Declare a record's wire shape: its fields in wire order.
///
/// `Name(a, b)` declares a tuple struct. A named-field record lists each
/// field once; a field may carry one bracketed form:
///
/// * `f [in TABLE]`: a closed code, `f`'s position in `TABLE`;
/// * `f [via W: to, from]`: the field travels as wire type `W`, converted
///   by the closures `to(&field) -> W` and `from(W) -> field` (a field
///   whose wire width differs from its Rust type);
/// * `f [tag]` and later `f [fields]`: the two halves of a [`Tagged`]
///   enum field, for a record that puts other fields between them.
///
/// `=> expr` builds the value from the decoded fields when the record
/// holds more than it sends (indexes rebuilt on decode).
///
/// `nested Name { … }` declares a record every recursive shape passes
/// through (a tree's node): its decode is one [`Reader::nested`] level.
#[macro_export]
macro_rules! wire_record {
    (nested $ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::bin::Wire for $ty {
            fn put(&self, w: &mut $crate::bin::Writer) {
                $($crate::bin::Wire::put(&self.$f, w);)+
            }
            fn get(r: &mut $crate::bin::Reader<'_>) -> ::std::result::Result<Self, String> {
                r.nested(|r| {
                    $(let $f = $crate::bin::Wire::get(r)?;)+
                    Ok($ty { $($f),+ })
                })
            }
        }
    };
    (@build $ty:ident { $($f:ident),+ }) => { $ty { $($f),+ } };
    (@build $ty:ident { $($f:ident),+ } $ctor:expr) => { $ctor };
    ($ty:ident ( $($f:ident),+ $(,)? )) => {
        impl $crate::bin::Wire for $ty {
            fn put(&self, w: &mut $crate::bin::Writer) {
                let $ty($($f),+) = self;
                $($crate::bin::Wire::put($f, w);)+
            }
            fn get(r: &mut $crate::bin::Reader<'_>) -> ::std::result::Result<Self, String> {
                $(let $f = $crate::bin::Wire::get(r)?;)+
                Ok($ty($($f),+))
            }
        }
    };
    ($ty:ident { $($f:ident $([$($how:tt)+])?),+ $(,)? } $(=> $ctor:expr)?) => {
        impl $crate::bin::Wire for $ty {
            fn put(&self, w: &mut $crate::bin::Writer) {
                $($crate::__wire_put!(w, self.$f $(, $($how)+)?);)+
            }
            fn get(r: &mut $crate::bin::Reader<'_>) -> ::std::result::Result<Self, String> {
                $(let $f = $crate::__wire_get!(r, $f $(, $($how)+)?);)+
                Ok($crate::wire_record!(@build $ty { $($f),+ } $($ctor)?))
            }
        }
    };
}

/// One field's encoder in a `wire_record!` declaration.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($w:ident, $v:expr) => {
        $crate::bin::Wire::put(&$v, $w)
    };
    ($w:ident, $v:expr, in $table:expr) => {
        $w.put_code(&$table, $v)
    };
    ($w:ident, $v:expr, via $wt:ty: $to:expr, $from:expr) => {
        $crate::bin::Wire::put(&($to)(&$v), $w)
    };
    ($w:ident, $v:expr, tag) => {
        $w.put_u8($crate::bin::Tagged::tag(&$v))
    };
    ($w:ident, $v:expr, fields) => {
        $crate::bin::Tagged::put_fields(&$v, $w)
    };
}

/// One field's decoder in a `wire_record!` declaration.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($r:ident, $f:ident) => {
        $crate::bin::Wire::get($r)?
    };
    ($r:ident, $f:ident, in $table:expr) => {
        $r.code(&$table, stringify!($f))?
    };
    ($r:ident, $f:ident, via $wt:ty: $to:expr, $from:expr) => {
        ($from)(<$wt as $crate::bin::Wire>::get($r)?)
    };
    ($r:ident, $f:ident, tag) => {
        $r.u8()?
    };
    ($r:ident, $f:ident, fields) => {
        $crate::bin::Tagged::get_fields($f, $r)?
    };
}

/// Declare a tagged enum's wire shape: each variant's one-byte tag, then
/// its payload fields in wire order (`V`, `V(a, b)` or `V { a, b }`).
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $v:ident $(( $($a:ident),+ ))? $({ $($f:ident),+ })?),+ $(,)? }) => {
        impl $crate::bin::Tagged for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $($ty::$v { .. } => $tag,)+
                }
            }
            fn put_fields(&self, w: &mut $crate::bin::Writer) {
                match self {
                    $($ty::$v $(( $($a),+ ))? $({ $($f),+ })? => {
                        $($($crate::bin::Wire::put($a, w);)+)?
                        $($($crate::bin::Wire::put($f, w);)+)?
                    })+
                }
            }
            fn get_fields(
                tag: u8,
                r: &mut $crate::bin::Reader<'_>,
            ) -> ::std::result::Result<Self, String> {
                Ok(match tag {
                    $($tag => {
                        $($(let $a = $crate::bin::Wire::get(r)?;)+)?
                        $($(let $f = $crate::bin::Wire::get(r)?;)+)?
                        $ty::$v $(( $($a),+ ))? $({ $($f),+ })?
                    })+
                    t => return Err(r.err(&format!("unknown {} tag {t}", stringify!($ty)))),
                })
            }
        }
        impl $crate::bin::Wire for $ty {
            fn put(&self, w: &mut $crate::bin::Writer) {
                w.put_u8($crate::bin::Tagged::tag(self));
                $crate::bin::Tagged::put_fields(self, w)
            }
            fn get(r: &mut $crate::bin::Reader<'_>) -> ::std::result::Result<Self, String> {
                let tag = r.u8()?;
                $crate::bin::Tagged::get_fields(tag, r)
            }
        }
    };
}

wire_codes!(Category, Side, St, Cause, Severity, Phase, CacheOp);

// A host event has no queue; a queue event names its queue, then its device.
wire_enum!(Track {
    0 => Host,
    1 => Queue { id, dev },
});

wire_enum!(EventKind {
    0 => Slice { cat },
    1 => KernelLaunch { kernel, n_threads, queue, dev },
    2 => KernelComplete { kernel },
    3 => DevAlloc { var, bytes },
    4 => DevFree { var },
    5 => Transfer { var, site, bytes, to_device },
    6 => PresentHit { var },
    7 => PresentMiss { var },
    8 => Coherence { var, side, from, to, cause },
    9 => Finding { severity, kind, var, site, message },
    10 => Verification { kernel, passed, compared_elems, mismatched_elems, max_abs_err },
    11 => Stage { stage, cached },
    12 => Cache { stage, op },
    13 => Serve { gauge, value },
});

// The kind's tag leads, its payload trails the timestamps and the track.
wire_record!(TraceEvent { kind [tag], ts_us, dur_us, track, kind [fields] }
    => TraceEvent { ts_us, dur_us, track, kind });

/// Encode a whole event stream (`u32` count + events).
pub fn write_events(w: &mut Writer, events: &[TraceEvent]) {
    w.put_seq(events);
}

/// Decode an event stream written by [`write_events`].
pub fn read_events(r: &mut Reader<'_>) -> Result<Vec<TraceEvent>, String> {
    r.seq()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `levels` nested [`Reader::nested`] calls over an empty buffer.
    fn nest(r: &mut Reader<'_>, levels: usize) -> Result<usize, String> {
        r.nested(|r| match levels {
            1 => Ok(r.depth),
            _ => nest(r, levels - 1),
        })
    }

    #[test]
    fn nesting_past_the_limit_is_refused_and_unwinds() {
        let mut r = Reader::new(&[]);
        assert_eq!(nest(&mut r, MAX_NESTING), Ok(MAX_NESTING));
        let err = nest(&mut r, MAX_NESTING + 1).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Every level closes on the way out, refused or not.
        assert_eq!(r.depth, 0);
        assert_eq!(nest(&mut r, 2), Ok(2));
    }

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
        None::<i64>.put(&mut w);
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
        None::<i64>.put(&mut w);
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(read_events(&mut Reader::new(&bytes)).is_err());
    }
}
