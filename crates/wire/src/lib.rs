//! `erebor-wire`: the one deterministic byte codec for migration records.
//!
//! Live migration (DESIGN.md §13) serializes every architectural structure
//! — sEPT, pinned MSRs, monitor state, the EMC ledger, frame tags, the
//! domain pool — into sealed records. The codec therefore has three hard
//! requirements the general-purpose serializers can't promise:
//!
//! * **Determinism**: the same state encodes to the same bytes, always.
//! * **No panics**: a malformed or hostile peer hands us arbitrary
//!   bytes; every decode path returns a typed [`WireError`] instead of
//!   panicking the monitor.
//! * **No dependencies**: the crate sits at the very bottom of the
//!   workspace (even below `erebor-trace` and `erebor-hw`) so every
//!   layer can describe its own state without cycles.
//!
//! [`WireWriter`] appends; [`WireReader`] consumes with bounds checks and
//! an end-of-input check ([`WireReader::finish`]) so trailing garbage —
//! a classic state-confusion vector in migration streams — is rejected,
//! not silently ignored.
//!
//! # One declaration per type
//!
//! Each migrated type states its encoding once, through the [`Wire`]
//! trait, and every layout rule is decided here rather than per type:
//!
//! * integers are fixed-width little-endian, `usize` travels as `u64`,
//!   a `bool` is one byte that must be 0 or 1;
//! * an `Option` is a `bool` tag followed by the value;
//! * a tuple, array or struct is its parts in order, with no prefix;
//! * a `Vec`, `VecDeque`, `BTreeMap`, `BTreeSet` or `String` is a `u64`
//!   count followed by its items. The count is bounded by the bytes that
//!   remain ([`WireReader::seq`]) and nothing is reserved from it, so a
//!   hostile count cannot drive allocation;
//! * map keys and set items must arrive strictly ascending — the order a
//!   `BTreeMap` export produces — so a repeated key is
//!   [`WireError::BadValue`], never a silent merge;
//! * an enum is a one-byte tag; an unknown tag is [`WireError::BadTag`]
//!   naming the type.
//! * a nested record ([`WireWriter::nested`]) is a length-prefixed blob
//!   that its value must consume exactly.
//!
//! The macros cover the common shapes: [`wire_struct!`] (a struct is its
//! fields in order, decoded with a struct literal, so a field left out of
//! the list is a compile error), [`wire_newtype!`] (`Frame(u64)`),
//! [`wire_enum!`] (field-less enums) and [`counters!`] (a `u64` counter
//! struct with its saturating `delta`). A decoder written by hand keeps
//! only its semantic checks; the layout comes from the impls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Decoding failure. Every variant names what was being decoded so a
/// migration abort can be audited from the error alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field was complete.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// An enum tag or type byte had no defined meaning.
    BadTag {
        /// The structure being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A declared length exceeded the decoder's hard cap (a hostile
    /// length prefix must not drive allocation).
    TooLong {
        /// Declared length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// A decoded value violated a structural invariant.
    BadValue {
        /// The structure being decoded.
        what: &'static str,
    },
    /// Input remained after the last expected field.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} bytes, had {have}")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            WireError::TooLong { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            WireError::BadValue { what } => write!(f, "invalid value decoding {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after final field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on any single length-prefixed field (64 MiB). Larger values
/// are rejected before allocation; legitimate migration records are far
/// smaller (a page record is ~4 KiB).
pub const MAX_FIELD_LEN: u64 = 64 * 1024 * 1024;

/// Append-only encoder. Infallible: encoding valid in-memory state
/// cannot fail, so the writer has no error paths at all.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64` (the simulated machine never exceeds it).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append raw bytes with no length prefix (fixed-width fields).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a collection length prefix (callers then encode each item).
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Append a value's [`Wire`] encoding.
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Append consecutive values with no count prefix (a per-core list
    /// whose length the reader already knows).
    pub fn items<T: Wire>(&mut self, items: &[T]) {
        T::encode_items(items, self);
    }

    /// Append a value as a nested blob: a `u64` byte length, then the
    /// value's encoding (the bytes of `w.bytes(&v.to_wire())`).
    pub fn nested<T: Wire>(&mut self, v: &T) {
        let at = self.buf.len();
        self.u64(0);
        v.encode(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Append a collection of nested blobs: a `u64` count, then each
    /// item as [`WireWriter::nested`] writes it.
    pub fn nested_seq<'a, T: Wire + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.seq(items.len());
        for item in items {
            self.nested(item);
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decode one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Decode a bool; any byte other than 0/1 is rejected.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::BadValue`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue { what: "bool" }),
        }
    }

    /// Decode a little-endian `u16`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Decode a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Decode a little-endian `i64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Decode a `usize` encoded as `u64`, rejecting values that don't
    /// fit the host's `usize`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::BadValue`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadValue { what: "usize" })
    }

    /// Decode a length-prefixed byte string (capped at
    /// [`MAX_FIELD_LEN`]).
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`].
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::TooLong {
                len,
                max: MAX_FIELD_LEN,
            });
        }
        self.take(len as usize)
    }

    /// Decode a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`] /
    /// [`WireError::BadValue`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        core::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadValue { what: "utf-8" })
    }

    /// Decode a collection length prefix, bounding it by the bytes that
    /// actually remain divided by `min_item_bytes` (every item costs at
    /// least one byte) so a hostile prefix cannot drive allocation.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`].
    pub fn seq(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let len = self.u64()?;
        let cap = (self.remaining() / min_item_bytes.max(1)) as u64;
        if len > cap {
            return Err(WireError::TooLong { len, max: cap });
        }
        Ok(len as usize)
    }

    /// Decode one [`Wire`] value.
    ///
    /// # Errors
    /// Whatever the value's decoder returns.
    pub fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Decode exactly `n` consecutive values with no count prefix (a
    /// per-core list whose length the caller already validated).
    ///
    /// # Errors
    /// Whatever the items' decoder returns.
    pub fn items<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, WireError> {
        T::decode_items(self, n)
    }

    /// Decode a nested blob written by [`WireWriter::nested`]; the value
    /// must consume the blob exactly.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] if the value ends early, or whatever
    /// the value's decoder returns.
    pub fn nested<T: Wire>(&mut self) -> Result<T, WireError> {
        T::from_wire(self.bytes()?)
    }

    /// Decode a collection written by [`WireWriter::nested_seq`].
    ///
    /// # Errors
    /// As [`WireReader::nested`], per item.
    pub fn nested_seq<T: Wire>(&mut self) -> Result<Vec<T>, WireError> {
        let n = self.seq(8)?;
        (0..n).map(|_| self.nested()).collect()
    }

    /// Assert the input is fully consumed.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A type with one declared wire encoding (see the crate docs for the
/// layout rules every impl follows).
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn encode(&self, w: &mut WireWriter);

    /// Decode one value, consuming exactly its encoding.
    ///
    /// # Errors
    /// A typed [`WireError`]; never a panic.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// The standalone encoding of `self`.
    #[must_use]
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decode a standalone blob; bytes left over are refused.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`], or whatever [`Wire::decode`] returns.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Encode consecutive items with no prefix. Overridden by `u8` so
    /// byte strings copy in one step; the bytes are the same either way.
    #[doc(hidden)]
    fn encode_items(items: &[Self], w: &mut WireWriter) {
        for item in items {
            item.encode(w);
        }
    }

    /// Decode `n` consecutive items with no prefix. Nothing is reserved
    /// from `n`: the vector grows only as items actually decode.
    #[doc(hidden)]
    fn decode_items(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        (0..n).map(|_| Self::decode(r)).collect()
    }
}

/// Scalars whose `WireWriter`/`WireReader` methods share the type's name.
macro_rules! scalar {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut WireWriter) {
                w.$t(*self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
        }
    )+};
}

scalar!(bool, u16, u32, u64, i64, usize);

impl Wire for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn encode_items(items: &[u8], w: &mut WireWriter) {
        w.raw(items);
    }
    fn decode_items(r: &mut WireReader<'_>, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.str()?.to_owned())
    }
}

/// Decoded strings are [`intern`]ed: the `'static` payloads of trace
/// events and kill reasons come back as the same pointers they left as.
impl Wire for &'static str {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(intern(r.str()?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, w: &mut WireWriter) {
        T::encode_items(self, w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        <[T; N]>::try_from(T::decode_items(r, N)?).map_err(|_| WireError::BadValue {
            what: "array length",
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.seq(self.len());
        T::encode_items(self, w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq(1)?;
        T::decode_items(r, n)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.seq(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Vec::decode(r)?.into())
    }
}

/// Refuse a run of keys that does not strictly ascend.
fn ascending<'a, K: Ord + 'a>(
    mut keys: impl Iterator<Item = &'a K>,
    what: &'static str,
) -> Result<(), WireError> {
    let Some(mut prev) = keys.next() else {
        return Ok(());
    };
    for k in keys {
        if k <= prev {
            return Err(WireError::BadValue { what });
        }
        prev = k;
    }
    Ok(())
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut WireWriter) {
        w.seq(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pairs: Vec<(K, V)> = Vec::decode(r)?;
        ascending(pairs.iter().map(|(k, _)| k), "map key order")?;
        Ok(pairs.into_iter().collect())
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.seq(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let items: Vec<T> = Vec::decode(r)?;
        ascending(items.iter(), "set item order")?;
        Ok(items.into_iter().collect())
    }
}

/// Index decoded records by a key each one carries (a task's pid, a
/// region's id) under the map rule: keys must strictly ascend, as they
/// do when the records were exported from a `BTreeMap`'s values.
///
/// # Errors
/// [`WireError::BadValue`] `"map key order"` on a repeated or
/// descending key.
pub fn index_by<K: Ord, V>(
    items: Vec<V>,
    key: impl Fn(&V) -> K,
) -> Result<BTreeMap<K, V>, WireError> {
    let keys: Vec<K> = items.iter().map(&key).collect();
    ascending(keys.iter(), "map key order")?;
    Ok(keys.into_iter().zip(items).collect())
}

macro_rules! tuple {
    ($($name:ident)+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, w: &mut WireWriter) {
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple!(A B);
tuple!(A B C);
tuple!(A B C D);
tuple!(A B C D E);
tuple!(A B C D E F);
tuple!(A B C D E F G);

/// Declare a struct's wire form as its fields, in order:
/// `wire_struct!(TlbEntry { root, page, frame, eff, dirty });`.
///
/// Decoding builds the value with a struct literal, so every field of
/// the struct must be listed: a field left out is a compile error, not
/// a silent migration bug.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, w: &mut $crate::WireWriter) {
                $($crate::Wire::encode(&self.$field, w);)+
            }
            fn decode(
                r: &mut $crate::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                Ok($ty {
                    $($field: $crate::Wire::decode(r)?,)+
                })
            }
        }
    };
}

/// Declare single-field tuple structs (`Frame(u64)`) to travel as their
/// field: `wire_newtype!(Frame, VirtAddr);`.
#[macro_export]
macro_rules! wire_newtype {
    ($($ty:ident),+ $(,)?) => {$(
        impl $crate::Wire for $ty {
            fn encode(&self, w: &mut $crate::WireWriter) {
                $crate::Wire::encode(&self.0, w);
            }
            fn decode(
                r: &mut $crate::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                Ok($ty($crate::Wire::decode(r)?))
            }
        }
    )+};
}

/// Give a field-less enum a one-byte tag per variant:
/// `wire_enum!(CpuMode { User = 0, Supervisor = 1 });`. Every variant
/// must be listed (the encoder's `match` is exhaustive); an unknown tag
/// decodes to [`WireError::BadTag`] naming the type.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode(&self, w: &mut $crate::WireWriter) {
                w.u8(match self {
                    $($ty::$variant => $tag,)+
                });
            }
            fn decode(
                r: &mut $crate::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    tag => Err($crate::WireError::BadTag {
                        what: stringify!($ty),
                        tag: u64::from(tag),
                    }),
                }
            }
        }
    };
}

/// Declare a struct of `u64` event counters once: the struct itself,
/// its fieldwise saturating `delta`, and its [`Wire`] impl (the fields in
/// order). Attributes and doc comments pass through.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: u64),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: u64,)+
        }

        impl $name {
            /// Fieldwise saturating difference `self - earlier`, for
            /// interval measurements between two snapshots (a counter
            /// that went backwards reads 0, never a wrapped huge value).
            #[must_use]
            pub fn delta(&self, earlier: &$name) -> $name {
                $name {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }
        }

        $crate::wire_struct!($name { $($field),+ });
    };
}

/// Intern a string, returning a `&'static str` with the same contents.
///
/// Trace events and kill reasons carry `&'static str` payloads by design
/// (no escaping, no allocation on the record path). A migration stream,
/// however, decodes those payloads from bytes; interning gives them the
/// required `'static` lifetime. The table is global and append-only:
/// every distinct string is leaked exactly once, and re-interning an
/// already-known string returns the same pointer. The set of distinct
/// payload strings in the workspace is a small closed vocabulary, so the
/// leak is bounded in practice.
#[must_use]
pub fn intern(s: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = match table.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&known) = guard.get(s) {
        return known;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Page(u64);
    wire_newtype!(Page);

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Colour {
        Red,
        Blue,
    }
    wire_enum!(Colour { Red = 0, Blue = 7 });

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        page: Page,
        colour: Colour,
        label: String,
        owner: Option<u32>,
    }
    wire_struct!(Entry {
        page,
        colour,
        label,
        owner
    });

    counters! {
        /// Test counters.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        struct Hits {
            /// First.
            a: u64,
            /// Second.
            b: u64,
        }
    }

    /// `v` round-trips exactly, and every strict prefix of its encoding
    /// is a typed error.
    fn roundtrip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        assert_eq!(&T::from_wire(&bytes).expect("full encoding decodes"), v);
        for cut in 0..bytes.len() {
            assert!(T::from_wire(&bytes[..cut]).is_err(), "cut {cut} of {v:?}");
        }
    }

    #[test]
    fn every_impl_roundtrips_and_fails_at_every_truncation() {
        roundtrip(&true);
        roundtrip(&0xA5u8);
        roundtrip(&0xBEEFu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&-42i64);
        roundtrip(&12_345usize);
        roundtrip(&"wörld".to_string());
        roundtrip(&String::new());
        roundtrip(&"static");
        roundtrip(&Some(9u64));
        roundtrip(&None::<u64>);
        roundtrip(&[3u8; 5]);
        roundtrip(&[Some(1u16), None, Some(3)]);
        roundtrip(&(1u8, 2u16, 3u32, 4u64, true, -1i64, 7usize));
        roundtrip(&vec![b'a', b'b', b'c']);
        roundtrip(&vec![vec![1u64], vec![], vec![2, 3]]);
        roundtrip(&VecDeque::from(vec![vec![9u8; 3], vec![]]));
        roundtrip(&BTreeMap::from([
            (1u32, "x".to_string()),
            (4, "y".to_string()),
        ]));
        roundtrip(&BTreeSet::from([(0usize, 5u64), (1, 2)]));
        roundtrip(&Page(0x1000));
        roundtrip(&Colour::Blue);
        roundtrip(&Entry {
            page: Page(3),
            colour: Colour::Red,
            label: "conf".to_string(),
            owner: Some(2),
        });
        roundtrip(&Hits { a: 1, b: u64::MAX });
    }

    #[test]
    fn layout_rules_are_the_documented_bytes() {
        assert_eq!(Some(5u16).to_wire(), [1, 5, 0]);
        assert_eq!(None::<u16>.to_wire(), [0]);
        assert_eq!(vec![7u8, 8].to_wire(), [2, 0, 0, 0, 0, 0, 0, 0, 7, 8]);
        // A map is a `Vec` of its pairs.
        let map = BTreeMap::from([(1u8, 10u8), (2, 20)]);
        assert_eq!(map.to_wire(), vec![(1u8, 10u8), (2, 20)].to_wire());
        // A nested blob is a byte string of the value's encoding.
        let mut w = WireWriter::new();
        w.nested(&Page(9));
        let mut expect = WireWriter::new();
        expect.bytes(&Page(9).to_wire());
        assert_eq!(w.finish(), expect.finish());
        assert_eq!(Colour::Blue.to_wire(), [7]);
    }

    #[test]
    fn from_wire_refuses_trailing_bytes() {
        let mut bytes = Page(1).to_wire();
        bytes.push(0);
        assert_eq!(
            Page::from_wire(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get::<Page>(), Ok(Page(1)), "get leaves the rest");
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn non_binary_bool_and_unknown_tags_are_typed() {
        assert_eq!(
            bool::from_wire(&[2]),
            Err(WireError::BadValue { what: "bool" })
        );
        assert_eq!(
            Option::<u8>::from_wire(&[9, 0]),
            Err(WireError::BadValue { what: "bool" })
        );
        assert_eq!(
            Colour::from_wire(&[1]),
            Err(WireError::BadTag {
                what: "Colour",
                tag: 1
            })
        );
    }

    #[test]
    fn hostile_counts_are_too_long_before_any_allocation() {
        let huge = u64::MAX.to_le_bytes();
        for got in [
            Vec::<u64>::from_wire(&huge).err(),
            Vec::<u8>::from_wire(&huge).err(),
            BTreeMap::<u64, u64>::from_wire(&huge).err(),
            BTreeSet::<u8>::from_wire(&huge).err(),
            VecDeque::<u8>::from_wire(&huge).err(),
            String::from_wire(&huge).err(),
        ] {
            assert!(
                matches!(got, Some(WireError::TooLong { len: u64::MAX, .. })),
                "{got:?}"
            );
        }
        // A count the remaining bytes could hold passes `seq` but the
        // items themselves run out: still typed, still nothing reserved.
        let mut w = WireWriter::new();
        w.seq(4);
        w.u64(1);
        w.raw(&[0; 3]);
        assert!(matches!(
            Vec::<u64>::from_wire(&w.finish()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn map_and_set_keys_must_strictly_ascend() {
        let ascending = vec![(1u32, 7u8), (2, 8)].to_wire();
        assert_eq!(
            BTreeMap::<u32, u8>::from_wire(&ascending),
            Ok(BTreeMap::from([(1, 7), (2, 8)]))
        );
        let repeated = vec![(1u32, 7u8), (1, 8)].to_wire();
        let descending = vec![(2u32, 7u8), (1, 8)].to_wire();
        for bad in [repeated, descending] {
            assert_eq!(
                BTreeMap::<u32, u8>::from_wire(&bad),
                Err(WireError::BadValue {
                    what: "map key order"
                })
            );
        }
        assert_eq!(
            BTreeSet::<u8>::from_wire(&vec![1u8, 2, 3].to_wire()),
            Ok(BTreeSet::from([1, 2, 3]))
        );
        for bad in [vec![1u8, 1], vec![3u8, 2]] {
            assert_eq!(
                BTreeSet::<u8>::from_wire(&bad.to_wire()),
                Err(WireError::BadValue {
                    what: "set item order"
                })
            );
        }
        assert_eq!(
            index_by(vec![Page(1), Page(4)], |p| p.0),
            Ok(BTreeMap::from([(1, Page(1)), (4, Page(4))]))
        );
        assert_eq!(
            index_by(vec![Page(4), Page(4)], |p| p.0),
            Err(WireError::BadValue {
                what: "map key order"
            })
        );
    }

    #[test]
    fn nested_blobs_roundtrip_and_must_be_consumed_exactly() {
        let items = [Page(1), Page(2)];
        let mut w = WireWriter::new();
        w.nested_seq(items.iter());
        w.nested(&7u32);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.nested_seq::<Page>(), Ok(items.to_vec()));
        assert_eq!(r.nested::<u32>(), Ok(7));
        assert_eq!(r.finish(), Ok(()));
        // A blob holding more than its value is refused.
        let mut w = WireWriter::new();
        w.bytes(&[1, 0, 0, 0, 0]);
        let buf = w.finish();
        assert_eq!(
            WireReader::new(&buf).nested::<u32>(),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn counters_roundtrip_and_delta_saturates_fieldwise() {
        let later = Hits { a: 10, b: 3 };
        let earlier = Hits { a: 4, b: 5 };
        assert_eq!(later.delta(&earlier), Hits { a: 6, b: 0 });
        assert_eq!(Hits::from_wire(&later.to_wire()), Ok(later));
        assert_eq!(later.to_wire(), (10u64, 3u64).to_wire());
    }

    #[test]
    fn intern_is_stable_and_deduplicated() {
        let a = intern("migration-test-payload");
        let b = intern("migration-test-payload");
        assert!(std::ptr::eq(a, b), "same interned pointer");
        let c = intern(&format!("migration-{}", "test-payload"));
        assert!(std::ptr::eq(a, c), "runtime-built string folds in");
        let d = <&'static str>::from_wire(&"migration-test-payload".to_wire());
        assert!(d.is_ok_and(|d| std::ptr::eq(a, d)), "decoding interns");
    }

    #[test]
    fn display_names_every_variant() {
        let errs: [WireError; 5] = [
            WireError::Truncated { need: 8, have: 3 },
            WireError::BadTag { what: "x", tag: 9 },
            WireError::TooLong { len: 10, max: 1 },
            WireError::BadValue { what: "bool" },
            WireError::TrailingBytes { extra: 4 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
