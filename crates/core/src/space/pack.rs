//! Packed state encodings: fixed-width bitfield codecs that fold a whole
//! model state into a single `u128` word.
//!
//! The states explored by the exact engines are small and regular — a
//! round counter plus a few per-process fields, each drawn from a tiny
//! domain — yet the natural Rust representations (`Vec`s of `BTreeSet`s)
//! cost hundreds of heap bytes and `O(|state|)` work per hash, clone and
//! equality test. A [`StatePacker`] replaces that representation *inside
//! the arenas*: packable states are stored, hashed and compared as one
//! `u128`, and only unpacked back into the model's state type at the
//! [`resolve`](super::Arena::resolve) boundary.
//!
//! # Contract
//!
//! For every state `x` the model can reach:
//!
//! * **round trip** — if `pack(x) == Some(w)` then `unpack(w) == x`;
//! * **injectivity** — `pack(x) == pack(y) == Some(w)` implies `x == y`
//!   (automatic from round-tripping);
//! * **equality invariance** — packability is a function of the state's
//!   *value*: equal states either both pack or both spill;
//! * **permutation invariance** (symmetric models) — `pack(π·x)` is `Some`
//!   iff `pack(x)` is, so one orbit never straddles the packed/spilled
//!   boundary;
//! * **equivariance** (when a [`permute`](StatePacker::permute_word) shuffle
//!   is provided) — `permute_word(pack(x), π) == pack(permute_state(x, π))`.
//!
//! `pack` returning `None` is always legal (the arena falls back to storing
//! the boxed state — the *spill* path), so codecs cap their field widths at
//! whatever the scan configurations actually use and spill the rest instead
//! of panicking.
//!
//! Bit 127 ([`SPILL_TAG`]) is reserved by the arenas to tag spilled slots,
//! so packed words must stay below it; [`StatePacker::pack`] enforces this
//! by spilling any wider word.

use std::hash::Hasher;
use std::sync::Arc;

use fxhash::FxHasher;

use crate::pid::Value;
use crate::sym::PidPerm;

/// Reserved tag bit: arena word slots with this bit set index into the
/// spill vector instead of encoding a state. Packed words must be smaller.
pub const SPILL_TAG: u128 = 1 << 127;

/// FxHash of a packed word — the arena's hash function for packed slots.
/// (Hashing 16 bytes instead of a whole state tree is most of the point.)
#[must_use]
pub fn word_hash(w: u128) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(w as u64);
    h.write_u64((w >> 64) as u64);
    h.finish()
}

/// Shared pack closure of a [`StatePacker`].
type PackFn<S> = Arc<dyn Fn(&S) -> Option<u128> + Send + Sync>;
/// Shared unpack closure of a [`StatePacker`].
type UnpackFn<S> = Arc<dyn Fn(u128) -> S + Send + Sync>;
/// Shared word-level renaming shuffle of a [`StatePacker`].
type PermuteFn = Arc<dyn Fn(u128, &PidPerm) -> u128 + Send + Sync>;

/// A `u128` bitfield codec for one model's state type.
///
/// Built from closures so model crates can capture their configuration
/// (process count, per-protocol local-state codecs); stored behind [`Arc`]s
/// so a packer clones cheaply into arenas and solvers.
pub struct StatePacker<S> {
    pack: PackFn<S>,
    unpack: UnpackFn<S>,
    permute: Option<PermuteFn>,
}

impl<S> Clone for StatePacker<S> {
    fn clone(&self) -> Self {
        StatePacker {
            pack: Arc::clone(&self.pack),
            unpack: Arc::clone(&self.unpack),
            permute: self.permute.as_ref().map(Arc::clone),
        }
    }
}

impl<S> std::fmt::Debug for StatePacker<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatePacker")
            .field("permute", &self.permute.is_some())
            .finish()
    }
}

impl<S> StatePacker<S> {
    /// A packer from its pack/unpack closures (see the module-level
    /// contract).
    pub fn new(
        pack: impl Fn(&S) -> Option<u128> + Send + Sync + 'static,
        unpack: impl Fn(u128) -> S + Send + Sync + 'static,
    ) -> Self {
        StatePacker {
            pack: Arc::new(pack),
            unpack: Arc::new(unpack),
            permute: None,
        }
    }

    /// Adds an equivariant word-level renaming shuffle:
    /// `permute_word(pack(x), π) == pack(permute_state(x, π))`. Unlocks the
    /// packed canonicalization fast path
    /// ([`canonicalize_packed`](crate::sym::canonicalize_packed)).
    #[must_use]
    pub fn with_permute(
        mut self,
        permute: impl Fn(u128, &PidPerm) -> u128 + Send + Sync + 'static,
    ) -> Self {
        self.permute = Some(Arc::new(permute));
        self
    }

    /// Packs `x`, or `None` if it does not fit the codec (the caller
    /// spills). Words that would collide with [`SPILL_TAG`] are spilled
    /// too, so a returned word is always below `1 << 127`.
    #[must_use]
    pub fn pack(&self, x: &S) -> Option<u128> {
        (self.pack)(x).filter(|w| *w < SPILL_TAG)
    }

    /// Decodes a word produced by [`StatePacker::pack`].
    #[must_use]
    pub fn unpack(&self, w: u128) -> S {
        (self.unpack)(w)
    }

    /// Whether the packer carries a renaming shuffle.
    #[must_use]
    pub fn permutes(&self) -> bool {
        self.permute.is_some()
    }

    /// Applies the renaming shuffle to a packed word, or `None` if the
    /// packer has none.
    #[must_use]
    pub fn permute_word(&self, w: u128, perm: &PidPerm) -> Option<u128> {
        self.permute.as_ref().map(|f| f(w, perm))
    }
}

/// Width of the [`pack_decision`] codec in bits.
pub const DECISION_BITS: u32 = 3;

/// Packs a write-once decision register `d_i` into [`DECISION_BITS`] bits:
/// `0` = undecided, `v + 1` = decided `v`. `None` (spill) for values above
/// 6 — far beyond the binary consensus the scans exercise.
#[must_use]
pub fn pack_decision(d: Option<Value>) -> Option<u64> {
    match d {
        None => Some(0),
        Some(v) => {
            let g = u64::from(v.get());
            (g < (1 << DECISION_BITS) - 1).then_some(g + 1)
        }
    }
}

/// Decodes a field produced by [`pack_decision`].
#[must_use]
pub fn unpack_decision(bits: u64) -> Option<Value> {
    (bits > 0).then(|| Value::new((bits - 1) as u32))
}

/// A fixed-width bitfield codec for one *field* of a state — typically a
/// protocol's per-process local state, register or message payload.
/// Model-level [`StatePacker`]s compose these into per-process lanes.
pub struct FieldPacker<T> {
    bits: u32,
    pack: FieldPackFn<T>,
    unpack: FieldUnpackFn<T>,
}

/// Shared pack closure of a [`FieldPacker`].
type FieldPackFn<T> = Arc<dyn Fn(&T) -> Option<u64> + Send + Sync>;
/// Shared unpack closure of a [`FieldPacker`].
type FieldUnpackFn<T> = Arc<dyn Fn(u64) -> T + Send + Sync>;

impl<T> Clone for FieldPacker<T> {
    fn clone(&self) -> Self {
        FieldPacker {
            bits: self.bits,
            pack: Arc::clone(&self.pack),
            unpack: Arc::clone(&self.unpack),
        }
    }
}

impl<T> std::fmt::Debug for FieldPacker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldPacker")
            .field("bits", &self.bits)
            .finish()
    }
}

impl<T> FieldPacker<T> {
    /// A field codec of `bits` width. `pack` must return values below
    /// `1 << bits` (checked at pack time) and round-trip through `unpack`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 64.
    pub fn new(
        bits: u32,
        pack: impl Fn(&T) -> Option<u64> + Send + Sync + 'static,
        unpack: impl Fn(u64) -> T + Send + Sync + 'static,
    ) -> Self {
        assert!((1..=64).contains(&bits), "field width out of range");
        FieldPacker {
            bits,
            pack: Arc::new(pack),
            unpack: Arc::new(unpack),
        }
    }

    /// The field's width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The low-bits mask covering the field's width.
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1 << self.bits) - 1
        }
    }

    /// Packs one field value, or `None` if it does not fit.
    #[must_use]
    pub fn pack(&self, v: &T) -> Option<u64> {
        (self.pack)(v).filter(|w| self.bits >= 64 || *w < (1 << self.bits))
    }

    /// Decodes a field value produced by [`FieldPacker::pack`].
    #[must_use]
    pub fn unpack(&self, w: u64) -> T {
        (self.unpack)(w)
    }
}

/// Little-endian bit writer over one `u128` word: fields are pushed low
/// bits first. Used by codecs with variable-length sections (mailboxes);
/// fixed-lane codecs shift by hand.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordWriter {
    word: u128,
    pos: u32,
}

impl WordWriter {
    /// An empty writer at bit position 0.
    #[must_use]
    pub fn new() -> Self {
        WordWriter::default()
    }

    /// Appends `bits` bits of `value`. `None` (overflow) if the value does
    /// not fit the width or the word would spill past bit 126.
    #[must_use]
    pub fn push(mut self, value: u64, bits: u32) -> Option<Self> {
        if bits == 0 || bits > 64 || (bits < 64 && value >= (1 << bits)) {
            return None;
        }
        if self.pos + bits > 127 {
            return None;
        }
        self.word |= u128::from(value) << self.pos;
        self.pos += bits;
        Some(self)
    }

    /// The packed word.
    #[must_use]
    pub fn finish(self) -> u128 {
        self.word
    }
}

/// Cursor counterpart of [`WordWriter`]: reads fields low bits first.
#[derive(Clone, Copy, Debug)]
pub struct WordReader {
    word: u128,
    pos: u32,
}

impl WordReader {
    /// A cursor at bit 0 of `word`.
    #[must_use]
    pub fn new(word: u128) -> Self {
        WordReader { word, pos: 0 }
    }

    /// Reads the next `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if the read runs past bit 128 or `bits` exceeds 64.
    #[must_use]
    pub fn take(&mut self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits) && self.pos + bits <= 128);
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let out = (self.word >> self.pos) as u64 & mask;
        self.pos += bits;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_writer_round_trips_fields() {
        let w = WordWriter::new()
            .push(5, 3)
            .and_then(|w| w.push(0, 1))
            .and_then(|w| w.push(200, 8))
            .expect("13 bits fit in a word");
        let mut r = WordReader::new(w.finish());
        assert_eq!(r.take(3), 5);
        assert_eq!(r.take(1), 0);
        assert_eq!(r.take(8), 200);
    }

    #[test]
    fn word_writer_rejects_overflow() {
        assert!(WordWriter::new().push(8, 3).is_none(), "value too wide");
        let mut w = WordWriter::new();
        for _ in 0..12 {
            w = w.push(1, 10).expect("120 bits fit");
        }
        assert!(w.push(1, 10).is_none(), "bit 127 is reserved");
    }

    #[test]
    fn state_packer_spills_tagged_words() {
        // A pathological packer that emits the spill tag: pack() must
        // refuse the word rather than corrupt the arena.
        let p: StatePacker<u8> = StatePacker::new(|_| Some(SPILL_TAG), |_| 0);
        assert_eq!(p.pack(&1), None);
        let q: StatePacker<u8> = StatePacker::new(|v| Some(u128::from(*v)), |w| w as u8);
        assert_eq!(q.pack(&7), Some(7));
        assert_eq!(q.unpack(7), 7);
        assert!(!q.permutes());
    }

    #[test]
    fn field_packer_enforces_width() {
        let f: FieldPacker<u8> = FieldPacker::new(3, |v| Some(u64::from(*v)), |w| w as u8);
        assert_eq!(f.pack(&5), Some(5));
        assert_eq!(f.pack(&8), None, "3-bit field caps at 7");
        assert_eq!(f.unpack(5), 5);
        assert_eq!(f.bits(), 3);
    }

    #[test]
    fn decision_codec_round_trips() {
        for d in [None, Some(Value::ZERO), Some(Value::new(6))] {
            let bits = pack_decision(d).expect("small decisions pack");
            assert!(bits < (1 << DECISION_BITS));
            assert_eq!(unpack_decision(bits), d);
        }
        assert_eq!(
            pack_decision(Some(Value::new(7))),
            None,
            "7 collides with the tag space"
        );
    }

    #[test]
    fn word_hash_is_deterministic_and_spreads() {
        assert_eq!(word_hash(42), word_hash(42));
        assert_ne!(word_hash(1), word_hash(2));
        assert_ne!(word_hash(1), word_hash(1 << 64), "both halves mixed");
    }
}
