//! Stable content hashing for IR values.
//!
//! The pass framework in `palo-core` keys its artifact cache by a
//! *fingerprint* of the request — and a cache key must be stable across
//! processes, runs and platforms, which rules out
//! [`std::hash::Hash`]/[`std::collections::hash_map::DefaultHasher`]
//! (SipHash with unspecified keys and an unspecified algorithm). This
//! module provides the substrate:
//!
//! * [`StableHasher`] — 128-bit FNV-1a over an explicit byte encoding.
//!   Every multi-byte integer is folded in little-endian, floats as their
//!   IEEE-754 bits, strings as length-prefixed UTF-8, so the digest is a
//!   pure function of the value;
//! * [`StableHash`] — the trait hashable values implement. Collections
//!   are length-prefixed (so `["ab"], ["a","b"]` differ) and enums fold a
//!   discriminant byte before their payload;
//! * [`Digest`] — the resulting 128-bit value, printable as hex.
//!
//! [`LoopNest`] hashes in *canonical form*: everything that can influence
//! an optimization, lowering, validation or simulation artifact — loop
//! names and extents, dtype, array shapes, the statement tree — is folded
//! in. Names that only label output are excluded: the nest's kernel name
//! and every array's name. Arrays are identified by position
//! ([`ArrayId`] in every [`Access`]), so two nests that differ only in
//! these names — `3mm`'s `E = A·B` and `matmul`'s `C = A·B` at one size —
//! share every cached artifact.

use crate::access::{Access, ArrayDecl, ArrayId};
use crate::affine::{AffineIndex, VarId};
use crate::dtype::DType;
use crate::expr::{BinOp, Expr, UnOp};
use crate::nest::{LoopNest, LoopVar, Statement};

/// A 128-bit stable content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Streaming 128-bit FNV-1a hasher with an explicit, stable encoding.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte (enum discriminants, booleans).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Folds a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit targets agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `i64` little-endian.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a float as its exact IEEE-754 bits (no tolerance: a cache
    /// key must distinguish values the arithmetic distinguishes).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string as length-prefixed UTF-8.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

/// A value with a stable, content-addressed hash.
///
/// Implementations must fold *every* field that can influence derived
/// artifacts and must be injective in practice: length-prefix variable
/// collections and tag enum variants.
pub trait StableHash {
    /// Folds `self` into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);

    /// Convenience: the digest of `self` alone.
    fn digest(&self) -> Digest {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h);
        h.finish()
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(*self as u8);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(*self);
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl StableHash for VarId {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.0);
    }
}

impl StableHash for ArrayId {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.0);
    }
}

impl StableHash for DType {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
            DType::U8 => 4,
            DType::U16 => 5,
        });
    }
}

impl StableHash for AffineIndex {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Terms are kept normalized (sorted, zero-free) by construction,
        // so the field encoding is already canonical.
        h.write_usize(self.terms().len());
        for &(v, c) in self.terms() {
            v.stable_hash(h);
            h.write_i64(c);
        }
        h.write_i64(self.offset());
    }
}

impl StableHash for Access {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.array.stable_hash(h);
        self.indices.stable_hash(h);
    }
}

impl StableHash for ArrayDecl {
    /// The shape only. The name labels output (and a validation error's
    /// text, which is never cached); accesses refer to the array by
    /// [`ArrayId`], so its position in the declaration list keys it.
    fn stable_hash(&self, h: &mut StableHasher) {
        self.dims.stable_hash(h);
    }
}

impl StableHash for BinOp {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Max => 3,
            BinOp::Min => 4,
            BinOp::And => 5,
        });
    }
}

impl StableHash for UnOp {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            UnOp::Neg => 0,
            UnOp::Abs => 1,
        });
    }
}

impl StableHash for Expr {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Expr::Load(a) => {
                h.write_u8(0);
                a.stable_hash(h);
            }
            Expr::Const(c) => {
                h.write_u8(1);
                h.write_f64(*c);
            }
            Expr::Bin(op, l, r) => {
                h.write_u8(2);
                op.stable_hash(h);
                l.stable_hash(h);
                r.stable_hash(h);
            }
            Expr::Un(op, e) => {
                h.write_u8(3);
                op.stable_hash(h);
                e.stable_hash(h);
            }
            Expr::GeIndicator(l, r) => {
                h.write_u8(4);
                l.stable_hash(h);
                r.stable_hash(h);
            }
        }
    }
}

impl StableHash for LoopVar {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Names are part of the canonical form: schedules address loops
        // by name, so a rename changes the lowered artifacts.
        h.write_str(&self.name);
        h.write_usize(self.extent);
    }
}

impl StableHash for Statement {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.output.stable_hash(h);
        self.rhs.stable_hash(h);
    }
}

impl StableHash for LoopNest {
    /// Canonical form: dtype, loops (name + extent, program order),
    /// array shapes (declaration order) and the statement tree. The
    /// kernel name and the array names are excluded — they label output,
    /// they never change an artifact.
    fn stable_hash(&self, h: &mut StableHasher) {
        self.dtype().stable_hash(h);
        self.vars().stable_hash(h);
        self.arrays().stable_hash(h);
        self.statement().stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NestBuilder;

    fn matmul(name: &str, n: usize, dtype: DType) -> LoopNest {
        let mut b = NestBuilder::new(name, dtype);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let bm = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    /// `arrays[2][i][j] += arrays[x][i][k] * arrays[y][k][j]` at n = 32,
    /// over three arrays declared in order with the given names and
    /// shapes.
    fn product(arrays: [(&str, [usize; 2]); 3], x: usize, y: usize) -> LoopNest {
        let mut b = NestBuilder::new("product", DType::F32);
        let i = b.var("i", 32);
        let j = b.var("j", 32);
        let k = b.var("k", 32);
        let ids: Vec<ArrayId> =
            arrays.iter().map(|(name, dims)| b.array(*name, dims)).collect();
        b.accumulate(ids[2], &[i, j], b.load(ids[x], &[i, k]) * b.load(ids[y], &[k, j]));
        b.build().unwrap()
    }

    const SQUARE: [usize; 2] = [32, 32];

    #[test]
    fn digest_is_deterministic_and_known() {
        let a = matmul("mm", 32, DType::F32).digest();
        let b = matmul("mm", 32, DType::F32).digest();
        assert_eq!(a, b);
        // Hex rendering is zero-padded to 32 nibbles.
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn kernel_name_is_not_part_of_the_canonical_form() {
        assert_eq!(
            matmul("mm", 32, DType::F32).digest(),
            matmul("renamed", 32, DType::F32).digest()
        );
        // Array names label output too: `3mm`'s `G = E·F` is `matmul`.
        let abc = [("A", SQUARE), ("B", SQUARE), ("C", SQUARE)];
        let efg = [("E", SQUARE), ("F", SQUARE), ("G", SQUARE)];
        assert_eq!(product(abc, 0, 1).digest(), product(efg, 0, 1).digest());
        assert_eq!(product(abc, 0, 1).digest(), matmul("mm", 32, DType::F32).digest());
    }

    #[test]
    fn canonical_form_keeps_what_the_walker_reads() {
        let abc = [("A", SQUARE), ("B", SQUARE), ("C", SQUARE)];
        let base = product(abc, 0, 1).digest();
        // `A·A` (syrk-style) reads one array twice; `A·B` reads two.
        assert_ne!(base, product(abc, 0, 0).digest());
        // Swapped operands walk each array with the other's subscripts.
        assert_ne!(base, product(abc, 1, 0).digest());
        // A changed dim moves every later array and changes strides.
        let wide = [("A", SQUARE), ("B", [32, 40]), ("C", SQUARE)];
        assert_ne!(base, product(wide, 0, 1).digest());
    }

    #[test]
    fn bounds_and_dtype_change_the_digest() {
        let base = matmul("mm", 32, DType::F32).digest();
        assert_ne!(base, matmul("mm", 33, DType::F32).digest());
        assert_ne!(base, matmul("mm", 32, DType::F64).digest());
    }

    #[test]
    fn length_prefixing_separates_concatenations() {
        let mut h1 = StableHasher::new();
        ["ab".to_string()].as_slice().stable_hash(&mut h1);
        let mut h2 = StableHasher::new();
        ["a".to_string(), "b".to_string()].as_slice().stable_hash(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn float_bits_distinguish_negative_zero() {
        assert_ne!((0.0f64).digest(), (-0.0f64).digest());
        assert_eq!((1.5f64).digest(), (1.5f64).digest());
    }

    #[test]
    fn option_tagging_separates_none_from_zero() {
        let none: Option<u64> = None;
        assert_ne!(none.digest(), Some(0u64).digest());
    }
}
