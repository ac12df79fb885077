//! Tile-footprint computations shared by the analytical models.
//!
//! For a tile that lets variable `v` range over `T_v` consecutive values,
//! an affine subscript `Σ c·v + o` spans `1 + Σ |c|·(T_v − 1)` values, so
//! every access has a rectangular footprint per array dimension. From it
//! the model derives:
//!
//! * **elements** — the working-set contribution (Eqs. 1, 6);
//! * **lines** — cold misses *without* prefetch discounting (Eq. 2);
//! * **rows** — cold misses *with* the streaming prefetcher covering each
//!   contiguous row after its first line (Eq. 3): the number of distinct
//!   row segments;
//! * **pairs** — cold misses with an *adjacent-pair* (buddy-line)
//!   prefetcher: every demand miss also fetches the other line of its
//!   aligned pair, so a contiguous row costs one miss per line *pair*.
//!
//! Which estimate applies is a property of the target's prefetchers, not
//! of the model: [`Coverage`] names the three regimes and
//! [`Footprints::misses_for`] selects among them. The analytical models
//! read all three through [`Footprints::terms`], one allocation-free pass
//! per access; the separate methods are its reference.

use palo_ir::{ArrayId, LoopNest};
use std::collections::BTreeSet;

/// How much of a tile's cold misses the target's hardware prefetchers
/// absorb — the per-strategy discount the analytical models route their
/// `a2`/`a3` miss terms through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// No prefetch coverage: every touched line is a miss
    /// ([`Footprints::lines`], Eq. 2).
    None,
    /// Adjacent-pair (buddy-line) coverage: one miss per aligned line
    /// pair of each row ([`Footprints::pairs`]).
    Pairs,
    /// Stream coverage: a streaming unit covers each contiguous row after
    /// its first line ([`Footprints::rows`], Eq. 3).
    Rows,
}

/// Shape of one (deduplicated) access: per array dimension, the
/// `(variable, |coefficient|)` terms of its subscript.
#[derive(Debug, Clone)]
pub struct AccessShape {
    /// The referenced array.
    pub array: ArrayId,
    /// Per dimension: the variables and absolute coefficients.
    pub dims: Vec<Vec<(usize, i64)>>,
    /// Variables used anywhere in the access.
    pub vars: BTreeSet<usize>,
    /// Whether this shape is (also) the statement's output.
    pub is_output: bool,
}

/// All deduplicated access shapes of a nest plus the line length `lc`.
#[derive(Debug, Clone)]
pub struct Footprints {
    shapes: Vec<AccessShape>,
    lc: usize,
}

impl Footprints {
    /// Computes the shapes for `nest` under a cache-line size of
    /// `line_size` bytes. The output access and input loads are
    /// deduplicated structurally (an accumulation counts its array once,
    /// as the paper does).
    pub fn new(nest: &LoopNest, line_size: usize) -> Self {
        // Structural dedup key: the array plus each index's (var, coeff)
        // terms.
        type ShapeKey = (ArrayId, Vec<Vec<(usize, i64)>>);
        let lc = (line_size / nest.dtype().size_bytes()).max(1);
        let mut shapes: Vec<AccessShape> = Vec::new();
        let mut keys: Vec<ShapeKey> = Vec::new();

        let out_acc = &nest.statement().output;
        let all: Vec<(&palo_ir::Access, bool)> = std::iter::once((out_acc, true))
            .chain(nest.statement().inputs().map(|a| (a, false)))
            .collect();
        for (acc, is_output) in all {
            let dims: Vec<Vec<(usize, i64)>> = acc
                .indices
                .iter()
                .map(|ix| ix.terms().iter().map(|&(v, c)| (v.index(), c.abs())).collect())
                .collect();
            let key = (acc.array, dims.clone());
            if let Some(pos) = keys.iter().position(|k| *k == key) {
                shapes[pos].is_output |= is_output;
                continue;
            }
            keys.push(key);
            shapes.push(AccessShape {
                array: acc.array,
                vars: acc.var_set().into_iter().map(|v| v.index()).collect(),
                dims,
                is_output,
            });
        }
        Footprints { shapes, lc }
    }

    /// Elements per cache line (`lc`).
    pub fn lc(&self) -> usize {
        self.lc
    }

    /// The deduplicated shapes.
    pub fn shapes(&self) -> &[AccessShape] {
        &self.shapes
    }

    /// Footprint extent of shape `a` in each array dimension when
    /// variable `v` ranges over `sizes[v]` values.
    pub fn extents(&self, a: usize, sizes: &[usize]) -> Vec<f64> {
        self.shapes[a]
            .dims
            .iter()
            .map(|terms| {
                1.0 + terms
                    .iter()
                    .map(|&(v, c)| c as f64 * (sizes[v].saturating_sub(1)) as f64)
                    .sum::<f64>()
            })
            .collect()
    }

    /// Footprint size in elements.
    pub fn elems(&self, a: usize, sizes: &[usize]) -> f64 {
        self.extents(a, sizes).iter().product()
    }

    /// Footprint size in cache lines (no prefetch discount).
    pub fn lines(&self, a: usize, sizes: &[usize]) -> f64 {
        let e = self.extents(a, sizes);
        match e.split_last() {
            Some((last, rest)) => {
                rest.iter().product::<f64>() * (last / self.lc as f64).ceil().max(1.0)
            }
            None => 1.0,
        }
    }

    /// Distinct contiguous row segments of the footprint — the cold-miss
    /// estimate once the streaming prefetcher covers each row (Eq. 3).
    pub fn rows(&self, a: usize, sizes: &[usize]) -> f64 {
        let e = self.extents(a, sizes);
        match e.split_last() {
            Some((_, rest)) => rest.iter().product::<f64>(),
            None => 1.0,
        }
    }

    /// Cold misses with an adjacent-pair prefetcher: each demand miss
    /// drags in the buddy line of its aligned pair, so a row of `L` lines
    /// costs `⌈L/2⌉` misses.
    pub fn pairs(&self, a: usize, sizes: &[usize]) -> f64 {
        let e = self.extents(a, sizes);
        match e.split_last() {
            Some((last, rest)) => {
                let lines = (last / self.lc as f64).ceil().max(1.0);
                rest.iter().product::<f64>() * (lines / 2.0).ceil()
            }
            None => 1.0,
        }
    }

    /// Cold-miss estimate: [`Footprints::rows`] with prefetch
    /// discounting, [`Footprints::lines`] without.
    pub fn misses(&self, a: usize, sizes: &[usize], prefetch_discount: bool) -> f64 {
        self.misses_for(
            a,
            sizes,
            if prefetch_discount { Coverage::Rows } else { Coverage::None },
        )
    }

    /// Cold-miss estimate under the given prefetch [`Coverage`] regime.
    pub fn misses_for(&self, a: usize, sizes: &[usize], coverage: Coverage) -> f64 {
        match coverage {
            Coverage::None => self.lines(a, sizes),
            Coverage::Pairs => self.pairs(a, sizes),
            Coverage::Rows => self.rows(a, sizes),
        }
    }

    /// `(elems, misses_for(coverage), lines)` of shape `a` in one
    /// allocation-free pass over its dimensions — the hot path of the
    /// analytical models. Bit-identical to the three separate calls: the
    /// same per-dimension extents and the same left-to-right products,
    /// with `head` the product of the leading extents.
    pub fn terms(&self, a: usize, sizes: &[usize], coverage: Coverage) -> (f64, f64, f64) {
        let dims = &self.shapes[a].dims;
        let Some((last, rest)) = dims.split_last() else {
            return (1.0, 1.0, 1.0);
        };
        let extent = |terms: &[(usize, i64)]| {
            let mut s = 0.0;
            for &(v, c) in terms {
                s += c as f64 * (sizes[v].saturating_sub(1)) as f64;
            }
            1.0 + s
        };
        let mut head = 1.0;
        for terms in rest {
            head *= extent(terms);
        }
        let e_last = extent(last);
        let nlines = (e_last / self.lc as f64).ceil().max(1.0);
        let misses = match coverage {
            Coverage::None => head * nlines,
            Coverage::Pairs => head * (nlines / 2.0).ceil(),
            Coverage::Rows => head,
        };
        (head * e_last, misses, head * nlines)
    }

    /// Whether shape `a` depends on variable `v`.
    pub fn uses_var(&self, a: usize, v: usize) -> bool {
        self.shapes[a].vars.contains(&v)
    }

    /// Whether the access is *transposed* with respect to the memory
    /// layout: its last (contiguous) array dimension is indexed by a
    /// variable that also indexes an earlier dimension of another access
    /// ordered oppositely. For the models we only need the weaker local
    /// fact: whether the access's last-dimension subscript involves the
    /// given variable.
    pub fn last_dim_uses(&self, a: usize, v: usize) -> bool {
        self.shapes[a]
            .dims
            .last()
            .map(|terms| terms.iter().any(|&(tv, _)| tv == v))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_ir::{DType, NestBuilder};

    fn matmul(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("matmul", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let bm = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    #[test]
    fn dedupes_accumulation_output() {
        let fp = Footprints::new(&matmul(64), 64);
        // C (store+load merged), A, B
        assert_eq!(fp.shapes().len(), 3);
        assert!(fp.shapes()[0].is_output);
        assert!(!fp.shapes()[1].is_output);
    }

    #[test]
    fn matmul_tile_footprints_match_paper_eq_4() {
        // Tile (Ti, Tj, Tk) = (8, 32, 16): rows are C: Ti, A: Ti, B: Tk.
        let fp = Footprints::new(&matmul(64), 64);
        let sizes = [8usize, 32, 16];
        assert_eq!(fp.rows(0, &sizes), 8.0); // C[i][j]
        assert_eq!(fp.rows(1, &sizes), 8.0); // A[i][k]
        assert_eq!(fp.rows(2, &sizes), 16.0); // B[k][j]
    }

    #[test]
    fn matmul_ws_matches_paper_eq_1() {
        // One iteration of the outermost intra loop i: sizes (1, Tj, Tk).
        let fp = Footprints::new(&matmul(64), 64);
        let sizes = [1usize, 32, 16];
        let ws: f64 = (0..3).map(|a| fp.elems(a, &sizes)).sum();
        assert_eq!(ws, 32.0 + 16.0 + 32.0 * 16.0); // Tj + Tk + Tj*Tk
    }

    #[test]
    fn lines_round_up_per_row() {
        let fp = Footprints::new(&matmul(64), 64); // lc = 16 f32
        let sizes = [2usize, 20, 1];
        // C footprint 2x20: 2 rows of ceil(20/16)=2 lines.
        assert_eq!(fp.lines(0, &sizes), 4.0);
        assert_eq!(fp.rows(0, &sizes), 2.0);
        assert_eq!(fp.misses(0, &sizes, true), 2.0);
        assert_eq!(fp.misses(0, &sizes, false), 4.0);
    }

    #[test]
    fn pair_coverage_sits_between_lines_and_rows() {
        let fp = Footprints::new(&matmul(64), 64); // lc = 16 f32
        let sizes = [2usize, 40, 1];
        // C footprint 2x40: 2 rows of ceil(40/16)=3 lines; a buddy-line
        // unit covers them in ceil(3/2)=2 misses per row.
        assert_eq!(fp.lines(0, &sizes), 6.0);
        assert_eq!(fp.pairs(0, &sizes), 4.0);
        assert_eq!(fp.rows(0, &sizes), 2.0);
        assert_eq!(fp.misses_for(0, &sizes, Coverage::Pairs), 4.0);
        assert_eq!(fp.misses_for(0, &sizes, Coverage::None), fp.lines(0, &sizes));
        assert_eq!(fp.misses_for(0, &sizes, Coverage::Rows), fp.rows(0, &sizes));
    }

    #[test]
    fn window_offsets_widen_extents() {
        // in[x + rx] with Tx = 8, Trx = 3 -> extent 10.
        let mut b = NestBuilder::new("conv1d", DType::F32);
        let x = b.var("x", 32);
        let rx = b.var("rx", 3);
        let input = b.array("in", &[34]);
        let out = b.array("out", &[32]);
        let ix = palo_ir::AffineIndex::var(x) + palo_ir::AffineIndex::var(rx);
        let ld = b.load_expr(input, vec![ix]);
        b.accumulate(out, &[x], ld);
        let nest = b.build().unwrap();
        let fp = Footprints::new(&nest, 64);
        // shape 0 = out, 1 = in
        let e = fp.extents(1, &[8, 3]);
        assert_eq!(e, vec![10.0]);
    }

    #[test]
    fn uses_var_and_last_dim() {
        let fp = Footprints::new(&matmul(64), 64);
        // B[k][j]: uses k and j; last dim uses j.
        assert!(fp.uses_var(2, 2));
        assert!(fp.uses_var(2, 1));
        assert!(!fp.uses_var(2, 0));
        assert!(fp.last_dim_uses(2, 1));
        assert!(!fp.last_dim_uses(2, 2));
    }
}
