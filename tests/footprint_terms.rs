//! `Footprints::terms` — the one-pass `(elems, misses, lines)` the
//! analytical models score through — must be bit-identical to the three
//! separate reference computations `elems`, `misses_for` and `lines` for
//! every access shape the suite produces, under every prefetch
//! [`Coverage`] regime, line length and tile size. The models reach
//! footprints only through `terms`, so this is the check that the fast
//! path computes exactly what the equations say.

use palo::core::{Coverage, Footprints};
use palo::ir::{AffineIndex, DType, LoopNest, NestBuilder};
use palo::suite::Benchmark;

const COVERAGES: [Coverage; 3] = [Coverage::None, Coverage::Pairs, Coverage::Rows];

/// Cache-line sizes in bytes: lines of 8 to 32 elements for the suite's
/// dtypes.
const LINE_SIZES: [usize; 3] = [32, 64, 128];

/// SplitMix64: a seeded, dependency-free stream for tile sizes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `1..=hi`.
    fn size(&mut self, hi: usize) -> usize {
        1 + (self.next() % hi.max(1) as u64) as usize
    }
}

/// Tile-size vectors for a nest: all-ones, the full extents, each
/// variable alone at 1 (Eq. 1's slice) or alone at an odd size, then
/// seeded mixes of 1, full, odd and arbitrary per-variable sizes.
fn tile_sizes(extents: &[usize], rng: &mut Rng) -> Vec<Vec<usize>> {
    let odd = |e: usize, r: &mut Rng| (r.size(e) | 1).min(if e % 2 == 1 { e } else { e - 1 });
    let mut out = vec![vec![1; extents.len()], extents.to_vec()];
    for v in 0..extents.len() {
        let mut slice = extents.to_vec();
        slice[v] = 1;
        out.push(slice);
        let mut oddv = extents.to_vec();
        oddv[v] = odd(extents[v], rng);
        out.push(oddv);
    }
    for _ in 0..40 {
        let tile = extents
            .iter()
            .map(|&e| match rng.next() % 4 {
                0 => 1,
                1 => e,
                2 => odd(e, rng),
                _ => rng.size(e),
            })
            .collect();
        out.push(tile);
    }
    out
}

/// Asserts `terms` against the references for every shape of `nest`;
/// returns the number of comparisons made.
fn check_nest(name: &str, nest: &LoopNest, rng: &mut Rng) -> usize {
    let tiles = tile_sizes(&nest.extents(), rng);
    let mut checked = 0;
    for line in LINE_SIZES {
        let fp = Footprints::new(nest, line);
        for a in 0..fp.shapes().len() {
            for tile in &tiles {
                for cov in COVERAGES {
                    let got = fp.terms(a, tile, cov);
                    let want =
                        (fp.elems(a, tile), fp.misses_for(a, tile, cov), fp.lines(a, tile));
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits(), got.2.to_bits()),
                        (want.0.to_bits(), want.1.to_bits(), want.2.to_bits()),
                        "{name}: shape {a}, line {line} B, tile {tile:?}, {cov:?}: \
                         terms {got:?} != reference {want:?}"
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn terms_match_the_reference_footprints_on_every_suite_shape() {
    let mut rng = Rng(0x5EED_F00D);
    let mut checked = 0;
    for b in Benchmark::all() {
        let scaled = b.build_scaled().unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let small = b.build(37).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        for (k, nest) in scaled.iter().chain(&small).enumerate() {
            checked += check_nest(&format!("{} nest {k}", b.name()), nest, &mut rng);
        }
    }
    assert!(checked > 10_000, "only {checked} comparisons");
}

#[test]
fn scalar_and_constant_accesses_match_the_reference() {
    // `s[] = A[i][j] * c[0] * B[i][2j + 3]`: a zero-dimension output, an
    // input whose only subscript is a constant, and a strided, offset
    // 2-D input.
    let mut b = NestBuilder::new("scalar", DType::F64);
    let i = b.var("i", 9);
    let j = b.var("j", 40);
    let s = b.array("s", &[]);
    let a = b.array("A", &[9, 40]);
    let c = b.array("c", &[1]);
    let strided = b.array("B", &[9, 83]);
    let rhs = b.load(a, &[i, j])
        * b.load_expr(c, vec![AffineIndex::constant(0)])
        * b.load_expr(strided, vec![AffineIndex::var(i), AffineIndex::from_terms([(j, 2)], 3)]);
    b.store_expr(s, vec![], rhs);
    let nest = b.build().unwrap();

    let fp = Footprints::new(&nest, 64);
    assert!(fp.shapes().iter().any(|sh| sh.dims.is_empty()), "no zero-dimension shape");
    for a in 0..fp.shapes().len() {
        if fp.shapes()[a].dims.is_empty() {
            for cov in COVERAGES {
                assert_eq!(fp.terms(a, &[5, 17], cov), (1.0, 1.0, 1.0));
            }
        }
    }
    check_nest("scalar", &nest, &mut Rng(7));
}
