//! Allocation-free complex matmul micro-kernels.
//!
//! These are the arithmetic core of the contraction engine's hot path
//! (`qns-tnet`'s compiled plans): row-major complex matrix products
//! that write into **borrowed** output slices, so a caller replaying
//! the same shapes millions of times (the pattern sum) performs zero
//! heap allocations per call.
//!
//! Two flavors:
//!
//! * [`matmul_into`] — both operands contiguous row-major.
//! * [`matmul_gather_into`] — both operands are read through
//!   precomputed row/column offset tables ([`Gathered`]), fusing any
//!   axis permutation into the product without materializing a
//!   permuted copy. This works because a contraction's operand
//!   permutation always splits the axes into two groups (free and
//!   contracted), so the permuted flat index factorizes as
//!   `row_off[i] + col_off[j]`.
//!   [`matmul_gather_batch_into`] runs it over every pair of an lhs and
//!   an rhs value in one call, for operands that carry a batch leg.
//!
//! # Accumulation order
//!
//! Every kernel accumulates `out[i][j] += a[i][k] · b[k][j]` with `k`
//! strictly ascending per output element and skips `a[i][k] == 0`
//! exactly like [`Matrix::matmul`](crate::Matrix::matmul). This makes
//! the results **bit-identical** to the allocating reference path — a
//! property the contraction engine's tests rely on. Keep it when
//! touching the loops: blocking that reorders the `k` sum would break
//! replay-vs-reference equality.

use crate::Complex64;

/// Column-panel width (elements) for the cache-blocked loops: panels of
/// `b` rows and the `out` row stay resident while `k` streams. 512
/// complexes = 8 KiB, comfortably inside L1 alongside the operands.
const PANEL: usize = 512;

/// `out = a · b` for row-major `a` (`m×k`), `b` (`k×n`), writing the
/// row-major `m×n` product into `out` (fully overwritten).
///
/// Bit-identical to [`Matrix::matmul`](crate::Matrix::matmul) (same
/// accumulation order, same zero-skip), but allocation-free.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
// qns-lint: zero-alloc
pub fn matmul_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut [Complex64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    out.fill(Complex64::ZERO);
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n + j0..i * n + j1];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == Complex64::ZERO {
                    continue;
                }
                let b_row = &b[kk * n + j0..kk * n + j1];
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }
}

/// An operand of [`matmul_gather_into`], read through precomputed
/// offset tables: element `(r, c)` is `data[rows[r] + cols[c]]`, or
/// `data[rows[r] + c]` when `cols` is `None` (columns contiguous).
///
/// A contraction's operand permutation always splits the axes into
/// two groups (free and contracted), so the permuted flat index
/// factorizes into a row offset plus a column offset and any such
/// permutation is expressible as two tables — an unpermuted row-major
/// matrix is simply `rows[r] = r·cols`, `cols = None`.
#[derive(Clone, Copy, Debug)]
pub struct Gathered<'a> {
    /// The operand's flat buffer.
    pub data: &'a [Complex64],
    /// Flat offset of every row.
    pub rows: &'a [usize],
    /// Flat offset of every column within a row; `None` = `0, 1, 2, …`.
    pub cols: Option<&'a [usize]>,
}

/// `out = A · B` with both operands read through their offset tables
/// (see [`Gathered`]) — the fused-permutation variant of
/// [`matmul_into`]: no permuted copy of either operand is ever
/// materialized. `m = a.rows.len()`, `k = b.rows.len()`; `out` is
/// row-major `m×n` (fully overwritten). When `b`'s columns are
/// contiguous the inner loop streams a contiguous row slice.
///
/// Same accumulation order and zero-skip as [`matmul_into`], so the
/// result is bit-identical to first materializing both permuted
/// operands and multiplying.
///
/// # Panics
///
/// Panics if a table length disagrees with the dimensions or an offset
/// pair indexes out of its operand.
// qns-lint: zero-alloc
pub fn matmul_gather_into(a: Gathered<'_>, b: Gathered<'_>, out: &mut [Complex64], n: usize) {
    let (m, k) = (a.rows.len(), b.rows.len());
    assert!(
        a.cols.is_none_or(|c| c.len() == k),
        "lhs column table length mismatch"
    );
    assert!(
        b.cols.is_none_or(|c| c.len() == n),
        "rhs column table length mismatch"
    );
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    // One monomorphized loop nest per rhs column layout, so the inner
    // loop carries no per-element branch.
    match b.cols {
        None => gather_loops(a, b.rows, out, n, contiguous_axpy(b.data)),
        Some(cols) => gather_loops(a, b.rows, out, n, gathered_axpy(b.data, cols)),
    }
}

/// `count` operand values laid out `stride` elements apart: value `v`
/// is read through the operand's offset tables from `data[v · stride]`
/// on (see [`matmul_gather_batch_into`]).
#[derive(Clone, Copy, Debug)]
pub struct Strided {
    /// Number of values.
    pub count: usize,
    /// Elements from one value's start to the next.
    pub stride: usize,
}

/// [`matmul_gather_into`] for every pair of an lhs value and an rhs
/// value: output value `i · b_values.count + j`, row-major `m×n` and
/// packed in `out`, is lhs value `i` times rhs value `j`. A batch leg is
/// never contracted, so it only adds rows and columns: every output
/// entry is accumulated over the same `k`, in the same order, with the
/// same zero-skip as one [`matmul_gather_into`] call on its pair.
///
/// # Panics
///
/// Panics if a table length disagrees with the dimensions, `out` does
/// not hold one output per pair, or an offset indexes out of its
/// operand.
// qns-lint: zero-alloc
pub fn matmul_gather_batch_into(
    a: Gathered<'_>,
    a_values: Strided,
    b: Gathered<'_>,
    b_values: Strided,
    out: &mut [Complex64],
    n: usize,
) {
    let (m, k) = (a.rows.len(), b.rows.len());
    assert!(
        a.cols.is_none_or(|c| c.len() == k),
        "lhs column table length mismatch"
    );
    assert!(
        b.cols.is_none_or(|c| c.len() == n),
        "rhs column table length mismatch"
    );
    assert_eq!(
        out.len(),
        a_values.count * b_values.count * m * n,
        "output buffer length mismatch"
    );
    // Narrow rows (most steps of small circuits) get the loop nest with
    // their width fixed at compile time.
    let loops = match n {
        1 => value_loops::<1>,
        2 => value_loops::<2>,
        4 => value_loops::<4>,
        8 => value_loops::<8>,
        16 => value_loops::<16>,
        _ => value_loops::<0>,
    };
    loops(a, a_values, b, b_values, out, n);
}

/// `out_row += aik · b[bo + j0 ..]`: the rhs row streams contiguously.
// qns-lint: zero-alloc
#[inline(always)]
fn contiguous_axpy(b: &[Complex64]) -> impl Fn(&mut [Complex64], Complex64, usize, usize) + '_ {
    move |out_row, aik, bo, j0| {
        let b_row = &b[bo + j0..bo + j0 + out_row.len()];
        for (o, &bkj) in out_row.iter_mut().zip(b_row) {
            *o += aik * bkj;
        }
    }
}

/// `out_row[j] += aik · b[bo + cols[j0 + j]]`: the rhs row is gathered.
// qns-lint: zero-alloc
#[inline(always)]
fn gathered_axpy<'a>(
    b: &'a [Complex64],
    cols: &'a [usize],
) -> impl Fn(&mut [Complex64], Complex64, usize, usize) + 'a {
    move |out_row, aik, bo, j0| {
        for (o, &co) in out_row.iter_mut().zip(&cols[j0..]) {
            *o += aik * b[bo + co];
        }
    }
}

/// The blocked loop nest of [`matmul_gather_into`]: for every output
/// row panel, `row_axpy(out_row, a[i][kk], b_rows[kk], j0)` adds
/// `a[i][kk] · b[kk][j0..]` for each `kk` in ascending order, skipping
/// zero `a[i][kk]`. A contiguous lhs row is walked as a slice.
// qns-lint: zero-alloc
#[inline(always)]
fn gather_loops(
    a: Gathered<'_>,
    b_rows: &[usize],
    out: &mut [Complex64],
    n: usize,
    row_axpy: impl Fn(&mut [Complex64], Complex64, usize, usize),
) {
    let k = b_rows.len();
    out.fill(Complex64::ZERO);
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for (i, &ro) in a.rows.iter().enumerate() {
            let out_row = &mut out[i * n + j0..i * n + j1];
            let mut axpy = |aik: Complex64, bo: usize| {
                if aik != Complex64::ZERO {
                    row_axpy(out_row, aik, bo, j0);
                }
            };
            match a.cols {
                None => {
                    for (&aik, &bo) in a.data[ro..ro + k].iter().zip(b_rows) {
                        axpy(aik, bo);
                    }
                }
                Some(cols) => {
                    for (&co, &bo) in cols.iter().zip(b_rows) {
                        axpy(a.data[ro + co], bo);
                    }
                }
            }
        }
    }
}

/// The loop nest of [`matmul_gather_batch_into`] for rows of `n`
/// columns (`N` when nonzero, fixed at compile time): per row `i` and
/// `kk` ascending, every lhs value's `a[i][kk]` that is not zero is
/// added times row `kk` of every rhs value. Each output entry thus
/// sees the additions of one [`matmul_gather_into`] call in the same
/// order, while the value loops innermost give independent
/// accumulators even when `n` is 1.
// qns-lint: zero-alloc
fn value_loops<const N: usize>(
    a: Gathered<'_>,
    a_values: Strided,
    b: Gathered<'_>,
    b_values: Strided,
    out: &mut [Complex64],
    n: usize,
) {
    let n = if N == 0 { n } else { N };
    let m = a.rows.len();
    let per_a = b_values.count * m * n;
    out.fill(Complex64::ZERO);
    if per_a == 0 {
        return;
    }
    for (i, &ro) in a.rows.iter().enumerate() {
        for (kk, &bo) in b.rows.iter().enumerate() {
            let co = a.cols.map_or(kk, |cols| cols[kk]);
            for (ai, outs) in out.chunks_exact_mut(per_a).enumerate() {
                let aik = a.data[ai * a_values.stride + ro + co];
                if aik == Complex64::ZERO {
                    continue;
                }
                for (bj, row) in outs.chunks_exact_mut(m * n).enumerate() {
                    let row = &mut row[i * n..][..n];
                    let base = bj * b_values.stride + bo;
                    match b.cols {
                        None => {
                            for (o, &bv) in row.iter_mut().zip(&b.data[base..base + n]) {
                                *o += aik * bv;
                            }
                        }
                        Some(cols) => {
                            for (o, &c) in row.iter_mut().zip(&cols[..n]) {
                                *o += aik * b.data[base + c];
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, Matrix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_buf(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 2, 2), (3, 5, 4), (7, 1, 9), (4, 600, 3)] {
            let a = rand_buf(&mut rng, m * k);
            let b = rand_buf(&mut rng, k * n);
            let reference = Matrix::from_vec(m, k, a.clone())
                .matmul(&Matrix::from_vec(k, n, b.clone()))
                .into_vec();
            let mut out = vec![c64(9.0, 9.0); m * n]; // dirty output
            matmul_into(&a, &b, &mut out, m, k, n);
            assert_eq!(out, reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_skips_zeros_like_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (3, 4, 3);
        let mut a = rand_buf(&mut rng, m * k);
        for z in a.iter_mut().step_by(3) {
            *z = Complex64::ZERO;
        }
        let b = rand_buf(&mut rng, k * n);
        let reference = Matrix::from_vec(m, k, a.clone())
            .matmul(&Matrix::from_vec(k, n, b.clone()))
            .into_vec();
        let mut out = vec![Complex64::ZERO; m * n];
        matmul_into(&a, &b, &mut out, m, k, n);
        assert_eq!(out, reference);
    }

    #[test]
    fn gather_matches_materialized_permutation() {
        // a is a 3×4 matrix and b a 4×5 matrix, each stored both
        // transposed (read through stride tables) and row-major (read
        // contiguously). Every lhs/rhs layout pairing must equal
        // multiplying the materialized matrices, bit for bit.
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (3usize, 4usize, 5usize);
        let mut a_t = rand_buf(&mut rng, k * m); // [k][m] layout
        a_t[4] = Complex64::ZERO; // exercise the zero-skip
        let b_t = rand_buf(&mut rng, n * k); // [n][k] layout
        let a = Matrix::from_vec(k, m, a_t.clone()).transpose();
        let b = Matrix::from_vec(n, k, b_t.clone()).transpose();
        let mut materialized = vec![Complex64::ZERO; m * n];
        matmul_into(a.as_slice(), b.as_slice(), &mut materialized, m, k, n);

        let (a_rows_t, a_cols_t): (Vec<usize>, Vec<usize>) =
            ((0..m).collect(), (0..k).map(|kk| kk * m).collect());
        let a_rows: Vec<usize> = (0..m).map(|i| i * k).collect();
        let (b_rows_t, b_cols_t): (Vec<usize>, Vec<usize>) =
            ((0..k).collect(), (0..n).map(|j| j * k).collect());
        let b_rows: Vec<usize> = (0..k).map(|kk| kk * n).collect();
        let lhs_layouts = [
            Gathered {
                data: &a_t,
                rows: &a_rows_t,
                cols: Some(&a_cols_t),
            },
            Gathered {
                data: a.as_slice(),
                rows: &a_rows,
                cols: None,
            },
        ];
        let rhs_layouts = [
            Gathered {
                data: &b_t,
                rows: &b_rows_t,
                cols: Some(&b_cols_t),
            },
            Gathered {
                data: b.as_slice(),
                rows: &b_rows,
                cols: None,
            },
        ];
        for lhs in lhs_layouts {
            for rhs in rhs_layouts {
                let mut fused = vec![c64(9.0, 9.0); m * n]; // dirty output
                matmul_gather_into(lhs, rhs, &mut fused, n);
                assert_eq!(fused, materialized, "{:?} · {:?}", lhs.cols, rhs.cols);
            }
        }
    }

    #[test]
    fn batched_gather_matches_one_call_per_pair() {
        // Two lhs values 3×4 padded to a stride of 13, three rhs values
        // 4×n read through a column table (stored transposed); n = 3
        // takes the loop nest without a compile-time width.
        let mut rng = StdRng::seed_from_u64(6);
        let (m, k) = (3usize, 4usize);
        let mut a = rand_buf(&mut rng, 2 * 13);
        a[5] = Complex64::ZERO; // exercise the zero-skip
        let a_rows: Vec<usize> = (0..m).map(|i| i * k).collect();
        let lhs = |data| Gathered {
            data,
            rows: &a_rows,
            cols: None,
        };
        for n in [1usize, 2, 3] {
            let b = rand_buf(&mut rng, 3 * k * n);
            let (b_rows, b_cols): (Vec<usize>, Vec<usize>) =
                ((0..k).collect(), (0..n).map(|j| j * k).collect());
            let rhs = |data| Gathered {
                data,
                rows: &b_rows,
                cols: Some(&b_cols),
            };
            let mut batched = vec![c64(9.0, 9.0); 6 * m * n];
            matmul_gather_batch_into(
                lhs(&a),
                Strided {
                    count: 2,
                    stride: 13,
                },
                rhs(&b),
                Strided {
                    count: 3,
                    stride: k * n,
                },
                &mut batched,
                n,
            );
            for i in 0..2 {
                for j in 0..3 {
                    let mut single = vec![Complex64::ZERO; m * n];
                    matmul_gather_into(lhs(&a[i * 13..]), rhs(&b[j * k * n..]), &mut single, n);
                    assert_eq!(
                        &batched[(i * 3 + j) * m * n..][..m * n],
                        &single[..],
                        "n = {n}, pair ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn outer_product_shape() {
        // k = 1 degenerates to an outer product.
        let a = rand_buf(&mut StdRng::seed_from_u64(4), 3);
        let b = rand_buf(&mut StdRng::seed_from_u64(5), 2);
        let mut out = vec![Complex64::ZERO; 6];
        matmul_into(&a, &b, &mut out, 3, 1, 2);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(out[i * 2 + j], a[i] * b[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn wrong_output_length_panics() {
        let a = [Complex64::ONE; 4];
        let b = [Complex64::ONE; 4];
        let mut out = [Complex64::ZERO; 3];
        matmul_into(&a, &b, &mut out, 2, 2, 2);
    }
}
