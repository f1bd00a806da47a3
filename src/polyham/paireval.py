"""Evaluate a GF(2) polynomial on all pairs of two input sets at once.

A polynomial P(x, y) whose monomials each split into an x-part and a y-part
satisfies P(a, b) = sum_m xpart_m(a) * ypart_m(b) over GF(2), so evaluating
it on A x B is one GF(2) matrix product F_A * F_B^T between feature
matrices (one column per monomial).  ``eval_sides`` takes packed sides
that hold ones on the other side's variables, as ``pack_sides`` makes
them; a closest-pair decision packs each member as one such word and
evaluates its (R, 1) block polynomial on a tile's member pairs at once.

Monomials are (m, W) uint64 word masks: variable v is bit v % 64 of word
v // 64, the layout of ``vectors.pack_rows``.  The product is a float32
BLAS matmul reduced mod 2, run over column chunks whose temporaries fit
``vectors.DISTANCE_BUDGET_BYTES``.  A chunk has far fewer than 2^24
columns, so every float32 sum is an exact integer, and the output is the
same for any chunking and any BLAS thread count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParametersError, ResourceBudgetError
from .polyalg import Gf2Polynomial
from .vectors import (
    _FLOAT32_EXACT_BITS,
    DISTANCE_BUDGET_BYTES,
    WORD_BITS,
    BitVector,
    bit_matrix,
    pack_rows,
)

__all__ = [
    "eval_all_pairs",
    "eval_all_pairs_masks",
    "eval_sides",
    "gf2_matmul",
    "gf2_matmul_reference",
    "pack_sides",
]

MATRIX_BUDGET_DEFAULT = 1 << 20


def gf2_matmul(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """GF(2) product A * B^T of 0/1 float32 rows; (na, nb) 0/1 uint8 output.

    Exact only below 2^24 columns, where every partial sum is an integer
    that float32 holds exactly; wider inputs raise InvalidParametersError.
    """
    if fa.shape[1] >= _FLOAT32_EXACT_BITS:
        raise InvalidParametersError(
            f"{fa.shape[1]} columns: a float32 GF(2) product is exact below 2^24"
        )
    return ((fa @ fb.T).astype(np.int32) & 1).astype(np.uint8)


def gf2_matmul_reference(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Word-free reference: plain integer matmul reduced mod 2."""
    return ((a_bits.astype(np.int64) @ b_bits.astype(np.int64).T) & 1).astype(np.uint8)


def pack_sides(
    x_width: int, a_bits: np.ndarray, b_bits: np.ndarray, words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack both input sets once for any number of mask sets of ``words`` words.

    Variables below x_width are the coordinates of the (na, x_width) 0/1
    rows a_bits; the next b_bits.shape[1] are those of b_bits.  Each packed
    side also holds ones on the other side's variables, so a whole mask
    tested against one side checks only that side's part of it.
    """
    total = x_width + b_bits.shape[1]
    if a_bits.shape[1] != x_width or total > words * WORD_BITS:
        raise DimensionMismatchError(
            f"block widths {a_bits.shape[1]}+{b_bits.shape[1]} do not fit "
            f"x width {x_width} and {words} mask words"
        )
    a = np.zeros((a_bits.shape[0], words * WORD_BITS), dtype=np.uint8)
    a[:, :x_width] = a_bits
    a[:, x_width:total] = 1
    b = np.zeros((b_bits.shape[0], words * WORD_BITS), dtype=np.uint8)
    b[:, :x_width] = 1
    b[:, x_width:total] = b_bits
    return pack_rows(a), pack_rows(b)


def _features(points: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(n, m) float32 features: 1 where a packed point has every bit of a mask."""
    missing = ~points[:, :1] & masks[:, 0]
    for w in range(1, masks.shape[1]):
        missing |= ~points[:, w, None] & masks[:, w]
    return np.equal(missing, 0, out=np.empty(missing.shape, dtype=np.float32))


def eval_sides(masks: np.ndarray, sides: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """All-pairs evaluation of (m, W) uint64 word masks on packed sides.

    ``sides`` are W-word points in the form of :func:`pack_sides`.  Returns
    uint8 out[i, j] = P(a_i, b_j) over GF(2).  The columns are taken in
    chunks whose features fit the byte budget, so any m runs; the caller
    bounds m.
    """
    m, words = masks.shape
    a, b = sides
    if a.shape[1] != words or b.shape[1] != words:
        raise DimensionMismatchError(
            f"sides of {a.shape[1]}/{b.shape[1]} words for masks of {words} words"
        )
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na, nb), dtype=np.uint8)
    # A feature cell's temporaries: two uint64 words and one float32.
    step = max(1, DISTANCE_BUDGET_BYTES // (20 * max(1, na + nb)))
    for c0 in range(0, m, step):
        chunk = masks[c0 : c0 + step]
        out ^= gf2_matmul(_features(a, chunk), _features(b, chunk))
    return out


def eval_all_pairs_masks(
    masks: np.ndarray,
    x_width: int,
    a_bits: np.ndarray,
    b_bits: np.ndarray,
    budget: int = MATRIX_BUDGET_DEFAULT,
) -> np.ndarray:
    """All-pairs evaluation of a polynomial given as (m, W) uint64 word masks.

    Variables below x_width are the coordinates of the (na, x_width) 0/1
    rows a_bits; the next b_bits.shape[1] are those of b_bits.  Returns
    uint8 out[i, j] = P(a_i, b_j) over GF(2).  Raises ResourceBudgetError
    when the monomial count m exceeds the budget.
    """
    if len(masks) > budget:
        raise ResourceBudgetError(
            "too many monomials for the matrix pipeline", projected=len(masks), budget=budget
        )
    return eval_sides(masks, pack_sides(x_width, a_bits, b_bits, masks.shape[1]))


def eval_all_pairs(
    p: Gf2Polynomial,
    a_points: Sequence[BitVector],
    b_points: Sequence[BitVector],
    budget: int = MATRIX_BUDGET_DEFAULT,
) -> np.ndarray:
    """Evaluate p on every (a, b) pair via the matrix product.

    Args:
        p: polynomial over x-variables (the a-point coordinates) followed by
           y-variables (the b-point coordinates).
        a_points, b_points: input sets; their dimensions must add to p.nvars.
        budget: cap on the monomial count.

    Returns:
        uint8 matrix out[i, j] = p(a_i, b_j) over GF(2), bit-exact equal to
        pointwise evaluation.
    """
    if not a_points or not b_points:
        return np.zeros((len(a_points), len(b_points)), dtype=np.uint8)
    a_bits = bit_matrix(a_points)
    b_bits = bit_matrix(b_points)
    if a_bits.shape[1] + b_bits.shape[1] != p.nvars:
        raise DimensionMismatchError(
            f"block widths {a_bits.shape[1]}+{b_bits.shape[1]} != nvars {p.nvars}"
        )
    terms = np.zeros((len(p.terms), p.nvars), dtype=np.uint8)
    for row, mono in enumerate(p.terms):
        terms[row, list(mono)] = 1
    return eval_all_pairs_masks(pack_rows(terms), a_bits.shape[1], a_bits, b_bits, budget)
