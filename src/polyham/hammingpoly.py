"""Probabilistic GF(2) polynomial deciding "some red-blue pair within k".

For two groups of s vectors in d dimensions, the predicate is the OR over
all s^2 pairs of [distance <= k].  The sampled polynomial is

    q = 1 + prod_{m=1,2} (1 + sum_{(i,j) in R_m} (1 + p(x_i xor y_j)))

over GF(2), where p is a sampled threshold circuit for [weight >= k+1] on d
variables with error budget 1/s^3, and R_1, R_2 are uniform random subsets
of the index pairs.  With every inner p evaluation correct, q is 0 with
certainty when no pair is close, and 1 with probability exactly 3/4 over
(R_1, R_2) when some pair is close.

The polynomial lives on 2*s*d variables: the s x-blocks first, then the s
y-blocks.  ``eval_group_pair`` evaluates it structurally (no expansion).
p is exact at every size the pipeline reaches, so a draw is its coins: the
2*s^2 bits saying which index pairs R_1 and R_2 hold, and ``draw_coins``
draws those of any number of draws in one call.  Every block P_ij =
p(x_i xor y_j) is then the one polynomial p(x xor y) on 2*d variables,
applied to member i of one group and member j of the other;
``block_masks`` gives it as (R, 1) uint64 word masks for the all-pairs
product on member pairs.  Over GF(2), on groups whose blocks take the
values b_ij, factor r is E_r = (1 + |R_r|) + sum_{R_r} b_ij and q is
1 + E_1*E_2: a draw's vote depends only on the s^2-bit pattern b, so q is
never expanded into its own monomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParametersError, ResourceBudgetError
from .polyalg import Gf2Polynomial
from .probpoly import (
    CircuitPlan,
    SampledThresholdCircuit,
    ThresholdSpec,
    _compile,
    _draw_skeleton,
    expand_circuit,
    sample_threshold,
)
from .vectors import BitVector, bit_matrix

__all__ = [
    "GroupPredicateSpec",
    "SampledHammingPolynomial",
    "inner_error_budget",
    "sample_hamming_poly",
    "draw_coins",
    "block_masks",
    "eval_group_pair",
    "eval_group_pair_with",
    "group_pair_truth",
    "block_rows",
    "meets_dimension_advisory",
]


@dataclass(frozen=True)
class GroupPredicateSpec:
    """Parameters of the group predicate: s vectors per side, dimension d,
    distance threshold k.  The polynomial is over 2*s*d variables, x-blocks
    then y-blocks."""

    s: int
    d: int
    k: int

    def __post_init__(self):
        if self.s < 1:
            raise InvalidParametersError(f"group size must be >= 1, got {self.s}")
        if not 0 <= self.k < self.d:
            raise InvalidParametersError(
                f"need 0 <= k < d, got k={self.k}, d={self.d}"
            )


def inner_error_budget(s: int) -> Fraction:
    """1/s^3, clamped below 1 so the threshold spec stays valid at s = 1."""
    if s >= 2:
        return Fraction(1, s**3)
    return Fraction(1, 4)


def meets_dimension_advisory(spec: GroupPredicateSpec) -> bool:
    """Whether d exceeds e^2*log2(s) (gates the asymptotic monomial bound,
    not correctness); reported as an advisory only."""
    if spec.s < 2:
        return True
    return spec.d > math.e**2 * math.log2(spec.s)


@functools.lru_cache(maxsize=32)
def _draw_parts(spec: GroupPredicateSpec) -> tuple[ThresholdSpec, CircuitPlan]:
    """What every draw for ``spec`` shares: the inner threshold [weight >=
    k+1] on d variables with error budget 1/s^3, and its compiled plan;
    memoised, since building and hashing its Fractions dominated a draw."""
    inner = ThresholdSpec(spec.d, Fraction(spec.k + 1, spec.d), inner_error_budget(spec.s))
    return inner, _compile(inner, inner.eps)


class SampledHammingPolynomial:
    """One draw: the inner threshold circuit plus its coins, a read-only
    (2, s*s) uint8 0/1 array whose bit i*s + j of row r says whether R_{r+1}
    holds the index pair (i, j)."""

    __slots__ = ("spec", "eps", "inner", "coins")

    def __init__(self, spec, eps, inner, coins):
        self.spec = spec
        self.eps = eps
        self.inner = inner
        self.coins = np.array(coins, dtype=np.uint8).reshape(2, spec.s * spec.s)
        self.coins.setflags(write=False)

    def _subset(self, r: int) -> frozenset:
        return frozenset(divmod(int(b), self.spec.s) for b in np.flatnonzero(self.coins[r]))

    @property
    def r1(self) -> frozenset:
        """R_1 as a set of index pairs (i, j)."""
        return self._subset(0)

    @property
    def r2(self) -> frozenset:
        """R_2 as a set of index pairs (i, j)."""
        return self._subset(1)

    def __repr__(self) -> str:
        s, d, k = self.spec.s, self.spec.d, self.spec.k
        return f"SampledHammingPolynomial(s={s}, d={d}, k={k}, coins={self.coins.tolist()})"


def draw_coins(spec: GroupPredicateSpec, rng: np.random.Generator, rounds: int) -> np.ndarray:
    """(rounds, 2, s*s) uint8: the coins of ``rounds`` draws, each index pair
    in R_1 and in R_2 by an independent fair coin.  Every coin is drawn
    here, so one call for many draws reads the stream of one call per draw;
    the draw stays int64, because another dtype draws another stream."""
    return rng.integers(0, 2, size=(rounds, 2, spec.s * spec.s)).astype(np.uint8)


def sample_hamming_poly(
    spec: GroupPredicateSpec, rng: np.random.Generator
) -> SampledHammingPolynomial:
    """Sample the inner threshold circuit, then the coins of R_1 and R_2; an
    exact inner circuit draws nothing, so the draw is its coins."""
    inner_spec, plan = _draw_parts(spec)
    # sample_threshold's draw, with the plan looked up once per spec
    inner = SampledThresholdCircuit(inner_spec, plan, _draw_skeleton(plan.sizes, rng))
    return SampledHammingPolynomial(spec, inner_spec.eps, inner, draw_coins(spec, rng, 1)[0])


# ---------------------------------------------------------------------------
# Structural evaluation
# ---------------------------------------------------------------------------


def _check_groups(
    spec: GroupPredicateSpec, xs: Sequence[BitVector], ys: Sequence[BitVector]
) -> None:
    if len(xs) != spec.s or len(ys) != spec.s:
        raise InvalidParametersError(
            f"expected {spec.s} vectors per side, got {len(xs)}/{len(ys)}"
        )
    for v in list(xs) + list(ys):
        if v.dim != spec.d:
            raise InvalidParametersError(f"vector dim {v.dim} != d {spec.d}")


def eval_group_pair_with(
    spec: GroupPredicateSpec,
    r1: frozenset,
    r2: frozenset,
    xs: Sequence[BitVector],
    ys: Sequence[BitVector],
    p_mod2: Callable[[int], int],
) -> int:
    """Evaluate q structurally with an arbitrary inner predicate.

    ``p_mod2`` receives the packed xor of a pair and must return the mod-2
    value of the inner polynomial; substituting the true threshold function
    here realizes the "all inner evaluations correct" conditioning.
    """
    _check_groups(spec, xs, ys)
    factors = 1
    for subset in (r1, r2):
        acc = 0
        for (i, j) in subset:
            acc ^= 1 ^ p_mod2(xs[i].bits ^ ys[j].bits)
        factors &= 1 ^ acc
    return 1 ^ factors


def eval_group_pair(
    hp: SampledHammingPolynomial, xs: Sequence[BitVector], ys: Sequence[BitVector]
) -> int:
    """Evaluate the sampled q on one pair of groups without expansion.

    The inner circuit runs once, as one batch, on the distinct xors of the
    cross pairs.
    """
    _check_groups(hp.spec, xs, ys)
    xors = list({x.bits ^ y.bits for x in xs for y in ys})
    values = hp.inner.eval_rows(bit_matrix([BitVector(hp.spec.d, z) for z in xors]))
    p_mod2 = {z: v % 2 for z, v in zip(xors, values)}
    return eval_group_pair_with(hp.spec, hp.r1, hp.r2, xs, ys, p_mod2.__getitem__)


def group_pair_truth(
    spec: GroupPredicateSpec, xs: Sequence[BitVector], ys: Sequence[BitVector]
) -> int:
    """The exact predicate: is some cross pair within distance k?"""
    return int(
        any(
            (x.bits ^ y.bits).bit_count() <= spec.k
            for x in xs
            for y in ys
        )
    )


# ---------------------------------------------------------------------------
# The block polynomial
# ---------------------------------------------------------------------------


def block_rows(s: int, d: int) -> int:
    """s^2 times the rows of the block polynomial at k = 0, the most at any k.

    The exact inner threshold at k = 0 is [weight >= 1] = 1 + prod_t (1 + z_t),
    every nonempty subset of the d coordinates, and a degree-r monomial
    substitutes into 2^r monomials, so R = sum_r C(d, r) 2^r = 3^d - 1 per
    block and s^2 * (3^d - 1) in all.
    """
    return s * s * (3**d - 1)


@functools.lru_cache(maxsize=32)
def _member_block(d: int, k: int) -> np.ndarray:
    """Read-only word masks of p(x xor y) for the exact threshold p =
    [weight >= k+1] on d variables, shape (R, 1): x at bits 0..d-1, y at
    bits d..2d-1.  It samples nothing, so every draw and every group size
    shares it.

    Each degree-r monomial of p splits into 2^r monomials, one per choice of
    the x or the y copy of each coordinate; distinct source monomials cannot
    collide, so plain concatenation keeps GF(2) semantics.  Rows run by
    degree, then by term, then by choice c, whose bit t picks the y copy of
    the term's t-th coordinate.  Raises ResourceBudgetError before expanding
    when a row does not fit one word.
    """
    if 2 * d > 64:
        raise ResourceBudgetError(
            f"block rows are built in one 64-bit word, and 2*d = {2 * d} bits do not fit"
        )
    inner = sample_threshold(_draw_parts(GroupPredicateSpec(1, d, k))[0], np.random.default_rng(0))
    p = Gf2Polynomial.from_int_polynomial(expand_circuit(inner, budget=1 << d))
    by_degree: dict[int, list] = {}
    for m in p.terms:
        by_degree.setdefault(len(m), []).append(m)
    out = np.empty((sum(len(terms) << r for r, terms in by_degree.items()), 1), dtype=np.uint64)
    row = 0
    for r in sorted(by_degree):
        terms = np.array(by_degree[r], dtype=np.uint64).reshape(len(by_degree[r]), r)
        bits = np.uint64(1) << terms
        choice = ((np.arange(1 << r)[:, None] >> np.arange(r)) & 1).astype(np.uint64)
        y = bits @ choice.T  # (terms, 2^r): the coordinates that take the y copy
        x = bits.sum(axis=1, dtype=np.uint64)[:, None] - y
        out[row : row + x.size, 0] = (x | y << np.uint64(d)).ravel()
        row += x.size
    out.setflags(write=False)
    return out


def block_masks(hp: SampledHammingPolynomial) -> np.ndarray:
    """The draw's block polynomial p(x xor y) as (R, 1) uint64 masks over 2*d
    variables: x at bits 0..d-1, y at bits d..2d-1.

    Block pair (i, j) is this polynomial on member i of the red group and
    member j of the blue group, so one all-pairs evaluation on the members
    gives every block's values.  Every draw for (d, k) gets the same
    read-only array.  Raises ResourceBudgetError when 2*d > 64, and when
    the inner circuit is sampled: such a draw's block is its own, and where
    sampling starts (d = 2,331 at s = 1) it is far past any budget.
    """
    if hp.inner.kind != "exact_base":
        raise ResourceBudgetError(
            f"inner circuit on {hp.spec.d} variables is sampled, not exact: "
            "its blocks would differ per draw and are not expanded"
        )
    return _member_block(hp.spec.d, hp.spec.k)
