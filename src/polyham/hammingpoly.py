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
y-blocks.  ``eval_group_pair`` evaluates it structurally (no expansion);
``expand_hamming_poly`` produces the explicit multilinear GF(2) polynomial
behind a monomial budget, for the all-pairs matrix pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParametersError, ResourceBudgetError
from .polyalg import Gf2Polynomial, Monomial, binom_int
from .probpoly import (
    EXPANSION_BUDGET_DEFAULT,
    SampledThresholdCircuit,
    ThresholdSpec,
    degree_bound,
    expand_circuit,
    sample_threshold,
)
from .vectors import BitVector, bit_matrix

__all__ = [
    "GroupPredicateSpec",
    "SampledHammingPolynomial",
    "inner_error_budget",
    "sample_hamming_poly",
    "expand_hamming_poly",
    "expand_hamming_masks",
    "eval_group_pair",
    "eval_group_pair_with",
    "group_pair_truth",
    "projected_expansion_size",
    "projection_fits",
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

    @property
    def nvars(self) -> int:
        return 2 * self.s * self.d

    def x_var(self, i: int, t: int) -> int:
        return i * self.d + t

    def y_var(self, j: int, t: int) -> int:
        return self.s * self.d + j * self.d + t


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


class SampledHammingPolynomial:
    """One draw: the inner threshold circuit plus the index-pair subsets."""

    __slots__ = ("spec", "eps", "inner", "r1", "r2", "expanded", "expanded_masks")

    def __init__(self, spec, eps, inner, r1, r2):
        self.spec = spec
        self.eps = eps
        self.inner = inner
        self.r1 = r1
        self.r2 = r2
        self.expanded: Gf2Polynomial | None = None
        self.expanded_masks: np.ndarray | None = None

    def __repr__(self) -> str:
        return (
            f"SampledHammingPolynomial(s={self.spec.s}, d={self.spec.d}, "
            f"k={self.spec.k}, |R1|={len(self.r1)}, |R2|={len(self.r2)})"
        )


def sample_hamming_poly(
    spec: GroupPredicateSpec, rng: np.random.Generator
) -> SampledHammingPolynomial:
    """Sample the inner threshold circuit and the two uniform subsets.

    Each element of [s]^2 enters R_1 and R_2 by an independent fair coin;
    empty subsets are legal draws.
    """
    eps = inner_error_budget(spec.s)
    inner = sample_threshold(
        ThresholdSpec(spec.d, Fraction(spec.k + 1, spec.d), eps), rng
    )
    pairs = [(i, j) for i in range(spec.s) for j in range(spec.s)]
    coins = rng.integers(0, 2, size=2 * len(pairs))
    r1 = frozenset(p for p, c in zip(pairs, coins[: len(pairs)]) if c)
    r2 = frozenset(p for p, c in zip(pairs, coins[len(pairs):]) if c)
    return SampledHammingPolynomial(spec, eps, inner, r1, r2)


# ---------------------------------------------------------------------------
# Structural evaluation
# ---------------------------------------------------------------------------


def _circuit_p_mod2(inner: SampledThresholdCircuit) -> Callable[[int], int]:
    """Fast mod-2 evaluator of the inner circuit on packed xor words."""
    d = inner.spec.n
    if inner.kind == "exact_base":
        t = inner.window.t
        return lambda z_int: int(z_int.bit_count() >= t)

    def _eval(z_int: int) -> int:
        return inner.eval_bits(bit_matrix([BitVector(d, z_int)])[0]) % 2

    return _eval


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
    if len(xs) != spec.s or len(ys) != spec.s:
        raise InvalidParametersError(
            f"expected {spec.s} vectors per side, got {len(xs)}/{len(ys)}"
        )
    for v in list(xs) + list(ys):
        if v.dim != spec.d:
            raise InvalidParametersError(f"vector dim {v.dim} != d {spec.d}")
    cache: dict[tuple[int, int], int] = {}

    def p_at(i: int, j: int) -> int:
        key = (i, j)
        val = cache.get(key)
        if val is None:
            val = cache.setdefault(key, p_mod2(xs[i].bits ^ ys[j].bits))
        return val

    factors = 1
    for subset in (r1, r2):
        acc = 0
        for (i, j) in subset:
            acc ^= 1 ^ p_at(i, j)
        factors &= 1 ^ acc
    return 1 ^ factors


def eval_group_pair(
    hp: SampledHammingPolynomial, xs: Sequence[BitVector], ys: Sequence[BitVector]
) -> int:
    """Evaluate the sampled q on one pair of groups without expansion."""
    return eval_group_pair_with(
        hp.spec, hp.r1, hp.r2, xs, ys, _circuit_p_mod2(hp.inner)
    )


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
# Expansion
# ---------------------------------------------------------------------------


def _projection_degree(spec: GroupPredicateSpec) -> int:
    return min(spec.d, int(degree_bound(spec.d, inner_error_budget(spec.s))))


def projected_expansion_size(spec: GroupPredicateSpec) -> int:
    """Upper bound on the expanded monomial count, cheap to compute.

    Each inner monomial of degree i substitutes into 2^i monomials over an
    (x_i, y_j) block pair, so one block pair contributes at most
    sum_i C(d, i) * 2^i terms; the two factors multiply.
    """
    deg = _projection_degree(spec)
    per_pair = sum(binom_int(spec.d, i) * (1 << i) for i in range(deg + 1))
    per_factor = spec.s**2 * per_pair + 1
    return per_factor * per_factor


def projection_fits(spec: GroupPredicateSpec, budget: int) -> bool:
    """``projected_expansion_size(spec) <= budget``, summing only as far as needed.

    Every term of the per-pair sum is nonnegative, so once the bound over a
    prefix of the degrees passes the budget the full bound does too.
    """
    per_pair = 0
    for i in range(_projection_degree(spec) + 1):
        per_pair += binom_int(spec.d, i) * (1 << i)
        if (spec.s**2 * per_pair + 1) ** 2 > budget:
            return False
    return True


def _substituted_block_masks(
    p: Gf2Polynomial, spec: GroupPredicateSpec, i: int, j: int
) -> np.ndarray:
    """Monomial bitmasks of p(x_i xor y_j) over the 2*s*d ambient variables.

    Each degree-r monomial splits into 2^r monomials (one per choice of x or
    y variable per coordinate); distinct source monomials cannot collide, so
    plain concatenation keeps GF(2) semantics.
    """
    chunks = []
    for m in p.terms:
        masks = np.zeros(1, dtype=np.uint64)
        for t in m:
            xbit = np.uint64(1 << spec.x_var(i, t))
            ybit = np.uint64(1 << spec.y_var(j, t))
            masks = np.concatenate([masks | xbit, masks | ybit])
        chunks.append(masks)
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    return np.concatenate(chunks)


def _parity_unique(masks: np.ndarray) -> np.ndarray:
    """Keep the masks that occur an odd number of times (GF(2) sum)."""
    if masks.size == 0:
        return masks
    uniq, counts = np.unique(masks, return_counts=True)
    return uniq[(counts & 1) == 1]


def _masks_to_monomials(masks: np.ndarray) -> list[Monomial]:
    out = []
    for mask in masks.tolist():
        mono = []
        v = 0
        while mask:
            if mask & 1:
                mono.append(v)
            mask >>= 1
            v += 1
        out.append(tuple(mono))
    return out


def _substituted_block_poly(
    p: Gf2Polynomial, spec: GroupPredicateSpec, i: int, j: int
) -> set[Monomial]:
    """Monomials of p(x_i xor y_j) over the 2*s*d ambient variables."""
    out: set[Monomial] = set()
    for m in p.terms:
        xs = [spec.x_var(i, t) for t in m]
        ys = [spec.y_var(j, t) for t in m]
        for r in range(len(m) + 1):
            for chosen in combinations(range(len(m)), r):
                chosen_set = set(chosen)
                mono = tuple(
                    sorted(
                        [xs[t] for t in range(len(m)) if t in chosen_set]
                        + [ys[t] for t in range(len(m)) if t not in chosen_set]
                    )
                )
                out.add(mono)
    return out


def expand_hamming_poly(
    hp: SampledHammingPolynomial, budget: int = EXPANSION_BUDGET_DEFAULT
) -> Gf2Polynomial:
    """Explicit multilinear GF(2) polynomial over the 2*s*d variables.

    The result is cached on the sampled object.  Raises ResourceBudgetError
    (naming the projected count) if the expansion would exceed the budget.
    """
    if hp.expanded is not None:
        return hp.expanded
    spec = hp.spec
    if spec.nvars <= 64:
        masks = expand_hamming_masks(hp, budget)
        q = Gf2Polynomial(spec.nvars, _masks_to_monomials(masks))
    else:
        projected = projected_expansion_size(spec)
        if projected > budget:
            raise ResourceBudgetError(
                "group polynomial expansion too large",
                projected=projected,
                budget=budget,
            )
        p_int = expand_circuit(hp.inner, budget=budget)
        p_gf2 = Gf2Polynomial.from_int_polynomial(p_int)
        q = _expand_tuples(hp, p_gf2, budget)
        if q.monomial_count() > budget:
            raise ResourceBudgetError(
                "group polynomial expansion too large",
                projected=q.monomial_count(),
                budget=budget,
            )
    hp.expanded = q
    return q


def expand_hamming_masks(
    hp: SampledHammingPolynomial, budget: int = EXPANSION_BUDGET_DEFAULT
) -> np.ndarray:
    """Expansion as sorted uint64 monomial bitmasks (requires 2*s*d <= 64).

    This is the representation the all-pairs matrix pipeline consumes; the
    tuple-based :func:`expand_hamming_poly` wraps it.
    """
    if hp.expanded_masks is not None:
        return hp.expanded_masks
    spec = hp.spec
    if spec.nvars > 64:
        raise InvalidParametersError("mask expansion needs 2*s*d <= 64")
    projected = projected_expansion_size(spec)
    if projected > budget:
        raise ResourceBudgetError(
            "group polynomial expansion too large", projected=projected, budget=budget
        )
    p_int = expand_circuit(hp.inner, budget=budget)
    p_gf2 = Gf2Polynomial.from_int_polynomial(p_int)
    factors = []
    for subset in (hp.r1, hp.r2):
        # 1 + sum (1 + P_ij) = (1 + |R|) + sum P_ij over GF(2)
        parts = [np.zeros(1 if len(subset) % 2 == 0 else 0, dtype=np.uint64)]
        parts += [
            _substituted_block_masks(p_gf2, spec, i, j) for (i, j) in sorted(subset)
        ]
        factors.append(_parity_unique(np.concatenate(parts)))
    f1, f2 = factors
    work = max(1, f1.size) * max(1, f2.size)
    if work > 64 * budget:
        raise ResourceBudgetError(
            "group polynomial product too large", projected=work, budget=64 * budget
        )
    if f1.size == 0 or f2.size == 0:
        prod = np.zeros(0, dtype=np.uint64)
    elif f1.size == f2.size and np.array_equal(f1, f2):
        prod = f1  # square of a multilinear GF(2) polynomial is itself
    else:
        prod = _parity_unique((f1[:, None] | f2[None, :]).ravel())
    # q = 1 + f1*f2: toggle the constant monomial
    const = np.uint64(0)
    if prod.size and prod[0] == const:
        prod = prod[1:]
    else:
        prod = np.concatenate([np.array([const], dtype=np.uint64), prod])
    if prod.size > budget:
        raise ResourceBudgetError(
            "group polynomial expansion too large", projected=int(prod.size), budget=budget
        )
    hp.expanded_masks = prod
    return prod


def _expand_tuples(
    hp: SampledHammingPolynomial, p_gf2: Gf2Polynomial, budget: int
) -> Gf2Polynomial:
    """Tuple-based expansion for instances wider than 64 variables."""
    spec = hp.spec
    factors: list[Gf2Polynomial] = []
    for subset in (hp.r1, hp.r2):
        acc: set[Monomial] = set() if len(subset) % 2 else {()}
        for (i, j) in sorted(subset):
            acc ^= _substituted_block_poly(p_gf2, spec, i, j)
        factors.append(Gf2Polynomial(spec.nvars, acc))
    f1, f2 = factors
    work = max(1, f1.monomial_count()) * max(1, f2.monomial_count())
    if work > 64 * budget:
        raise ResourceBudgetError(
            "group polynomial product too large", projected=work, budget=64 * budget
        )
    return Gf2Polynomial.one(spec.nvars) + f1 * f2
