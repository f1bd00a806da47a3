"""Sampled probabilistic polynomials for thresholds and symmetric functions.

A threshold circuit is either an exact weight interpolation (base case) or a
recursive combination

    M(x) = A(x) * S(x~) + M_inner(x~) * (1 - S(x~)),
    S    = (1 - near_hi) * near_lo,

where x~ keeps a 1/10 random sample of the coordinates and near_hi/near_lo
are circuits for slightly shifted thresholds with a quarter of the error
budget.  A symmetric function is f(0) plus a signed sum of threshold
circuits, one per jump of its weight table.

A draw splits in two.  The *plan* depends only on (n, thresholds, eps): a
flat, de-duplicated list of nodes (level, weight window, child ids) with one
root per threshold.  The *skeleton* is the random part: one coordinate map
per recursion level, shared by every node of that level, so by all three
children of a node and by every threshold of a symmetric function.

Evaluation never expands polynomials.  Every node prescribes a 0/1 step
over a weight window, so window values are weight comparisons.  One batched
evaluator runs a plan level by level, deepest first, over a matrix of
weight profiles in small ints; the rare rows that need an interpolation
value outside a window (a Newton sum of big integers) are rerun on exact
Python ints.

Explicit expansion (for the small-n equivalence tests and GF(2) reduction)
walks the plan behind a monomial budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParametersError,
    ResourceBudgetError,
    VerificationError,
)
from .polyalg import IntPolynomial, binom_int, newton_to_symmetric
from .vectors import BitVector, bit_matrix

__all__ = [
    "DEGREE_CONSTANT",
    "ThresholdSpec",
    "SymmetricFunctionSpec",
    "CircuitPlan",
    "SampledThresholdCircuit",
    "SymmetricCombination",
    "SampleSkeleton",
    "degree_bound",
    "threshold_index",
    "threshold_value",
    "sample_threshold",
    "eval_circuit",
    "expand_circuit",
    "sample_symmetric",
    "jump_sets",
    "measure_error",
    "measure_threshold_error",
    "measure_symmetric_error",
    "boundary_inputs",
    "AgreementReport",
]

DEGREE_CONSTANT = 41
BASE_SIZE_LIMIT = 10
SHRINK = 10
EXPANSION_BUDGET_DEFAULT = 1 << 20


def degree_bound(n: int, eps: Fraction | float) -> float:
    """The asserted degree bound 41*sqrt(n*ln(1/eps))."""
    return DEGREE_CONSTANT * math.sqrt(n * math.log(1.0 / float(eps)))


def threshold_index(theta: Fraction, n: int) -> int:
    """Smallest weight w with w/n >= theta (so the function is [w >= index])."""
    return math.ceil(theta * n)


def threshold_value(theta: Fraction, n: int, weight: int) -> int:
    return int(weight >= threshold_index(theta, n))


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold function [|x|/n >= theta] with an error budget.

    The correctness guarantee of the sampled circuit is documented for
    eps < 1/4; larger eps is accepted (it forces recursion at small n,
    which the equivalence tests rely on) but the guarantee degrades.
    """

    n: int
    theta: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParametersError(f"n must be positive, got {self.n}")
        if not 0 <= self.theta <= 1:
            raise InvalidParametersError(f"theta must be in [0,1], got {self.theta}")
        if not 0 < self.eps < 1:
            raise InvalidParametersError(f"eps must be in (0,1), got {self.eps}")

    def truth(self, x: BitVector) -> int:
        return threshold_value(self.theta, self.n, x.weight())


@dataclass(frozen=True)
class SymmetricFunctionSpec:
    """A symmetric Boolean function given by its value at each weight."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise InvalidParametersError(
                f"need {self.n + 1} weight values, got {len(self.values)}"
            )
        if set(self.values) - {0, 1}:
            raise InvalidParametersError("weight values must be 0/1")

    def truth(self, x: BitVector) -> int:
        return self.values[x.weight()]


# ---------------------------------------------------------------------------
# Step interpolations over a weight window
# ---------------------------------------------------------------------------


class StepWindow:
    """Exact integer polynomial prescribing [w >= t] on weights lo..hi.

    Values inside the window are literal comparisons; values outside are the
    interpolation's extrapolation, the Newton sum of d_j * C(w - lo, j) over
    the closed-form forward differences d_j = (-1)^(j-tau) * C(j-1, tau-1),
    tau = t - lo.
    """

    __slots__ = ("n", "lo", "hi", "t")

    def __init__(self, n: int, lo: int, hi: int, t: int):
        if not 0 <= lo <= hi <= n:
            raise InvalidParametersError(f"bad window [{lo},{hi}] for n={n}")
        self.n = n
        self.lo = lo
        self.hi = hi
        self.t = t

    def is_constant(self) -> bool:
        return self.t <= self.lo or self.t > self.hi

    def newton_diffs(self) -> list[int]:
        """Forward differences of the window values, start at lo."""
        if self.t <= self.lo:
            return [1]
        if self.t > self.hi:
            return [0]
        tau = self.t - self.lo
        d = [0] * (self.hi - self.lo + 1)
        c = 1  # C(j-1, tau-1) at j = tau; then C(j, tau-1) = C(j-1, tau-1)*j/(j-tau+1)
        for j in range(tau, len(d)):
            d[j] = c if (j - tau) % 2 == 0 else -c
            c = c * j // (j - tau + 1)
        return d

    def value(self, w: int) -> int:
        if self.is_constant():
            return int(self.t <= self.lo)
        if self.lo <= w <= self.hi:
            return int(w >= self.t)
        # each Newton term from the last, by d_(j+1)/d_j = -j/(j-tau+1) and
        # C(x, j+1)/C(x, j) = (x-j)/(j+1): small factors only, exact division
        tau, x = self.t - self.lo, w - self.lo
        term, total = binom_int(x, tau), 0
        for j in range(tau, self.hi - self.lo + 1):
            total += term
            term = term * -j * (x - j) // ((j - tau + 1) * (j + 1))
        return total

    def degree_cap(self) -> int:
        """Window width, an upper bound on the interpolation degree."""
        return 0 if self.is_constant() else self.hi - self.lo

    def to_int_polynomial(self) -> IntPolynomial:
        """Symmetric-mode polynomial (coefficients on the degree-i monomial sums)."""
        return IntPolynomial.symmetric(
            self.n, newton_to_symmetric(self.newton_diffs(), self.lo)
        )


# ---------------------------------------------------------------------------
# Plans: the deterministic part of a draw
# ---------------------------------------------------------------------------


def _is_base(n: int, eps: Fraction) -> bool:
    return n <= BASE_SIZE_LIMIT or degree_bound(n, eps) >= n


def _child_size(n: int) -> int:
    return max(1, n // SHRINK)


def _levels(n: int, eps: Fraction) -> tuple[list[int], list[Fraction]]:
    """Vector size and error budget per level, down to the base level."""
    sizes, budgets = [n], [eps]
    while not _is_base(sizes[-1], budgets[-1]):
        sizes.append(_child_size(sizes[-1]))
        budgets.append(budgets[-1] / 4)
    return sizes, budgets


def _band_bounds(n: int, theta: Fraction, a: float) -> tuple[int, int]:
    """Integer weights within 2*a*sqrt(n) of theta*n, rounded per design."""
    center = float(theta * n)
    half = 2.0 * a * math.sqrt(n)
    lo = max(0, math.ceil(center - half))
    hi = min(n, math.floor(center + half))
    if lo > hi:
        # degenerate window (only possible for eps extremely close to 1):
        # keep the single nearest weight so the product structure stands.
        mid = min(n, max(0, round(center)))
        lo = hi = mid
    return lo, hi


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """Flat, de-duplicated nodes computing f0 + sum(signs * value at roots).

    Level l works on vectors of sizes[l] coordinates with error budget
    eps[l].  Node i sits at level[i] and prescribes [w >= t[i]] on weights
    lo[i]..hi[i] of its level's vector.  kids[i] holds the (near_hi,
    near_lo, inner) ids at level + 1, or -1s for an exact node, whose
    window is 0..sizes[level].  Nodes are sorted by level and, within a
    level, exact nodes first, so every child id exceeds its parent's.
    """

    sizes: tuple[int, ...]
    eps: tuple[Fraction, ...]
    level: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    kids: np.ndarray
    roots: np.ndarray
    signs: np.ndarray
    f0: int

    def window(self, i: int) -> StepWindow:
        size = self.sizes[self.level[i]]
        return StepWindow(size, int(self.lo[i]), int(self.hi[i]), int(self.t[i]))

    def structural_degrees(self) -> list[int]:
        """Per node, the degree bound from the construction, without expanding."""
        deg = [0] * len(self.level)
        for i in reversed(range(len(deg))):
            window = self.window(i)
            if self.kids[i, 0] < 0:
                # a step interpolation over all weights has full degree
                deg[i] = 0 if window.is_constant() else window.n
            else:
                near_hi, near_lo, inner = self.kids[i].tolist()
                deg[i] = deg[near_hi] + deg[near_lo] + max(window.degree_cap(), deg[inner])
        return deg

    def evaluate(self, weights: np.ndarray) -> list[int]:
        """Exact plan values for each row of a (P, levels) int64 weight matrix.

        Column l of a row is the weight of the level-l sampled vector.
        """
        vals, redo = self._node_values(weights, exact=False)
        up = self.signs > 0
        plus, minus = self.roots[up], self.roots[~up]
        # signs are +-1: plus-root rows minus minus-root rows, summed exactly
        # in int64 (numpy has no BLAS path for an int64-by-int8 matmul)
        sums = vals[plus].sum(axis=0, dtype=np.int64) - vals[minus].sum(axis=0, dtype=np.int64)
        out = (self.f0 + sums).tolist()
        if redo.any():
            rows = np.flatnonzero(redo)
            exact, _ = self._node_values(weights[rows], exact=True)
            sums = exact[plus].sum(axis=0) - exact[minus].sum(axis=0)
            for row, total in zip(rows.tolist(), sums.tolist()):
                out[row] = self.f0 + total
        return out

    def _node_values(self, weights: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
        """Node values (one row per node, one column per input) and the inputs
        needing an off-window value.

        With exact=False the cells are 0/1 int8 and an off-window cell is left
        wrong, its input flagged; with exact=True the cells are Python ints
        and every off-window value is computed.
        """
        vals = np.zeros((len(self.level), len(weights)), dtype=object if exact else np.int8)
        redo = np.zeros(len(weights), dtype=bool)
        bounds = np.searchsorted(self.level, np.arange(len(self.sizes) + 1)).tolist()
        for level in reversed(range(len(self.sizes))):
            start, stop = bounds[level], bounds[level + 1]
            split = start + int(np.count_nonzero(self.kids[start:stop, 0] < 0))
            w = weights[:, level]
            lo, hi, t = (a[start:stop] for a in (self.lo, self.hi, self.t))
            # the window value: right inside the window, and everywhere when
            # the window is constant (an exact node's window holds every
            # weight); compared (input, node) so numpy loops along the nodes
            cut = np.where(t <= lo, 0, np.where(t > hi, self.sizes[level] + 1, t))
            vals[start:stop].T[...] = w[:, None] >= cut
            if split == stop:
                continue
            lo, hi, t = (a[split:stop] for a in (self.lo, self.hi, self.t))
            near_hi, near_lo, inner = (vals[self.kids[split:stop, c]] for c in range(3))
            s = (1 - near_hi) * near_lo
            # The off-window cells, laid out (input, node) so numpy loops along
            # the long node axis.  As unsigned, w - lo > hi - lo exactly when w
            # is outside lo..hi; a constant window (width -1) is never off.
            width = np.where((lo < t) & (t <= hi), hi - lo, -1).view(np.uint64)
            off = (w[:, None] - lo).view(np.uint64) > width
            off &= np.ascontiguousarray(s.T) != 0
            band = vals[split:stop]
            if exact:
                for row, node in zip(*np.nonzero(off)):
                    band[node, row] = self.window(split + node).value(int(w[row]))
            else:
                redo |= off.any(axis=1)
            vals[split:stop] = band * s + inner * (1 - s)
        return vals, redo


@functools.lru_cache(maxsize=32)
def _compile(spec: ThresholdSpec | SymmetricFunctionSpec, eps: Fraction) -> CircuitPlan:
    """The plan of every draw for ``spec`` whose thresholds have budget eps.

    A threshold spec gives one root; a symmetric spec one root per jump of
    its weight table.  Memoised: a plan depends only on the arguments, and
    its arrays are read-only.
    """
    n = spec.n
    if isinstance(spec, ThresholdSpec):
        f0, signed = 0, [(spec.theta, 1)]
    else:
        ups, downs = jump_sets(spec.values)
        f0 = spec.values[0]
        signed = [(Fraction(j, n), 1) for j in ups] + [(Fraction(j, n), -1) for j in downs]
    sizes, budgets = _levels(n, eps) if signed else ([n], [eps])
    half_widths = [math.sqrt(SHRINK * math.log(1.0 / float(e))) for e in budgets]
    # key -> (level, lo, hi, t, child keys or None)
    nodes: dict[tuple, tuple[int, int, int, int, tuple | None]] = {}

    def exact(level: int, t: int) -> tuple:
        key = ("exact", level, t)
        nodes.setdefault(key, (level, 0, sizes[level], t, None))
        return key

    def node(level: int, theta: Fraction) -> tuple:
        size = sizes[level]
        t = threshold_index(theta, size)
        if level == len(sizes) - 1:
            return exact(level, t)
        key = ("band", level, theta)
        if key not in nodes:
            a = half_widths[level]
            lo, hi = _band_bounds(size, theta, a)
            delta = Fraction(a / math.sqrt(size))
            theta_hi = theta + delta
            kids = (
                # no density exceeds 1, so past it near_hi is the constant 0
                node(level + 1, theta_hi)
                if theta_hi <= 1
                else exact(level + 1, sizes[level + 1] + 1),
                node(level + 1, max(Fraction(0), theta - delta)),
                node(level + 1, theta),
            )
            nodes[key] = (level, lo, hi, t, kids)
        return key

    root_keys = [node(0, theta) for theta, _ in signed]
    order = sorted(nodes, key=lambda k: (nodes[k][0], nodes[k][4] is not None))
    ids = {key: i for i, key in enumerate(order)}
    rows = [nodes[key] for key in order]
    level, lo, hi, t = (_frozen([r[c] for r in rows]) for c in range(4))
    kids = _frozen([[ids[k] for k in r[4]] if r[4] else [-1] * 3 for r in rows]).reshape(-1, 3)
    roots = _frozen([ids[key] for key in root_keys])
    signs = _frozen([sign for _, sign in signed])
    return CircuitPlan(tuple(sizes), tuple(budgets), level, lo, hi, t, kids, roots, signs, f0)


# ---------------------------------------------------------------------------
# Draws: a plan plus a sampling skeleton
# ---------------------------------------------------------------------------


class SampleSkeleton:
    """The per-level coordinate samples shared across a whole draw.

    maps[l] holds sizes[l+1] indices into [0, sizes[l]) of the plan's level
    sizes: entry j says which level-l coordinate feeds coordinate j of the
    level-(l+1) sampled vector.  A one-level (exact) draw has no maps.
    """

    __slots__ = ("maps",)

    def __init__(self, maps: Sequence[np.ndarray]):
        self.maps = tuple(maps)

    def weight_profiles(self, bits: np.ndarray) -> np.ndarray:
        """(P, levels) weights of each input row and of its sampled vectors."""
        cols = [bits.sum(axis=1, dtype=np.int64)]
        cur = bits
        for mp in self.maps:
            cur = cur[:, mp]
            cols.append(cur.sum(axis=1, dtype=np.int64))
        return np.stack(cols, axis=1)


def _draw_skeleton(sizes: Sequence[int], rng: np.random.Generator) -> SampleSkeleton:
    """One coordinate map per level below the top."""
    maps = [
        rng.integers(0, sizes[l], size=sizes[l + 1]).astype(np.int64)
        for l in range(len(sizes) - 1)
    ]
    return SampleSkeleton(maps)


class _Draw:
    """A spec's plan and the skeleton it reads."""

    __slots__ = ("spec", "plan", "skeleton")

    def __init__(self, spec, plan: CircuitPlan, skeleton: SampleSkeleton):
        self.spec = spec
        self.plan = plan
        self.skeleton = skeleton

    def eval_rows(self, bits: np.ndarray) -> list[int]:
        """Exact values on each row of a (P, n) 0/1 matrix, in one batch."""
        return self.plan.evaluate(self.skeleton.weight_profiles(bits))

    def eval_bits(self, bits: np.ndarray) -> int:
        return self.eval_rows(bits[None, :])[0]

    def eval(self, x: BitVector) -> int:
        """Evaluate the sampled polynomial at x without expanding it."""
        if x.dim != self.spec.n:
            raise DimensionMismatchError(f"input dim {x.dim} != n {self.spec.n}")
        return self.eval_bits(bit_matrix([x])[0])


class SampledThresholdCircuit(_Draw):
    """One draw from the probabilistic-polynomial distribution for a threshold.

    The plan has one root.  kind == "exact_base": the plan is one exact
    interpolation over all weights 0..n and the skeleton has no maps.
    kind == "recursive": the root's window is the exact band around theta*n
    of half-width 2*a*sqrt(n), and its children work on the vector sampled
    by the skeleton's first map.
    """

    __slots__ = ()

    @property
    def root(self) -> int:
        return int(self.plan.roots[0])

    @property
    def kind(self) -> str:
        return "recursive" if self.skeleton.maps else "exact_base"

    @property
    def window(self) -> StepWindow:
        return self.plan.window(self.root)

    def depth(self) -> int:
        return len(self.plan.sizes) - 1

    def structural_degree(self) -> int:
        """Degree bound from the construction, without expanding anything."""
        return self.plan.structural_degrees()[self.root]

    def __repr__(self) -> str:
        return (
            f"SampledThresholdCircuit(n={self.spec.n}, theta={self.spec.theta}, "
            f"eps={self.spec.eps}, kind={self.kind}, depth={self.depth()})"
        )


def sample_threshold(
    spec: ThresholdSpec, rng: np.random.Generator
) -> SampledThresholdCircuit:
    """Draw one circuit from the distribution for TH_theta.

    On each fixed input the circuit equals the threshold with probability at
    least 1 - eps over the draw (documented for eps < 1/4); it is
    deterministic given the rng state.
    """
    plan = _compile(spec, spec.eps)
    return SampledThresholdCircuit(spec, plan, _draw_skeleton(plan.sizes, rng))


def eval_circuit(c: SampledThresholdCircuit, x: BitVector) -> int:
    """Evaluate the sampled polynomial without expanding it."""
    return c.eval(x)


# ---------------------------------------------------------------------------
# Explicit expansion
# ---------------------------------------------------------------------------


def _substitute(p: IntPolynomial, mapping: np.ndarray, nvars: int) -> IntPolynomial:
    """Rename variables through a (possibly repeating) coordinate map."""
    out: dict[tuple[int, ...], int] = {}
    for m, coeff in p.expand().terms.items():
        target = tuple(sorted({int(mapping[j]) for j in m}))
        c = out.get(target, 0) + coeff
        if c:
            out[target] = c
        elif target in out:
            del out[target]
    return IntPolynomial(nvars, terms=out)


def _check_budget(p: IntPolynomial, budget: int) -> IntPolynomial:
    count = p.monomial_count()
    if count > budget:
        raise ResourceBudgetError("circuit expansion too large", projected=count, budget=budget)
    return p


def expand_circuit(
    c: SampledThresholdCircuit, budget: int = EXPANSION_BUDGET_DEFAULT
) -> IntPolynomial:
    """Expand the sampled circuit into an explicit multilinear IntPolynomial.

    Raises:
        ResourceBudgetError: when the projected or any intermediate's
            monomial count exceeds the budget (the error names the count).
        VerificationError: when an expanded node exceeds its degree bound.
    """
    plan = c.plan

    @functools.cache  # shared nodes expand once
    def expand(i: int) -> IntPolynomial:
        level = int(plan.level[i])
        window = plan.window(i)
        n = window.n
        # cheap projection before any basis conversion: the window
        # interpolation alone touches every monomial of degree <= its width
        projected = sum(binom_int(n, deg) for deg in range(window.degree_cap() + 1))
        if projected > budget:
            raise ResourceBudgetError(
                "circuit expansion too large", projected=projected, budget=budget
            )
        window_poly = window.to_int_polynomial()
        if plan.kids[i, 0] < 0:
            return _check_budget(window_poly, budget).expand(budget=budget)
        mapping = c.skeleton.maps[level]
        hi, lo, inner = (_substitute(expand(k), mapping, n) for k in plan.kids[i].tolist())
        s = _check_budget((1 - hi) * lo, budget)
        a_expl = _check_budget(window_poly, budget).expand(budget=budget)
        out = _check_budget(a_expl * s + inner * (1 - s), budget)
        bound = min(n, degree_bound(n, plan.eps[level]))
        if out.degree() > bound:
            raise VerificationError(f"expanded degree {out.degree()} exceeds bound {bound}")
        return out

    return expand(c.root)


# ---------------------------------------------------------------------------
# Symmetric functions via the jump-set decomposition
# ---------------------------------------------------------------------------


def jump_sets(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Weights where the function jumps up (0->1) and down (1->0)."""
    ups = [i for i in range(1, len(values)) if values[i] == 1 and values[i - 1] == 0]
    downs = [i for i in range(1, len(values)) if values[i] == 0 and values[i - 1] == 1]
    return ups, downs


class SymmetricCombination(_Draw):
    """Signed combination f0 + sum(up thresholds) - sum(down thresholds).

    One plan holds every jump threshold as a root with sign +1 (up) or -1
    (down), with equal nodes shared between thresholds, and all of them
    read one skeleton, so the per-level sampled vectors coincide across
    thresholds.  The per-input error of the whole combination is below eps.
    """

    __slots__ = ()


def sample_symmetric(
    spec: SymmetricFunctionSpec, eps: Fraction, rng: np.random.Generator
) -> SymmetricCombination:
    """Sample a probabilistic polynomial for an arbitrary symmetric function.

    Each jump threshold is sampled with error eps/2, with the same per-level
    coordinate samples shared across every threshold; on any fixed input the
    combination equals the function with probability at least 1 - eps.
    """
    if not 0 < eps < 1:
        raise InvalidParametersError(f"eps must be in (0,1), got {eps}")
    plan = _compile(spec, Fraction(eps) / 2)
    return SymmetricCombination(spec, plan, _draw_skeleton(plan.sizes, rng))


# ---------------------------------------------------------------------------
# Statistical verification harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    weight: int
    agreement: float
    trials: int


def measure_error(
    sampler: Callable[[np.random.Generator], object],
    reference: Callable[[BitVector], int],
    inputs: Sequence[BitVector],
    trials: int,
    rng: np.random.Generator,
) -> list[AgreementReport]:
    """Fraction of independently sampled circuits agreeing with the reference.

    Args:
        sampler: draws a fresh circuit (anything with ``eval_rows``); each
            draw evaluates all inputs in one batch.
        reference: the exact function the circuits are supposed to compute.
        inputs: evaluation points (each gets its own agreement rate).
        trials: number of independent circuit draws.
        rng: seeded random stream; results are deterministic given it.
    """
    if trials < 1:
        raise InvalidParametersError("trials must be >= 1")
    if not inputs:
        return []
    bits = bit_matrix(inputs)
    ref = [reference(x) for x in inputs]
    hits = [0] * len(inputs)
    for _ in range(trials):
        for idx, value in enumerate(sampler(rng).eval_rows(bits)):
            hits[idx] += value == ref[idx]
    return [
        AgreementReport(inputs[i].weight(), hits[i] / trials, trials)
        for i in range(len(inputs))
    ]


def boundary_inputs(n: int, theta: Fraction) -> list[BitVector]:
    """Representative inputs at the boundary weights of the threshold."""
    t = threshold_index(theta, n)
    weights = sorted({w for w in (t, t - 1) if 0 <= w <= n})
    return [BitVector(n, (1 << w) - 1) for w in weights]


def measure_threshold_error(
    spec: ThresholdSpec,
    inputs: Sequence[BitVector],
    trials: int,
    rng: np.random.Generator,
) -> list[AgreementReport]:
    return measure_error(
        lambda r: sample_threshold(spec, r), spec.truth, inputs, trials, rng
    )


def measure_symmetric_error(
    spec: SymmetricFunctionSpec,
    eps: Fraction,
    inputs: Sequence[BitVector],
    trials: int,
    rng: np.random.Generator,
) -> list[AgreementReport]:
    return measure_error(
        lambda r: sample_symmetric(spec, eps, r), spec.truth, inputs, trials, rng
    )
