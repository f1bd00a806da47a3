"""Metric and similarity problems reduced to Hamming closest/furthest pair.

All reductions are exact transformations:

  l1            -- unary-encode bounded integer coordinates; Hamming distance
                  of the encodings is the l1 distance.
  furthest      -- complement one side; H(u, v) = dim - H(u, complement(v)).
  inner product -- within fixed weight buckets (I, J), H = I + J - 2*IP, so
                  extreme inner products are extreme distances per bucket.
  Jaccard       -- per cardinality bucket (d1, d2) the coefficient
                  IP/(d1 + d2 - IP) is increasing in IP, so the bucket's
                  best pair is its maximum-inner-product pair.

Inner product and Jaccard share one bucket walk: each side is packed once,
every weight-bucket pair is solved on index slices of the packed sides (the
blues complemented for a furthest pair), and every bucket winner's distance
is recomputed from the vectors before it competes.

Every witness is re-verified by direct computation before it is returned,
matching the one-sided soundness discipline of the neighbor solvers.  Each
solver has a brute-force oracle twin for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, InvalidParametersError, ParseError, VerificationError
from .neighbors import ClosestPairConfig, NNResult, _closest_pair_packed, batch_nn
from .vectors import (
    BitVector,
    Dataset,
    hamming_distance,
    inner_product,
    pack_vectors,
    parse_decimal,
)

__all__ = [
    "IntVector",
    "unary_encode",
    "l1_distance",
    "l1_batch_nn",
    "l1_batch_nn_bruteforce",
    "furthest_pair",
    "furthest_pair_bruteforce",
    "extreme_inner_product",
    "extreme_inner_product_bruteforce",
    "find_orthogonal_pair",
    "max_jaccard_pair",
    "max_jaccard_bruteforce",
    "jaccard_coefficient",
    "load_int_vectors",
    "dump_int_vectors",
]


@dataclass(frozen=True)
class IntVector:
    """Integer vector with entries bounded in [0, m]."""

    entries: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParametersError(f"entry bound m must be >= 1, got {self.m}")
        if not self.entries:
            raise InvalidParametersError("IntVector needs at least one entry")
        for e in self.entries:
            if not 0 <= e <= self.m:
                raise InvalidParametersError(
                    f"entry {e} outside [0, {self.m}]"
                )

    @property
    def dim(self) -> int:
        return len(self.entries)


def unary_encode(x: IntVector) -> BitVector:
    """Concatenate unary blocks: block i holds x_i ones then m - x_i zeros."""
    bits = 0
    for i, e in enumerate(x.entries):
        bits |= ((1 << e) - 1) << (i * x.m)
    return BitVector(x.m * x.dim, bits)


def l1_distance(x: IntVector, y: IntVector) -> int:
    if x.dim != y.dim or x.m != y.m:
        raise InvalidParametersError("l1 operands must share dim and m")
    return sum(abs(a - b) for a, b in zip(x.entries, y.entries))


def _check_int_family(db: Sequence[IntVector], queries: Sequence[IntVector]):
    if not db:
        raise EmptyInputError("need a nonempty database")
    dim, m = db[0].dim, db[0].m
    for v in list(db) + list(queries):
        if v.dim != dim or v.m != m:
            raise InvalidParametersError("all vectors must share dim and m")
    return dim, m


def l1_batch_nn(
    db: Sequence[IntVector],
    queries: Sequence[IntVector],
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> NNResult:
    """Batch l1 nearest neighbors via unary encoding; distances are l1."""
    _check_int_family(db, queries)
    res = batch_nn(
        [unary_encode(v) for v in db],
        [unary_encode(v) for v in queries],
        cfg,
        rng,
    )
    meta = dict(res.meta)
    meta["metric"] = "l1"
    return NNResult(res.entries, meta)


def l1_batch_nn_bruteforce(
    db: Sequence[IntVector], queries: Sequence[IntVector]
) -> NNResult:
    _check_int_family(db, queries)
    entries = []
    for qi, q in enumerate(queries):
        best = min(
            (l1_distance(d, q), i) for i, d in enumerate(db)
        )
        entries.append((qi, best[1], best[0]))
    return NNResult(tuple(entries), {"mode": "bruteforce", "metric": "l1"})


# ---------------------------------------------------------------------------
# Furthest pair via complementation
# ---------------------------------------------------------------------------


def furthest_pair(
    ds: Dataset,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int, int]:
    """Maximum-distance pair: closest pair against the packed blues
    complemented, with the witness re-checked on the vectors."""
    if not ds.red or not ds.blue:
        raise EmptyInputError("furthest pair needs both colors nonempty")
    red = pack_vectors(ds.red, ds.dim)
    flipped = pack_vectors(ds.blue, ds.dim) ^ pack_vectors([BitVector.ones(ds.dim)], ds.dim)
    start = ds.dim - hamming_distance(ds.red[0], ds.blue[0])
    ri, bi, dist = _closest_pair_packed(red, flipped, ds.dim, start, cfg, rng)
    true_dist = hamming_distance(ds.red[ri], ds.blue[bi])
    if true_dist != ds.dim - dist:
        raise VerificationError(
            f"furthest pair ({ri}, {bi}) is at distance {true_dist}, "
            f"but its complemented distance {dist} implies {ds.dim - dist}"
        )
    return ri, bi, true_dist


def furthest_pair_bruteforce(ds: Dataset) -> tuple[int, int, int]:
    if not ds.red or not ds.blue:
        raise EmptyInputError("furthest pair needs both colors nonempty")
    best = None
    for i, u in enumerate(ds.red):
        for j, v in enumerate(ds.blue):
            cand = (-hamming_distance(u, v), i, j)
            if best is None or cand < best:
                best = cand
    return best[1], best[2], -best[0]


# ---------------------------------------------------------------------------
# Extreme inner products and Jaccard via weight buckets
# ---------------------------------------------------------------------------


def _bucket_winners(
    ds: Dataset, mode: str, cfg: ClosestPairConfig, rng, solve_empty: bool = True
):
    """Each weight-bucket pair's closest ("max") or furthest ("min") pair.

    Yields (red, blue) per bucket pair in increasing (I, J) order.  Each
    side is packed once, and a bucket pair is solved on index slices of the
    packed sides, with the blues complemented for "min"; the winner's
    distance is recomputed from the vectors.  Without ``solve_empty`` a
    bucket pair with a weight-0 side yields its first pair unsolved.
    """
    red, blue = pack_vectors(ds.red, ds.dim), pack_vectors(ds.blue, ds.dim)
    red_w, blue_w = (np.bitwise_count(side).sum(axis=1) for side in (red, blue))
    blue_buckets = [(wj, np.flatnonzero(blue_w == wj)) for wj in np.unique(blue_w)]
    if mode == "min":
        blue = blue ^ pack_vectors([BitVector.ones(ds.dim)], ds.dim)
    for wi in np.unique(red_w):
        ridx = np.flatnonzero(red_w == wi)
        for wj, bidx in blue_buckets:
            if not solve_empty and not (wi and wj):
                yield int(ridx[0]), int(bidx[0])
                continue
            start = int(np.bitwise_count(red[ridx[0]] ^ blue[bidx[0]]).sum())
            li, lj, dist = _closest_pair_packed(red[ridx], blue[bidx], ds.dim, start, cfg, rng)
            ri, bj = int(ridx[li]), int(bidx[lj])
            claimed = ds.dim - dist if mode == "min" else dist
            true_dist = hamming_distance(ds.red[ri], ds.blue[bj])
            if true_dist != claimed:
                raise VerificationError(
                    f"bucket ({wi}, {wj}) winner ({ri}, {bj}) is at distance {true_dist}, "
                    f"but the solver's distance {dist} implies {claimed}"
                )
            yield ri, bj


def extreme_inner_product(
    ds: Dataset,
    mode: str,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int, int]:
    """Pair with minimum or maximum inner product.

    Within a fixed weight-bucket pair (I, J), H = I + J - 2*IP, so the
    bucket's max-IP pair is its closest pair and its min-IP pair is its
    furthest pair; the global extreme is the best bucket winner, ties to
    the smallest indices.
    """
    if mode not in ("min", "max"):
        raise InvalidParametersError(f"mode must be 'min' or 'max', got {mode!r}")
    if not ds.red or not ds.blue:
        raise EmptyInputError("inner product extremes need both colors nonempty")
    sign = -1 if mode == "max" else 1
    key, ri, bj = min(
        (sign * inner_product(ds.red[ri], ds.blue[bj]), ri, bj)  # verified value
        for ri, bj in _bucket_winners(ds, mode, cfg, rng)
    )
    return ri, bj, sign * key


def extreme_inner_product_bruteforce(ds: Dataset, mode: str) -> tuple[int, int, int]:
    if mode not in ("min", "max"):
        raise InvalidParametersError(f"mode must be 'min' or 'max', got {mode!r}")
    if not ds.red or not ds.blue:
        raise EmptyInputError("inner product extremes need both colors nonempty")
    best = None
    for i, u in enumerate(ds.red):
        for j, v in enumerate(ds.blue):
            ip = inner_product(u, v)
            cand = (-ip if mode == "max" else ip, i, j)
            if best is None or cand < best:
                best = cand
    ip = -best[0] if mode == "max" else best[0]
    return best[1], best[2], ip


def find_orthogonal_pair(
    ds: Dataset,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int] | None:
    """A red-blue pair with inner product zero, if the minimum reaches zero."""
    ri, bi, ip = extreme_inner_product(ds, "min", cfg, rng)
    if ip != 0 or inner_product(ds.red[ri], ds.blue[bi]) != 0:
        return None
    return ri, bi


def jaccard_coefficient(u: BitVector, v: BitVector) -> Fraction:
    """|intersection| / |union| as an exact rational; both-empty is 1."""
    inter = inner_product(u, v)
    union = u.weight() + v.weight() - inter
    if union == 0:
        return Fraction(1)
    return Fraction(inter, union)


def max_jaccard_pair(
    ds: Dataset,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int, Fraction]:
    """Pair of sets (indicator vectors) with maximum Jaccard coefficient.

    Per cardinality bucket pair the coefficient IP/(d1 + d2 - IP) is
    strictly increasing in IP, so each bucket contributes its max-IP pair.
    A bucket with an empty side is not solved: every pair in it has the
    same coefficient, 1 for empty-vs-empty by convention and 0 otherwise.
    """
    if not ds.red or not ds.blue:
        raise EmptyInputError("Jaccard needs both colors nonempty")
    key, ri, bj = min(
        (-jaccard_coefficient(ds.red[ri], ds.blue[bj]), ri, bj)
        for ri, bj in _bucket_winners(ds, "max", cfg, rng, solve_empty=False)
    )
    return ri, bj, -key


def max_jaccard_bruteforce(ds: Dataset) -> tuple[int, int, Fraction]:
    if not ds.red or not ds.blue:
        raise EmptyInputError("Jaccard needs both colors nonempty")
    best = None
    for i, u in enumerate(ds.red):
        for j, v in enumerate(ds.blue):
            coeff = jaccard_coefficient(u, v)
            if best is None or coeff > best[0] or (coeff == best[0] and (i, j) < best[1:]):
                best = (coeff, i, j)
    return best[1], best[2], best[0]


# ---------------------------------------------------------------------------
# Bounded-integer vector file format: "m=<int>" header, one CSV row per
# vector, "#" comments; every number is decimal digits.
# ---------------------------------------------------------------------------


def load_int_vectors(text: str) -> list[IntVector]:
    m: int | None = None
    out: list[IntVector] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("m="):
            if m is not None:
                raise ParseError("duplicate m= header", lineno)
            try:
                m = parse_decimal(line[2:])
            except ValueError:
                raise ParseError(f"bad bound {line[2:]!r}", lineno) from None
            continue
        if m is None:
            raise ParseError("vector row before m= header", lineno)
        try:
            entries = tuple(parse_decimal(tok) for tok in line.split(","))
        except ValueError:
            raise ParseError(f"bad integer row {line!r}", lineno) from None
        try:
            vec = IntVector(entries, m)
        except InvalidParametersError as exc:
            raise ParseError(str(exc), lineno) from None
        if dim is None:
            dim = vec.dim
        elif vec.dim != dim:
            raise ParseError(f"expected {dim} entries, got {vec.dim}", lineno)
        out.append(vec)
    if m is None:
        raise ParseError("missing m= header")
    return out


def dump_int_vectors(vectors: Sequence[IntVector]) -> str:
    if not vectors:
        raise EmptyInputError("nothing to serialize")
    lines = [f"m={vectors[0].m}"]
    lines += [",".join(map(str, v.entries)) for v in vectors]
    return "\n".join(lines) + "\n"
