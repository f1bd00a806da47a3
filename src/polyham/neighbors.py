"""Bichromatic Hamming closest pair and batch nearest neighbors.

The decision pipeline groups both sides and majority-votes per group pair
over ``rounds`` draws of 1 + f1*f2, with factors f_r = (1 + |R_r|) +
sum_{R_r} P_ij over the s^2 block polynomials P_ij = p(x_i xor y_j).  The
inner circuit p is exact at every size the pipeline reaches, so a draw is
its coins, which say what R_1 and R_2 hold, and every block is the same
polynomial on 2d variables: a draw's vote on a group pair depends only on
the s^2 bits its blocks take there.  A decision samples one polynomial,
takes the coins of the other draws from one call, and builds one table of
the votes indexed by that pattern.  It evaluates the block on member pairs
through the packed GF(2) matrix product, one product per tile of red
groups within a byte budget, and looks each group pair's pattern up.
The product already holds every member value of a flagged group pair,
and an exact block is 0 exactly on a member pair within k, so only those
member pairs are candidates (the paper brute-forces all s^2).  Every
candidate's distance is recomputed, so reported pairs are
unconditionally sound; completeness is the with-high-probability side.

The pipeline engages only for an explicit group size s with d <= 32 (a
block row over 2d bits is one 64-bit word) whose blocks fit the monomial
budget: s^2 * (3^d - 1) rows, the block count at k = 0 and the most at any
k.  Otherwise, and always for s = "auto", the plan picks the exact scan,
which serves the same contracts by bit-packed brute force, and says why.
Each block restates a member distance predicate that one popcount
decides; the paper's speedup needs an inner degree far below d, which no
such instance has.
The exact scans reduce the distance tiles of ``vectors.distance_tiles`` to
a running nearest row per column as they come, and the candidate member
pairs of flagged cells are verified through
``vectors.packed_distance_matrix``, the consumer that keeps every distance.
A decision reports each blue's least verified (distance, red).  Distance
search is a shrinking binary search over its best pair; the batch solver
makes one decision per distance level, upward, over the unmatched queries.

Ties everywhere resolve to the smallest red/database index, then the
smallest blue/query index, matching the brute-force oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, InvalidParametersError
from .hammingpoly import (
    GroupPredicateSpec,
    block_masks,
    block_rows,
    draw_coins,
    meets_dimension_advisory,
    sample_hamming_poly,
)
from .paireval import eval_sides
from .vectors import (
    DISTANCE_BUDGET_BYTES,
    BitVector,
    Dataset,
    distance_tiles,
    hamming_distance,
    pack_vectors,
    packed_distance_matrix,
)

__all__ = [
    "ClosestPairConfig",
    "NNResult",
    "closest_pair_bruteforce",
    "batch_nn_bruteforce",
    "bichromatic_close_pair",
    "closest_pair",
    "batch_nn",
]

MONOMIAL_BUDGET_DEFAULT = 1 << 20
NO_PAIR = (1 << 63) - 1  # a decision's key for a blue with no verified pair


@dataclass(frozen=True)
class ClosestPairConfig:
    """Tuning for the probabilistic pipeline.

    s: group size, or "auto" for the exact scan.  An explicit s engages the
       pipeline exactly when its s^2 * (3^d - 1) block rows fit the monomial
       budget, and is never changed; otherwise the exact scan answers.
    rounds: amplification rounds, or "auto" for ceil(10*log2(n)).
    monomial_budget: cap on the block rows (0 forces the exact scan).
    seed: recorded in result metadata; the rng passed to operations rules.
    """

    s: int | str = "auto"
    rounds: int | str = "auto"
    monomial_budget: int = MONOMIAL_BUDGET_DEFAULT
    seed: int | None = None

    def __post_init__(self):
        # a bool or a float or a string other than "auto" is an error, not "auto"
        for name, least in (("s", 1), ("rounds", 1), ("monomial_budget", 0)):
            value = getattr(self, name)
            auto = name != "monomial_budget"
            if not (auto and value == "auto") and (type(value) is not int or value < least):
                want = "'auto' or an int" if auto else "an int"
                raise InvalidParametersError(f"{name} must be {want} >= {least}, got {value!r}")


@dataclass(frozen=True)
class NNResult:
    """Per-query nearest-neighbor table plus run metadata.

    Each entry is (query index, database index, distance); the distance is
    always the recomputed distance of the reported pair.
    """

    entries: tuple[tuple[int, int, int], ...]
    meta: dict = field(compare=False)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def _nearest_rows(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest packed row for every packed column: (row index, distance).

    The consumer of ``vectors.distance_tiles`` that keeps a running argmin
    per column, so no distance array outlives its tile.  Ties resolve to
    the smallest row index: argmin keeps the first minimum in a tile, the
    row tiles reach each column tile in increasing order, and only a
    strictly smaller distance replaces the best.
    """
    m = cols.shape[0]
    best_i = np.zeros(m, dtype=np.int64)
    best_d = np.full(m, np.iinfo(np.int64).max)
    # (column, row) orientation: argmin along the contiguous axis
    for _, c0, r0, tile in distance_tiles(cols, rows)[1]:
        tile = tile[0]
        i = tile.argmin(axis=1)
        d = np.take_along_axis(tile, i[:, None], axis=1)[:, 0]
        cs = slice(c0, c0 + len(i))
        closer = d < best_d[cs]
        np.copyto(best_i[cs], i + r0, where=closer)
        # a tile holds exact integers in the dtype that computed them
        np.copyto(best_d[cs], d, where=closer, casting="unsafe")
    return best_i, best_d


def closest_pair_bruteforce(ds: Dataset) -> tuple[int, int, int]:
    """Exact minimum-distance red-blue pair, smallest indices on ties."""
    if not ds.red or not ds.blue:
        raise EmptyInputError("closest pair needs both colors nonempty")
    return _brute_close_pair(
        pack_vectors(ds.red, ds.dim), pack_vectors(ds.blue, ds.dim), ds.dim
    )


def batch_nn_bruteforce(
    db: Sequence[BitVector], queries: Sequence[BitVector]
) -> NNResult:
    """Exact nearest database vector per query (smallest index on ties)."""
    if not db:
        raise EmptyInputError("batch NN needs a nonempty database")
    dim = db[0].dim
    nn, dist = _nearest_rows(pack_vectors(db, dim), pack_vectors(queries, dim))
    entries = tuple((j, int(nn[j]), int(dist[j])) for j in range(len(queries)))
    return NNResult(entries, {"mode": "bruteforce"})


def _brute_close_pair(
    red_packed: np.ndarray, blue_packed: np.ndarray, k: int
) -> tuple[int, int, int] | None:
    """Best pair at distance <= k, or None; (dist, red, blue) lexicographic.

    Each blue's nearest red is already its smallest-index one, so the
    lexicographic minimum over blues of (dist, red, blue) is the best pair.
    """
    red_of, dist = _nearest_rows(red_packed, blue_packed)
    if not dist.size or dist.min() > k:
        return None
    j = np.lexsort((np.arange(dist.size), red_of, dist))[0]
    return int(red_of[j]), int(j), int(dist[j])


# ---------------------------------------------------------------------------
# Pipeline configuration resolution
# ---------------------------------------------------------------------------


def _plan(dim: int, cfg: ClosestPairConfig) -> tuple[int | None, bool, str]:
    """Group size, whether the polynomial pipeline engages, and why.

    The one admission rule: an explicit s engages exactly when a block row
    over 2d bits fits one 64-bit word (d <= 32) and the rows of its s^2
    block polynomials, :func:`hammingpoly.block_rows`, fit the monomial
    budget.  "auto" is the exact scan: wherever the blocks fit a budget the
    inner circuit is exact, and they only restate member distance
    predicates that a popcount decides.
    """
    if cfg.s == "auto":
        return None, False, "s='auto' picks the exact scan: the inner threshold is exact"
    s, budget = cfg.s, cfg.monomial_budget
    rows = block_rows(s, dim)
    shown = rows if rows < 1 << 63 else f"{s * s}*(3^{dim} - 1)"  # str() stops at 4300 digits
    engaged = rows <= budget
    verdict = "<=" if engaged else ">"
    reason = f"s={s}, d={dim}: s^2*(3^d - 1) = {shown} block rows {verdict} budget {budget}"
    if dim > 32:
        reason += f"; 2d = {2 * dim} bits do not fit a 64-bit block row"
    return s, engaged and dim <= 32, reason


def _resolve_rounds(n: int, cfg: ClosestPairConfig) -> int:
    if isinstance(cfg.rounds, int):
        return cfg.rounds
    return max(1, math.ceil(10 * math.log2(max(n, 2))))


def pipeline_info(n: int, dim: int, cfg: ClosestPairConfig) -> dict:
    """How the pipeline would configure itself for an instance (advisory).

    ``reason`` says why the pipeline engages or the exact scan answers.
    The dimension advisory flags instances where the asymptotic monomial
    bound's precondition (dimension exceeding e^2*log2(group size)) fails;
    correctness does not depend on it.
    """
    s, engaged, reason = _plan(dim, cfg)
    info = {
        "group_size": s,
        "engaged": engaged,
        "reason": reason,
        "rounds": _resolve_rounds(n, cfg) if engaged else None,
        "monomial_budget": cfg.monomial_budget,
    }
    if engaged:
        info["dimension_advisory_ok"] = meets_dimension_advisory(
            GroupPredicateSpec(s, dim, 0)
        )
    return info


# ---------------------------------------------------------------------------
# The probabilistic decision pipeline
# ---------------------------------------------------------------------------


def _block_major(n: int, s: int, g0: int, groups: int) -> np.ndarray:
    """Member indices of groups g0 .. g0 + groups - 1 laid out block-major:
    entry i*groups + g is member min((g0 + g)*s + i, n - 1).

    The last group is padded with copies of its final member, which adds no
    new pairs and never changes the answer.
    """
    g = np.arange(g0, g0 + groups)
    return np.minimum(np.arange(s)[:, None] + g * s, n - 1).ravel()


def _majority(patterns: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """Whether most of a decision's draws vote 1 on each block pattern.

    ``patterns`` is (u, width) uint8, the value of block (i, j) at bit b % 8
    of byte b // 8 for b = i*s + j; ``coins`` is (rounds, 2, width), the
    draws' coins packed alike.  Over GF(2), factor r of a draw is E_r =
    (1 + |R_r|) + <R_r, pattern>, and the draw's vote is 1 + E_1*E_2.
    """
    rounds, _, width = coins.shape
    const = 1 ^ (np.bitwise_count(coins).sum(axis=2) & 1).astype(np.uint8)
    wins = np.empty(len(patterns), dtype=bool)
    # A pattern's bytes per draw: each factor's AND and its parity bytes.
    step = max(1, DISTANCE_BUDGET_BYTES // (2 * (width + 3) * rounds))
    for p0 in range(0, len(patterns), step):
        chunk = patterns[p0 : p0 + step, None, :]
        e1, e2 = (
            const[:, r] ^ np.bitwise_count(np.bitwise_xor.reduce(chunk & coins[:, r], axis=2)) & 1
            for r in range(2)
        )
        wins[p0 : p0 + step] = 2 * (1 ^ (e1 & e2)).sum(axis=1) > rounds
    return wins


def _pattern_table(coins: np.ndarray, n_blocks: int) -> np.ndarray | None:
    """The majority of every pattern of up to 16 blocks, indexed by the
    pattern read as a little-endian integer; None past 16 blocks."""
    if n_blocks > 16:
        return None
    width = coins.shape[2]
    every = np.arange(1 << n_blocks, dtype=f"<u{width}").view(np.uint8)
    return _majority(every.reshape(-1, width), coins)


def _block_pattern(vals: np.ndarray) -> np.ndarray:
    """(G, H, width) uint8 block patterns from (s, G, s, H) member values.

    ``vals[i, g, j, h]`` is the block polynomial on member i of red group g
    and member j of blue group h, so it is bit b = i*s + j of cell (g, h),
    set at bit b % 8 of byte b // 8.
    """
    s, groups, _, n_blue = vals.shape
    pattern = np.zeros((groups, n_blue, (s * s + 7) // 8), dtype=np.uint8)
    for i in range(s):
        for j in range(s):
            b = i * s + j
            pattern[..., b // 8] |= vals[i, :, j, :] << (b % 8)
    return pattern


def _pattern_flags(
    pattern: np.ndarray, coins: np.ndarray, table: np.ndarray | None
) -> np.ndarray:
    """(na, nb) bool: the majority vote of each cell of a block pattern.

    With a :func:`_pattern_table` the pattern is its index; without one,
    the majority is taken over the distinct patterns present.
    """
    width = pattern.shape[2]
    if table is not None:
        return table[pattern.view(f"<u{width}")[..., 0]]
    uniq, inverse = np.unique(pattern.reshape(-1, width), axis=0, return_inverse=True)
    return _majority(uniq, coins)[inverse].reshape(pattern.shape[:2])


def _poly_close_pair(
    red_packed: np.ndarray,
    blue_packed: np.ndarray,
    dim: int,
    k: int,
    s: int,
    rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grouped majority-vote pipeline; each blue's verified key.

    The plan admits only d <= 32 with an exact inner circuit, so every draw
    shares one block polynomial over 2d bits and a member is one word: red
    x | ones << d, blue ones | y << d.  A tile of red groups is one GF(2)
    product of the block on its red members against every blue member,
    both block-major, and each group pair's pattern is read from it.  The
    candidates are the member pairs of flagged cells whose value is 0 (a 1
    rules a pair out only because the block is exact), and a recomputed
    distance within k is the only thing that lets one through.

    Returns one int64 per blue b: (d*nr + r)*nb + b for its least verified
    (distance d, red r), or ``NO_PAIR``; :func:`_least_pair` reads the
    decision's best pair from it.
    """
    spec = GroupPredicateSpec(s, dim, k)
    first = sample_hamming_poly(spec, rng)
    block = block_masks(first)
    # an exact inner circuit draws nothing: these are the coins of `rounds` draws
    coins = np.concatenate([first.coins[None], draw_coins(spec, rng, rounds - 1)])
    coins = np.packbits(coins, axis=2, bitorder="little")
    table = _pattern_table(coins, s * s)

    nr, nb = red_packed.shape[0], blue_packed.shape[0]
    ones = np.uint64((1 << dim) - 1)
    red_side = red_packed[:, :1] | ones << np.uint64(dim)
    n_red, n_blue = -(-nr // s), -(-nb // s)
    cols = _block_major(nb, s, 0, n_blue)
    blue_side = (blue_packed[:, :1] << np.uint64(dim) | ones)[cols]
    # A tile cell's bytes: its s^2 member values with the product's float32
    # and int32 temporaries, which the candidate mask reuses once freed,
    # the pattern with its lookup or unique temporaries, and a flag.
    rows = max(1, DISTANCE_BUDGET_BYTES // ((9 * s * s + 47 + 3 * coins.shape[2]) * n_blue))
    # A candidate's bytes: its flat, red and blue indices, two gathered rows
    # with their XOR words and popcounts, its distance and its key.
    step = max(1, DISTANCE_BUDGET_BYTES // (48 + 25 * red_packed.shape[1]))
    best = np.full(nb, NO_PAIR, dtype=np.int64)
    for g0 in range(0, n_red, rows):
        groups = min(rows, n_red - g0)
        ridx = _block_major(nr, s, g0, groups)
        vals = eval_sides(block, (red_side[ridx], blue_side)).reshape(s, groups, s, n_blue)
        flags = _pattern_flags(_block_pattern(vals), coins, table)
        if not flags.any():
            continue
        close = vals == 0
        close &= flags[None, :, None, :]
        close = close.reshape(-1)  # flat c: red ridx[c // len(cols)], blue cols[c % len(cols)]
        for c0 in range(0, close.size, step):
            r, b = np.divmod(np.flatnonzero(close[c0 : c0 + step]) + c0, len(cols))
            if not len(r):
                continue
            r, b = ridx[r], cols[b]
            d = packed_distance_matrix(red_packed[r, None], blue_packed[b, None])[:, 0, 0]
            near = d <= k  # keys are int64: d <= 32, so no overflow
            np.minimum.at(best, b[near], ((d * nr + r) * nb + b)[near])
    return best


def _least_pair(keys: np.ndarray, nr: int) -> tuple[int, int, int] | None:
    """(red, blue, dist) of a decision's least key, or None if it has none."""
    best = int(keys.min())
    if best == NO_PAIR:
        return None
    d, rest = divmod(best, nr * len(keys))
    return (*divmod(rest, len(keys)), d)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def bichromatic_close_pair(
    ds: Dataset,
    k: int,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int] | None:
    """Some verified red-blue pair at distance <= k, or None.

    Positives are sound (the pair's distance is recomputed); a None can be a
    with-high-probability miss when the polynomial pipeline is engaged.
    """
    if not 0 <= k < ds.dim:
        raise InvalidParametersError(f"need 0 <= k < dim, got k={k}, dim={ds.dim}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if not ds.red or not ds.blue:
        return None
    s, engaged, _ = _plan(ds.dim, cfg)
    red, blue = pack_vectors(ds.red, ds.dim), pack_vectors(ds.blue, ds.dim)
    if engaged:
        rounds = _resolve_rounds(max(len(ds.red), len(ds.blue)), cfg)
        res = _least_pair(_poly_close_pair(red, blue, ds.dim, k, s, rounds, rng), len(red))
    else:
        res = _brute_close_pair(red, blue, k)
    if res is None:
        return None
    return res[0], res[1]


def closest_pair(
    ds: Dataset,
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[int, int, int]:
    """Minimum-distance pair (red, blue, distance), equal to brute force whp.

    Locates the distance with a shrinking binary search over the decision
    oracle, then returns the verified witness.
    """
    if not ds.red or not ds.blue:
        raise EmptyInputError("closest pair needs both colors nonempty")
    red, blue = pack_vectors(ds.red, ds.dim), pack_vectors(ds.blue, ds.dim)
    start = hamming_distance(ds.red[0], ds.blue[0])
    return _closest_pair_packed(red, blue, ds.dim, start, cfg, rng)


def _closest_pair_packed(
    red: np.ndarray, blue: np.ndarray, dim: int, start: int, cfg: ClosestPairConfig, rng
) -> tuple[int, int, int]:
    """:func:`closest_pair` on nonempty packed sides; ``start`` is the
    distance of red 0 to blue 0, where the search starts."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if len(red) == 1 and len(blue) == 1:
        return 0, 0, start
    s, engaged, _ = _plan(dim, cfg)
    if not engaged:
        return _brute_close_pair(red, blue, dim)
    rounds = _resolve_rounds(max(len(red), len(blue)), cfg)
    best = (0, 0, start)
    lo, hi = 0, start
    while lo < hi:
        mid = (lo + hi) // 2
        res = _least_pair(_poly_close_pair(red, blue, dim, mid, s, rounds, rng), len(red))
        if res is not None:
            best = res
            hi = res[2]
        else:
            lo = mid + 1
    return best


def batch_nn(
    db: Sequence[BitVector],
    queries: Sequence[BitVector],
    cfg: ClosestPairConfig = ClosestPairConfig(),
    rng: np.random.Generator | None = None,
) -> NNResult:
    """Nearest database vector for every query, whp, with verified witnesses.

    Distance levels run upward from k = 0, one decision per level over the
    whole database and the unmatched queries (``meta["decisions"]`` counts
    them); a query with verified candidates takes its least (distance,
    database index), the brute-force tie rule, and retires.  Flagged cells
    hold only pairs within k, so it is nearest unless a lower level missed
    it.  An exact scan answers the queries never matched.  ``rounds`` is
    planned for sides of max(|db|, |queries|); ``inner_group_size`` is s.
    """
    if not db:
        raise EmptyInputError("batch NN needs a nonempty database")
    dim = db[0].dim
    for v in list(db) + list(queries):
        if v.dim != dim:
            raise InvalidParametersError("database and queries must share one dimension")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    nd, nq = len(db), len(queries)
    plan = pipeline_info(max(nd, nq), dim, cfg)  # a decision's sides: db x queries
    engaged, s, rounds = plan["engaged"], plan["group_size"], plan["rounds"]
    meta = {
        "mode": "poly" if engaged else "exact",
        "reason": plan["reason"],
        "inner_group_size": s if engaged else None,
        "rounds": rounds,
        "seed": cfg.seed,
        "max_distance": dim,
        "decisions": 0,
    }
    if not engaged:
        # the walk's answer with no miss: it leaves to the unmatched scan only
        # the queries at distance dim from every vector, which no level matches
        entries = batch_nn_bruteforce(db, queries).entries
        meta["unmatched_scans"] = sum(d == dim for _, _, d in entries)
        return NNResult(entries, meta)

    meta["dimension_advisory_ok"] = plan["dimension_advisory_ok"]
    db_packed = pack_vectors(db, dim)
    found = [None] * nq
    left = list(range(nq))
    for k in range(dim):
        if not left:
            break
        meta["decisions"] += 1
        side = pack_vectors([queries[j] for j in left], dim)
        keys = _poly_close_pair(db_packed, side, dim, k, s, rounds, rng).tolist()
        rest = []
        for j, key in zip(left, keys):
            if key == NO_PAIR:
                rest.append(j)
            else:  # key = (d*nd + i)*len(left) + position
                d, i = divmod(key // len(left), nd)
                found[j] = (j, i, d)
        left = rest
    if left:
        scan = batch_nn_bruteforce(db, [queries[j] for j in left]).entries
        for j, (_, i, d) in zip(left, scan):
            found[j] = (j, i, d)
    meta["unmatched_scans"] = len(left)
    return NNResult(tuple(found), meta)
