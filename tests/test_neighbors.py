import numpy as np
import pytest

from polyham.errors import EmptyInputError, InvalidParametersError
from polyham.neighbors import (
    MONOMIAL_BUDGET_DEFAULT,
    ClosestPairConfig,
    _nearest_rows,
    _plan,
    batch_nn,
    batch_nn_bruteforce,
    bichromatic_close_pair,
    closest_pair,
    closest_pair_bruteforce,
    pipeline_info,
)
from polyham.vectors import (
    BitVector,
    Dataset,
    complement,
    distance_tiles,
    hamming_distance,
    pack_vectors,
)

ENGAGED_CFG = ClosestPairConfig(s=1, rounds=9)   # polynomial path live at d <= 12
ENGAGED_S2_CFG = ClosestPairConfig(s=2, rounds=9)  # heavier; live at d <= 11
BRUTE_CFG = ClosestPairConfig(monomial_budget=0)


def random_dataset(rng, n, d, n_blue=None):
    red = tuple(BitVector.random(rng, d) for _ in range(n))
    blue = tuple(BitVector.random(rng, d) for _ in range(n_blue or n))
    return Dataset(d, red, blue)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def test_bruteforce_examples():
    ds = Dataset.from_lists([BitVector.from_string("000")], [BitVector.from_string("111")])
    assert closest_pair_bruteforce(ds) == (0, 0, 3)
    v = BitVector.from_string("010")
    assert closest_pair_bruteforce(Dataset.from_lists([v], [v])) == (0, 0, 0)
    ds = Dataset.from_lists(
        [BitVector.from_string("00"), BitVector.from_string("11")],
        [BitVector.from_string("01"), BitVector.from_string("10")],
    )
    # four pairs all at distance 1; ties break to smallest red then blue
    assert closest_pair_bruteforce(ds) == (0, 0, 1)


def test_bruteforce_empty_side():
    with pytest.raises(EmptyInputError):
        closest_pair_bruteforce(Dataset(3, (), (BitVector.zeros(3),)))


def test_batch_nn_bruteforce_examples():
    v = BitVector.from_string("000")
    res = batch_nn_bruteforce([v], [v])
    assert res.entries == ((0, 0, 0),)
    db = [BitVector.from_string("0000"), BitVector.from_string("1111")]
    queries = [BitVector.from_string("0001"), BitVector.from_string("1110")]
    res = batch_nn_bruteforce(db, queries)
    assert res.entries == ((0, 0, 1), (1, 1, 1))


def test_batch_nn_bruteforce_tie_smallest_index():
    db = [BitVector.from_string("01"), BitVector.from_string("01")]
    res = batch_nn_bruteforce(db, [BitVector.from_string("01")])
    assert res.entries == ((0, 0, 0),)


def naive_closest_pair(ds):
    """Python-int reference: lexicographic minimum of (distance, red, blue)."""
    d, i, j = min(
        ((u.bits ^ v.bits).bit_count(), i, j)
        for i, u in enumerate(ds.red)
        for j, v in enumerate(ds.blue)
    )
    return i, j, d


def naive_batch_nn(db, queries):
    return tuple(
        (j, *min(((v.bits ^ q.bits).bit_count(), i) for i, v in enumerate(db))[::-1])
        for j, q in enumerate(queries)
    )


@pytest.mark.parametrize("budget", [None, 64])
def test_bruteforce_ties_resolve_to_smallest_index(budget, monkeypatch):
    # few distinct vectors, many duplicates: every minimum is tied, and with
    # a 64-byte budget the rows split into tiles that each hold a copy
    if budget is not None:
        monkeypatch.setattr("polyham.neighbors.DISTANCE_BUDGET_BYTES", budget)
        monkeypatch.setattr("polyham.vectors.DISTANCE_BUDGET_BYTES", budget)
    rng = np.random.default_rng(21)
    for d in (3, 64, 130):
        pool = [BitVector.random(rng, d) for _ in range(3)]
        for _ in range(4):
            red = tuple(pool[i] for i in rng.integers(0, 3, size=11))
            blue = tuple(pool[i] for i in rng.integers(0, 3, size=9))
            ds = Dataset(d, red, blue)
            assert closest_pair_bruteforce(ds) == naive_closest_pair(ds)
            assert batch_nn_bruteforce(red, blue).entries == naive_batch_nn(red, blue)
            assert batch_nn(red, blue, BRUTE_CFG).entries == naive_batch_nn(red, blue)


def naive_nearest_rows(rows, cols):
    """Python-int popcount argmin per packed column, smallest row on ties."""
    rs = [int.from_bytes(r.tobytes(), "little") for r in rows]
    best = [
        min(((r ^ c).bit_count(), i) for i, r in enumerate(rs))
        for c in (int.from_bytes(c.tobytes(), "little") for c in cols)
    ]
    return [i for _, i in best], [d for d, _ in best]


@pytest.mark.parametrize("budget", [None, 300])
@pytest.mark.parametrize("words", [1, 2, 16, 17])
def test_nearest_rows_matches_oracle(words, budget, monkeypatch):
    # a few distinct rows repeated in random order tie every minimum; with a
    # budget of a few hundred bytes the copies of a row fall in different
    # row tiles, and the words of 17-word rows are split
    if budget is not None:
        monkeypatch.setattr("polyham.vectors.DISTANCE_BUDGET_BYTES", budget)
    rng = np.random.default_rng(words)
    for d in (64 * words - 1, 64 * words):
        pool = pack_vectors([BitVector.random(rng, d) for _ in range(4)], d)
        rows = pool[rng.integers(0, 4, size=23)]
        cols = np.concatenate([pack_vectors([BitVector.random(rng, d) for _ in range(9)], d), pool])
        if budget is not None:
            assert len({j for _, _, j, _ in distance_tiles(cols, rows)[1]}) > 1
        for r, c in ((rows, cols), (rows[:1], cols), (rows, cols[:0])):
            got_i, got_d = _nearest_rows(r, c)
            assert got_i.dtype == got_d.dtype == np.int64
            assert (got_i.tolist(), got_d.tolist()) == naive_nearest_rows(r, c)


@pytest.mark.parametrize("d", [64, 1024])
def test_nearest_rows_memory_is_bounded_by_the_budget(d):
    # the scan used to fill an int64 distance block of one full budget per
    # row chunk and reduce it afterwards: 2.3 (d = 64) and 2.9 budgets here
    import tracemalloc

    from polyham.vectors import DISTANCE_BUDGET_BYTES

    rng = np.random.default_rng(d)
    rows = rng.integers(0, 1 << 64, size=(4096, d // 64), dtype=np.uint64)
    cols = rng.integers(0, 1 << 64, size=(4096, d // 64), dtype=np.uint64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        best_i, best_d = _nearest_rows(rows, cols)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= DISTANCE_BUDGET_BYTES + best_i.nbytes + best_d.nbytes
    some = rng.choice(4096, size=8, replace=False)
    assert (best_i[some].tolist(), best_d[some].tolist()) == naive_nearest_rows(rows, cols[some])


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------


def test_auto_group_size_is_the_exact_scan():
    # "auto" never engages, at any size or budget, and the plan says why
    for n, d in ((256, 16), (1024, 40), (64, 5), (64, 4), (4, 1)):
        for budget in (0, MONOMIAL_BUDGET_DEFAULT, 10**12):
            cfg = ClosestPairConfig(monomial_budget=budget)
            assert _plan(d, cfg)[:2] == (None, False)
            info = pipeline_info(n, d, cfg)
            assert (info["engaged"], info["group_size"], info["rounds"]) == (False, None, None)
            assert info["reason"].startswith("s='auto' picks the exact scan")


def test_explicit_group_size_is_not_halved():
    # at the default budget s = 1 engages at d = 12 but not 13, s = 2 at 11
    # but not 12; the reason gives s^2 * (3^d - 1) against the budget
    for s, d_max in ((1, 12), (2, 11)):
        for d, want in ((d_max, True), (d_max + 1, False)):
            got, engaged, reason = _plan(d, ClosestPairConfig(s=s))
            assert (got, engaged) == (s, want)
            verdict = "<=" if want else ">"
            assert reason == (
                f"s={s}, d={d}: s^2*(3^d - 1) = {s * s * (3**d - 1)} block rows "
                f"{verdict} budget {MONOMIAL_BUDGET_DEFAULT}"
            )
            assert pipeline_info(64, d, ClosestPairConfig(s=s))["reason"] == reason
    # a budget of exactly the count engages; one less does not
    for s, d in ((1, 6), (2, 4), (3, 5), (17, 2)):
        rows = s * s * (3**d - 1)
        assert _plan(d, ClosestPairConfig(s=s, monomial_budget=rows))[:2] == (s, True)
        assert _plan(d, ClosestPairConfig(s=s, monomial_budget=rows - 1))[:2] == (s, False)
    # a count past what an int prints in full is shown as its formula
    engaged, reason = _plan(10_000, ClosestPairConfig(s=3))[1:]
    assert not engaged and "= 9*(3^10000 - 1) block rows >" in reason


def test_block_rows_bound_every_k():
    # the admitted count is s^2 times the member block's rows at k = 0, and
    # no k has more rows
    from polyham.hammingpoly import _member_block, block_rows

    for s in (1, 2, 3):
        for d in (1, 2, 3, 5, 6):
            rows = [s * s * _member_block(d, k).shape[0] for k in range(d)]
            assert block_rows(s, d) == rows[0] == s * s * (3**d - 1)
            assert max(rows) == rows[0], (s, d)


def test_defaults_scan_exactly(monkeypatch):
    # with defaults no decision runs the pipeline; closest pair and the
    # decision oracle scan exactly and equal brute force
    import polyham.neighbors as neighbors

    rng = np.random.default_rng(28)
    ds = random_dataset(rng, 64, 5)
    want = closest_pair_bruteforce(ds)
    brute = spy(monkeypatch, neighbors, "_brute_close_pair")
    poly = spy(monkeypatch, neighbors, "_poly_close_pair")
    assert closest_pair(ds) == want and len(brute) == 1
    assert bichromatic_close_pair(ds, want[2]) == want[:2] and len(brute) == 2
    res = batch_nn(list(ds.red), list(ds.blue))
    assert res.meta["mode"] == "exact"
    assert res.meta["reason"] == pipeline_info(64, 5, ClosestPairConfig())["reason"]
    assert res.entries == batch_nn_bruteforce(list(ds.red), list(ds.blue)).entries
    for d in range(1, 7):
        ds = random_dataset(rng, 40, d)
        assert closest_pair(ds) == closest_pair_bruteforce(ds)
    assert not poly


def test_config_validation():
    with pytest.raises(InvalidParametersError):
        ClosestPairConfig(s=0)
    with pytest.raises(InvalidParametersError):
        ClosestPairConfig(rounds=0)
    # a mistyped value is an error, not a silent "auto"
    for bad in ("2", 2.0, "Auto", True, None):
        with pytest.raises(InvalidParametersError):
            ClosestPairConfig(s=bad)
    for bad in ("7", 7.5, False, "AUTO"):
        with pytest.raises(InvalidParametersError):
            ClosestPairConfig(rounds=bad)
    for bad in (-1, 1.5, "10", True):
        with pytest.raises(InvalidParametersError):
            ClosestPairConfig(monomial_budget=bad)
    ClosestPairConfig(s=1, rounds="auto", monomial_budget=0)
    ClosestPairConfig(s="auto", rounds=1)


# ---------------------------------------------------------------------------
# decision oracle
# ---------------------------------------------------------------------------


def test_close_pair_k_range_checked():
    ds = random_dataset(np.random.default_rng(0), 8, 6)
    with pytest.raises(InvalidParametersError):
        bichromatic_close_pair(ds, 6, BRUTE_CFG)
    with pytest.raises(InvalidParametersError):
        bichromatic_close_pair(ds, -1, BRUTE_CFG)


def test_close_pair_empty_side_is_none():
    ds = Dataset(4, (), (BitVector.zeros(4),))
    assert bichromatic_close_pair(ds, 2, BRUTE_CFG) is None
    assert bichromatic_close_pair(ds, 2, ENGAGED_CFG, np.random.default_rng(0)) is None


def even_odd_dataset(rng, n, d):
    """Red all even weight, blue all odd: every distance is odd, so >= 1."""
    def flip_parity(v, want_odd):
        if v.weight() % 2 != want_odd:
            return v
        return BitVector(d, v.bits ^ 1)

    red = tuple(flip_parity(BitVector.random(rng, d), 1) for _ in range(n))
    blue = tuple(flip_parity(BitVector.random(rng, d), 0) for _ in range(n))
    return Dataset(d, red, blue)


def test_close_pair_k_below_minimum_is_always_none():
    rng = np.random.default_rng(1)
    for inst in range(8):
        ds = even_odd_dataset(rng, 24, 6)
        _, _, true_min = closest_pair_bruteforce(ds)
        assert true_min >= 1
        for seed in range(8):
            res = bichromatic_close_pair(ds, true_min - 1, ENGAGED_CFG, np.random.default_rng(seed))
            assert res is None  # soundness is unconditional


def test_close_pair_top_k_always_finds_unless_all_complements():
    rng = np.random.default_rng(2)
    for _ in range(10):
        ds = random_dataset(rng, 16, 5)
        _, _, true_min = closest_pair_bruteforce(ds)
        res = bichromatic_close_pair(ds, ds.dim - 1, BRUTE_CFG)
        assert (res is not None) == (true_min <= ds.dim - 1)
    # the all-complements corner: every pair at distance exactly dim
    u = BitVector.from_string("0101")
    ds = Dataset.from_lists([u], [complement(u)])
    assert bichromatic_close_pair(ds, 3, BRUTE_CFG) is None


def test_close_pair_positive_is_verified():
    rng = np.random.default_rng(3)
    for seed in range(25):
        ds = random_dataset(rng, 20, 6)
        k = int(rng.integers(0, 6))
        res = bichromatic_close_pair(ds, k, ENGAGED_CFG, np.random.default_rng(seed))
        if res is not None:
            ri, bi = res
            assert hamming_distance(ds.red[ri], ds.blue[bi]) <= k


def test_close_pair_monotone_in_k():
    rng = np.random.default_rng(4)
    for inst in range(5):
        ds = random_dataset(rng, 24, 6)
        found = [
            bichromatic_close_pair(ds, k, ENGAGED_CFG, np.random.default_rng(100 + k))
            is not None
            for k in range(6)
        ]
        # once found at k, found at every k' >= k
        first = found.index(True) if True in found else len(found)
        assert all(found[first:])


# ---------------------------------------------------------------------------
# closest pair
# ---------------------------------------------------------------------------


def test_closest_pair_trivial_cases():
    v = BitVector.from_string("0110")
    ds = Dataset.from_lists([v], [v])
    assert closest_pair(ds, BRUTE_CFG) == (0, 0, 0)
    u = BitVector.from_string("1100")
    ds = Dataset.from_lists([u], [v])
    # single red + single blue: exact, deterministically
    assert closest_pair(ds, ENGAGED_CFG) == (0, 0, hamming_distance(u, v))
    with pytest.raises(EmptyInputError):
        closest_pair(Dataset(4, (), (v,)), BRUTE_CFG)


def test_closest_pair_fallback_equals_oracle_deterministically():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds = random_dataset(rng, 60, 16)
        assert closest_pair(ds, BRUTE_CFG) == closest_pair_bruteforce(ds)


def test_closest_pair_engaged_matches_oracle_whp():
    matches = 0
    runs = 100
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 32, 6)
        got = closest_pair(ds, ENGAGED_CFG, np.random.default_rng(seed + 10_000))
        want = closest_pair_bruteforce(ds)
        assert got[2] >= want[2]  # sound: never below the true minimum
        assert hamming_distance(ds.red[got[0]], ds.blue[got[1]]) == got[2]
        matches += int(got == want)
    assert matches >= 95


def test_closest_pair_planted_engaged():
    rng = np.random.default_rng(6)
    hits = 0
    for seed in range(30):
        d = 6
        base = BitVector.random(rng, d)
        # plant a distance-1 pair; fill the rest with far vectors
        red = [base] + [complement(BitVector(d, base.bits ^ int(rng.integers(0, 4)))) for _ in range(15)]
        blue = [BitVector(d, base.bits ^ 1)] + [
            complement(BitVector(d, base.bits ^ int(rng.integers(0, 4)))) for _ in range(15)
        ]
        ds = Dataset(d, tuple(red), tuple(blue))
        want = closest_pair_bruteforce(ds)
        got = closest_pair(
            ds, ClosestPairConfig(s=1, rounds=15), np.random.default_rng(seed)
        )
        hits += int(got == want)
    assert hits >= 28


def test_group_padding_never_changes_the_answer():
    rng = np.random.default_rng(7)
    for seed in range(6):
        d = 5
        red = [BitVector.random(rng, d) for _ in range(7)]  # ragged at s=2
        blue = [BitVector.random(rng, d) for _ in range(7)]
        ds = Dataset(d, tuple(red), tuple(blue))
        padded = Dataset(d, tuple(red + [red[-1]]), tuple(blue + [blue[-1]]))
        got = closest_pair(ds, ENGAGED_S2_CFG, np.random.default_rng(seed))
        got_padded = closest_pair(padded, ENGAGED_S2_CFG, np.random.default_rng(seed))
        assert got[2] == got_padded[2]
        assert got[2] == closest_pair_bruteforce(ds)[2]


def test_member_pattern_bits_are_member_predicates(monkeypatch):
    # verification hides a wrong pattern (it only flags more pairs), so the
    # patterns a decision votes on are checked directly: bit i*s + j of cell
    # (g, h) is [D >= k + 1] between red member min(g*s + i, n - 1) and blue
    # member min(h*s + j, m - 1), from 0/1 coordinates and no GF(2) code.
    # Sides are ragged, and a 200-byte budget puts one red group per tile.
    import polyham.neighbors as neighbors
    from polyham.neighbors import _poly_close_pair

    rng = np.random.default_rng(8)
    real = neighbors._pattern_flags
    cases = [(s, d, 2 * s + 1, 3 * s - 1, None) for s, d in ((1, 6), (2, 5), (3, 4), (17, 2))]
    cases += [(s, d, 4 * s + 3, 2 * s + 1, 200) for s, d, *_ in cases]
    for s, d, n, m, budget in cases:
        red = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        blue = rng.integers(0, 2, size=(m, d)).astype(np.uint8)
        dist = (red[:, None, :] != blue[None, :, :]).sum(axis=2)
        ri = np.minimum(np.arange(-(-n // s))[:, None] * s + np.arange(s), n - 1)
        bj = np.minimum(np.arange(-(-m // s))[:, None] * s + np.arange(s), m - 1)
        member = dist[ri[:, None, :, None], bj[None, :, None, :]]  # (g, h, i, j)
        packed = [
            pack_vectors([BitVector.from_string("".join(map(str, row))) for row in side], d)
            for side in (red, blue)
        ]
        for k in range(d):
            patterns = []
            with monkeypatch.context() as mp:
                if budget is not None:
                    mp.setattr(neighbors, "DISTANCE_BUDGET_BYTES", budget)
                mp.setattr(neighbors, "_pattern_flags",
                           lambda p, *a: patterns.append(p) or real(p, *a))
                _poly_close_pair(*packed, d, k, s, 3, np.random.default_rng(k))
            assert len(patterns) == (1 if budget is None else len(ri))
            bits = np.unpackbits(np.concatenate(patterns), axis=2, bitorder="little")
            want = (member >= k + 1).reshape(len(ri), len(bj), s * s)
            np.testing.assert_array_equal(bits[..., : s * s], want)
            assert not bits[..., s * s :].any()


# ---------------------------------------------------------------------------
# batch nearest neighbors
# ---------------------------------------------------------------------------


def test_batch_nn_examples():
    v = BitVector.from_string("000")
    res = batch_nn([v], [v], BRUTE_CFG)
    assert res.entries == ((0, 0, 0),)
    db = [BitVector.from_string("0000"), BitVector.from_string("1111")]
    queries = [BitVector.from_string("0001"), BitVector.from_string("1110")]
    res = batch_nn(db, queries, BRUTE_CFG)
    assert res.entries == ((0, 0, 1), (1, 1, 1))


def test_batch_nn_empty_db_rejected():
    with pytest.raises(EmptyInputError):
        batch_nn([], [BitVector.zeros(3)], BRUTE_CFG)


def test_batch_nn_no_queries():
    res = batch_nn([BitVector.zeros(3)], [], BRUTE_CFG)
    assert res.entries == ()


def test_batch_nn_fallback_equals_oracle():
    rng = np.random.default_rng(8)
    for n, d in [(64, 16), (100, 11), (37, 24)]:
        db = [BitVector.random(rng, d) for _ in range(n)]
        queries = [BitVector.random(rng, d) for _ in range(n - 5)]
        res = batch_nn(db, queries, BRUTE_CFG, np.random.default_rng(0))
        assert res.entries == batch_nn_bruteforce(db, queries).entries
        assert res.meta["mode"] == "exact"


def test_batch_nn_distance_at_dim_gets_witness():
    q = BitVector.from_string("1010")
    res = batch_nn([complement(q)], [q], BRUTE_CFG)
    assert res.entries == ((0, 0, 4),)


def test_batch_nn_poly_mode_matches_oracle_whp():
    # per-query agreement; whole-run agreement would need the full
    # ceil(10*log2 n) amplification, which is slow for a unit test
    total = match = 0
    for seed in range(15):
        rng = np.random.default_rng(seed)
        db = [BitVector.random(rng, 5) for _ in range(16)]
        queries = [BitVector.random(rng, 5) for _ in range(16)]
        res = batch_nn(db, queries, ClosestPairConfig(s=1, rounds=9), np.random.default_rng(seed))
        assert res.meta["mode"] == "poly"
        want = batch_nn_bruteforce(db, queries)
        # soundness of every reported entry, unconditionally
        for (q, i, dist) in res.entries:
            assert hamming_distance(db[i], queries[q]) == dist
            assert dist >= want.entries[q][2]
        total += len(res.entries)
        match += sum(a[2] == b[2] for a, b in zip(res.entries, want.entries))
    assert match >= 0.95 * total


def test_batch_nn_reported_distance_is_pair_distance():
    rng = np.random.default_rng(9)
    db = [BitVector.random(rng, 7) for _ in range(30)]
    queries = [BitVector.random(rng, 7) for _ in range(30)]
    res = batch_nn(db, queries, BRUTE_CFG)
    for (q, i, dist) in res.entries:
        assert hamming_distance(db[i], queries[q]) == dist


def literal_batch_nn_exact(db, queries):
    """Reference: the level loop with one sequential exact oracle call at a
    time, retiring the found query and repeating until the call comes back
    empty.  The production fallback collapses this to column minima; the two
    must agree entry for entry, witnesses included."""
    import math as _math

    from polyham.neighbors import _brute_close_pair
    from polyham.vectors import pack_vectors

    dim = db[0].dim
    nd, nq = len(db), len(queries)
    n = max(nd, nq)
    s = max(1, _math.ceil(_math.sqrt(n)))
    db_packed = pack_vectors(db, dim)
    q_packed = pack_vectors(queries, dim)
    table = [dim] * nq
    witness = [-1] * nq
    db_groups = [list(range(g * s, min(nd, (g + 1) * s))) for g in range((nd + s - 1) // s)]
    q_groups = [list(range(g * s, min(nq, (g + 1) * s))) for g in range((nq + s - 1) // s)]
    for k in range(dim - 1, -1, -1):
        alive = [True] * nq
        for dgi in db_groups:
            rows = db_packed[dgi[0] : dgi[-1] + 1]
            for qgj in q_groups:
                while True:
                    act = [j for j in qgj if alive[j]]
                    if not act:
                        break
                    res = _brute_close_pair(rows, q_packed[act], k)
                    if res is None:
                        break
                    li, lj, dist = res
                    j = act[lj]
                    table[j] = dist
                    witness[j] = dgi[li]
                    alive[j] = False
    for j in range(nq):
        if witness[j] < 0:
            dmat = (db_packed[:, None, :] ^ q_packed[j][None, None, :])
            dists = np.bitwise_count(dmat).sum(axis=2)[:, 0]
            witness[j] = int(np.argmin(dists))
            table[j] = int(dists[witness[j]])
    return tuple((j, witness[j], table[j]) for j in range(nq))


def test_batch_nn_fallback_equals_literal_sequential_loop():
    rng = np.random.default_rng(11)
    for n, d in [(17, 6), (25, 8), (40, 7)]:
        db = [BitVector.random(rng, d) for _ in range(n)]
        queries = [BitVector.random(rng, d) for _ in range(n - 3)]
        got = batch_nn(db, queries, BRUTE_CFG)
        assert got.entries == literal_batch_nn_exact(db, queries)


def test_batch_nn_determinism():
    rng = np.random.default_rng(10)
    db = [BitVector.random(rng, 5) for _ in range(20)]
    queries = [BitVector.random(rng, 5) for _ in range(20)]
    cfg = ClosestPairConfig(s=1, rounds=5, seed=7)
    a = batch_nn(db, queries, cfg, np.random.default_rng(7))
    b = batch_nn(db, queries, cfg, np.random.default_rng(7))
    assert a.entries == b.entries


def test_pipeline_above_64_variables():
    # s=17, d=2 is 68 variables: two-word monomial masks end to end
    rng = np.random.default_rng(16)
    ds = even_odd_dataset(rng, 40, 2)
    cfg = ClosestPairConfig(s=17, rounds=5, monomial_budget=10**7)
    assert _plan(2, cfg)[:2] == (17, True)
    assert closest_pair(ds, cfg, np.random.default_rng(1)) == closest_pair_bruteforce(ds)
    # every pair is at distance 1, so the k=1 decision must find one
    found = bichromatic_close_pair(ds, 1, cfg, np.random.default_rng(2))
    assert found is not None
    assert hamming_distance(ds.red[found[0]], ds.blue[found[1]]) == 1


def spy(monkeypatch, module, name):
    """Wrap module.name so that every call appends to the returned list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def test_pipeline_never_expands_the_product(monkeypatch):
    # the pipeline evaluates the member block through block_masks and votes
    # from a table over the block patterns; f1*f2 has no expanded form
    import polyham.neighbors as neighbors

    calls = spy(monkeypatch, neighbors, "block_masks")
    rng = np.random.default_rng(20)
    ds = random_dataset(rng, 20, 4)
    assert _plan(4, ENGAGED_S2_CFG)[:2] == (2, True)
    assert closest_pair(ds, ENGAGED_S2_CFG, np.random.default_rng(1)) == closest_pair_bruteforce(ds)
    db, queries = list(ds.red[:12]), list(ds.blue[:12])
    res = batch_nn(db, queries, ENGAGED_S2_CFG, np.random.default_rng(2))
    assert res.meta["mode"] == "poly"
    assert res.entries == batch_nn_bruteforce(db, queries).entries
    assert calls


def test_pipeline_draws_rounds_polynomials_per_decision(monkeypatch):
    # benchmark probes and path gates count draws through this one name, so
    # a decision calls sample_hamming_poly exactly once; the coins of its
    # other rounds - 1 draws come from one call, and the decision must vote
    # with the coins of `rounds` draws and leave the generator where they
    # would leave it
    import polyham.neighbors as neighbors
    from polyham.hammingpoly import GroupPredicateSpec, sample_hamming_poly

    draws = spy(monkeypatch, neighbors, "sample_hamming_poly")
    tables = []
    table = neighbors._pattern_table
    monkeypatch.setattr(neighbors, "_pattern_table", lambda c, n: tables.append(c) or table(c, n))
    decide = neighbors._poly_close_pair
    checked = []

    def twin_checked(red, blue, dim, k, s, rounds, rng):
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        spec = GroupPredicateSpec(s, dim, k)
        want = [sample_hamming_poly(spec, twin).coins for _ in range(rounds)]
        res = decide(red, blue, dim, k, s, rounds, rng)
        assert rng.bit_generator.state == twin.bit_generator.state
        np.testing.assert_array_equal(tables[-1], np.packbits(want, axis=2, bitorder="little"))
        checked.append(rounds)
        return res

    monkeypatch.setattr(neighbors, "_poly_close_pair", twin_checked)
    ds = random_dataset(np.random.default_rng(21), 20, 4)
    closest_pair(ds, ENGAGED_S2_CFG, np.random.default_rng(1))
    batch_nn(list(ds.red[:12]), list(ds.blue[:12]), ENGAGED_S2_CFG, np.random.default_rng(2))
    assert checked == [ENGAGED_S2_CFG.rounds] * len(checked) and len(checked) > 1
    assert len(draws) == len(checked) == len(tables)


def test_block_polynomials_evaluated_once_per_decision(monkeypatch):
    # an exact inner circuit gives every draw the same block polynomial,
    # and every block pair is that polynomial on member pairs: one product
    # per decision tile, not one per block or per factor per draw
    import polyham.neighbors as neighbors

    decisions = spy(monkeypatch, neighbors, "_poly_close_pair")
    products = spy(monkeypatch, neighbors, "eval_sides")
    ds = random_dataset(np.random.default_rng(22), 20, 4)
    assert closest_pair(ds, ENGAGED_S2_CFG, np.random.default_rng(1)) == closest_pair_bruteforce(ds)
    assert decisions and len(products) == len(decisions)


def test_plan_refuses_what_the_blocks_cannot_build(monkeypatch):
    # a budget that fits the block rows does not engage where the block
    # cannot be built: at d = 33 a row of 2d bits does not fit one word.
    # The plan says why, and closest pair scans exactly without a draw.
    import polyham.neighbors as neighbors

    d = 33
    cfg = ClosestPairConfig(s=1, rounds=9, monomial_budget=3**d)
    s, engaged, reason = _plan(d, cfg)
    assert (s, engaged) == (1, False)
    assert reason.endswith(f"block rows <= budget {3**d}; 2d = {2 * d} bits do not fit "
                           "a 64-bit block row")
    assert pipeline_info(6, d, cfg)["reason"] == reason
    ds = random_dataset(np.random.default_rng(25), 6, d)
    want = closest_pair_bruteforce(ds)
    draws = spy(monkeypatch, neighbors, "sample_hamming_poly")
    brute = spy(monkeypatch, neighbors, "_brute_close_pair")
    assert closest_pair(ds, cfg, np.random.default_rng(4)) == want
    assert brute and not draws
    # d = 32 still engages with a budget that fits
    assert _plan(32, ClosestPairConfig(s=1, monomial_budget=3**32))[:2] == (1, True)


def test_budget_fallback_still_fires(monkeypatch):
    # one row short of the s^2 block rows, the plan falls back to the exact
    # scan before any draw, and closest pair and batch NN both say so
    import polyham.neighbors as neighbors
    from polyham.hammingpoly import block_rows

    d = 4
    cfg = ClosestPairConfig(s=2, rounds=9, monomial_budget=block_rows(2, d) - 1)
    s, engaged, reason = _plan(d, cfg)
    assert (s, engaged) == (2, False)
    assert f"block rows > budget {block_rows(2, d) - 1}" in reason
    assert _plan(d, ClosestPairConfig(s=2, monomial_budget=block_rows(2, d)))[:2] == (2, True)
    ds = random_dataset(np.random.default_rng(23), 20, d)
    want = closest_pair_bruteforce(ds)
    draws = spy(monkeypatch, neighbors, "sample_hamming_poly")
    decisions = spy(monkeypatch, neighbors, "_poly_close_pair")
    assert closest_pair(ds, cfg, np.random.default_rng(1)) == want
    db, queries = list(ds.red[:12]), list(ds.blue[:12])
    res = batch_nn(db, queries, cfg, np.random.default_rng(2))
    assert res.meta["mode"] == "exact" and res.meta["reason"] == reason
    assert res.meta["decisions"] == 0
    assert res.entries == batch_nn_bruteforce(db, queries).entries
    assert not draws and not decisions


def test_sampled_inner_draw_falls_back_and_counts(monkeypatch):
    # at d = 2,400 the inner threshold is sampled and 2d bits do not fit a
    # block row: even a budget past the block rows falls back to the exact
    # scan without a draw, and batch NN counts no decisions
    import polyham.neighbors as neighbors

    d = 2400
    cfg = ClosestPairConfig(s=1, rounds=9, monomial_budget=3**d)
    s, engaged, reason = _plan(d, cfg)
    assert (s, engaged) == (1, False)
    assert reason.endswith(f"2d = {2 * d} bits do not fit a 64-bit block row")
    ds = random_dataset(np.random.default_rng(25), 6, d)
    draws = spy(monkeypatch, neighbors, "sample_hamming_poly")
    brute = spy(monkeypatch, neighbors, "_brute_close_pair")
    assert closest_pair(ds, cfg, np.random.default_rng(4)) == closest_pair_bruteforce(ds)
    assert brute and not draws
    db, queries = list(ds.red), list(ds.blue)
    res = batch_nn(db, queries, cfg, np.random.default_rng(5))
    assert res.meta["mode"] == "exact" and res.meta["decisions"] == 0
    assert res.meta["unmatched_scans"] == 0
    assert res.entries == batch_nn_bruteforce(db, queries).entries
    assert not draws


def test_admitted_block_past_the_matrix_default_runs():
    # the plan is the one admission rule: at d = 13 the block has
    # 3^13 - 1 rows, past paireval's default monomial budget, and a config
    # whose budget admits it runs the decision
    d = 13
    cfg = ClosestPairConfig(s=1, rounds=3, monomial_budget=3**d)
    assert _plan(d, cfg)[:2] == (1, True)
    ds = even_odd_dataset(np.random.default_rng(29), 5, d)
    assert bichromatic_close_pair(ds, 0, cfg, np.random.default_rng(1)) is None


def test_batch_nn_reports_decisions(monkeypatch):
    import polyham.neighbors as neighbors

    decisions = spy(monkeypatch, neighbors, "_poly_close_pair")
    ds = random_dataset(np.random.default_rng(24), 12, 4)
    res = batch_nn(list(ds.red), list(ds.blue), ENGAGED_S2_CFG, np.random.default_rng(3))
    assert res.meta["mode"] == "poly"
    assert res.meta["decisions"] == len(decisions) > 0
    res = batch_nn(list(ds.red), list(ds.blue), BRUTE_CFG)
    assert res.meta["decisions"] == 0


def test_batch_makes_one_decision_per_level_over_the_unmatched(monkeypatch):
    # the walk goes up from k = 0; each decision's sides are the whole
    # database and exactly the queries no earlier decision matched, and a
    # query at distance d from every database vector is left to the scan
    import polyham.neighbors as neighbors

    decide = neighbors._poly_close_pair
    d = 4
    zeros, ones = BitVector.zeros(d), BitVector(d, (1 << d) - 1)
    ds = random_dataset(np.random.default_rng(32), 20, d)
    for db, queries, scans in (
        (list(ds.red[:13]), list(ds.blue[:17]), 0),
        ([zeros] * 3, [ones, zeros, BitVector(d, 2), ones], 2),
    ):
        calls = []
        monkeypatch.setattr(neighbors, "_poly_close_pair", lambda *a: calls.append(a) or decide(*a))
        res = batch_nn(db, queries, ENGAGED_S2_CFG, np.random.default_rng(4))
        assert res.meta["mode"] == "poly"
        assert res.meta["decisions"] == len(calls)
        assert res.meta["unmatched_scans"] == scans
        assert res.entries == batch_nn_bruteforce(db, queries).entries
        left = list(range(len(queries)))
        twin = np.random.default_rng(4)
        for level, (red, blue, dim, k, s, rounds, _) in enumerate(calls):
            assert (dim, k, s, rounds) == (d, level, 2, ENGAGED_S2_CFG.rounds)
            np.testing.assert_array_equal(red, pack_vectors(db, d))
            np.testing.assert_array_equal(blue, pack_vectors([queries[j] for j in left], d))
            keys = decide(red, blue, dim, k, s, rounds, twin)
            left = [j for j, key in zip(left, keys.tolist()) if key == neighbors.NO_PAIR]
        assert len(left) == scans
        assert len(calls) == d if scans else len(calls) <= d


def test_batch_takes_each_querys_least_candidate(monkeypatch):
    # with every cell flagged, every member pair the exact block marks close
    # is a candidate, so each query must retire at its first level with its
    # least (distance, database index): the brute-force entry.  Sides are
    # ragged, and a 200-byte budget splits the tiles and candidate chunks.
    import polyham.neighbors as neighbors

    monkeypatch.setattr(neighbors, "_pattern_flags",
                        lambda pattern, *a: np.ones(pattern.shape[:2], dtype=bool))
    monkeypatch.setattr(neighbors, "DISTANCE_BUDGET_BYTES", 200)
    rng = np.random.default_rng(33)
    for s, d, n, m in ((1, 5, 7, 9), (2, 4, 9, 5), (3, 6, 10, 8), (2, 3, 11, 14)):
        db = [BitVector.random(rng, d) for _ in range(n)]
        queries = [BitVector.random(rng, d) for _ in range(m)]
        cfg = ClosestPairConfig(s=s, rounds=3)
        res = batch_nn(db, queries, cfg, np.random.default_rng(s))
        assert res.meta["mode"] == "poly" and res.meta["unmatched_scans"] == 0
        assert res.entries == batch_nn_bruteforce(db, queries).entries


def test_red_tiles_give_the_same_pair(monkeypatch):
    # a budget of a few hundred bytes splits a decision into one red group
    # per tile; the votes, flags and verified pair are those of one tile.
    # Reds are all ones and blues have weight <= 1, except one late red
    # planted at distance 1 from a blue, so a tile must keep its offset.
    import polyham.neighbors as neighbors
    from polyham.neighbors import _least_pair, _poly_close_pair

    rng = np.random.default_rng(26)
    for s, d in ((1, 6), (2, 4), (17, 2)):
        ones = BitVector(d, (1 << d) - 1)
        blue = tuple(BitVector(d, int(1 << rng.integers(d)) if rng.integers(2) else 0)
                     for _ in range(33))
        red = [ones] * 40
        red[37] = BitVector(d, blue[20].bits ^ (1 << int(rng.integers(d))))
        packed = pack_vectors(red, d), pack_vectors(blue, d)
        for k in range(2):
            args = (*packed, d, k, s, 9)
            with monkeypatch.context() as m:
                products = spy(m, neighbors, "eval_sides")
                one_tile = _least_pair(_poly_close_pair(*args, np.random.default_rng(k)), 40)
            assert len(products) == 1
            with monkeypatch.context() as m:
                m.setattr(neighbors, "DISTANCE_BUDGET_BYTES", 200)
                products = spy(m, neighbors, "eval_sides")
                tiled = _least_pair(_poly_close_pair(*args, np.random.default_rng(k)), 40)
            assert len(products) == -(-len(red) // s)  # one product per tile
            assert tiled == one_tile
            if k == 1:
                assert one_tile[0] == 37 and one_tile[2] <= 1


def test_verification_never_trusts_the_product(monkeypatch):
    # with every cell flagged and every member value 0, every member pair is
    # a candidate, so only the recomputed distances can decide: the decision
    # is the brute-force best pair within k, or None.  Sides are ragged, and
    # a 200-byte budget splits the tiles and the candidate chunks.
    import polyham.neighbors as neighbors
    from polyham.neighbors import _brute_close_pair, _least_pair, _poly_close_pair

    monkeypatch.setattr(neighbors, "_pattern_flags",
                        lambda pattern, *a: np.ones(pattern.shape[:2], dtype=bool))
    monkeypatch.setattr(neighbors, "eval_sides",
                        lambda masks, sides: np.zeros((len(sides[0]), len(sides[1])), np.uint8))
    rng = np.random.default_rng(31)
    for s, d, n, m in ((1, 5, 7, 9), (2, 4, 7, 5), (3, 6, 10, 8)):
        red = pack_vectors([BitVector.random(rng, d) for _ in range(n)], d)
        blue = pack_vectors([BitVector.random(rng, d) for _ in range(m)], d)
        for budget in (None, 200):
            with monkeypatch.context() as mp:
                if budget is not None:
                    mp.setattr(neighbors, "DISTANCE_BUDGET_BYTES", budget)
                verified = spy(mp, neighbors, "packed_distance_matrix")
                for k in range(d):
                    keys = _poly_close_pair(red, blue, d, k, s, 3, np.random.default_rng(k))
                    got = _least_pair(keys, n)
                    assert got == _brute_close_pair(red, blue, k)
            if budget is None:
                assert len(verified) == d  # one tile, one chunk of candidates
            else:
                assert len(verified) > d * -(-n // s)  # a tile per red group, split


@pytest.mark.parametrize("s, n, k", [(1, 2048, 0), (2, 1024, 3)])
def test_decision_memory_is_bounded_by_the_budget(s, n, k):
    # the whole-matrix vote held about 13 bytes per group-pair cell: 6.4 to
    # 6.7 budgets here; tiles keep a decision within two budgets, also at
    # d = 4, k = 3, where nearly every group pair is flagged and verified
    import tracemalloc

    from polyham.neighbors import _least_pair, _poly_close_pair
    from polyham.vectors import DISTANCE_BUDGET_BYTES

    d = 4
    ds = random_dataset(np.random.default_rng(27), n, d)
    red, blue = pack_vectors(ds.red, d), pack_vectors(ds.blue, d)
    args = (red, blue, d, k, s, 9)
    _poly_close_pair(red[:8], blue[:8], d, k, s, 9, np.random.default_rng(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keys = _poly_close_pair(*args, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    got = _least_pair(keys, n)
    assert got is not None and got[2] <= k
    assert peak < 2 * DISTANCE_BUDGET_BYTES
