from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from polyham.errors import EmptyInputError, InvalidParametersError, ParseError, VerificationError
from polyham.neighbors import ClosestPairConfig
from polyham.reductions import (
    IntVector,
    dump_int_vectors,
    extreme_inner_product,
    extreme_inner_product_bruteforce,
    find_orthogonal_pair,
    furthest_pair,
    furthest_pair_bruteforce,
    jaccard_coefficient,
    l1_batch_nn,
    l1_batch_nn_bruteforce,
    l1_distance,
    load_int_vectors,
    max_jaccard_bruteforce,
    max_jaccard_pair,
    unary_encode,
)
from polyham.vectors import BitVector, Dataset, complement, hamming_distance

BRUTE_CFG = ClosestPairConfig(monomial_budget=0)
ENGAGED_CFG = ClosestPairConfig(s=1, rounds=9)


def bv(s):
    return BitVector.from_string(s)


# ---------------------------------------------------------------------------
# unary encoding
# ---------------------------------------------------------------------------


def test_unary_encode_examples():
    assert unary_encode(IntVector((2, 0), 3)).to_string() == "110000"
    x, y = IntVector((2, 0), 3), IntVector((0, 1), 3)
    assert hamming_distance(unary_encode(x), unary_encode(y)) == 3
    # m = 1 is the identity on bit vectors
    b = IntVector((1, 0, 1), 1)
    assert unary_encode(b).to_string() == "101"


def test_unary_rejects_out_of_range():
    with pytest.raises(InvalidParametersError):
        IntVector((4,), 3)
    with pytest.raises(InvalidParametersError):
        IntVector((-1,), 3)


def test_unary_identity_exhaustive_small():
    for dim in (1, 2, 3):
        for m in (1, 2, 3):
            for xs in product(range(m + 1), repeat=dim):
                for ys in product(range(m + 1), repeat=dim):
                    x, y = IntVector(xs, m), IntVector(ys, m)
                    assert hamming_distance(unary_encode(x), unary_encode(y)) == l1_distance(x, y)


def test_unary_identity_randomized_bulk():
    rng = np.random.default_rng(0)
    m, dim = 5, 9
    xs = rng.integers(0, m + 1, size=(10_000, dim))
    ys = rng.integers(0, m + 1, size=(10_000, dim))
    l1 = np.abs(xs - ys).sum(axis=1)
    for i in rng.integers(0, 10_000, size=150):
        x = IntVector(tuple(int(v) for v in xs[i]), m)
        y = IntVector(tuple(int(v) for v in ys[i]), m)
        assert hamming_distance(unary_encode(x), unary_encode(y)) == int(l1[i])
    assert np.array_equal(l1, np.abs(xs - ys).sum(axis=1))


# ---------------------------------------------------------------------------
# l1 batch NN
# ---------------------------------------------------------------------------


def test_l1_batch_nn_examples():
    db = [IntVector((0, 0), 3)]
    queries = [IntVector((3, 2), 3)]
    res = l1_batch_nn(db, queries, BRUTE_CFG)
    assert res.entries == ((0, 0, 5),)
    assert res.meta["metric"] == "l1"


def test_l1_batch_nn_matches_oracle():
    rng = np.random.default_rng(1)
    for seed in range(15):
        m, dim = 4, 5
        db = [IntVector(tuple(int(v) for v in rng.integers(0, m + 1, dim)), m) for _ in range(40)]
        queries = [IntVector(tuple(int(v) for v in rng.integers(0, m + 1, dim)), m) for _ in range(40)]
        got = l1_batch_nn(db, queries, BRUTE_CFG, np.random.default_rng(seed))
        want = l1_batch_nn_bruteforce(db, queries)
        assert got.entries == want.entries


def test_l1_m1_equals_hamming():
    from polyham.neighbors import batch_nn

    rng = np.random.default_rng(2)
    db_bits = [BitVector.random(rng, 6) for _ in range(20)]
    queries_bits = [BitVector.random(rng, 6) for _ in range(20)]
    db = [IntVector(tuple(v), 1) for v in db_bits]
    queries = [IntVector(tuple(v), 1) for v in queries_bits]
    got = l1_batch_nn(db, queries, BRUTE_CFG, np.random.default_rng(3))
    want = batch_nn(db_bits, queries_bits, BRUTE_CFG, np.random.default_rng(3))
    assert got.entries == want.entries


def test_l1_mixed_bounds_rejected():
    with pytest.raises(InvalidParametersError):
        l1_batch_nn([IntVector((1,), 2)], [IntVector((1,), 3)], BRUTE_CFG)
    with pytest.raises(EmptyInputError):
        l1_batch_nn([], [IntVector((1,), 2)], BRUTE_CFG)


# ---------------------------------------------------------------------------
# furthest pair
# ---------------------------------------------------------------------------


def test_furthest_pair_examples():
    z = bv("000")
    assert furthest_pair(Dataset.from_lists([z], [z]), BRUTE_CFG) == (0, 0, 0)
    ds = Dataset.from_lists([bv("00")], [bv("00"), bv("11")])
    assert furthest_pair(ds, BRUTE_CFG) == (0, 1, 2)


def test_furthest_closest_complement_identity():
    from polyham.neighbors import closest_pair

    rng = np.random.default_rng(3)
    for _ in range(10):
        d = 8
        ds = Dataset(
            d,
            tuple(BitVector.random(rng, d) for _ in range(12)),
            tuple(BitVector.random(rng, d) for _ in range(12)),
        )
        flipped = Dataset(d, ds.red, tuple(complement(v) for v in ds.blue))
        _, _, fdist = furthest_pair(ds, BRUTE_CFG)
        _, _, cdist = closest_pair(flipped, BRUTE_CFG)
        assert fdist + cdist == d


def test_furthest_pair_wrong_witness_raises(monkeypatch):
    ds = Dataset.from_lists(
        [BitVector.from_string("000"), BitVector.from_string("111")],
        [BitVector.from_string("000")],
    )
    # red 0 is at distance 0, but the claimed complemented distance 0 means 3
    monkeypatch.setattr("polyham.reductions._closest_pair_packed", lambda *args: (0, 0, 0))
    with pytest.raises(VerificationError):
        furthest_pair(ds, BRUTE_CFG)


def test_bucket_winner_with_a_wrong_distance_raises(monkeypatch):
    ds = Dataset.from_lists([bv("110")], [bv("011")])
    # the one bucket's pair is at distance 2: in max mode the claimed 3 is
    # wrong, and in min mode the complemented 3 claims distance 0
    monkeypatch.setattr("polyham.reductions._closest_pair_packed", lambda *args: (0, 0, 3))
    for solve in (
        lambda: extreme_inner_product(ds, "max", BRUTE_CFG),
        lambda: extreme_inner_product(ds, "min", BRUTE_CFG),
        lambda: max_jaccard_pair(ds, BRUTE_CFG),
    ):
        with pytest.raises(VerificationError):
            solve()


def test_furthest_pair_matches_oracle():
    # the blues are complemented on packed words: 65 and 130 end in a
    # partial word, 130 has three
    rng = np.random.default_rng(4)
    for d, seed in [(9, seed) for seed in range(20)] + [(64, 0), (65, 1), (130, 2), (130, 3)]:
        ds = Dataset(
            d,
            tuple(BitVector.random(rng, d) for _ in range(25)),
            tuple(BitVector.random(rng, d) for _ in range(25)),
        )
        assert furthest_pair(ds, BRUTE_CFG, np.random.default_rng(seed)) == furthest_pair_bruteforce(ds)


# ---------------------------------------------------------------------------
# inner product extremes
# ---------------------------------------------------------------------------


def test_extreme_ip_examples():
    ds = Dataset.from_lists([bv("110")], [bv("101")])
    assert extreme_inner_product(ds, "max", BRUTE_CFG) == (0, 0, 1)
    assert extreme_inner_product(ds, "min", BRUTE_CFG) == (0, 0, 1)
    ds = Dataset.from_lists([bv("111"), bv("100")], [bv("011")])
    assert extreme_inner_product(ds, "max", BRUTE_CFG) == (0, 0, 2)
    assert extreme_inner_product(ds, "min", BRUTE_CFG) == (1, 0, 0)


def test_extreme_ip_mode_validation():
    ds = Dataset.from_lists([bv("1")], [bv("1")])
    with pytest.raises(InvalidParametersError):
        extreme_inner_product(ds, "median", BRUTE_CFG)


def test_extreme_ip_matches_oracle():
    rng = np.random.default_rng(5)
    for seed in range(20):
        ds = Dataset(
            8,
            tuple(BitVector.random(rng, 8) for _ in range(20)),
            tuple(BitVector.random(rng, 8) for _ in range(20)),
        )
        for mode in ("min", "max"):
            got = extreme_inner_product(ds, mode, BRUTE_CFG, np.random.default_rng(seed))
            assert got == extreme_inner_product_bruteforce(ds, mode)


def test_bucket_identity_argmin_h_is_argmax_ip():
    # within fixed weights, distance and inner product determine each other
    rng = np.random.default_rng(6)
    d = 7
    red = [v for v in (BitVector.random(rng, d) for _ in range(60)) if v.weight() == 3][:6]
    blue = [v for v in (BitVector.random(rng, d) for _ in range(60)) if v.weight() == 4][:6]
    if len(red) < 2 or len(blue) < 2:
        pytest.skip("not enough fixed-weight samples")
    pairs = [(i, j) for i in range(len(red)) for j in range(len(blue))]
    by_h = min(pairs, key=lambda p: (hamming_distance(red[p[0]], blue[p[1]]), p))
    from polyham.vectors import inner_product

    by_ip = max(pairs, key=lambda p: (inner_product(red[p[0]], blue[p[1]]), [-x for x in p]))
    assert by_h == by_ip


# ---------------------------------------------------------------------------
# orthogonal vectors
# ---------------------------------------------------------------------------


def test_orthogonal_examples():
    assert find_orthogonal_pair(Dataset.from_lists([bv("10")], [bv("01")]), BRUTE_CFG) == (0, 0)
    ds = Dataset.from_lists([bv("11")], [bv("11"), bv("10")])
    assert find_orthogonal_pair(ds, BRUTE_CFG) is None
    ds = Dataset.from_lists([bv("000")], [bv("111")])
    assert find_orthogonal_pair(ds, BRUTE_CFG) == (0, 0)


def test_orthogonal_matches_bruteforce_existence():
    rng = np.random.default_rng(7)
    for seed in range(25):
        ds = Dataset(
            6,
            tuple(BitVector.random(rng, 6) for _ in range(15)),
            tuple(BitVector.random(rng, 6) for _ in range(15)),
        )
        _, _, min_ip = extreme_inner_product_bruteforce(ds, "min")
        got = find_orthogonal_pair(ds, BRUTE_CFG, np.random.default_rng(seed))
        assert (got is not None) == (min_ip == 0)
        if got is not None:
            from polyham.vectors import inner_product

            assert inner_product(ds.red[got[0]], ds.blue[got[1]]) == 0


# ---------------------------------------------------------------------------
# Jaccard
# ---------------------------------------------------------------------------


def test_jaccard_examples():
    # sets {1,2} and {2,3} over three elements
    ds = Dataset.from_lists([bv("110")], [bv("011")])
    assert max_jaccard_pair(ds, BRUTE_CFG) == (0, 0, Fraction(1, 3))
    v = bv("1010")
    assert max_jaccard_pair(Dataset.from_lists([v], [v]), BRUTE_CFG)[2] == 1


def test_jaccard_empty_empty_convention():
    z = bv("0000")
    assert jaccard_coefficient(z, z) == 1
    ds = Dataset.from_lists([z, bv("1000")], [z])
    assert max_jaccard_pair(ds, BRUTE_CFG) == (0, 0, Fraction(1))


def test_jaccard_monotone_in_ip_within_bucket():
    d1, d2 = 5, 7
    vals = [Fraction(ip, d1 + d2 - ip) for ip in range(0, min(d1, d2) + 1)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_jaccard_matches_oracle():
    rng = np.random.default_rng(8)
    for seed in range(25):
        ds = Dataset(
            7,
            tuple(BitVector.random(rng, 7) for _ in range(18)),
            tuple(BitVector.random(rng, 7) for _ in range(18)),
        )
        got = max_jaccard_pair(ds, BRUTE_CFG, np.random.default_rng(seed))
        assert got == max_jaccard_bruteforce(ds)


def test_bucketing_loses_nothing():
    # union of bucket-pair optima contains the unbucketed optimum
    rng = np.random.default_rng(9)
    for _ in range(10):
        ds = Dataset(
            6,
            tuple(BitVector.random(rng, 6) for _ in range(12)),
            tuple(BitVector.random(rng, 6) for _ in range(12)),
        )
        _, _, want = max_jaccard_bruteforce(ds)
        got = max_jaccard_pair(ds, BRUTE_CFG)
        assert got[2] == want


# ---------------------------------------------------------------------------
# engaged-pipeline differentials (small dimensions, polynomial path live)
# ---------------------------------------------------------------------------


def test_reductions_with_engaged_pipeline():
    rng = np.random.default_rng(10)
    agree = {"furthest": 0, "max": 0, "min": 0, "jaccard": 0}
    runs = 15
    for seed in range(runs):
        ds = Dataset(
            5,
            tuple(BitVector.random(rng, 5) for _ in range(14)),
            tuple(BitVector.random(rng, 5) for _ in range(14)),
        )
        mk = lambda off: np.random.default_rng(seed + off)
        agree["furthest"] += int(
            furthest_pair(ds, ENGAGED_CFG, mk(1)) == furthest_pair_bruteforce(ds)
        )
        agree["max"] += int(
            extreme_inner_product(ds, "max", ENGAGED_CFG, mk(2))
            == extreme_inner_product_bruteforce(ds, "max")
        )
        agree["min"] += int(
            extreme_inner_product(ds, "min", ENGAGED_CFG, mk(3))
            == extreme_inner_product_bruteforce(ds, "min")
        )
        agree["jaccard"] += int(
            max_jaccard_pair(ds, ENGAGED_CFG, mk(4)) == max_jaccard_bruteforce(ds)
        )
    for name, count in agree.items():
        assert count >= runs - 1, (name, count)


# ---------------------------------------------------------------------------
# bounded-integer file format
# ---------------------------------------------------------------------------


def test_int_vector_roundtrip():
    vecs = [IntVector((0, 3, 2), 3), IntVector((1, 1, 1), 3)]
    text = dump_int_vectors(vecs)
    assert text.splitlines()[0] == "m=3"
    assert load_int_vectors(text) == vecs


def test_int_vector_parse_errors():
    with pytest.raises(ParseError):
        load_int_vectors("1,2,3\n")  # row before header
    with pytest.raises(ParseError) as exc:
        load_int_vectors("m=3\n1,2\n1,2,3\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        load_int_vectors("m=3\n1,9\n")  # out of range
    with pytest.raises(ParseError):
        load_int_vectors("# nothing\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("m=+3\n1,2\n", 1),
        ("m=1_0\n1,2\n", 1),
        ("m=0x3\n1,2\n", 1),
        ("m=20\n1,2\n1_0,2\n", 3),
        ("m=3\n+1,2\n", 2),
        ("m=3\n1,-0\n", 2),
        ("m=3\n1,\n", 2),
    ],
)
def test_int_vectors_take_only_decimal_digits(text, line):
    # int() alone accepts a sign, underscores and surrounding spaces
    with pytest.raises(ParseError) as exc:
        load_int_vectors(text)
    assert exc.value.line == line


def test_int_vectors_allow_surrounding_spaces():
    assert load_int_vectors(" m= 3 \n 1 , 2 \n") == [IntVector((1, 2), 3)]
