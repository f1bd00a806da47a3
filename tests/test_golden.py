"""Exact answers of the polynomial pipeline on small seeded instances.

The expected values were recorded from the solvers before the decision
voted from a pattern table.  The pipeline is randomized, so these pins hold
only while the rng stream and every vote stay the same; a change that
claims the same answers must keep them.
"""

import numpy as np
import pytest

from polyham import BitVector, ClosestPairConfig, Dataset
from polyham.neighbors import (
    batch_nn,
    batch_nn_bruteforce,
    bichromatic_close_pair,
    closest_pair,
    pipeline_info,
)
from polyham.reductions import furthest_pair

# name: (s, d, reds, blues, data seed, recorded answers)
GOLDEN = {
    "s1-d6": (1, 6, 30, 30, 501, {
        "closest": (0, 8, 0),
        "furthest": (2, 25, 6),
        "nn": ((0, 0, 1), (1, 10, 0), (2, 0, 1), (3, 22, 1), (4, 6, 0), (5, 0, 1),
               (6, 9, 1), (7, 23, 0), (8, 0, 0), (9, 0, 1), (10, 3, 1), (11, 1, 0),
               (12, 0, 0), (13, 0, 1), (14, 22, 0), (15, 3, 1), (16, 8, 0), (17, 22, 1),
               (18, 7, 1), (19, 26, 0), (20, 16, 1), (21, 8, 0), (22, 8, 1), (23, 9, 1),
               (24, 9, 1), (25, 4, 1), (26, 26, 0), (27, 3, 1), (28, 0, 1), (29, 12, 1)),
        "close": ((0, 8), (0, 8), (0, 8)),
    }),
    "s1-d6-small": (1, 6, 10, 9, 505, {
        "closest": (0, 2, 1),
        "furthest": (0, 4, 6),
        "nn": ((0, 3, 1), (1, 4, 3), (2, 0, 1), (3, 9, 1), (4, 6, 1), (5, 2, 2),
               (6, 9, 2), (7, 1, 2), (8, 3, 1)),
        "close": (None, (0, 2), (0, 2)),
    }),
    "s2-d4": (2, 4, 25, 20, 503, {
        "closest": (1, 16, 0),
        "furthest": (0, 5, 4),
        "nn": ((0, 2, 0), (1, 1, 1), (2, 0, 1), (3, 5, 0), (4, 2, 0), (5, 14, 0),
               (6, 4, 0), (7, 0, 1), (8, 7, 0), (9, 6, 0), (10, 0, 1), (11, 20, 0),
               (12, 2, 1), (13, 8, 0), (14, 9, 0), (15, 0, 1), (16, 1, 0), (17, 4, 0),
               (18, 14, 0), (19, 8, 0)),
        "close": ((1, 16), (1, 16), (1, 16)),
    }),
    "s2-d5-small": (2, 5, 9, 11, 506, {
        "closest": (1, 6, 0),
        "furthest": (0, 2, 5),
        "nn": ((0, 0, 2), (1, 0, 1), (2, 3, 1), (3, 6, 0), (4, 3, 0), (5, 3, 0),
               (6, 1, 0), (7, 0, 2), (8, 0, 2), (9, 1, 1), (10, 0, 1)),
        "close": ((1, 6), (1, 6), (1, 6)),
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_answers_are_pinned(name):
    s, d, n_red, n_blue, seed, want = GOLDEN[name]
    rng = np.random.default_rng(seed)
    ds = Dataset(
        d,
        tuple(BitVector.random(rng, d) for _ in range(n_red)),
        tuple(BitVector.random(rng, d) for _ in range(n_blue)),
    )
    cfg = ClosestPairConfig(s=s, rounds=9)
    assert pipeline_info(max(n_red, n_blue), d, cfg)["engaged"]

    def op_rng():
        return np.random.default_rng(seed + 1000)

    assert closest_pair(ds, cfg, op_rng()) == want["closest"]
    assert furthest_pair(ds, cfg, op_rng()) == want["furthest"]
    res = batch_nn(ds.red, ds.blue, cfg, op_rng())
    assert res.meta["mode"] == "poly" and res.entries == want["nn"]
    close = tuple(bichromatic_close_pair(ds, k, cfg, op_rng()) for k in (0, 1, 2))
    assert close == want["close"]


# (s, d, reds, blues, data seed): ragged sides at every engaged group size,
# and one default config on three words a row, which the plan scans exactly
DIGEST_CASES = (
    (1, 6, 23, 17, 601),
    (2, 4, 19, 26, 602),
    (2, 5, 9, 4, 603),
    (3, 4, 14, 11, 604),
    (3, 5, 7, 16, 607),
    (5, 3, 12, 13, 605),
    (5, 4, 26, 11, 608),
    ("auto", 130, 21, 18, 606),
)
# the pair answers, recorded before a decision drew its coins in one call
PAIRS_DIGEST = "d4d5cc4e124f253f8634ab2ae675112f2c0b407935f06dfd1405521dccd31ff3"
# the batch answers, recorded when a batch made one decision per distance level
BATCH_DIGEST = "320922444b5b6d2ba6e60dcaab687331f2691af4b92150276f1e0acfe2507365"


def _random_dataset(d, n_red, n_blue, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        d,
        tuple(BitVector.random(rng, d) for _ in range(n_red)),
        tuple(BitVector.random(rng, d) for _ in range(n_blue)),
    )


def _digest_cases():
    """(engaged, dataset, config, op seed) of every DIGEST_CASES case."""
    for s, d, n_red, n_blue, seed in DIGEST_CASES:
        ds = _random_dataset(d, n_red, n_blue, seed)
        cfg = ClosestPairConfig(s=s, rounds=7)
        engaged = pipeline_info(max(n_red, n_blue), d, cfg)["engaged"]
        assert engaged == (s != "auto")
        yield engaged, ds, cfg, seed + 1000


def _digest(answers) -> str:
    import hashlib

    return hashlib.sha256(repr(answers).encode()).hexdigest()


def test_pipeline_answer_digest():
    pairs, batches = [], []
    for _, ds, cfg, op_seed in _digest_cases():

        def op_rng():
            return np.random.default_rng(op_seed)

        pairs.append((
            closest_pair(ds, cfg, op_rng()),
            furthest_pair(ds, cfg, op_rng()),
            tuple(bichromatic_close_pair(ds, k, cfg, op_rng()) for k in (0, 1, 2)),
        ))
        batches.append(batch_nn(ds.red, ds.blue, cfg, op_rng()).entries)
    assert _digest(pairs) == PAIRS_DIGEST
    assert _digest(batches) == BATCH_DIGEST


def _engaged_batch_cases():
    for s, d, n_red, n_blue, seed, _ in GOLDEN.values():
        ds = _random_dataset(d, n_red, n_blue, seed)
        yield ds, ClosestPairConfig(s=s, rounds=9), seed + 1000
    for engaged, ds, cfg, op_seed in _digest_cases():
        if engaged:
            yield ds, cfg, op_seed


def test_batch_answers_equal_the_oracle():
    # the witness too: a matched query keeps its least (distance, database
    # index) among the verified candidates, the brute-force tie rule
    for ds, cfg, op_seed in _engaged_batch_cases():
        res = batch_nn(ds.red, ds.blue, cfg, np.random.default_rng(op_seed))
        assert res.meta["mode"] == "poly"
        assert res.entries == batch_nn_bruteforce(ds.red, ds.blue).entries


# (s, d, reds, blues, data seed, zero rows): ragged sides; with zero rows
# (a, b), every a-th red and every b-th blue from the a-th and b-th on is
# the zero vector (0: none), so weight-0 buckets meet the other side's
# buckets.  The l1 instances are unary codes of bound 2 in dimension 3.
REDUCTION_CASES = (
    ("auto", 6, 13, 9, 701, (3, 4)),
    ("auto", 70, 8, 11, 702, (0, 0)),
    (1, 5, 11, 14, 703, (3, 0)),
    (1, 6, 6, 17, 704, (0, 0)),
    (1, 8, 10, 12, 707, (0, 0)),
    (2, 4, 15, 10, 705, (0, 4)),
    (2, 5, 9, 7, 706, (3, 4)),
)
# the answers of the Hamming reductions (every call but l1), with their
# trailing draws, recorded before the reductions walked their weight
# buckets in one generator
HAMMING_REDUCTIONS_DIGEST = "d78c51e5ed9ad915638dfbedc08a7c737f05ae393c3bffb34679b1782671d701"
# the l1 batch answers with their trailing draws, recorded when a batch made
# one decision per distance level
L1_REDUCTIONS_DIGEST = "7951c32d5a233ab3739c6ec819ac5bc897987639f08bd25844842374180a21f1"


def _reduction_answers():
    """(Hamming reduction answers, l1 batch answers), each with the draw
    that follows it."""
    from polyham.reductions import (
        IntVector,
        extreme_inner_product,
        find_orthogonal_pair,
        l1_batch_nn,
        max_jaccard_pair,
    )

    hamming, l1 = [], []
    for s, d, n_red, n_blue, seed, (red_zeros, blue_zeros) in REDUCTION_CASES:
        rng = np.random.default_rng(seed)

        def side(n, every):
            return tuple(
                BitVector.zeros(d) if every and i % every == every - 1 else BitVector.random(rng, d)
                for i in range(n)
            )

        ds = Dataset(d, side(n_red, red_zeros), side(n_blue, blue_zeros))
        db = [IntVector(tuple(int(e) for e in rng.integers(0, 3, 3)), 2) for _ in range(n_red)]
        queries = [IntVector((0, 0, 0), 2)] + db[1::2]
        cfg = ClosestPairConfig(s=s, rounds=7)

        calls = (
            (hamming, lambda r: extreme_inner_product(ds, "max", cfg, r)),
            (hamming, lambda r: extreme_inner_product(ds, "min", cfg, r)),
            (hamming, lambda r: find_orthogonal_pair(ds, cfg, r)),
            (hamming, lambda r: max_jaccard_pair(ds, cfg, r)),
            (l1, lambda r: l1_batch_nn(db, queries, cfg, r).entries),
        )
        for answers, call in calls:
            op_rng = np.random.default_rng(seed + 1000)
            # the trailing draw pins how much of the stream the call took
            answers.append((call(op_rng), int(op_rng.integers(1 << 62))))
    return hamming, l1


def test_reductions_answer_digest():
    hamming, l1 = _reduction_answers()
    assert _digest(hamming) == HAMMING_REDUCTIONS_DIGEST
    assert _digest(l1) == L1_REDUCTIONS_DIGEST
