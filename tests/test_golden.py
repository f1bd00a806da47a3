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
        "nn": ((0, 0, 1), (1, 10, 0), (2, 0, 1), (3, 1, 2), (4, 6, 0), (5, 7, 1),
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
# recorded before a decision drew its coins in one call
ANSWERS_DIGEST = "6a0434879c021adad7c7300f4f07c0b028162e5711055d28b72b68212b0e35c7"


def test_pipeline_answer_digest():
    import hashlib

    answers = []
    for s, d, n_red, n_blue, seed in DIGEST_CASES:
        rng = np.random.default_rng(seed)
        ds = Dataset(
            d,
            tuple(BitVector.random(rng, d) for _ in range(n_red)),
            tuple(BitVector.random(rng, d) for _ in range(n_blue)),
        )
        cfg = ClosestPairConfig(s=s, rounds=7)
        assert pipeline_info(max(n_red, n_blue), d, cfg)["engaged"] == (s != "auto")

        def op_rng():
            return np.random.default_rng(seed + 1000)

        answers.append((
            closest_pair(ds, cfg, op_rng()),
            furthest_pair(ds, cfg, op_rng()),
            tuple(bichromatic_close_pair(ds, k, cfg, op_rng()) for k in (0, 1, 2)),
            batch_nn(ds.red, ds.blue, cfg, op_rng()).entries,
        ))
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == ANSWERS_DIGEST


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
# recorded before the reductions walked their weight buckets in one generator
REDUCTIONS_DIGEST = "54e10546d436afa870f52edbc48ad2f2727b3926ae62d30837b4b4b404aa98df"


def _reduction_answers():
    from polyham.reductions import (
        IntVector,
        extreme_inner_product,
        find_orthogonal_pair,
        l1_batch_nn,
        max_jaccard_pair,
    )

    answers = []
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
            lambda r: extreme_inner_product(ds, "max", cfg, r),
            lambda r: extreme_inner_product(ds, "min", cfg, r),
            lambda r: find_orthogonal_pair(ds, cfg, r),
            lambda r: max_jaccard_pair(ds, cfg, r),
            lambda r: l1_batch_nn(db, queries, cfg, r).entries,
        )
        for call in calls:
            op_rng = np.random.default_rng(seed + 1000)
            # the trailing draw pins how much of the stream the call took
            answers.append((call(op_rng), int(op_rng.integers(1 << 62))))
    return answers


def test_reductions_answer_digest():
    import hashlib

    answers = _reduction_answers()
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == REDUCTIONS_DIGEST
