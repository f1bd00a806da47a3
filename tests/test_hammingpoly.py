from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from polyham.errors import InvalidParametersError, ResourceBudgetError
from polyham.hammingpoly import (
    GroupPredicateSpec,
    SampledHammingPolynomial,
    _member_block,
    block_masks,
    draw_coins,
    eval_group_pair,
    eval_group_pair_with,
    group_pair_truth,
    inner_error_budget,
    meets_dimension_advisory,
    sample_hamming_poly,
)
from polyham.neighbors import (
    _block_major,
    _block_pattern,
    _pattern_flags,
    _pattern_table,
)
from polyham.paireval import eval_sides, pack_sides
from polyham.vectors import BitVector


def true_p_for(k):
    """The exact inner predicate: [distance > k] as a mod-2 value."""
    return lambda z_int: int(z_int.bit_count() >= k + 1)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_spec_validation():
    with pytest.raises(InvalidParametersError):
        GroupPredicateSpec(2, 4, 4)
    with pytest.raises(InvalidParametersError):
        GroupPredicateSpec(0, 4, 1)
    GroupPredicateSpec(3, 5, 2)


def test_inner_error_budget_wiring():
    for s in (2, 3, 10, 25):
        assert inner_error_budget(s) == Fraction(1, s**3)
    hp = sample_hamming_poly(GroupPredicateSpec(3, 6, 2), np.random.default_rng(0))
    assert hp.eps == Fraction(1, 27)
    assert hp.inner.spec.eps == Fraction(1, 27)
    assert hp.inner.spec.theta == Fraction(3, 6)
    # s = 1 would give eps = 1, which is clamped so the threshold parameters stay valid
    assert inner_error_budget(1) < Fraction(1, 1)


@pytest.mark.parametrize("s", [1, 2])
def test_exact_three_quarters_exhaustive(s):
    # with the true inner predicate, conditioned on a close pair existing,
    # the fraction of (R1, R2) draws with q = 1 is exactly 3/4
    d, k = 3, 1
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(1)
    for trial in range(3):
        xs = [BitVector.random(rng, d) for _ in range(s)]
        ys = [BitVector.random(rng, d) for _ in range(s)]
        ys[int(rng.integers(0, s))] = xs[int(rng.integers(0, s))]  # plant distance 0
        assert group_pair_truth(spec, xs, ys) == 1
        pairs = [(i, j) for i in range(s) for j in range(s)]
        ones = total = 0
        for r1 in powerset(pairs):
            for r2 in powerset(pairs):
                total += 1
                ones += eval_group_pair_with(
                    spec, frozenset(r1), frozenset(r2), xs, ys, true_p_for(k)
                )
        assert ones * 4 == total * 3


def test_three_quarters_monte_carlo_s5():
    d, k, s = 4, 1, 5
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(2)
    xs = [BitVector.random(rng, d) for _ in range(s)]
    ys = [BitVector.random(rng, d) for _ in range(s)]
    ys[3] = xs[1]
    trials = 4000
    ones = 0
    for _ in range(trials):
        hp = sample_hamming_poly(spec, rng)
        ones += eval_group_pair_with(spec, hp.r1, hp.r2, xs, ys, true_p_for(k))
    rate = ones / trials
    sigma = (0.75 * 0.25 / trials) ** 0.5
    assert abs(rate - 0.75) <= 4 * sigma


def test_one_sided_certainty_no_close_pair():
    # with every inner evaluation correct, q = 0 whenever no pair is close
    d, k, s = 5, 1, 3
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 50:
        xs = [BitVector.random(rng, d) for _ in range(s)]
        ys = [BitVector.random(rng, d) for _ in range(s)]
        if group_pair_truth(spec, xs, ys) == 1:
            continue
        checked += 1
        hp = sample_hamming_poly(spec, rng)
        assert eval_group_pair_with(spec, hp.r1, hp.r2, xs, ys, true_p_for(k)) == 0


def test_s1_algebraic_identity():
    # with R1 = R2 = {(0,0)} and exact p, q(x, y) = 1 + p(x xor y) = [H <= k]
    d, k = 4, 2
    spec = GroupPredicateSpec(1, d, k)
    r = frozenset({(0, 0)})
    for xm in range(1 << d):
        for ym in range(1 << d):
            x, y = BitVector(d, xm), BitVector(d, ym)
            got = eval_group_pair_with(spec, r, r, [x], [y], true_p_for(k))
            assert got == int((xm ^ ym).bit_count() <= k)


def test_empty_r1_makes_first_factor_one():
    d, k, s = 3, 1, 2
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(4)
    xs = [BitVector.random(rng, d) for _ in range(s)]
    ys = [BitVector.random(rng, d) for _ in range(s)]
    r2 = frozenset({(0, 1), (1, 1)})
    got = eval_group_pair_with(spec, frozenset(), r2, xs, ys, true_p_for(k))
    # q = 1 + (1 + sum over R2 of (1 + p)): depends only on R2
    acc = 0
    for (i, j) in r2:
        acc ^= 1 ^ true_p_for(k)(xs[i].bits ^ ys[j].bits)
    assert got == 1 ^ (1 ^ acc)


def test_duplicate_padding_changes_nothing():
    d, k = 4, 1
    rng = np.random.default_rng(5)
    xs = [BitVector.random(rng, d) for _ in range(2)]
    ys = [BitVector.random(rng, d) for _ in range(2)]
    padded_xs = xs + [xs[-1]]
    padded_ys = ys + [ys[-1]]
    spec2, spec3 = GroupPredicateSpec(2, d, k), GroupPredicateSpec(3, d, k)
    assert group_pair_truth(spec2, xs, ys) == group_pair_truth(spec3, padded_xs, padded_ys)


def table_votes(a_bits, b_bits, draws, s):
    """The pipeline's majority vote of ``draws`` on every (a row, b row)
    cell, each row a group of s members' d coordinates: one product of the
    block polynomial on block-major member pairs, read by index."""
    d = draws[0].spec.d
    na, nb = len(a_bits), len(b_bits)
    red = a_bits.reshape(na * s, d)[_block_major(na * s, s, 0, na)]
    blue = b_bits.reshape(nb * s, d)[_block_major(nb * s, s, 0, nb)]
    vals = eval_sides(block_masks(draws[0]), pack_sides(d, red, blue, 1))
    coins = np.packbits([hp.coins for hp in draws], axis=2, bitorder="little")
    pattern = _block_pattern(vals.reshape(s, na, s, nb))
    return _pattern_flags(pattern, coins, _pattern_table(coins, s * s)).astype(np.uint8)


def random_groups(rng, n, s, d):
    """n random groups, each a 0/1 row of s members' d coordinates."""
    return rng.integers(0, 2, size=(n, s * d)).astype(np.uint8)


def structural_votes(hp, a_bits, b_bits):
    """eval_group_pair on every (a row, b row) cell."""
    s, d = hp.spec.s, hp.spec.d
    reds, blues = (
        [[BitVector.from_bits(m.tolist()) for m in row.reshape(s, d)] for row in bits]
        for bits in (a_bits, b_bits)
    )
    return np.array([[eval_group_pair(hp, xs, ys) for ys in blues] for xs in reds], dtype=np.uint8)


def assert_pipeline_votes_structural(spec, a_bits, b_bits, rng, n_draws=3):
    """Each of n_draws draws' pipeline vote on every cell of the grid is the
    structurally evaluated q."""
    for _ in range(n_draws):
        hp = sample_hamming_poly(spec, rng)
        np.testing.assert_array_equal(
            table_votes(a_bits, b_bits, [hp], spec.s), structural_votes(hp, a_bits, b_bits)
        )


def test_structural_equals_expanded_random_inputs():
    # the pipeline's block-expanded product votes as eval_group_pair on
    # random group pairs
    rng = np.random.default_rng(6)
    cases = [(1, 4), (1, 6), (2, 4), (2, 5), (3, 3), (4, 3), (17, 2)]  # (17, 2): past 16 blocks
    for s, d in cases:
        a_bits, b_bits = random_groups(rng, 12, s, d), random_groups(rng, 10, s, d)
        assert_pipeline_votes_structural(GroupPredicateSpec(s, d, 1), a_bits, b_bits, rng)


def test_structural_equals_expanded_exhaustive_s1():
    # s = 1 at k = d - 1: every (x, y)
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        every = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(np.uint8)
        assert_pipeline_votes_structural(GroupPredicateSpec(1, d, d - 1), every, every, rng)


def draws_with_edge_subsets(spec, rng, n_random):
    """Random draws, then the same inner circuit with R_1 and/or R_2 empty,
    R_1 = R_2, and R_1 = R_2 = every index pair."""
    draws = [sample_hamming_poly(spec, rng) for _ in range(n_random)]
    hp = draws[0]
    none, every = np.zeros(spec.s**2, dtype=np.uint8), np.ones(spec.s**2, dtype=np.uint8)
    c1, c2 = hp.coins
    for coins in [(none, c2), (c1, none), (none, none), (c1, c1), (every, every)]:
        draws.append(SampledHammingPolynomial(spec, hp.eps, hp.inner, coins))
    return draws


@pytest.mark.parametrize(
    "s, d, k, n_random",
    [
        (2, 4, 0, 25),
        (2, 4, 1, 25),
        (2, 4, 2, 25),
        (17, 2, 1, 2),  # W = 2, and past 16 blocks: distinct patterns only
        (1, 6, 2, 25),
        (3, 4, 1, 10),
    ],
)
def test_block_votes_equal_factor_votes(s, d, k, n_random):
    # a draw's vote on a cell depends only on the cell's s^2 block bits, so
    # one table per decision, read at each cell's pattern, gives every
    # draw's vote 1 ^ (E1 & E2), which eval_group_pair computes factor by
    # factor, and their majority
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(24)
    a_bits, b_bits = random_groups(rng, 12, s, d), random_groups(rng, 10, s, d)
    draws = draws_with_edge_subsets(spec, rng, n_random)
    block = block_masks(draws[0])
    assert block is _member_block(d, k)
    votes = []
    for hp in draws:
        assert block_masks(hp) is block  # exact inner circuit: one shared block
        want = structural_votes(hp, a_bits, b_bits)
        np.testing.assert_array_equal(table_votes(a_bits, b_bits, [hp], s), want)
        votes.append(want)
    # two draws tie on many cells, and a tie is not a majority
    for m in (2, 3, len(draws)):
        majority = (2 * np.sum(votes[:m], axis=0) > m).astype(np.uint8)
        np.testing.assert_array_equal(table_votes(a_bits, b_bits, draws[:m], s), majority)


def member_distances(red, blue, s):
    """D[g, h, i, j]: distance from member i of red group g to member j of blue
    group h, from 0/1 coordinates (no packing and no GF(2) code)."""
    d = red.shape[1]
    r = red.reshape(-1, s, 1, 1, d)
    b = blue.reshape(1, 1, -1, s, d)
    return (r != b).sum(axis=-1).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("s, d, k", [(2, 4, 1), (2, 6, 2), (3, 4, 1)])
def test_group_matrix_equals_distance_formula(s, d, k):
    # with an exact inner circuit, 1 + p(x_i xor y_j) = [D_ij <= k], so the
    # group matrix is 1 ^ (g1 & g2), g_r = 1 ^ xor over R_r of [D_ij <= k]
    spec = GroupPredicateSpec(s, d, k)
    rng = np.random.default_rng(19)
    groups = 64
    red = rng.integers(0, 2, size=(groups * s, d)).astype(np.uint8)
    blue = rng.integers(0, 2, size=(groups * s, d)).astype(np.uint8)
    close = member_distances(red, blue, s) <= k
    for _ in range(30):
        hp = sample_hamming_poly(spec, rng)
        assert hp.inner.kind == "exact_base"
        g1, g2 = np.ones((2, groups, groups), dtype=np.uint8)
        for g, subset in ((g1, hp.r1), (g2, hp.r2)):
            for i, j in subset:
                g ^= close[:, :, i, j]
        want = 1 ^ (g1 & g2)
        # the pipeline's vote: the draw's table read at each cell's pattern
        np.testing.assert_array_equal(
            table_votes(red.reshape(groups, -1), blue.reshape(groups, -1), [hp], s), want
        )


def test_block_masks_refuses_a_sampled_inner_circuit():
    # from d = 2,331 at s = 1 the inner threshold is sampled: its blocks
    # would differ per draw, so block_masks refuses them (the plan admits
    # no d > 32, so no decision asks)
    spec = GroupPredicateSpec(1, 2400, 1)
    hp = sample_hamming_poly(spec, np.random.default_rng(3))
    assert hp.inner.kind == "recursive"
    with pytest.raises(ResourceBudgetError, match="sampled"):
        block_masks(hp)


def test_block_masks_is_one_member_block():
    # every group size shares the (d, k) block p(x xor y) on 2d bits; a row
    # takes the x or the y copy of each coordinate, and no two rows cancel
    d, k = 4, 1
    block = _member_block(d, k)
    assert block.shape[1] == 1 and len(np.unique(block)) == len(block)
    assert not block.flags.writeable and not (block >> np.uint64(2 * d)).any()
    x, y = block[:, 0] & np.uint64((1 << d) - 1), block[:, 0] >> np.uint64(d)
    assert not (x & y).any()
    for s in (1, 2, 3):
        spec = GroupPredicateSpec(s, d, k)
        assert block_masks(sample_hamming_poly(spec, np.random.default_rng(4))) is block


# First draws at rng seed 7, recorded before the per-spec draw parts were
# memoised: the rng stream, so every seed's answers, must not move.
PINNED_DRAWS = {
    (2, 4, 1): (
        [
            ([(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 0)]),
            ([(1, 1)], [(0, 0), (1, 1)]),
            ([(0, 1)], [(0, 0)]),
            ([(0, 0), (1, 0)], [(0, 1), (1, 0), (1, 1)]),
            ([(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]),
        ],
        500611194,
    ),
    (3, 5, 2): (
        [
            (
                [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)],
                [(0, 2), (1, 0), (2, 0), (2, 2)],
            ),
            (
                [(0, 2), (2, 0), (2, 2)],
                [(0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
            ),
            ([(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)], [(0, 0), (2, 0), (2, 1)]),
        ],
        868062562,
    ),
    # a sampled inner circuit also draws its coordinate maps
    (1, 2400, 1): ([([(0, 0)], []), ([], [])], 946562932),
}


@pytest.mark.parametrize("key", sorted(PINNED_DRAWS))
def test_draws_pinned_at_a_fixed_seed(key):
    subsets, next_value = PINNED_DRAWS[key]
    spec = GroupPredicateSpec(*key)
    rng = np.random.default_rng(7)
    draws = [sample_hamming_poly(spec, rng) for _ in subsets]
    assert [(sorted(hp.r1), sorted(hp.r2)) for hp in draws] == subsets
    assert rng.integers(0, 1 << 30) == next_value


@pytest.mark.parametrize("s", [1, 2, 3, 17])
@pytest.mark.parametrize("rounds", [1, 2, 9, 70])
def test_one_coin_call_is_the_stream_of_its_draws(s, rounds):
    # an exact inner circuit draws nothing, so the coins of `rounds` draws
    # come from one call without moving the stream
    spec = GroupPredicateSpec(s, 4, 1)
    rng, twin = np.random.default_rng(s * 100 + rounds), np.random.default_rng(s * 100 + rounds)
    coins = draw_coins(spec, rng, rounds)
    draws = [sample_hamming_poly(spec, twin) for _ in range(rounds)]
    assert coins.shape == (rounds, 2, s * s) and coins.dtype == np.uint8
    np.testing.assert_array_equal(coins, [hp.coins for hp in draws])
    assert rng.bit_generator.state == twin.bit_generator.state
    assert not draws[-1].coins.flags.writeable


def test_member_block_shared_across_draws():
    # every draw for (d, k) gets the one read-only block, and a rebuild
    # after cache_clear gives the same masks
    spec = GroupPredicateSpec(2, 4, 1)
    draws = [sample_hamming_poly(spec, np.random.default_rng(seed)) for seed in (12, 13)]
    assert all(hp.inner.kind == "exact_base" for hp in draws)
    block = _member_block(4, 1)
    assert all(block_masks(hp) is block for hp in draws) and not block.flags.writeable
    _member_block.cache_clear()
    again = block_masks(sample_hamming_poly(spec, np.random.default_rng(12)))
    assert again is not block and not again.flags.writeable
    np.testing.assert_array_equal(again, block)


# sha256 of the member block's bytes.  (6, 0), (6, 3) and (10, 4) were
# recorded when the blocks were still built by a 0/1 scatter and a pack; the
# other keys were recorded from the block built in words, before the placed
# (s^2, R, W) blocks were deleted.
PINNED_BLOCKS = {
    (6, 0): ((728, 1), "9f7583557e4a6a58c818ea45f162186de3640d1972364867d70c922d91e01b77"),
    (6, 3): ((240, 1), "6ee86309c0ba70b17a6479379bc958cd4826520d367aad130729ed04ddce8b09"),
    (4, 0): ((80, 1), "e7510be003a82d1eac093a7f19dbd5ab42940748f321ccd7b584754aea93cd06"),
    (5, 2): ((160, 1), "6c4b687607c3df739ac0f9825a31c4d0add7869e0664bdb2996bf0c752b2b958"),
    (3, 1): ((12, 1), "3046d153b9ed97d5f978a2eecd4908af90658f82d88a8f6ce83e33bab01a9654"),
    (2, 1): ((4, 1), "fe2e3876105e2686557dd746753ebaa67513eac43211b6338c98aafd39291f89"),
    (7, 2): ((968, 1), "170b35cec361dab2e9cd1072fb76a6a086bf07aabe0797124fb08d725ba8ca79"),
    (10, 4): ((48384, 1), "95b928b54bd3e68b413e842c7717f32db0b5de36cddad6a8648a749106c84c0d"),
}


@pytest.mark.parametrize("key", sorted(PINNED_BLOCKS))
def test_member_block_pinned(key):
    import hashlib

    shape, digest = PINNED_BLOCKS[key]
    block = _member_block(*key)
    assert block.shape == shape
    assert hashlib.sha256(block.tobytes()).hexdigest() == digest


def test_member_block_memory_is_near_the_output():
    # the scatter-and-pack build peaked at 55x the masks it returned at
    # d = 12; the word build stays within 3x
    import tracemalloc

    _member_block.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block = _member_block(12, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        _member_block.cache_clear()
    assert block.shape == (3**12 - 1, 1)
    assert peak <= 3 * block.nbytes


def test_block_masks_need_one_word_per_row_part(monkeypatch):
    # at d = 33 a block row of 2d bits does not fit one word: refused
    # before the 2^33 monomials of the inner threshold are expanded
    import polyham.hammingpoly as hammingpoly

    def refuse(*args, **kwargs):
        raise AssertionError("expanded the inner circuit")

    monkeypatch.setattr(hammingpoly, "expand_circuit", refuse)
    hp = sample_hamming_poly(GroupPredicateSpec(1, 33, 0), np.random.default_rng(5))
    assert hp.inner.kind == "exact_base"
    with pytest.raises(ResourceBudgetError, match="64-bit"):
        _member_block(33, 0)
    with pytest.raises(ResourceBudgetError, match="64-bit"):
        block_masks(hp)


def test_dimension_advisory():
    assert meets_dimension_advisory(GroupPredicateSpec(2, 32, 1))
    assert not meets_dimension_advisory(GroupPredicateSpec(1024, 16, 1))


def test_eval_group_pair_shape_errors():
    spec = GroupPredicateSpec(2, 3, 1)
    hp = sample_hamming_poly(spec, np.random.default_rng(12))
    with pytest.raises(InvalidParametersError):
        eval_group_pair(hp, [BitVector.zeros(3)], [BitVector.zeros(3)] * 2)
    with pytest.raises(InvalidParametersError):
        eval_group_pair(hp, [BitVector.zeros(4)] * 2, [BitVector.zeros(4)] * 2)
