import math
from fractions import Fraction

import numpy as np
import pytest

from polyham import probpoly
from polyham.errors import (
    DimensionMismatchError,
    InvalidParametersError,
    ResourceBudgetError,
    VerificationError,
)
from polyham.polyalg import interpolate_weights
from polyham.probpoly import (
    SampledThresholdCircuit,
    StepWindow,
    SymmetricFunctionSpec,
    ThresholdSpec,
    _compile,
    boundary_inputs,
    degree_bound,
    eval_circuit,
    expand_circuit,
    jump_sets,
    measure_symmetric_error,
    measure_threshold_error,
    sample_symmetric,
    sample_threshold,
    threshold_index,
    threshold_value,
)
from polyham.polyalg import binom_int, eval_newton
from polyham.vectors import BitVector, bit_matrix

HALF = Fraction(1, 2)


def test_threshold_spec_validation():
    with pytest.raises(InvalidParametersError):
        ThresholdSpec(3, Fraction(3, 2), Fraction(1, 10))
    with pytest.raises(InvalidParametersError):
        ThresholdSpec(3, HALF, Fraction(1))
    with pytest.raises(InvalidParametersError):
        ThresholdSpec(0, HALF, Fraction(1, 10))


def test_threshold_index_semantics():
    assert threshold_index(HALF, 4) == 2
    assert threshold_index(HALF, 5) == 3
    assert threshold_index(Fraction(0), 5) == 0
    assert threshold_index(Fraction(1), 5) == 5
    assert threshold_value(HALF, 3, 2) == 1
    assert threshold_value(HALF, 3, 1) == 0


def test_base_case_n1_is_identity():
    c = sample_threshold(ThresholdSpec(1, HALF, Fraction(1, 10)), np.random.default_rng(0))
    assert c.kind == "exact_base"
    poly = expand_circuit(c)
    assert poly.terms == {(0,): 1}  # the single variable


def test_base_case_rule_n100_eps_half():
    # bound 41*sqrt(100*ln 2) ~ 341 > 100 fires the base case
    c = sample_threshold(ThresholdSpec(100, HALF, HALF), np.random.default_rng(0))
    assert c.kind == "exact_base"
    assert degree_bound(100, HALF) > 100
    assert c.structural_degree() <= 100


def test_recursive_structure_n1e4_eps_half():
    c = sample_threshold(ThresholdSpec(10**4, HALF, HALF), np.random.default_rng(0))
    assert c.kind == "recursive"
    assert c.skeleton.maps[0].shape == (10**3,)
    plan = c.plan
    near_hi, near_lo, inner = plan.kids[c.root].tolist()
    assert plan.level[[near_hi, near_lo, inner]].tolist() == [1, 1, 1]
    assert plan.sizes[1] == 10**3
    assert plan.eps[1] == HALF / 4
    # theta ordering, read through the child thresholds t = ceil(theta * 10^3)
    assert plan.t[near_hi] > plan.t[inner] > plan.t[near_lo]
    assert plan.t[inner] == threshold_index(HALF, 10**3)


def test_recursion_depth_bound():
    for n, eps in ((10**4, Fraction(1, 10)), (10**5, Fraction(24, 100)), (200, HALF)):
        c = sample_threshold(ThresholdSpec(n, HALF, eps), np.random.default_rng(1))
        assert c.depth() <= math.ceil(math.log10(n)) + 1


def test_shared_sample_map_across_children_and_levels():
    # depth-2 instance: all three children recurse and must share their maps
    c = sample_threshold(
        ThresholdSpec(30_000, HALF, Fraction(99, 100)), np.random.default_rng(2)
    )
    plan = c.plan
    assert c.kind == "recursive" and c.depth() == 2
    assert (plan.kids[plan.kids[c.root], 0] >= 0).all()  # the children recurse
    # every child sits one level below its parent, and a level's nodes all
    # read the one vector sampled by that level's map
    parents = np.flatnonzero(plan.kids[:, 0] >= 0)
    assert (plan.level[plan.kids[parents]] == plan.level[parents, None] + 1).all()
    assert [m.shape for m in c.skeleton.maps] == [(3_000,), (300,)]
    bits = bit_matrix([BitVector.random(np.random.default_rng(3), 30_000)])
    sampled = bits[0][c.skeleton.maps[0]][c.skeleton.maps[1]]
    assert c.skeleton.weight_profiles(bits)[0, 2] == sampled.sum()


def test_eval_circuit_base_examples():
    c = sample_threshold(ThresholdSpec(3, HALF, Fraction(1, 10)), np.random.default_rng(0))
    assert c.kind == "exact_base"
    assert eval_circuit(c, BitVector.from_string("110")) == 1
    assert eval_circuit(c, BitVector.from_string("000")) == 0
    with pytest.raises(DimensionMismatchError):
        eval_circuit(c, BitVector.from_string("11"))


def test_base_expansion_equals_interpolation():
    c = sample_threshold(ThresholdSpec(3, HALF, Fraction(1, 10)), np.random.default_rng(0))
    expansion = expand_circuit(c)
    reference = interpolate_weights(3, -1, 4, [0, 0, 1, 1]).expand()
    assert expansion == reference


@pytest.mark.parametrize("n", [4, 8, 11, 12])
def test_circuit_expansion_equivalence_exhaustive(n):
    # eps close to 1 forces recursion at tiny n; 5 seeds per size, all inputs
    eps = Fraction(995, 1000)
    recursive_seen = False
    for seed in range(5):
        c = sample_threshold(ThresholdSpec(n, HALF, eps), np.random.default_rng(seed))
        recursive_seen |= c.kind == "recursive"
        poly = expand_circuit(c)
        bound = min(n, degree_bound(n, eps))
        assert poly.degree() <= bound
        for mask in range(1 << n):
            assert poly.eval_mask(mask) == eval_circuit(c, BitVector(n, mask))
    assert n < 11 or recursive_seen


def test_structural_degree_bound_grid():
    for n in (10, 50, 200, 10**3, 10**4):
        for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(24, 100)):
            for seed in range(3):
                c = sample_threshold(ThresholdSpec(n, HALF, eps), np.random.default_rng(seed))
                assert c.structural_degree() <= min(n, degree_bound(n, eps))


def test_expansion_budget_error_names_count():
    c = sample_threshold(ThresholdSpec(10**4, HALF, Fraction(1, 10)), np.random.default_rng(0))
    with pytest.raises(ResourceBudgetError) as exc:
        expand_circuit(c, budget=10**6)
    assert exc.value.projected is not None and exc.value.projected > 10**6


def test_expansion_degree_overflow_is_a_verification_error(monkeypatch):
    c = sample_threshold(ThresholdSpec(12, HALF, Fraction(995, 1000)), np.random.default_rng(0))
    assert c.kind == "recursive" and expand_circuit(c).degree() > 0
    monkeypatch.setattr(probpoly, "degree_bound", lambda n, eps: 0)
    with pytest.raises(VerificationError):
        expand_circuit(c)


def test_sampling_concentration():
    # empirical check of the one-sided sampling tail: over >= 10^4 draws of
    # the coordinate sample, the sampled density rarely falls a/sqrt(n)
    # below the true density (the analysis says at most eps/4).
    n, eps = 1000, 0.1
    m = n // 10
    a = math.sqrt(10 * math.log(1 / eps))
    rng = np.random.default_rng(3)
    x = np.zeros(n, dtype=np.uint8)
    x[: n // 2] = 1
    w = 0.5
    draws = 20_000
    idx = rng.integers(0, n, size=(draws, m))
    v = x[idx].sum(axis=1) / m
    frac = float((v <= w - a / math.sqrt(n)).mean())
    sigma = math.sqrt((eps / 4) * (1 - eps / 4) / draws)
    assert frac <= eps / 4 + 3 * sigma


def test_measure_error_exact_base_is_perfect():
    spec = ThresholdSpec(8, HALF, Fraction(1, 10))
    rng = np.random.default_rng(4)
    inputs = [BitVector.random(rng, 8) for _ in range(10)]
    reports = measure_threshold_error(spec, inputs, 50, rng)
    assert all(r.agreement == 1.0 for r in reports)


def test_measure_error_recursive_meets_guarantee():
    eps = Fraction(1, 10)
    spec = ThresholdSpec(10**4, HALF, eps)
    rng = np.random.default_rng(5)
    inputs = boundary_inputs(10**4, HALF)
    inputs += [BitVector.random(rng, 10**4) for _ in range(6)]
    trials = 120
    reports = measure_threshold_error(spec, inputs, trials, rng)
    sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
    floor = 1 - float(eps) - 3 * sigma
    assert all(r.agreement >= floor for r in reports)
    # boundary weights are present
    t = threshold_index(HALF, 10**4)
    assert {reports[0].weight, reports[1].weight} == {t - 1, t}


@pytest.mark.parametrize("kind", ["threshold", "parity"])
def test_agreement_near_weight_n(kind):
    # a near_hi child shifted past density 1 must be the constant 0, not
    # "every sampled bit is 1"
    n = 10**4
    inputs = [BitVector(n, (1 << w) - 1) for w in (n - 5, n - 1, n)]
    rng = np.random.default_rng(10)
    if kind == "threshold":
        eps, trials = Fraction(1, 20), 200
        reports = measure_threshold_error(ThresholdSpec(n, Fraction(1), eps), inputs, trials, rng)
    else:
        eps, trials = Fraction(1, 10), 40
        spec = SymmetricFunctionSpec(n, tuple(w % 2 for w in range(n + 1)))
        reports = measure_symmetric_error(spec, eps, inputs, trials, rng)
    sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
    assert [r.weight for r in reports] == [n - 5, n - 1, n]
    assert all(r.agreement >= 1 - float(eps) - 3 * sigma for r in reports)


def test_boundary_inputs_weights():
    vs = boundary_inputs(9, HALF)
    assert [v.weight() for v in vs] == [4, 5]
    assert [v.weight() for v in boundary_inputs(4, Fraction(0))] == [0]


def test_measure_error_requires_trials():
    from polyham.probpoly import measure_error

    with pytest.raises(InvalidParametersError):
        measure_error(lambda r: None, lambda x: 0, [], 0, np.random.default_rng(0))


def test_eps_above_quarter_accepted():
    spec = ThresholdSpec(50, HALF, Fraction(9, 10))
    c = sample_threshold(spec, np.random.default_rng(6))
    assert c.kind in ("exact_base", "recursive")


def test_newton_diffs_recurrence_matches_binomials():
    # the closed form, one binomial per difference
    def closed_form(lo, hi, t):
        if t <= lo:
            return [1]
        if t > hi:
            return [0]
        tau = t - lo
        d = [0] * (hi - lo + 1)
        for j in range(tau, hi - lo + 1):
            d[j] = (-1) ** (j - tau) * binom_int(j - 1, tau - 1)
        return d

    for n in (1, 7, 40, 300):
        for lo in sorted({0, 1, n // 3, n - 1}):
            for hi in sorted({lo, lo + 1, (lo + n) // 2, n} - {n + 1}):
                for t in range(lo - 2, hi + 3):
                    window = StepWindow(n, lo, hi, t)
                    diffs = closed_form(lo, hi, t)
                    assert window.newton_diffs() == diffs, (n, lo, hi, t)
                    for w in (0, lo - 1, hi + 1, n, 3 * n):
                        assert window.value(w) == eval_newton(diffs, lo, w), (n, lo, hi, t, w)


def test_band_poly_matches_window_values():
    c = sample_threshold(ThresholdSpec(40, HALF, Fraction(99, 100)), np.random.default_rng(7))
    assert c.kind == "recursive"
    poly = c.window.to_int_polynomial()
    assert poly.is_symmetric_mode
    assert poly.degree() <= c.window.degree_cap()
    t = threshold_index(HALF, 40)
    for w in range(41):
        rep = (1 << w) - 1
        assert poly.eval_mask(rep) == c.window.value(w)
        if c.window.lo <= w <= c.window.hi:
            assert poly.eval_mask(rep) == int(w >= t)


# ---------------------------------------------------------------------------
# symmetric functions
# ---------------------------------------------------------------------------


def test_jump_sets_examples():
    # MAJORITY on 4 variables
    assert jump_sets((0, 0, 1, 1, 1)) == ([2], [])
    # alternating values on 3 variables
    assert jump_sets((0, 1, 0, 1)) == ([1, 3], [2])
    assert jump_sets((1, 1, 1)) == ([], [])


def test_constant_function_combination():
    spec = SymmetricFunctionSpec(5, (1,) * 6)
    comb = sample_symmetric(spec, Fraction(1, 10), np.random.default_rng(0))
    assert len(comb.plan.roots) == 0 and comb.skeleton.maps == ()
    for mask in (0, 0b10101, 0b11111):
        assert comb.eval(BitVector(5, mask)) == 1


def exact_decomposition_value(values, w):
    ups, downs = jump_sets(values)
    n = len(values) - 1
    total = values[0]
    total += sum(1 for i in ups if w >= i)
    total -= sum(1 for i in downs if w >= i)
    return total


def test_exact_decomposition_reproduces_f_all_small_n():
    # exhaustive over all weight tables for small n
    for n in range(1, 9):
        for table in range(1 << (n + 1)):
            values = tuple((table >> i) & 1 for i in range(n + 1))
            for w in range(n + 1):
                assert exact_decomposition_value(values, w) == values[w]


def test_exact_decomposition_random_tables_up_to_64():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        values = tuple(int(b) for b in rng.integers(0, 2, size=n + 1))
        for w in range(n + 1):
            assert exact_decomposition_value(values, w) == values[w]


def test_majority_combination_is_single_threshold():
    spec = SymmetricFunctionSpec(4, (0, 0, 1, 1, 1))
    comb = sample_symmetric(spec, Fraction(1, 10), np.random.default_rng(1))
    plan = comb.plan
    assert plan.signs.tolist() == [1] and plan.f0 == 0
    assert plan.t[plan.roots].tolist() == [2]  # the threshold 2/4
    for mask in range(1 << 4):
        assert comb.eval(BitVector(4, mask)) == spec.truth(BitVector(4, mask))


def test_symmetric_shared_skeleton_across_thresholds():
    n = 4000
    values = tuple(int(w % 2) for w in range(n + 1))
    comb = sample_symmetric(
        SymmetricFunctionSpec(n, values), Fraction(9, 10), np.random.default_rng(2)
    )
    plan = comb.plan
    assert len(comb.skeleton.maps) == 1
    assert len(plan.roots) == n and (plan.level[plan.roots] == 0).all()
    # every threshold's children read the one level-1 vector the shared map samples
    assert (plan.level[plan.kids[plan.roots]] == 1).all()
    # equal nodes are shared: one exact child per threshold 0..400 and the
    # constant 0 (t = 401) past density 1, not 3 per root
    assert len(plan.level) == n + n // 10 + 2


def _threshold_sum(comb, eps, bits):
    """f0 plus the signed sum of one-threshold plans, each compiled on its
    own, evaluated on the combination's skeleton."""
    n = comb.spec.n
    ups, downs = jump_sets(comb.spec.values)
    total = [comb.spec.values[0]] * len(bits)
    for jumps, sign in ((ups, 1), (downs, -1)):
        for j in jumps:
            spec = ThresholdSpec(n, Fraction(j, n), eps / 2)
            circuit = SampledThresholdCircuit(spec, _compile(spec, spec.eps), comb.skeleton)
            total = [acc + sign * v for acc, v in zip(total, circuit.eval_rows(bits))]
    return total


@pytest.mark.parametrize(
    "n, values_of, depth",
    [
        (4000, lambda n, w: w % 2, 1),
        (40_000, lambda n, w: int(w == n // 2), 2),  # two jumps
    ],
    ids=["parity", "exact-k"],
)
def test_combination_plan_equals_sum_of_threshold_plans(n, values_of, depth):
    spec = SymmetricFunctionSpec(n, tuple(values_of(n, w) for w in range(n + 1)))
    rng = np.random.default_rng(3)
    comb = sample_symmetric(spec, Fraction(9, 10), rng)
    assert len(comb.skeleton.maps) == depth
    inputs = [BitVector(n, (1 << w) - 1) for w in (n // 2 - 1, n // 2, n // 2 + 1)]
    inputs += [BitVector.random(rng, n) for _ in range(6)]
    bits = bit_matrix(inputs)
    assert comb.eval_rows(bits) == _threshold_sum(comb, Fraction(9, 10), bits)


def test_batch_mixing_exact_fallback_rows():
    # parity at n = 4000 with a row whose sampled density (about 1/2) is far
    # from its true density (about 1/20): thresholds near 1/2 then need their
    # interpolation outside the window, a big integer
    n = 4000
    spec = SymmetricFunctionSpec(n, tuple(w % 2 for w in range(n + 1)))
    rng = np.random.default_rng(4)
    comb = sample_symmetric(spec, Fraction(9, 10), rng)
    far = np.zeros(n, dtype=np.uint8)
    far[comb.skeleton.maps[0][: n // 20]] = 1
    rows = [BitVector.random(rng, n) for _ in range(4)]
    bits = np.vstack([bit_matrix(rows[:2]), far, bit_matrix(rows[2:])])
    _, redo = comb.plan._node_values(comb.skeleton.weight_profiles(bits), exact=False)
    assert redo.tolist() == [False, False, True, False, False]
    batch = comb.eval_rows(bits)
    assert abs(batch[2]) > 2**63  # exact beyond int64
    assert batch == [comb.eval_bits(row) for row in bits]
    assert batch == _threshold_sum(comb, Fraction(9, 10), bits)


def reference_plan_value(plan, profile):
    """A plan's value on one weight profile, node by node in Python ints:
    M = A * S + M_inner * (1 - S), S = (1 - near_hi) * near_lo."""
    vals = [0] * len(plan.level)
    for i in reversed(range(len(vals))):
        window = plan.window(i)
        w = int(profile[plan.level[i]])
        if plan.kids[i, 0] < 0:
            vals[i] = window.value(w)
            continue
        near_hi, near_lo, inner = (vals[c] for c in plan.kids[i].tolist())
        s = (1 - near_hi) * near_lo
        vals[i] = (window.value(w) if s else 0) * s + inner * (1 - s)
    return plan.f0 + sum(int(sign) * vals[root] for root, sign in zip(plan.roots, plan.signs))


@pytest.mark.parametrize(
    "n, values_of",
    [(4000, lambda n, w: w % 2), (40_000, lambda n, w: int(w == n // 2))],
    ids=["parity", "exact-k"],
)
def test_plan_evaluation_matches_python_reference(n, values_of):
    # the batched evaluator against the construction written out per node,
    # on rows that need the exact off-window fallback and rows that do not
    spec = SymmetricFunctionSpec(n, tuple(values_of(n, w) for w in range(n + 1)))
    rng = np.random.default_rng(21)
    comb = sample_symmetric(spec, Fraction(9, 10), rng)
    rows = [BitVector(n, (1 << w) - 1) for w in (0, 1, n // 2 - 1, n // 2, n // 2 + 1, n)]
    bits = bit_matrix(rows + [BitVector.random(rng, n) for _ in range(4)])
    # sampled density 1/2 (to within a repeat), true density about 1/20 and 19/20
    mapped, repeats = np.unique(comb.skeleton.maps[0], return_counts=True)
    far = np.zeros((2, n), dtype=np.uint8)
    far[1] = 1
    far[:, mapped] = 0
    far[:, mapped[np.cumsum(repeats) <= repeats.sum() // 2]] = 1
    profiles = comb.skeleton.weight_profiles(np.vstack([bits, far]))
    _, redo = comb.plan._node_values(profiles, exact=False)
    assert redo.any() and not redo.all()
    want = [reference_plan_value(comb.plan, p) for p in profiles.tolist()]
    assert comb.plan.evaluate(profiles) == want


# sha256 prefixes of repr(plan.evaluate(profiles)), recorded before the
# window values were compared (input, node), and the rows needing the
# exact off-window fallback
PINNED_PLAN_OUTPUTS = {
    (4000, "parity", Fraction(1, 10)): ("6456cb0552a1567741d5041819af9c48", 0),
    (4000, "parity", Fraction(9, 10)): ("a6194a395da6e0790e5f98301d563d5d", 5),
    (10_000, "parity", Fraction(1, 10)): ("5ebd4c5bbfb7d1038e973654ace17a8b", 0),
    (10_000, "parity", Fraction(9, 10)): ("1409acb2ecf49d3d3dad16b8d55b6b06", 3),
    (40_000, "exact-k", Fraction(1, 10)): ("4c7f1a7c6543dfd770f9f472628b80a5", 0),
    (40_000, "exact-k", Fraction(9, 10)): ("5f03bc93a58fe1c967c09b2fc0d1918e", 0),
}


@pytest.mark.parametrize("key", list(PINNED_PLAN_OUTPUTS), ids=str)
def test_plan_outputs_pinned(key):
    import hashlib

    n, kind, eps = key
    values = [w % 2 if kind == "parity" else int(w == n // 2) for w in range(n + 1)]
    rng = np.random.default_rng(31)
    comb = sample_symmetric(SymmetricFunctionSpec(n, tuple(values)), eps, rng)
    rows = [BitVector(n, (1 << w) - 1) for w in (0, 1, n // 2 - 1, n // 2, n // 2 + 1, n)]
    bits = bit_matrix(rows + [BitVector.random(rng, n) for _ in range(40)])
    if comb.skeleton.maps and n <= 4000:
        # rows that set a growing share of the first sampled coordinates
        mapped = np.unique(comb.skeleton.maps[0])
        far = np.zeros((3, n), dtype=np.uint8)
        for i in range(3):
            far[i, mapped[: (i + 1) * len(mapped) // 4]] = 1
        bits = np.vstack([bits, far])
    profiles = comb.skeleton.weight_profiles(bits)
    digest = hashlib.sha256(repr(comb.plan.evaluate(profiles)).encode()).hexdigest()
    _, redo = comb.plan._node_values(profiles, exact=False)
    assert (digest[:32], int(redo.sum())) == PINNED_PLAN_OUTPUTS[key]


def test_off_window_flags_at_window_edges():
    # one recursive threshold, so only its root can flag a row: weights
    # just outside the root's window need the exact fallback, weights on
    # its edges do not
    spec = ThresholdSpec(4000, Fraction(1, 2), Fraction(9, 10))
    plan = sample_threshold(spec, np.random.default_rng(22)).plan
    (root,) = plan.roots.tolist()
    near_hi, near_lo, _ = plan.kids[root].tolist()
    assert plan.t[near_lo] < plan.t[near_hi]  # sampled weight t[near_lo]: S = 1
    lo, hi = int(plan.lo[root]), int(plan.hi[root])
    profiles = np.array([[w, plan.t[near_lo]] for w in (lo - 1, lo, hi, hi + 1)])
    _, redo = plan._node_values(profiles, exact=False)
    assert redo.tolist() == [True, False, False, True]
    want = [reference_plan_value(plan, p) for p in profiles.tolist()]
    assert plan.evaluate(profiles) == want
    assert want[1:3] == [0, 1] and abs(want[0]) > 1 and abs(want[3]) > 1


def test_sampled_symmetric_small_exhaustive_agreement():
    # at n <= 10 every threshold is exact, so the combination is exact
    rng = np.random.default_rng(8)
    for n in (3, 6, 9):
        values = tuple(int(b) for b in rng.integers(0, 2, size=n + 1))
        spec = SymmetricFunctionSpec(n, values)
        comb = sample_symmetric(spec, Fraction(1, 10), rng)
        for mask in range(1 << n):
            x = BitVector(n, mask)
            assert comb.eval(x) == spec.truth(x)


def test_measure_symmetric_error_exact_k():
    n = 10**4
    k0 = n // 2
    values = tuple(int(w == k0) for w in range(n + 1))
    spec = SymmetricFunctionSpec(n, values)
    assert jump_sets(values) == ([k0], [k0 + 1])
    eps = Fraction(1, 10)
    rng = np.random.default_rng(9)
    inputs = [BitVector(n, (1 << k0) - 1), BitVector(n, (1 << (k0 + 1)) - 1)]
    inputs += [BitVector.random(rng, n) for _ in range(4)]
    trials = 80
    reports = measure_symmetric_error(spec, eps, inputs, trials, rng)
    sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
    assert all(r.agreement >= 1 - float(eps) - 3 * sigma for r in reports)
