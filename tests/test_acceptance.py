"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The asymptotic runtime claims of the underlying method need rectangular
matrix multiplication at astronomical sizes; what is checkable at desk
scale, and checked here, is exactness of the algebra, the structural degree
bounds, the statistical error guarantees, bit-exact agreement of the matrix
pipeline, and oracle equivalence of the end-to-end solvers with zero
soundness failures.
"""

import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from polyham import cli
from polyham.hammingpoly import (
    GroupPredicateSpec,
    eval_group_pair,
    eval_group_pair_with,
    group_pair_truth,
    sample_hamming_poly,
)
from polyham.neighbors import (
    ClosestPairConfig,
    batch_nn,
    batch_nn_bruteforce,
    closest_pair,
    closest_pair_bruteforce,
)
from polyham.paireval import eval_all_pairs_masks, gf2_matmul_reference
from polyham.polyalg import Gf2Polynomial, binomial_matrix_det, interpolate_weights
from polyham.probpoly import (
    SymmetricFunctionSpec,
    ThresholdSpec,
    boundary_inputs,
    degree_bound,
    jump_sets,
    measure_symmetric_error,
    measure_threshold_error,
    sample_threshold,
)
from polyham.reductions import (
    IntVector,
    extreme_inner_product,
    extreme_inner_product_bruteforce,
    find_orthogonal_pair,
    l1_batch_nn,
    l1_batch_nn_bruteforce,
    max_jaccard_bruteforce,
    max_jaccard_pair,
    unary_encode,
)
from polyham.vectors import BitVector, Dataset, hamming_distance, inner_product, pack_rows


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. degree bound
# ---------------------------------------------------------------------------


def test_acceptance_1_degree_bound():
    ok = True
    for n in (10, 50, 200, 10**3, 10**4):
        for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(24, 100)):
            bound = min(n, degree_bound(n, eps))
            for seed in range(10):
                c = sample_threshold(
                    ThresholdSpec(n, Fraction(1, 2), eps), np.random.default_rng(seed)
                )
                ok &= c.structural_degree() <= bound
    report(1, "degree bound", ok)


# ---------------------------------------------------------------------------
# 2. interpolation exactness and unimodularity
# ---------------------------------------------------------------------------


def test_acceptance_2_interpolation():
    rng = np.random.default_rng(0)
    ok = True
    for n in range(1, 21):
        for k in range(-1, n):
            for r in range(1, n - k + 1):
                c = [int(x) for x in rng.integers(-50, 51, size=r)]
                p = interpolate_weights(n, k, r, c)
                ok &= p.degree() <= r - 1
                for i in range(1, r + 1):
                    w = k + i
                    ok &= p.eval_mask((1 << w) - 1) == c[i - 1]
                    # symmetry makes one representative per weight sufficient;
                    # spot-check a random same-weight vector anyway
                    pos = rng.choice(n, size=w, replace=False)
                    mask = 0
                    for b in pos:
                        mask |= 1 << int(b)
                    ok &= p.eval_mask(mask) == c[i - 1]
    for k in range(0, 21):
        for r in range(1, 13):
            ok &= binomial_matrix_det(k, r) == 1
    report(2, "interpolation exactness", ok)


# ---------------------------------------------------------------------------
# 3. probabilistic correctness of the threshold circuits
# ---------------------------------------------------------------------------


def test_acceptance_3_threshold_error():
    n, trials = 10**4, 500
    theta = Fraction(1, 2)
    rng = np.random.default_rng(1)
    ok = True
    for eps in (Fraction(1, 10), Fraction(24, 100)):
        spec = ThresholdSpec(n, theta, eps)
        probe = sample_threshold(spec, rng)
        ok &= probe.kind == "recursive"
        inputs = boundary_inputs(n, theta)
        inputs += [BitVector.random(rng, n) for _ in range(50)]
        reports = measure_threshold_error(spec, inputs, trials, rng)
        sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
        floor = 1 - float(eps) - 3 * sigma
        ok &= all(r.agreement >= floor for r in reports)
    report(3, "threshold error guarantee", ok)


# ---------------------------------------------------------------------------
# 4. symmetric functions
# ---------------------------------------------------------------------------


def _decomposition_matches(values) -> bool:
    ups, downs = jump_sets(values)
    for w in range(len(values)):
        got = values[0]
        got += sum(1 for i in ups if w >= i)
        got -= sum(1 for i in downs if w >= i)
        if got != values[w]:
            return False
    return True


def test_acceptance_4_symmetric_functions():
    rng = np.random.default_rng(2)
    ok = True
    # exact decomposition with true thresholds: exhaustive tables for n <= 9,
    # and a 10^3 random sample across n <= 16
    for n in range(1, 10):
        for table in range(1 << (n + 1)):
            ok &= _decomposition_matches(tuple((table >> i) & 1 for i in range(n + 1)))
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        ok &= _decomposition_matches(tuple(int(b) for b in rng.integers(0, 2, n + 1)))

    # sampled combinations at n = 10^4: alternating pattern and exact-weight
    n, trials, eps = 10**4, 500, Fraction(1, 10)
    sigma = math.sqrt(float(eps) * (1 - float(eps)) / trials)
    floor = 1 - float(eps) - 3 * sigma
    for values in (
        tuple(int(w % 2) for w in range(n + 1)),
        tuple(int(w == n // 2) for w in range(n + 1)),
    ):
        spec = SymmetricFunctionSpec(n, values)
        inputs = [BitVector(n, (1 << w) - 1) for w in (n // 2 - 1, n // 2, n // 2 + 1)]
        inputs += [BitVector.random(rng, n) for _ in range(50)]
        reports = measure_symmetric_error(spec, eps, inputs, trials, rng)
        ok &= all(r.agreement >= floor for r in reports)
    report(4, "symmetric functions", ok)


# ---------------------------------------------------------------------------
# 5. group predicate polynomial
# ---------------------------------------------------------------------------


def _powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_acceptance_5_hamming_polynomial():
    ok = True
    rng = np.random.default_rng(3)
    # exhaustive three-quarters law with the true inner predicate, s in {1,2}
    for s in (1, 2):
        d, k = 3, 1
        spec = GroupPredicateSpec(s, d, k)
        true_p = lambda z: int(z.bit_count() >= k + 1)
        xs = [BitVector.random(rng, d) for _ in range(s)]
        ys = [BitVector.random(rng, d) for _ in range(s)]
        ys[0] = xs[0]
        ones = total = 0
        pairs = [(i, j) for i in range(s) for j in range(s)]
        for r1 in _powerset(pairs):
            for r2 in _powerset(pairs):
                total += 1
                ones += eval_group_pair_with(spec, frozenset(r1), frozenset(r2), xs, ys, true_p)
        ok &= ones * 4 == total * 3

    # one-sided certainty: no close pair means q = 0, always
    d, k, s = 6, 1, 3
    spec = GroupPredicateSpec(s, d, k)
    true_p = lambda z: int(z.bit_count() >= k + 1)
    checked = 0
    while checked < 200:
        xs = [BitVector.random(rng, d) for _ in range(s)]
        ys = [BitVector.random(rng, d) for _ in range(s)]
        if group_pair_truth(spec, xs, ys):
            continue
        checked += 1
        hp = sample_hamming_poly(spec, rng)
        ok &= eval_group_pair_with(spec, hp.r1, hp.r2, xs, ys, true_p) == 0

    # sampled inner polynomial at s = 25: empirical agreement >= 2/3
    s, d, k = 25, 8, 2
    spec = GroupPredicateSpec(s, d, k)
    xs = [BitVector.random(rng, d) for _ in range(s)]
    ys = [BitVector.random(rng, d) for _ in range(s)]
    ys[7] = xs[3]  # plant a close pair
    far_xs = [BitVector.zeros(d) for _ in range(s)]
    far_ys = [BitVector.ones(d) for _ in range(s)]
    trials = 1000
    close_hits = far_hits = 0
    for _ in range(trials):
        hp = sample_hamming_poly(spec, rng)
        close_hits += int(eval_group_pair(hp, xs, ys) == 1)
        far_hits += int(eval_group_pair(hp, far_xs, far_ys) == 0)
    ok &= close_hits / trials >= 2 / 3
    ok &= far_hits / trials >= 2 / 3
    report(5, "group predicate polynomial", ok)


# ---------------------------------------------------------------------------
# 6. all-pairs matrix evaluation
# ---------------------------------------------------------------------------


def _random_poly_masks(rng, nvars, nterms):
    nterms = min(nterms, 1 << nvars)
    monos = set()
    attempts = 0
    while len(monos) < nterms and attempts < 30 * nterms:
        attempts += 1
        size = int(rng.integers(0, min(nvars, 8) + 1))
        monos.add(tuple(sorted(rng.choice(nvars, size=size, replace=False).tolist())))
    return Gf2Polynomial(nvars, monos)


def _indicator(terms, nvars):
    out = np.zeros((len(terms), nvars), dtype=np.uint8)
    for row, mono in enumerate(terms):
        out[row, list(mono)] = 1
    return out


def test_acceptance_6_all_pairs_evaluation():
    rng = np.random.default_rng(4)
    ok = True
    for case in range(100):
        if case < 4:
            na = nb = 256
            nterms = 4096
            xw = yw = 10
        else:
            xw = int(rng.integers(2, 11))
            yw = int(rng.integers(2, 11))
            na = int(rng.integers(1, 129))
            nb = int(rng.integers(1, 129))
            nterms = int(rng.integers(1, 1025))
        p = _random_poly_masks(rng, xw + yw, nterms)
        a_bits = rng.integers(0, 2, size=(na, xw)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(nb, yw)).astype(np.uint8)
        indicator = _indicator(sorted(p.terms), xw + yw)
        got = eval_all_pairs_masks(pack_rows(indicator), xw, a_bits, b_bits)
        # word-free reference product on features built from the terms:
        # a monomial's x-part holds on a point iff it misses none of its bits
        onehot = indicator.T.astype(np.int64)
        fa = (1 - a_bits.astype(np.int64)) @ onehot[:xw] == 0
        fb = (1 - b_bits.astype(np.int64)) @ onehot[xw:] == 0
        ok &= np.array_equal(got, gf2_matmul_reference(fa, fb))
        # direct pointwise evaluation on sampled entries
        for _ in range(20):
            i = int(rng.integers(0, na))
            j = int(rng.integers(0, nb))
            mask = 0
            for v, bit in enumerate(a_bits[i]):
                mask |= int(bit) << v
            for v, bit in enumerate(b_bits[j]):
                mask |= int(bit) << (xw + v)
            ok &= int(got[i, j]) == p.eval_mask(mask)
    report(6, "all-pairs evaluation", ok)


# ---------------------------------------------------------------------------
# 7. end-to-end closest pair and batch nearest neighbors
# ---------------------------------------------------------------------------


def _planted_instance(rng, n, d, planted_distance):
    red = [BitVector.random(rng, d) for _ in range(n)]
    blue = [BitVector.random(rng, d) for _ in range(n)]
    ri = int(rng.integers(0, n))
    bi = int(rng.integers(0, n))
    flip = 0
    for pos in rng.permutation(d)[:planted_distance]:
        flip |= 1 << int(pos)
    blue[bi] = BitVector(d, red[ri].bits ^ flip)
    return red, blue


def _run_closest(ds, seed):
    got = closest_pair(ds, ClosestPairConfig(), np.random.default_rng(seed))
    want = closest_pair_bruteforce(ds)
    # soundness: the reported pair exists at the reported distance, and the
    # reported distance never undercuts the true minimum
    sound = (
        hamming_distance(ds.red[got[0]], ds.blue[got[1]]) == got[2]
        and got[2] >= want[2]
    )
    return got == want, sound


def _run_batch(db, queries, seed):
    res = batch_nn(db, queries, ClosestPairConfig(), np.random.default_rng(seed))
    want = batch_nn_bruteforce(db, queries)
    sound = all(
        hamming_distance(db[i], queries[q]) == dist and dist >= want.entries[q][2]
        for q, i, dist in res.entries
    )
    return res.entries == want.entries, sound


def test_acceptance_7_end_to_end():
    cells = [(256, 16), (512, 27), (1024, 40)]
    ok = True
    total = {"closest": 0, "batch": 0}
    matched = {"closest": 0, "batch": 0}
    retried_ok = True
    sound_failures = 0
    for n, d in cells:
        for kind in ("random", "planted"):
            for inst in range(20):
                gen = np.random.default_rng([n, d, inst, kind == "planted"])
                if kind == "random":
                    red = [BitVector.random(gen, d) for _ in range(n)]
                    blue = [BitVector.random(gen, d) for _ in range(n)]
                else:
                    red, blue = _planted_instance(gen, n, d, int(gen.integers(0, 4)))
                ds = Dataset(d, tuple(red), tuple(blue))
                seed = inst + 1000 * n

                match, sound = _run_closest(ds, seed)
                total["closest"] += 1
                matched["closest"] += int(match)
                sound_failures += int(not sound)
                if not match:
                    retry, sound2 = _run_closest(ds, seed + 10**7)
                    retried_ok &= retry
                    sound_failures += int(not sound2)

                match, sound = _run_batch(red, blue, seed)
                total["batch"] += 1
                matched["batch"] += int(match)
                sound_failures += int(not sound)
                if not match:
                    retry, sound2 = _run_batch(red, blue, seed + 10**7)
                    retried_ok &= retry
                    sound_failures += int(not sound2)

    for key in total:
        ok &= total[key] >= 100  # at least 100 seeded runs per solver
        ok &= matched[key] >= 0.95 * total[key]
    ok &= retried_ok
    ok &= sound_failures == 0
    report(7, "end-to-end closest pair and batch NN", ok)


# ---------------------------------------------------------------------------
# 8. reductions
# ---------------------------------------------------------------------------


def test_acceptance_8_reductions():
    rng = np.random.default_rng(5)
    ok = True
    # identities, exhaustively at small sizes
    from itertools import product

    for dim in (1, 2, 3):
        for m in (1, 2, 3):
            for xs in product(range(m + 1), repeat=dim):
                for ys in product(range(m + 1), repeat=dim):
                    x, y = IntVector(xs, m), IntVector(ys, m)
                    l1 = sum(abs(a - b) for a, b in zip(xs, ys))
                    ok &= hamming_distance(unary_encode(x), unary_encode(y)) == l1
    for mask_u in range(16):
        for mask_v in range(16):
            u, v = BitVector(4, mask_u), BitVector(4, mask_v)
            from polyham.vectors import complement

            ok &= hamming_distance(u, v) + hamming_distance(u, complement(v)) == 4
            ok &= hamming_distance(u, v) == u.weight() + v.weight() - 2 * inner_product(u, v)

    # oracle equivalence over 100 seeded runs per reduction, zero soundness
    cfg = ClosestPairConfig()
    counts = {"l1": 0, "min": 0, "max": 0, "orth": 0, "jaccard": 0}
    runs = 100
    sound_failures = 0
    for seed in range(runs):
        r = np.random.default_rng(seed)
        n, d = 64, 10
        ds = Dataset(
            d,
            tuple(BitVector.random(r, d) for _ in range(n)),
            tuple(BitVector.random(r, d) for _ in range(n)),
        )
        mk = lambda off: np.random.default_rng(seed + off * 7919)

        got = extreme_inner_product(ds, "min", cfg, mk(1))
        sound_failures += int(inner_product(ds.red[got[0]], ds.blue[got[1]]) != got[2])
        counts["min"] += int(got == extreme_inner_product_bruteforce(ds, "min"))

        got = extreme_inner_product(ds, "max", cfg, mk(2))
        sound_failures += int(inner_product(ds.red[got[0]], ds.blue[got[1]]) != got[2])
        counts["max"] += int(got == extreme_inner_product_bruteforce(ds, "max"))

        orth = find_orthogonal_pair(ds, cfg, mk(3))
        want_min = extreme_inner_product_bruteforce(ds, "min")[2]
        if orth is not None:
            sound_failures += int(inner_product(ds.red[orth[0]], ds.blue[orth[1]]) != 0)
        counts["orth"] += int((orth is not None) == (want_min == 0))

        got = max_jaccard_pair(ds, cfg, mk(4))
        from polyham.reductions import jaccard_coefficient

        sound_failures += int(jaccard_coefficient(ds.red[got[0]], ds.blue[got[1]]) != got[2])
        counts["jaccard"] += int(got == max_jaccard_bruteforce(ds))

        m, dim = 4, 6
        db = [IntVector(tuple(int(v) for v in r.integers(0, m + 1, dim)), m) for _ in range(48)]
        qs = [IntVector(tuple(int(v) for v in r.integers(0, m + 1, dim)), m) for _ in range(48)]
        res = l1_batch_nn(db, qs, cfg, mk(5))
        want = l1_batch_nn_bruteforce(db, qs)
        from polyham.reductions import l1_distance

        sound_failures += sum(
            int(l1_distance(db[i], qs[q]) != dist) for q, i, dist in res.entries
        )
        counts["l1"] += int(res.entries == want.entries)

    ok &= sound_failures == 0
    ok &= all(count >= 95 for count in counts.values())
    report(8, "reductions", ok)


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_acceptance_9_determinism(tmp_path, capsys):
    ok = True
    ds_file = tmp_path / "ds.txt"
    db_file = tmp_path / "db.txt"

    def run(argv):
        code = cli.run(argv)
        out = capsys.readouterr().out
        return code, out

    code, _ = run(["gen", "--n", "48", "--d", "8", "--seed", "5", "--out", str(ds_file)])
    ok &= code == 0
    first = ds_file.read_bytes()
    run(["gen", "--n", "48", "--d", "8", "--seed", "5", "--out", str(ds_file)])
    ok &= ds_file.read_bytes() == first

    run(["gen", "--n", "32", "--d", "6", "--seed", "6", "--out", str(db_file)])
    commands = [
        ["closest-pair", "--input", str(ds_file), "--seed", "3"],
        ["closest-pair", "--input", str(db_file), "--seed", "3", "--s", "1", "--rounds", "5"],
        ["batch-nn", "--db", str(db_file), "--queries", str(db_file), "--seed", "4"],
        ["sample-poly", "--n", "10000", "--eps", "0.1", "--seed", "7"],
        ["verify-error", "--n", "300", "--eps", "0.2", "--trials", "40", "--seed", "8"],
        ["min-ip", "--input", str(ds_file), "--seed", "9"],
        ["jaccard", "--input", str(ds_file), "--seed", "10"],
    ]
    for argv in commands:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        ok &= code1 == code2 == 0
        ok &= out1 == out2

    # library-level: same seed, same results, in both modes
    rng = np.random.default_rng(11)
    red = tuple(BitVector.random(rng, 6) for _ in range(30))
    blue = tuple(BitVector.random(rng, 6) for _ in range(30))
    ds = Dataset(6, red, blue)
    for cfg in (ClosestPairConfig(monomial_budget=0), ClosestPairConfig(s=1, rounds=5)):
        a = closest_pair(ds, cfg, np.random.default_rng(1))
        b = closest_pair(ds, cfg, np.random.default_rng(1))
        ok &= a == b
        ra = batch_nn(red, blue, cfg, np.random.default_rng(2))
        rb = batch_nn(red, blue, cfg, np.random.default_rng(2))
        ok &= ra.entries == rb.entries
    report(9, "determinism", ok)
