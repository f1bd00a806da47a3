import os
import subprocess
import sys

import numpy as np
import pytest

from polyham import paireval
from polyham.errors import DimensionMismatchError, InvalidParametersError, ResourceBudgetError
from polyham.paireval import (
    _features,
    eval_all_pairs,
    eval_all_pairs_masks,
    gf2_matmul,
    gf2_matmul_reference,
)
from polyham.polyalg import Gf2Polynomial
from polyham.vectors import BitVector, bit_matrix, pack_rows


def random_gf2(rng, nvars, nterms):
    nterms = min(nterms, 1 << min(nvars, 10))  # can't exceed distinct monomials
    monos = set()
    attempts = 0
    while len(monos) < nterms and attempts < 20 * nterms:
        attempts += 1
        size = int(rng.integers(0, min(nvars, 6) + 1))
        monos.add(tuple(sorted(rng.choice(nvars, size=size, replace=False).tolist())))
    return Gf2Polynomial(nvars, monos)


def term_masks(p):
    """(m, W) uint64 word masks of p's monomials, in sorted monomial order."""
    bits = np.zeros((len(p.terms), p.nvars), dtype=np.uint8)
    for row, mono in enumerate(sorted(p.terms)):
        bits[row, list(mono)] = 1
    return pack_rows(bits)


def wordfree_pairs(p, a_bits, b_bits):
    """Reference all-pairs values: features from p.terms, integer product mod 2."""
    xw = a_bits.shape[1]
    terms = sorted(p.terms)
    fa = np.array([[all(row[v] for v in m if v < xw) for m in terms] for row in a_bits])
    fb = np.array([[all(row[v - xw] for v in m if v >= xw) for m in terms] for row in b_bits])
    return gf2_matmul_reference(fa.reshape(len(a_bits), -1), fb.reshape(len(b_bits), -1))


def test_and_truth_table():
    p = Gf2Polynomial(2, [(0, 1)])  # x0 * y0 with single-bit blocks
    a = [BitVector.from_string("1"), BitVector.from_string("0")]
    b = [BitVector.from_string("1"), BitVector.from_string("0")]
    out = eval_all_pairs(p, a, b)
    assert out.tolist() == [[1, 0], [0, 0]]


def test_constant_one_gives_all_ones():
    p = Gf2Polynomial(4, [()])
    rng = np.random.default_rng(0)
    a = [BitVector.random(rng, 2) for _ in range(5)]
    b = [BitVector.random(rng, 2) for _ in range(7)]
    assert eval_all_pairs(p, a, b).all()


def test_empty_polynomial_gives_zeros():
    p = Gf2Polynomial(4)
    rng = np.random.default_rng(0)
    a = [BitVector.random(rng, 2) for _ in range(3)]
    b = [BitVector.random(rng, 2) for _ in range(4)]
    assert not eval_all_pairs(p, a, b).any()


def test_matrix_matches_pointwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        xw = int(rng.integers(1, 9))
        yw = int(rng.integers(1, 9))
        p = random_gf2(rng, xw + yw, int(rng.integers(1, 200)))
        na, nb = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        a = [BitVector.random(rng, xw) for _ in range(na)]
        b = [BitVector.random(rng, yw) for _ in range(nb)]
        out = eval_all_pairs(p, a, b)
        for i in range(na):
            for j in range(nb):
                mask = a[i].bits | (b[j].bits << xw)
                assert out[i, j] == p.eval_mask(mask)


def test_matrix_matches_wordfree_reference_large():
    # property: the float32 product mod 2 equals the plain integer product
    rng = np.random.default_rng(2)
    for na, nb, m in [(256, 256, 4096), (100, 37, 513), (5, 260, 64), (3, 2, 4099)]:
        fa = rng.integers(0, 2, size=(na, m)).astype(np.uint8)
        fb = rng.integers(0, 2, size=(nb, m)).astype(np.uint8)
        if m == 4099:  # all ones: an odd sum past 2^12, which float16 rounds
            fa[:], fb[:] = 1, 1
        got = gf2_matmul(fa.astype(np.float32), fb.astype(np.float32))
        want = gf2_matmul_reference(fa, fb)
        assert np.array_equal(got, want)


def test_gf2_matmul_rejects_inexact_width():
    # float32 sums are exact integers only below 2^24 columns; zero rows
    # keep the check free of any allocation
    ok = np.zeros((0, (1 << 24) - 1), dtype=np.float32)
    assert gf2_matmul(ok, ok).shape == (0, 0)
    wide = np.zeros((0, 1 << 24), dtype=np.float32)
    with pytest.raises(InvalidParametersError):
        gf2_matmul(wide, wide)


def test_output_independent_of_chunking(monkeypatch):
    rng = np.random.default_rng(4)
    p = random_gf2(rng, 12, 300)
    a = [BitVector.random(rng, 6) for _ in range(90)]
    b = [BitVector.random(rng, 6) for _ in range(90)]
    want = wordfree_pairs(p, bit_matrix(a), bit_matrix(b))
    assert np.array_equal(eval_all_pairs(p, a, b), want)
    for cols in (1, 2, 7, 33):
        # 20 bytes per feature cell, one column per (90 + 90) points
        monkeypatch.setattr(paireval, "DISTANCE_BUDGET_BYTES", cols * 20 * 180)
        assert np.array_equal(eval_all_pairs(p, a, b), want)


def test_output_independent_of_blas_threads():
    # 300 x 300 points and 3,000 two-word masks: large enough that BLAS
    # splits the product between threads when it may
    script = (
        "import hashlib, numpy as np\n"
        "from polyham.paireval import eval_all_pairs_masks\n"
        "from polyham.vectors import pack_rows\n"
        "rng = np.random.default_rng(13)\n"
        "masks = pack_rows((rng.random((3000, 120)) < 0.03).astype(np.uint8))\n"
        "a = (rng.random((300, 60)) < 0.8).astype(np.uint8)\n"
        "b = (rng.random((300, 60)) < 0.8).astype(np.uint8)\n"
        "out = eval_all_pairs_masks(masks, 60, a, b)\n"
        "print(hashlib.sha256(out.tobytes()).hexdigest(), out.min() < out.max())\n"
    )
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert outputs.pop().split()[1] == "True"  # the output is not constant


def test_mask_variant_matches_tuple_variant():
    rng = np.random.default_rng(5)
    for xw, yw, nterms in [(8, 8, 220), (40, 50, 300)]:
        p = random_gf2(rng, xw + yw, nterms)
        a_bits = rng.integers(0, 2, size=(40, xw)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(30, yw)).astype(np.uint8)
        masks = term_masks(p)
        assert masks.shape == (p.monomial_count(), (xw + yw + 63) // 64)
        got = eval_all_pairs_masks(masks, xw, a_bits, b_bits)
        for i, a_row in enumerate(a_bits):
            for j, b_row in enumerate(b_bits):
                point = np.concatenate([a_row, b_row])
                mask = sum(int(bit) << v for v, bit in enumerate(point))
                assert got[i, j] == p.eval_mask(mask)


def test_feature_matrix_semantics():
    pts = pack_rows(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    masks = pack_rows(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]], dtype=np.uint8))
    feats = _features(pts, masks)
    assert feats.dtype == np.float32
    assert feats.tolist() == [[1, 1, 0], [1, 0, 1]]
    # a two-word point has a mask only if it has the mask's bits in every word
    wide = np.zeros((2, 100), dtype=np.uint8)
    wide[0, [3, 70]] = 1
    wide[1, [3]] = 1
    mask = np.zeros((1, 100), dtype=np.uint8)
    mask[0, [3, 70]] = 1
    assert _features(pack_rows(wide), pack_rows(mask)).tolist() == [[1], [0]]


def test_monomial_budget_enforced():
    rng = np.random.default_rng(6)
    p = random_gf2(rng, 8, 120)
    a = [BitVector.random(rng, 4) for _ in range(4)]
    b = [BitVector.random(rng, 4) for _ in range(4)]
    with pytest.raises(ResourceBudgetError):
        eval_all_pairs(p, a, b, budget=100)


def test_budget_counts_monomials_not_words():
    rng = np.random.default_rng(7)
    p = random_gf2(rng, 100, 50)
    masks = term_masks(p)
    m = masks.shape[0]
    assert masks.shape[1] == 2
    a_bits = rng.integers(0, 2, size=(3, 40)).astype(np.uint8)
    b_bits = rng.integers(0, 2, size=(4, 60)).astype(np.uint8)
    eval_all_pairs_masks(masks, 40, a_bits, b_bits, budget=m)
    with pytest.raises(ResourceBudgetError) as exc:
        eval_all_pairs_masks(masks, 40, a_bits, b_bits, budget=m - 1)
    assert exc.value.projected == m


def test_block_width_mismatch_rejected():
    p = Gf2Polynomial(6, [(0,)])
    a = [BitVector.from_string("01")]
    b = [BitVector.from_string("011")]
    with pytest.raises(DimensionMismatchError):
        eval_all_pairs(p, a, b)
