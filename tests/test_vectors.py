import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyham.errors import DimensionMismatchError, EmptyInputError, ParseError
from polyham.vectors import (
    BitVector,
    Dataset,
    bit_matrix,
    complement,
    distance_tiles,
    dump_dataset,
    hamming_distance,
    inner_product,
    load_dataset,
    pack_rows,
    pack_vectors,
    packed_distance_matrix,
)


def test_hamming_examples():
    assert hamming_distance(BitVector.from_string("0101"), BitVector.from_string("0110")) == 2
    x = BitVector.from_string("0101")
    assert hamming_distance(x, x) == 0
    u = BitVector.from_string("1010")
    assert hamming_distance(u, complement(u)) == 4


def test_inner_product_examples():
    assert inner_product(BitVector.from_string("110"), BitVector.from_string("101")) == 1
    u = BitVector.from_string("1011")
    assert inner_product(u, BitVector.zeros(4)) == 0
    ones = BitVector.from_string("111")
    assert inner_product(ones, ones) == 3


def test_complement_examples():
    assert complement(BitVector.from_string("0101")).to_string() == "1010"
    assert complement(BitVector.from_string("0000")).to_string() == "1111"
    u, v = BitVector.from_string("0011"), BitVector.from_string("0101")
    assert hamming_distance(u, v) + hamming_distance(u, complement(v)) == 4


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        hamming_distance(BitVector.from_string("01"), BitVector.from_string("011"))
    with pytest.raises(DimensionMismatchError):
        inner_product(BitVector.from_string("01"), BitVector.from_string("011"))


def test_canonical_padding_and_equality():
    # bits beyond dim are zeroed at construction
    v = BitVector(4, 0b11110101)
    assert v.to_string() == "1010"
    assert v == BitVector.from_string("1010")
    assert v.words == (0b0101,)
    assert BitVector(100, 1 << 99).words[1] == 1 << 35


def test_weight_identity_bulk():
    # H(u, v) = |u| + |v| - 2*<u, v> on >= 10^4 random pairs
    rng = np.random.default_rng(0)
    dim = 67
    a = rng.integers(0, 2, size=(10_000, dim)).astype(np.uint8)
    b = rng.integers(0, 2, size=(10_000, dim)).astype(np.uint8)
    h = (a != b).sum(axis=1)
    ip = (a & b).sum(axis=1)
    assert np.array_equal(h, a.sum(1) + b.sum(1) - 2 * ip)
    # spot-check the packed implementation against the arrays on a sample
    for i in rng.integers(0, 10_000, size=200):
        u = BitVector.from_bits(a[i].tolist())
        v = BitVector.from_bits(b[i].tolist())
        assert hamming_distance(u, v) == int(h[i])
        assert inner_product(u, v) == int(ip[i])


def test_metric_properties_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(300):
        dim = int(rng.integers(1, 80))
        u, v, w = (BitVector.random(rng, dim) for _ in range(3))
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)
        assert hamming_distance(u, u) == 0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=120))
def test_complement_involution(bits):
    v = BitVector.from_bits(bits)
    assert complement(complement(v)) == v
    assert complement(v).weight() == v.dim - v.weight()


def test_load_dataset_text01():
    ds = load_dataset("R\n010\nB\n011\n")
    assert ds.dim == 3
    assert ds.red == (BitVector.from_string("010"),)
    assert ds.blue == (BitVector.from_string("011"),)


def test_load_dataset_empty_blue_is_legal():
    ds = load_dataset("R\n010\n110\nB\n")
    assert len(ds.red) == 2 and ds.blue == ()


@pytest.mark.parametrize(
    "text,line",
    [
        ("R\n01a\nB\n", 2),
        ("R\n010\n01\nB\n", 3),
        ("010\nR\nB\n", 1),
        ("R\n01\n0b1\nB\n", 3),
        ("R\n01\nB\n1_0\n", 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        load_dataset(text)
    assert exc.value.line == line


@pytest.mark.parametrize("s", ["", "0b101", "1_0", "+1", " 1", "012"])
def test_from_string_takes_only_zeros_and_ones(s):
    # int(s, 2) alone accepts several of these
    with pytest.raises(ValueError, match="^not a 0/1 string: "):
        BitVector.from_string(s)


@pytest.mark.parametrize(
    "text,line",
    [
        ("dim=8\nR\n+1\nB\n", 3),
        ("dim=12\nR\n000\n1_2\nB\n", 4),
        ("dim=12\nR\nB\n0x1\n", 4),
        ("dim=8\nR\n 0f\n-1\nB\n", 4),
        ("dim=10\nR\nfff\nB\n", 3),  # the two padding bits are set
        ("dim=10\nR\nffc\nB\n001\n", 5),  # 001 sets one padding bit
        ("dim=1_0\nR\nB\n", 1),
        ("dim=+10\nR\nB\n", 1),
        ("dim=0x8\nR\nB\n", 1),
    ],
)
def test_hex_takes_only_hex_digits_and_zero_padding(text, line):
    # int(s, 16) alone accepts "+1", "1_2" and "0x1", and reading fff at
    # dim 10 would drop its set padding bits
    with pytest.raises(ParseError) as exc:
        load_dataset(text, "hex")
    assert exc.value.line == line


def test_hex_allows_surrounding_spaces_and_both_cases():
    ds = load_dataset(" dim= 10 \nR\n FFC \nB\n\t004\n", "hex")
    assert ds.red == (BitVector.ones(10),)
    assert ds.blue == (BitVector.from_string("0000000001"),)


def test_missing_section_header():
    with pytest.raises(ParseError):
        load_dataset("R\n010\n")


def test_round_trip_text01_and_hex():
    rng = np.random.default_rng(2)
    for dim in (1, 7, 8, 9, 64, 65):
        red = tuple(BitVector.random(rng, dim) for _ in range(5))
        blue = tuple(BitVector.random(rng, dim) for _ in range(3))
        ds = Dataset(dim, red, blue)
        for fmt in ("text01", "hex"):
            assert load_dataset(dump_dataset(ds, fmt), fmt) == ds


def test_round_trip_whitespace_and_comments():
    text = "# comment\nR\n 010 \n\nB\n# another\n011\n"
    ds = load_dataset(text)
    assert dump_dataset(ds) == "R\n010\nB\n011\n"
    assert load_dataset(dump_dataset(ds)) == ds


def test_load_dataset_accepts_streams():
    ds = load_dataset(io.StringIO("R\n01\nB\n10\n"))
    assert ds.dim == 2


def test_hex_requires_dim_header():
    with pytest.raises(ParseError):
        load_dataset("R\nff\nB\n", "hex")


def test_packed_helpers_agree_with_bits():
    rng = np.random.default_rng(3)
    vecs = [BitVector.random(rng, 130) for _ in range(9)]
    bits = bit_matrix(vecs)
    assert bits.shape == (9, 130)
    packed = pack_vectors(vecs)
    assert np.array_equal(packed, pack_rows(bits))
    dmat = packed_distance_matrix(packed, packed)
    for i in range(9):
        for j in range(9):
            assert dmat[i, j] == hamming_distance(vecs[i], vecs[j])


def test_dataset_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Dataset(3, (BitVector.from_string("01"),), ())
    with pytest.raises(EmptyInputError):
        Dataset.from_lists([], [])


def test_vectors_are_immutable():
    v = BitVector.from_string("01")
    with pytest.raises(AttributeError):
        v.dim = 5


# ---------------------------------------------------------------------------
# packed_distance_matrix against a pure-Python oracle
# ---------------------------------------------------------------------------


def naive_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python-int XOR popcount over every row pair of two (n, W) word arrays."""
    ra = [int.from_bytes(row.tobytes(), "little") for row in a]
    rb = [int.from_bytes(row.tobytes(), "little") for row in b]
    return np.array([[(x ^ y).bit_count() for y in rb] for x in ra], dtype=np.int64).reshape(
        len(ra), len(rb)
    )


def random_words(rng, shape, d):
    """Random packed rows of d bits, zero above bit d like pack_vectors."""
    words = rng.integers(0, 1 << 64, size=shape + ((d + 63) // 64,), dtype=np.uint64)
    if d % 64:
        words[..., -1] &= np.uint64((1 << (d % 64)) - 1)
    return words


@pytest.mark.parametrize("d", [1, 4, 63, 64, 65, 128, 1000])
def test_distance_kernel_matches_oracle(d, monkeypatch):
    rng = np.random.default_rng(d)
    a, b = random_words(rng, (37,), d), random_words(rng, (53,), d)
    want = naive_distances(a, b)
    assert np.array_equal(packed_distance_matrix(a, b), want)
    assert np.array_equal(packed_distance_matrix(np.asfortranarray(a), b[::-1]), want[:, ::-1])
    # a budget of a few hundred bytes forces many tiles whose extents do
    # not divide 37 or 53, and word chunks at the wider dimensions
    monkeypatch.setattr("polyham.vectors.DISTANCE_BUDGET_BYTES", 700)
    assert np.array_equal(packed_distance_matrix(a, b), want)


@pytest.mark.parametrize("d", [65, 128, 1000])
def test_distance_kernel_branches_agree(d, monkeypatch):
    rng = np.random.default_rng(d + 1)
    a, b = random_words(rng, (40,), d), random_words(rng, (29,), d)
    blas = packed_distance_matrix(a, b)
    monkeypatch.setattr("polyham.vectors._FLOAT32_EXACT_BITS", 0)  # XOR-popcount only
    xor = packed_distance_matrix(a, b)
    assert blas.dtype == xor.dtype == np.int64
    assert np.array_equal(blas, xor)
    # the tiles keep the dtype that computed them: small unsigned integers
    assert {t.dtype.kind for *_, t in distance_tiles(a, b)[1]} == {"u"}
    monkeypatch.undo()
    assert {t.dtype for *_, t in distance_tiles(a, b)[1]} == {np.dtype(np.float32)}


@pytest.mark.parametrize("d", [4, 64, 200])
def test_distance_kernel_stacked_inputs_broadcast(d, monkeypatch):
    rng = np.random.default_rng(7)
    a = random_words(rng, (2, 1, 5), d)
    b = random_words(rng, (3, 4), d)
    want = np.empty((2, 3, 5, 4), dtype=np.int64)
    for i in range(2):
        for j in range(3):
            want[i, j] = naive_distances(a[i, 0], b[j])
    assert np.array_equal(packed_distance_matrix(a, b), want)
    assert np.array_equal(packed_distance_matrix(a[0, 0], b), want[0])
    monkeypatch.setattr("polyham.vectors.DISTANCE_BUDGET_BYTES", 300)
    assert np.array_equal(packed_distance_matrix(a, b), want)


def test_distance_kernel_empty_and_mismatched_shapes():
    rng = np.random.default_rng(0)
    a = random_words(rng, (3,), 70)
    assert packed_distance_matrix(a, a[:0]).shape == (3, 0)
    assert packed_distance_matrix(a[None][:0], a).shape == (0, 3, 3)
    assert np.array_equal(packed_distance_matrix(a[:, :0], a[:2, :0]), np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        packed_distance_matrix(a, a[:, :1])
    with pytest.raises(DimensionMismatchError):
        packed_distance_matrix(a[0], a)


def test_distance_kernel_temporaries_fit_budget():
    import tracemalloc

    from polyham.vectors import DISTANCE_BUDGET_BYTES

    rng = np.random.default_rng(5)
    a = random_words(rng, (4096,), 2048)
    b = random_words(rng, (4096,), 2048)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = packed_distance_matrix(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4096, 4096)
    assert peak - before - out.nbytes <= DISTANCE_BUDGET_BYTES
    rows = rng.choice(4096, size=40, replace=False)
    assert np.array_equal(out[rows][:, rows], naive_distances(a[rows], b[rows]))
