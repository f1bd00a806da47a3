"""Bit-packed Boolean vectors, Hamming-space primitives, and datasets.

A :class:`BitVector` stores its coordinates packed into a single Python
integer (64-bit words end to end, coordinate ``i`` at bit position ``i``).
Bits at positions >= ``dim`` are forced to zero at construction, so storage
equality is vector equality and distance kernels never need to mask.

Vectors are immutable after construction and safe to share across workers.

Every exact Hamming distance between packed row sets comes from one tile
producer, :func:`distance_tiles`, which yields exact distance tiles within
``DISTANCE_BUDGET_BYTES``.  :func:`packed_distance_matrix` is the consumer
that writes them into one int64 array; ``neighbors`` reduces them to a
nearest row per column without one.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, ParseError

WORD_BITS = 64

# int() alone also takes "0b101", "0x1", "1_0", "+1" and surrounding spaces
_BITS01 = re.compile("[01]+")
_HEX = re.compile("[0-9a-fA-F]+")
_DIGITS = re.compile("[0-9]+")

__all__ = [
    "BitVector",
    "Dataset",
    "hamming_distance",
    "inner_product",
    "complement",
    "load_dataset",
    "dump_dataset",
    "bit_matrix",
    "pack_rows",
    "pack_vectors",
]


class BitVector:
    """A fixed-dimension 0/1 vector packed into 64-bit words.

    Attributes:
        dim:  Number of coordinates.
        bits: Packed storage as a nonnegative int; bit ``i`` is coordinate
              ``i`` and all bits at positions >= dim are zero.
    """

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if bits < 0:
            raise ValueError("bits must be nonnegative")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits & ((1 << dim) - 1))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BitVector is immutable")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        acc = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"coordinate values must be 0 or 1, got {v!r}")
            acc |= v << n
            n += 1
        if n == 0:
            raise ValueError("cannot build a 0-dimensional vector")
        return cls(n, acc)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse a 0/1 string; the leftmost character is coordinate 0."""
        if not _BITS01.fullmatch(s):
            raise ValueError(f"not a 0/1 string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    @classmethod
    def zeros(cls, dim: int) -> "BitVector":
        return cls(dim, 0)

    @classmethod
    def ones(cls, dim: int) -> "BitVector":
        return cls(dim, (1 << dim) - 1)

    @classmethod
    def random(cls, rng: np.random.Generator, dim: int) -> "BitVector":
        nbytes = (dim + 7) // 8
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint16).astype(np.uint8)
        return cls(dim, int.from_bytes(data.tobytes(), "little"))

    @property
    def words(self) -> tuple[int, ...]:
        """The packed 64-bit words, low word first."""
        n_words = (self.dim + WORD_BITS - 1) // WORD_BITS
        mask = (1 << WORD_BITS) - 1
        return tuple((self.bits >> (WORD_BITS * w)) & mask for w in range(n_words))

    def weight(self) -> int:
        """Hamming weight |x| (population count)."""
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def to_string(self) -> str:
        return format(self.bits, f"0{self.dim}b")[::-1]

    def to_hex(self) -> str:
        """Lowercase hex of the coordinate string read as a binary numeral (MSB first)."""
        width = (self.dim + 3) // 4
        padded = int(self.to_string().ljust(width * 4, "0"), 2)
        return format(padded, f"0{width}x")

    @classmethod
    def from_hex(cls, s: str, dim: int) -> "BitVector":
        width = (dim + 3) // 4
        if len(s) != width:
            raise ValueError(f"expected {width} hex digits for dim={dim}, got {len(s)}")
        if not _HEX.fullmatch(s):
            raise ValueError(f"not a hex string: {s!r}")
        pad = 4 * width - dim
        value = int(s, 16)
        if value & ((1 << pad) - 1):
            raise ValueError(f"{s!r} sets padding bits past dim={dim}")
        return cls.from_string(format(value >> pad, f"0{dim}b"))

    def __iter__(self) -> Iterator[int]:
        b = self.bits
        for _ in range(self.dim):
            yield b & 1
            b >>= 1

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.dim == other.dim
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))

    def __repr__(self) -> str:
        shown = self.to_string() if self.dim <= 64 else self.to_string()[:61] + "..."
        return f"BitVector({shown})"


def _check_same_dim(u: BitVector, v: BitVector) -> None:
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} != {v.dim}")


def hamming_distance(u: BitVector, v: BitVector) -> int:
    """Number of coordinates where u and v differ."""
    _check_same_dim(u, v)
    return (u.bits ^ v.bits).bit_count()


def inner_product(u: BitVector, v: BitVector) -> int:
    """Number of coordinates where u and v are both 1."""
    _check_same_dim(u, v)
    return (u.bits & v.bits).bit_count()


def complement(u: BitVector) -> BitVector:
    """Flip every coordinate."""
    return BitVector(u.dim, u.bits ^ ((1 << u.dim) - 1))


@dataclass(frozen=True)
class Dataset:
    """Red and blue vector collections sharing one dimension.

    Results elsewhere reference members by (color, 0-based index), so the
    tuples keep file order.
    """

    dim: int
    red: tuple[BitVector, ...]
    blue: tuple[BitVector, ...]

    def __post_init__(self):
        for side in (self.red, self.blue):
            for v in side:
                if v.dim != self.dim:
                    raise DimensionMismatchError(
                        f"dataset dim {self.dim} but member has dim {v.dim}"
                    )

    @classmethod
    def from_lists(cls, red: Sequence[BitVector], blue: Sequence[BitVector]) -> "Dataset":
        members = list(red) + list(blue)
        if not members:
            raise EmptyInputError("dataset needs at least one vector to fix its dimension")
        return cls(members[0].dim, tuple(red), tuple(blue))


# ---------------------------------------------------------------------------
# File formats.
#
# text01:  line "R", one 0/1 string per red vector, line "B", blue vectors.
#          All vector lines share one length; "#" starts a comment line.
# hex:     header line "dim=<d>" in decimal digits, then the same R/B
#          structure with vectors written as lowercase hex (coordinate
#          string read MSB-first); only hex digits are read, and the
#          padding bits past d must be zero.
# ---------------------------------------------------------------------------

FORMATS = ("text01", "hex")


def parse_decimal(token: str) -> int:
    """A non-negative integer written in decimal digits; surrounding spaces
    are allowed, signs and underscores are not."""
    if not _DIGITS.fullmatch(token.strip()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def load_dataset(source: str | bytes | IO, format: str = "text01") -> Dataset:
    """Parse a dataset from a string, bytes, or file-like object.

    Raises:
        ParseError: ragged lines, alphabet violations, or missing headers,
            with the offending 1-based line number.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if isinstance(source, bytes):
        text = source.decode("ascii")
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("ascii")

    dim: int | None = None
    red: list[BitVector] = []
    blue: list[BitVector] = []
    current: list[BitVector] | None = None
    seen = {"R": False, "B": False}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if format == "hex" and line.startswith("dim="):
            if dim is not None:
                raise ParseError("duplicate dim= header", lineno)
            try:
                dim = parse_decimal(line[4:])
            except ValueError:
                raise ParseError(f"bad dimension {line[4:]!r}", lineno) from None
            if dim <= 0:
                raise ParseError(f"dimension must be positive, got {dim}", lineno)
            continue
        if line in ("R", "B"):
            if seen[line]:
                raise ParseError(f"duplicate section header {line}", lineno)
            if line == "B" and not seen["R"]:
                raise ParseError("section B before section R", lineno)
            seen[line] = True
            current = red if line == "R" else blue
            continue
        if current is None:
            raise ParseError("vector before any section header", lineno)
        try:
            if format == "text01":
                vec = BitVector.from_string(line)
            else:
                if dim is None:
                    raise ParseError("vector before dim= header", lineno)
                vec = BitVector.from_hex(line, dim)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if dim is None:
            dim = vec.dim
        elif vec.dim != dim:
            raise ParseError(f"expected {dim} coordinates, got {vec.dim}", lineno)
        current.append(vec)

    if not seen["R"] or not seen["B"]:
        missing = "R" if not seen["R"] else "B"
        raise ParseError(f"missing section header {missing}")
    if dim is None:
        raise ParseError("dataset contains no vectors, dimension unknown")
    return Dataset(dim, tuple(red), tuple(blue))


def dump_dataset(ds: Dataset, format: str = "text01") -> str:
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    out = io.StringIO()
    if format == "hex":
        out.write(f"dim={ds.dim}\n")
    out.write("R\n")
    for v in ds.red:
        out.write((v.to_string() if format == "text01" else v.to_hex()) + "\n")
    out.write("B\n")
    for v in ds.blue:
        out.write((v.to_string() if format == "text01" else v.to_hex()) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# numpy views used by the batch kernels.
# ---------------------------------------------------------------------------


def bit_matrix(vectors: Sequence[BitVector], dim: int | None = None) -> np.ndarray:
    """Stack vectors into an (n, dim) uint8 matrix of raw coordinates."""
    if dim is None:
        if not vectors:
            raise EmptyInputError("need at least one vector or an explicit dim")
        dim = vectors[0].dim
    nbytes = (dim + 7) // 8
    rows = np.frombuffer(
        b"".join(v.bits.to_bytes(nbytes, "little") for v in vectors), dtype=np.uint8
    ).reshape(len(vectors), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little", count=dim)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, d) 0/1 matrix into (n, ceil(d/64)) uint64 words."""
    n, d = bits.shape
    packed8 = np.packbits(bits.astype(np.uint8, copy=False), axis=1, bitorder="little")
    out = np.zeros((n, (d + WORD_BITS - 1) // WORD_BITS * 8), dtype=np.uint8)
    out[:, : packed8.shape[1]] = packed8
    return out.view(np.uint64)


def pack_vectors(vectors: Sequence[BitVector], dim: int | None = None) -> np.ndarray:
    """Pack vectors straight into (n, ceil(dim/64)) uint64 words."""
    if dim is None:
        if not vectors:
            raise EmptyInputError("need at least one vector or an explicit dim")
        dim = vectors[0].dim
    n_words = (dim + WORD_BITS - 1) // WORD_BITS
    data = bytearray(b"".join(v.bits.to_bytes(n_words * 8, "little") for v in vectors))
    return np.frombuffer(data, dtype=np.uint64).reshape(len(vectors), n_words)


# Byte budget for the temporaries of one distance tile.  The consumers of the
# tiles, and callers that block their own rows, use the same budget.
DISTANCE_BUDGET_BYTES = 1 << 23

# float32 holds every integer up to 2**24 exactly, so a 0/1 dot product over
# at most this many bits, and |a| - a.b and |b| - a.b with it, are exact.
_FLOAT32_EXACT_BITS = 1 << 24


def distance_tiles(
    a: np.ndarray, b: np.ndarray
) -> tuple[tuple[int, ...], Iterator[tuple[int, int, int, np.ndarray]]]:
    """Exact all-pairs Hamming distances between packed uint64 row sets, a
    tile at a time: the one exact distance kernel.

    ``a`` is ``(..., n, W)`` and ``b`` is ``(..., m, W)``; the leading
    dimensions broadcast as in ``np.matmul``.  Returns the shape of all the
    distances, ``batch + (n, m)``, and an iterator of ``(l, i, j, tile)``:
    ``tile`` is ``(tl, tn, tm)`` and holds the distances of flat batch
    entries ``l:l+tl``, rows ``i:i+tn`` of ``a`` and rows ``j:j+tm`` of
    ``b``.  Tiles come in increasing order of ``l``, then ``j``, then ``i``,
    so the row tiles of ``b`` reach each row tile of ``a`` in increasing
    order.  The tiles are planned once per call, so that a tile's
    temporaries and the tile before it, which a consumer may still hold,
    fit ``DISTANCE_BUDGET_BYTES``.

    A tile keeps the dtype that computed it, and every value is an exact
    integer.  Rows of one word, or of more than 2**24 bits, use XOR plus
    popcount into unsigned integers just wide enough for 64*W.  Rows of 2
    words up to 2**24 bits unpack to float32 and compute |a| + |b| - 2 a.b
    with BLAS, the weights being popcounts of the packed words; every
    partial sum is an integer no larger than 2**24, so the result is exact
    under any summation order or thread count.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"need (..., n, W) and (..., m, W) word arrays, got {a.shape} and {b.shape}"
        )
    (n, words), m = a.shape[-2:], b.shape[-2]
    a_of = b_of = None  # equal batch shapes index both operands by slices
    batch = a.shape[:-2]
    if batch != b.shape[:-2]:
        # flat batch index -> index into each operand's own flattened stack
        batch = np.broadcast_shapes(batch, b.shape[:-2])
        a_of, b_of = (
            np.broadcast_to(np.arange(math.prod(x.shape[:-2])).reshape(x.shape[:-2]), batch)
            .ravel()
            for x in (a, b)
        )
    shape = batch + (n, m)
    if not math.prod(shape):
        return shape, iter(())
    if not words:  # rows without coordinates: one zero word, distance 0
        a = np.zeros(a.shape[:-1] + (1,), dtype=np.uint64)
        b = np.zeros(b.shape[:-1] + (1,), dtype=np.uint64)
    a3 = a.reshape(math.prod(a.shape[:-2]), n, a.shape[-1])
    b3 = b.reshape(math.prod(b.shape[:-2]), m, b.shape[-1])
    return shape, _tiles(a3, b3, a_of, b_of, math.prod(batch))


def _tiles(
    a3: np.ndarray, b3: np.ndarray, a_of: np.ndarray | None, b_of: np.ndarray | None, size: int
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """The tiles of :func:`distance_tiles` over (size, n, W) and (size, m, W)
    stacks, or over the operands' own stacks through the index maps."""
    (n, words), m = a3.shape[1:], b3.shape[1]
    use_blas = words >= 2 and words * WORD_BITS <= _FLOAT32_EXACT_BITS
    sums = None if words == 1 else np.min_scalar_type(WORD_BITS * words)
    tl, tn, tm, tw = _distance_tile(size, n, m, words, use_blas)
    for l0 in range(0, size, tl):
        ls = slice(l0, l0 + tl)
        la = ls if a_of is None else a_of[ls]
        lb = ls if b_of is None else b_of[ls]
        for j0 in range(0, m, tm):
            b_whole = _side(b3[lb, j0 : j0 + tm], use_blas) if tw == words else None
            for i0 in range(0, n, tn):
                for w0 in range(0, words, tw):
                    ws = slice(w0, w0 + tw)
                    bt = b_whole or _side(b3[lb, j0 : j0 + tm, ws], use_blas)
                    part = _distances(_side(a3[la, i0 : i0 + tn, ws], use_blas), bt, sums)
                    if w0:  # a later word chunk adds its share of each distance
                        tile += part
                    else:
                        tile = part
                yield l0, i0, j0, tile


def _side(words: np.ndarray, use_blas: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """A tile's rows as the kernel multiplies them: (tl, rows, W) words and
    no weights for XOR; for BLAS their float32 bits and popcounts."""
    if not use_blas:
        return words, None
    return _unpack_f32(words), np.bitwise_count(words).sum(axis=-1, dtype=np.float32)


def _distances(a_side: tuple, b_side: tuple, sums: np.dtype | None) -> np.ndarray:
    """(tl, tn, tm) distances over the words of two :func:`_side` tiles."""
    (at, a_weight), (bt, b_weight) = a_side, b_side
    if a_weight is None:
        counts = np.bitwise_count(at[:, :, None, :] ^ bt[:, None, :, :])
        return counts[..., 0] if sums is None else counts.sum(axis=-1, dtype=sums)
    part = np.matmul(at, bt.transpose(0, 2, 1))
    part *= -2.0
    part += a_weight[:, :, None]
    part += b_weight[:, None, :]
    return part


def packed_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between packed uint64 row sets.

    ``a`` is ``(..., n, W)`` and ``b`` is ``(..., m, W)``; the leading
    dimensions broadcast as in ``np.matmul`` and the result is the int64
    array ``(..., n, m)``.  The consumer of :func:`distance_tiles` that
    keeps every distance: it writes each tile into the result, so the
    temporaries beside the result fit ``DISTANCE_BUDGET_BYTES``.
    """
    shape, tiles = distance_tiles(a, b)
    out = np.empty(shape, dtype=np.int64)
    flat = out.reshape(math.prod(shape[:-2]), *shape[-2:])
    for l0, i0, j0, tile in tiles:
        tl, tn, tm = tile.shape
        flat[l0 : l0 + tl, i0 : i0 + tn, j0 : j0 + tm] = tile
    return out


def _unpack_f32(words: np.ndarray) -> np.ndarray:
    """(..., W) uint64 words -> (..., 64*W) float32 bits (bit order is irrelevant
    to distances as long as both sides share it)."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1).astype(np.float32)


def _distance_tile(
    batch: int, n: int, m: int, words: int, use_blas: bool
) -> tuple[int, int, int, int]:
    """Tile extents (batch, a rows, b rows, words) whose temporaries fit the budget.

    XOR: a row costs its gathered copy (8 bytes a word); a cell costs the
    XOR words and their popcounts (9 bytes a word).  BLAS: a row costs its
    gathered copy, unpacked uint8 and float32 bits (8 + 64 + 256 bytes a
    word) plus a float32 weight.  A cell also costs its distance (at most
    4 bytes), the same for the tile before it that a consumer may still
    hold, and 4 more when the words are split and summed.  The largest
    extent is halved until the tile fits, or every extent is 1.
    """
    row_w, row, cell_w = (328, 4, 0) if use_blas else (8, 0, 9)
    tile = [batch, n, m, words]
    while True:
        tl, tn, tm, tw = tile
        cell = tw * cell_w + 4 * (2 + (tw < words))
        size = tl * ((tn + tm) * (tw * row_w + row) + tn * tm * cell)
        if size <= DISTANCE_BUDGET_BYTES or tile == [1, 1, 1, 1]:
            return tl, tn, tm, tw
        big = tile.index(max(tile))
        tile[big] = (tile[big] + 1) // 2
