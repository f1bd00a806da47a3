"""Workload definitions: input generation, the benchmark's own oracle, checks.

Inputs are made the way ``polyham gen`` makes them (``BitVector.random``,
``BitVector(d, int)``) from the workload seed and handed to the worker as
dataset text, so set-up includes the parse.  Every expected answer is
computed here, in the parent process, once per (workload, seed) and before
any op runs: outside op timing and outside the worker whose peak RSS is
reported.  The oracle shares no kernel with the program: Python-int XOR
popcount on small instances, and for the wide instances a blocked float32
|a| + |b| - 2 a.b on unpacked bits, exact while d < 2**24.

Each workload pins only what defines it and otherwise uses library defaults
(threads=1), so a change of a default is measured.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instance:
    text: str  # dataset text handed to the worker
    job: dict  # solver kind and settings, see worker._prepare
    work: int  # candidate pairs per op
    red: list[int] = field(default_factory=list)  # packed bits, for soundness
    blue: list[int] = field(default_factory=list)
    expect: object = None  # oracle answer


@dataclass
class Check:
    answers: int = 0
    misses: int = 0
    unsound: int = 0


def _rng(name: str, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *more])


def _random_side(ph, rng, n: int, d: int) -> list:
    return [ph.BitVector.random(rng, d) for _ in range(n)]


def _text(ph, dim: int, red, blue) -> str:
    return ph.dump_dataset(ph.Dataset(dim, tuple(red), tuple(blue)))


def _pair_min(red: list[int], blue: list[int]) -> int:
    """Minimum XOR popcount over all red-blue pairs, in Python ints."""
    return min(min((r ^ b).bit_count() for b in blue) for r in red)


def _unpacked_f32(values: list[int], d: int) -> np.ndarray:
    nbytes = (d + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in values), np.uint8)
    bits = np.unpackbits(raw.reshape(len(values), nbytes), axis=1, bitorder="little", count=d)
    return bits.astype(np.float32)


def _wide_extreme(red: list[int], blue: list[int], d: int, want_max: bool) -> int:
    """Blocked float32 |a| + |b| - 2 a.b; every partial sum is an integer < 2**24."""
    if d >= 1 << 24:
        raise ValueError("float32 distances are exact only below 2**24 coordinates")
    a = _unpacked_f32(red, d)
    b = _unpacked_f32(blue, d)
    wa, wb = a.sum(axis=1), b.sum(axis=1)
    best = None
    for i0 in range(0, a.shape[0], 512):
        dist = wa[i0 : i0 + 512, None] + wb[None, :] - 2.0 * (a[i0 : i0 + 512] @ b.T)
        v = float(dist.max() if want_max else dist.min())
        best = v if best is None else (max(best, v) if want_max else min(best, v))
    return int(best)


def _check_pair(inst: Instance, answer: dict) -> Check:
    ri, bi, dist = answer["pair"]
    n_red, n_blue = len(inst.red), len(inst.blue)
    sound = 0 <= ri < n_red and 0 <= bi < n_blue and (
        (inst.red[ri] ^ inst.blue[bi]).bit_count() == dist
    )
    return Check(answers=1, misses=int(dist != inst.expect), unsound=int(not sound))


class Workload:
    name = ""
    # Distinct instances per seed.  Op times differ between instances, so a
    # run's median is taken over many of them.
    count = 32
    # Share of answers that may differ from the oracle's in one run.  The
    # polynomial pipeline is correct only with high probability; a change
    # that breaks it shows as a rate above this.
    miss_allowance = 0.0
    answer_unit = "answers"
    work_name = ""  # what work_per_s counts on this workload

    def instances(self, ph, seed: int, count: int) -> list[Instance]:
        return [self.make(ph, _rng(self.name, seed, i), i, [seed, i, 1]) for i in range(count)]

    def make(self, ph, rng: np.random.Generator, index: int, op_seed: list[int]) -> Instance:
        raise NotImplementedError

    def check(self, inst: Instance, answer: dict) -> Check:
        return _check_pair(inst, answer)

    def gate(self, gate: dict) -> str | None:
        """None when the op ran the path the workload exists to measure."""
        raise NotImplementedError


class ClosestPoly(Workload):
    """closest_pair through the paper's group predicate, s pinned to 2."""

    name = "cp-poly"
    n, d, planted = 256, 4, 1
    work_name = "pairs_per_s: candidate red-blue pairs resolved"

    def make(self, ph, rng, index, op_seed):
        red = _random_side(ph, rng, self.n, self.d)
        blue = _random_side(ph, rng, self.n, self.d)
        # Plant red 0 / blue 0 at distance 1, as `polyham gen --kind planted`
        # plants a pair.  The binary search starts from that pair's distance,
        # so every op makes the same single decision, at k = 0 (d = 4 repeats
        # points, so the answer is 0), and op times compare across seeds.
        # At k = 0 about a quarter of the group pairs are flagged, so the
        # Python verification loop stays small beside the GF(2) product (at
        # k = 1 about 78% are flagged and the loop takes a third of the op).
        flip = 0
        for pos in rng.permutation(self.d)[: self.planted]:
            flip |= 1 << int(pos)
        blue[0] = ph.BitVector(self.d, red[0].bits ^ flip)
        r, b = [v.bits for v in red], [v.bits for v in blue]
        return Instance(
            text=_text(ph, self.d, red, blue),
            job={"kind": "closest_pair", "config": {"s": 2}, "rng_seed": op_seed},
            work=self.n * self.n,
            red=r,
            blue=b,
            expect=_pair_min(r, b),
        )

    def gate(self, gate):
        if not gate.get("engaged") or gate.get("group_size") != 2:
            return f"polynomial pipeline not engaged with group size 2: {gate}"
        if not gate.get("draws"):
            return "no group polynomial was drawn"
        return None


class BatchPoly(Workload):
    """batch_nn: many small decisions through the same layers as cp-poly."""

    name = "nn-poly"
    n, d = 12, 4
    # Measured over seeds 101-120 (32 instances each): 24 of 7,680 answers
    # missed, 0.31%, at most 4 of 384 in one seed.  A run repeats about half
    # its instances, so a miss can count twice.  At the measured rate a run
    # exceeds 0.02 with probability about 1e-4 (Poisson); at five times that
    # rate it fails one run in four.  A lower allowance would fail correct
    # runs among the many a comparison makes.
    miss_allowance = 0.02
    answer_unit = "queries"
    work_name = "pairs_per_s: database x query pairs resolved"

    def make(self, ph, rng, index, op_seed):
        db = _random_side(ph, rng, self.n, self.d)
        queries = _random_side(ph, rng, self.n, self.d)
        r, b = [v.bits for v in db], [v.bits for v in queries]
        return Instance(
            text=_text(ph, self.d, db, queries),  # R = database, B = queries
            job={"kind": "batch_nn", "config": {"s": 2}, "rng_seed": op_seed},
            work=self.n * self.n,
            red=r,
            blue=b,
            expect=[min((x ^ q).bit_count() for x in r) for q in b],
        )

    def check(self, inst, answer):
        chk = Check(answers=len(inst.blue))
        got = {}
        for q, i, dist in answer["entries"]:
            sound = 0 <= q < len(inst.blue) and 0 <= i < len(inst.red) and (
                (inst.red[i] ^ inst.blue[q]).bit_count() == dist
            )
            chk.unsound += int(not sound)
            got[q] = dist
        chk.misses = sum(int(got.get(q) != want) for q, want in enumerate(inst.expect))
        return chk

    def gate(self, gate):
        if gate.get("mode") != "poly" or gate.get("group_size") != 2:
            return f"batch_nn did not run the polynomial pipeline with group size 2: {gate}"
        if not gate.get("draws"):
            return "no group polynomial was drawn"
        return None


class WideExact(Workload):
    """Default settings on wide vectors: the planner picks the exact path."""

    name = "cp-wide"
    n, d = 2048, 1024
    count = 4  # the exact kernel costs the same on every instance
    work_name = "pairs_per_s: candidate red-blue pairs resolved"

    def make(self, ph, rng, index, op_seed):
        red = _random_side(ph, rng, self.n, self.d)
        blue = _random_side(ph, rng, self.n, self.d)
        r, b = [v.bits for v in red], [v.bits for v in blue]
        furthest = index % 2 == 1  # closest and furthest ops alternate
        return Instance(
            text=_text(ph, self.d, red, blue),
            job={"kind": "furthest_pair" if furthest else "closest_pair", "config": {},
                 "rng_seed": op_seed},
            work=self.n * self.n,
            red=r,
            blue=b,
            expect=_wide_extreme(r, b, self.d, want_max=furthest),
        )

    def gate(self, gate):
        if gate.get("engaged") is not False:
            return f"planner engaged the polynomial pipeline on d={self.d}: {gate}"
        return None


WORKLOADS = {w.name: w for w in (ClosestPoly(), BatchPoly(), WideExact())}
