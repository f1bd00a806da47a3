"""Spans around polyham's layer functions, recorded from outside the library.

The traced run wraps the public functions of each layer (plus the few
private solver steps that mark a decision) at every place the package binds
them: ``from .vectors import packed_distance_matrix`` in neighbors and the
definition in vectors both get the same wrapper, so the call sites the
solvers use are the ones that are timed.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, op id).  Spans stay in memory for the
one op a worker process runs and are reduced there to per-layer self time
and counts.  A layer's self time is its spans' time minus the part their
child spans cover.  Counts are taken at the same boundaries by hooks; a
hook runs in its own ``trace.hook`` span, so its cost shows as tracing cost
and not as the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("vectors", "polyalg", "probpoly", "hammingpoly", "paireval", "neighbors", "reductions")

# (layer, attribute in polyham.<layer>); "Class.method" patches the class.
TARGETS = (
    ("vectors", "load_dataset"),
    ("vectors", "pack_vectors"),
    ("vectors", "bit_matrix"),
    ("vectors", "pack_rows"),
    ("vectors", "packed_distance_matrix"),
    ("vectors", "hamming_distance"),
    ("vectors", "inner_product"),
    ("vectors", "complement"),
    ("polyalg", "binom_int"),
    ("polyalg", "eval_newton"),
    ("polyalg", "newton_to_symmetric"),
    ("polyalg", "Gf2Polynomial.from_int_polynomial"),
    ("polyalg", "IntPolynomial.expand"),
    ("probpoly", "sample_threshold"),
    ("probpoly", "sample_symmetric"),
    ("probpoly", "expand_circuit"),
    ("hammingpoly", "sample_hamming_poly"),
    ("hammingpoly", "expand_hamming_masks"),
    ("hammingpoly", "expand_hamming_poly"),
    ("hammingpoly", "projected_expansion_size"),
    ("paireval", "eval_all_pairs"),
    ("paireval", "eval_all_pairs_bits"),
    ("paireval", "eval_all_pairs_masks"),
    ("paireval", "feature_matrix"),
    ("paireval", "packed_feature_matrix"),
    ("paireval", "pack_points_uint64"),
    ("paireval", "gf2_matmul"),
    ("neighbors", "closest_pair"),
    ("neighbors", "closest_pair_bruteforce"),
    ("neighbors", "bichromatic_close_pair"),
    ("neighbors", "batch_nn"),
    ("neighbors", "batch_nn_bruteforce"),
    ("neighbors", "pipeline_info"),
    ("neighbors", "_poly_close_pair"),  # one decision of the polynomial pipeline
    ("neighbors", "_brute_close_pair"),
    ("reductions", "furthest_pair"),
    ("reductions", "l1_batch_nn"),
    ("reductions", "extreme_inner_product"),
    ("reductions", "find_orthogonal_pair"),
    ("reductions", "max_jaccard_pair"),
)

DECISION = "neighbors._poly_close_pair"
HOOK = "trace.hook"
ROOT_OP = "op"
ROOT_SETUP = "setup"

# Every per-layer metric of the traced run, with its unit (BENCHMARK.json
# lists the same names).
METRICS = {
    "paireval.self_s": "s",
    "paireval.eval_s": "s",
    "paireval.feature_s": "s",
    "paireval.matmul_s": "s",
    "paireval.matmul_calls": "count",
    "paireval.matmul_words": "count",
    "paireval.matmul_bitops_computed": "count",
    "paireval.matmul_bytes_computed": "bytes",
    "hammingpoly.self_s": "s",
    "hammingpoly.sample_s": "s",
    "hammingpoly.expand_s": "s",
    "hammingpoly.expand_calls": "count",
    "hammingpoly.monomials": "count",
    "hammingpoly.monomials_max": "count",
    "probpoly.self_s": "s",
    "probpoly.sample_s": "s",
    "probpoly.sample_calls": "count",
    "probpoly.expand_s": "s",
    "probpoly.inner_monomials": "count",
    "polyalg.self_s": "s",
    "polyalg.binom_s": "s",
    "polyalg.binom_calls": "count",
    "polyalg.gf2_convert_s": "s",
    "vectors.self_s": "s",
    "vectors.distance_scan_s": "s",
    "vectors.distance_verify_s": "s",
    "vectors.distance_calls": "count",
    "vectors.distance_pairs": "count",
    "vectors.distance_bytes_computed": "bytes",
    "vectors.pack_s": "s",
    "vectors.parse_s": "s",
    "neighbors.self_s": "s",
    "neighbors.decisions": "count",
    "neighbors.draws": "count",
    "neighbors.verify_calls": "count",
    "neighbors.flag_yield": "ratio",
    "reductions.self_s": "s",
    "reductions.subcalls": "count",
    "trace.self_s": "s",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly when one op is traced twice.
REPEATABLE = (
    "neighbors.draws",
    "hammingpoly.monomials",
    "neighbors.verify_calls",
    "paireval.matmul_bitops_computed",
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "polyham" or name.startswith("polyham."))
    ]


def _rebind(old, new) -> None:
    """Point every binding of ``old`` in the package at ``new``."""
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _patch(layer: str, attr: str, make) -> bool:
    """Replace polyham.<layer>.<attr> by make(original); False if absent."""
    mod = sys.modules.get(f"polyham.{layer}")
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        raw = vars(cls).get(name) if cls is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(make(raw.__func__)))
        else:
            setattr(cls, name, make(raw))
        return True
    fn = getattr(mod, name, None)
    if fn is None:
        return False
    _rebind(fn, make(fn))
    return True


class Probes:
    """Counts group-polynomial draws for the path gates; cheap enough for untraced ops."""

    def __init__(self):
        self.draws = 0

    def install(self) -> None:
        def count_draws(fn):
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                self.draws += 1
                return fn(*args, **kwargs)

            return probe

        _patch("hammingpoly", "sample_hamming_poly", count_draws)


class Tracer:
    """In-memory span recorder for the single op of one worker process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.k = None  # threshold of the decision being verified
        self.counts: dict[str, int] = {}
        self.wrapped: list[str] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return self.names[self.name_id[p]] if p >= 0 else None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "paireval.gf2_matmul": _hook_matmul,
            "vectors.packed_distance_matrix": _hook_distance,
            "hammingpoly.sample_hamming_poly": _hook_draw,
            "hammingpoly.expand_hamming_masks": _hook_expand_hamming,
            "hammingpoly.expand_hamming_poly": _hook_expand_hamming,
            "probpoly.expand_circuit": _hook_expand_circuit,
        }
        hook_id = self.intern(HOOK)
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            nid = self.intern(name)
            hook = hooks.get(name)

            def make(fn, nid=nid, hook=hook):
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    idx = self.open(nid)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        self.close(idx)
                    if hook is not None:
                        h = self.open(hook_id)
                        hook(self, idx, args, result)
                        self.close(h)
                    return result

                return traced

            if _patch(layer, attr, make):
                self.wrapped.append(name)

    # -- reduction to per-layer metrics ------------------------------------

    def metrics(self, op_root: int) -> dict[str, float]:
        """Per-layer self times and counts of the op under ``op_root``.

        Spans opened before ``op_root`` belong to set-up (the dataset parse).
        Counts from hooks cover the whole process, and the worker runs no
        hooked call outside the op.
        """
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - covered
        if self_t.min() < -1e-6:
            raise ValueError("spans are not nested: a child outlasts its parent")

        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names])
        in_op = (np.arange(n) > op_root) & (
            np.frombuffer(self.end, dtype=np.float64) <= self.end[op_root]
        )
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        parent_layer = np.where(parent_nid >= 0, layer_of[np.maximum(parent_nid, 0)], "")

        def ids(*span_names: str) -> np.ndarray:
            return np.array([self._ids[s] for s in span_names if s in self._ids], dtype=np.int32)

        def sel(*span_names: str) -> np.ndarray:
            return in_op & np.isin(nid, ids(*span_names))

        def self_of(mask: np.ndarray) -> float:
            return float(self_t[mask].sum())

        def count(mask: np.ndarray) -> int:
            return int(mask.sum())

        c = self.counts.get
        out: dict[str, float] = {}
        for layer in LAYERS + ("trace",):
            out[f"{layer}.self_s"] = self_of(in_op & (layer_of[nid] == layer))

        evals = sel("paireval.eval_all_pairs", "paireval.eval_all_pairs_bits",
                    "paireval.eval_all_pairs_masks")
        matmul = sel("paireval.gf2_matmul")
        out["paireval.eval_s"] = float(dur[evals & (parent_layer != "paireval")].sum())
        out["paireval.feature_s"] = self_of(
            evals | sel("paireval.feature_matrix", "paireval.packed_feature_matrix",
                        "paireval.pack_points_uint64")
        )
        out["paireval.matmul_s"] = float(dur[matmul].sum())
        out["paireval.matmul_calls"] = count(matmul)
        out["paireval.matmul_words"] = c("matmul_words", 0)
        out["paireval.matmul_bitops_computed"] = c("matmul_bitops", 0)
        out["paireval.matmul_bytes_computed"] = c("matmul_bytes", 0)

        expand_h = sel("hammingpoly.expand_hamming_masks", "hammingpoly.expand_hamming_poly")
        out["hammingpoly.sample_s"] = self_of(sel("hammingpoly.sample_hamming_poly"))
        out["hammingpoly.expand_s"] = self_of(expand_h)
        out["hammingpoly.expand_calls"] = count(expand_h & (parent_layer != "hammingpoly"))
        out["hammingpoly.monomials"] = c("monomials", 0)
        out["hammingpoly.monomials_max"] = c("monomials_max", 0)

        samples_p = sel("probpoly.sample_threshold", "probpoly.sample_symmetric")
        out["probpoly.sample_s"] = self_of(samples_p)
        out["probpoly.sample_calls"] = count(samples_p)
        out["probpoly.expand_s"] = self_of(sel("probpoly.expand_circuit"))
        out["probpoly.inner_monomials"] = c("inner_monomials", 0)

        binom = sel("polyalg.binom_int")
        out["polyalg.binom_s"] = self_of(binom)
        out["polyalg.binom_calls"] = count(binom)
        out["polyalg.gf2_convert_s"] = self_of(sel("polyalg.Gf2Polynomial.from_int_polynomial"))

        dist = sel("vectors.packed_distance_matrix")
        verify = dist & (parent_nid == self._ids.get(DECISION, -2))
        out["vectors.distance_scan_s"] = self_of(dist & ~verify)
        out["vectors.distance_verify_s"] = self_of(verify)
        out["vectors.distance_calls"] = count(dist)
        out["vectors.distance_pairs"] = c("distance_pairs", 0)
        out["vectors.distance_bytes_computed"] = c("distance_bytes", 0)
        out["vectors.pack_s"] = self_of(
            sel("vectors.pack_vectors", "vectors.bit_matrix", "vectors.pack_rows")
        )
        out["vectors.parse_s"] = float(
            self_t[(~in_op) & np.isin(nid, ids("vectors.load_dataset"))].sum()
        )

        flags = c("verify_calls", 0)
        out["neighbors.decisions"] = count(sel(DECISION))
        out["neighbors.draws"] = count(sel("hammingpoly.sample_hamming_poly"))
        out["neighbors.verify_calls"] = flags
        out["neighbors.flag_yield"] = c("verified_flags", 0) / flags if flags else 0.0

        out["reductions.subcalls"] = count(
            in_op & (layer_of[nid] == "neighbors") & (parent_layer == "reductions")
        )

        # Coverage is measured below the public entry point: the op root's
        # self time and the self time of the solver it calls (the spans
        # whose parent is the root) are what no layer span accounts for.
        op_dur = float(dur[op_root])
        uncovered = float(self_t[op_root]) + self_of(in_op & (parent == op_root))
        out["trace.spans"] = count(in_op)
        out["trace.coverage"] = 1.0 - uncovered / op_dur if op_dur > 0 else 0.0
        out["trace.op_s"] = op_dur
        return out


# -- count hooks (run after the wrapped call, inside a trace.hook span) ------


def _shape(a) -> tuple[int, int]:
    return (a.shape[0], a.shape[1]) if getattr(a, "ndim", 0) == 2 else (0, 0)


def _hook_matmul(tr: Tracer, idx: int, args, result) -> None:
    na, words = _shape(args[0])
    nb = _shape(args[1])[0]
    tr.add("matmul_words", (na + nb) * words)
    tr.add("matmul_bitops", na * nb * words * 64)
    tr.add("matmul_bytes", na * nb * words * 8)


def _hook_distance(tr: Tracer, idx: int, args, result) -> None:
    na, words = _shape(args[0])
    nb = _shape(args[1])[0]
    tr.add("distance_pairs", na * nb)
    tr.add("distance_bytes", na * nb * words * 8)
    if tr.parent_name(idx) == DECISION:
        tr.add("verify_calls", 1)
        if result.size and tr.k is not None and int(result.min()) <= tr.k:
            tr.add("verified_flags", 1)


def _hook_draw(tr: Tracer, idx: int, args, result) -> None:
    tr.k = getattr(args[0], "k", None) if args else None


def _hook_expand_hamming(tr: Tracer, idx: int, args, result) -> None:
    if (tr.parent_name(idx) or "").startswith("hammingpoly.expand_hamming"):
        return  # counted by the outer expansion
    size = int(result.size) if hasattr(result, "size") else result.monomial_count()
    tr.add("monomials", size)
    tr.counts["monomials_max"] = max(tr.counts.get("monomials_max", 0), size)


def _hook_expand_circuit(tr: Tracer, idx: int, args, result) -> None:
    if tr.parent_name(idx) != "probpoly.expand_circuit":
        tr.add("inner_monomials", result.monomial_count())
