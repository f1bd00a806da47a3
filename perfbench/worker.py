"""Run one benchmark op in a fresh process and report it as JSON on stdout.

The job arrives as JSON on stdin: the dataset text, the solver to call and
its settings.  The worker times ``import polyham`` plus ``load_dataset`` on
that text (set-up, as the CLI pays it), then the one solver call (the op),
and reports the answer, the path-gate facts, its own peak RSS and, when
traced, the per-layer metrics of the op.  One op per process keeps every op
on cold library caches, as a CLI user meets them.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    """High-water RSS of this process image (VmHWM).

    ``getrusage`` is not used: after fork and exec it still carries the
    parent's peak, and the parent generated the data and ran the oracle.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _prepare(polyham, np, job: dict, ds, gate: dict):
    """The op as a no-argument call; records the planner's gate facts."""
    kind = job["kind"]
    rng = np.random.default_rng(job["rng_seed"])
    cfg = polyham.ClosestPairConfig(**job["config"])
    if kind == "batch_nn":
        return lambda: polyham.batch_nn(ds.red, ds.blue, cfg, rng)
    info = polyham.neighbors.pipeline_info(max(len(ds.red), len(ds.blue)), ds.dim, cfg)
    gate["engaged"] = info["engaged"]
    gate["group_size"] = info["group_size"]
    solver = polyham.closest_pair if kind == "closest_pair" else polyham.furthest_pair
    return lambda: solver(ds, cfg, rng)


def _answer(kind: str, result, gate: dict, probes) -> dict:
    gate["draws"] = probes.draws
    if kind == "batch_nn":
        gate["mode"] = result.meta.get("mode")
        gate["group_size"] = result.meta.get("inner_group_size")
        return {"entries": [list(e) for e in result.entries]}
    return {"pair": list(result)}


def main() -> int:
    job = json.loads(sys.stdin.buffer.read())
    src = Path(job["src"]).resolve()

    t0 = time.perf_counter()
    import polyham

    import_s = time.perf_counter() - t0
    if src not in Path(polyham.__file__).resolve().parents:
        print(f"polyham imported from {polyham.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np

    from spans import ROOT_OP, ROOT_SETUP, Probes, Tracer

    tracer = None
    if job["trace"]:
        tracer = Tracer(job["op_id"])
        tracer.install()
        setup_span = tracer.open(tracer.intern(ROOT_SETUP))
    t1 = time.perf_counter()
    ds = polyham.load_dataset(job["text"])
    setup_s = import_s + time.perf_counter() - t1
    if tracer is not None:
        tracer.close(setup_span)

    probes = Probes()
    probes.install()
    reply: dict = {"setup_s": setup_s}
    gate: dict = {}
    try:
        call = _prepare(polyham, np, job, ds, gate)
        if tracer is not None:
            op_span = tracer.open(tracer.intern(ROOT_OP))
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            op_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(op_span)
        answer = _answer(job["kind"], result, gate, probes)
        if tracer is not None:
            reply["layers"] = tracer.metrics(op_span)
            reply["wrapped"] = tracer.wrapped
    except Exception:
        reply["error"] = traceback.format_exc(limit=8)
    else:
        reply.update(op_s=op_s, answer=answer, gate=gate)
    reply["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
