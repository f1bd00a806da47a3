"""polyham benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload cp-poly --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py`` (why each exists is recorded in
BENCHMARK.json and WORKLOADS.md).  The run generates the workload's inputs
from the seed and computes the oracle answers, then runs ops, one solver
call on one generated instance each, one after another in fresh worker
processes (a closed loop with one client; library defaults, threads=1),
cycling over the instances until ``--seconds`` have passed.
Every answer is checked against the oracle, and every op must have run the
path its workload exists to measure.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, traced and untraced, and prints the per-layer metrics of the traced
ops, the tracing overhead, and checks that the spans cover the op and that
the counts repeat exactly.  Human-readable lines come first; the last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
RUN_LIMIT_S = 165.0  # from start; ops still running then are stopped, so a run ends within 180 s
TRACE_INSTANCES = 4
COVERAGE_FLOOR = 0.95  # share of a traced op's wall time its layer spans must cover

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_worker(inst, traced: bool, op_id: int, timeout: float) -> dict:
    if timeout <= 0:
        return {"error": f"run limit of {RUN_LIMIT_S} s reached before the op started"}
    job = dict(inst.job, text=inst.text, trace=traced, op_id=op_id, src=str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job).encode(),
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"op stopped at the run limit of {RUN_LIMIT_S} s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.decode(errors="replace")[-2000:]}
    return json.loads(proc.stdout)


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    With ten samples or fewer no such percentile exists; the maximum is
    returned instead.
    """
    xs = sorted(values)
    idx = len(xs) - 11 if len(xs) >= MIN_OPS else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    args = _parse_args(argv)
    if not (SRC / "polyham" / "__init__.py").is_file():
        print(f"error: no polyham source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polyham

    if SRC not in Path(polyham.__file__).resolve().parents:
        print(f"error: polyham imported from {polyham.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # The traced run times each op twice, traced and untraced, in whole
    # passes over a few instances, so every instance is traced at least twice.
    count = min(TRACE_INSTANCES, wl.count) if args.trace else wl.count
    instances = wl.instances(polyham, args.seed, count)
    modes = (True, False) if args.trace else (False,)
    ops = []  # (instance index, traced, reply)
    t_start = time.perf_counter()
    while True:
        i = len(ops) // len(modes) % count
        for traced in modes:
            left = deadline - time.perf_counter()
            ops.append((i, traced, _run_worker(instances[i], traced, len(ops), left)))
        elapsed = time.perf_counter() - t_start
        if args.trace:
            enough = i == count - 1 and len(ops) >= 2 * count * len(modes)
        else:
            enough = len(ops) >= MIN_OPS
        if (elapsed >= args.seconds and enough) or time.perf_counter() >= deadline:
            break

    problems: list[str] = []
    failed = 0
    total = {"answers": 0, "misses": 0, "unsound": 0, "raised": 0}
    for i, traced, reply in ops:
        if "error" in reply:
            total["raised"] += 1
            failed += 1
            problems.append(f"op on instance {i} raised:\n{reply['error']}")
            continue
        chk = wl.check(instances[i], reply["answer"])
        total["answers"] += chk.answers
        total["misses"] += chk.misses
        total["unsound"] += chk.unsound
        gate = wl.gate(reply["gate"])
        if gate:
            problems.append(f"path gate, instance {i}: {gate}")
        if chk.unsound:
            problems.append(f"instance {i}: {chk.unsound} reported pairs are not at "
                            "their reported distance")
        if chk.misses:
            print(f"  instance {i}: {chk.misses} of {chk.answers} {wl.answer_unit} "
                  "differ from the oracle", file=sys.stderr)
        if chk.unsound or gate:
            failed += 1

    ok_ops = [(i, t, r) for i, t, r in ops if "error" not in r]
    plain = [r for _, t, r in ok_ops if not t]
    traced_ops = [(i, r) for i, t, r in ok_ops if t]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(ops)} ops "
          f"over {count} instances in {_fmt(elapsed)} s")
    if not plain:
        problems.append("no op completed")
    metrics: dict[str, dict] = {}

    if plain and not args.trace:
        times = [r["op_s"] for r in plain]
        tail, pct = _tail(times)
        work = sum(instances[i].work for i, t, r in ok_ops if not t)
        values = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "work_per_s": work / sum(times),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        notes = {
            "op_tail_s": f"p{pct:.0f}",
            "work_per_s": f"summed work / summed op time; {wl.work_name}",
            "setup_s": "median of per-op set-ups: import polyham + load_dataset",
            "peak_rss_mb": "median of per-op worker VmHWM",
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<12} {_fmt(values[name]):>12} {unit:<6} n={len(plain)}  "
                  f"{notes.get(name, '')}")

    if args.trace and traced_ops and plain:
        from spans import LAYERS, METRICS, REPEATABLE, TARGETS

        missing = sorted({f"{layer}.{attr}" for layer, attr in TARGETS}
                         - set(traced_ops[0][1]["wrapped"]))
        if missing:
            print(f"  not found in polyham, so not traced: {', '.join(missing)}")

        layer_values = {k: statistics.fmean(r["layers"][k] for _, r in traced_ops)
                        for k in METRICS if k in traced_ops[0][1]["layers"]}
        traced_p50 = statistics.median(r["op_s"] for _, r in traced_ops)
        layer_values["trace.op_s"] = traced_p50
        layer_values["trace.overhead_s"] = traced_p50 - statistics.median(
            r["op_s"] for r in plain
        )
        coverage = min(r["layers"]["trace.coverage"] for _, r in traced_ops)
        if coverage < COVERAGE_FLOOR:
            problems.append(f"layer spans cover only {coverage:.3f} of a traced op")
        by_instance: dict[int, set] = {}
        for i, r in traced_ops:
            by_instance.setdefault(i, set()).add(tuple(r["layers"][k] for k in REPEATABLE))
        for i, seen in sorted(by_instance.items()):
            if len(seen) != 1:
                problems.append(f"counts {REPEATABLE} differ across traced ops of "
                                f"instance {i}: {sorted(seen)}")
        for name, unit in METRICS.items():
            metrics[name] = {"value": layer_values[name], "unit": unit}
            print(f"  {name:<36} {_fmt(layer_values[name]):>12} {unit:<6} n={len(traced_ops)}")
        op_mean = statistics.fmean(r["layers"]["trace.op_s"] for _, r in traced_ops)
        split = sorted(
            ((layer_values[f"{layer}.self_s"] / op_mean, layer)
             for layer in LAYERS + ("trace",)),
            reverse=True,
        )
        print("  split of traced op time by layer self time: "
              + ", ".join(f"{layer} {share:.1%}" for share, layer in split))

    answers = max(total["answers"], 1)
    if total["misses"] / answers > wl.miss_allowance:
        problems.append(f"miss rate {total['misses'] / answers:.4f} above the "
                        f"allowance {wl.miss_allowance}")
    print(f"  {'miss_rate':<12} {_fmt(total['misses'] / answers):>12} ratio  "
          f"n={total['answers']} {wl.answer_unit}")
    print(f"  {'unsound_ops':<12} {total['unsound']:>12} count  n={len(ok_ops)} ops")
    print(f"  {'failed_ops':<12} {_fmt(total['raised'] / len(ops)):>12} ratio  "
          f"n={len(ops)} attempted")
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
