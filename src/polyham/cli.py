"""Command-line entry point.

Subcommands cover dataset generation, polynomial sampling and statistical
verification, the search pipelines, the metric reductions, and a small
timing harness.  Output is JSON lines (one record per line, sorted keys) or
CSV for ``bench``; ``--pretty`` switches to indented JSON for humans.

Every randomized run is reproducible from (seed, flags, input files); when
``--seed`` is absent the POLYHAM_SEED environment variable is used, then 0;
a seed that is not a non-negative integer is a usage error.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 resource or
budget error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import neighbors, probpoly, reductions
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidParametersError,
    ParseError,
    ResourceBudgetError,
    VerificationError,
)
from .neighbors import ClosestPairConfig
from .probpoly import ThresholdSpec
from .vectors import BitVector, Dataset, dump_dataset, load_dataset

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(args) -> int:
    """--seed, else POLYHAM_SEED, else 0; a seed is a non-negative integer."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("POLYHAM_SEED")
        if not env:
            return 0
        source = "POLYHAM_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise _UsageError(f"{source} is not an integer: {env!r}") from None
    if seed < 0:
        raise _UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _emit(args, records) -> None:
    text_parts = []
    for rec in records:
        if args.pretty:
            text_parts.append(json.dumps(rec, indent=2, sort_keys=True, default=str))
        else:
            text_parts.append(json.dumps(rec, sort_keys=True, separators=(",", ":"), default=str))
    text = "\n".join(text_parts) + "\n"
    _write_out(args, text)


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}") from None


def _int_or_auto(text: str):
    return "auto" if text == "auto" else int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",")]


def _config(args, seed: int) -> ClosestPairConfig:
    budget = 0 if getattr(args, "brute_force", False) else args.budget
    return ClosestPairConfig(
        s=args.s,
        rounds=args.rounds,
        monomial_budget=budget,
        seed=seed,
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--s", type=_int_or_auto, default="auto",
        help="group size: 'auto' scans exactly; s runs the pipeline if d <= 32 "
        "and s^2*(3^d-1) <= --budget",
    )
    p.add_argument(
        "--rounds", type=_int_or_auto, default="auto", help="amplification rounds or 'auto'"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=neighbors.MONOMIAL_BUDGET_DEFAULT)
    p.add_argument("--brute-force", action="store_true", help="force exact brute force")
    p.add_argument("--oracle", action="store_true", help="also run brute force and report agreement")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text01", "hex"), default="text01")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    if args.kind == "planted":
        if args.planted_distance is None:
            raise _UsageError("planted datasets need --planted-distance")
        if not 0 <= args.planted_distance < args.d:
            raise InvalidParametersError(
                f"planted distance must be in [0, d), got {args.planted_distance}"
            )
    red = [BitVector.random(rng, args.d) for _ in range(args.n)]
    blue = [BitVector.random(rng, args.d) for _ in range(args.n)]
    if args.kind == "planted":
        ri = int(rng.integers(0, args.n))
        bi = int(rng.integers(0, args.n))
        flip = 0
        for pos in rng.permutation(args.d)[: args.planted_distance]:
            flip |= 1 << int(pos)
        blue[bi] = BitVector(args.d, red[ri].bits ^ flip)
    ds = Dataset(args.d, tuple(red), tuple(blue))
    _write_out(args, dump_dataset(ds, args.format))
    return 0


# ---------------------------------------------------------------------------
# sample-poly / verify-error
# ---------------------------------------------------------------------------


def _cmd_sample_poly(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    spec = ThresholdSpec(args.n, _fraction(args.theta), _fraction(args.eps))
    circuit = probpoly.sample_threshold(spec, rng)
    bound = probpoly.degree_bound(args.n, spec.eps)
    record = {
        "n": args.n,
        "theta": str(spec.theta),
        "eps": str(spec.eps),
        "seed": seed,
        "kind": circuit.kind,
        "recursion_depth": circuit.depth(),
        "structural_degree": circuit.structural_degree(),
        "degree_bound": bound,
    }
    if args.expand:
        poly = probpoly.expand_circuit(circuit, budget=args.budget)
        record["degree"] = poly.degree()
        record["monomial_count"] = poly.monomial_count()
        record["polynomial"] = poly.dump_lines()
    _emit(args, [record])
    return 0


def _cmd_verify_error(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    spec = ThresholdSpec(args.n, _fraction(args.theta), _fraction(args.eps))
    inputs = probpoly.boundary_inputs(args.n, spec.theta)
    inputs += [BitVector.random(rng, args.n) for _ in range(args.random_inputs)]
    reports = probpoly.measure_threshold_error(spec, inputs, args.trials, rng)
    eps = float(spec.eps)
    sigma = math.sqrt(max(eps * (1 - eps), 1e-12) / args.trials)
    floor = 1 - eps - 3 * sigma
    records = [
        {
            "weight": r.weight,
            "agreement": r.agreement,
            "trials": r.trials,
            "required": floor,
            "ok": r.agreement >= floor,
        }
        for r in reports
    ]
    _emit(args, records)
    if not all(r["ok"] for r in records):
        raise VerificationError("agreement below 1 - eps - 3*sigma on some input")
    return 0


# ---------------------------------------------------------------------------
# search commands
# ---------------------------------------------------------------------------


def _load_ds(args) -> Dataset:
    return load_dataset(_read(args.input), args.format)


def _cmd_closest_pair(args) -> int:
    seed = _resolve_seed(args)
    ds = _load_ds(args)
    cfg = _config(args, seed)
    rng = np.random.default_rng(seed)
    records = []
    if args.k is not None:
        res = neighbors.bichromatic_close_pair(ds, args.k, cfg, rng)
        rec = {"command": "closest-pair", "k": args.k, "found": res is not None}
        if res is not None:
            rec.update(red=res[0], blue=res[1])
        records.append(rec)
    else:
        ri, bi, dist = neighbors.closest_pair(ds, cfg, rng)
        rec = {"command": "closest-pair", "red": ri, "blue": bi, "dist": dist}
        if args.oracle:
            ori, obi, odist = neighbors.closest_pair_bruteforce(ds)
            rec["oracle_dist"] = odist
            rec["agrees"] = (ri, bi, dist) == (ori, obi, odist)
        records.append(rec)
    meta = {"seed": seed, "n_red": len(ds.red), "n_blue": len(ds.blue), "dim": ds.dim}
    meta.update(
        neighbors.pipeline_info(max(len(ds.red), len(ds.blue)), ds.dim, cfg)
    )
    records.append({"meta": meta})
    _emit(args, records)
    return 0


def _load_vectors(args, path: str) -> list[BitVector]:
    ds = load_dataset(_read(path), args.format)
    return list(ds.red) + list(ds.blue)


def _load_int_vectors(args, path: str) -> list[reductions.IntVector]:
    return reductions.load_int_vectors(_read(path))


def _cmd_nn(args, load, solve, oracle) -> int:
    """A nearest-neighbor table from --db and --queries, one row a query."""
    seed = _resolve_seed(args)
    db, queries = load(args, args.db), load(args, args.queries)
    res = solve(db, queries, _config(args, seed), np.random.default_rng(seed))
    records = [{"query": q, "nn": i, "dist": d} for q, i, d in res.entries]
    if args.oracle:
        res.meta["oracle_distance_matches"] = sum(
            int(a[2] == b[2]) for a, b in zip(res.entries, oracle(db, queries).entries)
        )
        res.meta["oracle_total"] = len(res.entries)
    records.append({"meta": res.meta})
    _emit(args, records)
    return 0


def _cmd_pair(args, command: str, solve, oracle, value: str) -> int:
    """One (red, blue, value) answer from --input; ``value`` names its key."""
    seed = _resolve_seed(args)
    ds = _load_ds(args)
    ri, bi, val = solve(ds, cfg=_config(args, seed), rng=np.random.default_rng(seed))
    # _emit writes a Jaccard coefficient, a Fraction, as its str
    rec = {"command": command, "red": ri, "blue": bi, value: val}
    if args.oracle:
        _, _, oval = oracle(ds)
        rec["oracle_" + value] = oval
        rec["agrees"] = val == oval
    _emit(args, [rec, {"meta": {"seed": seed}}])
    return 0


def _cmd_orthogonal(args) -> int:
    seed = _resolve_seed(args)
    ds = _load_ds(args)
    cfg = _config(args, seed)
    res = reductions.find_orthogonal_pair(ds, cfg, np.random.default_rng(seed))
    rec = {"command": "orthogonal", "found": res is not None}
    if res is not None:
        rec.update(red=res[0], blue=res[1])
    _emit(args, [rec, {"meta": {"seed": seed}}])
    return 0


_min_ip = functools.partial(reductions.extreme_inner_product, mode="min")
_max_ip = functools.partial(reductions.extreme_inner_product, mode="max")
_min_ip_oracle = functools.partial(reductions.extreme_inner_product_bruteforce, mode="min")
_max_ip_oracle = functools.partial(reductions.extreme_inner_product_bruteforce, mode="max")

# The search commands that take only their inputs and the pipeline flags:
# (name, help, input flags, body).
_SEARCH_COMMANDS = (
    ("batch-nn", "batch Hamming nearest neighbors", ("--db", "--queries"),
     lambda a: _cmd_nn(a, _load_vectors, neighbors.batch_nn, neighbors.batch_nn_bruteforce)),
    ("l1-batch-nn", "batch l1 nearest neighbors (bounded integer vectors)", ("--db", "--queries"),
     lambda a: _cmd_nn(
         a, _load_int_vectors, reductions.l1_batch_nn, reductions.l1_batch_nn_bruteforce
     )),
    ("furthest-pair", "bichromatic furthest pair", ("--input",),
     lambda a: _cmd_pair(
         a, "furthest-pair", reductions.furthest_pair, reductions.furthest_pair_bruteforce, "dist"
     )),
    ("min-ip", "minimum inner product pair", ("--input",),
     lambda a: _cmd_pair(a, "min-ip", _min_ip, _min_ip_oracle, "value")),
    ("max-ip", "maximum inner product pair", ("--input",),
     lambda a: _cmd_pair(a, "max-ip", _max_ip, _max_ip_oracle, "value")),
    ("orthogonal", "find a red-blue pair with inner product zero", ("--input",), _cmd_orthogonal),
    ("jaccard", "maximum Jaccard coefficient pair", ("--input",),
     lambda a: _cmd_pair(
         a, "jaccard", reductions.max_jaccard_pair, reductions.max_jaccard_bruteforce, "coefficient"
     )),
)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    modes = ["poly", "brute"] if args.mode == "both" else [args.mode]
    lines = ["n,d,mode,path,seconds,dist,agree"]
    for n in args.sizes:
        for d in args.dims:
            rng = np.random.default_rng([seed, n, d])
            red = tuple(BitVector.random(rng, d) for _ in range(n))
            blue = tuple(BitVector.random(rng, d) for _ in range(n))
            ds = Dataset(d, red, blue)
            answers, timings, paths = {}, {}, {}
            for mode in modes:
                # "auto" is the exact scan, so the poly rows pin s = 2
                cfg = ClosestPairConfig(
                    s=2 if mode == "poly" else "auto",
                    seed=seed,
                    monomial_budget=0 if mode == "brute" else args.budget,
                )
                t0 = time.perf_counter()
                _, _, dist = neighbors.closest_pair(
                    ds, cfg, np.random.default_rng([seed, n, d, 1])
                )
                timings[mode] = time.perf_counter() - t0
                answers[mode] = dist
                paths[mode] = "poly" if neighbors.pipeline_info(n, d, cfg)["engaged"] else "exact"
            agree = str(len(set(answers.values())) == 1).lower() if len(modes) > 1 else ""
            for mode in modes:
                row = (n, d, mode, paths[mode], f"{timings[mode]:.6f}", answers[mode], agree)
                lines.append(",".join(map(str, row)))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="polyham")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random dataset")
    p.add_argument("--kind", choices=("uniform", "planted"), default="uniform")
    p.add_argument("--n", type=_positive_int, required=True, help="vectors per color")
    p.add_argument("--d", type=_positive_int, required=True, help="dimension")
    p.add_argument("--planted-distance", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text01", "hex"), default="text01")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sample-poly", help="sample a threshold polynomial and report it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", default="1/2")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--expand", action="store_true")
    p.add_argument("--budget", type=int, default=probpoly.EXPANSION_BUDGET_DEFAULT)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample_poly)

    p = sub.add_parser("verify-error", help="statistically verify the error guarantee")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", default="1/2")
    p.add_argument("--eps", default="1/10")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--random-inputs", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_error)

    p = sub.add_parser("closest-pair", help="bichromatic closest pair (or decision with --k)")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_closest_pair)

    for name, text, inputs, func in _SEARCH_COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in inputs:
            p.add_argument(flag, required=True)
        _add_pipeline_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("bench", help="wall-clock timings, CSV output")
    p.add_argument("--sizes", type=_positive_ints, default="128,256")
    p.add_argument("--dims", type=_positive_ints, default="8,16")
    p.add_argument("--mode", choices=("poly", "brute", "both"), default="both")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=neighbors.MONOMIAL_BUDGET_DEFAULT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, EmptyInputError, DimensionMismatchError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InvalidParametersError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
