import json

import pytest

from polyham import cli
from polyham.probpoly import AgreementReport


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_gen_shape_and_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for f in (f1, f2):
        code, _, _ = run_cli(capsys, "gen", "--n", "4", "--d", "3", "--seed", "9", "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "R" and lines[5] == "B"
    assert len(lines) == 10 and all(len(l) == 3 for l in lines[1:5])


def test_gen_planted_contains_pair(tmp_path, capsys):
    f = tmp_path / "p.txt"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "planted", "--n", "6", "--d", "8",
        "--planted-distance", "0", "--seed", "3", "--out", str(f),
    )
    assert code == 0
    from polyham.vectors import load_dataset

    ds = load_dataset(f.read_text())
    assert any(r == b for r in ds.red for b in ds.blue)


def test_gen_planted_needs_distance(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "planted", "--n", "4", "--d", "4")
    assert code == 1


def test_closest_pair_oracle_agreement(tmp_path, capsys):
    f = tmp_path / "ds.txt"
    run_cli(capsys, "gen", "--n", "32", "--d", "10", "--seed", "5", "--out", str(f))
    code, out, _ = run_cli(
        capsys, "closest-pair", "--input", str(f), "--seed", "1", "--oracle"
    )
    assert code == 0
    records = jsonl(out)
    assert records[0]["agrees"] is True
    assert "dist" in records[0]
    meta = records[-1]["meta"]
    assert meta["dim"] == 10 and meta["engaged"] is False
    assert meta["reason"].startswith("s='auto' picks the exact scan")
    code, out, _ = run_cli(
        capsys, "closest-pair", "--input", str(f), "--seed", "1", "--s", "1"
    )
    assert jsonl(out)[-1]["meta"]["reason"].endswith("block rows <= budget 1048576")


def test_closest_pair_decision_mode(tmp_path, capsys):
    f = tmp_path / "ds.txt"
    f.write_text("R\n000\nB\n111\n")
    code, out, _ = run_cli(capsys, "closest-pair", "--input", str(f), "--k", "2", "--seed", "0")
    assert code == 0
    assert jsonl(out)[0]["found"] is False
    code, out, _ = run_cli(capsys, "closest-pair", "--input", str(f), "--k", "2", "--brute-force")
    assert jsonl(out)[0]["found"] is False


def test_cli_byte_determinism(tmp_path, capsys):
    f = tmp_path / "ds.txt"
    run_cli(capsys, "gen", "--n", "24", "--d", "6", "--seed", "2", "--out", str(f))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "closest-pair", "--input", str(f), "--seed", "11", "--s", "2", "--rounds", "5"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_batch_nn_output(tmp_path, capsys):
    db, q = tmp_path / "db.txt", tmp_path / "q.txt"
    run_cli(capsys, "gen", "--n", "8", "--d", "6", "--seed", "4", "--out", str(db))
    run_cli(capsys, "gen", "--n", "8", "--d", "6", "--seed", "5", "--out", str(q))
    code, out, _ = run_cli(
        capsys, "batch-nn", "--db", str(db), "--queries", str(q), "--seed", "0", "--oracle"
    )
    assert code == 0
    records = jsonl(out)
    assert len(records) == 17  # 16 query rows + meta
    meta = records[-1]["meta"]
    assert meta["oracle_distance_matches"] == meta["oracle_total"] == 16
    assert meta["mode"] == "exact" and "exact scan" in meta["reason"]


def test_l1_batch_nn_cli(tmp_path, capsys):
    db, q = tmp_path / "db.csv", tmp_path / "q.csv"
    db.write_text("m=3\n0,0\n3,3\n")
    q.write_text("m=3\n3,2\n0,1\n")
    code, out, _ = run_cli(capsys, "l1-batch-nn", "--db", str(db), "--queries", str(q), "--seed", "0")
    assert code == 0
    rows = jsonl(out)[:-1]
    assert rows[0] == {"query": 0, "nn": 1, "dist": 1}
    assert rows[1] == {"query": 1, "nn": 0, "dist": 1}


def test_reduction_subcommands(tmp_path, capsys):
    f = tmp_path / "ds.txt"
    f.write_text("R\n110\n100\nB\n101\n011\n")
    for sub, key in [
        ("furthest-pair", "dist"),
        ("min-ip", "value"),
        ("max-ip", "value"),
        ("jaccard", "coefficient"),
    ]:
        code, out, _ = run_cli(capsys, sub, "--input", str(f), "--seed", "0", "--oracle")
        assert code == 0, sub
        rec = jsonl(out)[0]
        assert key in rec
        if "agrees" in rec:
            assert rec["agrees"] is True
    code, out, _ = run_cli(capsys, "orthogonal", "--input", str(f), "--seed", "0")
    assert code == 0
    assert jsonl(out)[0]["found"] is True


def test_sample_poly_report(capsys):
    code, out, _ = run_cli(
        capsys, "sample-poly", "--n", "3", "--theta", "1/2", "--eps", "0.1", "--seed", "0", "--expand"
    )
    assert code == 0
    rec = jsonl(out)[0]
    assert rec["kind"] == "exact_base"
    assert rec["structural_degree"] <= 3
    assert rec["degree"] <= rec["degree_bound"]
    assert rec["polynomial"]


def test_sample_poly_reports_bound_relation(capsys):
    for seed in range(3):
        code, out, _ = run_cli(
            capsys, "sample-poly", "--n", "10000", "--eps", "0.1", "--seed", str(seed)
        )
        rec = jsonl(out)[0]
        assert rec["kind"] == "recursive"
        assert rec["structural_degree"] <= rec["degree_bound"]


def test_sample_poly_same_seed_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sample-poly", "--n", "10000", "--seed", "42")
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_error_passes_and_is_deterministic(capsys):
    args = ["verify-error", "--n", "100", "--eps", "0.2", "--trials", "60", "--seed", "1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert all(r["ok"] for r in jsonl(out1))


def test_verify_error_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.probpoly,
        "measure_threshold_error",
        lambda spec, inputs, trials, rng: [AgreementReport(1, 0.0, trials)],
    )
    code, _, err = run_cli(capsys, "verify-error", "--n", "20", "--trials", "10", "--seed", "0")
    assert code == 4
    assert "verification" in err


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, "closest-pair")
    assert code == 1


def test_exit_code_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("R\n01a\nB\n")
    code, _, err = run_cli(capsys, "closest-pair", "--input", str(f))
    assert code == 2
    assert "line 2" in err


def test_strict_number_tokens_are_parse_errors(tmp_path, capsys):
    f, db = tmp_path / "bad.hex", tmp_path / "db.csv"
    f.write_text("dim=10\nR\nfff\nB\n000\n")
    code, _, err = run_cli(capsys, "max-ip", "--input", str(f), "--format", "hex")
    assert code == 2 and "line 3" in err
    db.write_text("m=+3\n1,2\n")
    code, _, err = run_cli(capsys, "l1-batch-nn", "--db", str(db), "--queries", str(db))
    assert code == 2 and "line 1" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run_cli(capsys, "closest-pair", "--input", "/no/such/file")
    assert code == 2


def test_exit_code_budget_error(capsys):
    code, _, err = run_cli(
        capsys, "sample-poly", "--n", "10000", "--eps", "0.1", "--expand", "--seed", "0"
    )
    assert code == 3
    assert "budget" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    f1, f2, f3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    monkeypatch.setenv("POLYHAM_SEED", "123")
    run_cli(capsys, "gen", "--n", "4", "--d", "4", "--out", str(f1))
    run_cli(capsys, "gen", "--n", "4", "--d", "4", "--out", str(f2))
    monkeypatch.setenv("POLYHAM_SEED", "124")
    run_cli(capsys, "gen", "--n", "4", "--d", "4", "--out", str(f3))
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() != f3.read_bytes()


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", "1_0", " +1_0", "١٢"])
def test_bad_env_seed_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("POLYHAM_SEED", value)
    code, out, err = run_cli(capsys, "gen", "--n", "4", "--d", "4")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: POLYHAM_SEED")


def test_negative_seed_flag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "4", "--d", "4", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: --seed")


# Each integer flag takes only decimal digits, the rule of the file formats:
# Python's int() would read "1_0" and " +1_0" as 10 and "١٢" as 12.
@pytest.mark.parametrize("argv, flag", [
    (("gen", "--n", "2", "--d", "3", "--seed", "1_0"), "--seed"),
    (("gen", "--n", "2", "--d", "3", "--kind", "planted", "--planted-distance", " +1"),
     "--planted-distance"),
    (("gen", "--d", "3", "--n", "١٢"), "--n"),
    (("sample-poly", "--n", "1_0"), "--n"),
    (("sample-poly", "--n", "10", "--budget", "1_000"), "--budget"),
    (("verify-error", "--n", "١٢"), "--n"),
    (("verify-error", "--n", "10", "--trials", "1_0"), "--trials"),
    (("verify-error", "--n", "10", "--random-inputs", " +1"), "--random-inputs"),
    (("closest-pair", "--input", "ds.txt", "--k", "1_0"), "--k"),
    (("closest-pair", "--input", "ds.txt", "--s", "١٢"), "--s"),
    (("closest-pair", "--input", "ds.txt", "--rounds", " +1_0"), "--rounds"),
    (("batch-nn", "--db", "db.txt", "--queries", "q.txt", "--seed", "١٢"), "--seed"),
    (("bench", "--sizes", "8,١٢"), "--sizes"),
    (("bench", "--budget", "1_0"), "--budget"),
])
def test_integer_flags_take_only_decimal_digits(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and flag in err.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gen", "--d", "4", "--n", "0"),  # a text01 file that load_dataset rejects
    ("gen", "--d", "4", "--n", "-1"),  # an empty dataset
    ("gen", "--n", "4", "--d", "0"),
    ("bench", "--dims", "0"),
    ("bench", "--sizes", "x"),
])
def test_sizes_and_dimensions_must_be_positive(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {argv[-2]}: not a positive integer")


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "16,32", "--dims", "4", "--mode", "both", "--seed", "0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,mode,path,seconds,dist,agree"
    assert len(lines) == 1 + 2 * 1 * 2  # sizes x dims x modes
    for line in lines[1:]:
        assert line.split(",")[6] == "true"


def test_bench_poly_rows_run_the_pipeline(capsys, monkeypatch):
    # "auto" is the exact scan, so the poly rows must pin a group size
    from polyham import neighbors

    decisions = []
    real = neighbors._poly_close_pair
    monkeypatch.setattr(
        neighbors, "_poly_close_pair", lambda *a, **kw: decisions.append(1) or real(*a, **kw)
    )
    code, out, _ = run_cli(capsys, "bench", "--sizes", "16", "--dims", "4", "--mode", "brute")
    assert code == 0 and not decisions
    code, out, _ = run_cli(capsys, "bench", "--sizes", "16", "--dims", "4", "--mode", "poly")
    assert code == 0 and decisions
    # the path column says which path ran: s = 2 is not admitted at d = 16
    code, out, _ = run_cli(capsys, "bench", "--sizes", "16", "--dims", "4,16", "--mode", "poly")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0 and [(r[1], r[2], r[3]) for r in rows] == [
        ("4", "poly", "poly"),
        ("16", "poly", "exact"),
    ]


def test_pretty_output(tmp_path, capsys):
    f = tmp_path / "ds.txt"
    f.write_text("R\n01\nB\n10\n")
    code, out, _ = run_cli(capsys, "closest-pair", "--input", str(f), "--pretty", "--seed", "0")
    assert code == 0
    assert out.startswith("{\n")


def test_hex_format_roundtrip_via_cli(tmp_path, capsys):
    f = tmp_path / "ds.hex"
    run_cli(capsys, "gen", "--n", "6", "--d", "12", "--seed", "8", "--format", "hex", "--out", str(f))
    assert f.read_text().startswith("dim=12\n")
    code, out, _ = run_cli(
        capsys, "closest-pair", "--input", str(f), "--format", "hex", "--seed", "1", "--oracle"
    )
    assert code == 0
    assert jsonl(out)[0]["agrees"] is True


# the pair commands' output, recorded before the pair and nearest-neighbor
# commands shared one body each
PAIR_CLI_DIGEST = "c04389ff3560e922b5a58823eb2f1f989bcac213dd99d83b4296a6517f67d071"
# the nearest-neighbor commands' output, recorded when a batch made one
# decision per distance level
NN_CLI_DIGEST = "6c376ccf2fe57a29425a275240c759137054dc7437c7713369733b4511fe0c0e"


def _cli_transcript(tmp_path, capsys):
    import numpy as np

    from polyham.reductions import IntVector, dump_int_vectors

    ds, ds_hex = tmp_path / "ds.txt", tmp_path / "ds.hex"
    db, q = tmp_path / "db.txt", tmp_path / "q.txt"
    run_cli(capsys, "gen", "--n", "11", "--d", "5", "--seed", "21", "--out", str(ds))
    run_cli(
        capsys, "gen", "--n", "6", "--d", "9", "--seed", "22", "--format", "hex", "--out", str(ds_hex)
    )
    run_cli(capsys, "gen", "--n", "7", "--d", "5", "--seed", "23", "--out", str(db))
    run_cli(capsys, "gen", "--n", "5", "--d", "5", "--seed", "24", "--out", str(q))
    rng = np.random.default_rng(25)
    l1db, l1q = tmp_path / "db.csv", tmp_path / "q.csv"
    for f, n in ((l1db, 9), (l1q, 6)):
        f.write_text(dump_int_vectors(
            [IntVector(tuple(int(e) for e in rng.integers(0, 3, 3)), 2) for _ in range(n)]
        ))
    commands = [
        [sub, "--input", str(ds)]
        for sub in ("furthest-pair", "min-ip", "max-ip", "jaccard", "orthogonal")
    ]
    commands += [["max-ip", "--input", str(ds_hex), "--format", "hex"]]
    nn_commands = [
        ["batch-nn", "--db", str(db), "--queries", str(q)],
        ["l1-batch-nn", "--db", str(l1db), "--queries", str(l1q)],
    ]

    def transcript(commands):
        text = []
        for argv in commands:
            for extra in ([], ["--oracle"], ["--pretty"], ["--s", "2"], ["--s", "2", "--oracle"]):
                code, out, _ = run_cli(capsys, *argv, "--seed", "3", *extra)
                text.append(f"{code}\n{out}")
        return "".join(text).replace(str(tmp_path), "<tmp>")

    return transcript(commands), transcript(nn_commands)


def test_reduction_and_nn_output_digest(tmp_path, capsys):
    import hashlib

    pairs, nn = _cli_transcript(tmp_path, capsys)
    assert hashlib.sha256(pairs.encode()).hexdigest() == PAIR_CLI_DIGEST
    assert hashlib.sha256(nn.encode()).hexdigest() == NN_CLI_DIGEST
