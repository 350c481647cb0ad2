import json
import time

import numpy as np
import pytest

from nestderiv import cli
from nestderiv.algebra import NestAlgebra
from nestderiv.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, MAX_TABLE_BYTES, main
from nestderiv.derivation import DerivationTable, validate
from nestderiv.linalg import matrix_from_json, matrix_to_json


def read(path):
    with open(path) as handle:
        return json.load(handle)


def test_generate_produces_valid_table(tmp_path):
    out = tmp_path / "table.json"
    assert main(["generate", "--n", "2", "--seed", "7", "--out", str(out)]) == EXIT_OK
    table = DerivationTable.from_json(read(out))
    assert len(table.values) == 3
    assert validate(table).max_residual < 1e-12 * table.value_scale
    generator = matrix_from_json(read(str(out) + ".generator.json"))
    assert generator.shape == (2, 2)


@pytest.mark.parametrize("flag", [["--tol", "1e-6"], ["--zero"]], ids=["tol", "zero"])
def test_tol_and_zero_are_not_options_of_generate(tmp_path, flag):
    # a table's tolerance is set by --tol of the command that checks it, or read from the file's tol field
    out = tmp_path / "table.json"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "3", *flag, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "table.json"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "3", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_directory", "existing_directory"])
def test_io_error_names_the_out_path(tmp_path, capsys, target):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    out = tmp_path / "missing" / "a.json" if target == "missing_directory" else tmp_path / "outdir"
    if target == "existing_directory":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["construct", "--input", str(table_path), "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and f"'{out}'" in err and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_generate_invalid_chain_is_config_error(tmp_path):
    out = tmp_path / "bad.json"
    code = main(["generate", "--n", "3", "--chain", "3,2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_generate_refuses_oversized_table_before_allocating(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("called before the size check")

    out = tmp_path / "huge.json"
    capsys.readouterr()
    with monkeypatch.context() as patch:
        # not even the default chain 1..n is built
        patch.setattr(NestAlgebra, "basis_units", refuse)
        patch.setattr(cli, "_parse_chain", refuse)
        assert main(["generate", "--n", "2000", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: a table for n=2000 ")
    # a coarse chain has more units than T_n: T_64 fits, the single block of 65 does not
    assert main(["generate", "--n", "65", "--chain", "65", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_table_size_guard_counts_units_exactly():
    # the README's sizes, T_4 to T_32, and T_64 stay under the limit
    for n in (4, 16, 32, 64):
        assert len(NestAlgebra.triangular(n).basis_units()) * n * n * 16 <= MAX_TABLE_BYTES


def test_generate_t16_unaffected_by_size_guard(tmp_path):
    out = tmp_path / "t16.json"
    assert main(["generate", "--n", "16", "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert len(DerivationTable.from_json(read(out)).values) == 16 * 17 // 2


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_value_scale_computed_once_per_call(tmp_path, monkeypatch, command):
    table_path = tmp_path / "table.json"
    report_path = tmp_path / "report.json"
    main(["generate", "--n", "4", "--seed", "6", "--out", str(table_path)])
    main(["construct", "--input", str(table_path), "--out", str(report_path)])
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps(read(report_path)["artifacts"]["b"]))
    calls = []
    scale = DerivationTable.value_scale.fget
    monkeypatch.setattr(DerivationTable, "value_scale", property(lambda table: calls.append(1) or scale(table)))
    args = [command, "--input", str(table_path), "--generator", str(table_path) + ".generator.json"]
    if command == "verify":
        args += ["--b", str(b_path)]
    assert main([*args, "--out", str(tmp_path / "out.json")]) == EXIT_OK
    assert len(calls) == 1


def test_construct_end_to_end(tmp_path):
    table_path = tmp_path / "table.json"
    report_path = tmp_path / "report.json"
    main(["generate", "--n", "4", "--seed", "11", "--out", str(table_path)])
    code = main(
        [
            "construct",
            "--input",
            str(table_path),
            "--generator",
            str(table_path) + ".generator.json",
            "--gate-thm13",
            "--out",
            str(report_path),
        ]
    )
    assert code == EXIT_OK
    report = read(report_path)
    assert report["pass"] == {"thm11": True, "thm12": True, "thm13": True}
    assert report["gauge"]["residual"] < 1e-9 * (1 + report["norms"]["delta_upper"])
    assert set(report["artifacts"]) >= {"b1", "c1", "b2", "c2", "b", "k"}


def test_construct_rejects_corrupted_table(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "2", "--seed", "3", "--out", str(table_path)])
    obj = read(table_path)
    obj["entries"][1]["value"]["data"][0][0] += 1e-3
    with open(table_path, "w") as handle:
        json.dump(obj, handle)
    code = main(["construct", "--input", str(table_path), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VALIDATION
    report = validate(DerivationTable.from_json(obj))
    message = capsys.readouterr().err
    u, v = report.worst_pair
    assert f"at {u} x {v}" in message
    assert f"over {len(report.failing_pairs)} pairs" in message
    for u, v, _ in report.failing_pairs[:3]:
        assert f"{u} x {v} (" in message


def test_reports_are_byte_identical(tmp_path):
    paths = []
    for run in ("a", "b"):
        table_path = tmp_path / f"table_{run}.json"
        report_path = tmp_path / f"report_{run}.json"
        main(["generate", "--n", "3", "--seed", "5", "--out", str(table_path)])
        main(["construct", "--input", str(table_path), "--out", str(report_path)])
        paths.append(report_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_seed_is_not_an_option_of_construct_or_verify(tmp_path, command):
    # the norm-sampling stream is fixed, so a report follows from its input files and flags alone
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "5", "--out", str(table_path)])
    args = [command, "--input", str(table_path), "--seed", "5", "--out", str(tmp_path / "o.json")]
    if command == "verify":
        args += ["--b", str(table_path) + ".generator.json"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "o.json").exists()


def test_verify_accepts_constructed_b(tmp_path):
    table_path = tmp_path / "table.json"
    report_path = tmp_path / "report.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    main(["construct", "--input", str(table_path), "--out", str(report_path)])
    b_path = tmp_path / "b.json"
    with open(b_path, "w") as handle:
        json.dump(read(report_path)["artifacts"]["b"], handle)
    code = main(
        [
            "verify",
            "--input",
            str(table_path),
            "--b",
            str(b_path),
            "--gate-thm13",
            "--out",
            str(tmp_path / "verify.json"),
        ]
    )
    assert code == EXIT_OK


def test_verify_rejects_wrong_b(tmp_path):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    b_path = tmp_path / "b.json"
    with open(b_path, "w") as handle:
        json.dump({"rows": 3, "cols": 3, "data": [[1.0, 0.0]] * 9}, handle)
    code = main(["verify", "--input", str(table_path), "--b", str(b_path), "--out", str(tmp_path / "v.json")])
    assert code == EXIT_VALIDATION


def test_verify_rejects_a_b_whose_squared_entries_overflow(tmp_path, capsys):
    # entries near 1e200 square to inf, so no Frobenius bound can prune a unit: every residual is the exact norm
    table_path, b_path, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "v.json"
    main(["generate", "--n", "6", "--seed", "1", "--out", str(table_path)])
    rng = np.random.default_rng(7)
    b = 1e200 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    b_path.write_text(json.dumps(matrix_to_json(b)))
    capsys.readouterr()
    argv = ["verify", "--input", str(table_path), "--b", str(b_path), "--gate-thm13", "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    report = read(out)
    table = DerivationTable.from_json(read(table_path))
    b = matrix_from_json(read(b_path))
    exact = [np.linalg.norm(table.values[u] - (b @ e - e @ b), 2) for u, e in ((u, table.alg.unit_matrix(u)) for u in table.alg.basis_units())]
    assert report["residual_full"] == max(exact) > 1e199
    assert report["residual_pSp"] > 1e199 and report["residual_corner"] > 1e199
    assert capsys.readouterr().err.startswith("verification failed: thm11 residual_pSp ")


@pytest.mark.parametrize("gate_thm13", [False, True])
def test_failed_theorem_gate_names_residual_tolerance_and_unit(tmp_path, capsys, gate_thm13):
    table_path, b_path, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "v.json"
    main(["generate", "--n", "6", "--seed", "1", "--out", str(table_path)])
    b_path.write_text(json.dumps(matrix_to_json(np.zeros((6, 6)))))
    capsys.readouterr()
    argv = ["verify", "--input", str(table_path), "--b", str(b_path), "--out", str(out)]
    assert main(argv + (["--gate-thm13"] if gate_thm13 else [])) == EXIT_VALIDATION
    report = read(out)
    table = DerivationTable.from_json(read(table_path))
    # with b = 0 every unit's defect is its table value; p has rank 3 at the default k
    norms = {u: np.linalg.norm(table.values[u], 2) for u in table.alg.basis_units()}
    psp = [u for u in norms if u.i < 3 and u.j < 3]
    corner = [u for u in norms if u.i >= 3 and u.j >= 3]
    worst_psp, worst_corner = max(psp, key=norms.get), max(corner, key=norms.get)
    assert report["residual_pSp"] == norms[worst_psp] and report["residual_corner"] == norms[worst_corner]
    tol = table.tol * table.value_scale
    thm12 = ("residual_pSp", worst_psp) if norms[worst_psp] >= norms[worst_corner] else ("residual_corner", worst_corner)
    expected = [
        f"thm11 residual_pSp {report['residual_pSp']:.3e} > tol {tol:.3e} at unit {tuple(worst_psp)}",
        f"thm12 {thm12[0]} {report[thm12[0]]:.3e} > tol {tol:.3e} at unit {tuple(thm12[1])}",
    ]
    if gate_thm13:
        worst = max(norms, key=norms.get)
        assert report["residual_full"] == norms[worst] >= report["rule_max"]
        expected.append(f"thm13 residual_full {report['residual_full']:.3e} > tol {tol:.3e} at unit {tuple(worst)}")
    err = capsys.readouterr().err
    assert err == f"verification failed: {'; '.join(expected)}\n"


def test_chain_command(tmp_path):
    table_path = tmp_path / "table.json"
    out = tmp_path / "chain.json"
    main(["generate", "--n", "4", "--seed", "9", "--out", str(table_path)])
    assert main(["chain", "--input", str(table_path), "--out", str(out)]) == EXIT_OK
    obj = read(out)
    assert len(obj["family"]) == 3
    for entry in obj["family"]:
        for lam in entry["lambdas"]:
            assert abs(complex(*lam["value"])) < 1e-8 * 50  # normalized family
    assert obj["stabilized"]["implements_residual"] < 1e-8 * 50


def test_chain_single_interior_note(tmp_path):
    table_path = tmp_path / "table.json"
    out = tmp_path / "chain.json"
    main(["generate", "--n", "2", "--seed", "1", "--out", str(table_path)])
    assert main(["chain", "--input", str(table_path), "--out", str(out)]) == EXIT_OK
    assert "single interior projection" in read(out)["note"]


def test_chain_rejects_irreducible_model(tmp_path):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--chain", "3", "--out", str(table_path)])
    code = main(["chain", "--input", str(table_path), "--out", str(tmp_path / "c.json")])
    assert code == EXIT_CONFIG


def test_construct_choice_flags(tmp_path):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "5", "--seed", "4", "--out", str(table_path)])
    code = main(
        [
            "construct",
            "--input",
            str(table_path),
            "--k",
            "2",
            "--xi0-index",
            "4",
            "--eta1-index",
            "1",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == EXIT_OK
    # xi0 index inside p is a config error
    code = main(
        ["construct", "--input", str(table_path), "--k", "2", "--xi0-index", "0", "--out", str(tmp_path / "r2.json")]
    )
    assert code == EXIT_CONFIG


BAD_GENERATORS = {
    "bad_json": "{not json",
    "missing_keys": json.dumps({"rows": 3, "cols": 3}),
    "wrong_shape": json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 4}),
    "fractional_shape": json.dumps({"rows": 3.5, "cols": 3, "data": [[1.0, 0.0]] * 9}),
    "infinite_shape": json.dumps({"rows": float("inf"), "cols": 3, "data": [[1.0, 0.0]] * 9}),
    "integer_shape_beyond_float": json.dumps({"rows": 10**400, "cols": 3, "data": []}),
    "boolean_shape": json.dumps({"rows": True, "cols": 3, "data": [[1.0, 0.0]] * 3}),
    "boolean_entry": json.dumps({"rows": 3, "cols": 3, "data": [[True, False]] + [[1.0, 0.0]] * 8}),
    "string_entry": json.dumps({"rows": 3, "cols": 3, "data": [["1.0", 0.0]] + [[1.0, 0.0]] * 8}),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
@pytest.mark.parametrize("command", ["construct", "verify", "chain", "verify --b"])
def test_bad_generator_is_config_error(tmp_path, capsys, command, case):
    """The bad matrix goes to --generator, or to --b for "verify --b"."""
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_GENERATORS[case])
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(matrix_to_json(np.zeros((3, 3)))))
    command, _, flag = command.partition(" ")
    generator, b = (zero, bad) if flag == "--b" else (bad, zero)
    args = [command, "--input", str(table_path), "--generator", str(generator), "--out", str(tmp_path / "o.json")]
    if command == "verify":
        args += ["--b", str(b)]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def _non_pair(obj):
    obj["entries"][0]["value"]["data"][0] = 1.0


def _extra_entry(i, j):
    def mutate(obj):
        obj["entries"].append({**obj["entries"][0], "i": i, "j": j})

    return mutate


MALFORMED_TABLES = {
    "entries_not_a_list": lambda obj: obj.update(entries=5),
    "non_pair_data": _non_pair,
    "unit_out_of_range": _extra_entry(9, 9),
    "entry_below_pattern": _extra_entry(2, 0),
    "duplicate_entry": lambda obj: obj["entries"].append(obj["entries"][0]),
    "fractional_index": lambda obj: obj["entries"][1].update(j=obj["entries"][1]["j"] + 0.5),
    "fractional_value_shape": lambda obj: obj["entries"][0]["value"].update(rows=3.5),
    "infinite_index": lambda obj: obj["entries"][0].update(i=float("inf")),
    "fractional_n": lambda obj: obj["algebra"].update(n=3.5),
    "fractional_chain": lambda obj: obj["algebra"].update(chain=[1, 2.9, 3]),
    "infinite_n": lambda obj: obj["algebra"].update(n=float("inf")),
    # JSON's true is not the number 1, nor "1e-9" the number 1e-9
    "boolean_tol": lambda obj: obj.update(tol=True),
    "string_tol": lambda obj: obj.update(tol="1e-9"),
    "boolean_n": lambda obj: obj["algebra"].update(n=True),
    "boolean_chain": lambda obj: obj["algebra"].update(chain=[True, 2, 3]),
    "string_chain": lambda obj: obj["algebra"].update(chain=["1", 2, 3]),
    "boolean_index": lambda obj: obj["entries"][1].update(j=True),
    "boolean_value_shape": lambda obj: obj["entries"][0]["value"].update(rows=True),
    "boolean_data_pair": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [True, False]),
    "string_data_part": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [1.0, "0"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_is_config_error(tmp_path, capsys, case):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    obj = read(table_path)
    MALFORMED_TABLES[case](obj)
    table_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["construct", "--input", str(table_path), "--out", str(tmp_path / "o.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad derivation table ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["construct", "chain"])
def test_tol_must_be_finite_and_positive(tmp_path, command, tol):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(table_path), "--tol", tol, "--out", str(tmp_path / "o.json")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["construct", "chain"])
@pytest.mark.parametrize("n, chain, units", [(3000, [1500, 3000], 6_750_000), (100000, [100000], 10**10)])
def test_small_file_declaring_a_large_algebra_is_rejected_at_once(tmp_path, capsys, monkeypatch, command, n, chain, units):
    def refuse(*args):
        raise AssertionError("built before the entries were counted")

    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"algebra": {"n": n, "chain": chain}, "entries": []}))
    monkeypatch.setattr(NestAlgebra, "pattern_mask", refuse)
    monkeypatch.setattr(NestAlgebra, "basis_units", refuse)
    capsys.readouterr()
    start = time.perf_counter()
    assert main([command, "--input", str(table_path), "--out", str(tmp_path / "o.json")]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"config error: bad derivation table {table_path}: 0 entries, expected one for each of the {units} basis units\n"
    )


@pytest.mark.parametrize("flag", ["--input", "--generator", "--b"])
def test_deeply_nested_json_is_config_error(tmp_path, capsys, flag):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    generator = str(table_path) + ".generator.json"
    files = {"--input": str(table_path), "--generator": generator, "--b": generator, flag: str(deep)}
    args = ["verify", *(arg for pair in files.items() for arg in pair), "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad ") and err.endswith(f"{deep}: JSON nested too deeply to parse\n")
    assert err.count("\n") == 1
