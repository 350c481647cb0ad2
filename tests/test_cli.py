import json
import math
import os
import stat
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestderiv import cli
from nestderiv.algebra import NestAlgebra
from nestderiv.chain import ChainFamily, ChainMember
from nestderiv.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, MAX_TABLE_BYTES, main
from nestderiv.construct import ConstructionChoices, build_b, default_choices
from nestderiv.derivation import DerivationTable, inner_from, validate
from nestderiv.linalg import basis_vector, matrix_from_json, matrix_to_json

from conftest import unit


def read(path):
    with open(path) as handle:
        return json.load(handle)


def test_generate_produces_valid_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["generate", "--n", "2", "--seed", "7", "--out", str(out)]) == EXIT_OK
    table = DerivationTable.from_json(read(out))
    assert len(table.values) == 3
    residual = validate(table).max_residual
    assert residual < 1e-12 * table.value_scale
    assert capsys.readouterr().out == f"wrote {out} (validation residual {residual:.3e})\nwrote {out}.generator.json\n"
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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    """Not the 0o600 of the temp file they are renamed from; and each holds json.dumps(indent=2, sort_keys=True)."""
    table_path, report = tmp_path / "table.json", tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        assert main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)]) == EXIT_OK
        assert main(["construct", "--input", str(table_path), "--out", str(report)]) == EXIT_OK
    finally:
        os.umask(previous)
    for path in (table_path, tmp_path / "table.json.generator.json", report):
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == json.dumps(read(path), indent=2, sort_keys=True) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "table.json", "table.json.generator.json"]


@pytest.mark.parametrize("error, code", [(RuntimeError, None), (KeyboardInterrupt, None), (OSError, EXIT_IO)])
def test_a_writer_that_fails_midway_leaves_no_temp_file(tmp_path, capsys, monkeypatch, error, code):
    """Whatever the writer raises after part of the file reached the disk, the temp file goes; an OSError exits 3."""

    def failing(obj):
        yield "{" * 100_000
        raise error("writer failed")

    monkeypatch.setattr(cli, "_json_chunks", failing)
    argv = ["generate", "--n", "3", "--out", str(tmp_path / "table.json")]
    if code is None:
        with pytest.raises(error, match="writer failed"):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("I/O error: ")
    assert list(tmp_path.iterdir()) == []


# every float json.dumps writes differently from the rest: signed zeros, the extremes, NaN and the infinities
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf)
json_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
json_ints = st.integers() | st.sampled_from((2**53 + 1, -(2**63), 2**64 + 1))
# st.text() draws non-ASCII and control characters too
json_scalars = st.none() | st.booleans() | json_ints | json_floats | st.text()


@st.composite
def matrix_payloads(draw):
    """{"cols", "data", "rows"} as matrix_to_json writes it, 0 x 0 to 3 x 3, with any float parts."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pair = st.lists(json_floats, min_size=2, max_size=2)
    return {"cols": cols, "data": draw(st.lists(pair, min_size=rows * cols, max_size=rows * cols)), "rows": rows}


# payload-shaped dicts whose data is not pairs of floats: int parts, ragged or empty pairs, scalars
odd_payloads = st.fixed_dictionaries(
    {"cols": json_scalars, "data": st.lists(st.lists(json_ints | json_floats, max_size=3) | json_scalars, max_size=4),
     "rows": json_scalars}
)
json_trees = st.recursive(
    json_scalars | matrix_payloads() | odd_payloads,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@given(json_trees)
@example({"cols": 0, "data": [], "rows": 0})
@example({"cols": 1, "data": [[-0.0, 5e-324]], "rows": 1})
@example({"m": {"cols": 2, "data": [[math.nan, math.inf], [-math.inf, 1.7976931348623157e308]], "rows": 1}})
@example({"cols": 1, "data": [[1, 2.0], [1.0]], "rows": 2})
@example([[], {}, [[]], 2**64, True, None, "\u00e9\x00\n"])
@settings(max_examples=300, deadline=None)
def test_writer_is_byte_identical_to_json_dumps(obj):
    assert "".join(cli._json_chunks(obj)) == json.dumps(obj, indent=2, sort_keys=True)


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


@pytest.mark.parametrize("command", ["construct", "verify", "chain"])
def test_value_scale_computed_once_per_call(tmp_path, monkeypatch, command):
    table_path = tmp_path / "table.json"
    report_path = tmp_path / "report.json"
    main(["generate", "--n", "4", "--seed", "6", "--out", str(table_path)])
    main(["construct", "--input", str(table_path), "--out", str(report_path)])
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps(read(report_path)["artifacts"]["b"]))
    calls = []
    scale = DerivationTable.value_scale.fget

    def counted(table):
        # a read that finds the maximum kept with the values computes nothing, so only the others are counted
        if "value_scale" not in table.values._derived:
            calls.append(1)
        return scale(table)

    monkeypatch.setattr(DerivationTable, "value_scale", property(counted))
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


def write_table(tmp_path, table, c, scale=1.0):
    """Write table and its generator c, each times scale; the paths of the table file and the generator file."""
    alg = table.alg
    scaled = DerivationTable(alg, dict(zip(alg.basis_units(), scale * table.stacked())))
    table_path, generator_path = tmp_path / "table.json", tmp_path / "generator.json"
    table_path.write_text(json.dumps(scaled.to_json()))
    generator_path.write_text(json.dumps(matrix_to_json(scale * c)))
    return table_path, generator_path


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_a_defect_is_gated_relative_to_the_table_at_any_scale(tmp_path, k):
    # the tolerance is tol times the largest value norm, so 2^-600 times a rejected table is rejected too
    rng = np.random.default_rng(3)
    c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    table = inner_from(NestAlgebra.triangular(6), c)
    value = table.values[(0, 1)].copy()
    value[0, 0] += 1e-3 * np.abs(c).max()
    table.values[(0, 1)] = value
    table_path, generator_path = write_table(tmp_path, table, c, 2.0**k)
    argv = ["construct", "--input", str(table_path), "--generator", str(generator_path), "--gate-thm13"]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == EXIT_VALIDATION


def test_a_defect_shared_by_the_diagonal_units_passes_the_gates(tmp_path):
    # half validate's tolerance on every delta(E_ii), i < 8 = d at the default k of T_16: c1 reads each row from
    # one value, so b's defect stays near the table's; summed over delta(p) it was about 1.9 times the tolerance
    alg = NestAlgebra.triangular(16)
    rng = np.random.default_rng(0)
    c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    table = inner_from(alg, c)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m *= 0.5 * validate(table).tol / np.linalg.norm(m, 2)
    for i in range(8):
        table.values[(i, i)] = table.values[(i, i)] + m
    table_path, generator_path = write_table(tmp_path, table, c)
    argv = ["construct", "--input", str(table_path), "--generator", str(generator_path), "--gate-thm13"]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert read(tmp_path / "r.json")["pass"] == {"thm11": True, "thm12": True, "thm13": True}


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


def run_cli(*argv):
    """The CLI in a child process, so that what LAPACK prints and any traceback land in its captured output."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "nestderiv.cli", *argv], capture_output=True, text=True, env=env, timeout=120)


def test_verify_reports_an_overflowing_residual_as_infinity(tmp_path):
    # the commutators of b with the units hold -2e308 and 2e308, past the float range
    table_path, b_path, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "v.json"
    main(["generate", "--n", "4", "--seed", "1", "--out", str(table_path)])
    b_path.write_text(json.dumps(matrix_to_json(np.diag([-1e308, 1e308, -1e308, 1e308]))))
    proc = run_cli("verify", "--input", str(table_path), "--b", str(b_path), "--out", str(out))
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stdout == f"wrote {out}\n"
    [line] = proc.stderr.splitlines()
    assert line.startswith("verification failed: thm11 residual_pSp inf > tol ")
    text = out.read_text()
    assert '"residual_pSp": Infinity' in text and "NaN" not in text


def test_verify_gauge_of_a_difference_past_the_float_range(tmp_path):
    # b - c = diag(2e308, 1, 1, 1) overflows, but its scalar part 5e307 and residual 1.5e308 are finite
    table_path, b_path, generator, out = (tmp_path / name for name in ("table.json", "b.json", "c.json", "v.json"))
    main(["generate", "--n", "4", "--seed", "1", "--out", str(table_path)])
    b_path.write_text(json.dumps(matrix_to_json(np.diag([1e308, 1.0, 1.0, 1.0]))))
    generator.write_text(json.dumps(matrix_to_json(np.diag([-1e308, 0.0, 0.0, 0.0]))))
    proc = run_cli("verify", "--input", str(table_path), "--b", str(b_path), "--generator", str(generator), "--out", str(out))
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, f"wrote {out}\n")
    [line] = proc.stderr.splitlines()
    assert line.startswith("verification failed: ")
    gauge = read(out)["gauge"]
    assert gauge["lambda"] == [pytest.approx(5e307, rel=1e-15), 0.0]
    assert gauge["residual"] == pytest.approx(1.5e308, rel=1e-15)


def test_chain_gauge_on_p_of_a_difference_past_the_float_range(tmp_path):
    # b_top is the generator C = diag(9e307, 0, 0, 0), so on p of rank 3 b_top - (-C) = diag(1.8e308, 0, 0) overflows,
    # but its scalar part 6e307 and residual 1.2e308 are finite
    table_path, generator, out = tmp_path / "table.json", tmp_path / "c.json", tmp_path / "chain.json"
    c = np.diag([9e307, 0.0, 0.0, 0.0])
    table_path.write_text(json.dumps(inner_from(NestAlgebra.triangular(4), c).to_json()))
    generator.write_text(json.dumps(matrix_to_json(-c)))
    proc = run_cli("chain", "--input", str(table_path), "--generator", str(generator), "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, f"wrote {out}\n", "")
    gauge = read(out)["stabilized"]["gauge_on_p"]
    assert gauge["lambda"] == [pytest.approx(6e307, rel=1e-15), 0.0]
    assert gauge["residual"] == pytest.approx(1.2e308, rel=1e-15)


@pytest.mark.parametrize("command", ["construct", "chain"])
def test_a_generator_whose_trace_overflows_gets_an_infinite_gauge_residual(tmp_path, command):
    # b - c is -c to rounding; the gauge is reported, not gated, so the exit code is 0 and nothing goes to stderr
    table_path, generator, out = tmp_path / "table.json", tmp_path / "c.json", tmp_path / "r.json"
    main(["generate", "--n", "4", "--seed", "1", "--out", str(table_path)])
    generator.write_text(json.dumps({"rows": 4, "cols": 4, "data": [[1e308, -1e308]] * 16}))
    proc = run_cli(command, "--input", str(table_path), "--generator", str(generator), "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, f"wrote {out}\n", "")
    report = read(out)
    gauge = report["gauge"] if command == "construct" else report["stabilized"]["gauge_on_p"]
    assert gauge == {"lambda": [-1e308, 1e308], "residual": math.inf}


@pytest.mark.parametrize("command", ["construct", "verify", "chain"])
def test_a_table_whose_value_norms_pass_the_float_range_is_a_config_error(tmp_path, command):
    # value_scale is inf, so tol * value_scale could fail no residual; checked before any overflow or SVD
    alg = NestAlgebra.triangular(4)
    units = alg.basis_units()
    values = np.random.default_rng(0).uniform(-1, 1, (len(units), 4, 4)) * 1.7e308
    table_path, b_path, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "o.json"
    table_path.write_text(json.dumps(DerivationTable(alg, dict(zip(units, values))).to_json()))
    b_path.write_text(json.dumps(matrix_to_json(np.zeros((4, 4)))))
    argv = [command, "--input", str(table_path), "--out", str(out)] + (["--b", str(b_path)] if command == "verify" else [])
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
    [line] = proc.stderr.splitlines()
    assert line == f"config error: bad derivation table {table_path}: tol * value_scale = 1e-09 * inf is not finite"
    assert not out.exists()


def test_a_tol_flag_that_overflows_the_scaled_tolerance_is_a_config_error(tmp_path, capsys):
    table_path, out = tmp_path / "table.json", tmp_path / "o.json"
    main(["generate", "--n", "4", "--seed", "1", "--out", str(table_path)])
    capsys.readouterr()
    assert main(["construct", "--input", str(table_path), "--tol", "1e308", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad derivation table {table_path}: tol * value_scale = 1e+308 * ")
    assert err.endswith(" is not finite\n") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("shifted", [2, 3])
def test_chain_gates_the_normalized_residuals(tmp_path, capsys, monkeypatch, shifted):
    # 0.5 E_jj, j = k - 1, added to member k: zero on range(p_{k-1}) and a non-scalar on range(p_k); so at k = 2 pair
    # (2, 3) fails and the top member still implements, and at the top k = 3 no pair fails and the level does
    table_path, out = tmp_path / "table.json", tmp_path / "chain.json"
    main(["generate", "--n", "4", "--seed", "9", "--out", str(table_path)])
    normalize = cli.normalize_chain

    def shift(family):
        members = [
            ChainMember(k=m.k, b=m.b + 0.5 * unit(4, m.k - 1, m.k - 1) if m.k == shifted else m.b)
            for m in family.members
        ]
        return normalize(ChainFamily(alg=family.alg, members=members, lambdas=family.lambdas))

    monkeypatch.setattr(cli, "normalize_chain", shift)
    capsys.readouterr()
    assert main(["chain", "--input", str(table_path), "--out", str(out)]) == EXIT_VALIDATION
    report = read(out)
    tol = validate(DerivationTable.from_json(read(table_path))).tol
    if shifted == 2:
        residual = next(lam["residual"] for lam in report["family"][1]["lambdas"] if lam["beta"] == 3)
        assert residual == pytest.approx(0.25)
        expected = f"pair residual {residual:.3e} > tol {tol:.3e} at pair (2, 3)"
    else:
        assert all(lam["residual"] <= tol for entry in report["family"] for lam in entry["lambdas"])
        residual = report["stabilized"]["implements_residual"]
        assert residual == pytest.approx(0.5)
        expected = f"implements_residual {residual:.3e} > tol {tol:.3e} at level k=3"
    assert capsys.readouterr().err == f"chain failed: {expected}\n"


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
    # p at k = 2 has rank 2: the defaults are xi0 = e_2 and eta1 = e_0, and the flags pick e_4 and e_1
    table_path, out = tmp_path / "table.json", tmp_path / "r.json"
    main(["generate", "--n", "5", "--seed", "4", "--out", str(table_path)])
    argv = ["construct", "--input", str(table_path), "--k", "2", "--xi0-index", "4", "--eta1-index", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    artifacts = read(out)["artifacts"]
    choices = ConstructionChoices(k=2, xi0=basis_vector(5, 4), eta1=basis_vector(5, 1))
    assert artifacts["k"] == 2
    assert matrix_from_json(artifacts["xi0"]).tobytes() == choices.xi0.tobytes()
    assert matrix_from_json(artifacts["eta1"]).tobytes() == choices.eta1.tobytes()
    table = DerivationTable.from_json(read(table_path))
    expected = build_b(table, choices).b
    assert matrix_from_json(artifacts["b"]).tobytes() == expected.tobytes()
    assert not np.array_equal(expected, build_b(table, default_choices(table.alg, 2)).b)
    # xi0 index inside p is a config error
    code = main(
        ["construct", "--input", str(table_path), "--k", "2", "--xi0-index", "0", "--out", str(tmp_path / "r2.json")]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, flags",
    [
        ("generate", ["--n", "5", "--chain", "1,x,4"]),
        # p at k = 2 has rank 2, so eta1 = e_2 lies outside it
        ("construct", ["--k", "2", "--eta1-index", "2"]),
        # e_5 is not a vector of C^5, and index -1 is not e_4
        ("construct", ["--k", "2", "--xi0-index", "5"]),
        ("construct", ["--k", "2", "--xi0-index", "-1"]),
        ("construct", ["--k", "2", "--eta1-index", "5"]),
        # the last chain index is the identity, not an interior projection
        ("verify", ["--k", "5"]),
    ],
    ids=["generate_chain_not_integers", "eta1_outside_p", "xi0_past_n", "xi0_negative", "eta1_past_n", "verify_last_index"],
)
def test_bad_option_value_is_config_error(tmp_path, capsys, command, flags):
    table_path, zero = tmp_path / "table.json", tmp_path / "zero.json"
    main(["generate", "--n", "5", "--seed", "4", "--out", str(table_path)])
    zero.write_text(json.dumps(matrix_to_json(np.zeros((5, 5)))))
    args = [command, *flags, "--out", str(tmp_path / "o.json")]
    if command != "generate":
        args += ["--input", str(table_path)]
    if command == "verify":
        args += ["--b", str(zero)]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o.json").exists()


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
    "short_pair": json.dumps({"rows": 3, "cols": 3, "data": [[1.0]] + [[1.0, 0.0]] * 8}),
    "long_pair": json.dumps({"rows": 3, "cols": 3, "data": [[1.0, 0.0, 0.0]] + [[1.0, 0.0]] * 8}),
    "number_pair": json.dumps({"rows": 3, "cols": 3, "data": [1.0] + [[1.0, 0.0]] * 8}),
    "integer_part_beyond_float": json.dumps({"rows": 3, "cols": 3, "data": [[10**400, 0.0]] + [[1.0, 0.0]] * 8}),
    # 1e400 is read as inf
    "overflowing_part": '{"rows": 3, "cols": 3, "data": [[1e400, 0.0]' + ", [1.0, 0.0]" * 8 + "]}",
    "dict_data": json.dumps({"rows": 3, "cols": 3, "data": {str(r): [1.0, 0.0] for r in range(9)}}),
    "string_data": json.dumps({"rows": 3, "cols": 3, "data": "x" * 9}),
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


# a part that the table test writes as the JSON number 1e400, which is read as inf
OVERFLOWING = "1e400 as a number"


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
    # the count is kept, so only the unit check finds it
    "last_entry_below_pattern": lambda obj: obj["entries"][-1].update(i=2, j=0),
    "duplicate_entry": lambda obj: obj["entries"].append(obj["entries"][0]),
    "fractional_index": lambda obj: obj["entries"][1].update(j=obj["entries"][1]["j"] + 0.5),
    "fractional_value_shape": lambda obj: obj["entries"][0]["value"].update(rows=3.5),
    "infinite_index": lambda obj: obj["entries"][0].update(i=float("inf")),
    "fractional_n": lambda obj: obj["algebra"].update(n=3.5),
    "fractional_chain": lambda obj: obj["algebra"].update(chain=[1, 2.9, 3]),
    "infinite_n": lambda obj: obj["algebra"].update(n=float("inf")),
    "chain_empty": lambda obj: obj["algebra"].update(chain=[]),
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
    "short_pair": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [1.0]),
    "long_pair": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [1.0, 0.0, 0.0]),
    "integer_part_beyond_float": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [10**400, 0.0]),
    "overflowing_part": lambda obj: obj["entries"][0]["value"]["data"].__setitem__(0, [OVERFLOWING, 0.0]),
    "dict_data": lambda obj: obj["entries"][0]["value"].update(data={str(r): [1.0, 0.0] for r in range(9)}),
    "string_data": lambda obj: obj["entries"][0]["value"].update(data="x" * 9),
    # the 9 entries of a 3 x 3 value, declared 1 x 9
    "value_not_n_by_n": lambda obj: obj["entries"][0]["value"].update(rows=1, cols=9),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_is_config_error(tmp_path, capsys, case):
    table_path = tmp_path / "table.json"
    main(["generate", "--n", "3", "--seed", "2", "--out", str(table_path)])
    obj = read(table_path)
    MALFORMED_TABLES[case](obj)
    table_path.write_text(json.dumps(obj).replace(json.dumps(OVERFLOWING), "1e400"))
    capsys.readouterr()
    assert main(["construct", "--input", str(table_path), "--out", str(tmp_path / "o.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad derivation table ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["construct", "verify", "chain"])
def test_tol_flag_replaces_the_file_tolerance(tmp_path, capsys, command):
    # one table value 1e-3 off fails validation at the file's tol, 1e-9, and passes at --tol 1e-2
    table_path, b_path, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "o.json"
    main(["generate", "--n", "4", "--seed", "3", "--out", str(table_path)])
    obj = read(table_path)
    obj["entries"][1]["value"]["data"][0][0] += 1e-3
    table_path.write_text(json.dumps(obj))
    table = DerivationTable.from_json(obj)
    assert table.tol == 1e-9
    b_path.write_text(json.dumps(matrix_to_json(build_b(table, default_choices(table.alg)).b)))
    args = [command, "--input", str(table_path), "--out", str(out)]
    if command == "verify":
        args += ["--b", str(b_path)]
    capsys.readouterr()
    assert main(args) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("table failed validation: ")
    assert not out.exists()
    assert main([*args, "--tol", "1e-2"]) == EXIT_OK
    assert out.exists()


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


# what a fuzzed value or key of an input file becomes; DELETE removes it
DELETE = object()
MUTANTS = (True, "x", None, 1e200, 1e308, 10**400, [[1.0, [2.0]]], DELETE)


def _locations(doc, path=()):
    """The key path of every value inside the JSON document doc, containers before their contents."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield (*path, key)
        yield from _locations(value, (*path, key))


def _mutated(doc, path, mutant, rename):
    """A copy of doc with the value at path replaced by mutant or deleted; with rename, its key becomes mutant's JSON text."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    holder = doc
    for step in parents:
        holder = holder[step]
    if mutant is DELETE:
        del holder[key]
    elif rename and isinstance(holder, dict):
        holder[json.dumps(mutant)] = holder.pop(key)
    else:
        holder[key] = mutant
    return doc


def test_fuzzed_input_files_give_an_exit_code_and_no_warning(tmp_path, capsys):
    """A table, generator or b with one value or key mutated: construct, verify and chain each end in an exit code.

    No exception escapes cli.main and no numpy RuntimeWarning is raised.  The
    first two mutations put 1e200 into a table entry, whose square overflows
    unless validate scales the values first, and 1e308 into the (0, 0) entry
    of delta(E_00), which the pair (E_00, E_00) adds to itself.
    """
    table, b, out = tmp_path / "table.json", tmp_path / "b.json", tmp_path / "out.json"
    assert main(["generate", "--n", "4", "--chain", "2,4", "--seed", "11", "--out", str(table)]) == EXIT_OK
    generator = tmp_path / "table.json.generator.json"
    assert main(["construct", "--input", str(table), "--generator", str(generator), "--out", str(out)]) == EXIT_OK
    b.write_text(json.dumps(read(out)["artifacts"]["b"]))
    files = {path: read(path) for path in (table, generator, b)}
    locations = [(path, where) for path, doc in files.items() for where in _locations(doc)]
    rng = np.random.default_rng(2)
    cases = [
        (table, ("entries", 3, "value", "data", 5, 0), 1e200, False),
        (table, ("entries", 0, "value", "data", 0, 0), 1e308, False),
    ]
    for _ in range(98):
        path, where = locations[rng.integers(len(locations))]
        cases.append((path, where, MUTANTS[rng.integers(len(MUTANTS))], rng.random() < 0.2))
    runs = [
        ["construct", "--input", str(table), "--generator", str(generator), "--gate-thm13"],
        ["verify", "--input", str(table), "--b", str(b), "--generator", str(generator)],
        ["chain", "--input", str(table), "--generator", str(generator)],
    ]
    codes = []
    for path, where, mutant, rename in cases:
        for original, doc in files.items():
            original.write_text(json.dumps(_mutated(doc, where, mutant, rename) if original == path else doc))
        for argv in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([*argv, "--out", str(out)])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CONFIG, EXIT_IO), (path.name, where, mutant, argv[0])
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (path.name, where, mutant, argv[0])
            codes.append(code)
    capsys.readouterr()
    # the first two mutations corrupt the table, so every command rejects it
    assert codes[:6] == [EXIT_VALIDATION] * 6
    assert {EXIT_OK, EXIT_VALIDATION, EXIT_CONFIG} <= set(codes)
