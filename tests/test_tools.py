import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_fileset.py"
spec = importlib.util.spec_from_file_location("cli_fileset", TOOL)
cli_fileset = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_fileset)
spec = importlib.util.spec_from_file_location("ab", TOOL.with_name("ab.py"))
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def test_cli_fileset_writes_and_compares_the_smoke_set(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_fileset.main([str(out), "--size", "smoke"]) == 0
    names = sorted(p.name for p in a.iterdir())
    # two tables with their generators, eight construct/chain reports, a picked construct on each table, b and two
    # verify reports, T_4 times 2^600 with its generator and its construct and chain reports, and T_4 with a
    # diagonal defect and its construct and chain reports
    assert len(names) == 24 and {"t.json", "c.json", "b.json", "verify-t-gen.json"} <= set(names)
    assert {"construct-t-pick.json", "construct-c-pick.json"} <= set(names)
    assert {"t-big.json", "t-big.json.generator.json", "construct-t-big.json", "chain-t-big.json"} <= set(names)
    assert {"t-diag.json", "construct-t-diag.json", "chain-t-diag.json"} <= set(names)
    assert all(json.loads((a / "construct-t-diag.json").read_text())["pass"].values())
    big, small = (json.loads((a / name).read_text()) for name in ("construct-t-big.json", "construct-t-gen.json"))
    assert all(big["pass"].values())
    for key in ("b", "delta_lower", "delta_upper"):
        assert big["norms"][key] == pytest.approx(cli_fileset.BIG * small["norms"][key], rel=1e-9)
    assert cli_fileset.compare(a, b) == []
    assert cli_fileset.main(["--compare", str(a), str(b)]) == 0

    report = b / "chain-c.json"
    report.write_bytes(report.read_bytes().replace(b"1", b"2", 1))
    (b / "verify-t.json").unlink()
    assert cli_fileset.compare(a, b) == ["chain-c.json", "verify-t.json"]
    capsys.readouterr()
    assert cli_fileset.main(["--compare", str(a), str(b)]) == 1
    # the first "1" of the report is the leading digit of the real part of entry 4 of the first member's b
    was, now = (json.loads((out / "chain-c.json").read_text())["family"][0]["b"]["data"][4][0] for out in (a, b))
    assert str(was)[0] == "1" and str(now)[0] == "2"
    assert capsys.readouterr().out.splitlines() == [
        f"chain-c.json: family[0].b.data[4][0]: {was!r} != {now!r}",
        f"verify-t.json: only in {a}",
        "2 of the files differ",
    ]


def test_first_difference_names_the_key_path_and_both_values():
    def first(x, y):
        return next(cli_fileset.differences(x, y), None)

    assert first({"a": [1, {"b": 2.5}]}, {"a": [1, {"b": 2.5}]}) is None
    assert first({"a": [1, {"b": 2.5}]}, {"a": [1, {"b": 3.5}]}) == "a[1].b: 2.5 != 3.5"
    # keys in sorted order, whatever the order in the file; a missing key, a length and a type count
    assert first({"z": 1, "a": {"x": 0}}, {"a": {"x": 1}, "z": 2}) == "a.x: 0 != 1"
    assert first({"a": 1}, {"a": 1, "b": "s"}) == 'b: missing != "s"'
    assert first({"a": [1, 2]}, {"a": [1]}) == "a: length 2 != 1"
    assert first({"a": 1}, {"a": 1.0}) == "a: 1 != 1.0"
    assert first([0], [[0]]) == "[0]: 0 != [0]"
    assert first(1, 2) == ".: 1 != 2"
    assert first({"a": "x" * 100}, {"a": "y"}) == f'a: "{"x" * 56}... != "y"'


def test_describe_reports_bytes_that_hold_the_same_json(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, text in ((a, '{"a": 1}'), (b, '{"a":1}')):
        out.mkdir()
        (out / "r.json").write_text(text)
        (out / "t.txt").write_text(text + str(out))
    assert cli_fileset.compare(a, b) == ["r.json", "t.txt"]
    assert cli_fileset.describe(a, b, "r.json") == (
        "r.json: bytes differ, JSON values equal; first at line 1: '{\"a\": 1}' != '{\"a\":1}'"
    )
    assert cli_fileset.describe(a, b, "t.txt") == "t.txt: bytes differ (not JSON)"
    # a layout slip deep in a file: the first differing line is named and shown from both files, newline included
    layout = json.dumps({"data": [[1.0, -0.0]] * 3, "rows": 3}, indent=2, sort_keys=True)
    for out, text in ((a, layout), (b, layout.replace("-0.0\n    ],", "-0.0\n  ],", 1))):
        (out / "m.json").write_text(text)
    assert cli_fileset.describe(a, b, "m.json") == (
        "m.json: bytes differ, JSON values equal; first at line 6: '    ],\\n' != '  ],\\n'"
    )
    # a missing final newline, or a "\r" that read_text would translate away
    for out, text in ((a, layout + "\n"), (b, layout)):
        (out / "n.json").write_text(text)
    (a / "r.json").write_bytes(b'{"a":\n1}')
    (b / "r.json").write_bytes(b'{"a":\r\n1}')
    assert cli_fileset.describe(a, b, "n.json").endswith("first at line 17: '}\\n' != '}'")
    assert cli_fileset.describe(a, b, "r.json").endswith("first at line 1: '{\"a\":\\n' != '{\"a\":\\r\\n'")
    (b / "n.json").write_text(layout + "\n\n")
    assert cli_fileset.describe(a, b, "n.json").endswith("first at line 18: end of file != '\\n'")


def test_compare_lists_every_differing_key_path_up_to_the_cap(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, shift in ((a, 0), (b, 1)):
        out.mkdir()
        (out / "few.json").write_text(json.dumps({"norms": {"b": 2.0, "delta_lower": 1.5 + shift}, "pass": [True, bool(shift)]}))
        (out / "many.json").write_text(json.dumps({"data": [x + shift for x in range(cli_fileset.LISTED + 3)]}))
    assert list(cli_fileset.differences(json.loads((a / "few.json").read_text()), json.loads((b / "few.json").read_text()))) == [
        "norms.delta_lower: 1.5 != 2.5",
        "pass[1]: false != true",
    ]
    capsys.readouterr()
    assert cli_fileset.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["few.json: norms.delta_lower: 1.5 != 2.5", "few.json: pass[1]: false != true"]
    assert lines[2:] == [
        *(f"many.json: data[{i}]: {i} != {i + 1}" for i in range(cli_fileset.LISTED)),
        "many.json: and 3 more",
        "2 of the files differ",
    ]


def test_compare_of_a_missing_directory_names_it_and_exits_2(tmp_path, capsys):
    a, missing, afile = tmp_path / "a", tmp_path / "missing", tmp_path / "f.json"
    a.mkdir()
    afile.write_text("{}")
    for pair in ((a, missing), (missing, a), (a, afile)):
        capsys.readouterr()
        assert cli_fileset.main(["--compare", *map(str, pair)]) == 2
        out, err = capsys.readouterr()
        bad = pair[1] if pair[0] == a else pair[0]
        assert out == "" and err == f"not a directory: {bad}\n"


def test_ab_summary_counts_wins_and_checks_the_gain_and_the_bound():
    # pass_s: the change wins 9 of 10 (pair 4 a tie), medians 0.31 and 0.245 against a parent spread of 0.01
    parent = [0.30, 0.31, 0.32, 0.31, 0.30, 0.32, 0.31, 0.31, 0.30, 0.32]
    change = [0.24, 0.25, 0.24, 0.31, 0.25, 0.24, 0.25, 0.24, 0.25, 0.24]
    pairs = [({"pass_s": p, "ok_frac": 1.0}, {"pass_s": c, "ok_frac": 1.0}) for p, c in zip(parent, change)]
    assert ab.summarize(pairs, METRICS) == [
        "pass_s (s, lower is better): parent 0.31 [0.3025, 0.3175], change 0.245 [0.24, 0.25], change wins 9 of 10; "
        "gain shown: yes; worse than the 25% bound: no",
        "ok_frac (ratio, higher is better): parent 1 [1, 1], change 1 [1, 1], change wins 0 of 10; "
        "gain shown: no; worse than the 1% bound: no",
    ]
    # one more loss is 8 of 10 wins; a change 30% slower is worse than the bound and wins nothing
    pairs[0][1]["pass_s"] = 0.35
    assert "change wins 8 of 10; gain shown: no;" in ab.summarize(pairs, METRICS)[0]
    slower = [({"pass_s": p, "ok_frac": 1.0}, {"pass_s": 1.3 * p, "ok_frac": 0.98}) for p in parent]
    assert [line.split("; ", 1)[1] for line in ab.summarize(slower, METRICS)] == [
        "gain shown: no; worse than the 25% bound: yes",
        "gain shown: no; worse than the 1% bound: yes",
    ]
    assert ab.summarize([], METRICS) == []


def test_ab_summary_calls_a_metric_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent pass_s median 0.4 with quartiles 0.3 and 0.5: an IQR of 50% of the median, against a bound of 25%
    parent = [0.2, 0.3, 0.3, 0.3, 0.4, 0.4, 0.5, 0.5, 0.5, 0.6]

    def verdict(change):
        pairs = [({"pass_s": p, "ok_frac": 1.0}, {"pass_s": c, "ok_frac": 1.0}) for p, c in zip(parent, change)]
        return ab.summarize(pairs, METRICS)[0].split("bound: ")[1]

    assert verdict([0.9 * p for p in parent]) == "unresolved, the parent's IQR is wider"
    # every run of the change better than every run of the parent resolves it; a median past the bound is worse
    assert verdict([0.1 + 0.001 * i for i in range(10)]) == "no"
    assert verdict([1.3 * p for p in parent]) == "yes"
    # ok_frac's spread is 0, so its verdict stands
    pairs = [({"pass_s": p, "ok_frac": 1.0}, {"pass_s": p, "ok_frac": 1.0}) for p in parent]
    assert ab.summarize(pairs, METRICS)[1].endswith("worse than the 1% bound: no")


def test_ab_alternates_the_first_side_and_exits_1_on_a_failed_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"command": ["true"], "run_seconds": 30, "end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, command, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        if len(calls) == 6:
            return None
        return {"pass_s": 0.3 if checkout == tmp_path else 0.2, "ok_frac": 1.0}

    monkeypatch.setattr(ab, "run", fake_run)
    change = tmp_path / "change"
    assert ab.main([str(tmp_path), str(change), "--workload", "lib-sweep", "--pairs", "3", "--seed", "2"]) == 1
    assert [name for name, *_ in calls] == [tmp_path.name, "change", "change", tmp_path.name, tmp_path.name, "change"]
    assert {tuple(rest) for _, *rest in calls} == {("lib-sweep", 2, 30)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "pair 1 (parent first, parent / change): pass_s 0.3 / 0.2, ok_frac 1 / 1",
        "pair 2 (change first, parent / change): pass_s 0.3 / 0.2, ok_frac 1 / 1",
        "pair 3: a run failed",
    ]
    assert lines[3].startswith("pass_s (s, lower is better): parent 0.3 [0.3, 0.3], change 0.2 [0.2, 0.2], change wins 2 of 2")
    calls.clear()
    assert ab.main([str(tmp_path), str(change), "--workload", "cli-tn", "--pairs", "1", "--seconds", "5"]) == 0
    assert calls[0][1:] == ("cli-tn", 1, 5.0)


def test_ab_run_reads_the_last_line_and_rejects_incorrect_or_failed_runs(tmp_path, capsys):
    def command(correct, code=0):
        result = {"correct": correct, "metrics": {"pass_s": {"value": 0.5, "unit": "s"}}}
        return [sys.executable, "-c", f"import sys; print('env {{}}'); print({json.dumps(json.dumps(result))}); sys.exit({code})"]

    assert ab.run(tmp_path, command(True), "lib-sweep", 1, 0.1) == {"pass_s": 0.5}
    assert ab.run(tmp_path, command(False), "lib-sweep", 1, 0.1) is None
    assert ab.run(tmp_path, command(True, 1), "lib-sweep", 1, 0.1) is None
    assert ab.run(tmp_path, [sys.executable, "-c", "print('no json')"], "lib-sweep", 1, 0.1) is None
    assert capsys.readouterr().err.count(f"{tmp_path}: exit") == 3


def test_ab_run_records_a_timeout_as_a_failed_run(tmp_path, monkeypatch, capsys):
    # the stub sleeps past a timeout cut to half a second; the run fails, and no traceback escapes
    run = subprocess.run
    monkeypatch.setattr(ab.subprocess, "run", lambda *args, **kwargs: run(*args, **{**kwargs, "timeout": 0.5}))
    assert ab.run(tmp_path, [sys.executable, "-c", "import time; time.sleep(10)"], "lib-sweep", 1, 0.1) is None
    assert capsys.readouterr().err == f"{tmp_path}: timed out after 0.5 s\n"
