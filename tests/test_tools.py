import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_fileset.py"
spec = importlib.util.spec_from_file_location("cli_fileset", TOOL)
cli_fileset = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_fileset)


def test_cli_fileset_writes_and_compares_the_smoke_set(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_fileset.main([str(out), "--size", "smoke"]) == 0
    names = sorted(p.name for p in a.iterdir())
    # two tables with their generators, eight construct/chain reports, the picked construct, b and two verify reports,
    # T_4 times 2^600 with its generator and its construct and chain reports, and T_4 with a diagonal defect
    # and its construct and chain reports
    assert len(names) == 23 and {"t.json", "c.json", "b.json", "construct-t-pick.json", "verify-t-gen.json"} <= set(names)
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
