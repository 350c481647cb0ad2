import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_fileset.py"
spec = importlib.util.spec_from_file_location("cli_fileset", TOOL)
cli_fileset = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_fileset)


def test_cli_fileset_writes_and_compares_the_smoke_set(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_fileset.main([str(out), "--size", "smoke"]) == 0
    names = sorted(p.name for p in a.iterdir())
    # two tables with their generators, eight construct/chain reports, the picked construct, b and two verify reports
    assert len(names) == 16 and {"t.json", "c.json", "b.json", "construct-t-pick.json", "verify-t-gen.json"} <= set(names)
    assert cli_fileset.compare(a, b) == []
    assert cli_fileset.main(["--compare", str(a), str(b)]) == 0

    report = b / "chain-c.json"
    report.write_bytes(report.read_bytes().replace(b"1", b"2", 1))
    (b / "verify-t.json").unlink()
    assert cli_fileset.compare(a, b) == ["chain-c.json", "verify-t.json"]
    assert cli_fileset.main(["--compare", str(a), str(b)]) == 1
