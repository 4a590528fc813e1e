import json

import pytest

from clustertube.cli import run
from clustertube.verify import SuiteReport


def capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_enumerate_rigid_text(capsys):
    code, out = capture(capsys, ["enumerate-rigid", "--n", "2"])
    assert code == 0
    assert "maximal rigid objects" in out
    assert out.count("+") == 6  # one separator per object


def test_enumerate_rigid_json(capsys):
    code, out = capture(capsys, ["enumerate-rigid", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 20
    assert len(payload["objects"]) == 20


def test_b_matrix_command(capsys):
    code, out = capture(
        capsys, ["b-matrix", "--n", "3", "--object", "(1,3),(1,2),(1,1)"]
    )
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
    assert rows == [[0, -1, 0], [2, 0, -1], [0, 1, 0]]
    # sign-skew-symmetry of the output
    for i in range(3):
        for j in range(3):
            assert (rows[i][j] > 0) == (rows[j][i] < 0) or rows[i][j] == rows[j][i] == 0


def test_b_matrix_json_payload(capsys):
    code, out = capture(
        capsys,
        ["b-matrix", "--n", "3", "--object", "(1,3),(3,1),(1,1)", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == [[1, 3], [3, 1], [1, 1]]
    assert payload["b_matrix"] == [[0, 1, -1], [-2, 0, 1], [2, -1, 0]]


def test_atlas_rank_two(capsys):
    code, out = capture(capsys, ["atlas", "--n", "2"])
    assert code == 0
    assert "seeds: 6" in out
    assert "cluster variables: 6" in out


def test_cc_table_json(capsys):
    code, out = capture(
        capsys,
        ["cc-table", "--n", "3", "--object", "(1,3),(3,1),(1,1)", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b_matrix"] == [[0, 1, -1], [-2, 0, 1], [2, -1, 0]]
    assert len(payload["rows"]) == 12


def test_reproduce_example(capsys):
    code, out = capture(capsys, ["reproduce-example"])
    assert code == 0
    assert "match with reference data: yes" in out
    assert "(x1^2+2*x1*x2+x2^2+x3^2)/(x1*x3^2)" in out


def test_verify_rank_two(capsys):
    code, out = capture(capsys, ["verify", "--n", "2", "--oracle", "off"])
    assert code == 0
    assert "ALL PASS" in out


def test_deterministic_output(capsys):
    _, first = capture(capsys, ["cc-table", "--n", "2", "--object", "(1,2),(1,1)"])
    _, second = capture(capsys, ["cc-table", "--n", "2", "--object", "(1,2),(1,1)"])
    assert first == second


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["b-matrix", "--n", "3"])  # --object is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["enumerate-rigid", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["atlas", "--n", "2", "--cap", "0"])
    assert exc.value.code == 2


def test_invalid_object_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["b-matrix", "--n", "3", "--object", "(1,4),(1,2),(1,1)"])  # not rigid
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["b-matrix", "--n", "3", "--object", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_format(capsys):
    code, out = capture(capsys, ["verify", "--n", "2", "--oracle", "off", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_suite_report_failures():
    report = SuiteReport()
    assert report.failures == []
    report.add("first", [])
    report.add("second", ["a", "b"])
    report.add("third", ["c"])
    assert report.failures == ["second: a", "second: b", "third: c"]
    assert not report.ok


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    code = run(["cc-table", "--n", "2", "--object", "(1,2),(1,1)", "--out", str(path)])
    assert code == 0
    assert path.read_text().strip()
