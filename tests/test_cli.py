import hashlib
import json

import pytest

from clustertube import amod, cluster, verify
from clustertube.cli import build_parser, run
from clustertube.cluster import ClusterError
from clustertube.grassmann import OracleError
from clustertube.laurent import LaurentError
from clustertube.tube import ConsistencyError
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["atlas", "--n", "4", "--format", "json"],
         "454036e8b776f0013ea6c82097c6f92823e435f16fb14c18858b08e1023ce95b"),
        (["atlas", "--n", "3"],
         "f870e33b6b36b84eafcf9b313c082cbb52b3ad8b5cac5d8e9b8d8385b7b7a46c"),
        (["atlas", "--n", "5", "--format", "json"],
         "e33531389f39e1425f669a25fa82fb794c2563d35ca86159100abce61d188d27"),
        (["atlas", "--n", "5", "--object", "(6,5),(6,2),(6,1),(6,3),(6,4)", "--format", "json"],
         "63c88d456ec0cc59dc28f4e595879393ff28b8fd370614613f666a4aae70e725"),
        (["atlas", "--n", "6", "--format", "json"],
         "6240ae13df1ad69c0fc547ff6feecb82f920e531516fc5ac71f9c4d0646dc2c9"),
        (["atlas", "--n", "7", "--format", "json"],
         "2f7845c0627320961b84510300f836280ca493f35c8b3e9d1889c7aa169447de"),
    ],
)
def test_atlas_golden_output(capsys, argv, digest):
    code, out = capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["cc-table", "--n", "6", "--format", "json"],
         "6c5156456d4dd22056d7fee08191934c07aeda743e06cc3920ff7aa0e62b216c"),
        (["cc-table", "--n", "6", "--format", "json", "--object", "(6,6),(6,1),(6,5),(6,3),(6,2),(6,4)"],
         "efe451d323f69c77cddc90b2c22d159c20de8ac6f94d5c677f4a7a82152e4e3e"),
        (["verify", "--n", "3", "--format", "json", "--oracle", "on"],
         "efbe356578451682d5ac08e36a873e76dfab04aa2b6ded957b175a05df7e1cb4"),
        (["reproduce-example"],
         "923e1456bc25c25aee2b77e301740146e1e79151bd1a2f22a0ee1af8acd2be85"),
        (["verify", "--n", "4", "--format", "json"],
         "726c439e1fb7e4c3185be62a7954b040a877bba66aa7b59a7fa8dd7226057814"),
        (["verify", "--n", "5", "--format", "json"],
         "64462601c20c2ac4a8372b18d7c476eaab7f062fd3808daf24fff9a12accd0da"),
        (["cc-table", "--n", "8", "--format", "json"],
         "6c69adfa72b3bcf36389b7dc90037596d9474bb7baf4116fad248877c2801517"),
        (["cc-table", "--n", "10", "--format", "json"],
         "9034c3ca705b755ecc2dac71c18234d9ef71a07c54951124475e66668af6c66d"),
        (["cc-table", "--n", "12", "--format", "json"],
         "f266e89b04d7507d63f671ec81c83c7502695f4b0d6e965897e8c35c230c269f"),
    ],
)
def test_character_golden_output(capsys, argv, digest):
    code, out = capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_an_option_the_command_does_not_read_exits_two(capsys):
    for argv in (["verify", "--n", "2", "--cap", "3"],
                 ["enumerate-rigid", "--n", "2", "--object", "(1,2),(1,1)"],
                 ["reproduce-example", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    # the options each command does read still parse
    parser = build_parser()
    parser.parse_args(["verify", "--n", "3", "--format", "json", "--oracle", "on", "--out", "f"])
    parser.parse_args(["atlas", "--n", "5", "--format", "json", "--cap", "9",
                       "--object", "(6,5),(6,2),(6,1),(6,3),(6,4)"])


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


def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.txt", tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["enumerate-rigid", "--n", "2", "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write --out {str(path)!r}" in captured.err


def test_seed_cap_exits_one(capsys):
    assert run(["atlas", "--n", "2", "--cap", "3"]) == 1
    assert capsys.readouterr().err == "error: not finite type within cap\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        # mutate_seed reports a failed division as a seed off the pattern
        (LaurentError("not divisible"), "seed not on a cluster pattern"),
        (ClusterError("broken exchange"), "broken exchange"),
        (ConsistencyError("broken invariant"), "broken invariant"),
    ],
)
def test_internal_errors_exit_one(capsys, monkeypatch, exc, message):
    def failing_div(p, q):
        raise exc

    monkeypatch.setattr(cluster, "lp_div_exact", failing_div)
    assert run(["atlas", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_undecided_oracle_exits_one(capsys, monkeypatch):
    def undecided(mod, e):
        raise OracleError("oracle inconclusive")

    monkeypatch.setattr(verify, "chi_lf_oracle_fq", undecided)
    assert run(["verify", "--n", "2"]) == 1
    assert capsys.readouterr().err == "error: oracle inconclusive\n"


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only the --object input checks are usage errors; a ValueError from
    # inside the pipeline is a bug and propagates
    def broken(*args):
        raise ValueError("shape mismatch in matrix product")

    monkeypatch.setattr(amod, "intertwiner_basis", broken)
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        run(["verify", "--n", "2"])
    assert "usage:" not in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["cc-table", "--n", "3", "--object", "(1,3),(1,2)"])  # one summand short
    assert exc.value.code == 2
    assert "error: a maximal rigid object here has 3 summands" in capsys.readouterr().err
