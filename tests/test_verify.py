import pytest

from clustertube import verify
from clustertube.endo import FinDimAlgebra
from clustertube.tube import ConsistencyError, Tube, enumerate_maximal_rigid


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _run_check(monkeypatch, site, exc):
    """Run the check behind one failure handler of ``verify`` with the
    call it guards replaced by one that raises ``exc``."""
    tube = Tube(2)
    ts = enumerate_maximal_rigid(2, tube)[:1]
    if site == "b_matrix":
        monkeypatch.setattr(verify, "b_matrix", _raise(exc))
        return ts[0], verify.check_b_matrix_compatibility(tube, ts)
    monkeypatch.setattr(FinDimAlgebra, site, _raise(exc))
    return ts[0], verify.check_structure(tube, ts, associativity_for=1)


SITES = ["b_matrix", "verify_relations", "verify_associativity"]


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("exc_type", [TypeError, KeyError])
def test_bug_in_a_check_propagates(monkeypatch, site, exc_type):
    with pytest.raises(exc_type):
        _run_check(monkeypatch, site, exc_type("bug"))


@pytest.mark.parametrize("site", SITES)
def test_consistency_error_is_a_failure_line(monkeypatch, site):
    t, failures = _run_check(monkeypatch, site, ConsistencyError("formulas disagree"))
    assert failures == [f"{t}: formulas disagree"]
