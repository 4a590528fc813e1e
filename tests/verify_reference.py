"""The translation-orbit representatives, listed for the tests.

``clustertube.verify.run_suite`` asks ``is_orbit_representative`` of each
object it has enumerated already; the tests list a tube's representatives
to run single checks on them.
"""
from clustertube.tube import enumerate_maximal_rigid
from clustertube.verify import is_orbit_representative


def tau_orbit_representatives(tube):
    """One maximal rigid object per translation orbit: long summand at 1."""
    return [t for t in enumerate_maximal_rigid(tube.n, tube) if is_orbit_representative(t)]
