"""Exact computational algebra for cluster tubes and type-C cluster algebras.

The package builds cluster tubes, enumerates maximal rigid objects,
constructs their gentle endomorphism algebras, counts Euler characteristics
of locally free submodule Grassmannians, and evaluates the resulting
cluster characters against the cluster algebra computed by direct seed
mutation.
"""

from .cluster import (
    ClusterAtlas,
    ExchangeMatrix,
    Seed,
    cartan_counterpart,
    enumerate_atlas,
    mutate_matrix,
    mutate_seed,
)
from .laurent import LaurentPoly, lp_denominator_vector
from .linalg import ExactMatrix, kernel_basis, rref
from .tube import (
    Indec,
    MaximalRigid,
    Tube,
    b_matrix,
    enumerate_maximal_rigid,
    is_rigid,
    is_rigid_set,
    mutate_rigid,
)
from .endo import build_endomorphism_algebra, gabriel_quiver, validate_Qn
from .amod import apply_F, is_locally_free, is_tau_rigid, rank_vector, tau_A
from .grassmann import chi_lf, chi_lf_oracle_fq, chi_table, verify_ar_recursion
from .strings import string_module, string_normal_form
from .ccmap import CCMap
from .verify import run_suite

__all__ = [
    "CCMap",
    "ClusterAtlas",
    "ExactMatrix",
    "ExchangeMatrix",
    "Indec",
    "LaurentPoly",
    "MaximalRigid",
    "Seed",
    "Tube",
    "apply_F",
    "b_matrix",
    "build_endomorphism_algebra",
    "cartan_counterpart",
    "chi_lf",
    "chi_lf_oracle_fq",
    "chi_table",
    "enumerate_atlas",
    "enumerate_maximal_rigid",
    "gabriel_quiver",
    "is_locally_free",
    "is_rigid",
    "is_rigid_set",
    "is_tau_rigid",
    "kernel_basis",
    "lp_denominator_vector",
    "mutate_matrix",
    "mutate_rigid",
    "mutate_seed",
    "rank_vector",
    "rref",
    "run_suite",
    "string_module",
    "string_normal_form",
    "tau_A",
    "validate_Qn",
    "verify_ar_recursion",
]
