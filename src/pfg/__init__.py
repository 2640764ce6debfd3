"""Finite-group verification toolkit for endomorphism structure theory.

Computes contraction subgroups, stable images, residual subgroups and
semidirect decompositions on finite groups and on towers of finite
quotients, with a small scenario language and a batch report runner.
"""

__version__ = "0.1.0"

from .core import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_from_table,
    closure,
    compose,
    hom_parts,
    nilpotency,
    normal_closure,
    normal_core,
    preimage,
    quotient,
)
from .construct import cyclic, dihedral, direct_product, semidirect, units_mod
from .lattice import (
    AutoSet,
    SubgroupCatalog,
    count_profile,
    enumerate_normals,
    enumerate_subgroups,
    o_pi,
    residual_intersection,
)
from .endo import (
    ContractionReport,
    EndoSemigroup,
    contraction,
    fewprimes_check,
    hom_search,
    o_lambda,
    semigroup_contraction,
    shrinkind_check,
    tfrelstab_ii_check,
    verify_regulation,
    verify_splitthm,
    verify_theorem_a,
)
from .tower import (
    CoherentEndoFamily,
    Tower,
    build_tower,
    levelwise_contraction,
    limit_diagnostics,
    typef_profile,
    verify_theorem_b_tower,
)
from .dsl import parse, unparse, validate
from .report import Report, RunConfig, emit, run

__all__ = [name for name in dir() if not name.startswith("_")]
