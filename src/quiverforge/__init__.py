"""quiverforge: exact-arithmetic workbench for quiver representations."""

from .errors import ConstructionError, DomainError, InputError, QuiverForgeError
from .linalg import GF, Mat, PrimeField, QQ, cokernel, hstack, kernel_basis, rank, vstack
from .quiver import (
    Arrow,
    Quiver,
    classify_root,
    enumerate_real_roots,
    reflect,
    ringel_form,
    root_expression,
    unit_vector,
)
from .reps import (
    Morphism,
    Representation,
    certify_indecomposable,
    end_dim,
    euler_form_check,
    hom_dim,
    homext,
    simple_rep,
)
from .functors import bgp_reflect, maximal_rank_report, sigma, sigma_bar, sigma_under
from .three_vertex import (
    FamilyParams,
    build_family,
    build_subquiver,
    construct,
    kronecker_rep,
    plan,
    predicted_end_dim,
)
from .trees import export_dot, is_tree
from .catalog import run_catalog
from .serialize import parse_field_flag, rep_from_json, rep_to_json

__version__ = "0.1.0"
