"""gkw: a workbench for generalized complex and generalized Kahler linear
algebra: exact Courant/Schouten calculus, pointwise structure validation,
moment maps, reduction, and bi-Hermitian extraction."""

__version__ = "0.1.0"

from .poly import QI, ComplexPolynomial
from .calculus import (Form, GeneralizedSection, VectorField, courant_bracket,
                       exterior_derivative, interior_product, lie_derivative,
                       pairing_poly, standard_symplectic_form)
from .deformation import DeformationBivector, LMultivector, schouten_bracket
from .linear import (BiHermitianData, ComplexSubspace, IndeterminateRankError,
                     KahlerPairNum, LinearGC, ValidationError, deform_gcs,
                     deform_pair, eta, extract_bihermitian, pairing,
                     reduce_gcs, reduce_pair)
from .actions import (MomentMapPoly, TorusAction, UnitaryAction,
                      grassmannian_moment_map, shift_by_bfield,
                      standard_moment_map)
from .polytope import PolytopeSpec, find_alpha
from .pipeline import (Scenario, quotient_at_point, quotient_bihermitian,
                       realify, sample_level_set, type_table,
                       verify_moment_map, verify_type_formula)
from .catalog import CatalogCase, build_case, catalog_names
