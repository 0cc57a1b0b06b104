"""Exact simplicial homology, homological spanning checks, and discrete
weighted-area minimization on grid complexes, plus the 2-plane projection
certificates in R^4."""

from .complexes import (Chain, Complex, FaceSet, boundary, build_grid_complex,
                        faceset_to_chain)
from .homology import (HomologyGroup, homology_group, is_cycle,
                       is_null_homologous)
from .complement import (CompetitorVerdict, ComplementModel, ConstraintCycle,
                         ConstraintStatus, Region, competitor_check,
                         complement_subcomplex, free_collapse_candidates,
                         is_spanning, spanning_check, spanning_predicate)
from .solver import (PlaneRegion, SolveResult, WeightField,
                     minimize_exhaustive, minimize_local,
                     projection_lower_bound, weighted_measure)
from .grassmann import (BoundReport, PlanePair, characteristic_angles,
                        equality_family, is_simple, plane_projection_norm,
                        projected_area_sums, verify_projection_bounds, wedge)
from .problems import (ProblemSpec, generate_faceset, linking_loops,
                       parse_problem, serialize_problem)
from .errors import (InfeasibleError, InvalidInputError, PoolTooLargeError,
                     PreconditionError, ProblemFormatError, RealizationError)

__version__ = "0.1.0"

__all__ = [
    "Chain", "Complex", "FaceSet", "boundary", "build_grid_complex",
    "faceset_to_chain",
    "HomologyGroup", "homology_group", "is_cycle", "is_null_homologous",
    "CompetitorVerdict", "ComplementModel", "ConstraintCycle",
    "ConstraintStatus", "Region", "competitor_check",
    "complement_subcomplex", "free_collapse_candidates", "is_spanning",
    "spanning_check", "spanning_predicate",
    "PlaneRegion", "SolveResult", "WeightField", "minimize_exhaustive",
    "minimize_local", "projection_lower_bound", "weighted_measure",
    "BoundReport", "PlanePair", "characteristic_angles", "equality_family",
    "is_simple", "plane_projection_norm", "projected_area_sums",
    "verify_projection_bounds", "wedge",
    "ProblemSpec", "generate_faceset", "linking_loops", "parse_problem",
    "serialize_problem",
    "InfeasibleError", "InvalidInputError", "PoolTooLargeError",
    "PreconditionError", "ProblemFormatError", "RealizationError",
    "__version__",
]
