"""Exact neighbor complexes of finite and lattice-periodic point sets.

The package is organized in layers: exact geometry primitives, poset
staging, finite-set enumeration, integer linear solving, coset arithmetic,
truncation-free periodic enumeration, and monomial resolutions.  A thin CLI
(`scarf`) exposes the same operations on JSON documents.
"""

from .diophantine import Lattice, minimal_orthant_points, points_in_box
from .errors import (
    CertificationError,
    GenericityError,
    InputError,
    InternalError,
    PositivityError,
    RadiusError,
    ScarfError,
)
from .finite import (
    FinitePointSet,
    GenericityReport,
    enumerate_complex,
    face_witness,
    is_generic,
    neighbors,
)
from .geometry import Orthant, Point, all_orthants
from .intsolve import minimal_natural_solutions, smith_normal_form
from .periodic import (
    CompletenessReport,
    PeriodicSet,
    QuotientResult,
    StarResult,
    certified_quotient,
    certified_star,
    quotient_complex,
    star_at,
    validate_periodic_set,
)
from .posets import Layering, dickson_layers, filter_by_downset
from .resolution import ChainCheck, Resolution, build_resolution, verify_chain

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ChainCheck",
    "CompletenessReport",
    "FinitePointSet",
    "GenericityError",
    "GenericityReport",
    "InputError",
    "InternalError",
    "Lattice",
    "Layering",
    "Orthant",
    "PeriodicSet",
    "Point",
    "PositivityError",
    "QuotientResult",
    "RadiusError",
    "Resolution",
    "ScarfError",
    "StarResult",
    "all_orthants",
    "build_resolution",
    "certified_quotient",
    "certified_star",
    "dickson_layers",
    "enumerate_complex",
    "face_witness",
    "filter_by_downset",
    "is_generic",
    "minimal_natural_solutions",
    "minimal_orthant_points",
    "neighbors",
    "points_in_box",
    "quotient_complex",
    "smith_normal_form",
    "star_at",
    "validate_periodic_set",
    "verify_chain",
]
