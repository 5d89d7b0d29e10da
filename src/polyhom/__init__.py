"""Finite n-ary polygroupoids, binding-group extraction, and integer
simplicial homology at desk scale."""

from .algebra import (
    FinAbelianGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    abelian_group,
    homology,
    image_solve,
    iso_check,
    quotient_group,
    snf,
)
from .binding import ActionTable, ExtractionError, extract, transport_classes, verify_action
from .chain import Chain, SimplexFamily, SimplexGen, boundary, classify, face_op, full_complex
from .hurewicz import (
    AbstractFace,
    CoSimplexDatum,
    SimplexDatum,
    check_boundary_zero,
    co_face,
    epsilon,
    natural_iso,
    twist_by,
    verdict,
)
from .polygroupoid import (
    AxiomReport,
    Polygroupoid,
    check_associativity,
    check_axioms,
    is_compatible,
    scramble,
    standard,
)
from .tower import (
    DirectedPoset,
    GroupTower,
    PolyTower,
    check_tower,
    induced_hom,
    inverse_limit,
    standard_tower,
)

__version__ = "0.1.0"
