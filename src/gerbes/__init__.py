"""Exact-arithmetic workbench for gerbes as finite group extensions.

The package computes group cohomology on normalized bar resolutions with
exact integer linear algebra, models a number field split by a finite
Galois extension as an axiomatized family of places with invariant maps,
and evaluates the Brauer-Manin invariant of a gerbe presented as a group
extension, including the machine check that the invariant factors through
abelianization.
"""

from .arith import (
    ArithmeticModel,
    AxiomReport,
    Place,
    ShaResult,
    check_axioms,
    search_inv_assignments,
    sha,
)
from .cochain import (
    CoboundaryResult,
    Cochain,
    CohomologyGroup,
    cohomology,
    cup,
    differential,
    is_cocycle,
    restriction,
    solve_coboundary,
)
from .errors import (
    ClosureExceedsBound,
    DegreeTooHigh,
    GerbesError,
    GlobalH3Obstruction,
    InputError,
    ModelAxiomFailure,
    NoIdentity,
    NonAssociative,
    NonCyclicCoefficients,
    NonEquivariantPairing,
    NotACocycle,
    NotLocallyNeutral,
    SearchSpaceExceeded,
    SizeBound,
)
from .finab import FinAb, QmodZ
from .gerbe import (
    BMFunctional,
    GerbeExtension,
    LocalSection,
    TorsorClass,
    abelianize_gerbe,
    brauer_a,
    brauer_manin,
    class_2cocycle,
    extension_from_cocycle,
    gerbe_dual,
    local_pairing,
    local_sections,
    picard_geom,
    semidirect_extension,
    torsor_difference,
    verify_factorization,
)
from .groups import (
    Abelianization,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelianization,
    build_group,
    commutator_subgroup,
    cyclic_group,
    cyclic_subgroups,
    dihedral_group,
    direct_product,
    from_permutations,
    klein_four_group,
    quaternion_group,
    quotient_group,
    symmetric_group,
)
from .linalg import snf
from .modules import (
    DualData,
    GModule,
    Pairing,
    cyclic_module,
    dual_module,
    restrict_module,
    trivial_module,
)

__version__ = "0.1.0"
