"""fusionkit: exact arithmetic for fusion rings and based modules.

Construct fusion rings (group rings, representation rings, Clebsch-Gordan
rings, direct/free/semi-direct products), certify divisibility of fusion
subrings, induce and restrict based modules, and classify torsion modules
over finite rings by exhaustive census.
"""

from .elements import (
    CertificateDepthError,
    Element,
    InvalidInputError,
    UnknownBasisError,
)
from .rings import (
    BasedRing,
    Verdict,
    check_dimension,
    check_ring_axioms,
    conjugate,
    explicit_ring,
    generating_labels,
    tensor,
)
from .modules import (
    BasedModule,
    act,
    check_module_axioms,
    connected_components,
    find_intertwiner,
    is_cofinite,
    is_standard,
    is_torsion,
    standard_module,
)
from .subrings import (
    DivisibilityCertificate,
    DivisibilitySearch,
    SubringEmbedding,
    coset_classes,
    find_divisibility_certificate,
    identity_embedding,
    verify_certificate,
    verify_subring,
)
from .induction import (
    InducedModule,
    induce,
    induced_label,
    restrict,
    restrict_and_decompose,
    standardize_from_induced,
)
from .constructions import (
    CharacterTable,
    FiniteGroupPresentation,
    RingAutomorphismAction,
    cyclic_character_table,
    cyclic_group,
    direct_product,
    free_product,
    group_from_permutations,
    group_ring,
    inversion_action,
    rep_ring,
    s3_character_table,
    semidirect_product,
    so3_ring,
    so3_subring,
    su2_ring,
    symmetric_group_3,
    trivial_character_table,
)
from .census import (
    CensusResult,
    EnumerationBudget,
    enumerate_torsion_modules,
    is_torsion_free_finite,
)

__version__ = "0.1.0"
