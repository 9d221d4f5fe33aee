"""fusionkit: exact arithmetic for fusion rings and based modules.

Construct fusion rings (group rings, representation rings, Clebsch-Gordan
rings, direct/free/semi-direct products), certify divisibility of fusion
subrings, induce and restrict based modules, and classify torsion modules
over finite rings by exhaustive census.

The names below resolve on first use (PEP 562): ``import fusionkit`` loads
no submodule, and ``fusionkit.X`` loads only the module that defines X.
"""

from importlib import import_module

# module → the names it exports here
_EXPORTS = {
    "elements": "CertificateDepthError Element InvalidInputError "
                "UnknownBasisError",
    "rings": "BasedRing Verdict check_dimension check_ring_axioms conjugate "
             "explicit_ring generating_labels tensor",
    "modules": "BasedModule act check_module_axioms connected_components "
               "find_intertwiner is_cofinite is_standard is_torsion "
               "standard_module",
    "subrings": "DivisibilityCertificate DivisibilitySearch SubringEmbedding "
                "coset_classes find_divisibility_certificate "
                "identity_embedding verify_certificate verify_subring",
    "induction": "InducedModule induce induced_label restrict "
                 "restrict_and_decompose standardize_from_induced",
    "constructions": "CharacterTable FiniteGroupPresentation "
                     "RingAutomorphismAction cyclic_character_table "
                     "cyclic_group direct_product free_product "
                     "group_from_permutations group_ring inversion_action "
                     "rep_ring s3_character_table semidirect_product so3_ring "
                     "so3_subring su2_ring symmetric_group_3 "
                     "trivial_character_table",
    "census": "CensusResult EnumerationBudget enumerate_torsion_modules "
              "is_torsion_free_finite",
}
# name → the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
