"""The depth contract: every depth-taking check refuses a depth below 1
with the one error of ``rings.checked_window``."""

import pytest

from fusionkit import (
    InvalidInputError,
    check_dimension,
    check_module_axioms,
    check_ring_axioms,
    connected_components,
    coset_classes,
    find_divisibility_certificate,
    find_intertwiner,
    induce,
    is_cofinite,
    is_standard,
    is_torsion,
    restrict_and_decompose,
    standard_module,
    standardize_from_induced,
    verify_certificate,
    verify_subring,
)
from fusionkit.modules import check_module_dimension

# check → its arguments before the depth, from the fixtures named
CHECKS = {
    "check_ring_axioms": (check_ring_axioms, lambda f: (f("z2"),)),
    "check_ring_axioms, lazy": (check_ring_axioms, lambda f: (f("su2"),)),
    "check_dimension": (check_dimension, lambda f: (f("z2"),)),
    "check_module_axioms": (check_module_axioms, lambda f: (f("std_z2"),)),
    "check_module_axioms, lazy": (check_module_axioms,
                                  lambda f: (standard_module(f("su2")),)),
    "check_module_dimension": (check_module_dimension,
                               lambda f: (f("std_z2"), {"e": 1, "g": 1})),
    "is_cofinite": (is_cofinite, lambda f: (f("std_z2"),)),
    "connected_components": (connected_components, lambda f: (f("std_z2"),)),
    "is_torsion": (is_torsion, lambda f: (f("std_z2"),)),
    "is_standard": (is_standard, lambda f: (f("std_z2"),)),
    "find_intertwiner": (find_intertwiner, lambda f: (f("std_z2"), f("std_z2"))),
    "find_intertwiner, unequal ranks": (find_intertwiner,
                                        lambda f: (f("std_z2"), f("rank1_z2"))),
    "verify_subring": (verify_subring, lambda f: (f("z2_in_z4"),)),
    "coset_classes": (coset_classes, lambda f: (f("z2_in_z4"),)),
    "find_divisibility_certificate": (find_divisibility_certificate,
                                      lambda f: (f("z2_in_z4"),)),
    "verify_certificate": (verify_certificate, lambda f: (f("z2_in_z4_cert"),)),
    "standardize_from_induced": (
        standardize_from_induced,
        lambda f: (induce(standard_module(f("z2")), f("z2_in_z4_cert")),)),
    "restrict_and_decompose": (restrict_and_decompose,
                               lambda f: (f("std_z4"), f("z2_in_z4"))),
}


@pytest.mark.parametrize("depth", [0, -1])
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_refuses_a_depth_below_one(name, depth, request):
    check, arguments = CHECKS[name]
    args = arguments(request.getfixturevalue)
    with pytest.raises(InvalidInputError) as info:
        check(*args, depth)
    assert str(info.value) == "depth must be >= 1"
