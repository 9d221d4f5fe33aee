"""The finite fast paths of the axiom checks, where they give up.

``associative_by_generators`` and ``_associative_by_generators`` hand an
input they cannot prove to the ordered sweep.  Each case below reaches one
of those fallbacks, and the check must then end exactly as the ordered
sweep alone ends: the same verdict and witness, or the same exception and
message.  Based symmetry has no fast path: its one ordered pass is checked
against an independent scan in ``tests/test_sweep_contract.py``.
"""

import contextlib
import io
import json

import pytest

from fusionkit import (
    BasedModule,
    BasedRing,
    Element,
    check_module_axioms,
    check_ring_axioms,
    cyclic_group,
    explicit_ring,
    group_ring,
)
from fusionkit import modules, rings
from fusionkit.cli import cli_dispatch


def _ring(product):
    """A ring on {e, g}, both self-conjugate, with the given product and
    no construction-time check."""
    return BasedRing(name="raw", unit="e", conj=lambda a: a,
                     product=lambda a, b: Element(product[(a, b)]),
                     dim=lambda a: 1, basis=["e", "g"])


def _module_over(ring, action):
    return BasedModule(ring=ring, basis=["j"], action=action)


def unit_not_neutral():
    # e ⊗ g = 2·g: the ring proof assumes a neutral unit
    ring = _ring({("e", "e"): {"e": 1}, ("e", "g"): {"g": 2},
                  ("g", "e"): {"g": 1}, ("g", "g"): {"e": 1}})
    assert ring.product("e", "g") != Element.basis("g")
    return check_module_axioms, _module_over(ring, {("g", "j"): Element({"j": 1})})


def product_leaves_the_basis():
    # g ⊗ g = x, a label outside the basis
    ring = _ring({("e", "e"): {"e": 1}, ("e", "g"): {"g": 1},
                  ("g", "e"): {"g": 1}, ("g", "g"): {"x": 1}})
    assert "x" not in ring.basis
    return check_module_axioms, _module_over(ring, {("g", "j"): Element({"j": 1})})


def ring_overflow():
    # g ⊗ g = e + 2³²·g passes every ring axiom before associativity, and
    # (g ⊗ g) ⊗ g has the coefficient 1 + 2⁶⁴ at g
    ring = explicit_ring(name="big", basis=["e", "g"], unit="e",
                         conj={"e": "e", "g": "g"}, dim={"e": 1, "g": 1},
                         fusion={("g", "g"): Element({"e": 1, "g": 2**32})})
    return check_ring_axioms, ring


def module_overflow():
    # g ⊗ (g ⊗ j) has the coefficient 2¹²⁴ at j
    z2 = group_ring(cyclic_group(2, generator="g"))
    return check_module_axioms, _module_over(z2, {("g", "j"): Element({"j": 2**62})})


# case → (builder, the fast path that gives up on it, its value when it does)
CASES = {
    "rings: unit not neutral": (unit_not_neutral, "associative_by_generators", None),
    "rings: product leaves the basis": (product_leaves_the_basis,
                                        "associative_by_generators", None),
    "rings: overflow": (ring_overflow, "associative_by_generators", None),
    "modules: overflow": (module_overflow, "_associative_by_generators", False),
}


def _outcome(check, obj):
    try:
        verdict = check(obj)
    except Exception as exc:  # the sweep's exception is part of its outcome
        return type(exc).__name__, str(exc)
    return verdict.status, verdict.witness


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fallback_ends_as_the_ordered_sweep_alone(case, monkeypatch):
    build, fast_path, gave_up = CASES[case]
    owner = rings if fast_path == "associative_by_generators" else modules
    returned = []

    def spy(*args, original=getattr(owner, fast_path)):
        returned.append(original(*args))
        return returned[-1]

    check, obj = build()
    with monkeypatch.context() as patch:
        patch.setattr(owner, fast_path, spy)
        if owner is rings:  # modules holds its own reference
            patch.setattr(modules, fast_path, spy)
        got = _outcome(check, obj)
    assert returned and returned[-1] is gave_up
    check, obj = build()
    monkeypatch.setattr(rings, "associative_by_generators", lambda ring: None)
    monkeypatch.setattr(modules, "_associative_by_generators", lambda m: False)
    assert got == _outcome(check, obj)


def test_validate_reports_the_module_overflow(tmp_path):
    ring = {"kind": "explicit_ring", "basis": ["e", "g"], "unit": "e",
            "conj": {"e": "e", "g": "g"}, "dim": {"e": 1, "g": 1},
            "fusion": [["g", "g", {"e": 1}]]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps({
        "kind": "module", "ring": ring, "basis": ["j"],
        "action": [["g", "j", {"j": 4611686018427387904}]]}), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(["validate", str(path)])
    assert (code, out.getvalue()) == (4, "")
    assert err.getvalue() == (f"error: coefficient {2**124} exceeds the signed "
                              "64-bit range\n")
