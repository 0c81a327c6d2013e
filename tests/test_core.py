from fractions import Fraction

import pytest

from segcalc import (
    CuspidalPoint,
    LineRegistry,
    RegistryError,
    s_invariant,
)


def test_register_defaults_to_self_dual():
    reg = LineRegistry()
    name = reg.register("rho", 1)
    assert name == "rho"
    assert reg["rho"].dual == "rho"
    assert reg["rho"].p == 1


def test_register_with_p():
    reg = LineRegistry()
    reg.register("tau", 2)
    assert reg["tau"].p == 2


def test_duplicate_name_rejected():
    reg = LineRegistry()
    reg.register("a", 1)
    with pytest.raises(RegistryError):
        reg.register("a", 1)


def test_unknown_line_rejected():
    reg = LineRegistry()
    with pytest.raises(RegistryError):
        reg["missing"]


def test_dual_pairing_is_symmetric():
    reg = LineRegistry()
    reg.register("a", 1)
    reg.register("b", 1, dual="a")
    assert reg["a"].dual == "b"
    assert reg["b"].dual == "a"


def test_registry_json_rejects_non_involutive_pairing():
    data = [
        {"name": "a", "p": 1, "dual": "b"},
        {"name": "b", "p": 1, "dual": "a"},
        {"name": "c", "p": 1, "dual": "b"},
    ]
    with pytest.raises(RegistryError, match="already paired"):
        LineRegistry.from_json(data)


def test_rejected_register_leaves_registry_unchanged():
    reg = LineRegistry()
    reg.register("a", 1)
    reg.register("b", 1, dual="a")
    reg.register("e", 1)
    before = reg.to_json()
    with pytest.raises(RegistryError):
        reg.register("c", 1, dual="b")
    with pytest.raises(ValueError):
        reg.register("d", 2, dual="e")
    assert reg.to_json() == before and "c" not in reg and "d" not in reg


def test_registry_json_round_trip():
    reg = LineRegistry()
    reg.register("rho", 1, unramified=True)
    reg.register("a", 2)
    reg.register("b", 2, dual="a")
    data = reg.to_json()
    reg2 = LineRegistry.from_json(data)
    assert reg2.to_json() == data


@pytest.mark.parametrize(
    "p,d,want",
    [(1, 2, 2), (2, 4, 2), (3, 3, 1), (1, 1, 1), (4, 6, 3), (6, 4, 2)],
)
def test_s_invariant_values(p, d, want):
    assert s_invariant(p, d) == want


def test_s_invariant_matches_brute_force_scan():
    for p in range(1, 13):
        for d in range(1, 13):
            s = s_invariant(p, d)
            assert s * p % d == 0
            assert all((t * p) % d != 0 for t in range(1, s))


def test_s_invariant_one_iff_divides():
    for p in range(1, 10):
        for d in range(1, 10):
            assert (s_invariant(p, d) == 1) == (p % d == 0)


def test_contragredient_point(paired_registry):
    reg = paired_registry
    assert reg.contragredient_point(CuspidalPoint("rho", Fraction(1, 2))) == CuspidalPoint(
        "rho", Fraction(-1, 2)
    )
    assert reg.contragredient_point(CuspidalPoint("rho", Fraction(0))) == CuspidalPoint(
        "rho", Fraction(0)
    )
    assert reg.contragredient_point(CuspidalPoint("a", Fraction(2))) == CuspidalPoint(
        "b", Fraction(-2)
    )


def test_contragredient_is_involution(paired_registry):
    reg = paired_registry
    pts = [
        CuspidalPoint(line, Fraction(n, 2))
        for line in ("rho", "tau", "a", "b")
        for n in range(-4, 5)
    ]
    for pt in pts:
        assert reg.contragredient_point(reg.contragredient_point(pt)) == pt
