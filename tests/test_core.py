import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import segcalc
from segcalc import (
    DiscreteSeriesLabel,
    LineRegistry,
    Multisegment,
    NotTransferable,
    RegistryError,
    Segment,
    SignedUnitaryProduct,
    SpehUnit,
    UnitaryProduct,
    VirtualRep,
    frac,
    lj_u,
    s_invariant,
    ubar_factor,
    unitary_esi,
)
from segcalc.core import Frozen, LineInfo, Record
from segcalc.globalrep import GlobalAlgebra, GlobalCheck, GlobalCuspidalData
from segcalc.lfactors import EpsilonFactor, FormalLFactor, FormalRSProduct
from segcalc.transfer import lj_unitary_product


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



# -- refusals ------------------------------------------------------------------------

REG = LineRegistry.standard()
SIGMA = unitary_esi("rho", 1, 2)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        pytest.param(lambda: SpehUnit(Segment("rho", 5, 2, 2), 2), ValueError,
                     "unit base must be centered at exponent 0", id="unit-off-center"),
        pytest.param(lambda: SpehUnit(SIGMA, 0), ValueError, "unit multiplicity must be >= 1", id="unit-count-0"),
        pytest.param(lambda: Segment("rho", 0, 1, 0), ValueError, "segment step must be >= 1, got 0",
                     id="segment-step-0"),
        pytest.param(lambda: Segment("rho", 0, 0, 1), ValueError, "segment length must be >= 1, got 0",
                     id="segment-length-0"),
        # a float length or step would put float exponents into the exact arithmetic; a bool is no int
        pytest.param(lambda: Segment("rho", 0, 2.5), TypeError, "segment length must be an int, got 2.5",
                     id="segment-float-length"),
        pytest.param(lambda: Segment("rho", 0, 2, 1.5), TypeError, "segment step must be an int, got 1.5",
                     id="segment-float-step"),
        pytest.param(lambda: Segment("rho", 0, True), TypeError, "segment length must be an int, got True",
                     id="segment-bool-length"),
        pytest.param(lambda: Segment("rho", 0, 2, True), TypeError, "segment step must be an int, got True",
                     id="segment-bool-step"),
        pytest.param(lambda: frac(0.5), TypeError, "not an exact rational: 0.5", id="frac-float"),
        pytest.param(lambda: Segment("rho", 0.5, 1), TypeError, "not an exact rational: 0.5", id="segment-float-start"),
        # a bool is no exponent either: True would read as 1
        pytest.param(lambda: frac(True), TypeError, "not an exact rational: True", id="frac-bool-true"),
        pytest.param(lambda: frac(False), TypeError, "not an exact rational: False", id="frac-bool-false"),
        pytest.param(lambda: Segment("rho", True, 1), TypeError, "not an exact rational: True",
                     id="segment-bool-start"),
        pytest.param(lambda: s_invariant(0, 1), ValueError, "p and d must be positive", id="s-invariant-p-0"),
        pytest.param(lambda: lj_u(REG, 0, "rho", 1, 2), ValueError, "l and k must be >= 1", id="lj-u-l-0"),
        pytest.param(lambda: ubar_factor(SIGMA, 0), ValueError, "k must be >= 1", id="ubar-k-0"),
        pytest.param(lambda: SignedUnitaryProduct(2, UnitaryProduct()), ValueError,
                     "sign must be -1, 0 or +1", id="sign-2"),
        pytest.param(lambda: Record.__init__(FormalLFactor.__new__(FormalLFactor), (), ()), ValueError,
                     "FormalLFactor expects 1 field values, got 2", id="record-arity"),
        pytest.param(lambda: DiscreteSeriesLabel("x", "rho", 1), ValueError,
                     "side must be 'split' or 'inner'", id="label-side"),
        pytest.param(lambda: DiscreteSeriesLabel("split", "rho", 0), ValueError, "k must be >= 1", id="label-k-0"),
        pytest.param(lambda: LineRegistry().register("xi", 0), ValueError, "p must be >= 1, got 0",
                     id="register-p-0"),
        pytest.param(lambda: LineRegistry().register("xi", 1, dual="nope"), RegistryError,
                     "dual line not registered: 'nope'", id="register-unknown-dual"),
        pytest.param(lambda: lj_unitary_product(REG, UnitaryProduct([SpehUnit(SIGMA, 1)]), 2), NotTransferable,
                     "lj_unitary_product expects split-side units", id="transfer-inner-unit"),
        # u(rho, 1) transfers to 0 at d = 2 and sorts first; the inner-form unit is still refused
        pytest.param(lambda: lj_unitary_product(REG, UnitaryProduct([SpehUnit(unitary_esi("rho", 1), 1),
                                                                     SpehUnit(SIGMA, 1)]), 2),
                     NotTransferable, "lj_unitary_product expects split-side units",
                     id="transfer-inner-unit-after-a-vanishing-one"),
    ],
)
def test_invalid_arguments_raise_their_exception(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


# -- value records -------------------------------------------------------------------

UNIT = SpehUnit(unitary_esi("rho", 2), 3, Fraction(1, 2), Fraction(1, 4))

# (value, its field names in declaration order, its repr or None where the class writes its own)
RECORDS = [
    pytest.param(LineInfo("chi", 2, "chiv"), ("name", "p", "dual", "unramified"),
                 "LineInfo(name='chi', p=2, dual='chiv', unramified=False)", id="LineInfo"),
    pytest.param(UNIT, ("base", "count", "twist", "alpha"), None, id="SpehUnit"),
    pytest.param(UnitaryProduct([UNIT, SpehUnit(unitary_esi("rho", 1), 1)]), ("units",), None,
                 id="UnitaryProduct"),
    pytest.param(GlobalAlgebra({"v2": 3, "v1": 2}), ("places",),
                 "GlobalAlgebra(places=(('v1', 2), ('v2', 3)))", id="GlobalAlgebra"),
    pytest.param(GlobalCuspidalData("rho", {"v1": [(unitary_esi("rho", 2), Fraction(1, 4))]}), ("line", "locals"),
                 "GlobalCuspidalData(line='rho', locals=(('v1', ((rho:[-1/2,1/2], Fraction(1, 4)),)),))",
                 id="GlobalCuspidalData"),
    pytest.param(DiscreteSeriesLabel("split", "rho", 2), ("side", "rho", "k"),
                 "DiscreteSeriesLabel(side='split', rho='rho', k=2)", id="DiscreteSeriesLabel"),
    pytest.param(FormalLFactor(()), ("shifts",), None, id="FormalLFactor"),
    pytest.param(EpsilonFactor([("rho", 1)], "psi0"), ("shifts", "psi"), None, id="EpsilonFactor"),
    pytest.param(FormalRSProduct(()), ("powers",), None, id="FormalRSProduct"),
    pytest.param(SignedUnitaryProduct(-1, UnitaryProduct([UNIT])), ("sign", "product"), None,
                 id="SignedUnitaryProduct"),
    pytest.param(GlobalCheck(2, 4, True, [("v1", 2, SignedUnitaryProduct(0, UnitaryProduct()))]),
                 ("s", "k", "compatible", "components"), None, id="GlobalCheck"),
]


@pytest.mark.parametrize("x,fields,text", RECORDS)
def test_value_records_keep_their_contract(x, fields, text):
    values = tuple(getattr(x, f) for f in fields)
    # equality is type-strict: an equal-looking value of another type, or the bare fields, differ
    others = [(), values, FormalRSProduct(()) if isinstance(x, FormalLFactor) else FormalLFactor(())]
    assert all(x != y and not x == y for y in others)
    assert hash(x) == hash(values)
    for act in (lambda: setattr(x, fields[0], None), lambda: delattr(x, fields[0])):
        with pytest.raises(AttributeError):
            act()
    assert tuple(getattr(x, f) for f in fields) == values
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
    if text is not None:
        assert repr(x) == text


def test_every_record_class_is_in_the_contract_table():
    assert {type(p.values[0]) for p in RECORDS} == set(Record.__subclasses__())


def _subclasses(cls: type) -> set[type]:
    return {sub for c in cls.__subclasses__() for sub in (c, *_subclasses(c))}


def test_every_frozen_value_refuses_assignment_and_deletion():
    m = Multisegment([unitary_esi("rho", 2)])
    v = VirtualRep(2, {m: 3})
    values = [p.values[0] for p in RECORDS] + [v]
    assert {type(x) for x in values} == _subclasses(Frozen) - {Record}
    # a label is no Frozen value but immutable as a tuple is: its fields are read-only properties
    named = [(x, type(x).__slots__) for x in values] + [(m, ("segments", "_hash"))]
    for x, names in named:
        for name in (*names, "unknown"):
            for act in (lambda: setattr(x, name, None), lambda: delattr(x, name)):
                with pytest.raises(AttributeError):
                    act()
    # a virtual representation's terms are a read-only view
    for label, coeff in ((m, 0), (Multisegment(), 1)):
        with pytest.raises(TypeError):
            v.terms[label] = coeff
    assert v == VirtualRep(2, {m: 3}) and not v.is_zero() and repr(v) == "3 * {rho:[-1/2,1/2]}"


ST2 = unitary_esi("rho", 2)

# (a record built from unnormalized input, the same record built from normalized input)
NORMALIZED = [
    pytest.param(FormalLFactor((2, "1/2", Fraction(-1))), FormalLFactor([-1, Fraction(1, 2), 2]),
                 id="FormalLFactor-unsorted"),
    pytest.param(FormalLFactor((2, 1)), FormalLFactor([Fraction(1), Fraction(2)]), id="FormalLFactor-int"),
    pytest.param(EpsilonFactor((("rho", 1), ("chi", 0), ("rho", "-1/2"))),
                 EpsilonFactor([("chi", Fraction(0)), ("rho", Fraction(-1, 2)), ("rho", Fraction(1))]),
                 id="EpsilonFactor-unsorted"),
    pytest.param(FormalRSProduct(((0, 0),)), FormalRSProduct(), id="FormalRSProduct-zero-power"),
    pytest.param(FormalRSProduct({1: 2, 0: 0, -1: 1}), FormalRSProduct([(Fraction(-1), 1), (Fraction(1), 2)]),
                 id="FormalRSProduct-dict"),
    pytest.param(FormalRSProduct([(1, 1), ("-1", 1), (1, 1), (2, 1), (2, -1)]),
                 FormalRSProduct({-1: 1, 1: 2}), id="FormalRSProduct-pairs-add"),
    pytest.param(GlobalAlgebra([("v2", 3), ("v1", 2)]), GlobalAlgebra({"v1": 2, "v2": 3}), id="GlobalAlgebra-pairs"),
    pytest.param(GlobalCuspidalData("rho", (("v2", [(ST2, 0)]), ("v1", [(ST2, "1/4")]))),
                 GlobalCuspidalData("rho", {"v1": ((ST2, Fraction(1, 4)),), "v2": ((ST2, Fraction(0)),)}),
                 id="GlobalCuspidalData-lists"),
    pytest.param(GlobalCheck(1, 2, True, [("v", 1, ST2)]), GlobalCheck(1, 2, True, (("v", 1, ST2),)),
                 id="GlobalCheck-list"),
]


@pytest.mark.parametrize("raw,normal", NORMALIZED)
def test_records_normalize_their_input_in_the_constructor(raw, normal):
    assert raw == normal and hash(raw) == hash(normal) and repr(raw) == repr(normal)
    assert all(type(v) is tuple for v in raw._values(raw) if not isinstance(v, (str, int)))


D_V = "ramified place 'v' needs"

# (a record class, its constructor arguments, the start of the message it refuses them with)
REFUSED = [
    pytest.param(GlobalAlgebra, ({"v": 1},), D_V, id="GlobalAlgebra-d_v-1-dict"),
    pytest.param(GlobalAlgebra, ([("v", 1)],), D_V, id="GlobalAlgebra-d_v-1-pairs"),
    pytest.param(GlobalAlgebra, ((("w", 2), ("v", 0)),), D_V, id="GlobalAlgebra-d_v-0-second"),
    pytest.param(GlobalAlgebra, ({"v": 2.5},), D_V, id="GlobalAlgebra-d_v-float"),
    pytest.param(GlobalAlgebra, ([("v", "3")],), D_V, id="GlobalAlgebra-d_v-str"),
    pytest.param(GlobalAlgebra, ([("v", 2), ("v", 3)],), "place 'v' is given twice", id="GlobalAlgebra-repeated-place"),
    pytest.param(GlobalCuspidalData, ("rho", [("v", [(ST2, 0)]), ("v", [])]), "place 'v' is given twice",
                 id="GlobalCuspidalData-repeated-place"),
    pytest.param(FormalRSProduct, ({0: Fraction(1, 2), 1: 1.9},), "exponent must be an integer",
                 id="FormalRSProduct-fraction-exponent"),
    pytest.param(FormalRSProduct, ([(0, 1), (1, 1.9)],), "exponent must be an integer",
                 id="FormalRSProduct-float-exponent"),
]


@pytest.mark.parametrize("make,args,message", REFUSED)
def test_records_refuse_malformed_input(make, args, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        make(*args)


def _modules_after(*steps: str) -> list[set[str]]:
    """The names in ``sys.modules`` of one fresh interpreter after each of ``steps`` has run."""
    src = str(Path(sys.modules["segcalc"].__file__).resolve().parents[1])
    probe = "import sys\n" + "".join(f"{step}\nprint('modules:', *sys.modules)\n" for step in steps)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    ).stdout
    return [set(line.split()[1:]) for line in out.splitlines() if line.startswith("modules:")]


def _cli_code(*argvs: list[str]) -> str:
    """Code that runs ``segcalc.cli.main`` on each argv and checks that each exits 0."""
    return f"from segcalc.cli import main\nassert all(main(a) == 0 for a in {list(argvs)!r})"


# -- the package surface -------------------------------------------------------------

# home module -> the public names of ``segcalc``
PUBLIC = {
    "core": "CuspidalPoint LineInfo LineRegistry RegistryError frac s_invariant",
    "multiseg": "LimitExceeded Multisegment Segment VirtualRep elementary_successors enumerate_multisegments "
    "hermitian_dual is_hermitian is_lower rigid_decomposition stats unitary_esi",
    "gkring": "SpehUnit UnitaryProduct expand_u expand_unit_product recognize_unitary speh_ubar ubar_factor",
    "duality": "dual_irr mw_dual raw_dual_std",
    "transfer": "NotTransferable SignedUnitaryProduct c_inv c_map d_cuspidal in_image_lju is_d_compatible lj_generic "
    "lj_std lj_u ll_less m_map",
    "lfactors": "EpsilonFactor FormalLFactor FormalRSProduct eps_irr l_esi l_irr normalizing_factor rs_lg",
    "globalrep": "DiscreteSeriesLabel GlobalAlgebra GlobalCheck GlobalCuspidalData g_inverse g_map global_check "
    "interval_decomposition levi_conjugate_count local_component match_discrete_products s_rho_d",
}


def test_package_resolves_each_public_name_from_its_home_module_on_first_access():
    home = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert len(home) == 60 and sorted(segcalc.__all__) == sorted(home)
    for name, module in home.items():
        assert getattr(segcalc, name) is getattr(importlib.import_module(f"segcalc.{module}"), name)
        assert vars(segcalc)[name] is getattr(segcalc, name)  # kept, so the next access is a plain lookup
    scope = {}
    exec("from segcalc import *", scope)
    assert all(scope[name] is getattr(segcalc, name) for name in home)
    with pytest.raises(AttributeError, match="module 'segcalc' has no attribute 'nope'"):
        segcalc.nope
    # a bare import loads no computing module; a name loads its home module alone
    after_import, after_name = _modules_after("import segcalc", "segcalc.LineRegistry")
    assert {m for m in after_import if m.startswith("segcalc.")} == set()
    assert {m for m in after_name if m.startswith("segcalc.")} == {"segcalc.core"}


# -- per-command imports ----------------------------------------------------------------


def test_the_parser_and_the_duality_leave_the_unit_calculus_out():
    for module in ("segcalc.dsl", "segcalc.duality"):
        [loaded] = _modules_after(f"import {module}")
        assert module in loaded and "segcalc.gkring" not in loaded


def test_cli_import_leaves_heavy_and_unused_modules_out():
    # the parse-only commands load neither the transfer, the L-factors, the global
    # bookkeeping nor selfcheck, no dataclasses (which pulls in inspect) and, in text
    # mode, no json
    [loaded] = _modules_after(_cli_code(
        ["dual", "{rho:[0,2]}"], ["order", "{rho:[0,1]}", "{rho:[0,0], rho:[1,1]}"],
        ["enumerate", "{rho:[0,0], rho:[1,1]}"], ["recognize", "{rho:[-1,0], rho:[0,1]}"],
        ["expand-u", "l=2", "k=2"], ["expand-ubar", "--d", "2", "l=1", "k=2"],
    ))
    unwanted = {"dataclasses", "inspect", "json", "segcalc.transfer", "segcalc.lfactors", "segcalc.globalrep",
                "segcalc.selfcheck"}
    assert loaded & unwanted == set()
    [loaded] = _modules_after(_cli_code(["lfun", "{rho:[-1/2,1/2]}"]))
    assert "segcalc.lfactors" in loaded and loaded & {"segcalc.transfer", "segcalc.globalrep"} == set()
    [loaded] = _modules_after(_cli_code(["lj", "--d", "2", "--u", "l=2", "k=3"], ["lj", "--d", "2", "{rho:[0,1]}"]))
    assert "segcalc.transfer" in loaded and "segcalc.globalrep" not in loaded
