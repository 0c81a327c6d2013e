import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcalc import LineRegistry, Multisegment, VirtualRep, expand_u, s_invariant
from segcalc.cli import main
from segcalc.dsl import ParseError, parse_multisegment, parse_virtual
from segcalc.selfcheck import window_corpus
from strategies import labels, ms, seg, virtual_reps

F = Fraction


# -- parsing -------------------------------------------------------------------


def test_parse_multisegment(registry):
    got = parse_multisegment("{rho:[0,1], rho:[1,1]}", registry)
    assert got == ms(seg(0, 1), seg(1, 1))


def test_parse_half_integer_segment(registry):
    got = parse_multisegment("{rho:[-1/2,1/2]}", registry)
    assert got == ms(seg(F(-1, 2), F(1, 2)))
    assert got.segments[0].length == 2


def test_parse_reversed_bounds_rejected(registry):
    with pytest.raises(ParseError):
        parse_multisegment("{rho:[1,0]}", registry)


def test_parse_unknown_line_rejected(registry):
    with pytest.raises(ParseError):
        parse_multisegment("{sigma:[0,1]}", registry)


def test_parse_singleton_shorthand(registry):
    assert parse_multisegment("{rho:[2]}", registry) == ms(seg(2, 2))


def test_parse_empty_multisegment(registry):
    assert parse_multisegment("{}", registry) == Multisegment.empty()


def test_parse_primed_segment_uses_step(registry):
    got = parse_multisegment("{rho':[-1,1]}", registry, d=2)
    assert got == ms(seg(-1, 1, step=2))
    with pytest.raises(ParseError):
        parse_multisegment("{rho':[0,1]}", registry, d=2)  # span not a multiple of 2


def test_parse_virtual(registry):
    got = parse_virtual("2 * {rho:[0,1]} - {rho:[0,0], rho:[1,1]}", registry)
    assert got == VirtualRep(
        1, {ms(seg(0, 1)): 2, ms(seg(0, 0), seg(1, 1)): -1}
    )


def test_parse_virtual_leading_minus(registry):
    got = parse_virtual("-1 * {rho:[0,0]}", registry)
    assert got == VirtualRep(1, {ms(seg(0, 0)): -1})


def test_parse_virtual_zero(registry):
    # a bare 0 is the empty sum, as repr writes it; it is no coefficient
    assert parse_virtual("0", registry, 2) == VirtualRep(2)
    for text in ("0 *", "-0", "0 + {rho:[0,0]}"):
        with pytest.raises(ParseError):
            parse_virtual(text, registry)


def test_parse_garbage_rejected(registry):
    for text in ("{rho:[0,1]", "rho:[0,1]}", "{rho 0 1}", "{rho:[0,1]} ?", "{rho:[0,1]} ? "):
        with pytest.raises(ParseError):
            parse_multisegment(text, registry)


def test_parse_ignores_leading_and_trailing_whitespace(registry):
    for pad in (" ", "\n", " \t\n "):
        assert parse_multisegment(pad + "{rho:[0,1], rho:[1,1]}" + pad, registry) == ms(seg(0, 1), seg(1, 1))
        assert parse_multisegment("{}" + pad, registry) == Multisegment.empty()
        assert parse_virtual("0" + pad, registry) == VirtualRep()
        assert parse_virtual("2 * {rho:[0,1]} - {rho:[0,0]}" + pad, registry) == VirtualRep(
            1, {ms(seg(0, 1)): 2, ms(seg(0, 0)): -1}
        )
    for text in ("", " ", "\n"):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_multisegment(text, registry)


# (parser, text, inner-form index, the repr of the value or a ParseError with the start of its message)
EDGES = [
    (parse_virtual, "4/2 * {rho:[0,0]}", 1, "2 * {rho:[0,0]}"),
    (parse_virtual, "1/2 * {rho:[0,0]}", 1, ParseError("expected an integer, got 1/2")),
    (parse_virtual, "4/0 * {rho:[0,0]}", 1, ParseError("zero denominator")),
    (parse_virtual, "0 * {rho:[0,0]}", 1, "0"),
    (parse_virtual, "{} - {}", 1, "0"),
    (parse_virtual, " 0\n", 2, "0"),
    (parse_virtual, "00", 1, ParseError("")),
    (parse_virtual, "-0", 1, ParseError("")),
    (parse_virtual, "- {rho:[0,0]}", 1, "-1 * {rho:[0,0]}"),
    (parse_virtual, "{rho:[0,0]} + 2*{rho:[0,0]} - {}", 1, "-1 * {} + 3 * {rho:[0,0]}"),
    (parse_virtual, "2 {rho:[0,0]}", 1, ParseError("")),
    (parse_virtual, "+ {rho:[0,0]}", 1, ParseError("")),
    (parse_virtual, "{rho:[0,0]} +", 1, ParseError("unexpected end of input")),
    (parse_multisegment, "{rho:[0,1],}", 1, ParseError("")),
    (parse_multisegment, "{rho : [ 0 , 1 ]}", 1, "{rho:[0,1]}"),
    (parse_multisegment, "{rho:[- 1/2, 1/2]}", 1, "{rho:[-1/2,1/2]}"),
    (parse_multisegment, "{rho:[1 / 2]}", 1, "{rho:[1/2,1/2]}"),
    (parse_multisegment, "{rho:[0,1/0]}", 1, ParseError("zero denominator")),
    (parse_multisegment, "{rho:[\u0663]}", 1, "{rho:[3,3]}"),  # an Arabic-Indic digit three
    (parse_multisegment, "{rho:[--1]}", 1, ParseError("")),
    (parse_multisegment, "{rho:[0 1]}", 1, ParseError("")),
    (parse_multisegment, "{rho':[0,2]}", 2, "{rho':[0,2]}"),
    (parse_multisegment, "{rho ':[0,2]}", 2, ParseError("")),
    (parse_multisegment, "{rho':[0,1]}", 2, ParseError("span 1-0 is not a multiple of step 2")),
    (parse_multisegment, "{rho:[1,0]}", 1, ParseError("segment bounds out of order: [1,0]")),
    (parse_multisegment, "{sigma:[0,1]}", 1, ParseError("unknown line name: 'sigma'")),
    (parse_multisegment, "{rho:[0,1]}}", 1, ParseError("trailing input")),
    (parse_multisegment, "{rho:[0,1]} {}", 1, ParseError("trailing input")),
]


@pytest.mark.parametrize("parse,text,d,want", EDGES, ids=[f"{p.__name__[6:]}-{t!r}" for p, t, _, _ in EDGES])
def test_parse_edge_inputs(parse, text, d, want, registry):
    if isinstance(want, ParseError):
        with pytest.raises(ParseError, match="^" + re.escape(str(want))):
            parse(text, registry, d)
    else:
        assert repr(parse(text, registry, d)) == want


# -- round trips ------------------------------------------------------------------


def test_round_trip_on_corpus(registry):
    for m in window_corpus(4, 4):
        assert parse_multisegment(repr(m), registry) == m


def test_round_trip_virtual(registry):
    v = expand_u(2, "rho", 3)
    assert parse_virtual(repr(v), registry) == v


def test_round_trip_primed(registry):
    m = ms(seg(-1, 1, step=2), seg(0, 0, step=2))
    assert parse_multisegment(repr(m), registry, d=2) == m


TWO_LINES = LineRegistry()
TWO_LINES.register("rho", 1)
TWO_LINES.register("chi", 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_parse_inverts_repr_on_generated_labels_and_virtual_reps(d, data):
    # at inner-form index d a segment is written unprimed (step 1) or primed (step s(p, d), p = 1)
    label = labels(steps=(1, s_invariant(1, d)))
    m = data.draw(label)
    assert parse_multisegment(repr(m), TWO_LINES, d) == m
    v = data.draw(virtual_reps(d, label))
    assert parse_virtual(repr(v), TWO_LINES, d) == v
    assert repr(VirtualRep(d, {})) == "0"


# -- CLI ----------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_dual(capsys):
    code, out, _ = run_cli(capsys, "dual", "{rho:[0,2]}")
    assert code == 0
    assert out.strip() == "{rho:[0,0], rho:[1,1], rho:[2,2]}"


def test_cli_order(capsys):
    code, out, _ = run_cli(capsys, "order", "{rho:[0,1]}", "{rho:[0,0], rho:[1,1]}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "order", "{rho:[0,0], rho:[1,1]}", "{rho:[0,1]}")
    assert code == 0 and out.strip() == "false"


def test_cli_expand_u(capsys):
    code, out, _ = run_cli(capsys, "expand-u", "l=2", "k=2")
    assert code == 0
    assert out.strip() == "1 * {rho:[-1,0], rho:[0,1]} - 1 * {rho:[-1,1], rho:[0,0]}"


def test_cli_lj_of_expansion(capsys):
    code, out, _ = run_cli(capsys, "lj", "--d", "2", "--expand-u", "l=1", "k=2")
    assert code == 0
    assert out.strip() == "-1 * {rho':[0,0]}"


def test_cli_lj_closed_form(capsys):
    code, out, _ = run_cli(capsys, "lj", "--d", "2", "--u", "l=2", "k=3")
    assert code == 0
    assert "u'" in out


def test_cli_lj_of_expression(capsys):
    code, out, _ = run_cli(capsys, "lj", "--d", "2", "{rho:[-1/2,1/2]}")
    assert code == 0
    assert out.strip() == "1 * {rho':[0,0]}"


def test_cli_lj_of_zero(capsys):
    # the printed zero transfer can be fed back to lj
    code, out, _ = run_cli(capsys, "lj", "--d", "2", "0")
    assert (code, out) == (0, "0\n")


def test_cli_count_levi(capsys):
    code, out, _ = run_cli(capsys, "count-levi", "4", "2")
    assert code == 0 and out.strip() == "3"


def test_cli_recognize(capsys):
    code, out, _ = run_cli(capsys, "recognize", "{rho:[-1,0], rho:[0,1]}")
    assert code == 0
    assert out.strip() == "u(rho:[-1/2,1/2], 2)"
    code, out, _ = run_cli(capsys, "recognize", "{rho:[0,1]}")
    assert code == 0 and out.strip() == "none"


def test_cli_lfun_eps(capsys):
    code, out, _ = run_cli(capsys, "lfun", "{rho:[-1/2,1/2]}")
    assert code == 0 and out.strip() == "(1 - q^(-s-1/2))^-1"
    code, out, _ = run_cli(capsys, "eps", "{rho:[0,0]}")
    assert code == 0 and out.strip() == "eps'(s, rho, psi)"


def test_cli_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "{rho:[0,1], rho:[1,1]}")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "{rho:[0,0], rho:[1,1], rho:[1,1]}" in lines


def test_cli_enumerate_refuses_a_label_of_two_steps(capsys):
    # the support would be enumerated at one step, so the input label could be lost
    code, out, err = run_cli(capsys, "enumerate", "--d", "2", "{rho:[0,0], rho':[1,3]}")
    assert (code, out) == (1, "")
    assert err == "error: enumerate needs a label of one step, got steps 1, 2\n"


def test_cli_unit_commands_check_the_line(capsys):
    for argv in (["expand-u", "l=1", "k=2", "line=xi"], ["lj", "--d", "2", "--u", "l=1", "k=2", "line=xi"]):
        assert run_cli(capsys, *argv) == (1, "", "error: unknown line: 'xi'\n")


def test_cli_json_output(capsys):
    code, out, _ = run_cli(capsys, "dual", "--json", "{rho:[0,1]}")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "multisegment": [
            {"line": "rho", "start": "0", "end": "0", "step": 1},
            {"line": "rho", "start": "1", "end": "1", "step": 1},
        ]
    }


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "dual", "{rho:[1,0]}")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize(
    "argv", [("dual", "{rho:[%s]}"), ("dual", "{rho:[0,1/%s]}"), ("lj", "--d", "2", "%s * {rho:[0]}")]
)
def test_cli_refuses_a_number_longer_than_the_int_digit_bound_as_a_parse_error(argv, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, *argv[:-1], argv[-1] % digits)
    assert code == 2 and not out
    assert err.startswith("parse error:") and f"bound of {sys.get_int_max_str_digits()} digits" in err


def test_cli_accepts_an_input_with_trailing_whitespace(capsys):
    assert run_cli(capsys, "dual", "{rho:[0,2]} \n") == run_cli(capsys, "dual", "{rho:[0,2]}")
    assert run_cli(capsys, "dual", "{rho:[0,2]}")[0] == 0


def test_cli_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "expand-ubar", "l=1", "k=2")  # missing --d
    assert code == 1 and "error" in err


def test_cli_is_deterministic(capsys):
    a = run_cli(capsys, "expand-u", "l=2", "k=3")
    b = run_cli(capsys, "expand-u", "l=2", "k=3")
    assert a == b


def test_cli_lines_file(tmp_path, capsys):
    reg = LineRegistry()
    reg.register("a", 1)
    reg.register("b", 1, dual="a")
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(reg.to_json()))
    code, out, _ = run_cli(capsys, "dual", "--lines", str(path), "{a:[0,1]}")
    assert code == 0
    assert out.strip() == "{a:[0,0], a:[1,1]}"


SELFCHECK_STDOUT = (
    "[PASS] duality-involution: 301 multisegments\n"
    "[PASS] speh-dual-swap: grid 4x4\n"
    "[PASS] transfer-identity: 10 identities\n"
    "[PASS] vanishing-criterion: s,k,l <= 4\n"
    "[PASS] ubar-factorization: s <= 3, k <= 6\n"
    "[PASS] involution-formula: s <= 2, l <= 3, k <= 2\n"
    "[PASS] l-eps-closed-forms: n <= 4, d <= 3\n"
    "[PASS] normalizer-cancellation: s <= 4\n"
    "[PASS] interval-decomposition: 1716 multisets\n"
    "[PASS] levi-counts: direct enumeration agrees\n"
    "[PASS] unitary-image: witness and obstruction behave\n"
    "[PASS] sign-coherence: 9 support classes\n"
    "[FAIL] recorded-counterexample: recorded {rho':[0,0], rho':[-1,-1], rho':[1,1]} "
    "vs computed -1 * {rho':[0,0], rho':[-1,1]} (forced by linearity; see README)\n"
)


def test_cli_selfcheck_reports_known_discrepancy(capsys):
    # every suite passes except the recorded-counterexample mirror, which
    # documents the reference-value discrepancy and drives the exit code
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 1
    assert out == SELFCHECK_STDOUT


ALGEBRA = {"places": [{"name": "v1", "d_v": 2}]}
CUSPIDAL = {"line": "rho", "locals": {"v1": [{"len": 1}]}}


def _lines(data):
    return ["dual", "--lines", ("lines.json", data), "{rho:[0,0]}"]


def _global(algebra, cuspidal):
    return [
        "global-check", "--algebra", ("alg.json", algebra),
        "--cuspidal", ("cusp.json", cuspidal), "--k", "2",
    ]


# nested deeper than ``json.load`` can recurse; ``json.dumps`` cannot write it, so it is raw bytes
DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize(
    "argv,code",
    [
        (["expand-u", "l=2"], 2),
        (["lj", "--d", "2", "--u", "l=2"], 2),
        (["dual", "{rho:[0,1/0]}"], 2),
        (["dual", "--lines", "missing.json", "{rho:[0,0]}"], 1),
        (["expand-u", "l=x", "k=2"], 2),
        (["expand-u", "l=-1", "k=2"], 1),
        (_lines(5), 1),
        (_lines([5]), 1),
        (_lines([{"p": 1}]), 1),
        (_lines([{"name": "rho"}]), 1),
        (_lines([{"name": "rho", "p": "1"}]), 1),
        (_lines([{"name": "rho", "p": 1.5}]), 1),
        (_lines([{"name": "rho", "p": 1, "dual": ["chi"]}]), 1),
        (_global({}, CUSPIDAL), 1),
        (_global({"places": ["v1"]}, CUSPIDAL), 1),
        (_global({"places": [{"d_v": 2}]}, CUSPIDAL), 1),
        (_global({"places": [{"name": "v1"}]}, CUSPIDAL), 1),
        (_global({"places": [{"name": "v1", "d_v": 2.5}]}, CUSPIDAL), 1),
        (_global(ALGEBRA, [CUSPIDAL]), 1),
        (_global(ALGEBRA, {"locals": {"v1": [{"len": 1}]}}), 1),
        (_global(ALGEBRA, {"line": "rho"}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [1]}}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{}]}}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": "2"}]}}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": 1, "e": 0.5}]}}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": 1, "e": [1]}]}}), 1),
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": 1, "e": "1/0"}]}}), 1),
        # at the split place v0 no |e| < 1/2 check would catch a bool read as 1
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": 1}], "v0": [{"len": 1, "e": True}]}}), 1),
        # the ramified place v1 has no local data
        (_global(ALGEBRA, {"line": "rho", "locals": {"v0": [{"len": 1}]}}), 1),
        # the split place v0 gets the generic checks too: |e| = 3 is not below 1/2
        (_global(ALGEBRA, {"line": "rho", "locals": {"v1": [{"len": 1}], "v0": [{"len": 2, "e": 3}]}}), 1),
        # malformed expressions: no input, bad numbers, a non-integer coefficient, a bad line, trailing input
        (["lj", "--d", "2"], 2),
        (["dual", "{rho:[x,1]}"], 2),
        (["dual", "{rho:[1/x,2]}"], 2),
        (["lj", "--d", "2", "1/2*{rho:[0,1]}"], 2),
        (["dual", "{1:[0,0]}"], 2),
        (["dual", "{rho:[0,0]}}"], 2),
        # a non-positive inner-form index is refused before any command runs
        (["dual", "--d", "0", "{rho:[0,0]}"], 1),
        (["lfun", "--d", "0", "{rho:[0,0]}"], 1),
        (["eps", "--d", "-2", "{rho:[0,0]}"], 1),
        (["dual", "--d", "-2", "{rho':[0,0]}"], 1),
        (["expand-u", "--d", "0", "l=1", "k=1"], 1),
        (["selfcheck", "--d", "0"], 1),
        # a flag is a JSON bool, not a string or number read by its truthiness
        (["lfun", "--lines", ("lines.json", [{"name": "rho", "p": 1, "unramified": "false"}]), "{rho:[0,0]}"], 1),
        # JSON too deep to parse is a domain error, not a RecursionError traceback
        (_lines(DEEP), 1),
        (_global(DEEP, CUSPIDAL), 1),
        (_global(ALGEBRA, DEEP), 1),
    ],
)
def test_cli_refuses_malformed_unit_and_file_inputs(argv, code, tmp_path, capsys):
    def path(a):
        # a (name, data) pair stands for a file holding data as JSON, or bytes data as they are;
        # missing.json is never written
        if isinstance(a, tuple):
            name, data = a
            (tmp_path / name).write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
            return str(tmp_path / name)
        return str(tmp_path / a) if a == "missing.json" else a

    got, out, err = run_cli(capsys, *map(path, argv))
    assert got == code
    assert out == "" and err.startswith(("error:", "parse error:"))
    assert "Traceback" not in err


# -- structured fuzz of the file and unit inputs ------------------------------------


def _objects(fields):
    """JSON objects holding any subset of ``fields``, each value drawn from its pool."""
    return st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in fields.items()})


def _valid_or_broken(valid, broken):
    """One of the ``valid`` JSON values, a generated malformed one or a value that is no object."""
    return st.one_of(st.sampled_from(valid), broken, st.sampled_from([5, "rho", [], None]))


_LINES_FILES = _valid_or_broken(
    [[{"name": "rho", "p": 1, "unramified": True}, {"name": "chi", "p": 2}],
     [{"name": "rho", "p": 1, "dual": "chi"}, {"name": "chi", "p": 1, "unramified": False}]],
    st.lists(_objects({"name": ["rho", "chi", "zz", 5], "p": [1, 2, 0, "1", 1.5, True],
                       "dual": [None, "rho", "chi", "zz", ["chi"]], "unramified": [True, False, "false", 0, None]}),
             max_size=3),
)
_ALGEBRA_FILES = _valid_or_broken(
    [{"places": [{"name": "v1", "d_v": 2}]}, {"places": [{"name": "v1", "d_v": 2}, {"name": "v2", "d_v": 3}]}],
    _objects({"places": [[{"name": "v1", "d_v": 1}], [{"name": 1, "d_v": 2}], [{"name": "v1", "d_v": "2"}],
                         [{"name": "v1"}], ["v1"], {}]}),
)
_BAD_LOCALS = (
    [{"v1": [{"len": 1, "e": e}]} for e in (0, "1/4", "1/2", "x", "1/0", 0.5, True)]
    + [{"v1": [{"len": n, "line": line}]} for n in (0, -1, "2", 3) for line in ("chi", "zz", 5)]
    + [{"v1": 5}, []]
)
_CUSPIDAL_FILES = _valid_or_broken(
    [{"line": "rho", "locals": {"v1": [{"len": 1}]}},
     {"line": "rho", "locals": {"v1": [{"len": 2}], "v2": [{"len": 1}]}}],
    _objects({"line": ["rho", "chi", "zz", 5], "locals": _BAD_LOCALS}),
)
# l and k stay at most 4: the unit expansions have no budget yet
_UNIT_PARAMS = st.one_of(
    st.sampled_from([["l=1", "k=2"], ["l=2", "k=2", "line=rho"], ["l=4", "k=4"], ["l=3", "k=1", "line=chi"]]),
    st.lists(st.one_of(
        st.builds("{}={}".format, st.sampled_from(["l", "k"]), st.sampled_from(["-1", "0", "2", "x", "1/2", ""])),
        st.builds("line={}".format, st.sampled_from(["rho", "chi", "zz", ""])),
        st.sampled_from(["l", "=", "k:2"]),
    ), min_size=1, max_size=4),
)
_LABELS = st.sampled_from([
    "{rho:[0,1]}", "{chi:[0,0], rho:[1/2,1/2]}", "{rho':[0,1]}", "{chi':[-1/2,1/2]}", "{zz:[0,0]}", "{}", "{rho:[0,",
])


@st.composite
def cli_invocations(draw):
    """argv of one command, with JSON files given as (name, data) pairs and a small --d."""
    command = draw(st.sampled_from(["dual", "recognize", "lfun", "eps", "enumerate", "order", "expand-u",
                                    "expand-ubar", "lj", "global-check"]))
    argv = [command, "--d", draw(st.sampled_from(["1", "2", "4", "0"]))]
    if draw(st.booleans()):
        argv += ["--lines", ("lines.json", draw(_LINES_FILES))]
    if command in ("expand-u", "expand-ubar"):
        argv += draw(_UNIT_PARAMS)
    elif command == "lj":
        argv += [draw(st.sampled_from(["--u", "--expand-u"])), *draw(_UNIT_PARAMS)]
    elif command == "global-check":
        argv += ["--algebra", ("alg.json", draw(_ALGEBRA_FILES)), "--cuspidal", ("cusp.json", draw(_CUSPIDAL_FILES)),
                 "--k", str(draw(st.integers(1, 4)))]
    else:
        argv += [draw(_LABELS) for _ in range(2 if command == "order" else 1)]
    return argv


@given(cli_invocations())
@settings(max_examples=150)
def test_cli_fuzzed_files_and_unit_parameters_exit_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        for a in argv:
            if isinstance(a, tuple):
                Path(tmp, a[0]).write_text(json.dumps(a[1]))
        try:
            code = main([str(Path(tmp, a[0])) if isinstance(a, tuple) else a for a in argv])
        except SystemExit as e:  # argparse refuses the command line
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() != "") == (code == 0), (argv, err.getvalue())


def test_cli_checks_the_inner_form_index_before_the_command(capsys):
    assert run_cli(capsys, "lj", "--d", "-2", "{rho:[0,0]}") == (1, "", "error: --d must be >= 1\n")
    assert run_cli(capsys, "lj", "--d", "1", "{rho:[0,0]}") == (1, "", "error: lj needs --d >= 2\n")
    assert run_cli(capsys, "expand-ubar", "--d", "1", "l=1", "k=2") == (1, "", "error: expand-ubar needs --d >= 2\n")


def test_cli_recognize_refuses_a_label_over_the_limit(capsys):
    code, out, err = run_cli(capsys, "recognize", "{rho:[0,10000]}")
    assert (code, out, err) == (1, "", "error: label exceeds recognition limit 10000\n")


@pytest.mark.parametrize(
    "label,limit",
    [
        (["rho:[0,0]"] * 1000, 1000),  # one point 1000 times
        ([f"rho:[{2 * i},{2 * i}]" for i in range(1000)], 5000),  # 1000 isolated points
    ],
)
def test_cli_enumerates_a_deep_support_without_a_traceback(label, limit, capsys):
    text = "{" + ", ".join(label) + "}"
    code, out, err = run_cli(capsys, "enumerate", "--limit", str(limit), text)
    assert (code, out, err) == (0, text + "\n", "")


# -- recorded CLI bytes ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "bench" / "data" / "cli_expected.json") as fh:
    RECORDED = json.load(fh)

RECOGNIZED_PAIR = (
    '{\n  "units": [\n    {\n      "alpha": "1/4",\n      "base": {\n        "end": "0",\n'
    '        "line": "rho",\n        "start": "0",\n        "step": 1\n      },\n'
    '      "k": 1,\n      "twist": "0"\n    }\n  ]\n}\n'
)
PINNED = [
    {"argv": ["recognize", "{rho:[-1/4,-1/4], rho:[1/4,1/4]}"], "exit": 0,
     "stdout": "pi(u(rho:[0,0], 1), 1/4)\n"},
    {"argv": ["recognize", "--json", "{rho:[-1/4,-1/4], rho:[1/4,1/4]}"], "exit": 0,
     "stdout": RECOGNIZED_PAIR},
    {"argv": ["lj", "--d", "2", "{rho:[0,0]}"], "exit": 0, "stdout": "0\n"},
    {"argv": ["lj", "--json", "--d", "2", "{rho:[0,0]}"], "exit": 0, "stdout": '{\n  "terms": []\n}\n'},
]


@pytest.mark.parametrize("entry", RECORDED + PINNED)
def test_cli_matches_recorded_table(entry, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded argv name bench/data/*.json
    try:
        code = main(list(entry["argv"]))
    except SystemExit as e:  # argparse refusals
        code = e.code
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


HASH_SEED_ARGVS = [
    ["enumerate", "{rho:[0,3], rho:[1,2], rho:[1/2,3/2]}"],
    ["enumerate", "--json", "{rho:[0,2], rho:[1,1], rho:[-1/2,1/2]}"],
    ["order", "{rho:[0,0], rho:[1,1], rho:[2,3]}", "{rho:[0,3]}"],
    ["dual", "{rho:[0,2], rho:[1,3], rho:[1/2,3/2], rho:[2,2]}"],
    ["expand-u", "l=3", "k=4"],
    ["expand-u", "--json", "l=2", "k=3"],
    ["lj", "--d", "2", "--expand-u", "l=2", "k=4"],
    ["lj", "--d", "2", "{rho:[0,1], rho:[1/2,3/2]} - 2 * {rho:[0,3], rho:[-1/2,1/2]}"],
]


def test_cli_stdout_does_not_depend_on_the_hash_seed():
    """Label hashes, and so set and dict iteration orders, change with PYTHONHASHSEED; no output follows them.

    One interpreter per seed runs ``segcalc.cli.main`` on every argv in turn.
    """
    script = (
        "import json, sys\n"
        "from segcalc.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('exit', main(argv), flush=True)\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", script, json.dumps(HASH_SEED_ARGVS)], capture_output=True, text=True,
            check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0].count("exit 0\n") == len(HASH_SEED_ARGVS)
    assert outs[0] == outs[1]


def test_cli_global_check(tmp_path, capsys):
    alg = {"places": [{"name": "v1", "d_v": 2}]}
    cusp = {"line": "rho", "locals": {"v1": [{"len": 1}], "v0": [{"len": 3}]}}
    ap = tmp_path / "alg.json"
    cp = tmp_path / "cusp.json"
    ap.write_text(json.dumps(alg))
    cp.write_text(json.dumps(cusp))
    code, out, _ = run_cli(
        capsys, "global-check", "--algebra", str(ap), "--cuspidal", str(cp), "--k", "2"
    )
    assert code == 0
    assert "s_rho_D = 2" in out
    assert "D-compatible: true" in out
