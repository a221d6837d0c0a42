"""Parser, printer, and jet tests for the expression DSL."""

import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stconvex import (ScalarField, builtin_models, canonical_field,
                      canonical_field_spherical)
from stconvex.errors import DomainError, ParseError, UnknownSymbol
from stconvex.expressions import (FUNCTIONS, BinOp, Call, Neg, Num, Sym, _cached_code,
                                  compile_jet1, compile_jet2, compile_value, eval_block,
                                  eval_jet1, eval_jet2, parse, symbols_in, to_source)

from conftest import bits_digest, fd_gradient, fd_hessian, value_fn

XY = ("x", "y")
SRC = str(Path(__file__).resolve().parent.parent / "src")


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_precedence_example():
    ast = parse("x^2 - a*t^2", ("x", "t", "a"))
    assert ast == BinOp("-", BinOp("^", Sym("x"), Num(2.0)),
                        BinOp("*", Sym("a"), BinOp("^", Sym("t"), Num(2.0))))


def test_division_precedence_example():
    ast = parse("1 - 2*M/r", ("r", "M"))
    assert ast == BinOp("-", Num(1.0),
                        BinOp("/", BinOp("*", Num(2.0), Sym("M")), Sym("r")))


def test_parse_error_column():
    with pytest.raises(ParseError) as info:
        parse("x +", ("x",))
    assert info.value.column == 4


@pytest.mark.parametrize("text, line, column", [
    ("\u00b2", 1, 1), ("x+\u00b2", 1, 3), ("1.5e\u00b2", 1, 1), ("x +\n  \u00b2", 2, 3)],
    ids=["alone", "after-plus", "in-exponent", "second-line"])
def test_number_that_float_rejects_is_parse_error(text, line, column):
    """str.isdigit accepts the superscript two, so the tokenizer reads it as a
    NUMBER; float() rejects it, and parse raises a ParseError at that token,
    not a bare ValueError."""
    with pytest.raises(ParseError, match="malformed number") as info:
        parse(text, ("x",))
    assert (info.value.line, info.value.column) == (line, column)


def test_decimal_digits_float_accepts_still_parse():
    assert parse("\u0663.5", ()) == Num(3.5)  # Arabic-Indic three


def test_unknown_symbol_named():
    with pytest.raises(UnknownSymbol) as info:
        parse("x + q", ("x",))
    assert info.value.name == "q"


def test_unknown_function():
    with pytest.raises(UnknownSymbol):
        parse("foo(x)", ("x",))


def test_left_associativity():
    assert parse("1 - 2 - 3", ()) == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))


def test_power_above_unary_minus():
    assert parse("-x^2", ("x",)) == Neg(BinOp("^", Sym("x"), Num(2.0)))


def test_power_right_associative():
    assert parse("x^2^3", ("x",)) == BinOp("^", Sym("x"), BinOp("^", Num(2.0), Num(3.0)))


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("sin(x", ("x",))


@pytest.mark.parametrize("text, message, line, column", [
    ("x $ y", "unexpected character '$'", 1, 3),
    ("x +\n  y y", "unexpected trailing 'y'", 2, 5),
    ("x * (y +\n 1", "unbalanced parenthesis", 2, 3),
], ids=["character", "trailing", "open-group"])
def test_parse_errors_carry_line_and_column(text, message, line, column):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse(text, XY)
    assert (info.value.line, info.value.column) == (line, column)


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ", ("x",))


def test_scientific_literals():
    assert parse("1.5e-3", ()) == Num(1.5e-3)
    assert parse("2E+4", ()) == Num(2e4)


# --------------------------------------------------------------------------
# printer round-trip (fuzzed)
# --------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from([Sym("x"), Sym("y")]),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(("sin", "cos", "tan", "sinh", "cosh", "tanh",
                                   "exp", "log", "sqrt", "abs")), children).map(
            lambda t: Call(t[0], t[1])),
    )


_asts = st.recursive(_leaf, _extend, max_leaves=25)


@settings(max_examples=1000, deadline=None)
@given(_asts)
def test_parse_print_round_trip(ast):
    assert parse(to_source(ast), XY) == ast


# --------------------------------------------------------------------------
# jets: examples and exactness
# --------------------------------------------------------------------------

def test_jet_square():
    jet = eval_jet2(parse("x^2", ("x",)), ("x",), (3.0,))
    assert jet.value == 9.0
    assert jet.gradient.tolist() == [6.0]
    assert jet.hessian.tolist() == [[2.0]]


def test_jet_product_example():
    jet = eval_jet2(parse("sin(x)*y", XY), XY, (0.0, 2.0))
    assert jet.value == 0.0
    assert jet.gradient.tolist() == [2.0, 0.0]
    assert jet.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sqrt_domain_error_at_zero():
    with pytest.raises(DomainError):
        eval_jet2(parse("sqrt(x)", ("x",)), ("x",), (0.0,))


def test_log_domain_error():
    with pytest.raises(DomainError):
        eval_jet2(parse("log(x)", ("x",)), ("x",), (-1.0,))


def test_division_by_zero():
    with pytest.raises(DomainError):
        eval_jet2(parse("1/x", ("x",)), ("x",), (0.0,))


def test_untouched_coordinates_exactly_zero():
    jet = eval_jet2(parse("exp(x)*x", XY), XY, (0.7, 123.0))
    assert jet.gradient[1] == 0.0
    assert not jet.hessian[1].any()
    assert not jet.hessian[:, 1].any()


def test_parameters_bind_as_constants():
    jet = eval_jet2(parse("M*x^2", ("x", "M")), ("x",), (2.0,), {"M": 3.0})
    assert jet.value == 12.0
    assert jet.gradient.tolist() == [12.0]


def _compiled_jet1(ast, names, point):
    return compile_jet1(ast, names)(*point)


def _compiled_value(ast, names, point):
    return compile_value(ast, names)(*point)


def _compiled_jet2(ast, names, point):
    return compile_jet2(ast, names)(*point)


#: evaluator -> (derivative order, fn(ast, names, point))
_EVALUATORS = {
    "eval_jet2": (2, eval_jet2),
    "eval_jet1": (1, eval_jet1),
    "compile_jet1": (1, _compiled_jet1),
    "compile_value": (0, _compiled_value),
    "compile_jet2": (2, _compiled_jet2),
}

#: rule -> (expression, coordinates, point, DomainError message, lowest
#: derivative order the rule applies at)
_DOMAIN_RULES = {
    "overflow": ("sinh(sinh(3*x)^3)", ("x",), (1.0,), "overflow|range", 0),
    "division-by-zero": ("1/x", ("x",), (0.0,), "division by zero", 0),
    "abs-kink": ("abs(x)", ("x",), (0.0,), "abs is not differentiable at 0", 1),
    "sqrt-at-zero": ("sqrt(x)", ("x",), (0.0,), "sqrt of non-positive value", 0),
    "log-of-negative": ("log(x)", ("x",), (-1.0,), "log of non-positive value", 0),
    "negative-power-of-zero": ("x^-2", ("x",), (0.0,), "division by zero", 0),
    "non-integer-power-of-negative-base": ("x^0.5", ("x",), (-1.0,),
                                           "non-integer power of non-positive base", 0),
    "non-constant-exponent-of-non-positive-base": ("x^y", XY, (-2.0, 3.0),
                                                   "log of non-positive value", 0),
    # d(x/y)/dy divides by y*y, which underflows to 0 while y itself does not
    "underflowed-denominator-square": ("x/y", XY, (1.0, 1e-200), "division by zero", 1),
    # the argument overflows to inf and math.sin raises a bare ValueError
    "math-domain-error": ("sin(x*1e200*1e200)", ("x",), (1.0,), "math domain error", 0),
    # nothing raises along the way: only the emitted finiteness check sees inf
    "non-finite-result": ("x*1e200*1e200", ("x",), (1.0,), "non-finite result", 0),
    # tanh saturates to a finite value, but its slope (1 - tanh^2) * inf is NaN
    "non-finite-derivative": ("2 + tanh(x*1e200*1e200)", ("x",), (1.0,),
                              "non-finite result", 1),
}


# the overflow rows keep bare evaluator ids, so their test ids stay stable
@pytest.mark.parametrize("rule, evaluator", [
    pytest.param(rule, name, id=name if rule == "overflow" else f"{name}-{rule}")
    for rule in _DOMAIN_RULES for name in _EVALUATORS])
def test_overflow_is_domain_error(rule, evaluator):
    """Every domain rule, float overflow, math domain errors and non-finite
    results included, raises a DomainError that names the expression in all
    five evaluators, never a bare OverflowError or ValueError.
    A rule of the derivative leaves the value finite: abs(0) itself is 0."""
    text, names, point, message, lowest_order = _DOMAIN_RULES[rule]
    order, evaluate = _EVALUATORS[evaluator]
    ast = parse(text, names)
    if order < lowest_order:
        assert math.isfinite(evaluate(ast, names, point))
        return
    with pytest.raises(DomainError, match=message) as info:
        evaluate(ast, names, point)
    assert f"while evaluating '{to_source(ast)}' at {point}" in str(info.value)


@pytest.mark.parametrize("k, value, slope, curvature", [
    (0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 2.0), (3.0, 0.0, 0.0, 0.0)])
def test_integer_power_jet_at_zero(k, value, slope, curvature):
    jet = eval_jet2(BinOp("^", Sym("x"), Num(k)), ("x",), (0.0,))
    assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == \
        (value, [slope], [[curvature]])


def test_negative_integer_power_at_zero_raises():
    with pytest.raises(DomainError, match="division by zero"):
        eval_jet2(parse("x^-1", ("x",)), ("x",), (0.0,))


@pytest.mark.parametrize("evaluate", [eval_jet2, eval_jet1, _compiled_jet2, _compiled_jet1,
                                      _compiled_value])
def test_infinite_literal_is_domain_error(evaluate):
    with pytest.raises(DomainError, match="non-finite result"):
        evaluate(parse("1e999*x", ("x",)), ("x",), (1.0,))


@pytest.mark.parametrize("evaluate", [eval_jet2, eval_jet1])
@pytest.mark.parametrize("values", [(3.0,), (3.0, 4.0, 5.0)], ids=["missing", "extra"])
def test_coordinate_count_must_match_names(evaluate, values):
    with pytest.raises(ValueError, match="coordinate values for the 2 coordinates"):
        evaluate(parse("x*x", XY), XY, values)


def test_nonconstant_exponent_needs_positive_base():
    ast = parse("x^y", XY)
    jet = eval_jet2(ast, XY, (2.0, 3.0))
    assert jet.value == pytest.approx(8.0)
    with pytest.raises(DomainError):
        eval_jet2(ast, XY, (-2.0, 3.0))


@pytest.mark.parametrize("text, parameters", [("x^1.5*y", None), ("y*x^a", {"a": 2.5})],
                         ids=["literal", "bound-parameter"])
def test_non_integer_constant_power_matches_finite_differences(text, parameters):
    """A constant non-integer exponent of a positive base takes the general
    power rule; a non-positive base is a DomainError."""
    ast = parse(text, XY + tuple(parameters or ()))
    point = (1.3, 0.7)
    jet = eval_jet2(ast, XY, point, parameters)
    fn = value_fn(ast, XY, parameters)

    assert jet.value == pytest.approx(1.3 ** (parameters or {"a": 1.5})["a"] * 0.7, rel=1e-15)
    assert np.allclose(jet.gradient, _fd_reference(fd_gradient, fn, point), rtol=1e-9, atol=0)
    assert np.allclose(jet.hessian, _fd_reference(fd_hessian, fn, point), rtol=1e-7, atol=1e-9)
    with pytest.raises(DomainError, match="non-integer power of non-positive base"):
        eval_jet2(ast, XY, (-1.3, 0.7), parameters)


def test_integer_power_of_negative_base():
    jet = eval_jet2(parse("x^3", ("x",)), ("x",), (-2.0,))
    assert jet.value == -8.0
    assert jet.gradient.tolist() == [12.0]
    assert jet.hessian.tolist() == [[-12.0]]


def test_hessian_exactly_symmetric():
    ast = parse("exp(x*y)*sin(x - y^2)/(1 + x^2)", XY)
    jet = eval_jet2(ast, XY, (0.4, -0.3))
    assert jet.hessian[0, 1] == jet.hessian[1, 0]


# --------------------------------------------------------------------------
# jets vs finite differences (fuzzed)
# --------------------------------------------------------------------------

_safe_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False).map(Num),
    st.sampled_from([Sym("x"), Sym("y")]),
)


def _safe_extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(children, st.sampled_from((2.0, 3.0))).map(
            lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(st.sampled_from(("sin", "cos", "sinh", "cosh", "tanh", "exp")),
                  children).map(lambda t: Call(t[0], t[1])),
        # sqrt and log on a positive argument, 0.5 + u^2
        st.tuples(st.sampled_from(("sqrt", "log")), children).map(
            lambda t: Call(t[0], BinOp("+", Num(0.5), BinOp("^", t[1], Num(2.0))))),
    )


_safe_asts = st.recursive(_safe_leaf, _safe_extend, max_leaves=10)

#: 1/(1.5625 - y) at y = 1.5, 0.0625 from its pole: one 4th-order stencil at
#: h = 1e-3 misses the gradient 256 by 2.6e-7 relative
_NEAR_POLE = BinOp("/", Num(1.0), BinOp("-", Num(1.5625), Sym("y")))


def _fd_reference(stencil, fn, point):
    """A Richardson pair of 4th-order stencils at h = 1e-3 and 5e-4: cancelling
    the h^4 term converges near a pole, where one stencil does not."""
    x = np.array(point)
    return (16.0 * stencil(fn, x, h=5e-4) - stencil(fn, x, h=1e-3)) / 15.0


@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
@example(_NEAR_POLE, 1.0, 1.5)
def test_jets_match_finite_differences(ast, x, y):
    point = (x, y)
    try:
        jet = eval_jet2(ast, XY, point)
    except DomainError:
        return
    if abs(jet.value) > 1e4 or np.abs(jet.gradient).max() > 1e4 \
            or np.abs(jet.hessian).max() > 1e4:
        return
    fn = value_fn(ast, XY)
    grad = _fd_reference(fd_gradient, fn, point)
    hess = _fd_reference(fd_hessian, fn, point)
    scale_g = 1.0 + np.abs(jet.gradient)
    scale_h = 1.0 + np.abs(jet.hessian)
    assert (np.abs(jet.gradient - grad) / scale_g).max() < 1e-7
    assert (np.abs(jet.hessian - hess) / scale_h).max() < 1e-6


# --------------------------------------------------------------------------
# jet algebra laws
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(_safe_asts, _safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
def test_product_rule_law(u_ast, v_ast, x, y):
    point = (x, y)
    try:
        u = eval_jet2(u_ast, XY, point)
        v = eval_jet2(v_ast, XY, point)
        w = eval_jet2(BinOp("*", u_ast, v_ast), XY, point)
    except DomainError:
        return
    cross = np.outer(u.gradient, v.gradient)
    assert w.value == pytest.approx(u.value * v.value, rel=1e-12, abs=1e-12)
    assert np.allclose(w.gradient, u.value * v.gradient + v.value * u.gradient,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(w.hessian,
                       u.value * v.hessian + v.value * u.hessian + cross + cross.T,
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_safe_asts, _safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6),
       st.floats(-2.0, 2.0))
def test_linearity_law(u_ast, v_ast, x, y, a):
    point = (x, y)
    combo = BinOp("+", BinOp("*", Num(a), u_ast), v_ast)
    try:
        u = eval_jet2(u_ast, XY, point)
        v = eval_jet2(v_ast, XY, point)
        w = eval_jet2(combo, XY, point)
    except DomainError:
        return
    assert w.value == pytest.approx(a * u.value + v.value, rel=1e-12, abs=1e-12)
    assert np.allclose(w.gradient, a * u.gradient + v.gradient, rtol=1e-12, atol=1e-12)
    assert np.allclose(w.hessian, a * u.hessian + v.hessian, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------
# one emitter: every order agrees with finite differences and with the others
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
@example(_NEAR_POLE, 1.0, 1.5)
def test_compiled_jet1_matches_finite_differences(ast, x, y):
    point = (x, y)
    try:
        value, gradient = compile_jet1(ast, XY)(*point)
    except DomainError:
        for evaluate in (eval_jet1, _compiled_value):
            with pytest.raises(DomainError):
                evaluate(ast, XY, point)
        return
    if not all(abs(v) <= 1e4 for v in (value, *gradient)):
        return
    value_code = compile_value(ast, XY)
    assert value_code(*point) == value
    assert eval_jet1(ast, XY, point) == (value, gradient)
    fd = _fd_reference(fd_gradient, lambda q: value_code(*q), point)
    assert (np.abs(np.array(gradient) - fd) / (1.0 + np.abs(fd))).max() < 1e-7


@settings(max_examples=150, deadline=None)
@given(_safe_asts, st.floats(0.4, 1.6), st.floats(0.4, 1.6))
def test_jet1_and_jet2_value_and_gradient_bit_identical(ast, x, y):
    point = (x, y)
    try:
        value, gradient = eval_jet1(ast, XY, point)
    except DomainError:
        with pytest.raises(DomainError):
            eval_jet2(ast, XY, point)
        return
    try:
        j2 = eval_jet2(ast, XY, point)
    except DomainError as exc:
        # the Hessian entries are the only lines jet1 does not run
        assert "non-finite result" in str(exc)
        return
    assert j2.value == value
    assert j2.gradient.tolist() == list(gradient)


#: coordinates at the edges of the functions' domains: zeros of both signs,
#: exp overflow and underflow, a subnormal, a huge value and tan's pole
_EDGE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 710.0, -745.0, 1e-320,
                                   1e200, math.pi / 2]),
                  st.floats(-5.0, 5.0, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(_asts, st.lists(st.tuples(_EDGE, _EDGE), min_size=1, max_size=5))
def test_stacked_jets_are_the_single_point_jets_or_their_first_error(ast, points):
    """eval_jet2 on an (N, 2) array equals each point's own jet to the bit,
    or raises the DomainError of the first point whose own call raises."""
    singles = []
    for point in points:
        try:
            singles.append(eval_jet2(ast, XY, point))
        except DomainError as exc:
            singles.append(exc)
    first_error = next((s for s in singles if isinstance(s, DomainError)), None)
    if first_error is not None:
        with pytest.raises(DomainError) as info:
            eval_jet2(ast, XY, np.array(points))
        assert str(info.value) == str(first_error)
        return
    stacked = eval_jet2(ast, XY, np.array(points))
    for row, jet in enumerate(singles):
        for part in ("value", "gradient", "hessian"):
            assert np.ascontiguousarray(getattr(stacked, part)[row]).tobytes() \
                == np.asarray(getattr(jet, part), dtype=float).tobytes()


@pytest.mark.parametrize("text", ["log(x)^0 + y", "sqrt(x - y)^0", "(y/(x + 1))^0 * x",
                                  "x^log(0 - 1)", "1^log(0 - 1) + x", "abs(log(x)) * y"])
def test_stacked_code_turns_no_failure_finite(text):
    """A power 0, which is 1 whatever its base, or a constant exponent takes
    a NaN from a failed step in the stacked code; the stack still raises the
    first failing point's own error rather than return a finite row."""
    ast = parse(text, XY)
    points = [(2.0, 1.0), (-1.0, 1.0)]
    errors = []
    for point in points:
        try:
            eval_jet2(ast, XY, point)
        except DomainError as exc:
            errors.append(exc)
    with pytest.raises(DomainError) as stacked:
        eval_jet2(ast, XY, np.array(points))
    assert errors and str(stacked.value) == str(errors[0])


def test_stacked_power_that_overflows_takes_each_base_alone():
    """x^200 overflows at x = 100, so the stacked power takes each base
    through the scalar power: the stack raises that point's own error, and
    the x = 1.5 column keeps its single-point bits."""
    names = ("t", "x")
    ast = parse("x^200", names)
    points = np.array([(0.0, 1.5), (0.0, 100.0)])
    with pytest.raises(DomainError) as alone:
        eval_jet2(ast, names, (0.0, 100.0))
    with pytest.raises(DomainError) as stacked:
        eval_jet2(ast, names, points)
    assert str(stacked.value) == str(alone.value)
    jet = eval_jet2(ast, names, (0.0, 1.5))
    single = np.concatenate([[jet.value], jet.gradient, jet.hessian.ravel()])
    assert eval_block(2, (ast,), names, points)[:, 0].tobytes() == single.tobytes()


def test_equal_asts_share_compiled_code():
    """A re-parsed equal expression hits the cache, and so does a new value
    of a parameter the expression does not reference."""
    _cached_code.cache_clear()
    eval_jet2(parse("x*sin(y)", XY), XY, (0.3, 0.4), {"M": 1.0})
    jet = eval_jet2(parse("x*sin(y)", XY), XY, (0.5, 0.6), {"M": 2.0})
    info = _cached_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert jet.value == 0.5 * math.sin(0.6)


def test_compile_shares_the_evaluator_cache():
    """compile_jet1 and compile_value take their code from the same cache,
    keyed by the parameter names: a second model with equal components and
    another mass reuses the first one's code, bound to its own values."""
    _cached_code.cache_clear()
    ast = parse("1 - 2*M/r", ("r", "M"))
    first = compile_jet1(ast, ("r",), {"M": 1.0, "a": 0.0})
    second = compile_jet1(parse("1 - 2*M/r", ("r", "M")), ("r",), {"M": 2.0, "a": 5.0})
    assert (first(4.0), second(4.0)) == ((0.5, (0.125,)), (0.0, (0.25,)))
    compile_jet1(ast, ("r",), {"M": 2.0})
    compile_value(ast, ("r",), {"M": 1.0})
    assert eval_jet1(ast, ("r",), (4.0,), {"M": 1.0})[1] == first(4.0)[1]
    info = _cached_code.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_fused_jets_bit_identical_and_name_the_failing_expression():
    """compile_jet1 on a tuple returns each expression's value and gradient
    in order, bit-identical to compile_jet1 on each, and a DomainError names
    the expression that failed, not the first one."""
    texts = ("x*sin(y) + M", "2", "log(y)", "x/(1 + y^2)")
    asts = tuple(parse(t, ("x", "y", "M")) for t in texts)
    fused = compile_jet1(asts, XY, {"M": 0.5})
    flat = fused(0.7, 1.3)
    assert len(flat) == 3 * len(asts)
    for k, ast in enumerate(asts):
        value, gradient = compile_jet1(ast, XY, {"M": 0.5})(0.7, 1.3)
        assert flat[3 * k:3 * k + 3] == (value, *gradient)
    with pytest.raises(DomainError, match=r"'log\(y\)' at \(0\.7, -1\.0\)"):
        fused(0.7, -1.0)
    misses = _cached_code.cache_info().misses
    reparsed = compile_jet1(tuple(parse(t, ("x", "y", "M")) for t in texts), XY, {"M": 0.5})
    assert reparsed(0.7, 1.3) == flat and _cached_code.cache_info().misses == misses


_FUSED_TEXTS = ("x*sin(y) + M", "2", "y^3/(1 + x^2)", "exp(x*y)", "x")


@pytest.mark.parametrize("point", [(0.7, 1.3), (-0.4, 0.25), (2.0, -1.5)])
def test_fused_sets_at_orders_0_and_2_bit_identical(point):
    """A fused set at order 0 returns each expression's value, and at order 2
    its value, gradient and row-major Hessian, bit-identical to the
    per-expression code."""
    asts = tuple(parse(t, ("x", "y", "M")) for t in _FUSED_TEXTS)
    values = compile_value(asts, XY, {"M": 0.5})(*point)
    jets = compile_jet2(asts, XY, {"M": 0.5})(*point)
    assert len(values) == len(asts) and len(jets) == 7 * len(asts)
    for k, ast in enumerate(asts):
        assert values[k] == compile_value(ast, XY, {"M": 0.5})(*point)
        value, gradient, hessian = compile_jet2(ast, XY, {"M": 0.5})(*point)
        assert jets[7 * k:7 * k + 7] == (value, *gradient, *hessian)
        jet = eval_jet2(ast, XY, point, {"M": 0.5})
        assert jets[7 * k:7 * k + 7] == (jet.value, *jet.gradient, *jet.hessian.ravel())


@pytest.mark.parametrize("compile_fn", [compile_value, compile_jet1, compile_jet2])
@pytest.mark.parametrize("failing, point, message", [
    ("log(y)", (0.7, -1.0), "log of non-positive value"),
    ("x*1e200*1e200", (0.7, 1.0), "non-finite result"),
    ("sin(x*1e200*1e200)", (0.7, 1.0), "math domain error"),
])
def test_fused_sets_name_the_failing_member(compile_fn, failing, point, message):
    """Every order's fused set names the member that failed and the point,
    whether a checked domain, a math domain error or the emitted finiteness
    check stops it."""
    asts = (parse("x + y", XY), parse(failing, XY), parse("x*y", XY))
    with pytest.raises(DomainError, match=message) as info:
        compile_fn(asts, XY)(*point)
    assert str(info.value).endswith(f" while evaluating '{to_source(asts[1])}' at {point}")


_CACHED_TEXT = "2*M/r - 1 + sin(theta)^2*exp(-r)"
_CACHED_NAMES = ("r", "theta", "M")


def test_reparsed_nodes_hash_equal_and_share_code():
    """Each node caches its hash on first use; equal re-parses still hash
    equal and share one compiled function, and values still distinguish."""
    _cached_code.cache_clear()
    first = parse(_CACHED_TEXT, _CACHED_NAMES)
    hash(first)
    second = parse(_CACHED_TEXT, _CACHED_NAMES)
    assert first == second and hash(first) == hash(second)
    assert compile_jet1(first, ("r", "theta"), {"M": 1.0})(3.0, 0.5) == \
        compile_jet1(second, ("r", "theta"), {"M": 1.0})(3.0, 0.5)
    info = _cached_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert Num(1.0) != Num(2.0)
    assert symbols_in(first) == {"r", "theta", "M"}
    assert symbols_in(first) is symbols_in(first)


def test_nodes_stay_frozen():
    node = parse(_CACHED_TEXT, _CACHED_NAMES)
    hash(node)
    for target, name in ((node, "left"), (Num(1.0), "value"), (Sym("r"), "name")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, Num(0.0))


def test_replaced_and_unpickled_nodes_match_a_fresh_parse():
    node = parse(_CACHED_TEXT, _CACHED_NAMES)
    hash(node)
    symbols_in(node)
    fresh = parse(_CACHED_TEXT, _CACHED_NAMES)
    copies = (dataclasses.replace(node), pickle.loads(pickle.dumps(node)))
    for copy in copies:
        assert copy == fresh and hash(copy) == hash(fresh)
        assert symbols_in(copy) == symbols_in(fresh)
    changed = dataclasses.replace(node, op="-")
    assert changed != fresh and hash(changed) == hash(parse(to_source(changed), _CACHED_NAMES))


def test_cached_hash_does_not_outlive_its_process():
    """A node pickled in a process with another str-hash seed hashes like a
    node parsed here: the cached hash is not part of the pickle."""
    script = ("import pickle, sys; from stconvex.expressions import parse; "
              f"node = parse({_CACHED_TEXT!r}, {_CACHED_NAMES!r}); hash(node); "
              "sys.stdout.buffer.write(pickle.dumps(node))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    data = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    node = pickle.loads(data)
    fresh = parse(_CACHED_TEXT, _CACHED_NAMES)
    assert node == fresh and hash(node) == hash(fresh)
    assert {node: 1}[fresh] == 1


def test_compiled_code_cache_is_bounded():
    for k in range(1000):
        ast = parse(f"M*x + {k}", ("x", "M"))
        assert compile_value(ast, ("x",), {"M": 0.5})(2.0) == 1.0 + k
    info = _cached_code.cache_info()
    assert info.currsize == info.maxsize


def test_compiled_parameters_bind_as_arguments():
    """The shared code takes the AST, its literal values and the parameter
    values before the coordinates, and compile_jet1 returns it bound to the
    values it was given."""
    ast = parse("2*M/r", ("r", "M"))
    fn = compile_jet1(ast, ("r",), {"M": 1.5})
    value, gradient = fn(2.0)
    assert value == 1.5
    assert gradient[0] == pytest.approx(-0.75)
    unbound = fn.func(*fn.args[:-1], 3.0, 2.0)
    assert unbound == compile_jet1(ast, ("r",), {"M": 3.0})(2.0) == (3.0, (-1.5,))


def _flat_bits(result):
    """float.hex of every float in a nested tuple, so that -0.0 is not 0.0."""
    if isinstance(result, tuple):
        return [bits for item in result for bits in _flat_bits(item)]
    return [float(result).hex()]


@pytest.mark.parametrize("seed", [1801, 1802, 1803])
@pytest.mark.parametrize("chart", ["schwarzschild-exterior", "schwarzschild-interior"])
def test_parameters_as_arguments_equal_substituted_literals(chart, seed):
    """Code that takes M as an argument gives, to the bit, what the same text
    with repr(M) written in for M gives: CPython folds literal arithmetic
    with the IEEE result that it computes at run time."""
    model = builtin_models().model(chart)
    names, d = model.coordinate_names, model.dimension
    rng = np.random.default_rng(seed)
    m = float(rng.uniform(0.5, 2.0))
    asts = tuple(dict.fromkeys(model.components[i][j] for i in range(d) for j in range(i, d)))
    asts += model.singular_loci
    literal = tuple(parse(re.sub(r"\bM\b", repr(m), to_source(a)), names) for a in asts)
    lo, hi = np.array(model.sample_box).T
    points = lo + (hi - lo) * rng.random((16, d))
    points[:, 1] *= m  # the box is for M = 1
    for compile_fn in (compile_value, compile_jet1, compile_jet2):
        for ast, written in zip(asts + (asts,), literal + (literal,)):
            with_m, with_repr = compile_fn(ast, names, {"M": m}), compile_fn(written, names)
            for point in points.tolist():
                assert _flat_bits(with_m(*point)) == _flat_bits(with_repr(*point))
    for order in (0, 1, 2):
        assert eval_block(order, asts, names, points, {"M": m}).tobytes() == \
            eval_block(order, literal, names, points).tobytes()


def test_jet1_matches_jet2_first_order():
    ast = parse("sin(x)*exp(y) + x/(1+y^2)", XY)
    value, gradient = eval_jet1(ast, XY, (0.7, -0.4))
    j2 = eval_jet2(ast, XY, (0.7, -0.4))
    assert value == pytest.approx(j2.value, rel=1e-15)
    assert np.allclose(gradient, j2.gradient, rtol=1e-15)


def test_abs_kink_rejected():
    with pytest.raises(DomainError):
        eval_jet2(parse("abs(x)", ("x",)), ("x",), (0.0,))
    jet = eval_jet2(parse("abs(x)", ("x",)), ("x",), (-2.0,))
    assert jet.value == 2.0
    assert jet.gradient.tolist() == [-1.0]


#: function -> (argument, value, first and second derivative in closed form)
_CLOSED_FORMS = {
    "sin": (0.3, math.sin(0.3), math.cos(0.3), -math.sin(0.3)),
    "cos": (0.3, math.cos(0.3), -math.sin(0.3), -math.cos(0.3)),
    "tan": (0.3, math.tan(0.3), 1.0 / math.cos(0.3) ** 2,
            2.0 * math.sin(0.3) / math.cos(0.3) ** 3),
    "sinh": (0.3, math.sinh(0.3), math.cosh(0.3), math.sinh(0.3)),
    "cosh": (0.3, math.cosh(0.3), math.sinh(0.3), math.cosh(0.3)),
    "tanh": (0.3, math.tanh(0.3), 1.0 / math.cosh(0.3) ** 2,
             -2.0 * math.sinh(0.3) / math.cosh(0.3) ** 3),
    "exp": (0.3, math.exp(0.3), math.exp(0.3), math.exp(0.3)),
    "log": (2.0, math.log(2.0), 0.5, -0.25),
    "sqrt": (4.0, 2.0, 0.25, -1.0 / 32.0),
    "abs": (-2.0, 2.0, -1.0, 0.0),
}


@pytest.mark.parametrize("func", FUNCTIONS)
def test_function_jet_closed_form(func):
    arg, value, slope, curvature = _CLOSED_FORMS[func]
    jet = eval_jet2(Call(func, Sym("x")), ("x",), (arg,))
    assert jet.value == pytest.approx(value, rel=1e-14)
    assert jet.gradient[0] == pytest.approx(slope, rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(curvature, rel=1e-14, abs=0.0)


def test_tan_derivatives():
    jet = eval_jet2(parse("tan(x)", ("x",)), ("x",), (0.3,))
    t = math.tan(0.3)
    assert jet.gradient[0] == pytest.approx(1 + t * t, rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(2 * t * (1 + t * t), rel=1e-13)


# --------------------------------------------------------------------------
# literals bound to shared code
# --------------------------------------------------------------------------

def test_signed_zero_literals_are_distinct_keys():
    """0.0 and -0.0 compare and hash equal as floats, so a cache keyed by the
    AST handed -0.0*x the code of a 0.0*x compiled before it."""
    x = Sym("x")
    assert compile_value(BinOp("*", Num(0.0), x), ("x",))(2.0).hex() == "0x0.0p+0"
    assert compile_value(BinOp("*", Num(-0.0), x), ("x",))(2.0).hex() == "-0x0.0p+0"
    assert Num(0.0) != Num(-0.0) and Num(0.0) == Num(0.0) and Num(-0.0) == Num(-0.0)
    assert Num(0.0).__eq__(x) is NotImplemented and Num(0.0) != x
    assert parse("-0.0*x", ("x",)) == BinOp("*", Neg(Num(0.0)), x)  # the parser makes no -0.0


#: the three certify fields, each written with alpha as a literal
_ALPHA_FIELDS = {
    "canonical": ("minkowski-cartesian", lambda a: canonical_field(a)),
    "canonical-spherical": ("minkowski-spherical", lambda a: canonical_field_spherical(a)),
    "milne": ("milne", lambda a: ScalarField.from_text(
        f"0.5*tau^2*(sinh(chi)^2 - {a!r}*cosh(chi)^2)", ("tau", "chi", "theta", "phi"))),
}


def _alpha_field_digests(name, alpha):
    """Digests of a field's jets of orders 0-2 at four seeded points of its
    chart's box: (the single-point entry points, stacked eval_jet2, eval_block)."""
    chart, make = _ALPHA_FIELDS[name]
    model = builtin_models().model(chart)
    ast, names = make(alpha).ast, model.coordinate_names
    lo, hi = np.array(model.sample_box).T
    points = lo + (hi - lo) * np.random.default_rng(2001).random((4, len(names)))
    single = []
    for point in points.tolist():
        single += [compile_value(ast, names)(*point), compile_jet1(ast, names)(*point),
                   compile_jet2(ast, names)(*point), eval_jet1(ast, names, point)]
        jet = eval_jet2(ast, names, point)
        single += [jet.value, jet.gradient, jet.hessian]
    stacked = eval_jet2(ast, names, points)
    blocks = [eval_block(order, (ast,), names, points) for order in (0, 1, 2)]
    return (bits_digest(single), bits_digest([stacked.value, stacked.gradient,
                                                 stacked.hessian]), bits_digest(blocks))


#: _alpha_field_digests as computed when alpha was written into the code as
#: a literal that CPython folds (x86-64 Linux, glibc 2.36)
_ALPHA_FIELD_BITS = {
    ('canonical', 0.3): ('c3d9dd68aa597002', 'dd0d92c733100ef4', 'eb6249a85595e6f0'),
    ('canonical', 0.95): ('acf5a6fa5d5c6223', 'db00f33c9e9b1d2c', '49c59b6909f36bde'),
    ('canonical', 1.25): ('83269ef9e20ee5c8', '1858e517f63caeef', '1e62f7a9321ac6ac'),
    ('canonical-spherical', 0.3): ('e1da07e33f61b711', '45dcdfbc062fda76', '19da4e0cf9a1e936'),
    ('canonical-spherical', 0.95): ('4d5944173eaffb94', 'c261341847eb065a', '46a17cd23685e9b7'),
    ('canonical-spherical', 1.25): ('4e24d047bf2f1429', '4f83363666a735d9', '29dba41d3c409357'),
    ('milne', 0.3): ('afe59e00e4f241a2', 'e724a8715fc3ca2f', '3f9dd45a9f2ec027'),
    ('milne', 0.95): ('542ce63c3d087ab1', 'c28b7cafcf488644', 'cf5fca83209bc5fc'),
    ('milne', 1.25): ('6d083dc5faad7a98', '0b30866f01aab6de', 'a4acfcddd8268647'),
}


@pytest.mark.parametrize("name, alpha", _ALPHA_FIELD_BITS.keys(),
                         ids=[f"{name}-{alpha}" for name, alpha in _ALPHA_FIELD_BITS])
def test_literals_bound_as_arguments_keep_the_folded_literal_bits(name, alpha):
    """Literal values bound to shared code give, to the bit, the jets of code
    with the literals written in, single, stacked and from eval_block."""
    assert _alpha_field_digests(name, alpha) == _ALPHA_FIELD_BITS[name, alpha]
