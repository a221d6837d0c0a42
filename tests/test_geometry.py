"""Metric evaluation, Christoffels, covariant Hessians, causal classification."""

import gc
import re
from dataclasses import replace

import numpy as np
import pytest

from stconvex import (NullGradient, Point, SingularMetric, TangentVector, UnknownSymbol,
                      VectorClass, WrongSignature, builtin_models,
                      canonical_field, canonical_field_spherical,
                      classify_vector, covariant_hessian, eval_metric,
                      level_set_frame, null_expansions)
from stconvex.expressions import eval_jet2
from stconvex import DomainError, geometry
from stconvex import expressions as ex
from stconvex.expressions import compile_jet1, to_source
from stconvex.convexity import PSD_TOLERANCE
from stconvex.geometry import SpacetimeModel, christoffels_from, geodesic_acceleration

from conftest import (bits_digest, fd_christoffels, fd_gradient, fd_hessian,
                      fd_metric_derivatives, flat_chart, random_lorentzian,
                      random_point_in, spherical_to_cartesian, value_fn)

CAT = builtin_models()
MINK = CAT.model("minkowski-cartesian")
MINK_SPH = CAT.model("minkowski-spherical")
SCHW = CAT.model("schwarzschild-exterior")
SCHW_IN = CAT.model("schwarzschild-interior")
MILNE = CAT.model("milne")
ALL_MODELS = (MINK, MINK_SPH, SCHW, SCHW_IN, MILNE)


def test_minkowski_constant_metric():
    m = eval_metric(MINK, Point((0.3, -1.0, 2.0, 0.5)))
    assert np.array_equal(m.g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert not m.christoffels.any()
    assert np.array_equal(m.g_inverse, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_schwarzschild_at_r4():
    m = eval_metric(SCHW, Point((0.0, 4.0, 1.2, 0.3)))
    assert m.g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert m.g[1, 1] == pytest.approx(2.0, abs=1e-15)
    assert m.christoffels[1, 0, 0] == pytest.approx(0.03125, abs=1e-15)


def test_horizon_is_singular():
    with pytest.raises(SingularMetric):
        eval_metric(SCHW, Point((0.0, 2.0, 1.2, 0.3)))


def test_locus_guard_width():
    with pytest.raises(SingularMetric):
        eval_metric(SCHW, Point((0.0, 2.0 + 5e-7, 1.2, 0.3)))
    eval_metric(SCHW, Point((0.0, 2.001, 1.2, 0.3)))  # past the guard: fine


@pytest.mark.parametrize("component", ["2 + tanh(x*1e200*1e200)", "x*1e200*1e200"],
                         ids=["nan-derivative", "infinite-value"])
@pytest.mark.parametrize("checks", [True, False])
def test_non_finite_metric_data_is_domain_error(component, checks):
    """tanh saturates, so g_xx is a finite 3 while its derivative is NaN; the
    compiled components reject both that and an infinite g_xx, so metric_at
    raises a DomainError naming the model, the component and the point and
    never hands NaN on to the connection."""
    model = SpacetimeModel.from_components(
        name="inline", coordinate_names=("t", "x"), components={(0, 0): "-1", (1, 1): component})
    with pytest.raises(DomainError) as info:
        geometry.evaluator_for(model).metric_at(Point((0.0, 1.0)), checks=checks)
    source = to_source(model.components[1][1])
    assert str(info.value) == (f"non-finite result while evaluating '{source}' at (0.0, 1.0) "
                               "[metric of 'inline' at (0.0, 1.0)]")


def test_guard_evaluates_every_locus_before_comparing():
    """The loci run as one fused set: at x = 0 the first locus is inside the
    guard, but the second, log(x), is evaluated before any comparison and
    raises."""
    model = SpacetimeModel.from_components(
        name="inline", coordinate_names=("t", "x"), components={(0, 0): "-1", (1, 1): "1"},
        singular_loci=("x", "log(x)"))
    with pytest.raises(DomainError, match=r"while evaluating 'log\(x\)' at \(0\.0, 0\.0\)"):
        eval_metric(model, Point((0.0, 0.0)))
    with pytest.raises(SingularMetric, match="singular locus x = 0"):
        eval_metric(model, Point((0.0, 1e-7)))


def test_wrong_signature_rejected():
    riemannian = SpacetimeModel.from_components(
        name="euclidean", coordinate_names=("t", "x"),
        components={(0, 0): "1", (1, 1): "1"})
    with pytest.raises(WrongSignature,
                       match=r"\(0 negative, 0 zero, 2 positive\) is not Lorentzian"):
        eval_metric(riemannian, Point((0.0, 0.0)))


def test_degenerate_determinant_rejected():
    degenerate = SpacetimeModel.from_components(
        name="degenerate", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "0.0"})
    # the zero eigenvalue also breaks the signature: the condition cap fires first
    with pytest.raises(SingularMetric, match=r"condition estimate inf exceeds 1e\+12"):
        eval_metric(degenerate, Point((0.0, 0.0)))


def test_condition_cap_rejected():
    stiff = SpacetimeModel.from_components(
        name="stiff", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "1e13"})
    with pytest.raises(SingularMetric, match=r"condition estimate 1\.000e\+13 exceeds 1e\+12"):
        eval_metric(stiff, Point((0.0, 0.0)))


def test_condition_cap_and_zero_eigenvalue_rule_agree():
    """A metric within the condition cap has no zero eigenvalue, at any scale:
    s * diag(-1, k) with k at and next to the cap is either accepted as
    Lorentzian or refused as singular, never as of the wrong signature."""
    refused = []
    for scale in (1e-9, 1.0, 3.7e5):
        for k in (float(np.nextafter(1e12, 0.0)), 1e12, float(np.nextafter(1e12, np.inf))):
            model = SpacetimeModel.from_components(
                name="edge", coordinate_names=("t", "x"),
                components={(0, 0): repr(-scale), (1, 1): repr(scale * k)})
            try:
                eval_metric(model, Point((0.0, 0.0)))
            except SingularMetric:
                refused.append((scale, k))
    assert [k for scale, k in refused if scale == 1.0] == [1e12, np.nextafter(1e12, np.inf)]


def test_inverse_is_inverse():
    m = eval_metric(SCHW, Point((0.0, 3.7, 0.9, 2.0)))
    assert np.abs(m.g @ m.g_inverse - np.eye(4)).max() < 1e-12


def test_christoffels_exactly_symmetric(rng):
    for model in ALL_MODELS:
        for _ in range(5):
            p = Point(random_point_in(model.sample_box, rng))
            gamma = eval_metric(model, p).christoffels
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffels_symmetric_on_fuzzed_metrics(rng):
    """Diagonally dominant Lorentzian metrics with random expression entries."""
    waves = ("sin(t + x)", "cos(x*y)", "sinh(y - z)", "cos(t)*sin(z)",
             "exp(0.3*x)", "tanh(t*z)")
    for trial in range(6):
        picks = rng.choice(len(waves), size=7)
        components = {
            (0, 0): f"-(2 + 0.3*({waves[picks[0]]}))",
            (1, 1): f"2 + 0.3*({waves[picks[1]]})",
            (2, 2): f"2 + 0.3*({waves[picks[2]]})",
            (3, 3): f"2 + 0.3*({waves[picks[3]]})",
            (0, 1): f"0.1*({waves[picks[4]]})",
            (1, 2): f"0.1*({waves[picks[5]]})",
            (2, 3): f"0.1*({waves[picks[6]]})",
        }
        model = SpacetimeModel.from_components(
            name=f"fuzz{trial}", coordinate_names=("t", "x", "y", "z"),
            components=components)
        for _ in range(3):
            p = Point(rng.uniform(-2.0, 2.0, 4))
            gamma = eval_metric(model, p).christoffels
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def einsum_christoffels(g_inverse, dg):
    """The three-einsum formula, kept as the reference for christoffels_from."""
    term1 = np.einsum("ms,nsr->mnr", g_inverse, dg)
    term2 = np.einsum("ms,rsn->mnr", g_inverse, dg)
    term3 = np.einsum("ms,snr->mnr", g_inverse, dg)
    return 0.5 * (term1 + term2 - term3)


def test_christoffels_from_matches_einsum_reference(rng):
    """On non-diagonal Lorentzian g and random symmetric dg, unlike every
    catalog chart."""
    for d in (2, 3, 4, 5):
        for _ in range(50):
            g = random_lorentzian(rng, d)
            dg = rng.normal(size=(d, d, d))
            dg = dg + dg.transpose(0, 2, 1)
            ginv, gamma = geometry._inverse_and_christoffels(g, dg, ())
            expected = einsum_christoffels(ginv, dg)
            assert np.abs(gamma - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))
            assert np.abs(g @ ginv - np.eye(d)).max() < 1e-12


def list_sign_counts(eigenvalues, tol):
    """The per-row pure-Python reference of _sign_counts: zero means
    |lambda| <= tol * max |lambda|."""
    bound = tol * max(map(abs, eigenvalues))
    negative = sum(e < -bound for e in eigenvalues)
    zero = sum(abs(e) <= bound for e in eigenvalues)
    return negative, zero, len(eigenvalues) - negative - zero


@pytest.mark.parametrize("tol", [geometry.SIGNATURE_TOL, PSD_TOLERANCE, 1e-3])
def test_sign_counts_match_the_array_version(rng, tol):
    """The array rule equals the per-row reference on values on, just inside
    and just outside the zero band of the largest |value|, at sizes from
    1e-12 to 1e12, as 1-D input, as the rows of (N, d) input, and on all-zero
    rows."""
    for d in range(1, 7):
        rows = []
        for _ in range(50):
            largest = 10.0 ** rng.uniform(-12.0, 12.0)
            bound = tol * largest
            edges = [bound, -bound, 0.0, -0.0, np.nextafter(bound, np.inf),
                     np.nextafter(bound, 0.0), np.nextafter(-bound, -np.inf),
                     np.nextafter(-bound, 0.0)]
            pool = np.concatenate((edges, rng.normal(scale=10.0 * bound, size=4)))
            values = rng.choice(pool, size=d)
            if rng.random() < 0.9:
                values[rng.integers(d)] = rng.choice([largest, -largest])
            rows.append(values)
        rows.append(np.zeros(d))
        rows.append(np.array([0.0, -0.0] * d)[:d])
        block = np.array(rows)
        expected = [list_sign_counts(row.tolist(), tol) for row in block]
        assert [tuple(map(int, geometry._sign_counts(row, tol))) for row in block] == expected
        counts = geometry._sign_counts(block, tol)
        assert all(c.shape == (len(rows),) for c in counts)
        assert list(zip(*(c.tolist() for c in counts))) == expected
    assert geometry._sign_counts(np.array([0.0, -0.0, 0.0]), tol) == (0, 3, 0)


def test_metric_compatibility(rng):
    """d_lam g_{mu nu} - Gamma^s_{lam mu} g_{s nu} - Gamma^s_{lam nu} g_{mu s} = 0."""
    for model in ALL_MODELS:
        for _ in range(4):
            p = Point(random_point_in(model.sample_box, rng))
            m = eval_metric(model, p)
            nabla_g = m.first_derivatives \
                - np.einsum("slm,sn->lmn", m.christoffels, m.g) \
                - np.einsum("sln,ms->lmn", m.christoffels, m.g)
            assert np.abs(nabla_g).max() < 1e-9


def test_ad_vs_fd_christoffels(rng):
    for model in ALL_MODELS:
        for _ in range(3):
            x = np.array(random_point_in(model.sample_box, rng))
            exact = eval_metric(model, Point(x)).christoffels
            approx = fd_christoffels(model, x)
            err = np.abs(exact - approx) / (1.0 + np.abs(exact))
            assert err.max() < 1e-6


def test_ad_vs_fd_metric_derivatives(rng):
    for model in (SCHW, MILNE):
        x = np.array(random_point_in(model.sample_box, rng))
        exact = eval_metric(model, Point(x)).first_derivatives
        approx = fd_metric_derivatives(model, x)
        assert np.abs(exact - approx).max() < 1e-8


# --------------------------------------------------------------------------
# covariant Hessian
# --------------------------------------------------------------------------

def test_hessian_canonical_flat():
    f = canonical_field(1.0)
    for coords in ((0.0, 0.0, 0.0, 0.0), (2.0, 1.0, -0.5, 0.3)):
        h = covariant_hessian(f, MINK, Point(coords))
        assert np.array_equal(h, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_hessian_constant_field():
    f = MINK.field("4.25")
    assert not covariant_hessian(f, MINK, Point((0, 1, 2, 3))).any()


def test_hessian_radial_schwarzschild():
    f = SCHW.field("r")
    h = covariant_hessian(f, SCHW, Point((0.0, 4.0, 1.2, 0.3)))
    assert h[0, 0] == pytest.approx(-0.03125, abs=1e-15)


def test_hessian_symmetric_exactly():
    f = SCHW.field("r^2*sin(theta) + t*r")
    h = covariant_hessian(f, SCHW, Point((0.4, 5.0, 1.0, 2.0)))
    assert np.array_equal(h, h.T)


def test_hessian_vs_finite_differences(rng):
    """Coordinate second partials from FD plus Christoffel correction."""
    fields = {
        MINK: canonical_field(0.7),
        SCHW: SCHW.field("r^2 + t^2/(1 + r)"),
        MILNE: MILNE.field("-0.5*tau^2 + sinh(chi)"),
    }
    for model, f in fields.items():
        x = np.array(random_point_in(model.sample_box, rng))
        fn = value_fn(f.ast, model.coordinate_names, model.parameters)
        gamma = eval_metric(model, Point(x)).christoffels
        fd = fd_hessian(fn, x) - np.einsum("l,lmn->mn", fd_gradient(fn, x), gamma)
        exact = covariant_hessian(f, model, Point(x))
        err = np.abs(exact - fd) / (1.0 + np.abs(exact))
        assert err.max() < 1e-6


def test_scalar_invariance_across_charts(rng):
    """V^mu V^nu Hess_{mu nu} f agrees between Cartesian and spherical charts."""
    f_cart = canonical_field(0.8)
    f_sph = canonical_field_spherical(0.8)
    for _ in range(6):
        p_sph = random_point_in(MINK_SPH.sample_box, rng)
        p_cart, jac = spherical_to_cartesian(p_sph)
        v_sph = rng.uniform(-1.0, 1.0, 4)
        v_cart = jac @ v_sph
        h_sph = covariant_hessian(f_sph, MINK_SPH, Point(p_sph))
        h_cart = covariant_hessian(f_cart, MINK, Point(p_cart))
        lhs = v_sph @ h_sph @ v_sph
        rhs = v_cart @ h_cart @ v_cart
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --------------------------------------------------------------------------
# classification and the gradient invariant
# --------------------------------------------------------------------------

def test_classify_examples():
    p = Point((0.0, 0.0, 0.0, 0.0))
    m = eval_metric(MINK, p)
    assert classify_vector(m, TangentVector((1, 0, 0, 0), p)) is VectorClass.TIMELIKE
    assert classify_vector(m, TangentVector((1, 1, 0, 0), p)) is VectorClass.NULL
    assert classify_vector(m, TangentVector((0, 1, 0, 0), p)) is VectorClass.SPACELIKE


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1.0, 1e6])
@pytest.mark.parametrize("components, expected", [
    ((1.0, 0.5, 0.0, 0.0), VectorClass.TIMELIKE),
    ((1.0, 1.0, 0.0, 0.0), VectorClass.NULL),
    ((0.5, 1.0, 0.0, 0.0), VectorClass.SPACELIKE),
], ids=["timelike", "null", "spacelike"])
def test_classify_does_not_depend_on_the_scale_of_v(scale, components, expected):
    """The null test is relative to |V| |gV|: (1e-6, 5e-7, 0, 0) is timelike,
    as (1, 0.5, 0, 0) is, though |g(V, V)| = 7.5e-13."""
    p = Point((0.0, 0.0, 0.0, 0.0))
    v = TangentVector(tuple(scale * c for c in components), p)
    assert classify_vector(eval_metric(MINK, p), v) is expected


def test_classify_requires_matching_base():
    p = Point((0.0, 0.0, 0.0, 0.0))
    m = eval_metric(MINK, p)
    stray = TangentVector((1, 0, 0, 0), Point((1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        classify_vector(m, stray)


def test_gradient_invariant_canonical():
    f = canonical_field(1.0)
    frame = level_set_frame(f, MINK, Point((2.0, 0.0, 0.0, 0.0)))
    assert frame.epsilon == -1
    assert frame.norm == pytest.approx(2.0, abs=1e-15)


def test_gradient_invariant_spacelike():
    frame = level_set_frame(MINK.field("x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))
    assert frame.epsilon == 1
    assert frame.norm == pytest.approx(1.0, abs=1e-15)


def test_gradient_invariant_null_raises():
    with pytest.raises(NullGradient):
        level_set_frame(MINK.field("t - x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))


def test_field_jet_matches_eval_jet2():
    f = SCHW.field("2*M/r")
    jet = eval_jet2(f.ast, SCHW.coordinate_names, (0.0, 4.0, 1.0, 1.0), SCHW.parameters)
    assert jet.value == 0.5


def test_with_parameters():
    heavy = SCHW.with_parameters(M=2.0)
    m = eval_metric(heavy, Point((0.0, 8.0, 1.2, 0.3)))
    assert m.g[0, 0] == pytest.approx(-0.5, abs=1e-15)
    assert SCHW.parameters["M"] == 1.0  # original untouched


def test_evaluator_cache_frees_dropped_models():
    """Cached evaluators must not keep their model (the weak key) alive."""
    gc.collect()
    before = len(geometry._EVALUATORS)
    models = [CAT.model("schwarzschild-interior", M=1.5 + 0.01 * i) for i in range(20)]
    for model in models:
        eval_metric(model, Point((0.0, 1.0, 1.2, 0.3)))
    assert len(geometry._EVALUATORS) == before + len(models)
    del models, model
    gc.collect()
    assert len(geometry._EVALUATORS) == before


# --------------------------------------------------------------------------
# geodesic acceleration, fused components, lazy connection
# --------------------------------------------------------------------------

#: a chart with off-diagonal components, so the fused scatter is exercised
#: beyond the diagonal catalog charts
TILTED = SpacetimeModel.from_components(
    name="tilted", coordinate_names=("t", "x", "y", "z"),
    components={(0, 0): "-(2 + 0.3*sin(t + x))", (1, 1): "2 + 0.3*cos(x*y)",
                (2, 2): "2 + 0.3*exp(0.1*z)", (3, 3): "2", (0, 1): "0.1*sin(y)",
                (1, 2): "0.1*cos(t*z)", (2, 3): "0.1*x"},
    sample_box=((-1.0, 1.0),) * 4)


def test_geodesic_acceleration_matches_christoffels(rng):
    for model in ALL_MODELS + (TILTED,):
        evaluator = geometry.evaluator_for(model)
        for _ in range(5):
            g, dg = evaluator.components(random_point_in(model.sample_box, rng))
            v = rng.normal(size=4)
            expected = -np.einsum("mnr,n,r->m", christoffels_from(np.linalg.inv(g), dg), v, v)
            got = geodesic_acceleration(g, dg, v)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_geodesic_acceleration_singular_metric():
    with pytest.raises(SingularMetric):
        geodesic_acceleration(np.diag([-1.0, 0.0]), np.zeros((2, 2, 2)), np.ones(2))


def test_fused_components_bit_identical_to_per_slot_compile(rng):
    for model in ALL_MODELS + (TILTED,):
        evaluator = geometry.evaluator_for(model)
        names, params = model.coordinate_names, model.parameters
        for _ in range(5):
            coords = random_point_in(model.sample_box, rng)
            g, dg = evaluator.components(coords)
            for i in range(4):
                for j in range(4):
                    value, gradient = compile_jet1(model.components[i][j], names,
                                                   params)(*coords)
                    assert g[i, j] == value
                    assert dg[:, i, j].tolist() == list(gradient)


def test_fused_components_domain_error_names_model_and_point():
    model = SpacetimeModel.from_components(
        name="log-chart", coordinate_names=("t", "x", "y", "z"),
        components={(0, 0): "-1", (1, 1): "1 + x^2", (2, 2): "log(y)", (3, 3): "1"})
    coords = (0.0, 0.5, -1.0, 0.0)
    with pytest.raises(DomainError) as info:
        geometry.evaluator_for(model).components(coords)
    message = str(info.value)
    assert "'log(y)'" in message and "1 + x" not in message
    assert "'log-chart'" in message and str(coords) in message


SINGULAR_TX = SpacetimeModel.from_components(
    name="singular-tx", coordinate_names=("t", "x"),
    components={(0, 0): "-1", (1, 1): "0*x"})


def test_unchecked_metric_at_defers_the_singular_solve():
    m = geometry.evaluator_for(SINGULAR_TX).metric_at(Point((0.0, 1.0)), checks=False)
    assert m.g[1, 1] == 0.0
    for _ in range(2):  # an error is not cached as a result
        with pytest.raises(SingularMetric, match="metric is singular"):
            m.g_inverse
        with pytest.raises(SingularMetric, match="metric is singular"):
            m.christoffels


def test_connection_built_once_and_shared():
    m = eval_metric(SCHW, Point((0.0, 3.7, 0.9, 2.0)))
    assert m._connection is None
    gamma = m.christoffels
    assert m.g_inverse is m._connection[0] and m.christoffels is gamma


_ORIGIN = Point((0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SpacetimeModel.from_components("line", ("t",), {(0, 0): "-1"}),
     ValueError, "at least 2 coordinates"),
    (lambda: SCHW.with_parameters(Q=1.0), UnknownSymbol, "unknown symbol 'Q'"),
    (lambda: eval_metric(MINK, Point((0.0, 0.0, 0.0))),
     ValueError, "point has 3 coordinates, chart has 4"),
    (lambda: classify_vector(eval_metric(MINK, _ORIGIN), TangentVector((1.0, 0.0, 0.0), _ORIGIN)),
     ValueError, "vector dimension does not match the chart"),
], ids=["one-coordinate", "unknown-parameter", "metric-point", "classified-vector"])
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_dimension_is_the_number_of_coordinates():
    """The dimension is read off the coordinate names, not stored beside them."""
    plane = SpacetimeModel.from_components("plane", ("t", "x"), {(0, 0): "-1", (1, 1): "1"})
    assert plane.dimension == 2 and MINK.dimension == 4
    with pytest.raises(TypeError):
        replace(plane, dimension=3)


# --------------------------------------------------------------------------
# stacked evaluation: (N, d) coordinate arrays
# --------------------------------------------------------------------------

#: every FUNCTIONS entry, '/', and integer, negative, non-integer, 0th and 1st
#: powers, finite on every catalog chart's sample box
_EVERY_FUNCTION = ("sin({0})*cos({1}) + tan(0.3*{2}) + sinh(0.5*{1})*cosh(0.2*{3})"
                   " + tanh({0}*{3}) + exp(0.1*{2})*log({1}^2 + 2) + sqrt({3}^2 + 1)"
                   " + abs({2} - 0.3)/(3 + {0}^2) + {0}^3*{1} + ({1}^2 + 0.5)^(-2)"
                   " + ({3}^2 + 1)^0.7 + {2}^1 - {1}^0")


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_stacked_entry_points_equal_single_points_to_the_bit(model):
    """eval_jet2, metric_at (g, dg, g^-1, Gamma) and covariant_hessian on an
    (N, d) array give, row by row, the single point's bits."""
    f = model.field(_EVERY_FUNCTION.format(*model.coordinate_names))
    rng = np.random.default_rng(16001)
    points = np.array([random_point_in(model.sample_box, rng) for _ in range(150)])
    evaluator = geometry.evaluator_for(model)
    jets = eval_jet2(f.ast, model.coordinate_names, points, model.parameters)
    metric = evaluator.metric_at(points)
    hessians = covariant_hessian(f, model, points, metric_at=metric)
    assert hessians.shape == (150, 4, 4) and metric.first_derivatives.shape == (150, 4, 4, 4)
    for row, coords in enumerate(points):
        point = Point(coords)
        jet = eval_jet2(f.ast, model.coordinate_names, point.coordinates, model.parameters)
        single = evaluator.metric_at(point)
        assert (_bits(jets.value[row]), _bits(jets.gradient[row]), _bits(jets.hessian[row])) \
            == (_bits(jet.value), _bits(jet.gradient), _bits(jet.hessian))
        for stacked, alone in ((metric.g, single.g), (metric.first_derivatives,
                               single.first_derivatives), (metric.g_inverse, single.g_inverse),
                               (metric.christoffels, single.christoffels)):
            assert _bits(stacked[row]) == _bits(alone)
        assert _bits(hessians[row]) == _bits(covariant_hessian(f, model, point, metric_at=single))


#: Riemannian wherever t > 1.5, so only an unchecked call accepts its points there
_WRONG_SIGNATURE = flat_chart("t - 1.5")


@pytest.mark.parametrize("model, box", [(model, model.sample_box) for model in ALL_MODELS]
                         + [(_WRONG_SIGNATURE, ((1.6, 3.0), (-1.0, 1.0), (-1.0, 1.0),
                                                (-1.0, 1.0)))],
                         ids=[model.name for model in ALL_MODELS] + ["wrong-signature"])
def test_unchecked_stacks_equal_unchecked_single_points_to_the_bit(model, box):
    """metric_at(points, checks=False) gives each row's unchecked g, dg, g^-1
    and Gamma, also where the checked call refuses the points."""
    rng = np.random.default_rng(17001)
    points = np.array([random_point_in(box, rng) for _ in range(60)])
    evaluator = geometry.evaluator_for(model)
    metric = evaluator.metric_at(points, checks=False)
    for row, coords in enumerate(points):
        single = evaluator.metric_at(Point(coords), checks=False)
        for stacked, alone in ((metric.g, single.g), (metric.first_derivatives,
                               single.first_derivatives), (metric.g_inverse, single.g_inverse),
                               (metric.christoffels, single.christoffels)):
            assert _bits(stacked[row]) == _bits(alone)
    if model is _WRONG_SIGNATURE:
        with pytest.raises(WrongSignature):
            evaluator.metric_at(points)


@pytest.mark.parametrize("text", ["(1e300*1e300 - 1e300*1e300)^0 + x^2",
                                  "1^(1e300*1e300 - 1e300*1e300) + x"],
                         ids=["nan-to-the-zero", "one-to-the-nan"])
def test_stacked_rows_that_are_nan_take_their_single_point_values(text):
    """inf - inf is NaN, which the scalar power turns finite (NaN^0 = 1 and
    1^NaN = 1, as IEEE pow does) while the array helper keeps it NaN: every
    stacked row is then NaN, and the stacked jet and metric take each row's
    values from its single-point call."""
    model = SpacetimeModel.from_components("nan-power", ("t", "x"), {(0, 0): "-1", (1, 1): text})
    names, points = model.coordinate_names, np.array([(0.0, 0.5), (0.3, 1.0), (-0.2, 2.0)])
    ast = model.field(text).ast
    assert np.isnan(ex.eval_block(2, (ast,), names, points)).any(axis=0).all()
    jets = eval_jet2(ast, names, points)
    evaluator = geometry.evaluator_for(model)
    for checks in (True, False):
        metric = evaluator.metric_at(points, checks)
        for row, coords in enumerate(points):
            single = evaluator.metric_at(Point(coords), checks)
            assert _bits(metric.g[row]) == _bits(single.g)
            assert _bits(metric.first_derivatives[row]) == _bits(single.first_derivatives)
    for row, coords in enumerate(points.tolist()):
        alone = eval_jet2(ast, names, coords)
        assert float.hex(jets.value[row]) == float.hex(alone.value)
        assert _bits(jets.gradient[row]) == _bits(alone.gradient)
        assert _bits(jets.hessian[row]) == _bits(alone.hessian)


def test_only_a_two_dimensional_array_is_a_stack():
    """A 1-D coordinate array is refused, not read as a stack of d rows."""
    coords = np.array([1.3, 0.8, 1.1, 0.4])
    evaluator = geometry.evaluator_for(MILNE)
    for array in (coords, coords.reshape(1, 1, 4)):
        with pytest.raises(ValueError, match=re.escape(f"not {array.shape}")):
            evaluator.metric_at(array)
    with pytest.raises(ValueError, match=re.escape("not (4,)")):
        covariant_hessian(MILNE.field("tau^2"), MILNE, coords)


def test_a_singular_row_of_an_unchecked_stack_raises_its_own_error():
    """The stacked connection names the first singular row as that point
    alone does, not the whole coordinate array."""
    points = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    evaluator = geometry.evaluator_for(flat_chart("-(2 - t)"))
    with pytest.raises(SingularMetric) as alone:
        evaluator.metric_at(Point(points[2]), checks=False).christoffels
    assert str(alone.value) == "metric is singular at (2.0, 0.0, 0.0, 0.0)"
    for read in ("christoffels", "g_inverse"):
        with pytest.raises(SingularMetric) as stacked:
            getattr(evaluator.metric_at(points, checks=False), read)
        assert str(stacked.value) == str(alone.value)


def test_stacked_calls_check_the_width_as_single_points_do():
    f = MINK.field("x^2 - t^2")
    three = np.zeros((5, 3))
    for stacked, single in (
            (lambda: geometry.evaluator_for(MINK).metric_at(three),
             lambda: geometry.evaluator_for(MINK).metric_at(Point((0.0, 0.0, 0.0)))),
            (lambda: covariant_hessian(f, MINK, three),
             lambda: covariant_hessian(f, MINK, Point((0.0, 0.0, 0.0)))),
            (lambda: eval_jet2(f.ast, MINK.coordinate_names, three),
             lambda: eval_jet2(f.ast, MINK.coordinate_names, (0.0, 0.0, 0.0)))):
        with pytest.raises(ValueError) as from_stack:
            stacked()
        with pytest.raises(ValueError) as from_point:
            single()
        assert str(from_stack.value) == str(from_point.value)


@pytest.mark.parametrize("shape", [(1, 2, 4), (), (4,)])
def test_field_jets_refuse_an_array_that_is_not_n_by_d(shape):
    """eval_jet2 and field_jet apply metric_at's rule to a coordinate array:
    only an (N, d) array is a stack, and any other shape is refused by name."""
    f = MILNE.field("tau*cosh(chi)")
    points = np.full(shape, 1.0)
    with pytest.raises(ValueError) as refused:
        geometry.evaluator_for(MILNE).metric_at(points)
    assert str(refused.value) == f"a coordinate array must be (N, d), not {shape}"
    for call in (lambda: eval_jet2(f.ast, MILNE.coordinate_names, points),
                 lambda: geometry.field_jet(f, MILNE, points)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == str(refused.value)


def test_a_parameter_sweep_compiles_nothing_new(monkeypatch):
    """Fifty interior charts with distinct masses share one compile per
    code: after the first, no evaluator, single or stacked metric, null
    expansion or field jet compiles anything."""
    compiled = []
    original = ex._compile

    def recording(*args):
        compiled.append(args)
        return original(*args)

    monkeypatch.setattr(ex, "_compile", recording)
    ex._cached_code.cache_clear()
    ex._shape_code.cache_clear()
    for k, m in enumerate(np.random.default_rng(1804).uniform(0.5, 2.0, 50).tolist()):
        model = CAT.model("schwarzschild-interior", M=m)
        point = (0.1, 0.6 * m, 1.0, 2.0)
        evaluator = geometry.evaluator_for(model)
        evaluator.metric_at(Point(point))
        evaluator.metric_at(np.array([point, (-0.3, 1.4 * m, 1.5, 3.0)]))
        null_expansions(model, point[:2])
        eval_jet2(model.field("r").ast, model.coordinate_names, point, model.parameters)
        if k == 0:
            assert compiled
            compiled.clear()
    assert compiled == []


def test_stacked_code_compiles_on_the_first_stacked_call_only(monkeypatch):
    """An evaluator's construction and single-point calls compile no stacked
    code; the first stacked call compiles the loci, the components and the
    field once each, and a second stacked call compiles nothing."""
    compiled = []
    original = ex._compile

    def recording(ast, names, parameter_names, order, stacked=False):
        compiled.append(stacked)
        return original(ast, names, parameter_names, order, stacked)

    monkeypatch.setattr(ex, "_compile", recording)
    ex._cached_code.cache_clear()
    ex._shape_code.cache_clear()
    model = SCHW.with_parameters(M=0.8765)
    f = model.field("r^2*sin(theta) - 0.8765*t^2")
    point = Point((0.1, 4.0, 1.0, 2.0))
    evaluator = geometry.evaluator_for(model)
    evaluator.metric_at(point)
    covariant_hessian(f, model, point)
    eval_jet2(f.ast, model.coordinate_names, point.coordinates, model.parameters)
    assert compiled and not any(compiled)
    compiled.clear()
    points = np.array([point.coordinates, (0.2, 5.0, 1.5, 3.0)])
    covariant_hessian(f, model, points)
    assert compiled == [True, True, True]
    compiled.clear()
    covariant_hessian(f, model, points + 0.5)
    evaluator.metric_at(points)
    assert compiled == []


def _chart_digests(model):
    """Digests of the unique components' jets of order 2 and the loci's values
    at eight seeded points of the chart's box: (single-point code, eval_block)."""
    names, d, params = model.coordinate_names, model.dimension, model.parameters
    unique = tuple(dict.fromkeys(model.components[i][j] for i in range(d) for j in range(i, d)))
    loci = tuple(model.singular_loci)
    lo, hi = np.array(model.sample_box).T
    points = lo + (hi - lo) * np.random.default_rng(2002).random((8, d))
    single = [(ex.compile_jet2(unique, names, params)(*point),
               ex.compile_value(loci, names, params)(*point)) for point in points.tolist()]
    blocks = [ex.eval_block(2, unique, names, points, params)]
    if loci:
        blocks.append(ex.eval_block(0, loci, names, points, params))
    return bits_digest(single), bits_digest(blocks)


#: _chart_digests as computed when the literals of the components and loci
#: were written into the code, for CPython to fold (x86-64 Linux, glibc 2.36)
_CHART_BITS = {
    'minkowski-cartesian': ('79297383ce2cd3f8', '0467f6205ea5bf54'),
    'minkowski-spherical': ('7db4209f669261ee', 'aaa48b0aeae468fa'),
    'schwarzschild-exterior': ('599772302ff36226', 'bed61d2a671d03c3'),
    'schwarzschild-interior': ('08e0c0a3844034b8', 'd73f7829129e4798'),
    'milne': ('d79e212a5a3dce2f', '1f4653a254d67bb8'),
}


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.name for m in ALL_MODELS])
def test_catalog_charts_keep_the_folded_literal_bits(model):
    """Components and loci, whose literals now bind to shared code as
    arguments, keep the bits of the code that had them written in."""
    assert _chart_digests(model) == _CHART_BITS[model.name]
