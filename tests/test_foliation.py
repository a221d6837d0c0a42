"""Level-set extrinsic curvature, barrier scan, null expansions, slices."""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from stconvex import (NonSpacelikeSlice, NotBlockForm, NullGradient,
                      OutOfDomain, Point, SingularMetric, SliceSpec, SpacetimeModel,
                      WrongSignature,
                      barrier_scan, builtin_models, canonical_field, eval_metric,
                      induced_metric, level_set_frame, mean_curvature, null_expansions,
                      schwarzschild_trk, second_fundamental_form, slice_laplacian,
                      slice_restricted_hessian)

from stconvex.foliation import BASIS_TOL, _tangent_basis

from conftest import (bits_digest, null_expansions_by_eigenvectors, random_lorentzian,
                      random_point_in)

CAT = builtin_models()
MINK = CAT.model("minkowski-cartesian")
SCHW_IN = CAT.model("schwarzschild-interior")
SCHW = CAT.model("schwarzschild-exterior")
MILNE = CAT.model("milne")
#: flat, with the coordinate seeds u and v both null
NULL_SEEDS = SpacetimeModel.from_components(
    "null-seeds", ("u", "v", "x", "y"), {(0, 1): "-0.5", (2, 2): "1", (3, 3): "1"},
    sample_box=((-1.0, 1.0),) * 4)


# --------------------------------------------------------------------------
# frames
# --------------------------------------------------------------------------

def test_frame_orientation_and_normalization(rng):
    f = canonical_field(1.0)
    for _ in range(5):
        coords = (2.0, *rng.uniform(-0.5, 0.5, 3))
        frame = level_set_frame(f, MINK, Point(coords))
        g = eval_metric(MINK, frame.point).g
        n = frame.unit_normal.array()
        # g(n, n) = epsilon and f decreases along n
        assert float(n @ g @ n) == pytest.approx(frame.epsilon, abs=1e-12)
        grad = np.array([-coords[0], coords[1], coords[2], coords[3]])
        assert float(n @ grad) < 0.0
        for b in frame.tangent_basis:
            assert abs(float(b.array() @ g @ n)) < 1e-10
            assert abs(abs(float(b.array() @ g @ b.array())) - 1.0) < 1e-12


def greedy_loop_basis(g, n):
    """The per-seed Gram-Schmidt loop, kept as the reference for
    _tangent_basis: (basis rows, seed order)."""
    d = g.shape[0]
    gnn = float(n @ g @ n)
    accepted, order = [], []
    remaining = list(range(d))
    for _ in range(d - 1):
        best = None
        for k in remaining:
            v = np.zeros(d)
            v[k] = 1.0
            v = v - (float(v @ g @ n) / gnn) * n
            for b in accepted:
                v = v - float(v @ g @ b) * math.copysign(1.0, float(b @ g @ b)) * b
            w2 = float(v @ g @ v)
            if best is None or abs(w2) > abs(best[2]):
                best = (k, v, w2)
        k, v, w2 = best
        assert abs(w2) >= BASIS_TOL
        accepted.append(v / math.sqrt(abs(w2)))
        order.append(k)
        remaining.remove(k)
    return np.array(accepted), order


@pytest.mark.parametrize("causal", [-1, 1])
def test_tangent_basis_matches_greedy_loop(rng, causal):
    """Non-diagonal Lorentzian g with a timelike (-1) or spacelike (+1) unit
    normal: the same basis as the loop, so the same seed order, g-orthonormal
    and g-orthogonal to n."""
    orders = set()
    for d in (3, 4, 5):
        for _ in range(40):
            g = random_lorentzian(rng, d)
            while True:
                n = rng.normal(size=d)
                q = float(n @ g @ n)
                if causal * q > 0.2 * float(n @ n):
                    break
            n = n / math.sqrt(abs(q))
            basis = _tangent_basis(g, n)
            expected, order = greedy_loop_basis(g, n)
            assert np.abs(basis - expected).max() <= 1e-12
            gram = basis @ g @ basis.T
            assert np.abs(gram - np.diag(np.sign(np.diag(gram)))).max() < 1e-12
            assert np.abs(basis @ g @ n).max() < 1e-12
            orders.add(tuple(order))
    assert len(orders) > 10  # the greedy choice, not index order, picks the seeds


def test_tangent_basis_ties_go_to_the_first_seed():
    mink = np.diag([-1.0, 1.0, 1.0, 1.0])
    e = np.eye(4)
    cases = ((mink, e[0], e[[1, 2, 3]]),
             (mink, e[1], e[[0, 2, 3]]),
             (np.diag([-2.0, 1.0, 3.0, 3.0]), e[0] / math.sqrt(2.0),
              np.array([e[2] / math.sqrt(3.0), e[3] / math.sqrt(3.0), e[1]])))
    for g, n, expected in cases:
        assert np.array_equal(_tangent_basis(g, n), expected)
        assert np.array_equal(greedy_loop_basis(g, n)[0], expected)


def test_tangent_basis_refuses_a_span_of_null_seeds():
    """With g = diag(-1, 1, 0, 0) and n = e_t, the seeds left after e_x are
    null and g-orthogonal to each other, so no pair spans a non-null vector."""
    with pytest.raises(WrongSignature, match="could not build a non-null tangent basis"):
        _tangent_basis(np.diag([-1.0, 1.0, 0.0, 0.0]), np.eye(4)[0])


def test_frame_spacelike_gradient():
    frame = level_set_frame(MINK.field("x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))
    assert frame.epsilon == 1
    assert frame.norm == pytest.approx(1.0)
    g = eval_metric(MINK, frame.point).g
    n = frame.unit_normal.array()
    assert float(n @ g @ n) == pytest.approx(1.0, abs=1e-14)


def test_null_gradient_raises():
    with pytest.raises(NullGradient):
        level_set_frame(MINK.field("t - x"), MINK, Point((0.0, 1.0, 0.0, 0.0)))


# --------------------------------------------------------------------------
# second fundamental form and mean curvature
# --------------------------------------------------------------------------

def test_flat_planes_have_zero_form():
    k = second_fundamental_form(MINK.field("t"), MINK, Point((0.3, 1.0, 2.0, -1.0)))
    assert np.abs(k).max() == 0.0
    assert mean_curvature(MINK.field("t"), MINK, Point((0.3, 1.0, 2.0, -1.0))) == 0.0


def test_canonical_hyperboloid_form():
    """At (t=2, x=0) the Hessian is the flat metric and the norm is 2; with
    this package's ADM-style sign the spatial form is -identity/2."""
    k = second_fundamental_form(canonical_field(1.0), MINK, Point((2.0, 0.0, 0.0, 0.0)))
    assert np.abs(k - (-0.5) * np.eye(3)).max() < 1e-12


def test_canonical_hyperboloid_mean_curvature():
    trk = mean_curvature(canonical_field(1.0), MINK, Point((2.0, 0.0, 0.0, 0.0)))
    assert trk == pytest.approx(-1.5, abs=1e-12)


def test_schwarzschild_interior_trace_matches_closed_form():
    f = SCHW_IN.field("r")
    p = Point((0.0, 1.0, 1.2, 0.3))
    k = second_fundamental_form(f, SCHW_IN, p)
    frame = level_set_frame(f, SCHW_IN, p)
    basis = np.array([b.components for b in frame.tangent_basis])
    g = eval_metric(SCHW_IN, p).g
    induced = basis @ g @ basis.T
    trace = float(np.einsum("ij,ij->", np.linalg.inv(induced), k))
    assert trace == pytest.approx(schwarzschild_trk(1.0, 1.0), abs=1e-10)


def test_mean_curvature_schwarzschild_interior():
    f = SCHW_IN.field("r")
    assert mean_curvature(f, SCHW_IN, Point((0.0, 1.0, 1.2, 0.3))) == \
        pytest.approx(1.0, abs=1e-12)


def test_mean_curvature_matches_closed_form_along_radii():
    f = SCHW_IN.field("r")
    for r in np.linspace(0.1, 1.9, 50):
        trk = mean_curvature(f, SCHW_IN, Point((0.0, float(r), 1.2, 0.3)))
        assert trk == pytest.approx(schwarzschild_trk(float(r), 1.0), abs=1e-8)


def test_trace_of_form_equals_mean_curvature(rng):
    cases = (
        (MINK, canonical_field(0.7)),
        (SCHW_IN, SCHW_IN.field("r")),
        (SCHW, SCHW.field("r^2 + t")),
        (MILNE, MILNE.field("tau")),
        (NULL_SEEDS, NULL_SEEDS.field("x")),
    )
    for model, f in cases:
        for _ in range(4):
            p = Point(random_point_in(model.sample_box, rng))
            frame = level_set_frame(f, model, p)
            k = second_fundamental_form(f, model, p)
            basis = np.array([b.components for b in frame.tangent_basis])
            induced = basis @ eval_metric(model, p).g @ basis.T
            trace = float(np.einsum("ij,ij->", np.linalg.inv(induced), k))
            assert trace == pytest.approx(mean_curvature(f, model, p), abs=1e-10)


def test_orientation_law_sign_flip():
    """f -> -f reverses the normal and flips K and TrK exactly."""
    f_text = "0.5*r^2 - 0.3*t^2"
    plus = SCHW.field(f_text)
    minus = SCHW.field(f"-({f_text})")
    p = Point((0.4, 5.0, 1.0, 2.0))
    k_plus = second_fundamental_form(plus, SCHW, p)
    k_minus = second_fundamental_form(minus, SCHW, p)
    assert np.array_equal(k_plus, -k_minus)
    assert mean_curvature(plus, SCHW, p) == -mean_curvature(minus, SCHW, p)


def test_reparametrization_behaviour():
    """Composing f with the strictly increasing g(u) = u + u^3 keeps the
    level sets, so the projected form and TrK are unchanged (exactly so at a
    point where f = 0 and g' = 1); the *unprojected* Hessian-over-norm ratio
    is gauge dependent and must not be asserted invariant."""
    from stconvex.geometry import covariant_hessian
    f = MINK.field("x")
    composed = MINK.field("x + x^3")
    p0 = Point((0.4, 0.0, 0.7, -0.2))
    assert np.allclose(second_fundamental_form(f, MINK, p0),
                       second_fundamental_form(composed, MINK, p0), atol=1e-12)
    assert mean_curvature(f, MINK, p0) == pytest.approx(
        mean_curvature(composed, MINK, p0), abs=1e-12)
    # away from f = 0 the projected data still agree (level sets are shared)
    f_curved = canonical_field(1.0)
    composed_curved = MINK.field("(0.5*(x^2+y^2+z^2) - 0.5*t^2) + "
                                 "(0.5*(x^2+y^2+z^2) - 0.5*t^2)^3")
    p1 = Point((2.0, 0.3, 0.1, -0.2))
    trk_f = mean_curvature(f_curved, MINK, p1)
    trk_g = mean_curvature(composed_curved, MINK, p1)
    assert math.copysign(1.0, trk_f) == math.copysign(1.0, trk_g)
    assert trk_f == pytest.approx(trk_g, rel=1e-9)
    # ...but the ambient ratio Hess/norm differs between the two gauges
    def ambient_ratio(field):
        return covariant_hessian(field, MINK, p1) / level_set_frame(field, MINK, p1).norm
    difference = np.abs(ambient_ratio(f_curved) - ambient_ratio(composed_curved)).max()
    assert difference > 1e-3


def test_milne_foliation_values():
    f = MILNE.field("tau")
    for tau in (0.5, 1.0, 2.0):
        p = Point((tau, 0.8, 1.0, 0.4))
        assert abs(mean_curvature(f, MILNE, p) - 3.0 / tau) <= 1e-8
        h = induced_metric(MILNE, SliceSpec("tau", tau), p)
        unit = np.diag([1.0, math.sinh(0.8) ** 2,
                        math.sinh(0.8) ** 2 * math.sin(1.0) ** 2])
        assert np.abs(h - tau ** 2 * unit).max() <= 1e-8


@pytest.mark.parametrize("scale", ["1e-9", "1e-6", "1e-4", "1", "1e6"])
def test_null_gradient_test_is_scale_free(scale):
    """f -> lambda f keeps the level sets, so Tr K = 3/tau for every lambda > 0:
    grad f . grad f = -lambda^2 is compared with |df| |g^-1 df|, not with a
    fixed bound, which refused 1e-6*tau (grad f . grad f = -1e-12)."""
    p = Point((1.3, 0.8, 1.1, 0.7))
    assert mean_curvature(MILNE.field(f"{scale}*tau"), MILNE, p) == pytest.approx(
        3.0 / 1.3, rel=1e-12)


def _scaled_milne(scale):
    return SpacetimeModel.from_components(
        name="scaled-milne", coordinate_names=("tau", "chi", "theta", "phi"),
        components={(0, 0): f"-{scale}", (1, 1): f"{scale}*tau^2",
                    (2, 2): f"{scale}*tau^2*sinh(chi)^2",
                    (3, 3): f"{scale}*tau^2*sinh(chi)^2*sin(theta)^2"},
        singular_loci=("tau", "sinh(chi)", "sin(theta)"))


@pytest.mark.parametrize("scale", ["1e-13", "1e-9", "1", "1e6"])
def test_trace_of_form_is_scale_free(scale):
    """g -> s g: the tangent-basis test is relative to max |g_mu nu|, so the
    form exists and traces to Tr K for every s (an absolute bound of 1e-12
    refused s = 1e-13 while mean_curvature gave 7.3e6)."""
    model = _scaled_milne(scale)
    f = model.field("tau")
    p = Point((1.3, 0.8, 1.1, 0.7))
    frame = level_set_frame(f, model, p)
    k = second_fundamental_form(f, model, p)
    basis = np.array([b.components for b in frame.tangent_basis])
    induced = basis @ eval_metric(model, p).g @ basis.T
    trace = float(np.einsum("ij,ij->", np.linalg.inv(induced), k))
    assert trace == pytest.approx(mean_curvature(f, model, p), rel=1e-12)


# --------------------------------------------------------------------------
# closed form and barrier scan
# --------------------------------------------------------------------------

def test_trk_zero_at_maximal_surface():
    for m in (0.5, 1.0, 2.0):
        assert abs(schwarzschild_trk(1.5 * m, m)) < 1e-12


def test_trk_values():
    assert schwarzschild_trk(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert schwarzschild_trk(1.8, 1.0) < 0.0
    assert schwarzschild_trk(0.5, 1.0) > 0.0


def test_trk_out_of_domain():
    for r in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(OutOfDomain):
            schwarzschild_trk(r, 1.0)


def test_trk_mass_scaling():
    """TrK(r, M) = TrK(r/M, 1) / M."""
    for r, m in ((1.0, 2.0), (2.5, 2.0), (0.4, 0.5)):
        assert schwarzschild_trk(r, m) == pytest.approx(
            schwarzschild_trk(r / m, 1.0) / m, rel=1e-14)


def test_barrier_scan_brackets_maximal_surface():
    result = barrier_scan(1.0, 0.5, 1.9, 100)
    assert result.sign_pattern_ok
    assert len(result.zero_crossings) == 1
    lo, hi = result.zero_crossings[0]
    assert lo < 1.5 < hi
    radii = [r for r, _ in result.r_samples]
    assert radii == sorted(radii)


def test_barrier_scan_scaled_mass():
    result = barrier_scan(2.0, 1.0, 3.9, 100)
    assert result.sign_pattern_ok
    lo, hi = result.zero_crossings[0]
    assert lo < 3.0 < hi


@pytest.mark.parametrize("r_lo, r_hi, end", [(1.5, 1.9, 0), (0.5, 1.5, -1)],
                         ids=["first-sample", "last-sample"])
def test_barrier_scan_brackets_a_zero_on_an_end_sample(r_lo, r_hi, end):
    """Tr K is exactly zero at r = 3M/2; on an end sample it is bracketed by
    that sample and its one neighbour."""
    result = barrier_scan(1.0, r_lo, r_hi, 5)
    radii = [r for r, _ in result.r_samples]
    assert result.r_samples[end][1] == 0.0
    assert result.zero_crossings == (tuple(radii[:2]) if end == 0 else tuple(radii[-2:]),)


def test_barrier_scan_bad_range():
    with pytest.raises(OutOfDomain):
        barrier_scan(1.0, 1.9, 0.5, 10)
    with pytest.raises(OutOfDomain):
        barrier_scan(1.0, 0.5, 2.5, 10)
    with pytest.raises(OutOfDomain):
        barrier_scan(1.0, 0.5, 1.9, 1)


# --------------------------------------------------------------------------
# null expansions
# --------------------------------------------------------------------------

def test_null_expansions_minkowski_sphere():
    theta_plus, theta_minus = null_expansions(CAT.model("minkowski-spherical"), (0.0, 2.0))
    assert theta_plus == pytest.approx(1.0, abs=1e-8)
    assert theta_minus == pytest.approx(-1.0, abs=1e-8)


def test_null_expansions_cylinder():
    cylinder = SpacetimeModel.from_components(
        name="cylinder", coordinate_names=("t", "x", "theta", "phi"),
        components={(0, 0): "-1", (1, 1): "1", (2, 2): "4",
                    (3, 3): "4*sin(theta)^2"},
        singular_loci=("sin(theta)",),
        block_form=((0, 1), "2", (1.0, 0.0)))
    theta_plus, theta_minus = null_expansions(cylinder, (0.0, 0.0))
    assert theta_plus == 0.0
    assert theta_minus == 0.0


def test_null_expansions_trapped_interior():
    theta_plus, theta_minus = null_expansions(SCHW_IN, (0.0, 1.0))
    assert theta_plus * theta_minus > 0.0
    assert theta_plus < 0.0 and theta_minus < 0.0


def test_null_expansions_exterior_untrapped():
    theta_plus, theta_minus = null_expansions(SCHW, (0.0, 6.0))
    assert theta_plus > 0.0 > theta_minus


def test_null_expansions_milne_sphere_untrapped():
    """Milne is a wedge of flat spacetime: its symmetry spheres are normal
    (one expanding, one contracting null direction)."""
    theta_plus, theta_minus = null_expansions(MILNE, (2.0, 0.8))
    assert theta_plus > 0.0 > theta_minus


def test_null_expansions_requires_declaration():
    with pytest.raises(NotBlockForm):
        null_expansions(MINK, (0.0, 1.0))


def _spherical_block(g_tt, future=(1.0, 0.0)):
    return SpacetimeModel.from_components(
        name="block", coordinate_names=("t", "r", "theta", "phi"),
        components={(0, 0): g_tt, (1, 1): "1", (2, 2): "r^2", (3, 3): "r^2*sin(theta)^2"},
        singular_loci=("sin(theta)",), block_form=((0, 1), "r", future))


@pytest.mark.parametrize("model, base_point, error, message", [
    (_spherical_block("-1", future=(0.0, 1.0)), (0.0, 1.0), NotBlockForm,
     "declared future direction is not timelike"),
    (_spherical_block("1"), (0.0, 1.0), WrongSignature, "base block is not Lorentzian"),
    (_spherical_block("-1"), (0.0, -1.0), OutOfDomain, "area radius -1.0 must be positive"),
    (_spherical_block("-1"), (0.0, 0.0), OutOfDomain, "area radius 0.0 must be positive"),
    (_spherical_block("-1"), (0.0, 1.0, 0.5), ValueError, "exactly the two base coordinates"),
], ids=["spacelike-future", "riemannian-block", "negative-radius", "zero-radius",
        "three-values"])
def test_null_expansions_rejects_what_has_no_expansions(model, base_point, error, message):
    with pytest.raises(error, match=message):
        null_expansions(model, base_point)


def test_null_expansions_refuses_a_block_the_metric_check_refuses():
    """diag(-1, 1e-13) has condition 1e13: its zero eigenvalue by the relative
    rule makes it no Lorentzian block, as eval_metric refuses the chart."""
    model = SpacetimeModel.from_components(
        name="thin", coordinate_names=("t", "r", "theta", "phi"),
        components={(0, 0): "-1", (1, 1): "1e-13", (2, 2): "r^2", (3, 3): "r^2*sin(theta)^2"},
        singular_loci=("r", "sin(theta)"), block_form=((0, 1), "r", (1.0, 0.0)))
    with pytest.raises(SingularMetric):
        eval_metric(model, Point((0.0, 1.0, 1.0, 1.0)))
    with pytest.raises(WrongSignature, match="base block is not Lorentzian"):
        null_expansions(model, (0.0, 1.0))


_SPHERICAL = {(0, 0): "-1", (1, 1): "1", (2, 2): "r^2", (3, 3): "r^2*sin(theta)^2"}


@pytest.mark.parametrize("components, block_form, message", [
    ({(0, 0): "-(2 + sin(theta))"}, ((0, 1), "r", (1.0, 0.0)),
     "base block depends on fiber coordinate 'theta'"),
    ({}, ((0, 1), "r*(2 + cos(phi))", (1.0, 0.0)), "base block depends on fiber coordinate 'phi'"),
    ({(0, 2): "1"}, ((0, 1), "r", (1.0, 0.0)),
     "metric mixes base and fiber coordinates; no warped-product split at this chart"),
    ({}, ((0, 7), "r", (1.0, 0.0)),
     "block-form base indices (0, 7) are not two distinct indices of the 4-coordinate chart"),
    ({}, ((1, 1), "r", (1.0, 0.0)),
     "block-form base indices (1, 1) are not two distinct indices of the 4-coordinate chart"),
    ({}, ((0, 1), "r", (1.0,)), "block-form future vector (1.0,) is not two finite numbers"),
    ({}, ((0, 1), "r", (1.0, 0.0, 0.0)),
     "block-form future vector (1.0, 0.0, 0.0) is not two finite numbers"),
    ({}, ((0, 1), "r", (math.nan, 0.0)), "block-form future vector (nan, 0.0) is not two finite"),
    ({}, ((0, 1), "r", (1.0, -math.inf)), "block-form future vector (1.0, -inf) is not two finite"),
], ids=["fiber-dependent-block", "fiber-dependent-radius", "cross-term", "index-outside-chart",
        "repeated-index", "future-of-one", "future-of-three", "nan-future", "infinite-future"])
def test_a_malformed_block_form_is_refused_when_the_model_is_built(components, block_form,
                                                                    message):
    """The model checks its declared split once, when it is built; the models
    are built here, not at collection, since building them raises."""
    with pytest.raises(NotBlockForm, match=re.escape(message)):
        SpacetimeModel.from_components(
            "block", ("t", "r", "theta", "phi"), {**_SPHERICAL, **components},
            singular_loci=("sin(theta)",), block_form=block_form)


def test_replace_checks_the_block_form_again():
    """dataclasses.replace (and so with_parameters) builds the model anew."""
    with pytest.raises(NotBlockForm, match="fiber coordinate 'chi'"):
        replace(MILNE, block_form=replace(MILNE.block_form, base_indices=(0, 2)))


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_null_expansions_of_a_block_far_from_unit_scale(scale):
    """diag(-s, s) with R = r at r = 1 has theta = +-2/sqrt(s): the block
    products g_ab^2 - g_aa g_bb would overflow at 1e160 (giving 0) and turn
    subnormal at 1e-160 (losing digits) without the block's scaling."""
    model = SpacetimeModel.from_components(
        "scaled", ("t", "r", "theta", "phi"),
        {**_SPHERICAL, (0, 0): f"-{scale!r}", (1, 1): repr(scale)},
        singular_loci=("sin(theta)",), block_form=((0, 1), "r", (1.0, 0.0)))
    expected = 2.0 / math.sqrt(scale)
    assert null_expansions(model, (0.0, 1.0)) == pytest.approx((expected, -expected),
                                                               rel=1e-15, abs=0.0)


@pytest.mark.parametrize("name", ["minkowski-spherical", "schwarzschild-exterior",
                                  "schwarzschild-interior", "milne"])
def test_null_expansions_match_the_eigenvector_construction(name, rng):
    """On every catalog chart with a warped-product split: the values and
    labels of the eigenvector construction that the closed form replaced."""
    model = CAT.model(name)
    box = [model.sample_box[i] for i in model.block_form.base_indices]
    for _ in range(100):
        base = random_point_in(box, rng)
        assert null_expansions(model, base) == pytest.approx(
            null_expansions_by_eigenvectors(model, base), rel=1e-13)


def _ingoing_eddington_finkelstein():
    """Schwarzschild (M = 1) in ingoing Eddington-Finkelstein coordinates:
    regular across r = 2M, where both null directions turn inward."""
    return SpacetimeModel.from_components(
        name="ingoing-ef", coordinate_names=("v", "r", "theta", "phi"),
        components={(0, 0): "-(1 - 2*M/r)", (0, 1): "1", (2, 2): "r^2",
                    (3, 3): "r^2*sin(theta)^2"},
        parameters={"M": 1.0}, singular_loci=("r", "sin(theta)"),
        block_form=((0, 1), "r", (1.0, -1.0)))


def _constant_tilted_block():
    radius = "(2 + x - 0.3*t^2)"
    return SpacetimeModel.from_components(
        name="tilted", coordinate_names=("t", "x", "theta", "phi"),
        components={(0, 0): "-1.2", (0, 1): "0.5", (1, 1): "0.8", (2, 2): f"{radius}^2",
                    (3, 3): f"{radius}^2*sin(theta)^2"},
        singular_loci=("sin(theta)",), block_form=((0, 1), radius, (1.0, 0.0)))


@pytest.mark.parametrize("model, box", [
    (_ingoing_eddington_finkelstein(), ((-1.0, 1.0), (0.7, 9.0))),
    (_constant_tilted_block(), ((-1.0, 1.0), (-1.0, 1.0))),
], ids=["ingoing-eddington-finkelstein", "constant-tilted-block"])
def test_null_expansions_on_off_diagonal_blocks(model, box, rng):
    """The eigenvector construction's pair of values, with theta_plus >=
    theta_minus. Its labels agree wherever exactly one null direction
    increases R; where both move R the same way (r < 2M on the EF chart) the
    eigenvector construction labelled them by the coordinate block's
    eigenvectors."""
    for _ in range(500):
        base = random_point_in(box, rng)
        theta = null_expansions(model, base)
        expected = null_expansions_by_eigenvectors(model, base)
        tol = 1e-13 * max(map(abs, expected))
        assert theta[0] >= theta[1]
        assert sorted(theta) == pytest.approx(sorted(expected), abs=tol)
        if (expected[0] > 0.0) != (expected[1] > 0.0):
            assert theta == pytest.approx(expected, abs=tol)


# --------------------------------------------------------------------------
# coordinate slices
# --------------------------------------------------------------------------

def test_slice_restricted_hessian_flat():
    ddf = slice_restricted_hessian(canonical_field(0.5), MINK, SliceSpec("t", 0.0),
                                   Point((0.0, 0.3, -0.2, 0.7)))
    assert np.abs(ddf - np.eye(3)).max() < 1e-10


def test_slice_laplacian_flat():
    lap = slice_laplacian(canonical_field(0.5), MINK, SliceSpec("t", 0.0),
                          Point((0.0, 0.3, -0.2, 0.7)))
    assert lap == pytest.approx(3.0, abs=1e-10)


def test_slice_laplacian_quadratic():
    f = MINK.field("x^2 + y^2 + z^2")
    lap = slice_laplacian(f, MINK, SliceSpec("t", 0.0), Point((0.0, 0.5, 0.5, 0.5)))
    assert lap == pytest.approx(6.0, abs=1e-10)


def test_milne_slice_constant_field():
    f = MILNE.field("-0.5*tau^2")
    spec = SliceSpec("tau", 2.0)
    p = Point((2.0, 0.8, 1.0, 0.4))
    assert np.abs(slice_restricted_hessian(f, MILNE, spec, p)).max() == 0.0
    assert slice_laplacian(f, MILNE, spec, p) == 0.0


def test_non_spacelike_slice():
    with pytest.raises(NonSpacelikeSlice):
        slice_restricted_hessian(MINK.field("t^2"), MINK, SliceSpec("x", 0.0),
                                 Point((1.0, 0.0, 0.0, 0.0)))


@pytest.mark.parametrize("probe", [
    lambda spec, p: slice_laplacian(SCHW.field("r^2"), SCHW, spec, p),
    lambda spec, p: slice_restricted_hessian(SCHW.field("r^2"), SCHW, spec, p),
    lambda spec, p: induced_metric(SCHW, spec, p),
], ids=["slice_laplacian", "slice_restricted_hessian", "induced_metric"])
def test_slice_probes_honor_the_locus_guard(probe):
    """1e-7 outside r = 2M, inside the 1e-6 guard: a slice probe refuses the
    point as eval_metric does, naming the locus."""
    p = Point((0.0, 2.0 + 1e-7, 1.2, 0.3))
    with pytest.raises(SingularMetric, match=r"r - 2\.0\*M"):
        eval_metric(SCHW, p)
    with pytest.raises(SingularMetric, match=r"r - 2\.0\*M"):
        probe(SliceSpec("t", 0.0), p)


def test_slice_point_must_lie_on_slice():
    with pytest.raises(ValueError):
        slice_restricted_hessian(canonical_field(0.5), MINK, SliceSpec("t", 0.0),
                                 Point((0.5, 0.0, 0.0, 0.0)))


def test_slice_point_must_match_chart_dimension():
    with pytest.raises(ValueError, match="3 coordinates, chart has 4"):
        slice_laplacian(canonical_field(0.5), MINK, SliceSpec("t", 0.0),
                        Point((0.0, 0.3, -0.2)))


def test_curved_slice_connection_used():
    """The tau = 1 Milne slice is the unit hyperbolic 3-space, where
    D_i D_j cosh(chi) = cosh(chi) h_ij; this exercises the induced
    connection, not just the flat second partials."""
    f = MILNE.field("cosh(chi)")
    spec = SliceSpec("tau", 1.0)
    p = Point((1.0, 0.8, 1.0, 0.4))
    ddf = slice_restricted_hessian(f, MILNE, spec, p)
    # D_i D_j cosh(chi) on the unit hyperbolic 3-space equals cosh(chi) h_ij
    h = induced_metric(MILNE, spec, p)
    assert np.abs(ddf - math.cosh(0.8) * h).max() < 1e-10


_LEVEL_SET_FIELD = "exp(0.3*{0}) + {1}^2 + 0.1*cos({2})*sin({3})"


def _level_set_digests(name):
    """Digest of Tr K, K, the null expansions and the slice Laplacian (on
    x^0, or r inside the horizon) at eight seeded points of the chart's box."""
    model = CAT.model(name)
    f = model.field(_LEVEL_SET_FIELD.format(*model.coordinate_names))
    ia, ib = model.block_form.base_indices
    k = 1 if name == "schwarzschild-interior" else 0
    lo, hi = np.array(model.sample_box).T
    out = []
    for coords in (lo + (hi - lo) * np.random.default_rng(2501).random((8, 4))).tolist():
        p = Point(coords)
        spec = SliceSpec(model.coordinate_names[k], coords[k])
        out.append((mean_curvature(f, model, p), second_fundamental_form(f, model, p),
                    null_expansions(model, (coords[ia], coords[ib])),
                    slice_laplacian(f, model, spec, p)))
    return bits_digest(out)


#: _level_set_digests as computed when null_expansions evaluated the block and
#: R apart, and level_set_frame took a metric_at argument (x86-64 Linux)
_LEVEL_SET_BITS = {
    "minkowski-spherical": "845f498fcbfc469b",
    "schwarzschild-exterior": "9a3d4d7f4067e265",
    "schwarzschild-interior": "6b00f89682f51607",
    "milne": "3b42c884f3b452f8",
}


@pytest.mark.parametrize("name", _LEVEL_SET_BITS)
def test_level_set_probes_keep_their_bits(name):
    assert _level_set_digests(name) == _LEVEL_SET_BITS[name]


def _probe_bits(points):
    """Tr K, K and the slice Laplacian at each (model, coordinates), as the
    level-set probes ask for them: four metric_at calls at each point."""
    out = []
    for model, coords, slice_index, f, g in points:
        p = Point(coords)
        spec = SliceSpec(model.coordinate_names[slice_index], coords[slice_index])
        out.append((float.hex(mean_curvature(f, model, p)),
                    second_fundamental_form(f, model, p).tobytes(),
                    float.hex(slice_laplacian(g, model, spec, p))))
    return out


def test_probes_in_threads_equal_the_serial_probes_to_the_bit(rng):
    """Four threads probing disjoint points share each model's evaluator, and
    so its kept metric, yet every Tr K, K and slice Laplacian has the bits of
    the same probe made serially."""
    points = []
    for model, f, g, slice_index in ((SCHW_IN, "r", "t^2", 1), (MILNE, "tau", "cosh(chi)", 0)):
        for _ in range(60):
            coords = random_point_in(model.sample_box, rng)
            points.append((model, coords, slice_index, model.field(f), model.field(g)))
    serial = _probe_bits(points)
    chunks = [points[k::4] for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between probes, not once per chunk
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(_probe_bits, chunks))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [serial[k::4] for k in range(4)]


@pytest.mark.parametrize("call", [
    lambda m: barrier_scan(m, 0.5, 1.0, 3),
    lambda m: schwarzschild_trk(1.0, m),
], ids=["barrier_scan", "schwarzschild_trk"])
@pytest.mark.parametrize("m", [math.inf, math.nan])
def test_non_finite_mass_is_out_of_domain(call, m):
    """A non-finite M is refused: an infinite one would pass 0 < r < 2M and
    give Tr K = nan."""
    with pytest.raises(OutOfDomain, match=f"M = {m!r}"):
        call(m)


def test_slice_on_an_unknown_coordinate_is_refused():
    with pytest.raises(ValueError, match="'w' is not a coordinate of 'minkowski-cartesian'"):
        slice_laplacian(canonical_field(0.5), MINK, SliceSpec("w", 0.0),
                        Point((0.0, 0.3, -0.2, 0.7)))
