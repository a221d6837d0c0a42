"""Admissible-c intervals, Hessian signatures, and region certification."""

import math

import numpy as np
import pytest

from stconvex import (CInterval, ConvexityQuery, NonLorentzianMetric, NullGradient, Point,
                      SingularMetric, UnknownSymbol, admissible_c_interval, builtin_models,
                      canonical_field, canonical_field_spherical, certify_region,
                      covariant_hessian, gradient_invariant, hessian_signature)

CAT = builtin_models()
MINK = CAT.model("minkowski-cartesian")
MINK_SPH = CAT.model("minkowski-spherical")
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
BOX = ((-1.0, 1.0),) * 4


# --------------------------------------------------------------------------
# pointwise interval
# --------------------------------------------------------------------------

def test_interval_hand_case():
    """H - cG = diag(c - 1/2, 1 - c, ...) is PSD exactly for c in [1/2, 1]."""
    interval = admissible_c_interval(np.diag([-0.5, 1.0, 1.0, 1.0]), ETA)
    assert interval.lo == pytest.approx(0.5, abs=1e-9)
    assert interval.hi == pytest.approx(1.0, abs=1e-9)


def test_interval_zero_hessian_empty():
    assert admissible_c_interval(np.zeros((4, 4)), ETA) is None


def test_interval_single_point():
    """(1 - c) G is PSD only at c = 1 since G is indefinite."""
    interval = admissible_c_interval(ETA.copy(), ETA)
    assert interval.lo == pytest.approx(1.0, abs=1e-9)
    assert interval.hi == pytest.approx(1.0, abs=1e-9)


def test_interval_requires_lorentzian_g():
    with pytest.raises(NonLorentzianMetric):
        admissible_c_interval(ETA.copy(), np.eye(4))


def test_interval_ceiling_hit():
    """H = -G: H - cG = -(1 + c) G is never PSD; make one that rides the top."""
    h = np.diag([-5.0, 10.0, 10.0, 10.0])
    interval = admissible_c_interval(h, ETA, ceiling=8.0)
    # PSD needs c >= 5 and c <= 10, truncated by the ceiling at 8
    assert interval.lo == pytest.approx(5.0, abs=1e-9)
    assert interval.hi == 8.0
    assert interval.ceiling_hit


def _brute_force_interval(h, g, n=20001, ceiling=20.0):
    cs = np.linspace(0.0, ceiling, n)
    stacked = h[None, :, :] - cs[:, None, None] * g[None, :, :]
    smallest = np.linalg.eigvalsh(stacked)[:, 0]
    feasible = cs[(smallest >= -1e-10) & (cs > 0)]
    if len(feasible) == 0:
        return None
    return float(feasible.min()), float(feasible.max())


def _random_symmetric(rng, scale=2.0):
    raw = rng.uniform(-scale, scale, (4, 4))
    return 0.5 * (raw + raw.T)


def test_interval_matches_brute_force(rng):
    grid_step = 20.0 / 20000
    for _ in range(40):
        h = _random_symmetric(rng)
        interval = admissible_c_interval(h, ETA, ceiling=20.0)
        brute = _brute_force_interval(h, ETA)
        if interval is None:
            # any brute-force hit must be a sliver narrower than the scan step
            assert brute is None or brute[1] - brute[0] <= grid_step
        else:
            assert brute is not None
            assert interval.lo == pytest.approx(brute[0], abs=2 * grid_step)
            assert interval.hi == pytest.approx(brute[1], abs=2 * grid_step)


def test_interval_ends_pass_the_psd_test(rng):
    """Both ends are probes that passed the PSD test."""
    for _ in range(40):
        h = _random_symmetric(rng)
        interval = admissible_c_interval(h, ETA, ceiling=20.0)
        if interval is not None:
            for c in (interval.lo, interval.hi):
                assert np.linalg.eigvalsh(h - c * ETA)[0] >= -1e-10


def test_interval_defective_pencil(rng):
    """H = c* G + a (Gk)(Gk)^T + diag(0, 0, s, s) with k null: the feasible set
    is {c*}, a double root that eigvals returns as a near-real complex pair
    or as two real roots about 1e-8 apart."""
    k = np.array([1.0, 1.0, 0.0, 0.0])
    gk = ETA @ k
    for _ in range(100):
        c_star, a, s = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        h = c_star * ETA + a * np.outer(gk, gk) + np.diag([0.0, 0.0, s, s])
        interval = admissible_c_interval(h, ETA, ceiling=20.0)
        assert interval is not None
        assert interval.lo == pytest.approx(c_star, abs=1e-7)
        assert interval.hi == pytest.approx(c_star, abs=1e-7)


def test_intersect_ends_touch_within_resolution():
    a = CInterval(0.5, 1.0)
    touching = a.intersect(CInterval(1.0 + 5e-10, 2.0))
    assert (touching.lo, touching.hi) == (1.0 + 5e-10, 1.0)
    assert a.intersect(CInterval(1.0 + 2e-9, 2.0)) is None
    assert a.intersect(CInterval(0.75, 2.0, ceiling_hit=True)) == CInterval(0.75, 1.0, True)


def test_interval_convexity_property(rng):
    """Midpoints of admissible endpoints are admissible."""
    for _ in range(40):
        h = _random_symmetric(rng)
        interval = admissible_c_interval(h, ETA, ceiling=20.0)
        if interval is None or interval.hi - interval.lo < 1e-6:
            continue
        for w in (0.25, 0.5, 0.75):
            c = interval.lo * (1 - w) + interval.hi * w
            assert np.linalg.eigvalsh(h - c * ETA)[0] >= -1e-9


# --------------------------------------------------------------------------
# signatures
# --------------------------------------------------------------------------

def test_signature_lorentzian():
    descriptor = hessian_signature(ETA.copy())
    assert descriptor.label == "Lorentzian"
    assert descriptor.is_lorentzian
    assert (descriptor.negative, descriptor.zero, descriptor.positive) == (1, 0, 3)


def test_signature_degenerate():
    assert hessian_signature(np.zeros((4, 4))).label == "degenerate"


def test_signature_riemannian():
    descriptor = hessian_signature(np.eye(4))
    assert descriptor.label == "Riemannian"
    assert not descriptor.is_lorentzian


def test_signature_indefinite():
    assert hessian_signature(np.diag([-1.0, -1.0, 1.0, 1.0])).label == "indefinite"


# --------------------------------------------------------------------------
# region certification
# --------------------------------------------------------------------------

def test_certify_canonical_half():
    cert = certify_region(MINK, canonical_field(0.5),
                          ConvexityQuery(region=BOX, samples_per_axis=5))
    assert cert.verdict == "certified"
    assert cert.c_interval.lo == pytest.approx(0.5, abs=1e-9)
    assert cert.c_interval.hi == pytest.approx(1.0, abs=1e-9)
    assert cert.lorentzian_hessian_everywhere
    assert cert.witness is None


def _closed_form_case(chart, alpha):
    model = CAT.model(chart)
    if chart == "minkowski-spherical":
        return model, canonical_field_spherical(alpha)
    # the canonical field on the Milne wedge, t = tau cosh(chi), x = tau sinh(chi)
    return model, model.field(f"0.5*tau^2*(sinh(chi)^2 - {alpha!r}*cosh(chi)^2)")


@pytest.mark.parametrize("chart", ["minkowski-spherical", "milne"])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
def test_per_point_intervals_match_closed_form(chart, alpha):
    """Every grid point's interval is [alpha, 1] to 1e-9."""
    model, f = _closed_form_case(chart, alpha)
    cert = certify_region(model, f, ConvexityQuery(region=model.sample_box,
                                                   samples_per_axis=3))
    stats = cert.per_point_stats
    for lo in (stats.c_lo_min, stats.c_lo_max):
        assert lo == pytest.approx(alpha, abs=1e-9)
    for hi in (stats.c_hi_min, stats.c_hi_max):
        assert hi == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("chart", ["minkowski-spherical", "milne"])
def test_certify_alpha_one_on_curvilinear_charts(chart):
    """At alpha = 1 every per-point interval is the single point {1}, whose
    computed value differs from point to point by rounding; the intersection
    still holds it."""
    model, f = _closed_form_case(chart, 1.0)
    cert = certify_region(model, f, ConvexityQuery(region=model.sample_box,
                                                   samples_per_axis=3))
    assert cert.verdict == "certified"
    assert cert.c_interval.lo == pytest.approx(1.0, abs=1e-9)
    assert cert.c_interval.hi == pytest.approx(1.0, abs=1e-9)


def test_certify_canonical_alpha_above_one_violated():
    cert = certify_region(MINK, canonical_field(1.2),
                          ConvexityQuery(region=BOX, samples_per_axis=3))
    assert cert.verdict == "violated"
    assert cert.witness == Point((-1.0, -1.0, -1.0, -1.0))
    assert cert.c_interval is None


def test_certify_invalid_region_rejected_before_scan():
    query = ConvexityQuery(region=((1.0, -1.0), (-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        certify_region(MINK, canonical_field(0.5), query)


def test_certify_too_few_samples_rejected():
    query = ConvexityQuery(region=BOX, samples_per_axis=1)
    with pytest.raises(ValueError):
        certify_region(MINK, canonical_field(0.5), query)


@pytest.mark.parametrize("name, value", [
    ("psd_tolerance", -1e-10), ("psd_tolerance", math.nan), ("psd_tolerance", math.inf),
    ("c_search_ceiling", 0.0), ("c_search_ceiling", -1.0), ("c_search_ceiling", math.nan),
    ("c_search_ceiling", math.inf),
])
def test_certify_rejects_unusable_tolerance_and_ceiling(name, value):
    """A NaN tolerance would turn the certifiable alpha = 0.5 field into
    'violated'; the query is refused before the scan instead."""
    query = ConvexityQuery(region=BOX, samples_per_axis=2, **{name: value})
    with pytest.raises(ValueError, match=name):
        certify_region(MINK, canonical_field(0.5), query)


def test_certified_region_dominates_random_vectors(rng):
    """V^T H V - c_lo V^T G V >= -1e-8 for random tangents at grid points."""
    from stconvex.convexity import grid_points
    from stconvex.geometry import covariant_hessian, eval_metric
    f = canonical_field(0.6)
    query = ConvexityQuery(region=BOX, samples_per_axis=3)
    cert = certify_region(MINK, f, query)
    assert cert.verdict == "certified"
    c_lo = cert.c_interval.lo
    for point in grid_points(query)[::9]:
        h = covariant_hessian(f, MINK, point)
        g = eval_metric(MINK, point).g
        vs = rng.uniform(-1.0, 1.0, (1000, 4))
        margins = np.einsum("ki,ij,kj->k", vs, h - c_lo * g, vs)
        assert margins.min() >= -1e-8


def test_chart_invariance_of_certificates():
    cart = certify_region(MINK, canonical_field(0.4),
                          ConvexityQuery(region=BOX, samples_per_axis=3))
    sph = certify_region(MINK_SPH, canonical_field_spherical(0.4),
                         ConvexityQuery(region=((-1, 1), (0.5, 1.5), (0.6, 2.4), (0.2, 5.9)),
                                        samples_per_axis=3))
    assert cart.verdict == sph.verdict == "certified"
    assert cart.c_interval.lo == pytest.approx(sph.c_interval.lo, abs=1e-6)
    assert cart.c_interval.hi == pytest.approx(sph.c_interval.hi, abs=1e-6)


def test_degenerate_verdict_for_riemannian_hessian():
    cert = certify_region(MINK, MINK.field("0.5*(x^2+y^2+z^2)"),
                          ConvexityQuery(region=BOX, samples_per_axis=3))
    assert cert.verdict == "degenerate"
    assert not cert.lorentzian_hessian_everywhere
    assert cert.witness is None


def test_critical_points_do_not_affect_certificate():
    """The grid contains the origin, where grad f = 0: certification only
    constrains the Hessian, so the verdict is unaffected; level-set
    operations at that point do raise."""
    f = canonical_field(1.0)
    cert = certify_region(MINK, f, ConvexityQuery(region=BOX, samples_per_axis=3))
    assert cert.verdict == "certified"
    assert cert.c_interval.lo == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(NullGradient):
        gradient_invariant(f, MINK, Point((0.0, 0.0, 0.0, 0.0)))


def test_geometry_errors_carry_the_grid_point():
    from stconvex import SingularMetric
    schw = CAT.model("schwarzschild-exterior")
    straddles_horizon = ConvexityQuery(
        region=((-0.1, 0.1), (1.0, 3.0), (1.0, 1.4), (0.1, 0.3)),
        samples_per_axis=3)  # the middle radial sample is the horizon r = 2
    with pytest.raises(SingularMetric) as info:
        certify_region(schw, schw.field("r"), straddles_horizon)
    assert "grid point" in str(info.value)


def test_certificate_records_grid_and_stats():
    cert = certify_region(MINK, canonical_field(0.25),
                          ConvexityQuery(region=BOX, samples_per_axis=3))
    assert cert.grid == (3, 3, 3, 3)
    assert cert.per_point_stats.samples == 81
    assert cert.per_point_stats.c_lo_min == pytest.approx(0.25, abs=1e-9)
    assert cert.per_point_stats.c_hi_max == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("field, region, error, attribute, value", [
    (canonical_field(0.5), MINK_SPH.sample_box, UnknownSymbol, "name", "x"),
    (canonical_field_spherical(0.5), ((-1.0, 1.0), (0.0, 1.0), (0.5, 2.5), (0.1, 6.0)),
     SingularMetric, "locus", "r"),
], ids=["unknown-symbol", "singular-locus"])
def test_grid_point_suffix_keeps_the_exception(field, region, error, attribute, value):
    """The grid-point suffix is appended to the raised exception itself, so
    an exception whose constructor is not (message) keeps its message and
    every attribute; rebuilding it through its constructor garbled the
    message of an UnknownSymbol and dropped the locus of a SingularMetric."""
    query = ConvexityQuery(region=region, samples_per_axis=2)
    point = Point(tuple(lo for lo, _ in region))
    with pytest.raises(error) as info:
        certify_region(MINK_SPH, field, query)
    assert getattr(info.value, attribute) == value
    with pytest.raises(error) as direct:  # the same error, raised off the grid
        covariant_hessian(field, MINK_SPH, point)
    assert str(info.value) == f"{direct.value} [at grid point {point.coordinates}]"


def test_query_axis_count_must_match_the_chart():
    with pytest.raises(ValueError, match="query region has 3 axes, chart has 4"):
        certify_region(MINK, canonical_field(0.5), ConvexityQuery(region=BOX[:3]))
