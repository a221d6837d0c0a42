"""Admissible-c intervals, Hessian signatures, and region certification."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stconvex import (CInterval, ConvexityQuery, DomainError, NonLorentzianMetric,
                      NullGradient, Point, SingularMetric, SpacetimeModel, ToolkitError,
                      UnknownSymbol, admissible_c_interval, builtin_models, canonical_field,
                      canonical_field_spherical, certify_region, covariant_hessian,
                      hessian_signature, level_set_frame)
from stconvex import expressions as ex
from stconvex.convexity import (ENDPOINT_RESOLUTION, GRID_CHUNK, SignatureDescriptor,
                                _intersect_rows, grid_points)
from stconvex.expressions import compile_jet2, eval_jet2, to_source

from conftest import certify_region_per_point, flat_chart, random_lorentzian

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


@pytest.mark.parametrize("scale", [1e-8, 1e-12])
def test_interval_of_a_small_metric_is_scale_free(scale):
    """The Lorentzian check and the PSD test are relative to the size of the
    matrices, so (H, G) -> (s H, s G) keeps [1/2, 1], and s times a
    Riemannian matrix is still refused."""
    with pytest.raises(NonLorentzianMetric):
        admissible_c_interval(scale * ETA, scale * np.eye(4))
    interval = admissible_c_interval(scale * np.diag([-0.5, 1.0, 1.0, 1.0]), scale * ETA)
    assert (interval.lo, interval.hi) == pytest.approx((0.5, 1.0), rel=1e-12)


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


def _boost(axis, rho):
    b = np.eye(4)
    b[0, 0] = b[axis, axis] = math.cosh(rho)
    b[0, axis] = b[axis, 0] = math.sinh(rho)
    return b


def test_interval_midpoint_probe_keeps_a_near_degenerate_interval():
    """H = W^T H' W and G = W^T eta W, W = B_x(rho1) B_y(rho2) diag(s), with
    H' = diag(-a, a(1+delta), a(1+delta)u2, a(1+delta)u3) and H'_01 =
    k delta a: an admissible set about 1e-8 wide above c = a, whose computed
    upper root fails its own PSD test. Only the probe at the midpoint of the
    two lowest clipped roots passes there, the seventh of the oracle's seven
    probes; without it hi collapses onto lo."""
    a, delta, k = 1.2106395024753185, 3.6969228162420687e-09, 0.5582010787432723
    u2, u3 = 1.769562995095676, 2.208086889392328
    s = [0.8164904773152224, 3.4879473221368635, 3.3250347307048997, 1.810126597027613]
    hp = np.diag([-a, a * (1 + delta), a * (1 + delta) * u2, a * (1 + delta) * u3])
    hp[0, 1] = hp[1, 0] = k * delta * a
    w = _boost(1, -2.9429508062869836) @ _boost(2, -3.8614737885869257) @ np.diag(s)
    interval = admissible_c_interval(w.T @ hp @ w, w.T @ ETA @ w)
    assert interval is not None
    assert interval.hi - interval.lo > 1e-9 * interval.hi


def test_intersect_ends_touch_within_resolution():
    a = CInterval(0.5, 1.0)
    touching = a.intersect(CInterval(1.0 + 5e-10, 2.0))
    assert (touching.lo, touching.hi) == (1.0 + 5e-10, 1.0)
    assert a.intersect(CInterval(1.0 + 2e-9, 2.0)) is None
    assert a.intersect(CInterval(0.75, 2.0, ceiling_hit=True)) == CInterval(0.75, 1.0, False)


@pytest.mark.parametrize("a, b, hit", [
    (CInterval(0.5, 8.0, True), CInterval(0.75, 1.0), False),
    (CInterval(0.5, 1.0), CInterval(0.75, 8.0, True), False),
    (CInterval(0.5, 8.0, True), CInterval(0.0, 8.0), True),
    (CInterval(0.0, 8.0), CInterval(0.5, 8.0, True), True),
    (CInterval(0.5, 8.0, True), CInterval(0.75, 8.0, True), True),
], ids=["self-hit-other-lower", "other-hit-self-lower", "self-hit-equal", "other-hit-equal",
        "both-hit"])
def test_intersect_keeps_the_ceiling_hit_of_the_kept_hi(a, b, hit):
    assert a.intersect(b).ceiling_hit is hit
    assert b.intersect(a).ceiling_hit is hit


def test_certificate_reports_the_ceiling_only_when_its_hi_is_the_ceiling():
    """H = diag(-0.5, s''(x), s''(y), s''(z)) with s''(u) = 1 + 19 (u + 1):
    grid points whose spatial coordinates are all 0 or 1 admit c up to the
    ceiling 8, those with one at -1 only up to 1. The certificate's hi is 1,
    so it did not hit the ceiling."""
    s = "(0.5*{0}^2 + 19*({0}+1)^3/6)"
    field = MINK.field("-0.25*t^2 + " + " + ".join(s.format(u) for u in "xyz"))
    query = ConvexityQuery(region=BOX, samples_per_axis=3, c_search_ceiling=8.0)
    cert = certify_region(MINK, field, query)
    assert cert.verdict == "certified"
    assert cert.c_interval == CInterval(0.5, 1.0, False)
    assert cert.per_point_stats.c_hi_max == 8.0
    assert cert == certify_region_per_point(MINK, field, query)


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
    assert (descriptor.negative, descriptor.zero, descriptor.positive) == (1, 0, 3)


def test_signature_degenerate():
    assert hessian_signature(np.zeros((4, 4))).label == "degenerate"


def test_signature_riemannian():
    descriptor = hessian_signature(np.eye(4))
    assert descriptor.label == "Riemannian"


def test_signature_indefinite():
    assert hessian_signature(np.diag([-1.0, -1.0, 1.0, 1.0])).label == "indefinite"


# --------------------------------------------------------------------------
# stacked oracle
# --------------------------------------------------------------------------

def _pencil_stack(rng):
    """(H, G) rows of every kind the seven probes (0, the clipped roots, the
    ceiling, the two lowest roots' midpoint) distinguish, with G either eta or
    a random non-diagonal Lorentzian metric."""
    k = np.array([1.0, 1.0, 0.0, 0.0])
    gk = ETA @ k
    hs, gs = [], []
    for _ in range(24):  # random pencils: diagonalizable, some with empty intervals
        hs.append(_random_symmetric(rng))
        gs.append(ETA if len(hs) % 2 else random_lorentzian(rng, 4))
    for _ in range(8):  # defective: the double root c* returned as a near-real pair
        c_star, a, s = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        hs.append(c_star * ETA + a * np.outer(gk, gk) + np.diag([0.0, 0.0, s, s]))
        gs.append(ETA)
    hs += [np.diag([-5.0, 10.0, 10.0, 10.0]),  # rides the ceiling 8
           np.zeros((4, 4)),  # empty
           ETA.copy(),  # the single point {1}
           np.diag([-0.5, 1.0, 1.0 + 5e-13, 1.0 + 2e-12]),  # roots 1e-12 apart
           np.diag([-0.5, 0.5 + 1e-13, 1.0, 1.0]),  # a one-point interval near 1/2
           np.diag([-0.5, 1.0, 1.0, 1.0]),  # a triple root at hi = 1
           -ETA, np.diag([1.0, 0.0, 0.0, 0.0]),  # every root <= 0: empty
           _NEAR_CEILING]
    gs += [ETA] * 9
    return np.array(hs), np.array(gs)


#: a root 4e-12 below the ceiling 8, within 1e-12 of the largest |root| (10)
_NEAR_CEILING = np.diag([-5.0, 8.0 - 4e-12, 10.0, 10.0])


@pytest.mark.parametrize("ceiling", [8.0, 20.0, 1e3])
def test_stacked_oracle_equals_single_calls(rng, ceiling):
    """Each row of an (N, 4, 4) stack's arrays is exactly the single-matrix
    result: (lo, hi) NaN where the interval is None, and the sign counts of
    the descriptor."""
    hs, gs = _pencil_stack(rng)
    singles = [admissible_c_interval(h, g, ceiling=ceiling) for h, g in zip(hs, gs)]
    lo, hi = admissible_c_interval(hs, gs, ceiling=ceiling)
    assert lo.shape == hi.shape == (len(hs),)
    for row, single in enumerate(singles):
        if single is None:
            assert math.isnan(lo[row]) and math.isnan(hi[row])
        else:
            assert (lo[row].hex(), hi[row].hex()) == (single.lo.hex(), single.hi.hex())
    assert None in singles
    assert all(i.ceiling_hit == (i.hi == ceiling) for i in singles if i is not None)
    assert any(i is not None and i.ceiling_hit for i in singles) == (ceiling == 8.0)
    assert any(i is not None and 0.0 < i.lo < i.hi < ceiling for i in singles)
    descriptors = [hessian_signature(h) for h in hs]
    counts = hessian_signature(hs)
    assert [c.shape for c in counts] == [(len(hs),)] * 3
    assert [SignatureDescriptor(*row) for row in zip(*(c.tolist() for c in counts))] \
        == descriptors
    labels = {d.label for d in descriptors}
    assert {"Lorentzian", "degenerate", "indefinite"} <= labels


def test_probe_rows_at_the_edges():
    """A triple root at hi is one end, pencils whose roots are all <= 0 admit
    no c > 0, and a root just below the ceiling leaves the ceiling as a
    probe: ceiling_hit holds exactly when hi is the ceiling."""
    triple = admissible_c_interval(np.diag([-0.5, 1.0, 1.0, 1.0]), ETA)
    assert (triple.lo, triple.hi) == pytest.approx((0.5, 1.0), abs=1e-12)
    assert not triple.ceiling_hit
    assert admissible_c_interval(-ETA, ETA) is None
    assert admissible_c_interval(np.diag([1.0, 0.0, 0.0, 0.0]), ETA) is None
    interval = admissible_c_interval(_NEAR_CEILING, ETA, ceiling=8.0)
    assert interval.lo == pytest.approx(5.0, abs=1e-12)
    assert (interval.hi, interval.ceiling_hit) == (8.0, True)
    # a tolerance far below 4e-12 / 18 fails the ceiling, so hi is the root
    tight = admissible_c_interval(_NEAR_CEILING, ETA, tol=1e-15, ceiling=8.0)
    assert 8.0 - 5e-12 < tight.hi < 8.0 and not tight.ceiling_hit


@pytest.mark.parametrize("call, name", [
    (lambda: hessian_signature(np.diag([-0.5, 1.0, 1.0, 1.0]), math.nan), "psd_tolerance"),
    (lambda: hessian_signature(ETA, -1e-10), "psd_tolerance"),
    (lambda: hessian_signature(ETA[None], math.inf), "psd_tolerance"),
    (lambda: admissible_c_interval(ETA, ETA, tol=math.nan), "psd_tolerance"),
    (lambda: admissible_c_interval(ETA, ETA, tol=-1e-10), "psd_tolerance"),
    (lambda: admissible_c_interval(ETA, ETA, ceiling=math.inf), "c_search_ceiling"),
    (lambda: admissible_c_interval(ETA, ETA, ceiling=math.nan), "c_search_ceiling"),
    (lambda: admissible_c_interval(ETA, ETA, ceiling=0.0), "c_search_ceiling"),
    (lambda: admissible_c_interval(ETA[None], ETA[None], ceiling=-1.0), "c_search_ceiling"),
], ids=["signature-nan", "signature-negative", "signature-inf", "interval-tol-nan",
        "interval-tol-negative", "interval-ceiling-inf", "interval-ceiling-nan",
        "interval-ceiling-zero", "interval-ceiling-negative"])
def test_oracle_refuses_unusable_tolerance_and_ceiling(call, name):
    """A NaN tolerance read diag(-1/2, 1, 1, 1) as Riemannian and every
    interval as empty, and an infinite ceiling raised a RuntimeWarning."""
    with pytest.raises(ValueError, match=name):
        call()


def test_single_matrix_returns_one_result():
    assert isinstance(admissible_c_interval(np.diag([-0.5, 1.0, 1.0, 1.0]), ETA), CInterval)
    assert admissible_c_interval(np.zeros((4, 4)), ETA) is None
    assert isinstance(hessian_signature(ETA), SignatureDescriptor)
    lo, hi = admissible_c_interval(ETA[None], ETA[None])
    assert (lo.tolist(), hi.tolist()) == ([1.0], [1.0])
    assert [c.tolist() for c in hessian_signature(ETA[None])] == [[1], [0], [3]]


def test_non_lorentzian_row_in_a_stack_raises():
    gs = np.array([ETA, ETA, np.eye(4), ETA])
    with pytest.raises(NonLorentzianMetric):
        admissible_c_interval(np.array([ETA] * 4), gs)


@pytest.mark.parametrize("call, message", [
    (lambda: hessian_signature(np.array([[ETA, ETA]])), "must be"),
    (lambda: admissible_c_interval(np.array([[ETA, ETA]]), np.array([[ETA, ETA]])), "must be"),
    (lambda: admissible_c_interval(ETA, np.array([ETA] * 3)), "one shape"),
    (lambda: admissible_c_interval(np.array([ETA] * 3), ETA), "one shape"),
    (lambda: admissible_c_interval(ETA[None], ETA), "one shape"),
], ids=["signature-4d", "interval-4d", "interval-one-h-three-g",
        "interval-three-h-one-g", "interval-stack-of-one-with-a-matrix"])
def test_oracles_refuse_shapes_outside_the_contract(call, message):
    """Only (d, d) or (N, d, d) matrices, with H and G of one shape: a 4-D
    stack, or one H against three G, gave one result, for row 0 alone."""
    with pytest.raises(ValueError, match=message):
        call()


def _eleven_probe_interval(hs, gs, tol=1e-10, ceiling=1e3):
    """Reference (lo, hi) arrays from 2d + 3 probes, eleven at d = 4: 0, the
    d clipped roots, the ceiling and the d + 1 midpoints between them, with
    admissible_c_interval's PSD test and emptiness rule."""
    g_eigenvalues = np.linalg.eigvalsh(gs)
    g_norms = np.maximum(-g_eigenvalues[:, 0], g_eigenvalues[:, -1])
    roots = np.sort(np.linalg.eigvals(np.linalg.solve(gs, hs)).real, axis=-1)
    scales = np.maximum(-roots[:, 0], roots[:, -1])
    cs = np.empty((len(roots), 2 * roots.shape[1] + 3))
    cs[:, 0], cs[:, 2:-2:2], cs[:, -1] = 0.0, np.clip(roots, 0.0, ceiling), ceiling
    cs[:, 1::2] = 0.5 * (cs[:, :-1:2] + cs[:, 2::2])
    eigenvalues = np.linalg.eigvalsh(hs[:, None] - cs[:, :, None, None] * gs[:, None])
    h_norms = np.maximum(-eigenvalues[:, 0, 0], eigenvalues[:, 0, -1])
    feasible = eigenvalues[:, :, 0] >= -tol * (h_norms[:, None] + cs * g_norms[:, None])
    lo = np.where(feasible, cs, math.inf).min(axis=1)
    hi = np.where(feasible, cs, -math.inf).max(axis=1)
    empty = hi <= ENDPOINT_RESOLUTION * scales
    return np.where(empty, math.nan, lo), np.where(empty, math.nan, hi)


def _boosted_pencils(rng, family, rapidity, n=400):
    """n pencils (W^T H' W, W^T G' W), W = B_x(rho1) B_y(rho2) diag(s) with
    |rho| <= rapidity and s in [0.5, 4.5], or W = I for "random". A boost
    keeps eta, so G stays diag(s) eta diag(s) while H's entries grow like
    exp(2 (|rho1| + |rho2|)). H' by family:
    - "random" (G' = eta or a random Lorentzian metric) and "boosted-random"
      (G' = eta): c* G' + R R^T, which admits c*, in three rows of four,
      else random symmetric, mostly empty;
    - "boosted-defective": the single admissible c* of
      test_interval_defective_pencil's family;
    - "boosted-near-degenerate": a set about delta a wide above c = a, the
      family of test_interval_midpoint_probe_keeps_a_near_degenerate_interval."""
    gk = ETA @ np.array([1.0, 1.0, 0.0, 0.0])
    hs, gs = [], []
    for i in range(n):
        w, g = np.eye(4), ETA
        if family != "random":
            w = (_boost(1, rng.uniform(-rapidity, rapidity))
                 @ _boost(2, rng.uniform(-rapidity, rapidity)) @ np.diag(rng.uniform(0.5, 4.5, 4)))
        elif i % 2:
            g = random_lorentzian(rng, 4)
        if family in ("random", "boosted-random"):
            r = rng.uniform(-1.0, 1.0, (4, 4))
            hp = rng.uniform(0.2, 2.0) * g + r @ r.T if i % 4 else _random_symmetric(rng)
        elif family == "boosted-defective":
            c_star, a, s = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            hp = c_star * ETA + a * np.outer(gk, gk) + np.diag([0.0, 0.0, s, s])
        else:
            a, delta, k = rng.uniform(0.2, 2.0), 10.0 ** rng.uniform(-10, -7), rng.uniform(0, 1)
            u2, u3 = rng.uniform(1.0, 3.0, 2)
            hp = np.diag([-a, a * (1 + delta), a * (1 + delta) * u2, a * (1 + delta) * u3])
            hp[0, 1] = hp[1, 0] = k * delta * a
        hs.append(w.T @ hp @ w)
        gs.append(w.T @ g @ w)
    return np.array(hs), np.array(gs)


_FAMILIES = ["random", "boosted-random", "boosted-defective", "boosted-near-degenerate"]


@pytest.mark.parametrize("ceiling", [8.0, 1e3])
@pytest.mark.parametrize("family", _FAMILIES)
def test_seven_probes_equal_the_eleven_probe_reference(rng, family, ceiling):
    """The four midpoints the reference probes and the oracle does not never
    set an end here: with rapidities up to 2, (lo, hi) equal the reference's
    under float.hex on every row, empty rows included."""
    hs, gs = _boosted_pencils(rng, family, rapidity=2.0)
    lo, hi = admissible_c_interval(hs, gs, ceiling=ceiling)
    ref_lo, ref_hi = _eleven_probe_interval(hs, gs, ceiling=ceiling)
    assert [x.hex() for x in lo.tolist() + hi.tolist()] \
        == [x.hex() for x in ref_lo.tolist() + ref_hi.tolist()]
    assert np.isnan(lo).mean() < 0.3


@pytest.mark.parametrize("family", _FAMILIES[1:])
def test_seven_probe_interval_lies_inside_the_eleven_probe_one(rng, family):
    """The seven probes are seven of the eleven (the two lowest roots'
    midpoint is the same sum), so the interval can only shrink. It does
    where the boost makes ||H|| large against the pencil's own scale: with
    rapidities up to 4, the tolerance tol ||H|| then admits a c between
    roots that the PSD test passes by rounding's allowance alone, and the
    eleven-probe reference can take such a midpoint as an end."""
    hs, gs = _boosted_pencils(rng, family, rapidity=4.0)
    lo, hi = admissible_c_interval(hs, gs, ceiling=8.0)
    ref_lo, ref_hi = _eleven_probe_interval(hs, gs, ceiling=8.0)
    kept = ~np.isnan(lo)
    assert not (kept & np.isnan(ref_lo)).any()
    assert (lo[kept] >= ref_lo[kept]).all() and (hi[kept] <= ref_hi[kept]).all()


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


def _scaled_certificate(chart, alpha, s, lam, ceiling):
    """certify_region for the chart's metric times s and f_alpha times s * lam,
    on the chart's box at 2 samples per axis."""
    model, f = (MINK, canonical_field(alpha)) if chart == "minkowski-cartesian" \
        else _closed_form_case(chart, alpha)
    d = model.dimension
    scaled = SpacetimeModel.from_components(
        model.name, model.coordinate_names,
        {(i, j): f"{s!r}*({to_source(model.components[i][j])})"
         for i in range(d) for j in range(i, d)},
        singular_loci=[to_source(locus) for locus in model.singular_loci],
        sample_box=model.sample_box)
    field = scaled.field(f"{s * lam!r}*({to_source(f.ast)})")
    return certify_region(scaled, field, ConvexityQuery(region=model.sample_box,
                                                        samples_per_axis=2,
                                                        c_search_ceiling=ceiling))


@pytest.mark.parametrize("chart", ["minkowski-cartesian", "minkowski-spherical", "milne"])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.2])
def test_certificates_are_scale_covariant(chart, alpha):
    """Under (g, f) -> (s g, s f) the admissible c do not move, and under
    f -> lam f they scale by lam: the verdict, witness and signature labels
    stay those of s = lam = 1, and the interval divided by lam agrees to
    1e-12, with the ceiling scaled by lam and with it fixed above lam."""
    base = _scaled_certificate(chart, alpha, 1.0, 1.0, 1e3)
    for s in (1e-6, 1e-3, 1e3, 1e6):
        for lam in (1e-12, 1e-9, 1e-4, 1.0, 1e4, 1e8):
            for ceiling in (1e3 * lam, max(1e3, 10.0 * lam)):
                cert = _scaled_certificate(chart, alpha, s, lam, ceiling)
                case = f"s = {s!r}, lam = {lam!r}, ceiling = {ceiling!r}"
                assert (cert.verdict, cert.witness, cert.signature_labels) == \
                    (base.verdict, base.witness, base.signature_labels), case
                if base.c_interval is None:
                    assert cert.c_interval is None, case
                    continue
                assert cert.c_interval.lo / lam == pytest.approx(base.c_interval.lo, rel=1e-12)
                assert cert.c_interval.hi / lam == pytest.approx(base.c_interval.hi, rel=1e-12)
                assert cert.c_interval.ceiling_hit == base.c_interval.ceiling_hit, case


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


@pytest.mark.parametrize("axis", [(-math.inf, 1.0), (0.0, 1e308 * 10), (-1e308, 1e308)],
                         ids=["infinite-lo", "infinite-hi", "overflowing-width"])
def test_certify_refuses_an_axis_without_a_finite_width(axis):
    """An infinite bound or a width past the float range made the grid's
    spacing infinite: the scan raised a DomainError at a grid point with a
    NaN coordinate, after an overflow warning for the last axis."""
    query = ConvexityQuery(region=(BOX[0], axis) + BOX[2:], samples_per_axis=3)
    with pytest.raises(ValueError, match=r"^region axis 1: .* does not have a finite width$"):
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
        level_set_frame(f, MINK, Point((0.0, 0.0, 0.0, 0.0)))


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


# --------------------------------------------------------------------------
# chunked scan against the per-point scan
# --------------------------------------------------------------------------

def _exact(cert):
    """Every field of a certificate, floats as float.hex (NaN compares equal)."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return value
    return exact(dataclasses.astuple(cert))


UNIT_BOX = ((0.0, 1.0),) * 4
#: -t^2 (0.2 + b t + c x + d y) / 2 plus a spatial paraboloid: H_tt grows along
#: the row-major order, so the running interval empties at a chosen grid point
_GROWING = "0.5*(x^2+y^2+z^2) - 0.5*t^2*(0.2 + {}*t + {}*x + {}*y)"


SCHW = CAT.model("schwarzschild-exterior")
SCHW_IN = CAT.model("schwarzschild-interior")
#: the exterior box beyond r = 4M, where 0.5 r^2 - 0.05 t^2 is certified
_SCHW_FAR = ((-1.0, 1.0), (4.0, 8.0), (0.5, 2.5), (0.1, 6.0))


_SCANS = {  # id -> (model, field, region, samples per axis, witness index or None)
    "alpha-1.2-3": (MINK, canonical_field(1.2), BOX, 3, 0),
    "growing-4-second-and-last": (MINK, MINK.field(_GROWING.format(0.2, 0.1, 0.0)),
                                  UNIT_BOX, 4, 208),
    "growing-5-second": (MINK, MINK.field(_GROWING.format(0.5, 0.0, 0.1)), UNIT_BOX, 5, 250),
    "growing-5-last": (MINK, MINK.field(_GROWING.format(0.2, 0.1, 0.0)), UNIT_BOX, 5, 525),
    "growing-6-second": (MINK, MINK.field(_GROWING.format(2.0, 0.0, 0.0)), UNIT_BOX, 6, 216),
    "growing-6-last": (MINK, MINK.field(_GROWING.format(0.1, 0.15, 0.05)), UNIT_BOX, 6, 1284),
    "riemannian-5": (MINK, MINK.field("0.5*(x^2+y^2+z^2)"), BOX, 5, None),
    **{f"alpha-0.5-{n}": (MINK, canonical_field(0.5), BOX, n, None) for n in (3, 4, 5, 6)},
    **{f"{chart}-{alpha}-{n}": (*_closed_form_case(chart, alpha), CAT.model(chart).sample_box,
                                n, None)
       for n in (3, 4, 5, 6) for chart, alpha in (("milne", 0.7), ("minkowski-spherical", 1.0))},
    **{f"schwarzschild-exterior-certified-{n}": (SCHW, SCHW.field("0.5*r^2 - 0.05*t^2"),
                                                  _SCHW_FAR, n, None) for n in (3, 5)},
    "schwarzschild-exterior-r4-5": (SCHW, SCHW.field("r^4 - 0.05*t^2"), _SCHW_FAR, 5, 100),
    **{f"schwarzschild-interior-{n}": (SCHW_IN, SCHW_IN.field("0.5*r^2 - 0.3*t^2"),
                                       SCHW_IN.sample_box, n, 0) for n in (3, 5)},
}


@pytest.mark.parametrize("model, field, region, n, witness_index", _SCANS.values(),
                         ids=_SCANS.keys())
def test_chunked_scan_equals_the_per_point_scan(model, field, region, n, witness_index):
    """Verdict, witness, interval ends, ceiling_hit, per-point stats and labels
    equal those of the per-point scan to the bit, on grids of one to eleven
    chunks; violated grids put their witness in the first, second or last chunk."""
    query = ConvexityQuery(region=region, samples_per_axis=n)
    cert = certify_region(model, field, query)
    assert _exact(cert) == _exact(certify_region_per_point(model, field, query))
    if witness_index is None:
        assert cert.witness is None
    else:
        assert cert.verdict == "violated"
        assert cert.witness == grid_points(query)[witness_index]
        assert witness_index // GRID_CHUNK in (0, 1, (n ** 4 - 1) // GRID_CHUNK)


def test_domain_error_from_a_later_chunk_names_its_grid_point():
    """log(1.5 - t) is undefined only on the last t slab, 1080 points (eight
    chunks) into a 6^4 grid; the error and its suffix are the per-point scan's."""
    field = MINK.field("log(1.5 - t) + 0.5*x^2")
    query = ConvexityQuery(region=((-1.0, 2.0),) + BOX[1:], samples_per_axis=6)
    with pytest.raises(DomainError) as info:
        certify_region(MINK, field, query)
    with pytest.raises(DomainError) as reference:
        certify_region_per_point(MINK, field, query)
    assert str(info.value) == str(reference.value)
    assert str(info.value).endswith("[at grid point (2.0, -1.0, -1.0, -1.0)]")
    assert grid_points(query).index(Point((2.0, -1.0, -1.0, -1.0))) // GRID_CHUNK == 8


#: id -> (model, field text), each failing first at t = 2, the last t slab of
#: a 6^4 grid over t in [-1, 2], 1080 points (eight chunks) in
_LATER_CHUNK_ERRORS = {
    "log-of-zero": (MINK, "log(2 - t) + 0.5*x^2"),
    "sqrt-of-zero": (MINK, "sqrt(2 - t) + 0.5*x^2"),
    "division-by-zero": (MINK, "x^2/(2 - t)"),
    "abs-slope-at-zero": (MINK, "abs(2 - t) + 0.5*x^2"),
    "zero-to-the-minus-2": (MINK, "(2 - t)^(-2) + 0.5*x^2"),
    "negative-to-the-0.5": (MINK, "(1.5 - t)^0.5 + 0.5*x^2"),
    "exp-overflow": (MINK, "exp(400*t) + 0.5*x^2"),
    "tan-at-its-pole": (MINK, "1e300*tan(0.7853981633974483*t) + 0.5*x^2"),
    "locus-guard": (flat_chart("-1", loci=("2 - t",)), "0.5*x^2"),
    "condition-cap": (flat_chart("-(2 - t)"), "0.5*x^2"),
    "wrong-signature": (flat_chart("t - 1.5"), "0.5*x^2"),
}


@pytest.mark.parametrize("model, text", _LATER_CHUNK_ERRORS.values(),
                         ids=_LATER_CHUNK_ERRORS.keys())
def test_errors_from_a_later_chunk_match_the_per_point_scan(model, text):
    """Each way a point can fail gives the per-point scan's error, message
    and attributes (a locus guard keeps its locus); the stacked calls alone
    raise the failing point's own single-point error."""
    field = model.field(text)
    query = ConvexityQuery(region=((-1.0, 2.0),) + BOX[1:], samples_per_axis=6)
    with pytest.raises(ToolkitError) as info:
        certify_region(model, field, query)
    with pytest.raises(ToolkitError) as reference:
        certify_region_per_point(model, field, query)
    assert type(info.value) is type(reference.value)
    assert str(info.value) == str(reference.value)
    assert vars(info.value) == vars(reference.value)
    first = Point((2.0, -1.0, -1.0, -1.0))
    assert str(info.value).endswith(f"[at grid point {first.coordinates}]")
    with pytest.raises(ToolkitError) as stacked:
        covariant_hessian(field, model, np.array([p.coordinates for p in grid_points(query)]))
    with pytest.raises(ToolkitError) as single:
        covariant_hessian(field, model, first)
    assert (type(stacked.value), str(stacked.value), vars(stacked.value)) == \
        (type(single.value), str(single.value), vars(single.value))


def test_scan_memory_is_bounded_by_the_chunk():
    """Points and matrices are held one chunk at a time, so the peak Python
    allocation of a 9^4 scan (6561 points) is at most 1.5 times that of a 6^4
    scan (1296 points)."""
    f = canonical_field(0.5)

    def peak(n):
        query = ConvexityQuery(region=BOX, samples_per_axis=n)
        tracemalloc.start()
        try:
            certify_region(MINK, f, query)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # compile and cache the evaluator and the field outside the measurement
    assert peak(9) <= 1.5 * peak(6)


# --------------------------------------------------------------------------
# literals bound to shared code, and the array fold
# --------------------------------------------------------------------------

_MILNE = CAT.model("milne")
#: chart and field of each certify family, alpha written in as a literal
_ALPHA_FAMILIES = (
    (MINK, canonical_field),
    (MINK_SPH, lambda alpha: CAT.field("canonical-spherical", alpha)),
    (_MILNE, lambda alpha: _MILNE.field(f"0.5*tau^2*(sinh(chi)^2 - {alpha!r}*cosh(chi)^2)")),
)


def test_an_alpha_sweep_compiles_nothing_new(monkeypatch):
    """A new alpha is a new literal of the same shape, bound to its code as
    an argument: after the first of fifty values, neither certify_region nor
    compile_jet2 nor eval_jet2, single or stacked, compiles anything."""
    compiled = []
    original = ex._compile

    def recording(*args):
        compiled.append(args)
        return original(*args)

    monkeypatch.setattr(ex, "_compile", recording)
    ex._cached_code.cache_clear()
    ex._shape_code.cache_clear()
    for k, alpha in enumerate(np.random.default_rng(2004).uniform(0.05, 1.5, 50).tolist()):
        for model, family in _ALPHA_FAMILIES:
            field, names = family(alpha), model.coordinate_names
            query = ConvexityQuery(region=model.sample_box, samples_per_axis=2)
            certify_region(model, field, query)
            points = np.array([p.coordinates for p in grid_points(query)])
            compile_jet2(field.ast, names)(*points[0])
            eval_jet2(field.ast, names, points[1].tolist())
            eval_jet2(field.ast, names, points)
        if k == 0:
            assert compiled
            compiled.clear()
    assert compiled == []


def test_fields_of_one_shape_name_their_own_text_and_point():
    """log(0.25 - x) and log(0.75 - x) run one code; each error names its own
    field's text and its own first failing point, from the single-point
    code, the stacked code and a certify chunk's point-by-point re-run."""
    names = MINK.coordinate_names
    fields = [MINK.field(f"log({a} - x) + 0.5*y^2") for a in (0.25, 0.75)]
    assert compile_jet2(fields[0].ast, names).func is compile_jet2(fields[1].ast, names).func
    query = ConvexityQuery(region=BOX, samples_per_axis=5)
    points = np.array([p.coordinates for p in grid_points(query)])
    for field, x in zip(fields, (0.5, 1.0)):
        first = (-1.0, x, -1.0, -1.0)  # the first grid point with 0.25 - x or 0.75 - x <= 0
        message = f"while evaluating '{to_source(field.ast)}' at {first}"
        with pytest.raises(DomainError) as single:
            eval_jet2(field.ast, names, first)
        with pytest.raises(DomainError) as stacked:
            eval_jet2(field.ast, names, points)
        with pytest.raises(DomainError) as certified:
            certify_region(MINK, field, query)
        assert str(single.value).endswith(message)
        assert str(stacked.value) == str(single.value)
        assert str(certified.value) == f"{single.value} [at grid point {first}]"


def _left_fold(rows, ceiling):
    """(the interval, the index of the row that emptied it) of the per-row
    fold that certify_region made: CInterval.intersect one row at a time."""
    running = CInterval(0.0, ceiling)
    for index, (lo, hi) in enumerate(rows):
        running = None if math.isnan(lo) else running.intersect(CInterval(lo, hi, hi == ceiling))
        if running is None:
            return None, index
    return running, None


def _fold_rows(rng, ceiling):
    """Rows of admissible_c_interval's arrays around a common c: some empty,
    some with lo at 0.0 or -0.0, some touching ends within
    ENDPOINT_RESOLUTION and some crossing past it, some at the ceiling."""
    c = float(rng.uniform(0.5, 2.0))
    rows = []
    for _ in range(int(rng.integers(1, 40))):
        if rng.random() < 0.03:
            rows.append((math.nan, math.nan))
            continue
        kind = rng.random()
        lo = (float(rng.choice([0.0, -0.0])) if kind < 0.3 else
              float(rng.uniform(0.0, c)) if kind < 0.7 else
              c * (1.0 + float(rng.uniform(-1.0, 3.0)) * ENDPOINT_RESOLUTION))
        kind = rng.random()
        hi = (ceiling if kind < 0.35 else float(rng.uniform(c, ceiling)) if kind < 0.6 else
              c * (1.0 + float(rng.uniform(-1.0, 1.0)) * ENDPOINT_RESOLUTION))
        rows.append((min(lo, hi), max(lo, hi)))
    return rows


@pytest.mark.parametrize("seed", [2005, 2006, 2007])
def test_array_fold_equals_a_left_fold_of_intersect(seed):
    """_intersect_rows over rows split into chunks at random gives the left
    fold's interval, to the bit and with its ceiling_hit, and its witness row."""
    rng = np.random.default_rng(seed)
    ceiling = 8.0
    outcomes = set()
    for _ in range(300):
        rows = _fold_rows(rng, ceiling)
        expected, expected_row = _left_fold(rows, ceiling)
        lo, hi = np.array(rows).T
        cuts = np.sort(rng.choice(np.arange(1, len(rows) + 1), int(rng.integers(1, 5))))
        running, row, start = CInterval(0.0, ceiling), None, 0
        for stop in dict.fromkeys(cuts.tolist() + [len(rows)]):
            running, failed = _intersect_rows(running, lo[start:stop], hi[start:stop], ceiling)
            if running is None:
                row = start + failed
                break
            start = stop
        assert row == expected_row
        if expected is None:
            assert running is None
            outcomes.add("empty" if math.isnan(rows[row][0]) else "crossed")
        else:
            assert (running.lo.hex(), running.hi.hex(), running.ceiling_hit) == \
                (expected.lo.hex(), expected.hi.hex(), expected.ceiling_hit)
            outcomes.add("ceiling" if expected.ceiling_hit else
                         "touching" if expected.lo > expected.hi else "kept")
    assert outcomes == {"empty", "crossed", "ceiling", "touching", "kept"}
