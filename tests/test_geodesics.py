"""Geodesic integration, margin probes, and closed-loop obstruction."""

import math

import numpy as np
import pytest

from stconvex import (ConvexityQuery, CurveSpec, DomainError, NotClosed, OutOfDomain,
                      SingularMetric, SpacetimeModel, StepSizeInvalid, Trajectory, VectorClass,
                      barrier_scan, builtin_models, canonical_field, certify_region,
                      closed_curve_probe, convexity_along_curve, covariant_hessian,
                      eval_metric, integrate_geodesic)
from stconvex.expressions import eval_jet2
from stconvex.geodesics import GeodesicState
from stconvex.geometry import MetricEvaluator, geodesic_acceleration

CAT = builtin_models()
MINK = CAT.model("minkowski-cartesian")
SCHW = CAT.model("schwarzschild-exterior")

TWO_PI = 2.0 * math.pi


def circular_orbit_state(r=6.0, m=1.0, inclination=0.0):
    """Equatorial circular orbit, optionally rotated out of the equator;
    proper-time parametrization."""
    omega = math.sqrt(m / r ** 3)
    u_t = 1.0 / math.sqrt(1.0 - 3.0 * m / r)
    psi_dot = omega * u_t
    velocity = (u_t, 0.0, -math.sin(inclination) * psi_dot,
                math.cos(inclination) * psi_dot)
    return GeodesicState.of((0.0, r, math.pi / 2.0, 0.0), velocity), u_t, psi_dot


def inclined_orbit_exact(lam, r, u_t, psi_dot, inclination):
    """Great-circle solution rotated by the inclination about the x-axis."""
    psi = psi_dot * lam
    direction = np.array([math.cos(psi),
                          math.cos(inclination) * math.sin(psi),
                          math.sin(inclination) * math.sin(psi)])
    theta = math.acos(direction[2])
    phi = math.atan2(direction[1], direction[0])
    return np.array([u_t * lam, r, theta, phi])


def test_straight_line_in_flat_space():
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (0.3, 1.1, -0.2, 0.4))
    trajectory = integrate_geodesic(MINK, state, (0.0, 2.0), step=0.01)
    lam, final = trajectory.samples[-1]
    assert lam == pytest.approx(2.0, abs=1e-12)
    exact = 2.0 * np.array([0.3, 1.1, -0.2, 0.4])
    assert np.abs(final.position.array() - exact).max() < 1e-12
    assert trajectory.max_norm_drift == 0.0


def test_step_must_be_positive():
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(StepSizeInvalid):
        integrate_geodesic(MINK, state, (0.0, 1.0), step=0.0)
    with pytest.raises(StepSizeInvalid):
        integrate_geodesic(MINK, state, (0.0, 1.0), step=-0.1)
    with pytest.raises(StepSizeInvalid):
        integrate_geodesic(MINK, state, (1.0, 1.0), step=0.1)


@pytest.mark.parametrize("span, step", [((0.0, math.inf), 0.1), ((-math.inf, 1.0), 0.1),
                                        ((0.0, math.nan), 0.1), ((0.0, 1.0), math.inf),
                                        ((0.0, 1e300), 1e-300), ((-1e308, 1e308), 0.1)])
def test_span_and_step_must_be_finite(span, step):
    """A span end, step or step count that is not finite is refused before
    any step, never an OverflowError or a one-sample trajectory. The count
    overflows when the quotient does, or the span's width itself."""
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(StepSizeInvalid, match="finite"):
        integrate_geodesic(MINK, state, span, step=step)


@pytest.mark.parametrize("span, step", [((0.0, 1e15), 0.01), ((0.0, 1e300), 1.0)])
def test_a_huge_finite_span_truncates_as_a_short_one(span, step):
    """Steps are counted, not listed: 1e17 steps would not fit in memory, and
    1e300 not in an index-sized int, yet a pole crossing stops within steps."""
    state = GeodesicState.of((0.0, 1.0, 0.05, 0.3), (1.0, 0.0, -1.0, 0.0))
    trajectory = integrate_geodesic(CAT.model("minkowski-spherical"), state, span, step=step)
    assert trajectory.truncated and trajectory.truncation_locus == "sin(theta)"
    assert len(trajectory.samples) <= 6


def test_lambda_samples_strictly_increasing():
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0))
    trajectory = integrate_geodesic(MINK, state, (0.0, 0.35), step=0.1)
    lams = [lam for lam, _ in trajectory.samples]
    assert lams == sorted(lams)
    assert lams[-1] == pytest.approx(0.35, abs=1e-12)  # remainder step lands the span


def test_infalling_trajectory_truncates_at_horizon_guard():
    state = GeodesicState.of((0.0, 2.2, math.pi / 2.0, 0.0), (3.0, -1.5, 0.0, 0.0))
    trajectory = integrate_geodesic(SCHW, state, (0.0, 2.0), step=0.01)
    assert trajectory.truncated
    assert "singular" in trajectory.truncation_reason.lower()
    assert trajectory.samples  # partial trajectory is returned


def radial_plunge(r0=3.5, energy=1.1, step=0.01):
    """Radial infall from r0 with conserved energy E = (1 - 2/r) v^t."""
    a = 1.0 - 2.0 / r0
    state = GeodesicState.of((0.0, r0, math.pi / 2.0, 0.0),
                             (energy / a, -math.sqrt(energy ** 2 - a), 0.0, 0.0))
    return integrate_geodesic(SCHW, state, (0.0, 20.0), step=step)


def test_radial_plunge_truncates_at_horizon():
    """Stage points are checked against the step start's locus signs: the
    step end alone lets an RK4 stage cross r = 2M and fling the curve out."""
    trajectory = radial_plunge()
    assert trajectory.truncated
    assert "r - 2.0*M" in trajectory.truncation_reason
    radii = [s.position.coordinates[1] for _, s in trajectory.samples]
    assert min(radii) > 2.0
    assert radii[-1] - 2.0 < 0.01 * 1.1  # within one step of dr/dlam ~ -E


def test_truncation_fields_on_plunge_and_pole_crossing():
    plunge = radial_plunge()
    assert plunge.truncation_locus == "r - 2.0*M"
    assert plunge.truncation_lambda == plunge.samples[-1][0]
    state = GeodesicState.of((0.0, 8.0, 0.05, 0.0), (1.2, 0.0, -0.1, 0.0))
    pole = integrate_geodesic(SCHW, state, (0.0, 2.0), step=0.02)
    assert pole.truncated and "sin(theta)" in pole.truncation_reason
    assert pole.truncation_locus == "sin(theta)"
    assert pole.truncation_lambda == pole.samples[-1][0]
    assert 0.0 < pole.samples[-1][1].position.coordinates[2] < 0.1 * 0.02 * 1.05
    whole = integrate_geodesic(SCHW, state, (0.0, 0.1), step=0.02)
    assert not whole.truncated
    assert whole.truncation_lambda is None and whole.truncation_locus == ""


def test_step_crossing_two_loci_names_the_one_crossed_first():
    """From r = 2.5 with E = 1 and step 10, the first stage point lies at
    r < 0: the segment crosses r = 2M before r = 0, so the horizon is named,
    not the first declared locus."""
    plunge = radial_plunge(r0=2.5, energy=1.0, step=10.0)
    assert plunge.truncated and plunge.truncation_lambda == 0.0
    assert plunge.truncation_locus == "r - 2.0*M"
    assert plunge.truncation_reason == ("step from lambda = 0.0 crossed the singular "
                                        "locus r - 2.0*M = 0")


def test_truncation_by_other_error_names_no_locus():
    singular = SpacetimeModel.from_components(
        name="singular-later", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "x - x*x"})
    state = GeodesicState.of((0.0, 0.5), (0.0, 1.0))
    trajectory = integrate_geodesic(singular, state, (0.0, 1.0), step=0.05)
    assert trajectory.truncated and trajectory.truncation_locus == ""
    assert trajectory.truncation_lambda == trajectory.samples[-1][0]


def test_circular_orbit_maintained_one_period():
    state, u_t, psi_dot = circular_orbit_state()
    period = TWO_PI / psi_dot
    trajectory = integrate_geodesic(SCHW, state, (0.0, period), step=0.02)
    radii = [s.position.coordinates[1] for _, s in trajectory.samples]
    assert max(abs(r - 6.0) for r in radii) < 1e-6
    # conserved energy and angular momentum certify the orbit relation
    energies, momenta = [], []
    for _, s in trajectory.samples:
        t, r, theta, phi = s.position.coordinates
        vt, vr, vtheta, vphi = s.velocity.components
        energies.append((1.0 - 2.0 / r) * vt)
        momenta.append(r ** 2 * math.sin(theta) ** 2 * vphi)
    assert max(energies) - min(energies) < 1e-9
    assert max(momenta) - min(momenta) < 1e-9
    # dphi/dt equals the circular-orbit frequency
    lam_end, final = trajectory.samples[-1]
    assert final.position.coordinates[3] / final.position.coordinates[0] == \
        pytest.approx(math.sqrt(1.0 / 216.0), rel=1e-9)


def test_norm_conservation_inclined_orbit():
    state, _, _ = circular_orbit_state(inclination=0.3)
    trajectory = integrate_geodesic(SCHW, state, (0.0, 2.0), step=1e-3)
    assert trajectory.norm_history[0] == pytest.approx(-1.0, abs=1e-12)
    assert trajectory.max_norm_drift <= 1e-10


def test_rk4_convergence_order():
    """Halving the step shrinks the position error about sixteenfold."""
    state, u_t, psi_dot = circular_orbit_state(inclination=0.3)

    def end_error(h, span=20.0):
        trajectory = integrate_geodesic(SCHW, state, (0.0, span), step=h)
        lam, final = trajectory.samples[-1]
        exact = inclined_orbit_exact(lam, 6.0, u_t, psi_dot, 0.3)
        return np.abs(final.position.array() - exact).max()

    ratio = end_error(0.2) / end_error(0.1)
    assert 12.0 <= ratio <= 20.0


def test_chain_rule_identity_along_geodesic():
    """Second differences of f(gamma(lam)) match the Hessian contraction;
    the first-derivative term drops out by the geodesic equation."""
    f = SCHW.field("r^2 + t")
    state, _, _ = circular_orbit_state(inclination=0.3)
    h = 1e-3
    trajectory = integrate_geodesic(SCHW, state, (0.0, 0.2), step=h)
    from stconvex.expressions import compile_value
    value = compile_value(f.ast, SCHW.coordinate_names, SCHW.parameters)
    values = [value(*s.position.coordinates) for _, s in trajectory.samples]
    report = convexity_along_curve(f, trajectory, c=0.0)
    for i in range(1, len(values) - 1):
        second_difference = (values[i + 1] - 2.0 * values[i] + values[i - 1]) / h ** 2
        assert second_difference == pytest.approx(report.margins[i], abs=1e-5)


def test_margin_matches_covariant_hessian():
    """The a . df form of the margin equals v . nabla nabla f . v - c g(v, v)."""
    f = SCHW.field("0.5*r^2 + sin(theta)*t")
    state, _, _ = circular_orbit_state(r=7.0, inclination=0.4)
    trajectory = integrate_geodesic(SCHW, state, (0.0, 5.0), step=0.1)
    report = convexity_along_curve(f, trajectory, c=0.3)
    for margin, (_, s) in zip(report.margins, trajectory.samples):
        hess = covariant_hessian(f, SCHW, s.position)
        vel = s.velocity.array()
        g = eval_metric(SCHW, s.position).g
        expected = float(vel @ hess @ vel - 0.3 * (vel @ g @ vel))
        assert margin == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_margin_spacelike_line():
    state = GeodesicState.of((0.0, 0.2, -0.4, 0.1), (0.0, 1.0, 0.0, 0.0))
    trajectory = integrate_geodesic(MINK, state, (0.0, 1.0), step=0.05)
    report = convexity_along_curve(canonical_field(1.0), trajectory, c=1.0)
    assert report.initial_class is VectorClass.SPACELIKE
    assert report.min_margin == pytest.approx(0.0, abs=1e-12)
    assert max(report.margins) == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_margin_timelike_line():
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    trajectory = integrate_geodesic(MINK, state, (0.0, 1.0), step=0.05)
    report = convexity_along_curve(canonical_field(1.0), trajectory, c=1.0)
    assert report.initial_class is VectorClass.TIMELIKE
    assert report.min_margin == pytest.approx(0.0, abs=1e-12)


def test_margin_constant_field_flags_violation():
    state = GeodesicState.of((0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    trajectory = integrate_geodesic(MINK, state, (0.0, 1.0), step=0.1)
    report = convexity_along_curve(MINK.field("7"), trajectory, c=1.0)
    assert report.min_margin == pytest.approx(-1.0, abs=1e-12)  # -c g(v, v)
    assert not report.passed


def test_spacelike_geodesic_margins_stay_nonnegative(rng):
    f = canonical_field(1.0)
    for _ in range(20):
        velocity = rng.uniform(-1.0, 1.0, 4)
        if float(-velocity[0] ** 2 + velocity[1:] @ velocity[1:]) <= 1e-6:
            continue
        state = GeodesicState.of(rng.uniform(-1.0, 1.0, 4), velocity)
        trajectory = integrate_geodesic(MINK, state, (0.0, 1.0), step=0.1)
        report = convexity_along_curve(f, trajectory, c=1.0)
        assert report.min_margin >= -1e-10


def test_closed_circle_probe():
    curve = CurveSpec.from_texts(("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)", "0"))
    report = closed_curve_probe(canonical_field(1.0), MINK, curve, c=1.0)
    assert report.obstructed
    assert report.min_margin == pytest.approx(-4.0 * math.pi ** 2, rel=1e-9)
    # the pointwise Hessian margin itself is fine: the obstruction is global
    assert report.min_hessian_margin == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("s", [0.0, 0.13, 0.5, 0.97, 1.0])
def test_curve_jets_bit_identical_to_per_component_jets(s):
    """One fused compiled call per s gives what four eval_jet2 calls gave."""
    curve = CurveSpec.from_texts(
        ("0.5*s", f"R*cos({TWO_PI!r}*s)", f"R*sin({TWO_PI!r}*s)^3", "exp(-s)*s^2"),
        extra_symbols=("R",))
    (pos,), (d1,), (d2,) = curve.jets([s], {"R": 1.7})
    jets = [eval_jet2(node, ("s",), (s,), {"R": 1.7}) for node in curve.components]
    assert pos.tolist() == [jet.value for jet in jets]
    assert d1.tolist() == [jet.gradient[0] for jet in jets]
    assert d2.tolist() == [jet.hessian[0, 0] for jet in jets]


def test_curve_jets_name_the_failing_component():
    curve = CurveSpec.from_texts(("0", "s", "log(s)", "0"))
    with pytest.raises(DomainError, match=r"while evaluating 'log\(s\)' at \(0\.0,\)"):
        curve.jets([0.0])


def test_closed_curve_on_singular_metric_raises():
    """The connection is built on first use, inside the probe, which still
    raises SingularMetric as the eager build did."""
    degenerate = SpacetimeModel.from_components(
        name="degenerate-flat", coordinate_names=("t", "x", "y", "z"),
        components={(0, 0): "-1", (1, 1): "1", (2, 2): "1", (3, 3): "0*x"})
    curve = CurveSpec.from_texts(("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)", "0"))
    with pytest.raises(SingularMetric):
        closed_curve_probe(canonical_field(1.0), degenerate, curve, c=1.0, n_samples=8)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_closed_curve_probe_needs_a_sample(n_samples):
    curve = CurveSpec.from_texts(("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)", "0"))
    with pytest.raises(ValueError, match="n_samples"):
        closed_curve_probe(canonical_field(1.0), MINK, curve, c=1.0, n_samples=n_samples)


_UNIT_LOOP = CurveSpec.from_texts(("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)", "0"))
#: argument name -> (error type, the library call with that count)
COUNT_ARGUMENTS = {
    "samples_per_axis": (ValueError, lambda n: certify_region(
        MINK, canonical_field(0.5), ConvexityQuery(((-1.0, 1.0),) * 4, samples_per_axis=n))),
    "n_samples": (ValueError, lambda n: closed_curve_probe(
        canonical_field(1.0), MINK, _UNIT_LOOP, c=1.0, n_samples=n)),
    "n": (OutOfDomain, lambda n: barrier_scan(1.0, 0.5, 1.9, n)),
}


@pytest.mark.parametrize("count", [2.5, 3.0, "3"])
@pytest.mark.parametrize("argument", list(COUNT_ARGUMENTS))
def test_library_counts_must_be_integers(argument, count):
    """A count that is not an int or a numpy integer is refused with the
    function's own error type, naming the argument; a numpy integer is a count."""
    error, call = COUNT_ARGUMENTS[argument]
    with pytest.raises(error, match=f"^{argument} must be at least . and an int, got"):
        call(count)
    call(np.int64(3))


NON_FINITE_MARGIN_INPUTS = pytest.mark.parametrize("c, tolerance", [
    (math.nan, 1e-10), (math.inf, 1e-10), (1.0, math.nan), (1.0, math.inf)])


@NON_FINITE_MARGIN_INPUTS
def test_convexity_along_curve_rejects_non_finite_inputs(c, tolerance):
    """A NaN c or tolerance is refused, not reported as min_margin nan."""
    state = GeodesicState.of((0.0, 0.2, -0.4, 0.1), (0.0, 1.0, 0.0, 0.0))
    trajectory = integrate_geodesic(MINK, state, (0.0, 1.0), step=0.1)
    with pytest.raises(ValueError, match="must both be finite"):
        convexity_along_curve(canonical_field(1.0), trajectory, c, tolerance)


def test_convexity_along_curve_rejects_an_empty_trajectory():
    empty = Trajectory(MINK, samples=(), norm_history=(), accelerations=(), step_size=0.1)
    with pytest.raises(ValueError, match="^empty trajectory$"):
        convexity_along_curve(canonical_field(1.0), empty, 1.0)


@NON_FINITE_MARGIN_INPUTS
def test_closed_curve_probe_rejects_non_finite_inputs(c, tolerance):
    curve = CurveSpec.from_texts(("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)", "0"))
    with pytest.raises(ValueError, match="must both be finite"):
        closed_curve_probe(canonical_field(1.0), MINK, curve, c, 8, tolerance)


def test_open_curve_rejected():
    curve = CurveSpec.from_texts(("0", "s", "0", "0"))
    with pytest.raises(NotClosed):
        closed_curve_probe(canonical_field(1.0), MINK, curve, c=1.0)


def test_degenerate_loop_rejected():
    curve = CurveSpec.from_texts(("0", "1", "0", "0"))
    with pytest.raises(NotClosed):
        closed_curve_probe(canonical_field(1.0), MINK, curve, c=1.0)


def test_margin_scan_makes_one_metric_evaluation(monkeypatch):
    """The scan reads the trajectory's accelerations and g(v, v); only the
    classification of the first velocity evaluates the metric."""
    state, _, _ = circular_orbit_state(r=7.0, inclination=0.4)
    trajectory = integrate_geodesic(SCHW, state, (0.0, 12.0), step=0.1)
    assert len(trajectory.samples) > 100
    calls = []
    original = MetricEvaluator.metric_at

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(MetricEvaluator, "metric_at", counted)
    report = convexity_along_curve(SCHW.field("0.5*r^2 + sin(theta)*t"), trajectory, c=0.3)
    assert len(calls) <= 1 and len(report.margins) == len(trajectory.samples)


def test_recorded_accelerations_are_the_checked_metric_solve():
    """accelerations[i] is, bit for bit, the solve with the checked metric at
    sample i, the last sample included, and the scan's margins equal the
    margins formed from a per-sample metric evaluation bit for bit."""
    f = SCHW.field("0.5*r^2 + sin(theta)*t")
    state, _, _ = circular_orbit_state(r=7.0, inclination=0.4)
    trajectory = integrate_geodesic(SCHW, state, (0.0, 5.0), step=0.1)
    report = convexity_along_curve(f, trajectory, c=0.3)
    assert len(trajectory.accelerations) == len(trajectory.samples)
    for a, margin, (_, s) in zip(trajectory.accelerations, report.margins, trajectory.samples):
        m = eval_metric(SCHW, s.position)
        vel = s.velocity.array()
        accel = geodesic_acceleration(m.g, m.first_derivatives, vel)
        assert a.tobytes() == accel.tobytes()
        jet = eval_jet2(f.ast, SCHW.coordinate_names, s.position.coordinates, SCHW.parameters)
        assert margin == float(vel @ jet.hessian @ vel + accel @ jet.gradient
                               - 0.3 * float(vel @ m.g @ vel))


def test_stage_past_a_locus_where_a_component_is_undefined_names_the_locus():
    """A stage point at x < 0 is judged on the locus signs before the
    components, so 1/sqrt(x) is never evaluated there: the step is reported
    as a crossing of x = 0, not as a DomainError with no locus."""
    chart = SpacetimeModel.from_components(
        name="sqrt-chart", coordinate_names=("t", "x"),
        components={(0, 0): "-1", (1, 1): "1/sqrt(x)"}, singular_loci=("x",))
    state = GeodesicState.of((0.0, 1.0), (1.0, -1.0))
    trajectory = integrate_geodesic(chart, state, (0.0, 5.0), step=0.3)
    assert trajectory.truncated and trajectory.truncation_locus == "x"
    assert trajectory.truncation_reason == ("step from lambda = 1.2 crossed the singular "
                                            "locus x = 0")
    assert trajectory.truncation_lambda == trajectory.samples[-1][0] == 1.2


@pytest.mark.parametrize("call", [
    lambda: integrate_geodesic(MINK, GeodesicState.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
                               (0.0, 1.0)),
    lambda: closed_curve_probe(canonical_field(1.0), MINK, CurveSpec.from_texts(
        ("0", f"cos({TWO_PI!r}*s)", f"sin({TWO_PI!r}*s)")), c=1.0),
], ids=["integrate_geodesic", "closed_curve_probe"])
def test_dimension_mismatch_is_refused(call):
    with pytest.raises(ValueError, match="dimension does not match the chart"):
        call()
