"""Geodesic integration and convexity probes along curves.

Geodesics are integrated with classical fixed-step RK4 on

    dx^mu/dlam = v^mu,    dv^mu/dlam = a^mu = -Gamma^mu_{nu rho} v^nu v^rho,

with g(v, v) recorded at every sample as a conserved-quantity diagnostic.
The acceleration is solved with g at each stage, g_{ms} a^s = -w_m with
w_m = d_n g_{mr} v^n v^r - 1/2 d_m g_{nr} v^n v^r, so neither g^{-1} nor
Gamma is formed; each sample keeps the one solved there. Every stage point
and step end is judged in one order: the locus guard, the locus signs
against the step start's, the components, and at a step end the checks.

The probes evaluate the pointwise margin

    m(lam) = V^mu V^nu nabla_mu nabla_nu f - c g(V, V)
           = V . dd f . V + a . df - c g(V, V)

with V the curve tangent and a its geodesic acceleration, from one pure
helper of (jet, V, a, g(V, V), c). A trajectory's scan reads the recorded a
and g(V, V) and evaluates no metric per sample; a loop takes one unchecked
metric evaluation and one solve per sample, and its full margin
d^2(f o gamma)/ds^2 - c g(V, V) puts the curve's own acceleration for a.
For a field certified with constant c, the margin is nonnegative along every
geodesic, and no closed spacelike loop can keep the *full* second derivative
of f along the curve above c g(V, V) (a periodic function has no strictly
convex parametrization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import NotClosed, SingularMetric, StepSizeInvalid, ToolkitError
from .geometry import (Point, SpacetimeModel, TangentVector, VectorClass,
                       classify_vector, evaluator_for, field_jet, geodesic_acceleration)

DEFAULT_STEP = 1e-3
#: default tolerance of both curve probes: a margin passes when >= -this
MARGIN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GeodesicState:
    position: Point
    velocity: TangentVector

    @classmethod
    def of(cls, position, velocity) -> "GeodesicState":
        p = Point(position)
        return cls(p, TangentVector(velocity, p))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated curve: (lam, state) samples, each with its g(v, v) and the
    geodesic acceleration solved there (its RK4 step's k1).

    A truncated trajectory records the lam of the step it could not take
    (its last sample's lam) and the source text of the singular locus that
    stopped it, empty when another error did."""

    model: SpacetimeModel
    samples: tuple[tuple[float, GeodesicState], ...]
    norm_history: tuple[float, ...]
    accelerations: tuple[np.ndarray, ...]
    step_size: float
    truncated: bool = False
    truncation_reason: str = ""
    truncation_lambda: float | None = None
    truncation_locus: str = ""

    @property
    def max_norm_drift(self) -> float:
        base = self.norm_history[0]
        return max(abs(v - base) for v in self.norm_history)


def integrate_geodesic(model: SpacetimeModel, s0: GeodesicState,
                       lambda_span: tuple[float, float],
                       step: float = DEFAULT_STEP) -> Trajectory:
    """Fixed-step RK4; no adaptivity, so runs are deterministic and step
    halving quarters-squared the position error. Entering a declared
    singular-locus guard, or a stage point or step end on the other side of
    a locus than the step's start, truncates the trajectory instead of
    raising."""
    if not 0.0 < step < math.inf:
        raise StepSizeInvalid(f"step must be positive and finite, got {step!r}")
    lam0, lam1 = float(lambda_span[0]), float(lambda_span[1])
    if not -math.inf < lam0 < lam1 < math.inf:
        raise StepSizeInvalid(f"parameter span {lambda_span!r} is empty or not finite")
    evaluator = evaluator_for(model)
    x = np.array(s0.position.coordinates, dtype=float)
    v = np.array(s0.velocity.components, dtype=float)
    if len(x) != model.dimension or len(v) != model.dimension:
        raise ValueError("initial state dimension does not match the chart")

    def judge(coords, vel, start, lam, checks=False):
        """(locus values, g, acceleration) at a stage point or step end, judged in
        one order: guard, locus signs against start's (naming the locus crossed
        first, by the linear fraction a / (a - b)), components, step-end checks."""
        point = Point(coords)
        values = evaluator.guard(point.coordinates)
        crossed = [(a / (a - b), node) for node, a, b in zip(model.singular_loci, start, values)
                   if a * b < 0.0]
        if crossed:
            locus = ex.to_source(min(crossed, key=lambda c: c[0])[1])
            raise SingularMetric(f"step from lambda = {lam} crossed the singular "
                                 f"locus {locus} = 0", locus=locus)
        m = evaluator.metric_at(point, checks=checks)
        return values, m.g, geodesic_acceleration(m.g, m.first_derivatives, vel)

    count = (lam1 - lam0) / step + 1e-12
    if count == math.inf:
        raise StepSizeInvalid(f"parameter span {lambda_span!r} with step {step!r} "
                              "gives a step count that is not finite")
    n_full = int(np.floor(count))
    remainder = (lam1 - lam0) - n_full * step
    n_steps = n_full + (remainder > 1e-12)  # a range holds any count; a list would not

    samples = []
    norms = []
    accels = []
    lam = lam0
    truncated = False
    reason = ""
    stop_lambda = None
    stop_locus = ""
    loci_here, g_here, a_here = judge(x, v, (), lam, checks=True)  # no signs to keep yet
    for i in range(n_steps + 1):
        samples.append((lam, GeodesicState.of(x, v)))
        norms.append(float(v @ g_here @ v))
        accels.append(a_here)
        if i == n_steps:
            break
        h = step if i < n_full else remainder
        try:
            k2x = v + 0.5 * h * a_here
            k2v = judge(x + 0.5 * h * v, k2x, loci_here, lam)[2]
            k3x = v + 0.5 * h * k2v
            k3v = judge(x + 0.5 * h * k2x, k3x, loci_here, lam)[2]
            k4x = v + h * k3v
            k4v = judge(x + h * k3x, k4x, loci_here, lam)[2]
            x_next = x + (h / 6.0) * (v + 2.0 * k2x + 2.0 * k3x + k4x)
            v_next = v + (h / 6.0) * (a_here + 2.0 * k2v + 2.0 * k3v + k4v)
            loci_here, g_here, a_here = judge(x_next, v_next, loci_here, lam, checks=True)
            x, v = x_next, v_next
            lam = lam + h
        except ToolkitError as exc:
            truncated = True
            reason = str(exc)
            stop_lambda = samples[-1][0]
            stop_locus = getattr(exc, "locus", "")
            break
    return Trajectory(model=model, samples=tuple(samples), norm_history=tuple(norms),
                      accelerations=tuple(accels), step_size=step, truncated=truncated,
                      truncation_reason=reason, truncation_lambda=stop_lambda,
                      truncation_locus=stop_locus)


def _margin(jet, v, a, gvv, c) -> float:
    """v . dd f . v + a . df - c g(v, v) from the field jet at a point, the
    tangent v there, an acceleration a and g(v, v)."""
    return float(v @ jet.hessian @ v + a @ jet.gradient - c * gvv)


@dataclass(frozen=True)
class MarginReport:
    """Pointwise convexity margins along a trajectory."""

    margins: tuple[float, ...]
    min_margin: float
    argmin_lambda: float
    c: float
    tolerance: float
    initial_class: VectorClass

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tolerance


def convexity_along_curve(f: ex.ScalarField, trajectory: Trajectory, c: float,
                          tolerance: float = MARGIN_TOLERANCE) -> MarginReport:
    """m(lam) = v^mu v^nu nabla_mu nabla_nu f - c g(v, v) at every sample."""
    if not trajectory.samples:
        raise ValueError("empty trajectory")
    if not (math.isfinite(c) and math.isfinite(tolerance)):
        raise ValueError(f"c = {c!r} and tolerance = {tolerance!r} must both be finite")
    model = trajectory.model
    # the trajectory's own accelerations and g(v, v): no metric evaluation per sample
    margins = [_margin(field_jet(f, model, state.position), state.velocity.array(), a, gvv, c)
               for (_, state), a, gvv in zip(trajectory.samples, trajectory.accelerations,
                                             trajectory.norm_history)]
    start = trajectory.samples[0][1]
    initial_class = classify_vector(
        evaluator_for(model).metric_at(start.position, checks=False), start.velocity)
    idx = int(np.argmin(margins))
    return MarginReport(
        margins=tuple(margins),
        min_margin=margins[idx],
        argmin_lambda=trajectory.samples[idx][0],
        c=c,
        tolerance=tolerance,
        initial_class=initial_class,
    )


@dataclass(frozen=True)
class CurveSpec:
    """A coordinate curve given by expressions in the parameter s on [0, 1],
    evaluated as one fused set: one compiled call per parameter value."""

    components: tuple[ex.Expr, ...]

    @classmethod
    def from_texts(cls, texts, extra_symbols=()) -> "CurveSpec":
        asts = tuple(ex.parse(t, ("s",) + tuple(extra_symbols)) for t in texts)
        return cls(asts)

    def jets(self, s, parameters=None):
        """Exact position, d/ds and d2/ds2 at each s of a 1-D sequence, as (len(s), d) arrays."""
        fn = ex.compile_jet2(self.components, ("s",), parameters)  # one lookup per call
        # per s, each component contributes (value, d/ds, d2/ds2); the three
        # arrays are copied out so that their rows are contiguous vectors
        flat = np.array([fn(float(v)) for v in s]).reshape(len(s), len(self.components), 3)
        return tuple(np.ascontiguousarray(flat[:, :, k]) for k in range(3))


@dataclass(frozen=True)
class ClosedCurveReport:
    """Outcome of the closed-loop probe. `obstructed` means the loop cannot
    be a geodesic of a spacetime where f is certified at this c: the full
    second derivative of f along the loop drops below c g(v, v) somewhere,
    as it must, since f composed with a closed curve is periodic."""

    obstructed: bool
    min_margin: float
    argmin_parameter: float
    min_hessian_margin: float
    c: float
    n_samples: int


def closed_curve_probe(f: ex.ScalarField, model: SpacetimeModel, curve: CurveSpec,
                       c: float, n_samples: int = 256,
                       tolerance: float = MARGIN_TOLERANCE) -> ClosedCurveReport:
    """Evaluate d^2(f o gamma)/ds^2 - c g(gamma', gamma') around the loop."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be at least 1 and an int, got {n_samples!r}")
    if not (math.isfinite(c) and math.isfinite(tolerance)):
        raise ValueError(f"c = {c!r} and tolerance = {tolerance!r} must both be finite")
    (start, end), _, _ = curve.jets((0.0, 1.0), model.parameters)
    if float(np.max(np.abs(end - start))) > 1e-9:
        raise NotClosed(f"curve endpoints differ by {np.max(np.abs(end - start)):.3e}")
    if len(start) != model.dimension:
        raise ValueError("curve dimension does not match the chart")
    evaluator = evaluator_for(model)
    grid = np.linspace(0.0, 1.0, n_samples, endpoint=False)
    positions, ds, dss = curve.jets(grid, model.parameters)
    if float(np.max(np.abs(positions - start))) < 1e-12:
        raise NotClosed("degenerate loop: all samples coincide")
    min_margin = np.inf
    argmin = 0.0
    min_hess_margin = np.inf
    for s, pos, d1, d2 in zip(grid, positions, ds, dss):
        metric_at = evaluator.metric_at(Point(pos), checks=False)
        jet = field_jet(f, model, metric_at.point)
        gvv = float(d1 @ metric_at.g @ d1)
        accel = geodesic_acceleration(metric_at.g, metric_at.first_derivatives, d1)
        # d^2(f o gamma)/ds^2 takes the curve's own acceleration; it needs no chart term
        margin = _margin(jet, d1, d2, gvv, c)
        if margin < min_margin:
            min_margin = margin
            argmin = float(s)
        min_hess_margin = min(min_hess_margin, _margin(jet, d1, accel, gvv, c))
    return ClosedCurveReport(
        obstructed=min_margin < -tolerance,
        min_margin=float(min_margin),
        argmin_parameter=argmin,
        min_hessian_margin=float(min_hess_margin),
        c=c,
        n_samples=n_samples,
    )
