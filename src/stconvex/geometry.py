"""Pointwise metric evaluation, Christoffel symbols, covariant Hessians, and
causal classification on an arbitrary coordinate chart.

Conventions fixed throughout the package: signature (-, +, ..., +), geometric
units (G = c = 1), index order Gamma[mu, nu, rho] = Gamma^mu_{nu rho}, and
metric-derivative array dg[lam, mu, nu] = d_lam g_{mu nu}.

All operations here are pure functions of their inputs and safe to evaluate
concurrently over disjoint points.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .errors import (DomainError, NullGradient, SingularMetric, UnknownSymbol,
                     WrongSignature)

#: reject metrics whose condition estimate (infinite when singular) reaches this
CONDITION_CAP = 1e12
#: |eigenvalue| <= this times the largest is zero: a g within the cap has none
SIGNATURE_TOL = 1 / CONDITION_CAP
#: minimum allowed distance (in the locus expression's value) from singular loci
LOCUS_GUARD = 1e-6
#: |g(V, V)| at most this classifies V as null; a level-set gradient df is null
#: when |df . g^-1 df| is at most this times |df| |g^-1 df| (Euclidean norms)
NULL_TOL = 1e-10


@dataclass(frozen=True)
class Point:
    """An event: ordered chart coordinates."""

    coordinates: tuple[float, ...]

    def __init__(self, coordinates):
        object.__setattr__(self, "coordinates", tuple(float(c) for c in coordinates))

    def __len__(self):
        return len(self.coordinates)

    def array(self) -> np.ndarray:
        return np.array(self.coordinates)


@dataclass(frozen=True)
class TangentVector:
    """Contravariant components V^mu attached to a base point."""

    components: tuple[float, ...]
    base: Point

    def __init__(self, components, base):
        object.__setattr__(self, "components", tuple(float(c) for c in components))
        object.__setattr__(self, "base", base)

    def array(self) -> np.ndarray:
        return np.array(self.components)


@dataclass(frozen=True)
class BlockForm:
    """Declared 2+2 warped-product split: a 2D Lorentzian base block whose
    components depend only on the base coordinates, plus round fibers of area
    radius R(y). `future` is a base-block vector fixing the future time
    orientation."""

    base_indices: tuple[int, int]
    area_radius: ex.Expr
    future: tuple[float, float]


@dataclass(frozen=True, eq=False)
class SpacetimeModel:
    """A coordinate chart plus metric-component expressions and parameters.

    `components` is a symmetric matrix of expression ASTs; symmetric entries
    share the same AST object so evaluated matrices are symmetric to the bit.
    `singular_loci` are expressions whose zero sets the chart must avoid
    (enforced with a guard of LOCUS_GUARD on the expression value).
    """

    name: str
    coordinate_names: tuple[str, ...]
    components: tuple[tuple[ex.Expr, ...], ...]
    parameters: dict[str, float] = field(default_factory=dict)
    singular_loci: tuple[ex.Expr, ...] = ()
    sample_box: tuple[tuple[float, float], ...] | None = None
    block_form: BlockForm | None = None

    @classmethod
    def from_components(cls, name, coordinate_names, components, parameters=None,
                        singular_loci=(), sample_box=None, block_form=None):
        """Build a model from a dict mapping (i, j) index pairs (upper triangle
        suffices) to component source text. Unlisted components are zero."""
        coords = tuple(coordinate_names)
        dim = len(coords)
        if dim < 2:
            raise ValueError("a spacetime chart needs at least 2 coordinates")
        parameters = dict(parameters or {})
        declared = coords + tuple(parameters)
        zero = ex.Num(0.0)
        asts = [[zero] * dim for _ in range(dim)]
        for (i, j), text in components.items():
            asts[i][j] = asts[j][i] = ex.parse(text, declared)
        loci = tuple(ex.parse(t, declared) for t in singular_loci)
        bf = None
        if block_form is not None:
            base, radius_text, future = block_form
            bf = BlockForm(tuple(base), ex.parse(radius_text, declared),
                           tuple(float(c) for c in future))
        return cls(name=name, coordinate_names=coords,
                   components=tuple(tuple(row) for row in asts),
                   parameters=parameters, singular_loci=loci,
                   sample_box=tuple(sample_box) if sample_box else None, block_form=bf)

    @property
    def dimension(self) -> int:
        return len(self.coordinate_names)

    def with_parameters(self, **overrides) -> "SpacetimeModel":
        unknown = set(overrides) - set(self.parameters)
        if unknown:
            raise UnknownSymbol(sorted(unknown)[0])
        merged = dict(self.parameters)
        merged.update({k: float(v) for k, v in overrides.items()})
        return replace(self, parameters=merged)

    def field(self, text: str) -> ex.ScalarField:
        """Parse a scalar-field expression over this chart."""
        return ex.ScalarField.from_text(text, self.coordinate_names + tuple(self.parameters))


@dataclass(frozen=True, eq=False)
class MetricAt:
    """Metric data at one point: components and first derivatives, with the
    inverse and the Christoffel symbols Gamma^mu_{nu rho} built on first use
    of either (one cached solve), so a caller that never reads them pays
    nothing. Reading either on a singular g raises SingularMetric."""

    point: Point
    g: np.ndarray
    first_derivatives: np.ndarray  # dg[lam, mu, nu] = d_lam g_{mu nu}
    #: (g^{-1}, Gamma) once built
    _connection: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def _solved(self):
        if self._connection is None:
            object.__setattr__(self, "_connection", _inverse_and_christoffels(
                self.g, self.first_derivatives, self.point.coordinates))
        return self._connection

    @property
    def g_inverse(self) -> np.ndarray:
        return self._solved()[0]

    @property
    def christoffels(self) -> np.ndarray:
        return self._solved()[1]


class VectorClass(enum.Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"


def _sign_counts(eigenvalues, tol=SIGNATURE_TOL):
    """(negative, zero, positive) counts of float eigenvalues, zero meaning
    |lambda| <= tol * max |lambda|, so the counts do not depend on units."""
    bound = tol * max(map(abs, eigenvalues))
    negative = sum(e < -bound for e in eigenvalues)
    zero = sum(abs(e) <= bound for e in eigenvalues)
    return negative, zero, len(eigenvalues) - negative - zero


class MetricEvaluator:
    """Prepared evaluator for one model; the hot path for integrators.

    Two fused sets are compiled once, at preparation time: the unique
    components, whose values and gradients two precomputed index arrays
    scatter into g and dg, and the singular loci, kept apart so that the
    guard fires before a component undefined at a locus can raise.
    """

    def __init__(self, model: SpacetimeModel):
        self.name = model.name  # not the model: it is this evaluator's weak cache key
        self.names = model.coordinate_names
        self.params = dict(model.parameters)
        d = model.dimension
        self.dim = d
        unique = []
        seen = {}  # id(ast) -> position in unique
        slot = np.zeros((d, d), dtype=np.intp)
        for i in range(d):
            for j in range(i, d):
                node = model.components[i][j]
                if id(node) not in seen:
                    seen[id(node)] = len(unique)
                    unique.append(node)
                slot[i, j] = slot[j, i] = seen[id(node)]
        self._fused = ex.compile_jet1(tuple(unique), self.names, self.params)
        # the fused tuple holds (value, gradient...) per unique component, so
        # d_lam of slot (i, j) sits 1 + lam after that component's value
        self._g_index = slot * (d + 1)
        self._dg_index = self._g_index[None, :, :] + 1 + np.arange(d)[:, None, None]
        self._loci = tuple(model.singular_loci)
        self._locus_values = ex.compile_value(self._loci, self.names, self.params)

    def guard(self, coords):
        """The signed locus-expression values at coords, whose sign change
        between two points means the segment crossed a locus. Raises
        SingularMetric when within the declared locus guard; every locus is
        evaluated before any is compared."""
        values = self._locus_values(*coords)
        for value, node in zip(values, self._loci):
            if abs(value) < LOCUS_GUARD:
                locus = ex.to_source(node)
                raise SingularMetric(
                    f"point {tuple(coords)} lies on or within {LOCUS_GUARD} of the "
                    f"singular locus {locus} = 0 of '{self.name}'", locus=locus)
        return values

    def components(self, coords):
        """(g, dg) with dg[lam, mu, nu] = d_lam g_{mu nu}, by exact jets, all
        finite: the compiled code raises a DomainError otherwise, re-raised
        here naming the model. The singular-locus guard is not applied here."""
        try:
            flat = np.array(self._fused(*coords))
        except DomainError as exc:
            raise DomainError(f"{exc} [metric of '{self.name}' at {coords}]") from None
        return flat[self._g_index], flat[self._dg_index]

    def metric_at(self, point: Point, checks=True) -> MetricAt:
        coords = point.coordinates
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, chart has {self.dim}")
        self.guard(coords)
        g, dg = self.components(coords)
        if checks:
            # one eigendecomposition gives both checks; a zero eigenvalue by the rule of
            # _sign_counts is a 2-norm condition number of at least the cap, rejected first
            eigenvalues = np.linalg.eigvalsh(g).tolist()
            smallest, largest = min(map(abs, eigenvalues)), max(map(abs, eigenvalues))
            if smallest <= SIGNATURE_TOL * largest:
                cond = largest / smallest if smallest else math.inf
                raise SingularMetric(f"metric condition estimate {cond:.3e} exceeds "
                                     f"{CONDITION_CAP:.0e} at {coords}")
            negative, zero, positive = _sign_counts(eigenvalues)
            if (negative, zero) != (1, 0):
                raise WrongSignature(
                    f"metric signature ({negative} negative, {zero} zero, {positive} positive) "
                    f"is not Lorentzian at {coords}")
        return MetricAt(point, g, dg)


def christoffels_from(g_inverse, dg) -> np.ndarray:
    """Gamma^mu_{nu rho} = 1/2 g^{mu sig}(d_nu g_{sig rho} + d_rho g_{sig nu}
    - d_sig g_{nu rho}) as one product of g^{-1} with the permuted sums, reshaped
    to (d, d^2); exactly symmetric in (nu, rho) because the sums are, as dg is."""
    d = g_inverse.shape[0]
    lowered = dg.transpose(1, 0, 2)  # lowered[sig, nu, rho] = d_nu g_{sig rho}
    sums = lowered + lowered.transpose(0, 2, 1) - dg
    return (0.5 * (g_inverse @ sums.reshape(d, d * d))).reshape(d, d, d)


def _inverse_and_christoffels(g, dg, coords):
    """(g^{-1}, Gamma) by LU with partial pivoting; the inverse is symmetrized
    so the connection stays symmetric to the bit."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric is singular at {coords}") from None
    ginv = 0.5 * (ginv + ginv.T)
    return ginv, christoffels_from(ginv, dg)


def geodesic_acceleration(g, dg, v) -> np.ndarray:
    """-Gamma^mu_{nu rho} v^nu v^rho by one solve with g: with
    w_s = d_n g_{sr} v^n v^r - 1/2 d_s g_{nr} v^n v^r, the acceleration is
    -g^{-1} w, and neither g^{-1} nor Gamma is formed."""
    dv = dg @ v  # dv[lam, mu] = d_lam g_{mu nu} v^nu
    try:
        return -np.linalg.solve(g, v @ dv - 0.5 * (dv @ v))
    except np.linalg.LinAlgError:
        raise SingularMetric("metric is singular; no geodesic acceleration") from None


def covariant_hessian_from(gradient, hessian, christoffels) -> np.ndarray:
    """d_mu d_nu f - Gamma^lam_{mu nu} d_lam f from the partials of f and a
    connection, which may be restricted to a slice's coordinates."""
    return hessian - np.einsum("l,lmn->mn", gradient, christoffels)


_EVALUATORS: "weakref.WeakKeyDictionary[SpacetimeModel, MetricEvaluator]" = \
    weakref.WeakKeyDictionary()


def evaluator_for(model: SpacetimeModel) -> MetricEvaluator:
    """Cached prepared evaluator (models are immutable, so this is safe)."""
    found = _EVALUATORS.get(model)
    if found is None:
        found = MetricEvaluator(model)
        _EVALUATORS[model] = found
    return found


def eval_metric(model: SpacetimeModel, p: Point) -> MetricAt:
    """Checked metric data at a point: the condition cap, then the signature."""
    return evaluator_for(model).metric_at(p)


def field_jet(f: ex.ScalarField, model: SpacetimeModel, p: Point) -> ex.Jet2:
    return ex.eval_jet2(f.ast, model.coordinate_names, p.coordinates, model.parameters)


def covariant_hessian(f: ex.ScalarField, model: SpacetimeModel, p: Point,
                      metric_at: MetricAt | None = None) -> np.ndarray:
    """nabla_mu nabla_nu f = d_mu d_nu f - Gamma^lam_{mu nu} d_lam f."""
    if metric_at is None:
        metric_at = eval_metric(model, p)
    jet = field_jet(f, model, p)
    return covariant_hessian_from(jet.gradient, jet.hessian, metric_at.christoffels)


def classify_vector(metric_at: MetricAt, v: TangentVector) -> VectorClass:
    """Causal character of V from the sign of g(V, V)."""
    if v.base != metric_at.point:
        raise ValueError("vector is not based at the metric's point")
    comps = v.array()
    if comps.shape[0] != metric_at.g.shape[0]:
        raise ValueError("vector dimension does not match the chart")
    q = float(comps @ metric_at.g @ comps)
    if abs(q) <= NULL_TOL:
        return VectorClass.NULL
    return VectorClass.TIMELIKE if q < 0 else VectorClass.SPACELIKE


def gradient_invariant(f: ex.ScalarField, model: SpacetimeModel, p: Point) -> tuple[int, float]:
    """(eps, norm) with eps = sign of grad f . grad f and norm = sqrt(eps *
    grad f . grad f); raises NullGradient when the gradient is null."""
    _, _, eps, norm, _ = _gradient_data(f, model, p)
    return eps, norm


def _gradient_data(f, model, p, metric_at=None):
    """(jet, metric_at, eps, norm, raised gradient) shared by level-set code."""
    if metric_at is None:
        metric_at = eval_metric(model, p)
    jet = field_jet(f, model, p)
    grad_up = metric_at.g_inverse @ jet.gradient
    q = float(jet.gradient @ grad_up)
    # null relative to the Cauchy-Schwarz bound |q| <= |df| |g^-1 df|, which
    # scales as q does under f -> lambda f and g -> s g; a zero gradient is null
    if abs(q) <= NULL_TOL * math.sqrt(float(jet.gradient @ jet.gradient)
                                      * float(grad_up @ grad_up)):
        raise NullGradient(f"grad f . grad f = {q:.3e} at {p.coordinates}; "
                           "the level set is degenerate there")
    eps = 1 if q > 0 else -1
    return jet, metric_at, eps, float(np.sqrt(eps * q)), grad_up
