"""Pointwise metric evaluation, Christoffel symbols, covariant Hessians, and
causal classification on an arbitrary coordinate chart.

Conventions fixed throughout the package: signature (-, +, ..., +), geometric
units (G = c = 1), index order Gamma[mu, nu, rho] = Gamma^mu_{nu rho}, and
metric-derivative array dg[lam, mu, nu] = d_lam g_{mu nu}.

`MetricEvaluator.metric_at`, `covariant_hessian` and `field_jet` take one
Point, or an (N, d) coordinate array, for which they evaluate the N points
as one stack: the metric, its derivatives, g^-1, Gamma and the Hessian then
carry a leading axis of N, and each row equals the single point's result to
the bit. A single Point runs the scalar code and never a one-row stack.

Every operation here is a function of its inputs alone and safe to evaluate
concurrently over disjoint points. Besides the prepared evaluators, the one
thing kept between calls is each evaluator's last single-point `metric_at`
result, which a later call at the same coordinates, bit for bit, gets back
as the same object (the level-set probes ask for the metric three times at
each point). Sharing it is safe: a `MetricAt`'s arrays are read-only, its
lazily built g^-1 and Gamma have the same bits whoever builds them first,
and the kept entry is replaced in one assignment, so a thread sees the old
entry or the new one, never half of each.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .errors import DomainError, SingularMetric, UnknownSymbol, WrongSignature

#: reject metrics whose condition estimate (infinite when singular) reaches this
CONDITION_CAP = 1e12
#: |eigenvalue| <= this times the largest is zero: a g within the cap has none
SIGNATURE_TOL = 1 / CONDITION_CAP
#: minimum allowed distance (in the locus expression's value) from singular loci
LOCUS_GUARD = 1e-6
#: V is null when |g(V, V)| is at most this times |V| |gV|, and a level-set
#: gradient df when |df . g^-1 df| is at most this times |df| |g^-1 df|
#: (Euclidean norms: the Cauchy-Schwarz bound)
NULL_TOL = 1e-10


def _is_null(q, a, b) -> bool:
    """The null test for q = a . b: |q| <= NULL_TOL |a| |b|."""
    return abs(q) <= NULL_TOL * math.sqrt(float(a @ a) * float(b @ b))


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
    nothing. Reading either on a singular g raises SingularMetric. For a
    stack, point is the (N, d) coordinate array and every array has a
    leading axis of N. Every array is read-only, since one MetricAt may be
    handed to every caller at its point (`MetricEvaluator.metric_at`)."""

    point: Point | np.ndarray
    g: np.ndarray
    first_derivatives: np.ndarray  # dg[lam, mu, nu] = d_lam g_{mu nu}
    #: (g^{-1}, Gamma) once built
    _connection: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.g.setflags(write=False)
        self.first_derivatives.setflags(write=False)

    def _solved(self):
        if self._connection is None:
            where = getattr(self.point, "coordinates", self.point)
            connection = _inverse_and_christoffels(self.g, self.first_derivatives, where)
            for array in connection:
                array.setflags(write=False)
            object.__setattr__(self, "_connection", connection)
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
    """(negative, zero, positive) counts of eigenvalues along the last axis,
    zero meaning |lambda| <= tol * max |lambda| over that axis, so the counts
    do not depend on units: integer scalars for one (d,) array of
    eigenvalues, (N,) arrays for an (N, d) block."""
    eigenvalues = np.asarray(eigenvalues)
    magnitudes = np.abs(eigenvalues)
    # ufunc reductions skip the µs-scale Python wrappers of .max and .sum
    bound = tol * np.maximum.reduce(magnitudes, axis=-1, keepdims=True)
    negative = np.add.reduce(eigenvalues < -bound, axis=-1)
    zero = np.add.reduce(magnitudes <= bound, axis=-1)
    return negative, zero, eigenvalues.shape[-1] - negative - zero


def _lorentzian_2x2(g_aa, g_ab, g_bb):
    """-det of the symmetric block [[g_aa, g_ab], [g_ab, g_bb]] when
    _sign_counts would find one negative eigenvalue and no zero one, else
    None; in closed form, with no eigensolver. The eigenvalues are m -+ r
    with m = (g_aa + g_bb)/2 and r = hypot((g_aa - g_bb)/2, g_ab), so
    max|lambda| = |m| + r; as |lambda_1| |lambda_2| = |det|, the smaller
    |lambda| exceeds SIGNATURE_TOL max|lambda| exactly when |det| >
    SIGNATURE_TOL max|lambda|^2, and the signs differ exactly when -det > 0."""
    minus_det = g_ab * g_ab - g_aa * g_bb
    largest = abs((g_aa + g_bb) / 2) + math.hypot((g_aa - g_bb) / 2, g_ab)
    return minus_det if minus_det > SIGNATURE_TOL * largest * largest else None


def _same_floats(a, b) -> bool:
    """Whether two coordinate tuples hold the same floats, bit for bit as far
    as a metric can tell: each pair equal (so NaN, which tuple == lets pass
    when it is the same object, never is) and of the same sign (so 0.0 and
    -0.0, which == calls equal, are not)."""
    return all(x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(a, b))


class MetricEvaluator:
    """Prepared evaluator for one model; the hot path for integrators.

    Two fused sets are compiled once, at preparation time: the unique
    components, whose values and gradients two precomputed index arrays
    scatter into g and dg, and the singular loci, kept apart so that the
    guard fires before a component undefined at a locus can raise. Their
    stacked variants are compiled on the first stacked metric_at call.
    The last single-point metric_at result is kept as (coordinates,
    checked, MetricAt).
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
        self._unique = tuple(unique)
        self._fused = ex.compile_jet1(self._unique, self.names, self.params)
        # the fused tuple holds (value, gradient...) per unique component, so
        # d_lam of slot (i, j) sits 1 + lam after that component's value
        self._g_index = slot * (d + 1)
        self._dg_index = self._g_index[None, :, :] + 1 + np.arange(d)[:, None, None]
        self._loci = tuple(model.singular_loci)
        self._locus_values = ex.compile_value(self._loci, self.names, self.params)
        self._kept = ((), True, None)  # no point has zero coordinates

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

    def metric_at(self, point: Point | np.ndarray, checks=True) -> MetricAt:
        """Metric data at a point: the locus guard, the components, then with
        checks the condition cap and the signature. A Point whose coordinates
        equal the last Point's bit for bit (`_same_floats`) gets the same
        MetricAt back, unless that one was unchecked and this call checks:
        its arrays are read-only, so sharing it changes no caller's result.
        An (N, d) coordinate array gives the stacked MetricAt of its rows
        (`_metric_stack`), never kept; an array of any other shape is refused."""
        if isinstance(point, np.ndarray):
            if point.ndim != 2:
                raise ValueError(f"a coordinate array must be (N, d), not {point.shape}")
            return self._metric_stack(point, checks)
        coords = point.coordinates
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, chart has {self.dim}")
        kept_coords, kept_checked, kept = self._kept
        if kept_coords == coords and (kept_checked or not checks) and \
                _same_floats(kept_coords, coords):
            return kept
        self.guard(coords)
        g, dg = self.components(coords)
        if checks:
            # one eigendecomposition gives both checks; the condition cap is the zero
            # rule of _sign_counts at SIGNATURE_TOL, so past it no eigenvalue is zero
            eigenvalues = np.linalg.eigvalsh(g).tolist()
            smallest, largest = min(map(abs, eigenvalues)), max(map(abs, eigenvalues))
            if smallest <= SIGNATURE_TOL * largest:
                cond = largest / smallest if smallest else math.inf
                raise SingularMetric(f"metric condition estimate {cond:.3e} exceeds "
                                     f"{CONDITION_CAP:.0e} at {coords}")
            negative = sum(e < 0.0 for e in eigenvalues)
            if negative != 1:
                raise WrongSignature(
                    f"metric signature ({negative} negative, 0 zero, {self.dim - negative} "
                    f"positive) is not Lorentzian at {coords}")
        result = MetricAt(point, g, dg)
        self._kept = (coords, bool(checks), result)
        return result

    def _metric_stack(self, points, checks):
        """metric_at at each row of an (N, d) array, from one stacked call of
        each fused set and one stacked eigvalsh. A row that fails the guard,
        the cap or the signature, or whose stacked values are not finite,
        runs through the single-point call in row order: the first such row
        raises the single-point error, and a row that passes there (a NaN
        the scalar power turns into 1, as NaN^0 or 1^NaN) takes its values
        from that call."""
        if points.shape[-1] != self.dim:
            raise ValueError(f"point has {points.shape[-1]} coordinates, chart has {self.dim}")
        loci = ex.eval_block(0, self._loci, self.names, points, self.params)
        flat = ex.eval_block(1, self._unique, self.names, points, self.params)
        # NaN fails no comparison, so a non-finite row is flagged on its own
        rerun = ~(np.isfinite(loci).all(axis=0) & np.isfinite(flat).all(axis=0))
        rerun |= (np.abs(loci) < LOCUS_GUARD).any(axis=0)
        columns = flat.T
        g, dg = columns[:, self._g_index], columns[:, self._dg_index]
        if checks:
            # eigvalsh refuses NaN: a flagged row is re-run anyway
            negative, zero, _ = _sign_counts(
                np.linalg.eigvalsh(np.where(rerun[:, None, None], np.eye(self.dim), g)))
            rerun |= (zero > 0) | (negative != 1)
        for row in np.flatnonzero(rerun).tolist():
            single = self.metric_at(Point(points[row]), checks)
            g[row], dg[row] = single.g, single.first_derivatives
        return MetricAt(points, g, dg)


def christoffels_from(g_inverse, dg) -> np.ndarray:
    """Gamma^mu_{nu rho} = 1/2 g^{mu sig}(d_nu g_{sig rho} + d_rho g_{sig nu}
    - d_sig g_{nu rho}) as one product of g^{-1} with the permuted sums, reshaped
    to (d, d^2); exactly symmetric in (nu, rho) because the sums are, as dg is.
    Leading axes are a stack, each matrix computed as it is alone."""
    *stack, d, _, _ = dg.shape
    lowered = dg.swapaxes(-3, -2)  # lowered[sig, nu, rho] = d_nu g_{sig rho}
    sums = lowered + lowered.swapaxes(-2, -1) - dg
    return (0.5 * (g_inverse @ sums.reshape(*stack, d, d * d))).reshape(dg.shape)


def _inverse_and_christoffels(g, dg, coords):
    """(g^{-1}, Gamma) by LU with partial pivoting; the inverse is symmetrized
    so the connection stays symmetric to the bit. An (N, d, d) stack, with
    the (N, d) coordinate array, raises the error of its first singular row
    as that point alone raises it."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        if g.ndim == 3:
            for row in range(len(g)):
                _inverse_and_christoffels(g[row], dg[row], tuple(coords[row].tolist()))
        raise SingularMetric(f"metric is singular at {coords}") from None
    ginv = 0.5 * (ginv + ginv.swapaxes(-2, -1))
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
    connection, which may be restricted to a slice's coordinates; leading
    axes are a stack."""
    return hessian - np.einsum("...l,...lmn->...mn", gradient, christoffels)


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


def field_jet(f: ex.ScalarField, model: SpacetimeModel, p: Point | np.ndarray) -> ex.Jet2:
    """The jet of f at a Point, or the stacked jets at an (N, d) array's rows."""
    coords = p if isinstance(p, np.ndarray) else p.coordinates
    return ex.eval_jet2(f.ast, model.coordinate_names, coords, model.parameters)


def covariant_hessian(f: ex.ScalarField, model: SpacetimeModel, p: Point | np.ndarray,
                      metric_at: MetricAt | None = None) -> np.ndarray:
    """nabla_mu nabla_nu f = d_mu d_nu f - Gamma^lam_{mu nu} d_lam f; at an
    (N, d) array of points, the (N, d, d) stack, with a stacked metric_at."""
    if metric_at is None:
        metric_at = eval_metric(model, p)
    jet = field_jet(f, model, p)
    return covariant_hessian_from(jet.gradient, jet.hessian, metric_at.christoffels)


def classify_vector(metric_at: MetricAt, v: TangentVector) -> VectorClass:
    """Causal character of V from the sign of g(V, V), null when |g(V, V)| is
    at most NULL_TOL |V| |gV|, so that the scale of V or g does not matter."""
    if v.base != metric_at.point:
        raise ValueError("vector is not based at the metric's point")
    comps = v.array()
    if comps.shape[0] != metric_at.g.shape[0]:
        raise ValueError("vector dimension does not match the chart")
    lowered = comps @ metric_at.g
    q = float(lowered @ comps)
    if _is_null(q, comps, lowered):
        return VectorClass.NULL
    return VectorClass.TIMELIKE if q < 0 else VectorClass.SPACELIKE
