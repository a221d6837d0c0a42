"""Decide, pointwise and over sampled regions, whether a scalar field has a
covariant Hessian that dominates a positive multiple of the metric, and
compute the admissible range of that constant.

The pointwise condition at a fixed point is

    V^T H V >= c V^T G V   for all tangent V,  i.e.  H - c G positive

semidefinite. Since lambda_min(H - cG) is concave in c, the admissible set of
c is an interval. H - cG can only change definiteness where it is singular,
at an eigenvalue of the pencil (H, G), so the endpoints are the extreme
pencil eigenvalues (or 0, or the search ceiling) that pass a PSD test
(smallest eigenvalue, tolerance relative to H and cG), all from one
fixed-width probe set. Region certificates intersect the per-point intervals
over a coordinate-box grid; they are explicitly *sampled* certificates and
record the grid used.

A certificate also reports, independently, whether the Hessian itself has
Lorentzian signature at every sample: the two clauses (signature and
inequality) are checked separately and neither is assumed to imply the other.

Grid points are independent and the interval-intersection reduction is
associative and commutative, so the scan may be partitioned arbitrarily
without changing the certificate. This implementation takes the grid in
row-major chunks of GRID_CHUNK points. For each chunk it makes one stacked
`metric_at` call and one stacked `covariant_hessian` call (the emitted
expression code run on coordinate arrays), and runs the signature and
interval oracle once, as array code over the stacked matrices, which
returns count and endpoint arrays. The reduction folds the chunk as arrays
too: the running interval after each point is an accumulated max of lo and
min of hi, and the first point in grid order that empties it is the
witness, which fixes it deterministically. Every stacked call computes each
row as a single-point call would, to the bit, so the certificate does not
depend on the chunk. When a stacked evaluation raises, the chunk is evaluated again
point by point, so the error is the one the first failing point raises,
named with its grid point; should every point pass alone, the stacked error
is raised as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonLorentzianMetric, ToolkitError
from .expressions import ScalarField
from .geometry import (Point, SpacetimeModel, _sign_counts, covariant_hessian,
                       evaluator_for)

#: relative accuracy of an endpoint: an interval whose top is at most this times
#: max |pencil root| is empty, and ends crossing by this times max |end| touch
ENDPOINT_RESOLUTION = 1e-9
#: defaults of the (relative) PSD tolerance and of the c search ceiling
PSD_TOLERANCE, C_SEARCH_CEILING = 1e-10, 1e3
#: grid points per stacked evaluation and oracle call in certify_region: the
#: per-call overhead is shared by the chunk, and memory stays O(chunk)
GRID_CHUNK = 128


@dataclass(frozen=True)
class SignatureDescriptor:
    """Eigenvalue-sign counts of a symmetric matrix, with a tolerance on zero."""

    negative: int
    zero: int
    positive: int

    @property
    def label(self) -> str:
        if self.zero > 0:
            return "degenerate"
        if self.negative == 1:
            return "Lorentzian"
        if self.negative == 0:
            return "Riemannian"
        return "indefinite"


def hessian_signature(h: np.ndarray, tol: float = PSD_TOLERANCE
                      ) -> SignatureDescriptor | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign counts of H's eigenvalues, zero meaning |lambda| <= tol * max |lambda|.

    H is one (d, d) matrix, giving one descriptor, or an (N, d, d) stack,
    giving the (negative, zero, positive) count arrays, each (N,), from one
    stacked eigvalsh call, a single matrix being the N = 1 case. Any other
    shape, or a tol that is not finite and >= 0, raises ValueError.
    """
    _check_oracle_settings(tol)
    counts = _sign_counts(np.linalg.eigvalsh(_as_stack(h)), tol)
    if np.ndim(h) == 3:
        return counts
    return SignatureDescriptor(*(int(c[0]) for c in counts))


def _check_oracle_settings(tol, ceiling=C_SEARCH_CEILING):
    """ValueError unless 0 <= tol < inf and 0 < ceiling < inf."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"psd_tolerance = {tol!r} must be finite and >= 0")
    if not 0.0 < ceiling < math.inf:
        raise ValueError(f"c_search_ceiling = {ceiling!r} must be finite and > 0")


def _as_stack(m) -> np.ndarray:
    """A (d, d) matrix or an (N, d, d) stack as an (N, d, d) float array."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"a matrix must be (d, d) or an (N, d, d) stack, not {m.shape}")
    return m.reshape(-1, *m.shape[-2:])


@dataclass(frozen=True)
class CInterval:
    lo: float
    hi: float
    ceiling_hit: bool = False

    def intersect(self, other: "CInterval") -> "CInterval | None":
        """The common part, or None when empty. Ends computed at different
        points differ by rounding, so ends that cross by at most
        ENDPOINT_RESOLUTION * max(|lo|, |hi|) touch, lo then exceeding hi.
        The ceiling_hit kept is that of the interval whose hi is kept."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo - hi > ENDPOINT_RESOLUTION * max(abs(lo), abs(hi)):
            return None
        return CInterval(lo, hi, (self.ceiling_hit and self.hi <= other.hi)
                         or (other.ceiling_hit and other.hi <= self.hi))


def admissible_c_interval(h: np.ndarray, g: np.ndarray, tol: float = PSD_TOLERANCE,
                          ceiling: float = C_SEARCH_CEILING
                          ) -> CInterval | None | tuple[np.ndarray, np.ndarray]:
    """The interval {c in (0, ceiling] : H - cG is PSD}, or None when empty.

    H - cG passes when its smallest eigenvalue is >= -tol (||H|| + c ||G||),
    spectral norms: by Weyl's inequality rounding moves it by that order.
    If H - c*G is definite, every pencil root is real, and a root lies below
    c* exactly when its eigenvector v has v.Gv < 0: for a Lorentzian G that is
    one root, so the set is [roots[0], roots[1]] of the sorted roots. Seven
    probes (d + 3 at d = 4) are tested in one stacked eigvalsh call: 0, the
    roots' real parts, sorted and clipped to [0, ceiling], the ceiling, and
    the two lowest clipped roots' midpoint, which passes where rounding fails
    a near-degenerate set's computed roots[1]. lo and hi are the extreme
    probes that pass; ceiling_hit means hi is the ceiling. Ends are accurate
    to 1e-9 relative to max |pencil root| when the pencil is diagonalizable.
    At a defective root, where eigvals itself is only accurate to sqrt(eps),
    the tolerance sets the accuracy, and it grows with ||H|| against the
    roots: on defective pencils congruent by boosts of rapidity up to |rho|
    the ends missed the one admissible c by up to 1.2e-7 relative at rho = 0,
    9.2e-7 at |rho| <= 1 and 3.3e-5 at |rho| <= 2 (2,000 pencils each).

    H and G are (d, d) matrices, giving one result, or (N, d, d) stacks of
    N pencils, giving the (N,) arrays (lo, hi), NaN where the interval is
    empty (ceiling_hit is then hi == ceiling); each numpy.linalg routine
    runs once for the whole stack, and a single pencil is the N = 1 case.
    Every row is computed as it would be alone, so a stack's rows equal the
    per-pencil results exactly. NonLorentzianMetric is raised when any row's
    G is not Lorentzian, and ValueError for H and G of different shapes (a
    stack with one matrix), a tol that is not finite and >= 0 or a ceiling
    that is not finite and > 0.
    """
    _check_oracle_settings(tol, ceiling)
    hs, gs = _as_stack(h), _as_stack(g)
    if np.shape(h) != np.shape(g):
        raise ValueError(f"H is {np.shape(h)} and G is {np.shape(g)}: they must have one shape")
    g_eigenvalues = np.linalg.eigvalsh(gs)
    negative, zero, _ = _sign_counts(g_eigenvalues)
    if np.any((negative != 1) | (zero != 0)):
        raise NonLorentzianMetric("the matrix supplied as the metric is not Lorentzian")
    g_norms = np.maximum(-g_eigenvalues[:, 0], g_eigenvalues[:, -1])

    # A defective root comes back as a near-real complex pair, so every root's
    # real part is a candidate end. A clipped or repeated probe tests the same
    # matrix again, so it passes or fails with it.
    roots = np.sort(np.linalg.eigvals(np.linalg.solve(gs, hs)).real, axis=-1)
    scales = np.maximum(-roots[:, 0], roots[:, -1])
    # columns: 0, the clipped roots, the ceiling, the two lowest roots' midpoint
    cs = np.zeros((len(roots), roots.shape[1] + 3))
    cs[:, 1:-2], cs[:, -2] = np.clip(roots, 0.0, ceiling), ceiling
    cs[:, -1] = 0.5 * (cs[:, 1] + cs[:, 2])
    eigenvalues = np.linalg.eigvalsh(hs[:, None] - cs[:, :, None, None] * gs[:, None])
    # column 0 is c = 0: H itself
    h_norms = np.maximum(-eigenvalues[:, 0, 0], eigenvalues[:, 0, -1])
    feasible = eigenvalues[:, :, 0] >= -tol * (h_norms[:, None] + cs * g_norms[:, None])
    lo = np.where(feasible, cs, math.inf).min(axis=1)
    hi = np.where(feasible, cs, -math.inf).max(axis=1)  # -inf: none feasible
    empty = hi <= ENDPOINT_RESOLUTION * scales
    lo, hi = np.where(empty, math.nan, lo), np.where(empty, math.nan, hi)
    if np.ndim(h) == 3:
        return lo, hi
    return None if empty[0] else CInterval(lo[0].item(), hi[0].item(), hi[0].item() == ceiling)


@dataclass(frozen=True)
class ConvexityQuery:
    """Axis-aligned coordinate box and sampling resolution for certification;
    psd_tolerance is relative to the size of H and G (admissible_c_interval)."""

    region: tuple[tuple[float, float], ...]
    samples_per_axis: int = 5
    psd_tolerance: float = PSD_TOLERANCE
    c_search_ceiling: float = C_SEARCH_CEILING

    def validate(self, dimension: int):
        if len(self.region) != dimension:
            raise ValueError(f"query region has {len(self.region)} axes, chart has {dimension}")
        if not isinstance(self.samples_per_axis, (int, np.integer)) or self.samples_per_axis < 2:
            raise ValueError(f"samples_per_axis must be at least 2 and an int, "
                             f"got {self.samples_per_axis!r}")
        _check_oracle_settings(self.psd_tolerance, self.c_search_ceiling)
        for axis, (lo, hi) in enumerate(self.region):
            if not lo < hi:
                raise ValueError(f"region axis {axis}: lo = {lo!r} is not below hi = {hi!r}")
            if not math.isfinite(float(hi) - float(lo)):  # inf, or a width past the float range
                raise ValueError(f"region axis {axis}: ({lo!r}, {hi!r}) does not have a "
                                 f"finite width")


@dataclass(frozen=True)
class PerPointStats:
    samples: int
    c_lo_min: float
    c_lo_max: float
    c_hi_min: float
    c_hi_max: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of a sampled region scan.

    verdict is 'certified' exactly when the intersected interval is nonempty
    with a strictly positive lower endpoint *and* the Hessian is Lorentzian at
    every sample; 'violated' (with a witness point) when the intersection is
    empty; 'degenerate' otherwise. The certificate is sampling-based, not a
    proof: `grid` records the resolution it was computed at.
    """

    verdict: str
    c_interval: CInterval | None
    witness: Point | None
    per_point_stats: PerPointStats
    lorentzian_hessian_everywhere: bool
    grid: tuple[int, ...]
    psd_tolerance: float
    ceiling: float
    signature_labels: tuple[str, ...] = field(default=())


def grid_points(query: ConvexityQuery) -> list[Point]:
    return [Point(row) for chunk in _grid_chunks(query) for row in chunk]


def _grid_chunks(query: ConvexityQuery):
    """The grid's coordinates in row-major order, lazily, as (n, d) arrays of
    at most GRID_CHUNK rows."""
    axes = [np.linspace(lo, hi, query.samples_per_axis) for lo, hi in query.region]
    shape = tuple(len(axis) for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, GRID_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, total)), shape)
        yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


def _raise_at_first_failing_point(evaluator, model, f, coords):
    """Evaluate H at the rows of coords one point at a time, in row order, so
    that an error is the first failing point's own, named with its grid
    point."""
    for row in coords:
        point = Point(row)
        try:
            covariant_hessian(f, model, point, metric_at=evaluator.metric_at(point))
        except ToolkitError as exc:
            exc.args = (f"{exc} [at grid point {point.coordinates}]",)  # attributes kept
            raise


def _intersect_rows(running: CInterval, lo, hi, ceiling):
    """(running.intersect of each row's interval in turn, None at the first
    row that empties it; that row's index, or None). The rows are the (lo,
    hi) arrays of admissible_c_interval, NaN for an empty row, each row's
    ceiling_hit being hi == ceiling. Intersection takes a max of lo and a
    min of hi, so the running interval after each row is an accumulated
    max and min; once no row empties it, the result is running intersected
    with the interval of the rows' max lo and min hi."""
    lo_run = np.maximum(running.lo, np.maximum.accumulate(lo))
    hi_run = np.minimum(running.hi, np.minimum.accumulate(hi))
    failed = np.isnan(lo) | (lo_run - hi_run > ENDPOINT_RESOLUTION
                             * np.maximum(np.abs(lo_run), np.abs(hi_run)))
    if failed.any():
        return None, int(failed.argmax())
    kept_hi = hi_run[-1].item()
    return running.intersect(CInterval(lo_run[-1].item(), kept_hi, kept_hi == ceiling)), None


def certify_region(model: SpacetimeModel, f: ScalarField,
                   query: ConvexityQuery) -> ConvexityCertificate:
    """Grid scan of the pointwise condition plus the Hessian-signature clause."""
    query.validate(model.dimension)
    evaluator = evaluator_for(model)
    running: CInterval | None = CInterval(0.0, query.c_search_ceiling)
    witness = None
    labels = set()
    lo_min = hi_min = math.inf
    lo_max = hi_max = -math.inf
    for coords in _grid_chunks(query):
        try:
            metric_at = evaluator.metric_at(coords)
            hs, gs = covariant_hessian(f, model, coords, metric_at=metric_at), metric_at.g
        except ToolkitError:
            # each stacked layer re-runs a failing row alone, which raises its
            # own error, so this raises; if it does not, the stacked error stands
            _raise_at_first_failing_point(evaluator, model, f, coords)
            raise
        negative, zero, positive = hessian_signature(hs, query.psd_tolerance)
        lo, hi = admissible_c_interval(hs, gs, query.psd_tolerance, query.c_search_ceiling)
        rows = set(zip(negative.tolist(), zero.tolist(), positive.tolist()))
        labels.update(SignatureDescriptor(*row).label for row in rows)
        kept = ~np.isnan(lo)
        if kept.any():
            # min and max of Python lists keep the first of equal values, as
            # a left fold does, so 0.0 and -0.0 come out as the fold's
            los, his = lo[kept].tolist(), hi[kept].tolist()
            lo_min, lo_max = min(lo_min, min(los)), max(lo_max, max(los))
            hi_min, hi_max = min(hi_min, min(his)), max(hi_max, max(his))
        if running is not None:
            running, row = _intersect_rows(running, lo, hi, query.c_search_ceiling)
            if running is None:
                witness = Point(coords[row])
    if lo_min > lo_max:  # no point had an interval
        lo_min = lo_max = hi_min = hi_max = math.nan
    stats = PerPointStats(samples=query.samples_per_axis ** model.dimension, c_lo_min=lo_min,
                          c_lo_max=lo_max, c_hi_min=hi_min, c_hi_max=hi_max)
    lorentzian_everywhere = labels == {"Lorentzian"}
    if running is None:
        verdict = "violated"
    elif running.lo > 0.0 and lorentzian_everywhere:
        verdict = "certified"
    else:
        verdict = "degenerate"
        witness = None
    return ConvexityCertificate(
        verdict=verdict,
        c_interval=running,
        witness=witness,
        per_point_stats=stats,
        lorentzian_hessian_everywhere=lorentzian_everywhere,
        grid=(query.samples_per_axis,) * model.dimension,
        psd_tolerance=query.psd_tolerance,
        ceiling=query.c_search_ceiling,
        signature_labels=tuple(sorted(labels)),
    )


__all__ = [
    "CInterval", "ConvexityCertificate", "ConvexityQuery", "PerPointStats",
    "SignatureDescriptor", "admissible_c_interval", "certify_region",
    "grid_points", "hessian_signature",
]
