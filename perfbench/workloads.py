"""The three benchmark workloads: seeded job lists, the timed call sequence
of each job, and the correctness gate that checks every answer against a
closed form.

A workload object owns the models it builds at set-up, the job list it
generated from the seed, and three per-job functions:

    run(job)            the timed call sequence into the stconvex public API
    check(job, result)  the gate: a list of problems, empty when correct
    work(job, result)   counts of pointwise evaluations the job performed

Job lists are built in fixed blocks whose mix of job kinds (chart, grid
size, verdict, geodesic case) is the same for every seed and interleaved so
that any prefix of the list has nearly the block's proportions; the seed
only draws the continuous parameters inside each kind. The latency
percentiles therefore fall inside the same kind of job on every seed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import astuple, dataclass, replace

import numpy as np

import stconvex as sc

TWO_PI = 2.0 * math.pi


def _fingerprint(rows) -> str:
    """sha256 over every generated job parameter, given as one bytes row per job."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row)
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _close(actual: float, expected: float, tol: float) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def _strata(rng, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi], in
    random order: every seed covers the range evenly."""
    slots = rng.permutation(count)
    return [lo + (hi - lo) * (int(k) + float(rng.random())) / count for k in slots]


def _sub_box(rng, box):
    """A random axis-aligned sub-box covering at least 20% of each axis."""
    out = []
    for lo, hi in box:
        width = hi - lo
        out.append((lo + width * 0.4 * float(rng.random()),
                    hi - width * 0.4 * float(rng.random())))
    return tuple(out)


# --------------------------------------------------------------------------
# certify-grid
# --------------------------------------------------------------------------

#: documented endpoint accuracy of admissible_c_interval
ENDPOINT_TOL = 1e-9
CERTIFY_CHARTS = ("minkowski-cartesian", "minkowski-spherical", "milne")
#: (chart, samples per axis, closed-form verdict 'violated') of one block's
#: jobs. Measured on a 2-vCPU VM, a certified Milne 4^4 grid takes about
#: 0.39 s and a certified Milne 5^4 grid about 0.9 s, while every other job
#: here takes at most 0.13 s (certified 3^4 grids 0.07-0.12 s, violated 4^4
#: grids 0.08-0.13 s, violated 3^4 grids 0.02-0.04 s). Sorted by latency a
#: block is therefore 8 cheap jobs of every chart and both verdicts (0-40%),
#: 8 certified Milne 4^4 jobs (40-80%) and 4 certified Milne 5^4 jobs
#: (80-100%): the median falls inside the first homogeneous group and the
#: 90th percentile inside the second on every seed. The pattern
#: [cheap, M4, cheap, M4, M5] repeats, so every 5-job prefix has the block's
#: proportions.
_CHEAP = (("minkowski-cartesian", 3, True), ("minkowski-spherical", 3, False),
          ("milne", 3, True), ("minkowski-cartesian", 4, True),
          ("minkowski-spherical", 3, True), ("milne", 3, False),
          ("minkowski-cartesian", 3, False), ("minkowski-spherical", 4, True))
_MEDIAN_GROUP = ("milne", 4, False)
_P90_GROUP = ("milne", 5, False)
CERTIFY_BLOCK = tuple(job for i in range(4)
                      for job in (_CHEAP[2 * i], _MEDIAN_GROUP, _CHEAP[2 * i + 1],
                                  _MEDIAN_GROUP, _P90_GROUP))
#: alpha avoids a neighbourhood of 1, where the PSD tolerance rather than
#: the closed form decides the verdict
CERTIFIED_ALPHA = (0.05, 0.95)
VIOLATED_ALPHA = (1.05, 1.5)


@dataclass(frozen=True)
class CertifyJob:
    chart: str
    alpha: float
    box: tuple[tuple[float, float], ...]
    samples_per_axis: int


def _certify_kind(chart: str, size: int, violated: bool) -> str:
    return f"{chart}-{size}-{'violated' if violated else 'certified'}"


class CertifyGrid:
    name = "certify-grid"
    kinds = tuple(dict.fromkeys(_certify_kind(*job) for job in CERTIFY_BLOCK))
    expected_spans = ("convexity.certify_region", "convexity.admissible_c_interval",
                      "convexity.hessian_signature", "geometry.metric_at",
                      "geometry.covariant_hessian", "expressions.eval_jet2",
                      "expressions.parse")
    absent_spans = ()

    def __init__(self, seed: int, blocks: int = 20):
        rng = np.random.default_rng(seed)
        self.jobs = []
        boxes = {name: sc.builtin_models().model(name).sample_box for name in CERTIFY_CHARTS}
        n_violated = sum(bad for _, _, bad in CERTIFY_BLOCK)
        for _ in range(blocks):
            certified = iter(_strata(rng, len(CERTIFY_BLOCK) - n_violated, *CERTIFIED_ALPHA))
            violated = iter(_strata(rng, n_violated, *VIOLATED_ALPHA))
            for chart, size, bad in CERTIFY_BLOCK:
                alpha = next(violated if bad else certified)
                self.jobs.append(CertifyJob(chart, alpha, _sub_box(rng, boxes[chart]), size))

    def setup(self):
        catalog = sc.builtin_models()
        self.catalog = catalog
        self.models = {name: catalog.model(name) for name in CERTIFY_CHARTS}
        for chart in CERTIFY_CHARTS:
            self.run(CertifyJob(chart, 0.5, self.models[chart].sample_box, 2))

    def field(self, chart: str, alpha: float):
        if chart == "minkowski-cartesian":
            return self.catalog.field("canonical", alpha)
        if chart == "minkowski-spherical":
            return self.catalog.field("canonical-spherical", alpha)
        return self.models[chart].field(
            f"0.5*tau^2*(sinh(chi)^2 - {alpha!r}*cosh(chi)^2)")

    def run(self, job: CertifyJob):
        query = sc.ConvexityQuery(region=job.box, samples_per_axis=job.samples_per_axis)
        return sc.certify_region(self.models[job.chart], self.field(job.chart, job.alpha),
                                 query)

    @staticmethod
    def check(job: CertifyJob, cert) -> list[str]:
        problems = []
        if cert.grid != (job.samples_per_axis,) * len(job.box):
            problems.append(f"grid {cert.grid} is not {job.samples_per_axis} per axis")
        if job.alpha > 1.0:
            if cert.verdict != "violated" or cert.witness is None:
                problems.append(f"alpha = {job.alpha!r} > 1 gave {cert.verdict!r} "
                                f"with witness {cert.witness}")
            return problems
        interval = cert.c_interval
        if cert.verdict != "certified" or interval is None:
            problems.append(f"alpha = {job.alpha!r} <= 1 gave {cert.verdict!r}")
        elif abs(interval.lo - job.alpha) > ENDPOINT_TOL or abs(interval.hi - 1.0) > ENDPOINT_TOL:
            problems.append(f"c interval [{interval.lo!r}, {interval.hi!r}] is not "
                            f"[{job.alpha!r}, 1] within {ENDPOINT_TOL}")
        return problems

    @staticmethod
    def work(job: CertifyJob, cert) -> dict:
        return {"samples": job.samples_per_axis ** len(job.box), cert.verdict: 1}

    @staticmethod
    def kind(job: CertifyJob) -> str:
        return _certify_kind(job.chart, job.samples_per_axis, job.alpha > 1.0)

    def describe(self) -> dict:
        return {
            "fingerprint": _fingerprint(repr(astuple(j)).encode() for j in self.jobs),
            "jobs": len(self.jobs),
            "by_chart": dict(Counter(j.chart for j in self.jobs)),
            "expected_verdicts": dict(Counter("violated" if j.alpha > 1.0 else "certified"
                                              for j in self.jobs)),
            "grid_points": dict(Counter(j.samples_per_axis ** len(j.box) for j in self.jobs)),
        }


# --------------------------------------------------------------------------
# geodesic-probe
# --------------------------------------------------------------------------

#: bound on |g(v,v) - g(v,v)_0| along a trajectory
DRIFT_BOUND = 1e-7
#: relative bound on the change of the conserved energy (1 - 2M/r) v^t and
#: polar angular momentum r^2 v^theta along a pole crossing
CONSERVED_TOL = 1e-9
LOOP_TOL = 1e-9
#: one block of jobs: P polar orbit that reaches the pole theta = 0 after
#: about POLE_STEPS of its STEPS steps and is truncated there by the
#: sin(theta) locus guard, followed by a closed-loop probe on flat space;
#: B bound timelike orbit and S spacelike geodesic, both of STEPS steps.
#: Fourteen pole crossings in twenty put the median inside the P jobs and
#: the 90th percentile inside the 1000-step jobs.
GEODESIC_KINDS = ("P", "B", "P", "P", "S", "P", "P", "P", "B", "P",
                  "P", "S", "P", "P", "P", "B", "P", "P", "S", "P")
STEPS = 1000
BOUND_STEP = 0.5
SPACELIKE_STEP = 0.05
POLE_STEP = 0.02
POLE_STEPS = 200
WARM_UP_STEPS = 20
LOOP_SAMPLES = 128
MARGIN_C = 0.1
LOOP_ALPHA = 0.5
LOOP_C = 0.5


@dataclass(frozen=True)
class GeodesicJob:
    kind: str
    position: tuple[float, ...]
    velocity: tuple[float, ...]
    step: float
    steps: int
    #: (t, radius, z) of a coordinate circle in the x-y plane, or None
    loop: tuple[float, float, float] | None


def _schwarzschild_g(r: float) -> np.ndarray:
    """Equatorial Schwarzschild metric for M = 1, as the catalog's exterior model."""
    a = 1.0 - 2.0 / r
    return np.diag([-a, 1.0 / a, r * r, r * r])


def _released(r: float, fraction: float) -> tuple[float, float]:
    """(v^t, angular rate) of a unit timelike orbit released at rest in r,
    in its orbital plane, with `fraction` of the circular angular momentum
    (M = 1): bound and, for a fraction off 1, eccentric."""
    rate = fraction * math.sqrt(r / (1.0 - 3.0 / r)) / (r * r)
    return math.sqrt((r * r * rate * rate + 1.0) / (1.0 - 2.0 / r)), rate


class GeodesicProbe:
    name = "geodesic-probe"
    kinds = ("P", "B", "S")
    expected_spans = ("geodesics.integrate_geodesic", "geodesics.convexity_along_curve",
                      "geodesics.closed_curve_probe", "geometry.metric_at",
                      "expressions.eval_jet2", "expressions.parse")
    #: the PSD oracle is not on this path: a change to it must not move this workload
    absent_spans = ("convexity.certify_region", "convexity.admissible_c_interval",
                    "convexity.hessian_signature")

    def __init__(self, seed: int, blocks: int = 30):
        rng = np.random.default_rng(seed)
        self.jobs = []
        n_pole = GEODESIC_KINDS.count("P")
        n_bound = GEODESIC_KINDS.count("B")
        n_space = GEODESIC_KINDS.count("S")
        for _ in range(blocks):
            pole = iter(zip(_strata(rng, n_pole, 6.0, 10.0),
                            _strata(rng, n_pole, 0.96, 1.04)))
            bound = iter(zip(_strata(rng, n_bound, 10.0, 16.0),
                             _strata(rng, n_bound, 0.96, 1.04)))
            space = iter(zip(_strata(rng, n_space, 4.0, 8.0),
                             _strata(rng, n_space, 0.2, 0.5)))
            for kind in GEODESIC_KINDS:
                theta = math.pi / 2.0
                phi = float(rng.random()) * TWO_PI
                if kind == "P":
                    # an orbit in the phi = const plane heading for the pole,
                    # started half a step off the POLE_STEPS-th step's angle
                    r, fraction = next(pole)
                    vt, rate = _released(r, fraction)
                    theta = rate * (POLE_STEPS + 0.5) * POLE_STEP
                    loop = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 2.0)),
                            float(rng.uniform(-1.0, 1.0)))
                    self.jobs.append(GeodesicJob(kind, (0.0, r, theta, phi),
                                                 (vt, 0.0, -rate, 0.0), POLE_STEP, STEPS,
                                                 loop))
                    continue
                if kind == "B":
                    r, fraction = next(bound)
                    vt, rate = _released(r, fraction)
                    v = (vt, 0.0, 0.0, rate)
                    step = BOUND_STEP
                else:
                    # outward, with dr/dlam^2 >= a dt/dlam^2 so that after
                    # normalization the angular momentum L stays below r: the
                    # radial speed then never vanishes and the curve cannot
                    # turn back into the horizon
                    r, vr = next(space)
                    raw = np.array([float(rng.uniform(0.0, 0.2)), vr, 0.0,
                                    float(rng.uniform(0.1, 0.3))])
                    raw = raw / math.sqrt(float(raw @ _schwarzschild_g(r) @ raw))
                    v = tuple(float(c) for c in raw)
                    step = SPACELIKE_STEP
                self.jobs.append(GeodesicJob(kind, (0.0, r, theta, phi), tuple(v), step,
                                             STEPS, None))

    def setup(self):
        catalog = sc.builtin_models()
        self.model = catalog.model("schwarzschild-exterior")
        self.field = self.model.field("0.5*r^2")
        self.flat = catalog.model("minkowski-cartesian")
        self.flat_field = catalog.field("canonical", LOOP_ALPHA)
        for kind in self.kinds:
            job = next(j for j in self.jobs if j.kind == kind)
            self.run(replace(job, steps=WARM_UP_STEPS))

    def run(self, job: GeodesicJob):
        state = sc.GeodesicState.of(job.position, job.velocity)
        trajectory = sc.integrate_geodesic(self.model, state, (0.0, job.steps * job.step),
                                           job.step)
        margins = sc.convexity_along_curve(self.field, trajectory, MARGIN_C)
        loop = None
        if job.loop is not None:
            t, radius, z = job.loop
            curve = sc.CurveSpec.from_texts((repr(t), f"{radius!r}*cos({TWO_PI!r}*s)",
                                             f"{radius!r}*sin({TWO_PI!r}*s)", repr(z)))
            loop = sc.closed_curve_probe(self.flat_field, self.flat, curve, LOOP_C,
                                         n_samples=LOOP_SAMPLES)
        return trajectory, margins, loop

    @staticmethod
    def check(job: GeodesicJob, result) -> list[str]:
        trajectory, margins, loop = result
        problems = []
        norms = np.array(trajectory.norm_history)
        expected_norm = 1.0 if job.kind == "S" else -1.0
        if abs(norms[0] - expected_norm) > 1e-12:
            problems.append(f"initial g(v,v) = {float(norms[0])!r}, expected {expected_norm}")
        if job.kind == "P":
            if not trajectory.truncated or "sin(theta)" not in trajectory.truncation_reason:
                problems.append(f"pole crossing was not truncated at the sin(theta) guard: "
                                f"{trajectory.truncation_reason!r}")
            # the next step must reach the pole: 0 < theta < |v^theta| h
            _, last = trajectory.samples[-1]
            theta, rate = last.position.coordinates[2], -last.velocity.components[2]
            if not 0.0 < theta < 1.05 * rate * job.step:
                problems.append(f"pole crossing stops at theta = {theta!r}, not within a "
                                f"step of the pole")
            coords = np.array([st.position.coordinates for _, st in trajectory.samples])
            vel = np.array([st.velocity.components for _, st in trajectory.samples])
            for label, conserved in (("energy", (1.0 - 2.0 / coords[:, 1]) * vel[:, 0]),
                                     ("angular momentum", coords[:, 1] ** 2 * vel[:, 2])):
                change = float(np.max(np.abs(conserved - conserved[0])))
                if not change <= CONSERVED_TOL * abs(conserved[0]):
                    problems.append(f"{label} changes by {change:.3e} along the orbit")
        drift = float(np.max(np.abs(norms - norms[0])))
        if not drift <= DRIFT_BOUND:
            problems.append(f"g(v,v) drift {drift:.3e} exceeds {DRIFT_BOUND}")
        if len(margins.margins) != len(trajectory.samples) or \
                not np.isfinite(margins.margins).all():
            problems.append("margin scan does not cover the trajectory with finite values")
        if job.loop is not None:
            # f o loop is constant, so the margin is -c g(loop', loop') = -c (2 pi R)^2
            expected = -LOOP_C * (TWO_PI * job.loop[1]) ** 2
            if not loop.obstructed:
                problems.append("flat closed loop was not reported obstructed")
            if not _close(loop.min_margin, expected, LOOP_TOL):
                problems.append(f"loop margin {loop.min_margin!r} is not {expected!r}")
        return problems

    @staticmethod
    def work(job: GeodesicJob, result) -> dict:
        trajectory, margins, loop = result
        steps = len(trajectory.samples) - 1
        loop_samples = loop.n_samples if loop is not None else 0
        return {"samples": steps + len(margins.margins) + loop_samples, "rk4_steps": steps,
                "truncated": int(trajectory.truncated)}

    @staticmethod
    def kind(job: GeodesicJob) -> str:
        return job.kind

    def describe(self) -> dict:
        return {
            "fingerprint": _fingerprint(repr(astuple(j)).encode() for j in self.jobs),
            "jobs": len(self.jobs),
            "by_kind": dict(Counter(j.kind for j in self.jobs)),
            "requested_steps": sum(j.steps for j in self.jobs),
            "expected_pole_truncations": sum(j.kind == "P" for j in self.jobs),
            "loops": sum(j.loop is not None for j in self.jobs),
        }


# --------------------------------------------------------------------------
# level-set-probes
# --------------------------------------------------------------------------

LEVEL_SET_TOL = 1e-9
POINTS_PER_MODEL = 25
PROBES_PER_POINT = 4
INTERIOR_R = (0.2, 1.9)  # in units of M
MILNE_BOX = ((0.5, 3.0), (0.3, 2.0))  # tau, chi
ANGLES = ((0.5, 2.5), (0.1, 6.0))  # theta, phi


@dataclass(frozen=True, eq=False)
class LevelSetJob:
    m: float
    interior_points: np.ndarray  # (POINTS_PER_MODEL, 4): t, r, theta, phi
    milne_points: np.ndarray  # (POINTS_PER_MODEL, 4): tau, chi, theta, phi
    barrier: tuple[float, float, int]  # r_lo, r_hi, samples

    def row(self) -> bytes:
        return (repr((self.m, self.barrier)).encode() + self.interior_points.tobytes()
                + self.milne_points.tobytes())


def _uniform_columns(rng, n, ranges):
    lo = np.array([a for a, _ in ranges])
    hi = np.array([b for _, b in ranges])
    return lo + (hi - lo) * rng.random((n, len(ranges)))


class LevelSetProbes:
    name = "level-set-probes"
    kinds = ("batch",)
    expected_spans = ("catalog.model", "expressions.parse", "expressions.compile",
                      "expressions.eval_jet2", "expressions.eval_jet1", "geometry.metric_at",
                      "geometry.covariant_hessian", "foliation.mean_curvature",
                      "foliation.second_fundamental_form", "foliation.level_set_frame",
                      "foliation.null_expansions", "foliation.slice_laplacian",
                      "foliation.barrier_scan", "foliation.schwarzschild_trk")
    absent_spans = ()

    def __init__(self, seed: int, blocks: int = 2000):
        rng = np.random.default_rng(seed)
        masses = rng.uniform(0.5, 2.0, blocks)
        self.jobs = []
        for m in masses:
            m = float(m)
            interior = _uniform_columns(rng, POINTS_PER_MODEL,
                                        ((-1.0, 1.0), INTERIOR_R) + ANGLES)
            interior[:, 1] *= m
            milne = _uniform_columns(rng, POINTS_PER_MODEL, MILNE_BOX + ANGLES)
            barrier = (m * float(rng.uniform(0.2, 0.8)), m * float(rng.uniform(1.8, 1.95)),
                       int(rng.integers(17, 65)))
            self.jobs.append(LevelSetJob(m, interior, milne, barrier))

    def setup(self):
        self.catalog = sc.builtin_models()
        self.run(self.jobs[0])

    def run(self, job: LevelSetJob):
        interior = self.catalog.model("schwarzschild-interior", M=job.m)
        milne = self.catalog.model("milne")
        r_field, t2_field = interior.field("r"), interior.field("t^2")
        tau_field, cosh_field = milne.field("tau"), milne.field("cosh(chi)")
        interior_out = []
        for coords in job.interior_points.tolist():
            p = sc.Point(coords)
            t, r = coords[0], coords[1]
            interior_out.append((
                sc.mean_curvature(r_field, interior, p),
                sc.second_fundamental_form(r_field, interior, p),
                sc.null_expansions(interior, (t, r)),
                sc.slice_laplacian(t2_field, interior, sc.SliceSpec("r", r), p)))
        milne_out = []
        for coords in job.milne_points.tolist():
            p = sc.Point(coords)
            tau, chi = coords[0], coords[1]
            milne_out.append((
                sc.mean_curvature(tau_field, milne, p),
                sc.second_fundamental_form(tau_field, milne, p),
                sc.null_expansions(milne, (tau, chi)),
                sc.slice_laplacian(cosh_field, milne, sc.SliceSpec("tau", tau), p)))
        scan = sc.barrier_scan(job.m, *job.barrier)
        return interior_out, milne_out, scan

    @staticmethod
    def check(job: LevelSetJob, result) -> list[str]:
        interior_out, milne_out, scan = result
        m = job.m
        problems = []

        def expect(label, actual, expected):
            if not _close(actual, expected, LEVEL_SET_TOL):
                problems.append(f"{label}: {actual!r} is not {expected!r}")

        for coords, (trk, k, (theta_p, theta_m), lap) in zip(
                job.interior_points.tolist(), interior_out):
            r = coords[1]
            # r = const cylinders inside the horizon; closed forms from the
            # metric -(1 - 2M/r) dt^2 + dr^2/(1 - 2M/r) + r^2 dOmega^2
            expected_trk = -(2.0 / r) * (2.0 * m / r - 1.0) ** -0.5 * (1.0 - 1.5 * m / r)
            expect(f"interior Tr K at r = {r!r}", trk, expected_trk)
            expect(f"interior trace of K at r = {r!r}", float(np.trace(k)), expected_trk)
            theta = -(2.0 / r) * math.sqrt(2.0 * m / r - 1.0)
            if not (theta_p < 0.0 and theta_m < 0.0):
                problems.append(f"interior null expansions ({theta_p!r}, {theta_m!r}) at "
                                f"r = {r!r} are not both negative")
            expect(f"interior theta+ at r = {r!r}", theta_p, theta)
            expect(f"interior theta- at r = {r!r}", theta_m, theta)
            expect(f"interior slice Laplacian of t^2 at r = {r!r}", lap,
                   2.0 / (2.0 * m / r - 1.0))
        for coords, (trk, k, (theta_p, theta_m), lap) in zip(
                job.milne_points.tolist(), milne_out):
            tau, chi = coords[0], coords[1]
            # hyperboloids of the Milne wedge: K = h / tau, and cosh(chi) is
            # an eigenfunction of the hyperbolic-space Laplacian
            expect(f"Milne Tr K at tau = {tau!r}", trk, 3.0 / tau)
            deviation = float(np.max(np.abs(k - np.eye(3) / tau)))
            if deviation > LEVEL_SET_TOL * max(1.0, 1.0 / tau):
                problems.append(f"Milne K at tau = {tau!r} deviates from I/tau by "
                                f"{deviation:.3e}")
            coth = 1.0 / math.tanh(chi)
            expect(f"Milne theta+ at {tau!r}, {chi!r}", theta_p, 2.0 / tau * (1.0 + coth))
            expect(f"Milne theta- at {tau!r}, {chi!r}", theta_m, 2.0 / tau * (1.0 - coth))
            expect(f"Milne slice Laplacian of cosh(chi) at {tau!r}, {chi!r}", lap,
                   3.0 * math.cosh(chi) / tau ** 2)
        if not scan.sign_pattern_ok:
            problems.append(f"barrier scan for M = {m!r} has the wrong sign pattern")
        if len(scan.zero_crossings) != 1 or \
                not scan.zero_crossings[0][0] <= 1.5 * m <= scan.zero_crossings[0][1]:
            problems.append(f"barrier zero crossings {scan.zero_crossings} do not bracket "
                            f"r = 3M/2 = {1.5 * m!r} once")
        return problems

    @staticmethod
    def work(job: LevelSetJob, result) -> dict:
        interior_out, milne_out, _ = result
        return {"samples": PROBES_PER_POINT * (len(interior_out) + len(milne_out)) + 1}

    @staticmethod
    def kind(job: LevelSetJob) -> str:
        return "batch"

    def describe(self) -> dict:
        return {
            "fingerprint": _fingerprint(j.row() for j in self.jobs),
            "jobs": len(self.jobs),
            "probes_per_job": PROBES_PER_POINT * 2 * POINTS_PER_MODEL + 1,
            "barrier_samples": sum(j.barrier[2] for j in self.jobs),
        }


WORKLOADS = {w.name: w for w in (CertifyGrid, GeodesicProbe, LevelSetProbes)}
