"""Command-line front end.

Subcommands: certify, barrier-scan, geodesic-probe, foliate, slice-probe.
Exit codes: 0 = success / condition holds, 2 = condition violated or
degenerate, 1 = usage or evaluation error.

Run configuration is a flat sectioned key = value text file:

    # comment
    [model]
    builtin = minkowski-cartesian        # or an inline chart:
                                         # coordinates = t, x
                                         # g[t,t] = "-1"
                                         # g[x,x] = "1"
                                         # param[M] = 1.0
                                         # singular_loci = "x - 2*M"
    [field]
    builtin = canonical                  # requires alpha = ...
    alpha = 0.5                          # or: expression = "0.5*(x^2...)"

    [certify]                            # box[t] = -1, 1  per coordinate
    samples_per_axis = 5                 # (model's default box otherwise)

    [barrier-scan]
    M = 1.0
    r_lo = 0.5
    r_hi = 1.9
    samples = 100

    [geodesic-probe]
    position = 0, 0, 0, 0
    velocity = 0, 1, 0, 0
    span = 0, 1
    step = 0.001
    c = 1.0                              # loop mode instead:
                                         # loop[t] = "0"
                                         # loop[x] = "cos(6.2831853071795865*s)"
    [slice-probe]
    coordinate = t
    value = 0.0
    point[0] = 0, 0.3, -0.2, 0.7
    maximal = true

    [foliate]
    coordinate = t
    values = 0.5, 1, 2
    point = 1, 0.8, 1.0, 0.4

Expression payloads are quoted verbatim; everything else is numbers, names,
or comma lists. Every value, a missing key's default included, takes one
checked conversion whose errors name the key and its line: numbers must be
finite and counts whole. --grid and --tolerance set the key they override
and take its conversion. Handlers read a Config and fill a Report; main
alone checks --out and its directory, reads the file, writes the report and
turns errors, a failed write included, into exit 1.
Reports are deterministic for a given config apart from the leading
timestamp line, which --no-timestamp suppresses; CSV uses '.' as the
decimal separator and 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalog import builtin_models
from .convexity import C_SEARCH_CEILING, PSD_TOLERANCE, ConvexityQuery, certify_region
from .errors import ConfigError, ToolkitError
from .expressions import ScalarField
from .foliation import (SliceSpec, barrier_scan, mean_curvature, slice_laplacian,
                        slice_restricted_hessian)
from .geodesics import (DEFAULT_STEP, MARGIN_TOLERANCE, CurveSpec, GeodesicState,
                        closed_curve_probe, convexity_along_curve, integrate_geodesic)
from .geometry import Point, SpacetimeModel


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


# --------------------------------------------------------------------------
# config file
# --------------------------------------------------------------------------

class ConfigValue:
    """A key's texts and line; every conversion error names both."""

    __slots__ = ("texts", "key", "line")

    def __init__(self, texts, key, line):
        self.texts = texts
        self.key = key
        self.line = line

    def single(self) -> str:
        if len(self.texts) != 1:
            raise ConfigError(f"'{self.key}' expects a single value", self.line)
        return self.texts[0]

    def number(self) -> float:
        return self._float(self.single())

    def count(self) -> int:
        value = self.number()
        if not value.is_integer():
            raise ConfigError(f"'{self.key}' must be a whole number, got {value!r}", self.line)
        return int(value)

    def numbers(self) -> list[float]:
        return [self._float(text) for text in self.texts]

    def flag(self) -> bool:
        raw = self.single()
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"'{self.key}' must be true or false, got {raw!r}", self.line)

    def _float(self, text) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"non-number {text!r} in '{self.key}'", self.line) from None
        if not math.isfinite(value):
            raise ConfigError(f"non-finite {text!r} in '{self.key}'", self.line)
        return value


def _split_value(text, lineno):
    """Split on top-level commas; double-quoted chunks are verbatim payloads."""
    items = []
    buf = []
    in_quotes = False
    was_quoted = False
    for ch in text:
        if in_quotes:
            if ch == '"':
                in_quotes = False
            else:
                buf.append(ch)
        elif ch == '"':
            if buf and "".join(buf).strip():
                raise ConfigError("unexpected quote inside a value", lineno)
            in_quotes = True
            was_quoted = True
        elif ch == ",":
            items.append("".join(buf).strip())
            buf = []
            was_quoted = False
        else:
            buf.append(ch)
    if in_quotes:
        raise ConfigError("unterminated quote", lineno)
    last = "".join(buf).strip()
    if last or was_quoted or items:
        items.append(last)
    if not items:
        raise ConfigError("empty value", lineno)
    return items


class Config:
    def __init__(self, sections):
        self.sections = sections

    @classmethod
    def from_text(cls, text) -> "Config":
        sections: dict[str, dict[str, ConfigValue]] = {}
        current = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            # comments start at an unquoted '#'
            stripped_chars = []
            in_quotes = False
            for ch in raw:
                if ch == '"':
                    in_quotes = not in_quotes
                if ch == "#" and not in_quotes:
                    break
                stripped_chars.append(ch)
            line = "".join(stripped_chars).strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]") or len(line) < 3:
                    raise ConfigError("malformed section header", lineno)
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", lineno)
            if current is None:
                raise ConfigError("key outside any [section]", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError("empty key", lineno)
            if key in sections[current]:
                raise ConfigError(f"duplicate key '{key}'", lineno)
            sections[current][key] = ConfigValue(_split_value(value, lineno), key, lineno)
        return cls(sections)

    @classmethod
    def from_path(cls, path) -> "Config":
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_text(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None

    def section(self, name) -> dict[str, ConfigValue]:
        return self.sections.get(name, {})

    def value(self, section, key, default=None) -> ConfigValue:
        """The key's value; a missing key reads as the default text, and is
        an error when there is none, so defaults take the same conversion."""
        sec = self.section(section)
        if key in sec:
            return sec[key]
        if default is None:
            raise ConfigError(f"missing '{key}' in [{section}]")
        return ConfigValue([default], key, None)

    def bracketed(self, section, prefix) -> dict[str, ConfigValue]:
        """All keys of the form prefix[inner], mapped by inner text."""
        out = {}
        for key, v in self.section(section).items():
            if key.startswith(prefix + "[") and key.endswith("]"):
                out[key[len(prefix) + 1:-1].strip()] = v
        return out


def _per_coordinate(entries, names, missing, read):
    """read(name, value) of each coordinate's entry, in coordinate order; a
    coordinate without one raises ConfigError(missing.format(name))."""
    values = []
    for name in names:
        if name not in entries:
            raise ConfigError(missing.format(name))
        values.append(read(name, entries[name]))
    return values


def _lo_hi(name, v):
    lohi = v.numbers()
    if len(lohi) != 2:
        raise ConfigError(f"box[{name}] expects 'lo, hi'", v.line)
    return lohi[0], lohi[1]


# --------------------------------------------------------------------------
# model / field resolution
# --------------------------------------------------------------------------

def resolve_model(cfg: Config) -> SpacetimeModel:
    section = cfg.section("model")
    if not section:
        raise ConfigError("missing [model] section")
    overrides = {name: v.number() for name, v in cfg.bracketed("model", "param").items()}
    if "builtin" in section:
        return builtin_models().model(section["builtin"].single(), **overrides)
    coords = cfg.value("model", "coordinates").texts
    components = {}
    for inner, v in cfg.bracketed("model", "g").items():
        pair = [s.strip() for s in inner.split(",")]
        if len(pair) != 2 or not all(c in coords for c in pair):
            raise ConfigError(f"bad metric component key 'g[{inner}]'", v.line)
        components[(coords.index(pair[0]), coords.index(pair[1]))] = v.single()
    loci = tuple(section["singular_loci"].texts) if "singular_loci" in section else ()
    return SpacetimeModel.from_components(
        name="inline", coordinate_names=coords, components=components,
        parameters=overrides, singular_loci=loci)


def resolve_field(cfg: Config, model: SpacetimeModel) -> ScalarField:
    section = cfg.section("field")
    if not section:
        raise ConfigError("missing [field] section")
    if "builtin" in section:
        name = section["builtin"].single()
        if "alpha" not in section:
            raise ConfigError(f"unbound parameter alpha for builtin field '{name}'")
        return builtin_models().field(name, alpha=section["alpha"].number())
    if "expression" not in section:
        raise ConfigError("field needs either 'builtin' or 'expression'")
    return model.field(section["expression"].single())


# --------------------------------------------------------------------------
# report writer
# --------------------------------------------------------------------------

class Report:
    def __init__(self, structured=False, timestamp=True):
        self.structured = structured
        self.lines: list[str] = []
        if timestamp:
            self.lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")

    def kv(self, key, value):
        if self.structured:
            self.lines.append(f"{key} = {_fmt(value)}")
        else:
            self.lines.append(f"{key.replace('.', ' ').replace('_', ' ')}: {_fmt(value)}")

    def raw(self, line):
        self.lines.append(line)

    def comment(self, text):
        self.lines.append(f"# {text}")

    def csv_row(self, values):
        self.lines.append(",".join(_fmt(float(v)) for v in values))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_certify(cfg: Config, report: Report) -> int:
    model = resolve_model(cfg)
    field = resolve_field(cfg, model)
    boxes = cfg.bracketed("certify", "box")
    if boxes:
        region = tuple(_per_coordinate(boxes, model.coordinate_names,
                                       "certify box missing coordinate '{}'", _lo_hi))
    elif model.sample_box is not None:
        region = model.sample_box
    else:
        raise ConfigError("no certify box given and the model declares no default")
    query = ConvexityQuery(
        region=region,
        samples_per_axis=cfg.value("certify", "samples_per_axis", "5").count(),
        psd_tolerance=cfg.value("certify", "psd_tolerance", repr(PSD_TOLERANCE)).number(),
        c_search_ceiling=cfg.value("certify", "c_ceiling", repr(C_SEARCH_CEILING)).number(),
    )
    cert = certify_region(model, field, query)
    report.kv("verdict", cert.verdict)
    if cert.c_interval is not None:
        report.kv("c_interval.lo", cert.c_interval.lo)
        report.kv("c_interval.hi", cert.c_interval.hi)
        report.kv("c_interval.ceiling_hit", cert.c_interval.ceiling_hit)
    else:
        report.kv("c_interval", "empty")
    if cert.witness is not None:
        report.kv("witness", ", ".join(_fmt(c) for c in cert.witness.coordinates))
    report.kv("grid", " x ".join(str(n) for n in cert.grid))
    report.kv("samples", cert.per_point_stats.samples)
    report.kv("hessian.lorentzian_everywhere", cert.lorentzian_hessian_everywhere)
    report.kv("hessian.signatures_seen", ", ".join(cert.signature_labels))
    report.kv("per_point.c_lo_min", cert.per_point_stats.c_lo_min)
    report.kv("per_point.c_lo_max", cert.per_point_stats.c_lo_max)
    report.kv("per_point.c_hi_min", cert.per_point_stats.c_hi_min)
    report.kv("per_point.c_hi_max", cert.per_point_stats.c_hi_max)
    report.kv("psd_tolerance", cert.psd_tolerance)
    report.comment("sampled certificate: holds at the grid resolution above, not proven globally")
    return 0 if cert.verdict == "certified" else 2


def cmd_barrier_scan(cfg: Config, report: Report) -> int:
    mass = cfg.value("barrier-scan", "M").number()
    r_lo = cfg.value("barrier-scan", "r_lo").number()
    r_hi = cfg.value("barrier-scan", "r_hi").number()
    samples = cfg.value("barrier-scan", "samples", "100").count()
    result = barrier_scan(mass, r_lo, r_hi, samples)
    report.raw("r,TrK")
    for r, v in result.r_samples:
        report.csv_row((r, v))
    for lo, hi in result.zero_crossings:
        report.comment(f"zero-crossing bracket: [{_fmt(lo)}, {_fmt(hi)}]")
    report.comment(f"maximal surface expected at 3M/2 = {_fmt(1.5 * mass)}")
    report.comment(f"sign_pattern_ok: {_fmt(result.sign_pattern_ok)}")
    return 0 if result.sign_pattern_ok else 2


def cmd_geodesic_probe(cfg: Config, report: Report) -> int:
    model = resolve_model(cfg)
    field = resolve_field(cfg, model)
    c = cfg.value("geodesic-probe", "c", "1.0").number()
    tolerance = cfg.value("geodesic-probe", "tolerance", repr(MARGIN_TOLERANCE)).number()
    loops = cfg.bracketed("geodesic-probe", "loop")
    if loops:
        texts = _per_coordinate(loops, model.coordinate_names, "loop is missing coordinate '{}'",
                                lambda name, v: v.single())
        curve = CurveSpec.from_texts(texts, extra_symbols=tuple(model.parameters))
        n_samples = cfg.value("geodesic-probe", "loop_samples", "256").count()
        probe = closed_curve_probe(field, model, curve, c, n_samples, tolerance)
        report.kv("mode", "closed-loop")
        report.kv("obstructed", probe.obstructed)
        report.kv("min_margin", probe.min_margin)
        report.kv("argmin_parameter", probe.argmin_parameter)
        report.kv("min_hessian_margin", probe.min_hessian_margin)
        report.kv("c", probe.c)
        report.kv("samples", probe.n_samples)
        return 2 if probe.obstructed else 0
    position = cfg.value("geodesic-probe", "position").numbers()
    velocity = cfg.value("geodesic-probe", "velocity").numbers()
    span = cfg.value("geodesic-probe", "span").numbers()
    if len(span) != 2:
        raise ConfigError("span expects 'start, end'")
    step = cfg.value("geodesic-probe", "step", repr(DEFAULT_STEP)).number()
    trajectory = integrate_geodesic(model, GeodesicState.of(position, velocity),
                                    (span[0], span[1]), step)
    margins = convexity_along_curve(field, trajectory, c, tolerance)
    report.raw("lambda," + ",".join(model.coordinate_names) + ",norm")
    for (lam, state), norm in zip(trajectory.samples, trajectory.norm_history):
        report.csv_row((lam, *state.position.coordinates, norm))
    report.comment(f"initial_class: {margins.initial_class.value}")
    report.comment(f"min_margin: {_fmt(margins.min_margin)} at lambda = "
                   f"{_fmt(margins.argmin_lambda)}")
    report.comment(f"norm_drift: {_fmt(trajectory.max_norm_drift)}")
    if trajectory.truncated:
        report.comment(f"truncated: {trajectory.truncation_reason}")
        return 1
    return 0 if margins.passed else 2


def cmd_foliate(cfg: Config, report: Report) -> int:
    model = resolve_model(cfg)
    field = resolve_field(cfg, model)
    coord = cfg.value("foliate", "coordinate").single()
    if coord not in model.coordinate_names:
        raise ConfigError(f"'{coord}' is not a coordinate of the model")
    k = model.coordinate_names.index(coord)
    values = cfg.value("foliate", "values").numbers()
    base = cfg.value("foliate", "point").numbers()
    report.raw(f"{coord},TrK")
    for value in values:
        coords = list(base)
        coords[k] = value
        trk = mean_curvature(field, model, Point(coords))
        report.csv_row((value, trk))
    return 0


def cmd_slice_probe(cfg: Config, report: Report) -> int:
    model = resolve_model(cfg)
    field = resolve_field(cfg, model)
    spec = SliceSpec(cfg.value("slice-probe", "coordinate").single(),
                     cfg.value("slice-probe", "value").number())
    maximal = cfg.value("slice-probe", "maximal", "false").flag()
    points = cfg.bracketed("slice-probe", "point")
    if not points:
        raise ConfigError("slice-probe needs at least one point[...] entry")
    report.kv("slice", f"{spec.coordinate} = {_fmt(spec.value)}")
    report.kv("declared_maximal", maximal)
    all_positive = True
    for label in sorted(points):
        coords = points[label].numbers()
        p = Point(coords)
        hess = slice_restricted_hessian(field, model, spec, p)
        lap = slice_laplacian(field, model, spec, p)
        eigenvalues = np.linalg.eigvalsh(hess)
        report.kv(f"point.{label}.coordinates", ", ".join(_fmt(c) for c in coords))
        report.kv(f"point.{label}.hessian_eigenvalues",
                  ", ".join(_fmt(float(ev)) for ev in eigenvalues))
        report.kv(f"point.{label}.laplacian", lap)
        if lap <= 0.0:
            all_positive = False
    if maximal:
        report.kv("subharmonicity", "holds" if all_positive else "violated")
    return 0 if (not maximal or all_positive) else 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's own 2 is this tool's 'violated' code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: flag -> (type, help, {command: the key it sets}), registered on those commands only
_OVERRIDES = {
    "--grid": (int, "resolution", {"certify": "samples_per_axis", "barrier-scan": "samples"}),
    "--tolerance": (float, "tolerance",
                    {"certify": "psd_tolerance", "geodesic-probe": "tolerance"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stconvex",
        description="Certify spacetime convexity and probe its geometric consequences.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("certify", cmd_certify, "certify a field over a coordinate box"),
        ("barrier-scan", cmd_barrier_scan, "table the interior mean-curvature closed form"),
        ("geodesic-probe", cmd_geodesic_probe, "integrate a geodesic or probe a closed loop"),
        ("foliate", cmd_foliate, "mean-curvature table along a level-set family"),
        ("slice-probe", cmd_slice_probe, "restricted Hessian and Laplacian on a slice"),
    )
    for name, handler, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        for flag, (kind, flag_help, keys) in _OVERRIDES.items():
            if name in keys:
                p.add_argument(flag, type=kind, default=None,
                               help=f"{flag_help}: overrides [{name}] {keys[name]}")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the leading timestamp line")
        p.add_argument("--structured", action="store_true",
                       help="machine-readable key = value report")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Check --out and its directory, read the config, set the override flags' keys,
    run the handler, write its report."""
    args = build_parser().parse_args(argv)
    report = Report(args.structured, not args.no_timestamp)
    try:
        if args.out and os.path.isdir(args.out):
            raise ConfigError(f"cannot write report: --out {args.out!r} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ConfigError(f"cannot write report: no directory for --out {args.out!r}")
        cfg = Config.from_path(args.config)
        for flag, (_, _, keys) in _OVERRIDES.items():
            if (value := getattr(args, flag.lstrip("-"), None)) is not None:
                section = cfg.sections.setdefault(args.command, {})
                section[keys[args.command]] = ConfigValue([repr(value)], flag, None)
        code = args.handler(cfg, report)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(report.render())
            except OSError as exc:
                raise ConfigError(f"cannot write report to {args.out!r}: {exc.strerror}") from None
        else:
            sys.stdout.write(report.render())
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code
