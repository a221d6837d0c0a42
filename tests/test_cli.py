"""End-to-end command-line tests: exit codes, reports, determinism."""

import math
import os

import pytest

from stconvex.cli import main

TWO_PI = 2.0 * math.pi

CERTIFY_TEMPLATE = """
[model]
builtin = minkowski-cartesian

[field]
builtin = canonical
alpha = {alpha}

[certify]
box[t] = -1, 1
box[x] = -1, 1
box[y] = -1, 1
box[z] = -1, 1
samples_per_axis = 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_certify_success(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp",
                       "--structured")
    assert code == 0
    report = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert report["verdict"] == "certified"
    # the closed form is [alpha, 1]
    assert float(report["c_interval.lo"]) == pytest.approx(0.5, abs=1e-9)
    assert float(report["c_interval.hi"]) == pytest.approx(1.0, abs=1e-9)


def test_certify_reports_ceiling_hit_of_the_certificate(tmp_path, capsys):
    """Some grid points admit c up to the ceiling 8, but the certificate's hi
    is 1, so it reports that the ceiling was not hit."""
    s = "(0.5*{0}^2 + 19*({0}+1)^3/6)"
    expression = "-0.25*t^2 + " + " + ".join(s.format(u) for u in "xyz")
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.replace(
        "builtin = canonical\nalpha = {alpha}", f'expression = "{expression}"')
        + "c_ceiling = 8\n")
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp", "--structured")
    assert code == 0
    report = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert float(report["c_interval.hi"]) == pytest.approx(1.0, abs=1e-9)
    assert report["c_interval.ceiling_hit"] == "false"


def test_certify_violated_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=1.2))
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert code == 2
    assert "verdict: violated" in out
    assert "witness" in out


def test_certify_missing_alpha_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", """
[model]
builtin = minkowski-cartesian
[field]
builtin = canonical
[certify]
samples_per_axis = 2
""")
    code, _, err = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "unbound parameter" in err


def test_certify_default_box(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", """
[model]
builtin = minkowski-cartesian
[field]
builtin = canonical
alpha = 0.5
""")
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp", "--grid", "2")
    assert code == 0
    assert "grid: 2 x 2 x 2 x 2" in out


def test_deterministic_output(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.25))
    _, first, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    _, second, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert first == second


def test_timestamp_line_present_by_default(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    _, out, _ = run(capsys, "certify", "--config", cfg)
    assert out.startswith("# generated:")


def test_structured_report(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp",
                       "--structured")
    assert code == 0
    assert "verdict = certified" in out
    assert "c_interval.lo = " in out


def test_out_file(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert "verdict: certified" in target.read_text()


def test_barrier_scan_csv(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", """
[barrier-scan]
M = 1.0
r_lo = 0.5
r_hi = 1.9
samples = 100
""")
    code, out, _ = run(capsys, "barrier-scan", "--config", cfg, "--no-timestamp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,TrK"
    assert len([ln for ln in lines if "," in ln and not ln.startswith("#")]) == 101
    bracket = next(ln for ln in lines if "zero-crossing" in ln)
    lo, hi = [float(tok.strip("[], ")) for tok in bracket.split()[-2:]]
    assert lo < 1.5 < hi
    assert "# sign_pattern_ok: true" in out


def test_barrier_scan_outside_interior_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", """
[barrier-scan]
M = 1.0
r_lo = 2.5
r_hi = 3.0
samples = 10
""")
    code, _, err = run(capsys, "barrier-scan", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "error" in err


def test_barrier_scan_mass_two(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", """
[barrier-scan]
M = 2.0
r_lo = 1.0
r_hi = 3.9
samples = 100
""")
    code, out, _ = run(capsys, "barrier-scan", "--config", cfg, "--no-timestamp")
    assert code == 0
    bracket = next(ln for ln in out.splitlines() if "zero-crossing" in ln)
    lo, hi = [float(tok.strip("[], ")) for tok in bracket.split()[-2:]]
    assert lo < 3.0 < hi


GEODESIC_TEMPLATE = """
[model]
builtin = minkowski-cartesian
[field]
{field}
[geodesic-probe]
position = 0, 0.2, -0.4, 0.1
velocity = {velocity}
span = 0, 1
step = 0.05
c = 1.0
"""


def test_geodesic_probe_spacelike_line(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", GEODESIC_TEMPLATE.format(
        field="builtin = canonical\nalpha = 1.0", velocity="0, 1, 0, 0"))
    code, out, _ = run(capsys, "geodesic-probe", "--config", cfg, "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == "lambda,t,x,y,z,norm"
    assert "# initial_class: spacelike" in out
    assert "# min_margin: 0 " in out


def test_geodesic_probe_timelike_line(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", GEODESIC_TEMPLATE.format(
        field="builtin = canonical\nalpha = 1.0", velocity="1, 0, 0, 0"))
    code, out, _ = run(capsys, "geodesic-probe", "--config", cfg, "--no-timestamp")
    assert code == 0
    assert "# initial_class: timelike" in out


def test_geodesic_probe_constant_field_violation(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", GEODESIC_TEMPLATE.format(
        field='expression = "5"', velocity="0, 1, 0, 0"))
    code, out, _ = run(capsys, "geodesic-probe", "--config", cfg, "--no-timestamp")
    assert code == 2
    assert "# min_margin: -1 " in out


def test_geodesic_probe_closed_loop(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", f"""
[model]
builtin = minkowski-cartesian
[field]
builtin = canonical
alpha = 1.0
[geodesic-probe]
c = 1.0
loop[t] = "0"
loop[x] = "cos({TWO_PI!r}*s)"
loop[y] = "sin({TWO_PI!r}*s)"
loop[z] = "0"
loop_samples = 128
""")
    code, out, _ = run(capsys, "geodesic-probe", "--config", cfg, "--no-timestamp")
    assert code == 2
    assert "obstructed: true" in out
    assert f"{-4 * math.pi ** 2:.6f}"[:8] in out


def test_foliate_milne_table(tmp_path, capsys):
    cfg = write(tmp_path, "f.cfg", """
[model]
builtin = milne
[field]
expression = "tau"
[foliate]
coordinate = tau
values = 0.5, 1, 2
point = 1, 0.8, 1.0, 0.4
""")
    code, out, _ = run(capsys, "foliate", "--config", cfg, "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == "tau,TrK"
    assert "0.5,6" in out
    assert "2,1.5" in out


def test_slice_probe_flat(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", """
[model]
builtin = minkowski-cartesian
[field]
builtin = canonical
alpha = 0.5
[slice-probe]
coordinate = t
value = 0.0
point[0] = 0, 0.3, -0.2, 0.7
point[1] = 0, 1.0, 0.5, -0.5
maximal = true
""")
    code, out, _ = run(capsys, "slice-probe", "--config", cfg, "--no-timestamp")
    assert code == 0
    assert "laplacian: 3" in out
    assert "subharmonicity: holds" in out


def test_slice_probe_non_spacelike_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", """
[model]
builtin = minkowski-cartesian
[field]
expression = "t^2"
[slice-probe]
coordinate = x
value = 0.0
point[0] = 1, 0, 0, 0
""")
    code, _, err = run(capsys, "slice-probe", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "error" in err


def test_inline_model_definition(tmp_path, capsys):
    cfg = write(tmp_path, "m.cfg", """
[model]
coordinates = t, x
g[t,t] = "-1"
g[x,x] = "1"
[field]
expression = "0.5*x^2 - 0.25*t^2"
[certify]
box[t] = -1, 1
box[x] = -1, 1
samples_per_axis = 3
""")
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert code == 0
    assert "verdict: certified" in out


def test_config_error_reports_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[model]\nbuiltin minkowski-cartesian\n")
    code, _, err = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "line 2" in err


def test_expression_error_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", """
[model]
builtin = minkowski-cartesian
[field]
expression = "x +"
[certify]
samples_per_axis = 2
""")
    code, _, err = run(capsys, "certify", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "column" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "certify", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "cannot read config" in err


def test_geodesic_probe_truncation_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "g.cfg", """
[model]
builtin = schwarzschild-exterior
[field]
expression = "r"
[geodesic-probe]
position = 0, 2.2, 1.5707963267948966, 0
velocity = 3, -1.5, 0, 0
span = 0, 2
step = 0.01
c = 1.0
""")
    code, out, _ = run(capsys, "geodesic-probe", "--config", cfg, "--no-timestamp")
    assert code == 1
    assert "# truncated:" in out


def test_foliate_matches_closed_form_end_to_end(tmp_path, capsys):
    """The full stack (config -> model -> level-set machinery -> CSV) agrees
    with the interior closed form."""
    from stconvex import schwarzschild_trk
    cfg = write(tmp_path, "f.cfg", """
[model]
builtin = schwarzschild-interior
[field]
expression = "r"
[foliate]
coordinate = r
values = 0.5, 1.0, 1.5, 1.8
point = 0, 1, 1.2, 0.3
""")
    code, out, _ = run(capsys, "foliate", "--config", cfg, "--no-timestamp")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for r_text, trk_text in rows:
        assert float(trk_text) == pytest.approx(
            schwarzschild_trk(float(r_text), 1.0), abs=1e-10)


def test_certify_tolerance_flag(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp",
                       "--tolerance", "1e-8")
    assert code == 0
    assert "psd tolerance: 1e-08" in out


def test_csv_uses_17_significant_digits(tmp_path, capsys):
    cfg = write(tmp_path, "b.cfg", """
[barrier-scan]
M = 1.0
r_lo = 0.7
r_hi = 1.3
samples = 3
""")
    _, out, _ = run(capsys, "barrier-scan", "--config", cfg, "--no-timestamp")
    row = out.splitlines()[1]
    r_text, trk_text = row.split(",")
    assert float(r_text) == 0.7
    assert len(trk_text.replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_usage_error_missing_config_exit_1(capsys):
    """Usage errors exit 1; exit 2 is reserved for a violated condition."""
    with pytest.raises(SystemExit) as exc:
        main(["certify"])
    assert exc.value.code == 1
    assert "--config" in capsys.readouterr().err


def test_foliate_rejects_grid_flag(tmp_path, capsys):
    """--grid is registered only on the commands that read it."""
    cfg = write(tmp_path, "f.cfg", "[foliate]\ncoordinate = tau\n")
    with pytest.raises(SystemExit) as exc:
        main(["foliate", "--config", cfg, "--grid", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --grid 3" in capsys.readouterr().err


_BAD_NUMBERS_MODEL = """[model]
builtin = schwarzschild-exterior
{model_line}
[field]
expression = "r"
"""


@pytest.mark.parametrize("command, text, key, message", [
    ("certify", _BAD_NUMBERS_MODEL.format(model_line="param[M] = abc"),
     "param[M]", "non-number 'abc'"),
    ("certify", _BAD_NUMBERS_MODEL.format(model_line="param[M] = 1, 2"),
     "param[M]", "expects a single value"),
    ("certify", CERTIFY_TEMPLATE.format(alpha=0.5).replace("box[x] = -1, 1", "box[x] = -1, x"),
     "box[x]", "non-number 'x'"),
    ("slice-probe", _BAD_NUMBERS_MODEL.format(model_line="") + """[slice-probe]
coordinate = t
value = 0.0
point[0] = 0, a, 0, 0
""", "point[0]", "non-number 'a'"),
    ("geodesic-probe", """[model]
builtin = minkowski-cartesian
[field]
builtin = canonical
alpha = 1.0
[geodesic-probe]
loop[t] = "0"
loop[x] = "cos(s)", "sin(s)"
loop[y] = "sin(s)"
loop[z] = "0"
""", "loop[x]", "expects a single value"),
    ("certify", CERTIFY_TEMPLATE.format(alpha=0.5).replace("= 3", "= 2.9"),
     "samples_per_axis", "must be a whole number, got 2.9"),
    ("barrier-scan", "[barrier-scan]\nM = 1.0\nr_lo = 0.5\nr_hi = 1.9\nsamples = inf\n",
     "samples", "non-finite 'inf'"),
    ("certify", CERTIFY_TEMPLATE.format(alpha=0.5) + "psd_tolerance = nan\n",
     "psd_tolerance", "non-finite 'nan'"),
    ("geodesic-probe", GEODESIC_TEMPLATE.format(
        field="builtin = canonical\nalpha = 1.0", velocity="0, 1, 0, 0").replace(
        "c = 1.0", "c = nan"), "c", "non-finite 'nan'"),
    ("geodesic-probe", GEODESIC_TEMPLATE.format(
        field="builtin = canonical\nalpha = 1.0", velocity="0, 1, 0, 0").replace(
        "span = 0, 1", "span = 0, inf"), "span", "non-finite 'inf'"),
], ids=["param-not-a-number", "param-two-values", "box-not-a-number",
        "point-not-a-number", "loop-two-payloads", "grid-not-whole", "samples-infinite",
        "tolerance-nan", "c-nan", "span-infinite"])
def test_numbers_and_single_values_name_key_and_line(tmp_path, capsys, command, text, key,
                                                     message):
    """Every number and single-valued key goes through one checked
    conversion: a bad value exits 1 with a ConfigError naming the key and its
    line, never a bare float() message, and an extra value is never dropped."""
    cfg = write(tmp_path, "bad.cfg", text)
    line = next(n for n, raw in enumerate(text.splitlines(), 1) if raw.startswith(key))
    code, _, err = run(capsys, command, "--config", cfg, "--no-timestamp")
    assert code == 1
    assert f"error: line {line}: " in err
    assert message in err and f"'{key}'" in err


@pytest.mark.parametrize("command, flag, key, value", [
    ("certify", "--grid", "samples_per_axis", "2"),
    ("certify", "--tolerance", "psd_tolerance", "1e-08"),
    ("barrier-scan", "--grid", "samples", "7"),
    ("geodesic-probe", "--tolerance", "tolerance", "0.5"),
])
def test_override_flag_is_the_value_of_its_key(tmp_path, capsys, command, flag, key, value):
    """A flag sets the key it overrides, over the config's own value: the run
    is byte for byte the run with the key set to the flag's value."""
    base = {
        "certify": CERTIFY_TEMPLATE.format(alpha=0.5).replace("samples_per_axis = 3\n", ""),
        "barrier-scan": "[barrier-scan]\nM = 1.0\nr_lo = 0.5\nr_hi = 1.9\n",
        # min_margin -1: the tolerance decides the exit code
        "geodesic-probe": GEODESIC_TEMPLATE.format(field='expression = "5"',
                                                   velocity="0, 1, 0, 0"),
    }[command]
    flagged = write(tmp_path, "flagged.cfg", base + f"{key} = 4\n")
    keyed = write(tmp_path, "keyed.cfg", base + f"{key} = {value}\n")
    common = ("--no-timestamp", "--structured")
    by_flag = run(capsys, command, "--config", flagged, flag, value, *common)
    by_key = run(capsys, command, "--config", keyed, *common)
    assert by_flag == by_key
    assert by_flag[0] in (0, 2) and by_flag[1]


def test_override_flags_are_values_not_fallbacks(tmp_path, capsys):
    """0 is a value: --grid 0 is refused by the query, --tolerance 0 is
    used; a non-finite flag value is refused naming the flag."""
    cfg = write(tmp_path, "c.cfg", CERTIFY_TEMPLATE.format(alpha=0.5))
    code, out, err = run(capsys, "certify", "--config", cfg, "--grid", "0")
    assert code == 1 and out == ""
    assert "samples_per_axis must be at least 2" in err
    code, out, _ = run(capsys, "certify", "--config", cfg, "--no-timestamp", "--structured",
                       "--tolerance", "0")
    assert code == 0 and "psd_tolerance = 0\n" in out
    code, _, err = run(capsys, "certify", "--config", cfg, "--tolerance", "nan")
    assert code == 1
    assert "non-finite 'nan' in '--tolerance'" in err


def test_out_into_missing_directory_fails_before_the_work(tmp_path, capsys):
    """--out's directory is checked before the config is read: the config
    here is missing, and the error names the report path, not the config."""
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "barrier-scan", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write report:") and repr(str(target)) in err
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_exits_1_naming_the_path(tmp_path, capsys):
    """A write that fails after the work (here: no space left) names the path."""
    cfg = write(tmp_path, "b.cfg", "[barrier-scan]\nM = 1.0\nr_lo = 0.5\nr_hi = 1.9\n")
    code, out, err = run(capsys, "barrier-scan", "--config", cfg, "--out", "/dev/full")
    assert code == 1 and out == ""
    assert err == "error: cannot write report to '/dev/full': No space left on device\n"


_CANONICAL = "builtin = canonical\nalpha = 0.5\n"
_FIELD = "[field]\n" + _CANONICAL
_INLINE_TX = '[model]\ncoordinates = t, x\ng[t,t] = "-1"\ng[x,x] = "1"\n'


@pytest.mark.parametrize("command, text, message", [
    ("certify", '[model]\nbuiltin = ab"cd"\n', "line 2: unexpected quote inside a value"),
    ("certify", '[model]\nbuiltin = "milne\n', "line 2: unterminated quote"),
    ("certify", "[model]\nbuiltin =\n", "line 2: empty value"),
    ("certify", "\n[model\n", "line 2: malformed section header"),
    ("certify", "builtin = milne\n", "line 1: key outside any [section]"),
    ("certify", "[model]\n= milne\n", "line 2: empty key"),
    ("certify", "[model]\nbuiltin = milne\nbuiltin = milne\n", "line 3: duplicate key 'builtin'"),
    ("barrier-scan", "[barrier-scan]\nr_lo = 0.5\nr_hi = 1.9\n",
     "missing 'M' in [barrier-scan]"),
    ("slice-probe", "[model]\nbuiltin = minkowski-cartesian\n" + _FIELD
     + "[slice-probe]\ncoordinate = t\nvalue = 0\nmaximal = maybe\n",
     "line 9: 'maximal' must be true or false, got 'maybe'"),
    ("certify", _FIELD, "missing [model] section"),
    ("certify", _INLINE_TX + 'g[t,y] = "0"\n', "line 5: bad metric component key 'g[t,y]'"),
    ("certify", "[model]\nbuiltin = minkowski-cartesian\n", "missing [field] section"),
    ("certify", "[model]\nbuiltin = minkowski-cartesian\n[field]\nalpha = 0.5\n",
     "field needs either 'builtin' or 'expression'"),
    ("certify", CERTIFY_TEMPLATE.format(alpha=0.5).replace("box[z] = -1, 1\n", ""),
     "certify box missing coordinate 'z'"),
    ("certify", CERTIFY_TEMPLATE.format(alpha=0.5).replace("box[z] = -1, 1", "box[z] = 1"),
     "line 13: box[z] expects 'lo, hi'"),
    ("certify", _INLINE_TX + '[field]\nexpression = "x^2"\n',
     "no certify box given and the model declares no default"),
    ("geodesic-probe", "[model]\nbuiltin = minkowski-cartesian\n" + _FIELD
     + '[geodesic-probe]\nloop[t] = "0"\nloop[x] = "cos(s)"\nloop[y] = "sin(s)"\n',
     "loop is missing coordinate 'z'"),
    ("geodesic-probe", GEODESIC_TEMPLATE.format(field=_CANONICAL, velocity="0, 1, 0, 0")
     .replace("span = 0, 1", "span = 1"), "span expects 'start, end'"),
    ("foliate", "[model]\nbuiltin = milne\n" + _FIELD + "[foliate]\ncoordinate = t\n",
     "'t' is not a coordinate of the model"),
    ("foliate", "[model]\nbuiltin = milne\n" + _FIELD
     + "[foliate]\ncoordinate = phi\nvalues = 0.1\npoint = 1, 0.8\n",
     "line 9: 'point' expects 4 values, one per coordinate, got 2"),
    ("slice-probe", "[model]\nbuiltin = minkowski-cartesian\n" + _FIELD
     + "[slice-probe]\ncoordinate = t\nvalue = 0\n",
     "slice-probe needs at least one point[...] entry"),
    ("certify", _INLINE_TX + 'singular_loci = "x"\n[field]\nexpression = "x^2"\n'
     "[certify]\nbox[t] = -1, 1\nbox[x] = -1, 1\nsamples_per_axis = 3\n",
     "point (-1.0, 0.0) lies on or within 1e-06 of the singular locus x = 0 "
     "of 'inline' [at grid point (-1.0, 0.0)]"),
    ("geodesic-probe", GEODESIC_TEMPLATE.format(field=_CANONICAL, velocity="0, 1, 0, 0")
     .replace("span = 0, 1", "span = 0, 1e300").replace("step = 0.05", "step = 1e-300"),
     "parameter span (0.0, 1e+300) with step 1e-300 gives a step count that is not finite"),
], ids=["stray-quote", "unterminated-quote", "empty-value", "malformed-header",
        "key-outside-section", "empty-key", "duplicate-key", "missing-key", "bad-flag",
        "no-model", "bad-component-key", "no-field", "field-without-source",
        "box-missing-coordinate", "box-one-value", "no-box", "loop-missing-coordinate",
        "span-one-value", "foliate-unknown-coordinate", "foliate-short-point",
        "slice-without-points", "inline-singular-locus", "span-uncountable-steps"])
def test_config_errors_exit_1_with_their_message(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path, "bad.cfg", text)
    code, out, err = run(capsys, command, "--config", cfg, "--no-timestamp")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_out_naming_a_directory_fails_before_the_work(tmp_path, capsys):
    """--out naming an existing directory is refused before the config is
    read: the config here is missing, and the error names the report path."""
    code, out, err = run(capsys, "barrier-scan", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write report: --out {str(tmp_path)!r} is a directory\n"


@pytest.mark.parametrize("command, text, code, expected", [
    ("certify", "# a whole-line comment\n"
     + CERTIFY_TEMPLATE.format(alpha="0.5   # a trailing comment"), 0, "verdict: certified"),
    ("slice-probe", "[model]\nbuiltin = minkowski-cartesian\n"
     '[field]\nexpression = "-(x^2 + y^2 + z^2)"\n'
     "[slice-probe]\ncoordinate = t\nvalue = 0\npoint[0] = 0, 0.3, -0.2, 0.7\nmaximal = true\n",
     2, "subharmonicity: violated"),
], ids=["comments", "maximal-slice-not-subharmonic"])
def test_config_features_reach_the_report(tmp_path, capsys, command, text, code, expected):
    cfg = write(tmp_path, "f.cfg", text)
    got, out, err = run(capsys, command, "--config", cfg, "--no-timestamp")
    assert got == code
    assert expected in out + err
