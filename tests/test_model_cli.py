import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from qsheaf.cli import run
from qsheaf.model import ModelError, build_model, load_model

from conftest import NON_PROJECTIVE_CONES, NON_PROJECTIVE_RAYS

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def model_path(name):
    return os.path.join(MODELS, f"{name}.json")


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_model_validation():
    with pytest.raises(ModelError):
        build_model({"fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}})
    with pytest.raises(ModelError):
        build_model({"version": 1})
    with pytest.raises(ModelError):
        build_model({"version": 1, "fan": {"rank": "x", "rays": [], "max_cones": []}})
    with pytest.raises(ModelError):
        build_model({"version": 1,
                     "fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
                     "options": {"bogus": 3}})
    for bad in _MALFORMED_SECTIONS:
        with pytest.raises(ModelError):
            build_model(bad)


# a scalar where a list or an object belongs, in each section that is iterated
_P1_FAN = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
_MALFORMED_SECTIONS = [
    {"version": 1, "fan": {**_P1_FAN, "rays": 5}},
    {"version": 1, "fan": {**_P1_FAN, "max_cones": 5}},
    {"version": 1, "fan": _P1_FAN, "deformation": {"entries": 5}},
    {"version": 1, "fan": _P1_FAN, "options": [1]},
    {"version": 1, "fan": _P1_FAN, "options": "x"},
]


@pytest.mark.parametrize("data", _MALFORMED_SECTIONS,
                         ids=["rays", "max_cones", "entries", "options-list", "options-str"])
def test_cli_malformed_section_is_model_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ModelError]: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_anchor_bound_option_accepted_and_ignored():
    fan = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
    m = build_model({"version": 1, "fan": fan, "options": {"anchor_bound": 10}})
    assert m.options == {}
    with pytest.raises(ModelError, match="unknown option 'anchor'"):
        build_model({"version": 1, "fan": fan, "options": {"anchor": 10}})


def test_string_integers_accepted():
    m = build_model({"version": "1",
                     "fan": {"rank": "1", "rays": [["1"], ["-1"]],
                             "max_cones": [["0"], ["1"]]}})
    assert m.fan.rays == ((1,), (-1,))
    assert m.deformation.is_tangent


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelError):
        load_model(str(tmp_path / "missing.json"))


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelError) as err:
        load_model(str(path))
    assert "line" in str(err.value)


def test_cli_polymology_p2(capsys):
    code, out, err = capture(capsys, ["polymology", model_path("p2"), "--no-cache"])
    assert code == 0
    assert "graded dims: 1,1,1" in out


def test_cli_correlator_p1(capsys):
    code, out, err = capture(capsys, ["correlator", model_path("p1"),
                                      "--poly", "D1^3", "--no-cache"])
    assert code == 0
    assert "series: q1" in out


def test_cli_sector_f2(capsys):
    code, out, err = capture(capsys, ["sector", model_path("f2"), "--beta", "1,0",
                                      "--no-cache"])
    assert code == 0
    assert "n_beta: 3" in out
    assert "(3,0)" in out


def test_cli_verify_f1(capsys):
    code, out, err = capture(capsys, ["verify", model_path("f1"), "--all",
                                      "--grid", "4", "--no-cache"])
    assert code == 0
    assert "all relations verified" in out


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1,
        "fan": {"rank": 2, "rays": [[2, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [1, 2], [0, 2]]},
    }))
    code, out, err = capture(capsys, ["analyze", str(bad), "--no-cache"])
    assert code == 1
    assert "NonPrimitiveRay" in err


def test_cli_parse_error_position(tmp_path, capsys):
    code, out, err = capture(capsys, ["correlator", model_path("p1"),
                                      "--poly", "D1 + $", "--no-cache"])
    assert code == 1
    assert "position" in err


def test_cli_zero_denominator_is_parse_error(tmp_path, capsys):
    code, out, err = capture(capsys, ["correlator", model_path("p1"),
                                      "--poly", "1/0*D1", "--no-cache"])
    assert code == 1
    assert err.startswith("error[ParseError]: zero denominator (at position 0)")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1,
        "fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
        "deformation": {"entries": [{"rho": 0, "m": [0], "coeff": "D1 + 1/0*D2"}]},
    }))
    code, out, err = capture(capsys, ["analyze", str(bad), "--no-cache"])
    assert code == 1
    assert err.startswith("error[ParseError]: zero denominator (at position 5)")


@pytest.mark.parametrize("command", ["analyze", "polymology", "qsr", "verify"])
def test_cli_non_projective_fan(tmp_path, capsys, command):
    path = tmp_path / "nonprojective.json"
    path.write_text(json.dumps({
        "version": 1,
        "fan": {"rank": 3, "rays": NON_PROJECTIVE_RAYS,
                "max_cones": NON_PROJECTIVE_CONES},
    }))
    code, out, err = capture(capsys, [command, str(path), "--no-cache"])
    assert code == 1
    assert out == ""
    assert err.startswith("error[NonProjectiveFan]: ")


def test_cli_deterministic_output(capsys):
    argv = ["analyze", model_path("p1xp1_deformed"), "--no-cache"]
    _, out1, _ = capture(capsys, argv)
    _, out2, _ = capture(capsys, argv)
    assert out1 == out2


def test_cli_json_format(capsys):
    code, out, err = capture(capsys, ["qsr", model_path("f2"), "--no-cache",
                                      "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "qsheaf-report/1"
    assert len(data["relations"]) == 2


def test_cli_verification_failure_exit_code(capsys, monkeypatch):
    import qsheaf.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify_qc_relation", lambda *a, **k: False)
    code, out, err = capture(capsys, ["verify", model_path("p2"), "--no-cache"])
    assert code == 2
    assert "FAIL" in out


def test_cache_transparency(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QSHEAF_CACHE", str(tmp_path / "cache"))
    argv = ["correlator", model_path("p1xp1_deformed"), "--poly", "D1*D3"]
    code1, cold, _ = capture(capsys, argv)
    code2, warm, _ = capture(capsys, argv)   # second run hits the cache
    code3, off, _ = capture(capsys, argv + ["--no-cache"])
    assert code1 == code2 == code3 == 0
    assert cold == warm == off
    assert any((tmp_path / "cache").iterdir())


@pytest.mark.parametrize("entry", ["{}", '{"order": "grevlex", "nv": 2, "nq": 0, '
                                   '"polys": [[["x", [1, 0], []]]]}'])
def test_malformed_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch, entry):
    monkeypatch.setenv("QSHEAF_CACHE", str(tmp_path))
    argv = ["correlator", model_path("p1xp1_deformed"), "--poly", "D1*D3"]
    code, fresh, _ = capture(capsys, argv)
    assert code == 0
    entries = sorted(tmp_path.glob("*.json"))
    assert entries
    for path in entries:
        path.write_text(entry)
    code, again, err = capture(capsys, argv)
    assert (code, again, err) == (0, fresh, "")
    for path in entries:   # each entry was recomputed and rewritten
        assert "polys" in json.loads(path.read_text())
        assert path.read_text() != entry


def _cli_env():
    """Environment for running the CLI as a separate process from this tree."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_cli_sector_of_ineffective_class_writes_nothing_to_stderr():
    # run as a separate process so that a Python warning would reach stderr
    proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "sector",
                           model_path("f1"), "--beta=-1,0", "--no-cache"],
                          capture_output=True, text=True, env=_cli_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "effective: False" in proc.stdout.splitlines()


def test_cli_negative_grid_rejected(capsys):
    code, out, err = capture(capsys, ["verify", model_path("f1"), "--all",
                                      "--grid", "-1", "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ModelError]: --grid must be nonnegative")


def test_cli_novikov_symbol_in_poly_is_parse_error(capsys):
    code, out, err = capture(capsys, ["correlator", model_path("f1"),
                                      "--poly", "q1*D1^3", "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]: unexpected character 'q' (at position 0)")


def test_cli_negative_trials_rejected(capsys, tmp_path):
    code, out, err = capture(capsys, ["analyze", model_path("f1"), "--trials", "-1",
                                      "--no-cache"])
    assert (code, out) == (1, "")
    assert err == "error[DeformError]: trials must be nonnegative, got -1\n"
    with open(model_path("f1")) as fh:
        data = json.load(fh)
    data["options"] = {"trials": -1}
    path = tmp_path / "negative_trials.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err == "error[DeformError]: trials must be nonnegative, got -1\n"
    code, out, err = capture(capsys, ["analyze", model_path("f1"), "--trials", "0",
                                      "--no-cache"])
    assert (code, err) == (0, "")
    assert "local freeness (0 trials): pass (probabilistic)" in out


@pytest.mark.parametrize("poly", ["(" * 400 + "D1" + ")" * 400, "-" * 3000 + "D1"],
                         ids=["parentheses", "unary-minus"])
def test_cli_deep_poly_nesting_is_parse_error(capsys, poly):
    code, out, err = capture(capsys, ["correlator", model_path("f1"), f"--poly={poly}",
                                      "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]: nesting deeper than 100 levels")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["correlator", model_path("f1"), "--poly", "-D1^2"],
     "argument --poly: expected one argument"),
    (["bogus", model_path("f1")], "argument command: invalid choice: 'bogus'"),
    (["analyze", model_path("f1"), "--grid", "x"],
     "argument --grid: invalid int value: 'x'"),
    (["analyze"], "the following arguments are required: model"),
], ids=["leading-minus-poly", "unknown-command", "bad-int", "missing-model"])
def test_cli_usage_error_exit_code(capsys, argv, message):
    code, out, err = capture(capsys, argv + ["--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[UsageError]: " + message)
    assert err.count("\n") == 1


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "usage: qsheaf" in capsys.readouterr().out


def test_cli_poly_above_coefficient_ceiling_is_parse_error():
    # a constant base passes the degree check, so only its height bounds it;
    # a separate process with a timeout, since expanding the power never ends
    proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "correlator",
                           model_path("f1"), "--poly", "2^30000000*D1^3", "--no-cache"],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error[ParseError]: coefficients would exceed ")
    assert proc.stderr.endswith("bits (at position 1)\n")
    assert proc.stderr.count("\n") == 1


def test_cli_sector_above_degree_ceiling_is_sector_error():
    # the generator degree is predicted from h0(d_c) before any Q_c power is
    # expanded; a separate process with a timeout, since the expansion runs for minutes
    proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "sector",
                           model_path("f1"), "--beta", "2000,0", "--no-cache"],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error[SectorError]: ")
    assert proc.stderr.endswith("above the ceiling 1000\n")
    assert proc.stderr.count("\n") == 1


def test_cli_poly_with_leading_minus_in_equals_form(capsys):
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly=-D1^2",
                                      "--no-cache"])
    assert (code, err) == (0, "")
    assert out.startswith("insertion: -psi1^2")


@pytest.mark.parametrize("poly, position", [("(D1+D2+D3)^3000", 10), ("D1*D1^9*D2", 7)],
                         ids=["power", "product"])
def test_cli_poly_above_degree_ceiling_is_parse_error(capsys, poly, position):
    # F1 has rank 2 and max_c1_degree 8: no insertion of degree above 10
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", poly,
                                      "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]: degree ")
    assert err.endswith(f"exceeds the ceiling 10 (at position {position})\n")
    assert err.count("\n") == 1


def test_cli_closed_stdout_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "verify",
                               model_path("f1"), "--all", "--grid", "6", "--no-cache"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_cli_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_negative_max_degree_rejected(capsys, tmp_path):
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", "D1^2",
                                      "--max-degree", "-3", "--no-cache"])
    assert (code, out) == (1, "")
    assert err == ("error[ModelError]: --max-degree (option max_c1_degree) "
                   "must be nonnegative, got -3\n")
    with open(model_path("f1")) as fh:
        data = json.load(fh)
    data["options"] = {"max_c1_degree": -1}
    path = tmp_path / "negative_max_degree.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, ["correlator", str(path), "--poly", "D1^2",
                                      "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ModelError]: --max-degree (option max_c1_degree) "
                          "must be nonnegative, got -1")
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", "D1^2",
                                      "--max-degree", "0", "--no-cache"])
    assert (code, err) == (0, "")


def _exact(text):
    """Fraction(text) read through Decimal, which the int digit limit spares."""
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_renders_results_above_the_int_digit_limit(capsys, fmt):
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", "D1^3",
                                      "--format", "json", "--no-cache"])
    assert (code, err) == (0, "")
    # each row is 2^20000 times the row of D1^3: over 6000 digits
    expected = [2 ** 20000 * Fraction(row["scalar"]) for row in json.loads(out)["sectors"]]
    assert any(expected)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly",
                                      "2^20000*D1^3", "--format", fmt, "--no-cache"])
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if fmt == "json":
        rows = [row["scalar"] for row in json.loads(out)["sectors"]]
    else:
        rows = [line.rsplit(": ", 1)[1].split(" [")[0] for line in out.splitlines()
                if line.startswith("  beta ")]
    assert [_exact(s) for s in rows] == expected


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_cli_poly_literal_above_the_int_digit_limit_is_refused(capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly",
                                      f"{digits}*D1^3", "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ValueError]: Exceeds the limit")
    assert err.count("\n") == 1
