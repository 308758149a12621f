import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from qsheaf.cli import run
from qsheaf.model import ModelError, build_model, load_model

from conftest import (INT_DIGIT_LIMIT, NON_PROJECTIVE_CONES, NON_PROJECTIVE_RAYS,
                      beta_texts, blown_up_p1xp1, hexagon, poly_texts)

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no int digit limit")
PAST_THE_LIMIT = f"{INT_DIGIT_LIMIT + 1}-digit integer exceeds Python's int digit limit"


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


def test_cli_deeply_nested_json_is_model_error(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "fan": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err == f"error[ModelError]: model file {path} nests JSON too deeply\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_cli_json_integer_past_the_int_digit_limit_is_model_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for such an int
    text = open(model_path("f1")).read()
    path = tmp_path / "long.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text(text.replace('"rank": 2', f'"rank": {digits}'))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err == (f"error[ModelError]: model file {path} has an integer longer than "
                   f"Python's int digit limit\n")


@pytest.mark.parametrize("rank, message", [
    pytest.param("7" * (INT_DIGIT_LIMIT + 1), f"fan.rank: {PAST_THE_LIMIT}",
                 marks=NEEDS_DIGIT_LIMIT, id="past-the-digit-limit"),
    pytest.param("x" * 5000, "fan.rank: '" + "x" * 47 + "... is not an integer", id="long-word"),
])
def test_cli_long_integer_field_is_one_short_model_error(tmp_path, capsys, rank, message):
    # a string integer field is echoed cut, never in full
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(_f1_edited(lambda d: d["fan"].update(rank=rank))))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out, err) == (1, "", f"error[ModelError]: {message}\n")
    assert len(err.encode()) <= 200


def test_cli_model_coefficient_power_is_refused_before_it_is_expanded(tmp_path, capsys):
    # a coefficient is parsed under the degree ceiling 1 of a linear form, so
    # this power is refused unexpanded: expanding it took seconds and the
    # error line echoed the expanded polynomial
    with open(model_path("p1xp1_deformed")) as fh:
        data = json.load(fh)
    data["deformation"]["entries"][4]["coeff"] = "(D1+D2+D3+D4)^2000"
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err == "error[ParseError]: degree 2000 exceeds the ceiling 1 (at position 13)\n"


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
    # polymology builds its basis through the store; a Picard rank 2
    # correlator builds none
    monkeypatch.setenv("QSHEAF_CACHE", str(tmp_path / "cache"))
    argv = ["polymology", model_path("p1xp1_deformed")]
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
    argv = ["polymology", model_path("p1xp1_deformed")]
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


def test_cli_analyze_reports_a_failed_local_freeness_check(capsys, tmp_path):
    # the rank-collapse P^1 of tests/test_deform.py: x0 + x1 = 0 drops the rank
    entries = [{"rho": rho, "m": m, "coeff": "D1"}
               for rho, m in ((0, [0]), (0, [-1]), (1, [0]), (1, [1]))]
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps({"version": 1, "fan": _P1_FAN,
                                "deformation": {"entries": entries}}))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    # the report says FAIL, yet analyze exits 0, not the 2 the CLI
    # docstring reserves for a verification failure
    assert (code, err) == (0, "")
    assert "local freeness (20 trials): FAIL witness=['-1', '1']\n" in out
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["local_freeness"] == {
        "passed": False, "witness": ["-1", "1"], "trials": 20,
        "note": "probabilistic check; a pass is evidence, not proof"}


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


@pytest.mark.parametrize("beta", ["3000000,0", "30000000,0"])
def test_cli_sector_ceiling_checked_before_the_sector_is_listed(beta):
    # sector() lists sum(d_rho + 1) enhanced edges, 6 * 10^7 of them for the
    # larger class: the ceiling must refuse it first.  A separate process with
    # a timeout, since listing them runs for seconds or exhausts memory.
    proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "sector",
                           model_path("f1"), "--beta", beta, "--no-cache"],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error[SectorError]: ")
    assert proc.stderr.endswith("above the ceiling 1000\n")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("beta, message", [
    ("1,,0", "--beta field 2 of '1,,0' is empty"),
    (",1,0,", "--beta field 1 of ',1,0,' is empty"),
    ("1, ", "--beta field 2 of '1, ' is empty"),
    ("1,x", "--beta field 2 of '1,x' is not an integer"),
    ("1.5,0", "--beta field 1 of '1.5,0' is not an integer"),
    ("1,0,0", "--beta needs 2 Mori coordinates, got 3"),
], ids=["inner-empty", "outer-empty", "blank", "word", "decimal", "too-many"])
def test_cli_malformed_beta_is_model_error(capsys, beta, message):
    code, out, err = capture(capsys, ["sector", model_path("f1"), f"--beta={beta}",
                                      "--no-cache"])
    assert (code, out) == (1, "")
    assert err == f"error[ModelError]: {message}\n"


@pytest.mark.parametrize("beta, message", [
    pytest.param("7" * (INT_DIGIT_LIMIT + 1) + ",0", f"--beta field 1: {PAST_THE_LIMIT}",
                 marks=NEEDS_DIGIT_LIMIT, id="past-the-digit-limit"),
    pytest.param("1," + "x" * 5000, "--beta field 2 of '1," + "x" * 45 + "... is not an integer",
                 id="long-word"),
])
def test_cli_long_beta_is_one_short_model_error(capsys, beta, message):
    # the --beta text is echoed cut, never in full
    code, out, err = capture(capsys, ["sector", model_path("f1"), "--beta", beta, "--no-cache"])
    assert (code, out, err) == (1, "", f"error[ModelError]: {message}\n")
    assert len(err.encode()) <= 200


def test_cli_f1_degree_36_series_matches_frozen_report(capsys):
    # the report of the Groebner-basis route, recorded before Picard rank 2
    # moved to residues; degree 38 stays above the sector ceiling
    with open(os.path.join(os.path.dirname(__file__), "golden_f1_d1_36.txt"), "rb") as fh:
        frozen = fh.read().decode("utf-8")
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", "D1^36",
                                      "--max-degree", "36", "--no-cache"])
    assert (code, err) == (0, "")
    assert out == frozen
    code, out, err = capture(capsys, ["correlator", model_path("f1"), "--poly", "D1^38",
                                      "--max-degree", "38", "--no-cache"])
    assert (code, out) == (1, "")
    assert err == ("error[SectorError]: sector (531, 531, 18, 549) needs a generator "
                   "of degree 1064, above the ceiling 1000\n")


def test_cli_trials_above_ceiling_is_deform_error(tmp_path):
    # at about 0.2 ms a trial, 10^8 trials would run for hours; a separate
    # process with a timeout, for the flag and for the model option
    with open(model_path("f1")) as fh:
        data = json.load(fh)
    data["options"] = {"trials": 100_000_000}
    path = tmp_path / "many_trials.json"
    path.write_text(json.dumps(data))
    for argv in ([model_path("f1"), "--trials", "100000000"], [str(path)]):
        proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "analyze", *argv,
                               "--no-cache"],
                              capture_output=True, text=True, env=_cli_env(), timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == \
            "error[DeformError]: trials 100000000 is above the ceiling 10000\n"


def test_cli_analyze_many_collections_is_fast(tmp_path):
    # 35 primitive collections in Picard rank 8: a facet comparison of the
    # beta_K cone would take C(35, 7), about 6.7 million, kernels
    fan = blown_up_p1xp1(10)
    path = tmp_path / "ten_rays.json"
    path.write_text(json.dumps({"version": 1, "fan": {
        "rank": 2, "rays": [list(v) for v in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones]}}))
    proc = subprocess.run([sys.executable, "-m", "qsheaf.cli", "analyze", str(path),
                           "--no-cache", "--format", "json"],
                          capture_output=True, text=True, env=_cli_env(), timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["pic_rank"], len(report["primitive_collections"])) == (8, 35)
    assert report["effective_cones_coincide"] is True


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
    assert err.startswith(f"error[ParseError]: {len(digits)}-digit number exceeds Python's int")
    assert err.count("\n") == 1


def _check_fuzz_case(argv, text):
    """run(argv) in-process exits 0, or 1 with one short line naming the
    error's own type: a bare ValueError is untyped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), (text, code)
    if code == 0:
        assert out and err == "", (text, err)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (text, err)
        assert re.fullmatch(r"error\[\w+\]: .+\n", err) and "Traceback" not in err, (text, err)
        assert not err.startswith("error[ValueError]"), (text, err)
        assert len(err.encode()) <= 200, (text, err)


# each case within a budget of a few seconds, and tier-1 time kept small
@given(poly_texts(16))
@example("D1^²")
@example("7" * (INT_DIGIT_LIMIT + 1) + "*D1")
@example("D1 " + "7" * INT_DIGIT_LIMIT)
@example("D" + "7" * INT_DIGIT_LIMIT)
@example("(D1*D1)^" + "7" * INT_DIGIT_LIMIT)
@settings(max_examples=300, deadline=3000)
def test_cli_poly_fuzz_exits_0_or_1_with_one_typed_error_line(text):
    _check_fuzz_case(["correlator", model_path("f1"), f"--poly={text}", "--max-degree", "4",
                      "--no-cache"], text)


@given(beta_texts(8))
@example("7" * INT_DIGIT_LIMIT + ",0")
@example("7" * (INT_DIGIT_LIMIT + 1) + ",0")
@example("1,,٣,x" + "7" * (INT_DIGIT_LIMIT - 1))
@settings(max_examples=200, deadline=3000)
def test_cli_beta_fuzz_exits_0_or_1_with_one_typed_error_line(text):
    _check_fuzz_case(["sector", model_path("f1"), "--beta", text, "--no-cache"], text)


def test_cli_runs_in_one_process_keep_their_flags_apart(capsys):
    # one parser serves every run; a flag of one call must not reach the next
    code, out, _ = capture(capsys, ["sector", model_path("f1"), "--beta", "1,0", "--no-cache"])
    assert code == 0 and out
    code, out, err = capture(capsys, ["sector", model_path("f1"), "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ModelError]: sector requires --beta ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_series_of_degree_zero_on_dp3_has_no_novikov_symbol(tmp_path, capsys, fmt):
    # dP3 has six Mori generators in rank 4, so beta = 0 has no Mori
    # coordinates; q^0 = 1 still renders as the bare coefficient
    fan = hexagon()
    path = tmp_path / "dp3.json"
    path.write_text(json.dumps({"version": 1, "fan": {
        "rank": 2, "rays": [list(v) for v in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones]}}))
    code, out, err = capture(capsys, ["correlator", str(path), "--poly",
                                      "(D1+D2+D3+D4+D5+D6)^2", "--format", fmt,
                                      "--no-cache"])
    assert (code, err) == (0, "")
    series = json.loads(out)["series"] if fmt == "json" else out.splitlines()[-1]
    assert series == ("-1/4" if fmt == "json" else "series: -1/4")


def _f1_edited(edit):
    """models/f1.json after edit(data), or what edit returns if anything."""
    with open(model_path("f1")) as fh:
        data = json.load(fh)
    return edit(data) or data


def _entry(**fields):
    return {"entries": [{"rho": 0, "m": [0, 0], "coeff": "D1", **fields}]}


# one edit of models/f1.json per validation check, and the line it prints
_INVALID_MODELS = [
    ("rank-0", lambda d: d["fan"].update(rank=0),
     "error[FanError]: rank must be a positive integer"),
    ("no-rays", lambda d: d["fan"].update(rays=[]), "error[FanError]: ray list is empty"),
    ("no-cones", lambda d: d["fan"].update(max_cones=[]),
     "error[FanError]: maximal cone list is empty"),
    ("ray-arity", lambda d: d["fan"]["rays"].__setitem__(0, [1, 0, 0]),
     "error[FanError]: ray (1, 0, 0) does not have 2 coordinates"),
    ("ray-index", lambda d: d["fan"]["max_cones"].__setitem__(0, [0, 7]),
     "error[FanError]: cone (0, 7) references an unknown ray index"),
    ("duplicate-cone", lambda d: d["fan"]["max_cones"].append([2, 0]),
     "error[IncompleteFan]: duplicate maximal cone"),
    ("rank-bool", lambda d: d["fan"].update(rank=True),
     "error[ModelError]: fan.rank: expected an integer, got a boolean"),
    ("rank-word", lambda d: d["fan"].update(rank="two"),
     "error[ModelError]: fan.rank: 'two' is not an integer"),
    ("rank-float", lambda d: d["fan"].update(rank=1.5),
     "error[ModelError]: fan.rank: 1.5 is not an integer"),
    ("top-list", lambda d: [d], "error[ModelError]: model file must contain a JSON object"),
    ("deformation-str", lambda d: d.update(deformation="x"),
     "error[ModelError]: 'deformation' must be an object with 'entries'"),
    ("entry-int", lambda d: d.update(deformation={"entries": [5]}),
     "error[ModelError]: deformation entries must be objects"),
    ("coeff-int", lambda d: d.update(deformation=_entry(coeff=3)),
     "error[ModelError]: deformation coefficients must be D-symbol strings"),
    ("character-arity", lambda d: d.update(deformation=_entry(m=[0])),
     "error[DeformError]: character (0,) must have 2 coordinates"),
    # a coefficient is parsed under the degree ceiling 1 of a linear form
    ("nonlinear-coeff", lambda d: d.update(deformation=_entry(coeff="D1*D2")),
     "error[ParseError]: degree 2 exceeds the ceiling 1 (at position 2)"),
    ("cancelled-coeff", lambda d: d.update(deformation=_entry(coeff="D1^2 - D1^2 + D2")),
     "error[ParseError]: degree 2 exceeds the ceiling 1 (at position 2)"),
    ("constant-coeff", lambda d: d.update(deformation=_entry(coeff="3")),
     "error[DeformError]: coefficient 3 for (rho=0, m=(0, 0)) is not a linear form in W"),
    ("inhomogeneous-coeff", lambda d: d.update(deformation=_entry(coeff="D1 + 1")),
     "error[DeformError]: coefficient -psi1 + psi2 + 1 for (rho=0, m=(0, 0)) "
     "is not a linear form in W"),
    # options must be an object, absent or null: a falsy value of another type is refused
    ("options-empty-list", lambda d: d.update(options=[]),
     "error[ModelError]: 'options' must be an object"),
    ("options-zero", lambda d: d.update(options=0),
     "error[ModelError]: 'options' must be an object"),
    ("options-false", lambda d: d.update(options=False),
     "error[ModelError]: 'options' must be an object"),
    ("options-empty-str", lambda d: d.update(options=""),
     "error[ModelError]: 'options' must be an object"),
]


def test_null_or_absent_options_mean_no_options():
    for edit in (lambda d: d.update(options=None), lambda d: d.pop("options", None)):
        assert build_model(_f1_edited(edit)).options == {}


@pytest.mark.parametrize("edit, line", [pytest.param(edit, line, id=name)
                                        for name, edit, line in _INVALID_MODELS])
def test_cli_invalid_model_prints_one_error_line(tmp_path, capsys, edit, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_f1_edited(edit)))
    assert capture(capsys, ["analyze", str(path), "--no-cache"]) == (1, "", line + "\n")


_AT_THE_LIMIT = int("7" * INT_DIGIT_LIMIT)  # the longest int a model file can hold

# an integer at the digit limit in each fan and deformation field a message
# echoes, and the error it types; the determinant is past the limit
_LONG_FIELDS = [
    ("non-primitive-ray", lambda d: d["fan"]["rays"].__setitem__(0, [_AT_THE_LIMIT, 0]),
     "NonPrimitiveRay"),
    ("ray-arity", lambda d: d["fan"]["rays"].__setitem__(0, [_AT_THE_LIMIT, 0, 0]), "FanError"),
    ("determinant",
     lambda d: d["fan"].update(rays=[[_AT_THE_LIMIT, 1], [1, _AT_THE_LIMIT], [-1, 0], [0, -1]],
                               max_cones=[[0, 1], [1, 2], [2, 3], [3, 0]]),
     "NonUnimodularCone"),
    ("character", lambda d: d.update(deformation=_entry(m=[_AT_THE_LIMIT, 0])),
     "CharacterOutsidePolytope"),
    ("ray-index", lambda d: d.update(deformation=_entry(rho=_AT_THE_LIMIT)), "UnknownRayIndex"),
]


@pytest.mark.parametrize("edit, error", [pytest.param(edit, error, id=name)
                                         for name, edit, error in _LONG_FIELDS])
def test_cli_long_fan_or_deformation_integer_is_one_short_error(tmp_path, capsys, edit, error):
    # echoed cut, never in full, and never str() of an int past the limit
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_f1_edited(edit)))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


def test_cli_long_constant_coefficient_is_cut_in_its_error(tmp_path, capsys):
    # a coefficient at the digit limit parses to a constant, which is no
    # linear form; its rendered form is cut like an echo, but not quoted
    with open(model_path("p1xp1_deformed")) as fh:
        data = json.load(fh)
    data["deformation"]["entries"][4]["coeff"] = "7" * INT_DIGIT_LIMIT
    path = tmp_path / "long_coeff.json"
    path.write_text(json.dumps(data))
    code, out, err = capture(capsys, ["analyze", str(path), "--no-cache"])
    assert (code, out) == (1, "")
    assert err == ("error[DeformError]: coefficient " + "7" * 48 + "... for (rho=0, m=(-1, 0)) "
                   "is not a linear form in W\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("command, options, line", [
    ("correlator", [], "error[ModelError]: correlator requires --poly <expression>"),
    ("analyze", ["--trials", "10001"],
     "error[DeformError]: trials 10001 is above the ceiling 10000"),
    ("correlator", ["--poly", "D1^-1"],
     "error[ParseError]: exponent must be a nonnegative integer (at position 3)"),
    ("correlator", ["--poly", "(D1+D2"], "error[ParseError]: expected ')' (at position 6)"),
    ("correlator", ["--poly", "1/"],
     "error[ParseError]: malformed rational number (at position 1)"),
    ("correlator", ["--poly", "D"],
     "error[ParseError]: symbol 'D' needs a numeric index (at position 0)"),
    # end of input, and a symbol token quoted as written
    ("correlator", ["--poly", "D1+"],
     "error[ParseError]: unexpected end of input (at position 3)"),
    ("correlator", ["--poly", " "],
     "error[ParseError]: unexpected end of input (at position 1)"),
    ("correlator", ["--poly", "-"],
     "error[ParseError]: unexpected end of input (at position 1)"),
    ("correlator", ["--poly", "D1*"],
     "error[ParseError]: unexpected end of input (at position 3)"),
    ("correlator", ["--poly", "("],
     "error[ParseError]: unexpected end of input (at position 1)"),
    ("correlator", ["--poly", "D1 D2"],
     "error[ParseError]: unexpected token 'D2' (at position 3)"),
    ("correlator", ["--poly", "2 D1"],
     "error[ParseError]: unexpected token 'D1' (at position 2)"),
    ("correlator", ["--poly", "D1)"],
     "error[ParseError]: unexpected token ')' (at position 2)"),
])
def test_cli_invalid_arguments_print_one_error_line(capsys, command, options, line):
    argv = [command, model_path("f1"), *options, "--no-cache"]
    assert capture(capsys, argv) == (1, "", line + "\n")
