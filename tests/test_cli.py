"""In-process runs of the command-line surface: payload shapes and exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, workdps

import cubicmaps
from cubicmaps import acceptance
from cubicmaps.acceptance import CriterionResult
from cubicmaps.cli import _parse_args, main
from cubicmaps.critical import run_C_recursion
from cubicmaps.numbers import BETA, Qbeta
from cubicmaps.precision import agreement_digits
from cubicmaps.toda import genus_table
from oracles import critical_amplitudes, qbeta_value

F2_COLUMN = [Fraction(3, 2), Fraction(189), Fraction(26892), Fraction(4076568), Fraction(3213210384, 5)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def error_type(err: str) -> str:
    return json.loads(err)["error"]["type"]


def as_number(tag):
    if "value" in tag:
        return mp.mpf(tag["value"])
    return mp.mpc(mp.mpf(tag["re"]), mp.mpf(tag["im"]))


def test_expand_csv_column(capsys):
    code, out, err = run_cli(capsys, "expand", "--genus", "1", "--max-j", "5", "--format", "csv")
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "j", "f_num", "f_den", "F_coeff_num", "F_coeff_den"]
    coeffs = [Fraction(int(r[4]), int(r[5])) for r in rows[1:]]
    assert coeffs == F2_COLUMN
    assert [r[0] for r in rows[1:]] == ["1"] * 5
    counts = [Fraction(int(r[2]), int(r[3])) for r in rows[1:]]
    assert counts[0] == 3 and counts[1] == 4536


@pytest.mark.parametrize("g", [0, 1])
@pytest.mark.parametrize("max_j", [1, 60, 130])
def test_expand_csv_is_what_csv_writer_prints(capsys, g, max_j):
    code, out, err = run_cli(capsys, "expand", "--genus", str(g), "--max-j", str(max_j), "--format", "csv")
    assert code == 0 and err == ""
    table = genus_table(g, max_j)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "j", "f_num", "f_den", "F_coeff_num", "F_coeff_den"])
    for j in range(1, max_j + 1):
        c = table.coefficient(g, j)
        writer.writerow([g, j, table.count(g, j), 1, c.numerator, c.denominator])
    assert out == buf.getvalue()


@pytest.mark.parametrize("argv, digest", [
    ("expand --genus 1 --max-j 130 --format csv", "2158329184194f287b7f12d2f1a867de75ecd667bca748fcf98f86c0a5b0e25a"),
    ("expand --genus 0 --max-j 60 --format json", "569d2dd0b8e49ee0b735d8511eda04d981261aa7172260b1ce3ce14c8e041c0d"),
    ("hierarchy --max-k 9 --horizon 20", "9ce52dbdc2916b3b66076d02e1b2f9a918221506deeac359c29c91a853aa3ed9"),
])
def test_exact_output_is_frozen(capsys, argv, digest):
    # sha256 of stdout, recorded when the hierarchy ran in w: the v route
    # must print the same bytes
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "--genus", "0", "--max-j", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 0 and payload["max_j"] == 2
    first = payload["rows"][0]
    assert first["f"] == {"kind": "exact", "num": "12", "den": "1"}
    assert first["F_coeff"] == {"kind": "exact", "num": "6", "den": "1"}


def test_expand_rejects_empty_window(capsys):
    code, out, err = run_cli(capsys, "expand", "--genus", "0", "--max-j", "0")
    assert code == 1 and out == ""
    assert error_type(err) == "validation"


def test_oracle_counts(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--vertices", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] == {"0": 12, "1": 3}
    assert payload["disconnected"] == 0
    assert payload["total"] == 15
    code, out2, _ = run_cli(capsys, "oracle", "--vertices", "2")
    again = json.loads(out2)
    payload.pop("elapsed_ms"), again.pop("elapsed_ms")  # timing is the one nondeterministic field
    assert payload == again


def test_oracle_workers_echoed_and_validated(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--vertices", "2", "--workers", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["engine"], payload["workers"]) == ("pure", 3)
    code, _, err = run_cli(capsys, "oracle", "--vertices", "2", "--workers", "0")
    assert code == 1 and error_type(err) == "validation"


def test_oracle_rejects_odd(capsys):
    code, _, err = run_cli(capsys, "oracle", "--vertices", "3")
    assert code == 1 and error_type(err) == "validation"


def test_hierarchy_series(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--max-k", "1", "--horizon", "3")
    assert code == 0
    payload = json.loads(out)
    g0 = payload["g_hat"][0]
    assert g0["variable"] == "w" and g0["offset"] == 1
    assert [c["num"] for c in g0["coefficients"]] == ["1", "36", "3240"]
    assert len(payload["b_hat"]) == 2
    det = payload["det"]
    want = [Fraction(1), *(-108 * Fraction(c["num"]) / Fraction(c["den"]) for c in g0["coefficients"])]
    assert det["offset"] == 0
    assert [Fraction(c["num"]) / Fraction(c["den"]) for c in det["coefficients"]] == want


def test_equilibrium_payload(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--u", "1/20", "--precision", "30", "--samples", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["critical_flag"] is False
    assert payload["u"] == {"kind": "exact", "num": "1", "den": "20"}
    assert payload["x"]["dps"] == 30
    with workdps(40):
        b = as_number(payload["b"])
        z0 = as_number(payload["z0"])
        assert z0 > b > 0
    assert payload["phi_report"]["all_positive"] is True
    assert payload["phi_report"]["samples"] == 8


def test_equilibrium_zero_coupling(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--u", "0", "--precision", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["phi_report"] is None
    assert payload["z0"]["value"] == "+inf"
    assert as_number(payload["a"]) == -2


def test_equilibrium_validation(capsys):
    # at 1e-400 the ray window 4 z0 is past the float range of zmax
    for bad_u in ("0.08", "-1/10", "abc", "1e-400"):
        code, _, err = run_cli(capsys, "equilibrium", "--u", bad_u)
        assert code == 1 and error_type(err) == "validation"


@pytest.mark.parametrize("flag, value", [
    ("--samples", "1"),
    ("--samples", "0"),
    ("--samples", "-3"),
    ("--zmax", "nan"),
    ("--zmax", "inf"),
])
def test_equilibrium_rejects_bad_sampling(capsys, flag, value):
    code, out, err = run_cli(capsys, "equilibrium", "--u", "1/20", flag, value)
    assert code == 1 and out == ""
    assert error_type(err) == "validation"


def test_equilibrium_growth_fit_needs_two_ray_samples(capsys):
    # with 5 samples out to |z| = 50 the samples nearest 25 and 12.5 are one point
    code, out, err = run_cli(capsys, "equilibrium", "--u", "1/20", "--samples", "5", "--zmax", "50")
    assert code == 1 and out == ""
    assert error_type(err) == "validation"
    assert "coincide" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("u", ["1/80", "1/100", "1/150", "1/151", "1/1000", "1e-30", "1e-180", "1e-200", "1e-250"])
def test_equilibrium_window_follows_z0(capsys, u):
    # once z0 passes zmax/4 the lower fit radius sits where the cubic term of
    # Re phi does not dominate, so the default zmax 100 gives way to 4 z0
    # from u = 1/75.3 down.  The ray grid starts at z0/1000 once z0 is far
    # past the cut, so the fit radii zmax/2, zmax/4 fall on distinct samples
    # at every tiny u and the growth fit reads the same cubic rate
    code, out, _ = run_cli(capsys, "equilibrium", "--u", u)
    assert code == 0
    payload = json.loads(out)
    phi = payload["phi_report"]
    assert phi["all_positive"] is True
    with workdps(30):
        zmax = mp.mpf(phi["zmax"]["value"])
        assert abs(zmax / (4 * as_number(payload["z0"])) - 1) < mp.mpf(10) ** -15
        assert as_number(phi["vs_half_u"]) < mp.mpf("0.1")


def test_critical_payload(capsys):
    code, out, _ = run_cli(capsys, "critical", "--max-genus", "2", "--precision", "40")
    assert code == 0
    payload = json.loads(out)
    wc = payload["w_c"]["components"]
    assert [c["num"] for c in wc] == ["0", "0", "1", "0"]
    assert wc[2]["den"] == "648"
    assert [a["sign"] for a in payload["amplitudes"]] == [-1, 1, 1]
    with workdps(45):
        k0 = as_number(payload["amplitudes"][0]["K"])
        assert abs(k0 - 1 / mp.sqrt(6 * mp.pi)) < mp.mpf(10) ** -35


def test_critical_matches_the_qbeta_oracle_through_genus_60(capsys):
    # the CLI payload against the recursion run in Q(beta) itself, and K
    # against the defining ratio 6 3^(1/4) C_2g / (Gamma((5g-1)/2) u_c^g)
    precision = 40
    code, out, err = run_cli(capsys, "critical", "--max-genus", "60", "--precision", str(precision))
    assert code == 0 and err == ""
    amplitudes = json.loads(out)["amplitudes"]
    c, d = critical_amplitudes(60)
    assert [a["g"] for a in amplitudes] == list(range(61))

    def decode(tag):
        return Qbeta(tuple(Fraction(int(x["num"]), int(x["den"])) for x in tag["components"]))

    with workdps(precision + 20):
        u_c = mp.root(3, 4) / 18
        for g, a in enumerate(amplitudes):
            assert decode(a["C"]) == c[g] and decode(a["D"]) == d[g]
            assert a["sign"] == (1 if qbeta_value(c[g]) > 0 else -1)
            direct = 6 * mp.root(3, 4) * qbeta_value(c[g]) / (mp.gamma(mp.mpf(5 * g - 1) / 2) * u_c**g)
            assert a["K"]["dps"] == precision
            assert agreement_digits(as_number(a["K"]), direct) >= precision - 1, g
    # C_2k = Y_k beta^(1-k) / (18 576^k) with the integers the record carries
    y = run_C_recursion(60).Y
    assert all(c[k] == Fraction(y[k], 18 * 576**k) * BETA ** (1 - k) for k in range(61))


def test_validate_payload(capsys):
    args = ("validate", "--N", "4", "--u", "1/20", "--precision", "30")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 4 and payload["n_max"] == 7
    assert payload["branch"] == "real"
    assert payload["toda"] is None
    assert len(payload["gamma2"]) == 8 and len(payload["moments"]) == 16
    assert list(payload["string_r1"]) == [str(n) for n in range(7)]
    assert list(payload["string_r2"]) == [str(n) for n in range(1, 8)]
    with workdps(40):
        assert as_number(payload["max_string_residual"]) < mp.mpf(10) ** -25
        assert abs(as_number(payload["asymptotic"]["epsilon_gamma"])) < mp.mpf(10) ** -3
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out  # byte-identical rerun


@pytest.mark.parametrize("u", ["1e-100", "1e-200"])
def test_validate_tiny_coupling(capsys, u):
    # w^2 = u^4 lies far below the working precision, so the leading cubic
    # has two roots +-w that agree with 0 to that precision; the prediction
    # must still come out, with beta_N ~ 6 s u at s = 1 + 1/(2N)
    code, out, err = run_cli(capsys, "validate", "--N", "2", "--u", u, "--precision", "30")
    assert code == 0, err
    asymptotic = json.loads(out)["asymptotic"]
    with workdps(40):
        pred_gamma = as_number(asymptotic["gamma2_predicted"])
        pred_beta = as_number(asymptotic["beta_predicted"])
        assert abs(pred_gamma - 1) < mp.mpf(10) ** -25
        assert abs(pred_beta / (mp.mpf("7.5") * mp.mpf(u)) - 1) < mp.mpf(10) ** -25
        assert mp.isfinite(as_number(asymptotic["epsilon_gamma"]))
        assert mp.isfinite(as_number(asymptotic["epsilon_beta"]))


def test_validate_small_coupling_keeps_prediction_digits(capsys):
    # at w = u^2 = 1e-60 the leading slice's root H = g0/w rounds to 1, so the
    # predicted gamma^2 keeps the measured one's last bit; measured 1.1e-107
    code, out, err = run_cli(capsys, "validate", "--N", "2", "--u", "1e-30", "--precision", "30")
    assert code == 0, err
    with workdps(40):
        assert as_number(json.loads(out)["asymptotic"]["epsilon_gamma"]) < mp.mpf(10) ** -100


def test_validate_cubic_dominated(capsys):
    # u^2 > N: the contour's scale follows the cubic term, (u N)^(-1/3)
    code, out, err = run_cli(capsys, "validate", "--N", "2", "--u", "5", "--precision", "30")
    assert code == 0, err
    with workdps(40):
        assert as_number(json.loads(out)["max_string_residual"]) < mp.mpf(10) ** -30


@pytest.mark.parametrize("u, extra", [
    ("1/20", ["--alpha", "nan"]),
    ("1/20", ["--alpha", "inf"]),
    ("1/20", ["--alpha", "1,nan"]),
    ("1e400", []),
    ("1/20", ["--h-step", "0"]),
    ("1/20", ["--h-step=-1/1000"]),
])
def test_validate_rejects_bad_input(capsys, u, extra):
    # a non-finite alpha would reach the Hankel pivot search, a coupling past
    # the float range the tail bound, and a nonpositive step is never used
    # without --toda; all are bad input, not failed computations
    code, out, err = run_cli(capsys, "validate", "--N", "3", "--u", u, "--precision", "30", *extra)
    assert code == 1 and out == ""
    assert error_type(err) == "validation"


@pytest.mark.parametrize("step", ["2", "5/4"])
def test_validate_toda_step_past_t0(capsys, step):
    # t0(1/10) = 1/(4 (3/10)^(4/3)) ~ 1.2448: a step at or past it would move
    # the lower time sample to t0 - h <= 0, off the real coupling axis
    code, out, err = run_cli(capsys, "validate", "--N", "2", "--u", "1/10", "--toda", "--h-step", step)
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert error_type(err) == "validation"
    assert "h_step" in message and "t0(u)" in message and "1.24483" in message


PRECISION_DEFAULTS = [
    (["equilibrium", "--u", "1/20"], 40),
    (["critical", "--max-genus", "2"], 40),
    (["validate", "--N", "2", "--u", "1/20"], 120),
]


@pytest.mark.parametrize("argv, default", PRECISION_DEFAULTS, ids=[argv[0] for argv, _ in PRECISION_DEFAULTS])
def test_precision_default_and_floor(capsys, argv, default):
    # the default lives in the flag table, so the help page shows it
    assert _parse_args(argv).precision == default
    code, out, _ = run_cli(capsys, argv[0], "--help")
    assert code == 0
    assert next(line for line in out.splitlines() if "--precision" in line).endswith(f"(default {default})")
    code, out, err = run_cli(capsys, *argv, "--precision", "14")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "validation", "message": "--precision must be at least 15"}


def test_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "expand", "--genus", "0", "--max-j", "1",
                           "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[1] == ["0", "1", "12", "1", "6", "1"]


def test_unwritable_output_is_a_validation_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "expand", "--genus", "0", "--max-j", "2", "--output", str(target))
    assert code == 1 and out == ""
    assert error_type(err) == "validation" and str(target) in json.loads(err)["error"]["message"]
    assert not target.exists()


def test_reproduce_skip(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--skip", "oracle6,string,remainder,toda")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert sum(1 for line in lines if " SKIP " in line) == 4
    assert lines[-1].startswith("8 passed, 0 failed, 4 skipped of 12 criteria")


def test_reproduce_unknown_key(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--skip", "nonsense")
    assert code == 1 and error_type(err) == "validation"


def test_reproduce_failure_exit(capsys, monkeypatch):
    forced = CriterionResult(index=1, key="genus0", title="t", passed=False, skipped=False,
                             elapsed_s=0.1, budget_s=1.0, detail="forced failure")
    monkeypatch.setattr(acceptance, "run_all", lambda skip=(): [forced])
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 3
    assert " FAIL " in out and "0 passed, 1 failed" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1 and error_type(err) == "validation"
    code, _, err = run_cli(capsys, "expand", "--genus", "zero", "--max-j", "1")
    assert code == 1 and error_type(err) == "validation"
    code, _, err = run_cli(capsys, "validate", "--N", "4", "--u", "1/20", "--alpha", "x,y")
    assert code == 1 and error_type(err) == "validation"


# argv -> every attribute parsed from it
PARSED = [
    (["expand", "--genus", "1", "--max-j", "2"],
     {"command": "expand", "genus": 1, "max_j": 2, "format": "json", "output": None, "fn": "_cmd_expand"}),
    (["hierarchy", "--max-k=3", "--horizon", "8", "--horizon", "9"],
     {"command": "hierarchy", "max_k": 3, "horizon": 9, "output": None, "fn": "_cmd_hierarchy"}),
    (["equilibrium", "--u", "1/20", "--samples", "8", "--zmax=50", "--output", "out.json"],
     {"command": "equilibrium", "u": "1/20", "precision": 40, "samples": 8, "zmax": 50.0,
      "output": "out.json", "fn": "_cmd_equilibrium"}),
    (["critical", "--max-genus", "-1"],
     {"command": "critical", "max_genus": -1, "precision": 40, "output": None, "fn": "_cmd_critical"}),
    (["oracle", "--vertices", "4", "--workers", "1"],
     {"command": "oracle", "vertices": 4, "workers": 1, "output": None, "fn": "_cmd_oracle"}),
    (["validate", "--N", "4", "--u", "1/20", "--toda", "--h-step", "-1/1000", "--alpha", "-0.5,1", "--n-max", "7",
      "--precision", "30"],
     {"command": "validate", "N": 4, "u": "1/20", "precision": 30, "alpha": "-0.5,1", "n_max": 7, "toda": True,
      "h_step": "-1/1000", "output": None, "fn": "_cmd_validate"}),
    (["reproduce", "--skip", "oracle6,string"],
     {"command": "reproduce", "skip": "oracle6,string", "output": None, "fn": "_cmd_reproduce"}),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[argv[0] for argv, _ in PARSED])
def test_flag_table_parses_as_argparse_did(argv, expected):
    # defaults, --flag=value, a repeated flag (the last wins), the --toda
    # switch and values that start with "-", numbers or not
    parsed = dict(vars(_parse_args(argv)))
    parsed["fn"] = parsed["fn"].__name__
    assert parsed == expected


# argv -> its exit-1 error message, byte for byte; a usage error in argparse's
# wording where argparse had one, a value that starts with "-" at its own check
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from 'expand', "
     "'hierarchy', 'equilibrium', 'critical', 'oracle', 'validate', 'reproduce')"),
    (["expand"], "the following arguments are required: --genus, --max-j"),
    (["expand", "--genus", "zero", "--max-j", "1"], "argument --genus: invalid int value: 'zero'"),
    (["expand", "--genus", "1", "--max-j", "2", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (["expand", "--genus", "1", "--max-j", "2", "--foo"], "unrecognized arguments: --foo"),
    (["expand", "--genus"], "argument --genus: expected one argument"),
    (["validate", "--N", "4", "--u", "1/20", "--toda=1"], "argument --toda: ignored explicit argument '1'"),
    (["oracle", "--vertices", "4", "extra"], "unrecognized arguments: extra"),
    (["equilibrium", "--u", "1/20", "--zmax", "x"], "argument --zmax: invalid float value: 'x'"),
    (["equilibrium", "--u", "-1/10"], "--u must be nonnegative"),
    (["validate", "--N", "4", "--u", "1/20", "--h-step", "-1/1000"], "--h-step must be positive"),
    (["hierarchy", "--max-k", "1", "--h", "3"], "unrecognized arguments: --h 3"),
    (["expand", "--gen", "1", "--max-j", "2"], "unrecognized arguments: --gen 1"),
    (["validate", "--N", "4", "--u", "1/20", "--", "--toda"], "unrecognized arguments: --"),  # "--" ends no flags
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(argv) or "empty" for argv, _ in USAGE_ERRORS])
def test_usage_errors_match_argparse(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == '{\n  "error": {\n    "type": "validation",\n    "message": ' + json.dumps(message) + "\n  }\n}\n"


COMMANDS = [argv[0] for argv, _ in PARSED]


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[cmd, "-h"] for cmd in COMMANDS] + [["oracle", "--help"]])
def test_help_lists_every_flag(capsys, argv):
    # help goes to stdout and exits 0, even with a required flag missing
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if len(argv) == 1:
        assert out.startswith("usage: cubicmaps <command>")
        assert all(f"\n  {cmd} " in out for cmd in COMMANDS)
    else:
        parsed = next(expected for args, expected in PARSED if args[0] == argv[0])
        flags = ["--" + name.replace("_", "-") for name in parsed if name not in ("command", "fn")]
        assert out.startswith(f"usage: cubicmaps {argv[0]} ")
        assert all(f"\n  {flag} " in out for flag in flags)
        assert "-h, --help" in out


def test_computation_failure_exit(capsys, monkeypatch):
    def broken(max_k, horizon):
        raise ArithmeticError("forced")

    monkeypatch.setattr("cubicmaps.cli.build_hierarchy", broken)
    code, _, err = run_cli(capsys, "hierarchy", "--max-k", "1", "--horizon", "3")
    assert code == 2 and error_type(err) == "computation"


def _uninstalled_env() -> dict:
    src = str(Path(cubicmaps.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cold_import_skips_suite_and_unused_stdlib():
    # `import cubicmaps.cli` is the start-up cost of every process; the suite is
    # imported by `reproduce` alone, no record needs dataclasses or csv, and the
    # flag table needs no argparse, nor the gettext and locale it pulls in
    # (counted only if the import loads them, not the interpreter's site start-up)
    env = _uninstalled_env()
    probe = """if True:
        import io, sys
        from contextlib import redirect_stdout
        unused = {"dataclasses", "csv", "cubicmaps.acceptance", "argparse", "gettext", "locale"}
        before = set(sys.modules)
        import cubicmaps.cli
        after_import = sorted(set(sys.modules) - before & unused)
        with redirect_stdout(io.StringIO()):
            code = cubicmaps.cli.main(["critical", "--max-genus", "2"])
        print(after_import, code, sorted(set(sys.modules) - before & unused))
    """
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] 0 []\n", "")
    skip = ",".join(key for key in acceptance.KEYS if key != "genus0")
    proc = subprocess.run([sys.executable, "-m", "cubicmaps", "reproduce", "--skip", skip],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "[genus0] PASS" in proc.stdout and "1 passed, 0 failed, 11 skipped" in proc.stdout


def test_python_dash_m_matches_main(capsys):
    # the package runs uninstalled as `python -m cubicmaps`, with main()'s output and exit code
    env = _uninstalled_env()
    for argv in (["critical", "--max-genus", "2"], ["critical", "--max-genus", "-1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "cubicmaps", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
