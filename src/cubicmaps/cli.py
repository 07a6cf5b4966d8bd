"""Command-line front end: one subcommand per module, deterministic output.

Exit codes: 0 success, 1 validation error (bad flags or out-of-domain
input), 2 computation failure, 3 failed acceptance criterion under
``reproduce``.  Errors go to stderr as a JSON object.  Each command's
flags, with their defaults, are one row of ``_COMMANDS``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from .critical import B0_AT_CRITICAL, G0_AT_CRITICAL, compute_K, run_C_recursion
from .equilibrium import phi_check, solve_endpoints
from .finite_n import build_report
from .hierarchy import build_hierarchy
from .numbers import W_CRITICAL
from .precision import BigFloat
from .serialize import (
    FLOAT_DPS,
    dump_csv,
    dump_json,
    encode_bigfloat,
    encode_float,
    encode_fraction,
    encode_qbeta,
    encode_series,
)
from .toda import genus_table
from .wick import ENGINE, census


class ValidationError(ValueError):
    """Bad flags or out-of-domain input; like every ValueError, it exits 1."""


def _precision(args) -> int:
    if args.precision < 15:
        raise ValidationError("--precision must be at least 15")
    return args.precision


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{flag} expects a rational like 1/10 or 0.1, got {text!r}") from None


def _parse_alpha(text: str):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 2:
            re_part, im_part = float(parts[0]), float(parts[1])
            return re_part if im_part == 0 else complex(re_part, im_part)
    except ValueError:
        pass
    raise ValidationError(f"--alpha expects re or re,im, got {text!r}")


def _cmd_expand(args) -> tuple[str, int]:
    if args.genus < 0:
        raise ValidationError("--genus must be >= 0")
    if args.max_j < 1:
        raise ValidationError("the expansion starts at j = 1; --max-j must be >= 1")
    table = genus_table(args.genus, args.max_j)
    g = args.genus
    if args.format == "csv":
        rows = []
        for j in range(1, args.max_j + 1):
            c = table.coefficient(g, j)
            rows.append([g, j, table.count(g, j), 1, c.numerator, c.denominator])
        return dump_csv(["g", "j", "f_num", "f_den", "F_coeff_num", "F_coeff_den"], rows), 0
    payload = {
        "genus": g,
        "max_j": args.max_j,
        "rows": [
            {
                "g": g,
                "j": j,
                "f": encode_fraction(table.count(g, j)),
                "F_coeff": encode_fraction(table.coefficient(g, j)),
            }
            for j in range(1, args.max_j + 1)
        ],
    }
    return dump_json(payload), 0


def _cmd_hierarchy(args) -> tuple[str, int]:
    if args.max_k < 0:
        raise ValidationError("--max-k must be >= 0")
    if args.horizon < 1:
        raise ValidationError("--horizon must be >= 1")
    h = build_hierarchy(args.max_k, args.horizon)
    payload = {
        "max_k": h.max_k,
        "horizon": h.horizon,
        "g_hat": [encode_series(s) for s in h.g_hat],
        "b_hat": [encode_series(s) for s in h.b_hat],
        "det": encode_series(1 - h.g_hat[0] * 108),
    }
    return dump_json(payload), 0


def _cmd_equilibrium(args) -> tuple[str, int]:
    precision = _precision(args)
    u = _parse_fraction(args.u, "--u")
    if u < 0:
        raise ValidationError("--u must be nonnegative")
    if args.samples < 2:
        raise ValidationError("--samples must be >= 2")
    if not (math.isfinite(args.zmax) and args.zmax > 0):
        raise ValidationError("--zmax must be finite and positive")
    eq = solve_endpoints(u, precision)
    phi = None
    if u > 0:
        rep = phi_check(eq, samples=args.samples, zmax=args.zmax)

        def point(zr):
            z, re_phi = zr
            return {"z": encode_bigfloat(BigFloat(z, eq.dps)), "re_phi": encode_bigfloat(BigFloat(re_phi, eq.dps))}

        phi = {
            "all_positive": rep.all_positive,
            "min_left": point(rep.min_left),
            "min_gap": None if rep.min_gap is None else point(rep.min_gap),
            "min_ray": point(rep.min_ray),
            "violations": [
                {"segment": name, **point((z, re_phi))} for name, z, re_phi in rep.violations
            ],
            "growth_coefficient": encode_bigfloat(BigFloat(rep.growth_coefficient, eq.dps)),
            "vs_half_u": encode_bigfloat(BigFloat(rep.vs_half_u, eq.dps)),
            "vs_third_u": encode_bigfloat(BigFloat(rep.vs_third_u, eq.dps)),
            "samples": rep.samples,
            "zmax": encode_float(rep.zmax),
        }
    payload = {
        "u": encode_fraction(u),
        "x": encode_bigfloat(BigFloat(eq.x, eq.dps)),
        "y": encode_bigfloat(BigFloat(eq.y, eq.dps)),
        "a": encode_bigfloat(BigFloat(eq.a, eq.dps)),
        "b": encode_bigfloat(BigFloat(eq.b, eq.dps)),
        "z0": encode_bigfloat(BigFloat(eq.z0, eq.dps)),
        "critical_flag": eq.critical,
        "phi_report": phi,
    }
    return dump_json(payload), 0


def _cmd_critical(args) -> tuple[str, int]:
    precision = _precision(args)
    if args.max_genus < 0:
        raise ValidationError("--max-genus must be >= 0")
    consts = run_C_recursion(args.max_genus)
    payload = {
        "max_genus": consts.G,
        "w_c": encode_qbeta(W_CRITICAL),
        "g0_at_wc": encode_fraction(G0_AT_CRITICAL),
        "b0_at_wc": encode_qbeta(B0_AT_CRITICAL),
        "amplitudes": [
            {
                "g": g,
                "C": encode_qbeta(consts.C[g]),
                "D": encode_qbeta(consts.D[g]),
                "sign": consts.signs[g],
                "K": encode_bigfloat(compute_K(consts, g, precision)),
            }
            for g in range(consts.G + 1)
        ],
    }
    return dump_json(payload), 0


def _cmd_oracle(args) -> tuple[str, int]:
    p = args.vertices
    if p < 2 or p % 2:
        raise ValidationError("--vertices must be a positive even integer")
    if args.workers < 1:
        raise ValidationError("--workers must be >= 1")
    cen = census(p)
    payload = {
        "p": cen.vertices,
        "total": cen.total,
        "connected": {str(g): cen.connected[g] for g in sorted(cen.connected)},
        "disconnected": cen.disconnected,
        "engine": ENGINE,
        "workers": args.workers,
        "elapsed_ms": cen.elapsed_ms,
    }
    return dump_json(payload), 0


def _cmd_validate(args) -> tuple[str, int]:
    precision = _precision(args)
    u = _parse_fraction(args.u, "--u")
    if args.N < 1:
        raise ValidationError("--N must be >= 1")
    alpha = _parse_alpha(args.alpha)
    h_step = _parse_fraction(args.h_step, "--h-step")
    if h_step <= 0:
        raise ValidationError("--h-step must be positive")
    rep = build_report(
        u, args.N, precision=precision, alpha=alpha, n_max=args.n_max,
        include_toda=args.toda, h_step=h_step,
    )
    alpha_c = complex(rep.alpha)

    def residual_map(d):
        return {str(n): encode_bigfloat(d[n]) for n in sorted(d)}

    asym = rep.asymptotic
    payload = {
        "N": rep.N,
        "u": encode_bigfloat(rep.u),
        "alpha": {"kind": "approx", "re": repr(alpha_c.real), "im": repr(alpha_c.imag), "dps": FLOAT_DPS},
        "precision": rep.precision,
        "n_max": rep.n_max,
        "moments": [encode_bigfloat(m) for m in rep.moments],
        "h": [encode_bigfloat(v) for v in rep.h],
        "gamma2": [encode_bigfloat(v) for v in rep.gamma2],
        "beta": [encode_bigfloat(v) for v in rep.beta],
        "string_r1": residual_map(rep.string_r1),
        "string_r2": residual_map(rep.string_r2),
        "max_string_residual": encode_bigfloat(rep.max_string_residual),
        "conditioning_loss": [encode_float(v) for v in rep.conditioning_loss],
        "cross_check_digits": encode_float(rep.cross_check_digits),
        "gaps": [],
        "asymptotic": {
            "N": asym.N,
            "gamma2": encode_bigfloat(asym.gamma2),
            "beta": encode_bigfloat(asym.beta),
            "gamma2_predicted": encode_bigfloat(asym.gamma2_predicted),
            "beta_predicted": encode_bigfloat(asym.beta_predicted),
            "epsilon_gamma": encode_bigfloat(asym.epsilon_gamma),
            "epsilon_beta": encode_bigfloat(asym.epsilon_beta),
        },
        "branch": rep.branch,
        "toda": encode_bigfloat(rep.toda) if rep.toda is not None else None,
    }
    return dump_json(payload), 0


def _cmd_reproduce(args) -> tuple[str, int]:
    from . import acceptance  # only reproduce needs the suite, so other commands skip its import

    skip = tuple(s.strip() for s in args.skip.split(",") if s.strip()) if args.skip else ()
    results = acceptance.run_all(skip=skip)
    lines = [acceptance.format_line(r) for r in results]
    failed = sum(1 for r in results if not r.skipped and not r.passed)
    passed = sum(1 for r in results if not r.skipped and r.passed)
    skipped = sum(1 for r in results if r.skipped)
    total = sum(r.elapsed_s for r in results)
    lines.append(f"{passed} passed, {failed} failed, {skipped} skipped of {len(results)} criteria in {total:.1f}s")
    return "\n".join(lines) + "\n", 3 if failed else 0


_REQUIRED = object()  # the default of a flag that must be given
_HELP = ("-h", "--help")
_U = (str, _REQUIRED, "coupling, as a rational (1/10 or 0.1)")
_OUTPUT = (str, None, "write the result to this file instead of stdout")

# command: (handler, summary, flags), each flag: (type or choices, default, help);
# the type bool makes a switch, the default _REQUIRED a flag that must be given
_COMMANDS = {
    "expand": (_cmd_expand, "map counts and free-energy coefficients at one genus", {
        "--genus": (int, _REQUIRED, "genus g"),
        "--max-j": (int, _REQUIRED, "last j; the maps have 2j cubic vertices"),
        "--format": (("json", "csv"), "json", "output format"),
        "--output": _OUTPUT,
    }),
    "hierarchy": (_cmd_hierarchy, "exact string-equation correction series in the scaled variable", {
        "--max-k": (int, _REQUIRED, "last correction order k"),
        "--horizon": (int, _REQUIRED, "coefficients kept in each series"),
        "--output": _OUTPUT,
    }),
    "equilibrium": (_cmd_equilibrium, "support endpoints and contour positivity at one coupling", {
        "--u": _U,
        "--precision": (int, 40, "decimal digits"),
        "--samples": (int, 12, "samples on each contour tail"),
        "--zmax": (float, 100.0, "outer radius of the sampled tails"),
        "--output": _OUTPUT,
    }),
    "critical": (_cmd_critical, "exact singular amplitudes and count constants", {
        "--max-genus": (int, _REQUIRED, "last genus g"),
        "--precision": (int, 40, "decimal digits of K"),
        "--output": _OUTPUT,
    }),
    "oracle": (_cmd_oracle, "exhaustive pairing census at p cubic vertices", {
        "--vertices": (int, _REQUIRED, "cubic vertices p, even"),
        "--workers": (int, 1, "echoed in the output; the census runs in one process"),
        "--output": _OUTPUT,
    }),
    "validate": (_cmd_validate, "finite-N recurrence data, string residuals, expansion check", {
        "--N": (int, _REQUIRED, "matrix size N"),
        "--u": _U,
        "--precision": (int, 120, "decimal digits"),
        "--alpha": (str, "1", "contour mixing weight, re or re,im"),
        "--n-max": (int, None, "last recurrence index n (default floor(3N/2) + 1)"),
        "--toda": (bool, False, "include the second-difference residual"),
        "--h-step": (str, "1/1000", "time step of the --toda second difference"),
        "--output": _OUTPUT,
    }),
    "reproduce": (_cmd_reproduce, "run the acceptance suite, one pass/fail line per criterion", {
        "--skip": (str, "", "comma-separated criterion keys, e.g. oracle6"),
        "--output": _OUTPUT,
    }),
}


def _value(flag: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValidationError(
                f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
            )
        return text
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None


def _help(command: str | None) -> SimpleNamespace:
    """A namespace whose handler prints the command list, or one command's flags, to stdout."""
    if command is None:
        head = f"usage: cubicmaps <command> [flags]\n\n{__doc__.splitlines()[0]}\n\ncommands:\n"
        rows = [(name, summary) for name, (_, summary, _) in _COMMANDS.items()]
        foot = "\n`cubicmaps <command> --help` lists the flags of one command.\n"
    else:
        _, summary, flags = _COMMANDS[command]
        head, foot, rows = f"usage: cubicmaps {command} [flags]\n\n{summary}\n\nflags:\n", "", []
        for name, (kind, default, about) in flags.items():
            if isinstance(kind, tuple):
                name += " {" + ",".join(kind) + "}"
            elif kind is not bool:
                name += " " + kind.__name__.upper()
            if default is _REQUIRED:
                about = "required; " + about
            elif default not in (None, False, ""):
                about += f" (default {default})"
            rows.append((name, about))
        rows.append(("-h, --help", "print this help"))
    width = 2 + max(len(left) for left, _ in rows)
    page = head + "".join(f"  {left:<{width}}{right}\n" for left, right in rows) + foot
    return SimpleNamespace(fn=lambda args: (page, 0), output=None)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against the flag table.

    The first token names the command, or is -h/--help.  After it each token
    is -h/--help, a full flag name or --flag=value; a value flag takes the
    next token, whatever it starts with, and the last of a repeated flag
    wins.  Every other token is unrecognized, and is reported before a missing
    flag, so a misspelt flag names itself.  Usage errors are ValidationErrors,
    in argparse's wording where argparse had one.
    """
    if not argv:
        raise ValidationError("the following arguments are required: command")
    if argv[0] in _HELP:
        return _help(None)
    command = _value("command", tuple(_COMMANDS), argv[0])
    fn, _, flags = _COMMANDS[command]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    extras = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return _help(command)
        flag, eq, text = token.partition("=")
        kind = flags[flag][0] if flag in flags else None
        if kind is None:
            extras.append(token)
        elif kind is bool:
            if eq:
                raise ValidationError(f"argument {flag}: ignored explicit argument {text!r}")
            values[flag] = True
        else:
            text = text if eq else next(tokens, None)
            if text is None:
                raise ValidationError(f"argument {flag}: expected one argument")
            values[flag] = _value(flag, kind, text)
    if extras:
        raise ValidationError(f"unrecognized arguments: {' '.join(extras)}")
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, fn=fn, **{flag.lstrip("-").replace("-", "_"): value
                                                      for flag, value in values.items()})


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(dump_json({"error": {"type": kind, "message": message}}))


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        text, code = args.fn(args)
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return 1
    except Exception as exc:  # anything else is a broken computation, not bad input
        _emit_error("computation", f"{type(exc).__name__}: {exc}")
        return 2
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error("validation", f"cannot write --output: {exc}")
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
