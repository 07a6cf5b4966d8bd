"""Command-line front end: one subcommand per module, deterministic output.

Exit codes: 0 success, 1 validation error (bad flags or out-of-domain
input), 2 computation failure, 3 failed acceptance criterion under
``reproduce``.  Errors go to stderr as a JSON object.  Each command's
flags, with their defaults, are one row of ``_COMMANDS``; precision,
samples, zmax and the Toda step have no default below it, so the
handlers pass every one.  ``main`` lifts CPython's limit on int-to-str
conversion while a command runs, so integers of any length print in
full.  A handler hands raw values to ``serialize.encode_value``, the one
tagger, and a record goes in as ``_asdict()``, so its field order is its
key order.  ``expand`` alone hands its table to ``dump_json`` and
``dump_csv`` as rows of ints, with no Fraction or dict per row.
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
from .precision import BigFloat, as_mp
from .serialize import ExactRecords, dump_csv, dump_json, encode_value
from .toda import genus_table
from .wick import ENGINE, MAX_VERTICES, census


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
    g = args.genus
    table = genus_table(g, args.max_j)
    # F_coeff is the series numerator over its denominator, reduced by one gcd;
    # a j below the series offset reads 0/1, as Fraction(0) does
    s = table.series[g]
    nums, den, lo = s.numerators, s.denominator, s.offset
    rows = []
    for j in range(1, args.max_j + 1):
        x = nums[j - lo] if j >= lo else 0
        d = math.gcd(x, den)
        rows.append((g, j, table.counts[g, j], 1, x // d, den // d))
    if args.format == "csv":
        return dump_csv(["g", "j", "f_num", "f_den", "F_coeff_num", "F_coeff_den"], rows), 0
    payload = {"genus": g, "max_j": args.max_j, "rows": ExactRecords(("g", "j"), ("f", "F_coeff"), rows)}
    return dump_json(payload), 0


def _cmd_hierarchy(args) -> tuple[str, int]:
    if args.max_k < 0:
        raise ValidationError("--max-k must be >= 0")
    if args.horizon < 1:
        raise ValidationError("--horizon must be >= 1")
    h = build_hierarchy(args.max_k, args.horizon)
    return dump_json(encode_value({**h._asdict(), "det": 1 - h.g_hat[0] * 108})), 0


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
    ends = {k: BigFloat(getattr(eq, k), eq.dps) for k in ("x", "y", "a", "b", "z0")}
    phi = phi_check(eq, samples=args.samples, zmax=args.zmax)._asdict() if u > 0 else None
    return dump_json(encode_value({"u": u, **ends, "critical_flag": eq.critical, "phi_report": phi})), 0


def _cmd_critical(args) -> tuple[str, int]:
    precision = _precision(args)
    if args.max_genus < 0:
        raise ValidationError("--max-genus must be >= 0")
    consts = run_C_recursion(args.max_genus)
    amplitudes = [
        {"g": g, "C": consts.C[g], "D": consts.D[g], "sign": consts.signs[g], "K": compute_K(consts, g, precision)}
        for g in range(consts.G + 1)
    ]
    payload = {"max_genus": consts.G, "w_c": W_CRITICAL, "g0_at_wc": G0_AT_CRITICAL, "b0_at_wc": B0_AT_CRITICAL,
               "amplitudes": amplitudes}
    return dump_json(encode_value(payload)), 0


def _cmd_oracle(args) -> tuple[str, int]:
    p = args.vertices
    if p < 2 or p % 2:
        raise ValidationError("--vertices must be a positive even integer")
    if p > MAX_VERTICES:
        raise ValidationError(f"--vertices must be at most {MAX_VERTICES}")
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
    if args.n_max is not None and args.n_max < args.N + 1:
        raise ValidationError("--n-max must reach N + 1 so gamma^2_{N+1} exists")
    if args.toda and u <= 0:
        raise ValidationError("--u must be positive for the --toda time map")
    if args.toda and (4 * h_step) ** 3 * (3 * u) ** 4 >= 1:  # h_step >= t0(u), exactly
        from mpmath import mp

        t0 = mp.nstr(1 / (4 * mp.cbrt(3 * as_mp(u)) ** 4), 6)
        raise ValidationError(f"--h-step must be below t0(u) = 1/(4 (3u)^(4/3)) = {t0} with --toda")
    rep = build_report(
        u, args.N, precision=precision, alpha=alpha, n_max=args.n_max,
        toda_step=h_step if args.toda else None,
    )
    # the output keeps an empty "gaps" list ahead of the report's last three fields
    payload = {**dict(zip(rep._fields[:-3], rep)), "gaps": [], "asymptotic": rep.asymptotic._asdict(),
               "branch": rep.branch, "toda": rep.toda}
    return dump_json(encode_value(payload)), 0


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
    # counts grow past CPython's default bound on int-to-str conversion (4,300
    # digits from expand --genus 0 --max-j 573 on), so a command lifts it and
    # puts it back on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is None:
        return _main(argv)
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
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
