"""Command-line front end: one subcommand per module, deterministic output.

Exit codes: 0 success, 1 validation error (bad flags or out-of-domain
input), 2 computation failure, 3 failed acceptance criterion under
``reproduce``.  Errors go to stderr as a JSON object.  The
CUBICMAPS_PRECISION environment variable overrides the per-command default
decimal precision; an explicit --precision wins over both.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from .critical import B0_AT_CRITICAL, G0_AT_CRITICAL, compute_K, run_C_recursion
from .equilibrium import phi_check, solve_endpoints
from .finite_n import build_report
from .hierarchy import build_hierarchy
from .numbers import W_CRITICAL
from .precision import BigFloat
from .serialize import (
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which is reserved for
    # computation failures here; route usage errors through the same
    # validation path as domain errors instead
    def error(self, message):
        raise ValidationError(message)


def _default_precision(fallback: int) -> int:
    raw = os.environ.get("CUBICMAPS_PRECISION")
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"CUBICMAPS_PRECISION={raw!r} is not an integer") from None
    if value < 15:
        raise ValidationError("CUBICMAPS_PRECISION must be at least 15")
    return value


def _resolve_precision(args, fallback: int) -> int:
    if args.precision is not None:
        if args.precision < 15:
            raise ValidationError("--precision must be at least 15")
        return args.precision
    return _default_precision(fallback)


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
        "det": encode_series(h.det),
    }
    return dump_json(payload), 0


def _cmd_equilibrium(args) -> tuple[str, int]:
    precision = _resolve_precision(args, 40)
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
    precision = _resolve_precision(args, 40)
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
    precision = _resolve_precision(args, 120)
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
        "alpha": {"kind": "approx", "re": repr(alpha_c.real), "im": repr(alpha_c.imag), "dps": 17},
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


@functools.cache  # parse_args leaves the parser as it was, so every call can share one
def _build_parser() -> _Parser:
    parser = _Parser(prog="cubicmaps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("expand", help="map counts and free-energy coefficients at one genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-j", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("hierarchy", help="exact string-equation correction series in the scaled variable")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_hierarchy)

    p = sub.add_parser("equilibrium", help="support endpoints and contour positivity at one coupling")
    p.add_argument("--u", required=True, help="coupling, as a rational (1/10 or 0.1)")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--zmax", type=float, default=100.0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("critical", help="exact singular amplitudes and count constants")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_critical)

    p = sub.add_parser("oracle", help="exhaustive pairing census at p cubic vertices")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--workers", type=int, default=1, help="echoed in the output; the census runs in one process")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("validate", help="finite-N recurrence data, string residuals, expansion check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", required=True, help="coupling, as a rational (1/10 or 0.1)")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--alpha", default="1", help="contour mixing weight, re or re,im")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--toda", action="store_true", help="include the second-difference residual")
    p.add_argument("--h-step", default="1/1000")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reproduce", help="run the acceptance suite, one pass/fail line per criterion")
    p.add_argument("--skip", default="", help="comma-separated criterion keys, e.g. oracle6")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_reproduce)

    return parser


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(dump_json({"error": {"type": kind, "message": message}}))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
