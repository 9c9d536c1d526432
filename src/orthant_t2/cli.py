"""Command-line frontend.

Commands: qbound (pointwise extremal bound), critval (quantile chain), table
(critical-value table over dimensions), t2 (run the conservative test on a
CSV sample), verify (named verification suites). Output is plain text by
default or JSON with --format json; JSON serializes floats with 17 significant
digits so identical invocations are byte-identical, text uses 4 significant
digits (2 decimals in tables, matching the published layout).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical failure (an ArithmeticError such as an overflow in the kernel).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .errors import DomainError
from .extremal_bounds import q_bound
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES
from .symmetry_test import conservativeness_table, critical_chain, run_test


def _json_escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite floats must be pre-encoded as null plus a flag")
        out.append(f"{obj:.17g}")
    elif isinstance(obj, str):
        out.append(_json_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(_json_escape(str(k)))
            out.append(": ")
            _emit_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(obj) -> str:
    out: list[str] = []
    _emit_json(obj, out)
    return "".join(out)


def _fmt_text(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.4g}"
    return str(v)


def _print_kv(payload: dict) -> None:
    for k, v in payload.items():
        print(f"{k}: {_fmt_text(v)}")


def _is_float(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_sample_csv(path: str) -> np.ndarray:
    """Strict CSV ingestion: rectangular, every cell a finite number.

    A header row is assumed only when no cell of the first row parses as a
    number. Any malformed cell aborts with its 1-based row and column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DomainError(f"cannot read input file {path!r}: {exc}") from None
    if not rows:
        raise DomainError("input CSV is empty")
    start = 0
    if rows[0] and not any(_is_float(c.strip()) for c in rows[0]):
        start = 1
    if start >= len(rows):
        raise DomainError("input CSV has a header but no data rows")
    width = len(rows[start])
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise DomainError(f"row {i} has {len(row)} cells, expected {width}")
        vals = []
        for j, cell in enumerate(row, start=1):
            cell = cell.strip()
            if not _is_float(cell):
                raise DomainError(f"malformed cell at row {i}, column {j}: {cell!r}")
            vals.append(float(cell))
        data.append(vals)
    return np.asarray(data, dtype=float)


def _cmd_qbound(args) -> int:
    rep = q_bound(args.r, args.u)
    payload = {
        "r": rep.r,
        "u": rep.u,
        "q_value": rep.q_value,
        "region": rep.region,
        "chi_tail": rep.chi_tail,
        "eaton_bound": rep.eaton_bound,
        "lambda": rep.lambda_ratio,
        "lambda_envelope": rep.lambda_envelope,
    }
    if args.format == "json":
        print(render_json(payload))
    else:
        _print_kv(payload)
    return 0


def _cmd_critval(args) -> int:
    trip = critical_chain(args.d, args.delta)
    payload = {
        "d": trip.d,
        "delta": trip.delta,
        "x_delta": trip.x_delta,
        "x_delta_over_c": trip.x_delta_over_c,
        "z_delta": trip.z_delta,
    }
    if args.format == "json":
        print(render_json(payload))
    else:
        print(f"d: {trip.d:g}")
        print(f"delta: {trip.delta:g}")
        print(f"x_delta: {trip.x_delta:.2f}")
        print(f"x_delta_over_c: {trip.x_delta_over_c:.2f}")
        print(f"z_delta: {trip.z_delta:.2f}")
    return 0


def _parse_dims(raw: str) -> list[float]:
    try:
        dims = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"--dims must be a comma-separated list of numbers, got {raw!r}") from None
    if not dims:
        raise DomainError("--dims must name at least one dimension")
    return dims


def _cmd_table(args) -> int:
    dims = _parse_dims(args.dims)
    rows = conservativeness_table(args.delta, dims)
    if args.format == "json":
        payload = {
            "delta": float(args.delta),
            "rows": [
                {
                    "d": row.d,
                    "x_delta": row.x_delta,
                    "x_delta_over_c": row.x_delta_over_c,
                    "z_delta": row.z_delta,
                }
                for row in rows
            ],
        }
        print(render_json(payload))
        return 0
    label_w = 14
    col_w = max(7, max(len(f"{d:g}") for d in dims) + 2)
    print("d".ljust(label_w) + "".join(f"{d:g}".rjust(col_w) for d in dims))
    for label, attr in (("x_delta", "x_delta"), ("x_delta_over_c", "x_delta_over_c"), ("z_delta", "z_delta")):
        print(label.ljust(label_w) + "".join(f"{getattr(row, attr):.2f}".rjust(col_w) for row in rows))
    return 0


def _cmd_t2(args) -> int:
    X = read_sample_csv(args.input)
    rep = run_test(X, dim=args.dim)
    infinite = rep.t_squared is not None and math.isinf(rep.t_squared)
    payload = {
        "n": rep.n,
        "d": rep.d,
        "rank": rep.rank,
        "rank_matches_dim": rep.rank == rep.d,
        "r_squared": rep.r_squared,
        "t_squared": None if infinite else rep.t_squared,
        "t_squared_infinite": infinite,
        "statistic_u": rep.statistic_u,
        "p_upper_Q": rep.p_upper_Q,
        "p_upper_eaton": rep.p_upper_eaton,
        "chi_p": rep.chi_p,
    }
    if args.format == "json":
        print(render_json(payload))
    else:
        shown = dict(payload)
        shown["t_squared"] = math.inf if infinite else rep.t_squared
        del shown["t_squared_infinite"]
        _print_kv(shown)
        if rep.rank != rep.d:
            print(f"note: observed rank {rep.rank} differs from declared dimension {rep.d:g}; bounds use the declared dimension")
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"error: unknown suite {args.suite!r}; valid suites: {', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    checks = suite(seed=args.seed, budget=args.budget)
    passed = all(c["passed"] for c in checks)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "budget": args.budget,
            "passed": passed,
            "checks": checks,
        }
        print(render_json(payload))
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"{status} {c['check']}{detail}")
        n_ok = sum(1 for c in checks if c["passed"])
        print(f"suite {args.suite}: {n_ok}/{len(checks)} checks passed")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthant-t2",
        description="Conservative Hotelling T-squared bounds under orthant symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    p = sub.add_parser("qbound", help="extremal tail bound Q_r(u) and the sharp-constant ratio")
    p.add_argument("--r", type=float, required=True, help="degree r > 0")
    p.add_argument("--u", type=float, required=True, help="threshold u >= 0")
    add_format(p)
    p.set_defaults(func=_cmd_qbound)

    p = sub.add_parser("critval", help="critical-value chain x_delta < x_(delta/c) < z_delta")
    p.add_argument("--d", type=float, required=True, help="dimension d >= 1")
    p.add_argument("--delta", type=float, required=True, help="level, 0 < delta <= 0.5")
    add_format(p)
    p.set_defaults(func=_cmd_critval)

    p = sub.add_parser("table", help="critical-value table over a list of dimensions")
    p.add_argument("--delta", type=float, default=0.05, help="level (default 0.05)")
    p.add_argument("--dims", type=str, default="1,2,5,10,20,50", help="comma-separated dimensions")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("t2", help="conservative p-value bounds for a CSV sample (rows = observations)")
    p.add_argument("--input", type=str, required=True, help="CSV path, n rows x d numeric columns")
    p.add_argument("--dim", type=float, default=None, help="declared dimension for the bounds (default: column count)")
    add_format(p)
    p.set_defaults(func=_cmd_t2)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", type=str, required=True, help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="random instances per family")
    add_format(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
