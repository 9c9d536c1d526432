"""One round of each workload: the operations, timed one by one, then checked.

An operation is one top-level call a user makes: one ``run_test``, one
``q_bound`` or ``critical_chain``, one verify suite or enumeration, one CLI
invocation. Every workload is a closed loop with one caller: the next call
starts when the previous one returns. Only the call is timed; the checks run
after it, untimed and untraced. A round always attempts the same operations,
including the fixed fault slices, so the failed share of a run does not
depend on the seed or on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import gen
import refcheck

SUITE_ORDER = ("moments", "tails", "lambda", "mlr", "identities", "table")


@dataclass
class Op:
    kind: str
    label: str
    seconds: float
    fault: str | None = None  # the known fault slice this operation belongs to
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Context:
    """What a run shares across rounds: the package, the seed, the tracer, the CLI mode."""

    def __init__(self, pkg, seed: int, *, root, env: dict, threads: int, tracer=None, cli_in_process=False):
        self.pkg = pkg
        self.seed = seed
        self.root = root
        self.env = env
        self.threads = threads
        self.tracer = tracer
        self.cli_in_process = cli_in_process
        self.tmp = root / "perfbench" / "out" / f"run-{seed}-{id(self)}"
        self._cli_files = None
        self.first_answers: dict = {}

    def call(self, kind: str, fn, *args, traced: bool = True, **kwargs):
        """Time one operation; return (result, exception, seconds)."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{kind}"):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            exc = None
        except Exception as e:  # a failed operation is counted, and the run goes on
            result, exc = None, e
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        return result, exc, seconds

    def cli_files(self) -> dict:
        if self._cli_files is None:
            self.tmp.mkdir(parents=True, exist_ok=True)
            self._cli_files = {}
            for name, X in gen.cli_samples(self.seed).items():
                path = self.tmp / f"{name}.csv"
                header = ",".join(f"x{j + 1}" for j in range(X.shape[1])) if name == "big" else ""
                np.savetxt(path, X, delimiter=",", fmt="%.17g", header=header, comments="")
                self._cli_files[name] = (path, X)
        return self._cli_files

    def close(self) -> None:
        if self._cli_files is not None:
            for path, _ in self._cli_files.values():
                path.unlink(missing_ok=True)
            self.tmp.rmdir()


def _raised(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# sample_pipeline


def _sample_op(ctx: Context, label: str, X: np.ndarray, fault: str | None, rescale: bool) -> Op:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # over/underflow warnings of the fault slice
        rep, exc, dt = ctx.call("run_test", ctx.pkg.run_test, X)
    n, d = X.shape
    op = Op("run_test", label, dt, fault)
    if exc is not None:
        op.problems = _raised(exc)
        return op
    r2_ref, rank_ref = refcheck.reference_r2_rank(X)
    op.problems = refcheck.check_sample(X, rep, r2_ref, rank_ref)
    if rescale:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            again, exc, _ = ctx.call("run_test", ctx.pkg.run_test, refcheck.equilibrate(X), traced=False)
        op.problems += _raised(exc) if exc is not None else refcheck.check_rescaled(rep.r_squared, again.r_squared)
    op.info = {"n": n, "d": d, "region": refcheck.expected_region(d, rep.statistic_u), "deep": rep.p_upper_Q < refcheck.DEEP_Q}
    return op


def round_sample_pipeline(ctx: Context, k: int) -> list[Op]:
    ops = []
    for i, (n, d, kind) in enumerate(gen.sample_plan()):
        X = gen.make_sample(ctx.seed, k, i, n, d, kind)
        op = _sample_op(ctx, f"{n}x{d} {kind}", X, None, rescale=n <= 1000)
        op.info["kind"] = kind
        ops.append(op)
    for fault, label, X in gen.fault_samples():
        ops.append(_sample_op(ctx, label, X, fault, rescale=True))
    return ops


# ---------------------------------------------------------------------------
# bound_grid


def _bound_problems(ctx: Context, k: int, j: int, answer, check) -> list[str]:
    """Round 0 checks every answer; later rounds repeat the same calls, whose
    answers must then equal round 0's bit for bit."""
    first = ctx.first_answers.setdefault("bound_grid", {})
    if k == 0:
        first[j] = answer
        return check()
    return [] if answer == first.get(j) else [f"answer changed since round 0: {answer!r}"]


def round_bound_grid(ctx: Context, k: int) -> list[Op]:
    """The same grid every round (the seed picks it), so each position's times
    are times of one call."""
    pkg = ctx.pkg
    ops = []
    along: dict[float, list] = {}
    points = gen.bound_points(ctx.seed)
    for j, (r, u) in enumerate(points):
        rep, exc, dt = ctx.call("q_bound", pkg.q_bound, r, u)
        op = Op("q_bound", f"q_bound({r!r}, {u!r})", dt)
        if exc is not None:
            op.problems = _raised(exc)
        else:
            op.problems = _bound_problems(ctx, k, j, rep, lambda: refcheck.check_bound(r, u, rep, refcheck.chi_sf(r, u)))
            op.info = {"region": rep.region, "deep": rep.region == "CUBIC" and rep.q_value < refcheck.DEEP_Q}
            along.setdefault(r, []).append((u, rep, op))
        ops.append(op)
    if k == 0:
        for r, pts in along.items():
            pts[-1][2].problems += refcheck.check_monotone(r, [u for u, _, _ in pts], [rep.q_value for _, rep, _ in pts])
        # on a subsample, t* minimizes W (gamma3 by mpmath quadrature): one plain
        # and one deep cubic point, at degrees the seed picks
        degrees = list(along)
        for r, deep in ((degrees[ctx.seed % len(degrees)], False), (degrees[(ctx.seed + len(degrees) // 2) % len(degrees)], True)):
            u, rep, op = next((p for p in along[r] if p[2].info["region"] == "CUBIC" and p[2].info["deep"] == deep), (None, None, None))
            if op is not None:
                op.problems += refcheck.check_minimizer(r, u, pkg.mu_inverse(r, u), rep.lambda_ratio)
    for fault, r, u in gen.fault_bound_points():
        rep, exc, dt = ctx.call("q_bound", pkg.q_bound, r, u)
        op = Op("q_bound", f"q_bound({r!r}, {u!r})", dt, fault)
        op.problems = _raised(exc) if exc is not None else refcheck.check_bound(r, u, rep, refcheck.chi_sf(r, u))
        ops.append(op)
    for j, (d, delta) in enumerate(gen.chain_points(ctx.seed), start=len(points)):
        trip, exc, dt = ctx.call("critical_chain", pkg.critical_chain, d, delta)
        op = Op("critical_chain", f"critical_chain({d!r}, {delta!r})", dt)
        op.problems = _raised(exc) if exc is not None else _bound_problems(ctx, k, j, trip, lambda: refcheck.check_chain(d, delta, trip))
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# oracle_verify


def round_oracle_verify(ctx: Context, k: int) -> list[Op]:
    pkg = ctx.pkg
    ops = []
    for name in SUITE_ORDER:
        checks, exc, dt = ctx.call("suite", pkg.suites.SUITES[name])
        op = Op("suite", name, dt)
        op.problems = _raised(exc) if exc is not None else refcheck.check_suite(name, checks)
        ops.append(op)
    targets = gen.oracle_targets(ctx.seed, k)
    runs = [
        ("large_linear", pkg.exact_linear_distribution, refcheck.check_linear, {"threads": ctx.threads}),
        ("large_quadratic", pkg.exact_quadratic_distribution, refcheck.check_quadratic, {"threads": ctx.threads}),
        ("small_linear", pkg.exact_linear_distribution, refcheck.check_linear, {}),
        ("small_quadratic", pkg.exact_quadratic_distribution, refcheck.check_quadratic, {}),
    ]
    for group, fn, check, kwargs in runs:
        for target in targets[group]:
            n = target.shape[0]
            dist, exc, dt = ctx.call("enumeration", fn, target, **kwargs)
            op = Op("enumeration", f"{group} n={n}", dt, info={"group": group, "patterns": 2**n})
            op.problems = _raised(exc) if exc is not None else check(target, dist)
            ops.append(op)
            del dist
    return ops


# ---------------------------------------------------------------------------
# cli_cold


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _num(value: str) -> float:
    return math.inf if value == "inf" else float(value)


def _near(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want) + refcheck.TINY


def _check_critval_text(d: float, delta: float, out: str) -> list[str]:
    kv = _kv(out)
    x = refcheck.quantile_ref(d, delta)
    xc = refcheck.quantile_ref(d, delta / gen.SHARP)
    z = x + math.log(gen.SHARP) / (x - (d - 1.0) / x)
    problems = []
    for key, want in (("x_delta", x), ("x_delta_over_c", xc), ("z_delta", z)):
        if abs(float(kv.get(key, "nan")) - want) > 0.005 + 1e-6 * abs(want):
            problems.append(f"critval text {key} {kv.get(key)} vs reference {want:.6f}")
    return problems


def _check_critval_json(d: float, delta: float, out: str) -> list[str]:
    p = json.loads(out)
    trip = SimpleNamespace(**{k: p[k] for k in ("x_delta", "x_delta_over_c", "z_delta")})
    problems = [] if (p["d"], p["delta"]) == (d, delta) else [f"critval echoes d={p['d']}, delta={p['delta']}"]
    return problems + refcheck.check_chain(d, delta, trip)


def _check_qbound_text(r: float, u: float, out: str) -> list[str]:
    kv = _kv(out)
    region = refcheck.expected_region(r, u)
    problems = [] if kv.get("region") == region else [f"qbound text region {kv.get('region')} vs {region}"]
    q, chi, eaton, lam = (_num(kv[k]) for k in ("q_value", "chi_tail", "eaton_bound", "lambda"))
    if not _near(chi, float(refcheck.chi_sf(r, u)), 6e-4):
        problems.append(f"qbound text chi_tail {chi} vs mpmath")
    if not (chi <= q * 1.001 + refcheck.TINY and q <= eaton * 1.001 + refcheck.TINY and 1.0 - 1e-3 <= lam <= gen.SHARP):
        problems.append(f"qbound text order broken: {out!r}")
    if region == "CUBIC" and not lam <= _num(kv["lambda_envelope"]):
        problems.append("qbound text Lambda above its envelope")
    return problems


def _check_qbound_json(r: float, u: float, out: str) -> list[str]:
    p = json.loads(out)
    rep = SimpleNamespace(**p, lambda_ratio=p["lambda"])
    return refcheck.check_bound(r, u, rep, refcheck.chi_sf(r, u))


def _check_table_text(out: str) -> list[str]:
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if parts:
            rows[parts[0]] = [float(v) for v in parts[1:]]
    problems = []
    for i, d in enumerate(rows.get("d", [])):
        row = [rows[key][i] for key in ("x_delta", "x_delta_over_c", "z_delta")]
        problems += refcheck.check_printed_row(d, 0.05, row, tol=0.0100001)
    return problems if len(rows.get("d", [])) == len(gen.PRINTED_TABLE) else problems + ["table text lacks rows"]


def _check_table_json(delta: float, dims: list[float], out: str) -> list[str]:
    p = json.loads(out)
    problems = [] if [row["d"] for row in p["rows"]] == dims else ["table json dims differ"]
    for row in p["rows"]:
        problems += refcheck.check_chain(row["d"], delta, SimpleNamespace(**row))
    return problems


def _check_t2(X: np.ndarray, out: str, fmt: str) -> list[str]:
    r2_ref, rank_ref = refcheck.reference_r2_rank(X)
    if fmt == "json":
        p = json.loads(out)
        rep = SimpleNamespace(**p)
        return refcheck.check_sample(X, rep, r2_ref, rank_ref)
    kv = _kv(out)
    n, d = X.shape
    problems = []
    if (int(kv["n"]), _num(kv["d"]), int(kv["rank"])) != (n, d, rank_ref):
        problems.append(f"t2 text n/d/rank {kv['n']}/{kv['d']}/{kv['rank']} vs {n}/{d}/{rank_ref}")
    if not _near(_num(kv["r_squared"]), r2_ref, 6e-4):
        problems.append(f"t2 text R^2 {kv['r_squared']} vs lstsq {r2_ref!r}")
    chi, pq, pe = (_num(kv[k]) for k in ("chi_p", "p_upper_Q", "p_upper_eaton"))
    if not (chi <= pq * 1.001 + refcheck.TINY and pq <= pe * 1.001 + refcheck.TINY):
        problems.append(f"t2 text order chi_p <= p_Q <= p_eaton broken: {chi}, {pq}, {pe}")
    return problems


def _check_verify(out: str) -> list[str]:
    p = json.loads(out)
    problems = refcheck.check_suite(p["suite"], p["checks"])
    return problems if p["passed"] and p["suite"] == "table" else problems + ["verify did not pass"]


def cli_commands(ctx: Context, k: int) -> list[tuple[str, list[str], object]]:
    """The fixed command mix of one round: (label, argv, checker of stdout)."""
    a = gen.cli_args(ctx.seed, k)
    files = ctx.cli_files()
    (d1, l1), (d2, l2) = a["critval_text"], a["critval_json"]
    (r1, u1), (r2, u2) = a["qbound_text"], a["qbound_json"]
    small_path, small = files["small"]
    big_path, big = files["big"]
    return [
        ("critval text", ["critval", "--d", repr(d1), "--delta", repr(l1)], lambda out: _check_critval_text(d1, l1, out)),
        ("critval json", ["critval", "--d", repr(d2), "--delta", repr(l2), "--format", "json"], lambda out: _check_critval_json(d2, l2, out)),
        ("qbound text", ["qbound", "--r", repr(r1), "--u", repr(u1)], lambda out: _check_qbound_text(r1, u1, out)),
        ("qbound json", ["qbound", "--r", repr(r2), "--u", repr(u2), "--format", "json"], lambda out: _check_qbound_json(r2, u2, out)),
        ("table text", ["table"], _check_table_text),
        ("table json", ["table", "--delta", repr(a["table_json"][0]), "--dims", ",".join(map(repr, a["table_json"][1])), "--format", "json"],
         lambda out: _check_table_json(a["table_json"][0], a["table_json"][1], out)),
        ("t2 small text", ["t2", "--input", str(small_path)], lambda out: _check_t2(small, out, "text")),
        ("t2 big json", ["t2", "--input", str(big_path), "--format", "json"], lambda out: _check_t2(big, out, "json")),
        ("verify table json", ["verify", "--suite", "table", "--format", "json"], _check_verify),
    ]


def _cli_in_process(main, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_process(ctx: Context, argv: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "orthant_t2.cli", *argv],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def round_cli_cold(ctx: Context, k: int) -> list[Op]:
    ops = []
    for label, argv, check in cli_commands(ctx, k):
        if ctx.cli_in_process:
            res, exc, dt = ctx.call("cli", _cli_in_process, ctx.pkg.cli.main, argv)
        else:
            res, exc, dt = ctx.call("cli", _cli_process, ctx, argv)
        op = Op("cli", label, dt)
        if exc is not None:
            op.problems = _raised(exc)
        elif res[0] != 0:
            op.problems = [f"exit code {res[0]}: {res[2].strip()[-300:]}"]
        else:
            try:
                op.problems = check(res[1])
            except (KeyError, ValueError, TypeError) as e:
                op.problems = [f"unreadable output ({e!r}): {res[1][:200]!r}"]
        ops.append(op)
    return ops


ROUNDS = {
    "sample_pipeline": round_sample_pipeline,
    "bound_grid": round_bound_grid,
    "oracle_verify": round_oracle_verify,
    "cli_cold": round_cli_cold,
}
