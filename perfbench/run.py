"""Benchmark of orthant-t2, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sample_pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With ``--trace 0`` a run measures one workload for ``--seconds`` seconds of
operations, with tracing off, and prints its end-to-end metrics. With
``--trace 1`` it runs, for every workload and each in its own process, an
untraced, a traced and another untraced round, and prints the per-layer
metrics derived from the spans of all four, with the tracing overhead; the
attempted and failed counts are those of the named workload. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The program
is imported from ``src/`` of the same checkout; without it the benchmark
exits with code 2. See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))

# At most nproc threads, BLAS included, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

WORKLOADS = ("sample_pipeline", "bound_grid", "oracle_verify", "cli_cold")
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args: list[str], timeout: float = CHILD_TIMEOUT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout, check=True)


def setup_seconds() -> float:
    """Median wall time of ``import orthant_t2`` in fresh interpreters (after one warm-up
    that writes the bytecode cache)."""
    code = "import time; t = time.perf_counter(); import orthant_t2; print(time.perf_counter() - t)"
    _python(["-c", code])
    return statistics.median(float(_python(["-c", code]).stdout) for _ in range(SETUP_REPEATS))


def import_times_ms() -> dict[str, float]:
    """Cumulative import time of the package and two scipy modules, by ``-X importtime``.

    ``from scipy import optimize`` goes through scipy's lazy loader, which
    leaves no line for ``scipy.optimize`` itself; its cost is then the sum
    over its outermost submodules.
    """
    wanted = {"orthant_t2": [], "scipy.optimize": [], "scipy.special": []}
    for _ in range(IMPORTTIME_REPEATS):
        lines = []
        for line in _python(["-X", "importtime", "-c", "import orthant_t2"]).stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$", line)
            if m:
                lines.append((m.group(3), len(m.group(2)), int(m.group(1))))
        for name, values in wanted.items():
            exact = [us for mod, _, us in lines if mod == name]
            subs = [(depth, us) for mod, depth, us in lines if mod.startswith(name + ".")]
            top = min((depth for depth, _ in subs), default=0)
            values.append((exact[0] if exact else sum(us for depth, us in subs if depth == top)) / 1000.0)
    return {name: statistics.median(v) for name, v in wanted.items()}


def load_package():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import orthant_t2
    import orthant_t2.cli  # noqa: F401  (a layer too; the package does not import it)

    return orthant_t2


def make_context(pkg, seed: int, **kwargs):
    import workloads

    return workloads.Context(pkg, seed, root=ROOT, env=child_env(), threads=min(2, NPROC), **kwargs)


def quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def account(ops) -> tuple[bool, int, int, dict]:
    """(correct, attempted, failed, failed per fault); prints every unexpected problem."""
    by_fault: dict[str, int] = {}
    correct = True
    for op in ops:
        if not op.failed:
            continue
        by_fault[op.fault or "unexpected"] = by_fault.get(op.fault or "unexpected", 0) + 1
        if op.fault is None:
            correct = False
            print(f"WRONG {op.kind} {op.label}: {'; '.join(op.problems)}", file=sys.stderr)
    return correct, len(ops), sum(by_fault.values()), by_fault


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def input_class(name: str, op) -> str | None:
    """The input class an operation counts under in the make-up line."""
    info = op.info
    if name == "sample_pipeline" and "kind" in info:
        n = info["n"]
        size = "wide" if info["kind"] == "wide" else ("n<1000" if n < 1000 else ("n<3000" if n < 3000 else "n>=3000"))
        return f"{size} {'DEEP' if info['deep'] else info['region']}"
    if name == "bound_grid" and "region" in info:
        return "DEEP" if info["deep"] else info["region"]
    return None


class Tally:
    """What a run keeps of its rounds: per-position times in flat arrays, so the
    bookkeeping of a long run does not grow the peak RSS."""

    def __init__(self, name: str):
        self.name = name
        self.kinds: list[str] = []
        self.groups: list[str] = []
        self.patterns: list[int] = []
        self.seconds: list[array] = []
        self.failed: list[bytes] = []
        self.classes: Counter = Counter()

    def add(self, ops) -> None:
        if not self.kinds:
            self.kinds = [op.kind for op in ops]
            self.groups = [op.info.get("group", "") for op in ops]
            self.patterns = [op.info.get("patterns", 0) for op in ops]
        self.seconds.append(array("d", (op.seconds for op in ops)))
        self.failed.append(bytes(op.failed for op in ops))
        self.classes.update(c for c in (input_class(self.name, op) for op in ops if not op.failed) if c)

    def total_seconds(self) -> float:
        return sum(sum(r) for r in self.seconds)

    def good(self, sel=lambda j: True) -> list[float]:
        return [t for r, f in zip(self.seconds, self.failed) for j, t in enumerate(r) if not f[j] and sel(j)]

    def ops_per_s(self) -> float:
        """Operations that did not fail per round, over the fastest time seen at
        each position of the round. Rounds repeat the same mix, and this
        machine switches between a fast and a slow pace for tens of seconds
        at a time; the fastest of a position's times is the pace of the
        program, not of the neighbours (the timeit rule)."""
        best = [min(r[j] for r in self.seconds) for j in range(len(self.kinds))]
        return len(self.good()) / len(self.seconds) / sum(best)

    def figures(self) -> list[tuple[str, float, str]]:
        """The figures a user of each workload sees, by the names the workloads were specified with."""
        name, kinds = self.name, self.kinds

        def rate(kind):
            sel = [j for j, k in enumerate(kinds) if k == kind]
            spent = sum(r[j] for r in self.seconds for j in sel)
            return len(self.good(lambda j: kinds[j] == kind)) / spent

        ms = [t * 1e3 for t in self.good()]
        if name == "sample_pipeline":
            beyond = len(ms) - int(0.95 * len(ms))
            return [("samples_per_s", rate("run_test"), "1/s"), ("sample_p50_ms", statistics.median(ms), "ms"),
                    (f"sample_p95_ms({len(ms)} samples, {beyond} beyond)", quantile(ms, 0.95), "ms")]
        if name == "bound_grid":
            return [("bounds_per_s", rate("q_bound"), "1/s"), ("critvals_per_s", rate("critical_chain"), "1/s")]
        if name == "oracle_verify":
            suites = [j for j, k in enumerate(kinds) if k == "suite"]
            large = [j for j, g in enumerate(self.groups) if g.startswith("large")]
            verify = statistics.median(sum(r[j] for j in suites) for r in self.seconds)
            patterns = sum(self.patterns[j] for j in large) * len(self.seconds)
            return [("verify_s", verify, "s"), ("enum_patterns_per_s", patterns / sum(r[j] for r in self.seconds for j in large), "1/s")]
        return [("cli_p50_ms", statistics.median(ms), "ms")]

    def make_up(self) -> str:
        """Measured shares of the input classes the workload was built to cover."""
        total = sum(self.classes.values())
        return ", ".join(f"{c} {v / total:.1%}" for c, v in sorted(self.classes.items()))


def measure(name: str, seed: int, seconds: float) -> int:
    import workloads

    setup = setup_seconds()
    pkg = load_package()
    ctx = make_context(pkg, seed)
    round_fn = workloads.ROUNDS[name]
    tally = Tally(name)
    correct, attempted, failed, by_fault = True, 0, 0, Counter()
    try:
        while not tally.seconds or tally.total_seconds() < seconds:
            ops = round_fn(ctx, len(tally.seconds))
            ok, a, f, faults = account(ops)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            by_fault.update(faults)
            tally.add(ops)
            del ops
    finally:
        ctx.close()
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        "ops_per_s": {"value": tally.ops_per_s(), "unit": "1/s"},
    }
    faults = ", ".join(f"{k} {v}" for k, v in sorted(by_fault.items())) or "none"
    print(f"workload {name}: seed {seed}, {len(tally.seconds)} rounds, {attempted} operations attempted, {failed} failed ({faults})")
    for key, value, unit in tally.figures():
        print(f"  {key} {value:.6g} {unit}")
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    if tally.classes:
        print(f"  make-up: {tally.make_up()}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_round(name: str, seed: int) -> int:
    """Child of a traced run: untraced, traced and untraced round 0 of one workload."""
    import spans
    import workloads

    pkg = load_package()
    ctx = make_context(pkg, seed, cli_in_process=True)
    round_fn = workloads.ROUNDS[name]
    try:
        # untraced, traced, untraced: the faster untraced round is the baseline,
        # so first-round costs (page faults, lazy imports) do not count as overhead
        first = round_fn(ctx, 0)
        tracer = spans.Tracer()
        spans.install(tracer, pkg)
        ctx.tracer = tracer
        traced = round_fn(ctx, 0)
        ctx.tracer = None
        last = round_fn(ctx, 0)
    finally:
        ctx.close()
    correct, attempted, failed, by_fault = account(first + traced + last)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}.npz")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "by_fault": by_fault,
        "untraced_s": min(sum(op.seconds for op in ops) for ops in (first, last)),
        "traced_s": sum(op.seconds for op in traced),
        "summary": tracer.summary(),
    }))
    return 0


def _merge(summaries: list[dict]) -> dict:
    by_name: dict[str, dict] = {}
    pairs: dict[str, int] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for n, v in s["by_name"].items():
            acc = by_name.setdefault(n, {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0})
            for k in acc:
                acc[k] += v[k]
        for k, v in s["pairs"].items():
            pairs[k] = pairs.get(k, 0) + v
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
    distinct = sum(s["distinct_targets"] for s in summaries)
    return {"by_name": by_name, "pairs": pairs, "counters": counters, "distinct_targets": distinct}


def layer_metrics(m: dict, imports: dict[str, float]) -> dict:
    """Every per-layer metric from the merged span summaries of all four workloads."""
    import spans

    by = m["by_name"]

    def calls(n):
        return by.get(n, {}).get("calls", 0)

    def incl_s(n):
        return by.get(n, {}).get("incl_ns", 0.0) / 1e9

    def per_call(n, scale):
        return incl_s(n) * scale / calls(n) if calls(n) else 0.0

    def per(numerator, n):
        return numerator / calls(n) if calls(n) else 0.0

    def self_per_call(n, scale):
        return per(by.get(n, {}).get("self_ns", 0.0) / 1e9 * scale, n)

    cnt = m["counters"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in spans.LAYERS:
        put(f"{layer}.self_s", sum(v["self_ns"] for n, v in by.items() if n.startswith(layer + ".")) / 1e9, "s")
    put("chi_kernel.tail_q.calls", calls("chi_kernel.tail_q"), "count")
    put("chi_kernel.tail_q.s", incl_s("chi_kernel.tail_q"), "s")
    put("chi_kernel.gamma3.calls", calls("chi_kernel.gamma3"), "count")
    put("chi_kernel.log_gamma3.us_per_call", per_call("chi_kernel.log_gamma3", 1e6), "us")
    put("chi_kernel.quantile.us_per_call", per_call("chi_kernel.quantile", 1e6), "us")
    put("chi_kernel.quantile.log_survival_evals_per_call", per(m["pairs"].get("chi_kernel.quantile>chi_kernel.log_survival", 0), "chi_kernel.quantile"), "count")
    for region in ("unit", "quadratic", "cubic", "deep"):
        put(f"extremal_bounds.q_bound.{region}.us_per_call", per_call(f"extremal_bounds.q_bound.{region}", 1e6), "us")
    put("extremal_bounds.mu_inverse.us_per_call", per_call("extremal_bounds.mu_inverse", 1e6), "us")
    put("extremal_bounds.mu_of_t.evals_per_mu_inverse", per(m["pairs"].get("extremal_bounds.mu_inverse>extremal_bounds.mu_of_t", 0), "extremal_bounds.mu_inverse"), "count")
    put("extremal_bounds.lambda_envelope.us_per_call", per_call("extremal_bounds.lambda_envelope", 1e6), "us")
    put("hotelling.r_squared.tall.ms_per_call", per_call("hotelling.r_squared.tall", 1e3), "ms")
    put("hotelling.r_squared.wide.ms_per_call", per_call("hotelling.r_squared.wide", 1e3), "ms")
    put("hotelling.projector.calls", calls("hotelling.projector"), "count")
    put("hotelling.projector.bytes_computed", cnt.get("hotelling.projector.bytes_computed", 0), "B")
    put("symmetry_test.run_test.self_ms", self_per_call("symmetry_test.run_test", 1e3), "ms")
    put("symmetry_test.p_value_bound.us_per_call", per_call("symmetry_test.p_value_bound", 1e6), "us")
    put("symmetry_test.critical_chain.us_per_call", per_call("symmetry_test.critical_chain", 1e6), "us")
    put("monotone_family.calls", sum(v["calls"] for n, v in by.items() if n.startswith("monotone_family.")), "count")
    for kind in ("exact_linear_distribution", "exact_quadratic_distribution"):
        seconds = incl_s(f"oracle.{kind}")
        put(f"oracle.{kind}.patterns_per_s", cnt.get(f"oracle.{kind}.patterns", 0) / seconds if seconds else 0.0, "1/s")
    enumerations = cnt.get("oracle.enumerations", 0)
    put("oracle.enumerations.calls", enumerations, "count")
    put("oracle.enumerations.distinct_ratio", m["distinct_targets"] / enumerations if enumerations else 0.0, "ratio")
    for fn in ("mean_of", "verify_moment_inequality", "verify_tail_bounds"):
        put(f"oracle.{fn}.s", incl_s(f"oracle.{fn}"), "s")
    for suite in ("moments", "tails", "lambda", "mlr", "identities", "table"):
        put(f"suites.{suite}.s", incl_s(f"suites.suite_{suite}"), "s")
    for mod in ("orthant_t2", "scipy.optimize", "scipy.special"):
        put(f"cli.import.{mod.replace('.', '_')}_ms", imports[mod], "ms")
    put("cli.read_sample_csv.s", incl_s("cli.read_sample_csv"), "s")
    put("cli.main.ms_per_call", per_call("cli.main", 1e3), "ms")
    return out


def trace(name: str, seed: int) -> int:
    imports = import_times_ms()
    order = WORKLOADS if name == "all" else (name, *(w for w in WORKLOADS if w != name))
    children = {}
    for w in order:
        proc = _python([str(BENCH / "run.py"), "--workload", w, "--seed", str(seed), "--traced-round"])
        children[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        sys.stderr.write(proc.stderr)
    for w, c in children.items():
        over = 100.0 * (c["traced_s"] / c["untraced_s"] - 1.0)
        print(f"trace {w}: untraced round {c['untraced_s']:.4f} s, traced round {c['traced_s']:.4f} s "
              f"(overhead {over:+.1f}%), {c['summary']['spans']} spans, failed {c['failed']} of {c['attempted']}")
    metrics = layer_metrics(_merge([c["summary"] for c in children.values()]), imports)
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    counted = children.values() if name == "all" else [children[name]]
    correct = all(c["correct"] for c in children.values())
    print(result_line(correct, sum(c["attempted"] for c in counted), sum(c["failed"] for c in counted), metrics))
    return 0


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for w in WORKLOADS:
        proc = _python([str(BENCH / "run.py"), "--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], timeout=600)
        sys.stdout.write("\n".join(proc.stdout.strip().splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "orthant_t2" / "__init__.py").is_file():
        print(f"error: no orthant_t2 package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.traced_round:
        return traced_round(args.workload, args.seed)
    if args.trace:
        return trace(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
