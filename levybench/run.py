"""levyfn benchmark: one closed-loop caller drives the public API.

Run from the repository root:

    python3 levybench/run.py --workload classify --seed 1 --seconds 26 --trace 0

Workloads (see BENCHMARK.json for why each exists): classify, scale and
mc.  One caller issues the next op only after the previous
one returns.  Each op is timed and its output checked against an oracle.
A one-worker loop (classify, scale) and the set-up probes run on the CPU
where a short fixed loop runs fastest, re-chosen every second between ops.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), ops per second of busy time and the median and 90th-percentile
op latency, and peak resident memory.  The timed ops (the workload's
PASS_ROUNDS rounds of op kinds, see workloads.py) run in passes that fill
--seconds, and each op's latency is the fastest of its runs.  fail_ratio is
printed with them.
--trace 1 prints the per-layer metrics: it times the layer microbenchmarks,
runs the op sequence untraced, then again with the public entry points of
each levyfn layer wrapped, then the near-critical probe of classify, and
writes the spans and leaf counters under .levybench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A failed op (the workloads are built so
that none fails) or a failed run-level output check (pooled Monte Carlo
agreement, or traced outputs that differ from untraced ones) sets correct
to false and the exit code to 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".levybench_out"
MAX_WORKERS = 2
PROBE_TIMEOUT_S = 120
MIN_OPS = 100         # least ops in a timed pass (PASS_ROUNDS rounds, see workloads.py)
SETUP_SAMPLES = 4     # fresh interpreters timed for setup_s (and cli.import_s)
REPIN_S = 1.0         # a one-worker loop re-picks its CPU this often
CPUS = sorted(os.sched_getaffinity(0))
PIN = len(CPUS) <= 4  # probing more CPUs every REPIN_S would cost too much

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase (run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine(workers: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": len(os.sched_getaffinity(0)), "workers": workers, "cpu": cpu,
            "ram_gb": round(ram / 2**30, 2), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# CPU choice
# ---------------------------------------------------------------------------
#
# On a shared VM one vCPU can run at half the speed of another for minutes
# while its host core is contended, and a single-threaded caller stays on
# whichever one it started on.  One-worker runs therefore move, between ops,
# to the CPU on which a short fixed loop runs fastest (with PIN set).

def _probe_s() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.perf_counter() - t0


def pin_fastest_cpu() -> tuple[float, int]:
    """Pins this process to the fastest CPU; returns (probe s, CPU)."""
    timed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timed.append((min(_probe_s(), _probe_s()), cpu))
    best = min(timed)
    os.sched_setaffinity(0, {best[1]})
    return best


@contextlib.contextmanager
def on_fastest_cpu():
    """Run the body (and the processes it spawns) on the fastest CPU."""
    if not PIN:
        yield
        return
    pin_fastest_cpu()
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


# ---------------------------------------------------------------------------
# Subprocess timings
# ---------------------------------------------------------------------------

def time_setup(workload: str, seed: int, workers: int) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being ready."""
    with on_fastest_cpu():
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed), str(workers)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def time_cli_import() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with on_fastest_cpu():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import levyfn.cli"], cwd=ROOT, env=env,
                       check=True, timeout=PROBE_TIMEOUT_S)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Issues ops one at a time and keeps (op, latency s, outcome, output)."""

    def __init__(self, workload, stream: str):
        self.workload = workload
        self.stream = stream
        self.tracer = None      # set to time the ops with a Tracer installed
        self.ops: dict[int, object] = {}
        self.picks: list[tuple[float, int]] = []    # (probe s, CPU) of each re-pin

    def op(self, i: int):
        if i not in self.ops:
            self.ops[i] = self.workload.op(self.stream, i)
        return self.ops[i]

    def run_one(self, i: int, serial: bool = False):
        from workloads import Outcome

        op = self.op(i)
        fn = op.serial if serial else op.call
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising op is a failed op, recorded
            lat = time.perf_counter() - t0
            return op, lat, Outcome("error", f"{type(exc).__name__}: {exc}"), None
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        lat = time.perf_counter() - t0
        try:
            outcome = op.check(out)
        except Exception as exc:  # an output the check cannot read
            outcome = Outcome("invalid", f"{type(exc).__name__}: {exc}")
        return op, lat, outcome, out

    def for_time(self, seconds: float, min_ops: int, cap: float) -> list:
        done = []
        start = time.perf_counter()
        with self.cpu_choice() as repin:
            while True:
                elapsed = time.perf_counter() - start
                if (elapsed >= seconds and len(done) >= min_ops) or elapsed >= cap:
                    return done
                repin()
                done.append(self.run_one(len(done)))

    def first(self, n: int, serial: bool = False) -> list:
        done = []
        with self.cpu_choice() as repin:
            for i in range(n):
                repin()
                done.append(self.run_one(i, serial))
        return done

    @contextlib.contextmanager
    def cpu_choice(self):
        """Yields a function that, between ops, moves a one-worker loop to
        the fastest CPU once every REPIN_S; a multi-worker loop stays put."""
        if self.workload.workers > 1 or not PIN:
            yield lambda: None
            return
        last = [-math.inf]

        def repin():
            now = time.perf_counter()
            if now - last[0] >= REPIN_S:
                self.picks.append(pin_fastest_cpu())
                last[0] = now

        try:
            yield repin
        finally:
            os.sched_setaffinity(0, CPUS)


def cpu_picks(loop: Loop) -> dict:
    """Where a one-worker loop ran, and its probe time as a speed index."""
    if not loop.picks:
        return {"pinned": False}
    return {"pinned": True, "per_cpu": {cpu: sum(c == cpu for _, c in loop.picks)
                                        for cpu in CPUS},
            "probe_ms_median": statistics.median(t for t, _ in loop.picks) * 1e3}


def timed_passes(loop: Loop, seconds: float) -> list[list]:
    """The timed phase: passes over the same PASS_ROUNDS rounds of ops.

    Passes repeat while the next one, at the mean pass time so far, would
    end within `seconds`; there are always at least two.  The ops are fixed
    by the seed, so every run of a seed times the same ops however fast the
    machine is.
    """
    n = loop.workload.PASS_ROUNDS * len(loop.workload.ROUND)
    start = time.perf_counter()
    passes = [loop.first(n)]
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append(loop.first(n))


def fastest(passes: list[list]) -> list:
    """Per op, the fastest of its runs; an op fails if any of its runs failed.

    Contention from other tenants of a shared machine only ever slows an op
    down, so the fastest of a few runs spread over the timed phase is the
    steadiest estimate of what the op itself costs.
    """
    done = []
    for runs in zip(*passes):
        op, _, _, out = runs[0]
        bad = [o for _, _, o, _ in runs if not o.ok]
        done.append((op, min(r[1] for r in runs), bad[0] if bad else runs[0][2], out))
    return done


def percentile_ms(lats: list[float], q: int) -> float:
    return statistics.quantiles(lats, n=100, method="inclusive")[q - 1] * 1e3


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def failures(done: list) -> dict:
    cats: dict[str, int] = {}
    reasons = []
    for op, _, outcome, _ in done:
        if not outcome.ok:
            cats[outcome.category] = cats.get(outcome.category, 0) + 1
            if len(reasons) < 50:
                reasons.append({"op": op.index, "seed": op.seed, "kind": op.kind,
                                "params": op.params,
                                "category": outcome.category, "reason": outcome.reason})
    return {"by_category": cats, "first": reasons}


def by_kind(done: list) -> dict:
    """Op count and latency quartiles of each op kind."""
    lats: dict[str, list] = {}
    for op, lat, _, _ in done:
        lats.setdefault(op.kind, []).append(lat * 1e3)
    return {kind: {"n": len(v), "median_ms": statistics.median(v),
                   "quartiles_ms": statistics.quantiles(v, n=4) if len(v) > 1 else v}
            for kind, v in sorted(lats.items())}


def emit(result: dict, record: dict, lines: list[str], name: str) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
    for line in lines:
        print(line)
    print(f"  record       {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)


def metric_lines(metrics: dict) -> list[str]:
    return [f"  {name:<40} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]


def check_lines(pooled: list[dict]) -> list[str]:
    return [f"  check {r['case']:<32} {r['estimate']:.5g} (se {r['stderr']:.2g}, "
            f"n {r['values']}) vs {r['oracle']:.5g} tol {r['tolerance']:.3g}: "
            f"{'pass' if r['passed'] else 'FAIL'}" for r in pooled]


def run_untraced(args, wl, workers: int, record: dict) -> tuple[dict, bool, list]:
    setup = [time_setup(args.workload, args.seed, workers) for _ in range(SETUP_SAMPLES)]
    Loop(wl, "warm").for_time(1.0, 2, 5.0)
    loop = Loop(wl, "timed")
    passes = timed_passes(loop, args.seconds)
    done = fastest(passes)
    n = len(done)
    failed = sum(not o.ok for _, _, o, _ in done)
    # latency and throughput count every op tried, failed ones included
    lats = [lat for _, lat, _, _ in done]
    pooled = wl.pooled_checks([(op, out) for op, _, o, out in done if o.ok])
    # the workloads are built so that no op fails: a failed op is a wrong output
    correct = failed == 0 and all(r["passed"] for r in pooled)
    p50, p90 = percentile_ms(lats, 50), percentile_ms(lats, 90)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(lats),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    record.update({
        "setup_samples_s": setup, "cpu_picks": cpu_picks(loop),
        "ops": n, "passes": len(passes), "op_kinds": by_kind(done),
        "failed": failed, "fail_ratio": failed / n, "failures": failures(done),
        "percentile_samples": {"p50": {"n": len(lats),
                                       "above": sum(l * 1e3 > p50 for l in lats)},
                               "p90": {"n": len(lats),
                                       "above": sum(l * 1e3 > p90 for l in lats)}},
        "pooled_checks": pooled, "metrics": metrics,
    })
    lines = metric_lines(metrics)
    lines.insert(4, f"  {'fail_ratio':<40} {failed / n:.6g} 1  ({failed} of {n} ops: "
                    f"{record['failures']['by_category']})")
    lines.insert(3, f"  {'(latency samples)':<40} {n} ops, "
                    f"{record['percentile_samples']['p90']['above']} above p90")
    lines += check_lines(pooled)
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}, \
        correct, lines


def run_traced(args, lf, wl_factory, workers: int, record: dict):
    import layers
    from tracer import Tracer

    imports = [time_cli_import() for _ in range(SETUP_SAMPLES)]
    tracer = Tracer()
    tracer.install(lf)
    try:
        wl = wl_factory()
    finally:
        tracer.uninstall()
    record["workload"] = wl.record()
    metrics = layers.microbenchmarks()
    Loop(wl, "warm").for_time(1.0, 2, 5.0)

    loop = Loop(wl, "timed")
    plain = loop.for_time(args.seconds / 3.0, 5, args.seconds + 60.0)
    n = len(plain)
    if wl.workers > 1:
        # same ops at workers=1; the ops are seeded, so outputs are identical
        k, spent = 0, 0.0
        while k < n and spent < args.seconds / 6.0:
            spent += plain[k][1]
            k += 1
        serial = loop.first(k, serial=True)
        metrics["montecarlo.parallel_efficiency"] = (
            sum(s[1] for s in serial) / (wl.workers * sum(p[1] for p in plain[:k])))
    else:
        metrics["montecarlo.parallel_efficiency"] = 0.0

    loop.tracer = tracer
    tracer.install(lf)
    try:
        traced = loop.first(n)
    finally:
        tracer.uninstall()

    near = Loop(wl, wl.NEAR_STREAM).first(wl.NEAR_OPS) if wl.NEAR_OPS else []
    metrics.update(layers.trace_metrics(tracer, [t[:3] for t in traced],
                                        [t[:3] for t in near], wl.workers))
    metrics["scale_fn.evaluator_build_failures"] = len(wl.build_errors)
    metrics.update(layers.scale_op_ms([p[:3] for p in plain]))
    pooled = wl.pooled_checks([(op, out) for op, _, o, out in plain if o.ok])
    metrics.update(layers.bias_se(pooled))
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = sum(t[1] for t in traced) / sum(p[1] for p in plain)

    consistent = [p[2].category for p in plain] == [t[2].category for t in traced]
    failed = sum(not t[2].ok for t in traced)
    correct = consistent and failed == 0 and all(r["passed"] for r in pooled)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
    tracer.write(trace_path)

    metrics = {name: {"value": float(metrics[name]), "unit": unit}
               for name, unit, _ in layers.METRICS}
    record.update({"ops": n, "cpu_picks": cpu_picks(loop), "op_kinds": by_kind(traced),
                   "failed": failed,
                   "failures": failures(traced), "cli_import_samples_s": imports,
                   "near_critical": {"ops": len(near), "failures": failures(near)},
                   "traced_outputs_match": consistent, "pooled_checks": pooled,
                   "trace_file": str(trace_path.relative_to(ROOT)), "metrics": metrics})
    lines = metric_lines(metrics) + check_lines(pooled)
    if not consistent:
        lines.append("  check traced outputs match untraced: FAIL")
    lines.append(f"  trace        {trace_path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}, \
        correct, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levyfn" / "__init__.py").is_file():
        print(f"levybench: no levyfn source under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import levyfn as lf
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"levybench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    if args.workload != "mc":
        workers = 1

    def factory():
        return workloads.setup(args.workload, args.seed, workers)

    record = {"workload_name": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(workers), "levyfn": lf.__version__}
    header = (f"levybench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"workers={workers} nproc={record['machine']['nproc']}")
    if args.trace:
        result, correct, lines = run_traced(args, lf, factory, workers, record)
    else:
        wl = factory()
        record["workload"] = wl.record()
        result, correct, lines = run_untraced(args, wl, workers, record)
    models = record["workload"]["models"]
    lines.insert(0, f"  models       {len(models)} validated triplets, listed in the record")
    builds = record["workload"].get("pool_build_failures")
    if builds:
        survey = builds["per_seed_pools"]
        lines.insert(1, f"  pool         {builds['fixed_pool']} failing evaluator builds; "
                        f"per-seed pools {survey['seeds']}: mean {survey['mean']}, "
                        f"max {survey['max']} of {survey['drawn']} drawn")
    emit(result, record, [header] + lines, f"{args.workload}-s{args.seed}-t{args.trace}")
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
