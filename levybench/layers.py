"""Per-layer metrics: microbenchmarks on fixed inputs and aggregates of a trace.

Each metric's name is prefixed by the levyfn module it measures.  A metric a
workload does not exercise (say, path throughput on ``classify``) reads 0.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import mpmath
import numpy as np

import levyfn as lf
from levyfn import levy_model, scale_fn
from tracer import LAYER_OF

FAMILIES = ("none", "stable", "cpexp", "tempered")
SCALE_KINDS = ("w_table", "condexp", "occupation", "laplace_identity")
ROUTES = ("doubling_panels", "laplace_zero", "tail_integral")

# (name, unit, better) of every per-layer metric
METRICS = (
    [("levy_model.psi_calls_per_op", "count", "lower"),
     ("levy_model.psi_hp_calls_per_op", "count", "lower")]
    + [(f"levy_model.psi_ns.{f}", "ns", "lower") for f in FAMILIES]
    + [("levy_model.phi_zero_ms", "ms", "lower"),
       ("levy_model.validate_ms", "ms", "lower"),
       ("scale_fn.evaluator_init_ms", "ms", "lower"),
       ("scale_fn.gs_float_calls_per_op", "count", "lower"),
       ("scale_fn.gs_mp_calls_per_op", "count", "lower"),
       ("scale_fn.gs_float_us", "us", "lower"),
       ("scale_fn.gs_mp_ms", "ms", "lower"),
       ("scale_fn.self_share", "1", "lower")]
    + [(f"scale_fn.op_ms.{k}", "ms", "lower") for k in SCALE_KINDS]
    + [("scale_fn.max_rel_err", "1", "lower"),
       ("scale_fn.evaluator_build_failures", "count", "lower"),
       ("integral_tests.verdict_calls_per_op", "count", "lower"),
       ("integral_tests.panels_per_verdict", "count", "lower"),
       ("integral_tests.psi_calls_per_panel", "count", "lower"),
       ("integral_tests.self_share", "1", "lower"),
       ("integral_tests.decisive_ratio", "1", "higher"),
       ("integral_tests.wrong_verdicts", "count", "lower"),
       ("integral_tests.inconclusive_verdicts", "count", "lower"),
       ("integral_tests.analytic_route_share", "1", "higher")]
    + [(f"integral_tests.verdict_ms.{r}", "ms", "lower") for r in ROUTES]
    + [(f"montecarlo.paths_per_s.{f}", "1/s", "higher") for f in FAMILIES]
    + [(f"montecarlo.msteps_per_s.{f}", "Msteps/s", "higher") for f in FAMILIES]
    + [("montecarlo.steps_per_path", "count", "lower"),
       ("montecarlo.sample_path_share", "1", "lower"),
       ("montecarlo.functional_share", "1", "lower"),
       ("montecarlo.parallel_efficiency", "1", "higher"),
       ("montecarlo.censored_fraction", "1", "lower"),
       ("montecarlo.bias_se.hitprob", "1", "lower"),
       ("montecarlo.bias_se.condexp", "1", "lower"),
       ("cli.import_s", "s", "lower"),
       ("trace.overhead_ratio", "1", "lower")]
)


# ---------------------------------------------------------------------------
# Microbenchmarks (run untraced, in tight loops over fixed inputs)
# ---------------------------------------------------------------------------

def _per_call(fn, calls: int, repeat: int) -> float:
    """Median over `repeat` rounds of the time per call, in seconds."""
    rounds = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        rounds.append((perf_counter() - t0) / calls)
    return statistics.median(rounds)


def microbenchmarks() -> dict[str, float]:
    cp = lf.builtin_model("cpexp")
    models = {"none": lf.builtin_model("bmdrift"), "stable": lf.builtin_model("stable15"),
              "cpexp": cp,
              "tempered": lf.validate(0.3, 0.1, lf.TemperedStable(1.2, 1.0, 2.0))}
    lams = [float(v) for v in np.geomspace(1e-3, 1e4, 64)]
    out = {}
    for fam, m in models.items():
        psi = m.laplace_exponent

        def sweep():
            for lam in lams:
                psi(lam)

        out[f"levy_model.psi_ns.{fam}"] = _per_call(sweep, 20, 9) / len(lams) * 1e9

    triplet = (cp.drift, cp.gaussian, cp.jumps)
    out["levy_model.phi_zero_ms"] = _per_call(
        lambda: lf.LevyModel(*triplet, validated=True).phi_zero(), 50, 7) * 1e3
    out["levy_model.validate_ms"] = _per_call(lambda: lf.validate(*triplet), 50, 7) * 1e3

    phi0 = cp.phi_zero().value
    xs = [float(v) for v in np.geomspace(0.1, 10.0, 8)]

    def float_inversions():
        for x in xs:
            scale_fn.gs_invert_float(lambda s: 1.0 / cp.laplace_exponent(s + phi0), x)

    out["scale_fn.gs_float_us"] = _per_call(float_inversions, 20, 7) / len(xs) * 1e6

    phi0_mp = mpmath.mpf(phi0)

    def mp_inversions():
        for x in xs[::2]:
            scale_fn.gs_invert_mp(
                lambda s: 1 / levy_model.laplace_exponent_hp(cp, s + phi0_mp), x)

    out["scale_fn.gs_mp_ms"] = _per_call(mp_inversions, 5, 5) / len(xs[::2]) * 1e3
    out["scale_fn.evaluator_init_ms"] = _per_call(lambda: lf.ScaleEvaluator(cp), 1, 5) * 1e3
    return out


# ---------------------------------------------------------------------------
# Aggregates of a traced run
# ---------------------------------------------------------------------------

def _safe(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_metrics(tracer, traced: list, near: list, workers: int) -> dict[str, float]:
    """Per-layer metrics of the traced ops, from spans and leaf counters.

    `traced` holds (op, latency s, outcome) for op ids 0..len-1; `near`
    holds the same for the untraced ops of the near-critical probe, whose
    wrong and inconclusive verdicts are counted.
    """
    n_ops = len(traced)
    busy_ns = sum(lat for _, lat, _ in traced) * 1e9
    spans = [s for s in tracer.spans if s[4] is not None]
    # spans of calls that raised carry no facts
    done = [s for s in spans if s[8] is not None]
    leaves = {k: v for k, v in tracer.leaf_counters().items() if k[0] is not None}

    def leaf_calls(name, within=None):
        return sum(v[0] for (_, n, w), v in leaves.items()
                   if n == name and (within is None or w == within))

    def layer_self(layer):
        own = sum(s[7] for s in spans if s[3] == layer)
        return own + sum(v[2] for (_, n, _), v in leaves.items() if LAYER_OF[n] == layer)

    out = {
        "levy_model.psi_calls_per_op": _safe(leaf_calls("LevyModel.laplace_exponent"), n_ops),
        "levy_model.psi_hp_calls_per_op": _safe(leaf_calls("laplace_exponent_hp"), n_ops),
        "scale_fn.gs_float_calls_per_op": _safe(leaf_calls("gs_invert_float"), n_ops),
        "scale_fn.gs_mp_calls_per_op": _safe(leaf_calls("gs_invert_mp"), n_ops),
        "scale_fn.self_share": _safe(layer_self("scale_fn"), busy_ns),
        "integral_tests.self_share": _safe(layer_self("integral_tests"), busy_ns),
    }

    verdicts = [s for s in done if s[2] == "improper_integral_verdict"]
    panels = sum(s[8]["panels"] for s in verdicts)
    verdict_psi = (leaf_calls("LevyModel.laplace_exponent", "improper_integral_verdict")
                   + leaf_calls("laplace_exponent_hp", "improper_integral_verdict"))
    tests = [s for s in done if s[2] in ("extinction_test", "explosion_test")]
    out.update({
        "integral_tests.verdict_calls_per_op": _safe(len(verdicts), n_ops),
        "integral_tests.panels_per_verdict": _safe(panels, len(verdicts)),
        "integral_tests.psi_calls_per_panel": _safe(verdict_psi, panels),
        "integral_tests.decisive_ratio": _safe(
            sum(s[8]["verdict"] != "inconclusive" for s in tests), len(tests)),
        "integral_tests.analytic_route_share": _safe(
            sum(s[8]["route"] == "analytic_power" for s in tests), len(tests)),
        "integral_tests.wrong_verdicts": float(
            sum(o.category == "wrong" for _, _, o in traced + near)),
        "integral_tests.inconclusive_verdicts": float(
            sum(o.category == "inconclusive" for _, _, o in traced + near)),
    })
    for route in ROUTES:
        durs = [(s[6] - s[5]) / 1e6 for s in tests if s[8]["route"] == route]
        out[f"integral_tests.verdict_ms.{route}"] = _safe(sum(durs), len(durs))

    paths = [s for s in done if s[2] == "sample_path"]
    mc_ns = sum(s[6] - s[5] for s in spans if s[2] == "mc_estimate") * workers
    for fam in FAMILIES:
        mine = [s for s in paths if s[8]["family"] == fam]
        secs = sum(s[6] - s[5] for s in mine) / 1e9
        out[f"montecarlo.paths_per_s.{fam}"] = _safe(len(mine), secs)
        out[f"montecarlo.msteps_per_s.{fam}"] = _safe(sum(s[8]["steps"] for s in mine),
                                                      secs) / 1e6
    estimates = [s[8] for s in done if s[2] == "mc_estimate"]
    out.update({
        "montecarlo.steps_per_path": _safe(sum(s[8]["steps"] for s in paths), len(paths)),
        "montecarlo.sample_path_share": _safe(sum(s[6] - s[5] for s in paths), mc_ns),
        "montecarlo.functional_share": _safe(
            sum(s[6] - s[5] for s in spans if s[2] == "functional_along_path"), mc_ns),
        "montecarlo.censored_fraction": _safe(
            sum(e["censored_fraction"] * e["paths"] for e in estimates),
            sum(e["paths"] for e in estimates)),
    })
    return out


def scale_op_ms(untraced: list) -> dict[str, float]:
    """Median latency of each scale query kind, from passed untraced ops."""
    out = {}
    for kind in SCALE_KINDS:
        lats = [lat * 1e3 for op, lat, o in untraced if op.kind == kind and o.ok]
        out[f"scale_fn.op_ms.{kind}"] = statistics.median(lats) if lats else 0.0
    errs = [o.rel_err for _, _, o in untraced
            if o.rel_err is not None and math.isfinite(o.rel_err)]
    out["scale_fn.max_rel_err"] = max(errs) if errs else 0.0
    return out


def bias_se(pooled_rows: list[dict]) -> dict[str, float]:
    """|sum of pooled deviations| / sqrt(sum of pooled variances), per estimator."""
    out = {}
    for key, estimator in (("hitprob", "HitProb"), ("condexp", "CondExpFunctional")):
        rows = [r for r in pooled_rows if r["estimator"] == estimator]
        dev = sum(r["estimate"] - r["oracle"] for r in rows)
        var = sum(r["stderr"] ** 2 for r in rows)
        out[f"montecarlo.bias_se.{key}"] = abs(dev) / math.sqrt(var) if var > 0.0 else 0.0
    return out
