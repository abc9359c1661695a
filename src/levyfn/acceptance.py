"""Acceptance suite: oracle and property checks at desk scale.

Each check returns a :class:`CheckResult` with the measured quantity, the
expected value, and the tolerance actually enforced, so the `verify` command
can print a pass/fail table.  Monte Carlo checks run at fixed seeds with
tolerances of three standard errors plus an explicit discretization budget
(grid first-passage detection biases hitting estimates by O(sqrt(dt)), and
finite horizons censor a small fraction of paths).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .builtin import builtin_model, example_models, stable_power_model
from .integral_tests import (
    Generic,
    PowerLaw,
    classify_boundary,
    constant_functional,
    explosion_test,
    extinction_test,
)
from .levy_model import (
    NoJumps, StablePositive, TemperedStable, laplace_exponent_quadrature, validate)
from .montecarlo import (
    CondExpFunctional,
    HitProb,
    MeanPassage,
    PathConfig,
    functional_along_path,
    mc_estimate,
    sample_path,
)
from .scale_fn import (
    ScaleEvaluator,
    conditional_exp_constant_closed_form,
    laplace_identity_residual,
)

SEED_HITPROB = 20260301
SEED_CONDEXP = 20260302
SEED_OCCUPATION = 20260303
SEED_FUNCTIONAL = 20260304
SEED_DETERMINISM = 20260305


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str
    tolerance: str
    seconds: float
    detail: str = ""


def _as_generic(f) -> Generic:
    """The same function as a `Generic`, which takes the general route."""
    return Generic(fn=f.values, decreasing=f.decreasing,
                   bounded_away_from_origin=f.bounded_away_from_origin)


def _result(name: str, start: float, passed: bool, measured, expected,
            tolerance, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), measured=str(measured),
                       expected=str(expected), tolerance=str(tolerance),
                       seconds=time.perf_counter() - start, detail=detail)


# ---------------------------------------------------------------------------
# Analytic checks
# ---------------------------------------------------------------------------

def check_scale_oracles() -> CheckResult:
    """Inversion vs closed forms: x^{a-1}/Gamma(a) and 1 - e^{-x}."""
    start = time.perf_counter()
    xs = np.geomspace(0.1, 10.0, 50)

    def worst(model, exact):
        return np.max(abs(ScaleEvaluator(model, use_closed_form=False).scale_w(xs) - exact) / exact)

    worst_stable = max(worst(stable_power_model(a), xs ** (a - 1.0) / math.gamma(a))
                       for a in (1.2, 1.5, 1.8))
    worst_bm = worst(builtin_model("bmup"), -np.expm1(-xs))
    tol_s, tol_b = 1e-4, 1e-6
    passed = worst_stable <= tol_s and worst_bm <= tol_b
    return _result("scale_function_oracles", start, passed,
                   f"stable rel {worst_stable:.2e}, bmup rel {worst_bm:.2e}",
                   "closed forms", f"{tol_s:.0e} / {tol_b:.0e}")


def check_laplace_identity() -> CheckResult:
    """psi(lam) * transform(W)(lam) = 1 across the shipped models."""
    start = time.perf_counter()
    tol = 1e-3
    worst, worst_at = 0.0, ""
    for name, model in example_models().items():
        ev = ScaleEvaluator(model)
        phi0 = ev.phi0
        for shift in (1.0, 2.0, 5.0):
            res = laplace_identity_residual(ev, phi0 + shift)
            if res > worst:
                worst, worst_at = res, f"{name}@lam={phi0 + shift:.3g}"
    return _result("laplace_transform_identity", start, worst <= tol,
                   f"max residual {worst:.2e} ({worst_at})", "0", f"{tol:.0e}")


def check_classification_table() -> CheckResult:
    """Decisive extinction/extinguishing/explosion calls on benchmark models."""
    start = time.perf_counter()
    failures = []
    s15 = builtin_model("stable15")
    for theta, want in [(0.5, "converges"), (1.0, "converges"), (1.4, "converges"),
                        (1.5, "diverges"), (2.0, "diverges")]:
        got = extinction_test(s15, PowerLaw(theta)).verdict
        if got != want:
            failures.append(f"stable15 theta={theta}: {got} != {want}")
    bmdrift = builtin_model("bmdrift")
    for theta, want in [(2.0, True), (1.0, False)]:
        rep = classify_boundary(bmdrift, PowerLaw(theta), 1.0)
        if rep.explosion_possible is not want:
            failures.append(f"bmdrift theta={theta}: explosion {rep.explosion_possible}")
        if not rep.decisive:
            failures.append(f"bmdrift theta={theta}: not decisive")
    rep = classify_boundary(s15, PowerLaw(1.0), 1.0)
    if not (rep.hit_prob == 1.0 and rep.extinction_possible
            and rep.explosion_possible is False):
        failures.append("stable15 theta=1 classification")
    passed = not failures
    return _result("classification_table", start, passed,
                   "all verdicts decisive and correct" if not failures else "; ".join(failures),
                   "benchmark table", "exact verdicts")


def _check_convexity(model) -> Optional[str]:
    lams = np.geomspace(1e-2, 1e4, 25)
    psis = np.array([model.laplace_exponent(float(l)) for l in lams])
    for i in range(len(lams) - 2):
        l1, l2, l3 = lams[i:i + 3]
        p1, p2, p3 = psis[i:i + 3]
        interp = p1 + (p3 - p1) * (l2 - l1) / (l3 - l1)
        if not p2 < interp - 1e-12 * max(1.0, abs(p3)):
            return f"convexity fails at lam={l2:.3g}"
    return None


def check_property_sweeps() -> CheckResult:
    """Deterministic sweep of the module invariants (non-MC)."""
    start = time.perf_counter()
    failures = []
    models = example_models()

    for name, m in models.items():
        msg = _check_convexity(m)
        if msg:
            failures.append(f"{name}: {msg}")
        if not (m.laplace_exponent(1e6) > m.laplace_exponent(1e3) > 0.0):
            failures.append(f"{name}: psi growth")
        if m.laplace_exponent(0.0) != 0.0:
            failures.append(f"{name}: psi(0) != 0")
        quad_psi, psi = laplace_exponent_quadrature(m, 1.0), m.laplace_exponent(1.0)
        if abs(quad_psi - psi) > max(1e-7 * abs(psi), 1e-9):
            failures.append(f"{name}: psi(1) {psi:.10g} vs quadrature {quad_psi:.10g}")
        d0 = m.laplace_exponent_derivative(0.0)
        if (m.phi_zero().value > 0.0) != (d0 < 0.0):
            failures.append(f"{name}: phi0/psi'(0) inconsistency")
        for lam in np.geomspace(1e-3, 1e3, 13):
            h = 1e-5 * lam
            fd = (m.laplace_exponent(lam + h) - m.laplace_exponent(lam - h)) / (2 * h)
            d = m.laplace_exponent_derivative(float(lam))
            if abs(d - fd) > 1e-5 * max(1.0, abs(d)):
                failures.append(f"{name}: derivative mismatch at lam={lam:.3g}")
                break

        ev = ScaleEvaluator(m)
        xs = np.geomspace(0.01, 30.0, 40)
        ws = ev.scale_w(xs)
        if (ws <= 0.0).any():
            failures.append(f"{name}: W not positive")
        if (np.diff(ws) < -1e-9 * ws.max()).any():
            failures.append(f"{name}: W not monotone")
        if ev.scale_w(-0.5) != 0.0:
            failures.append(f"{name}: W(-0.5) != 0")
        # ratio well-defined only while 1/x stays clear of the zero of psi
        x_hi = min(1.0, 0.5 / m.phi_zero().value) if m.phi_zero().value > 0 else 1.0
        xs = np.geomspace(1e-4, x_hi, 25)
        ratios = ev.scale_w(xs) * xs * m.laplace_exponent_array(1.0 / xs)
        off = np.flatnonzero(~((1e-3 <= ratios) & (ratios <= 1e3)))
        if off.size:
            failures.append(f"{name}: W bound ratio {ratios[off[0]]:.3g} at x={xs[off[0]]:.3g}")
        for x in (0.2, 1.0, 3.0):
            for y in (0.05, 0.5, 1.0, 2.0, 5.0, 20.0):
                if ev.potential_density(x, y) < -1e-6 * ev.scale_w(y):
                    failures.append(f"{name}: negative potential density at ({x},{y})")
        got = ev.conditional_exp_functional(_as_generic(constant_functional()), 1.0, 1.0)
        want = conditional_exp_constant_closed_form(m, 1.0, 1.0)
        if abs(got - want) > 1e-3 * abs(want):
            failures.append(f"{name}: conditional-exp closed form mismatch")

    # verdict scaling invariance (engine route) and theta monotonicity
    s15 = builtin_model("stable15")
    bmdrift = builtin_model("bmdrift")
    for model, theta in [(s15, 0.7), (s15, 1.2), (bmdrift, 0.7), (bmdrift, 1.2)]:
        def wrap(k, t=theta):
            return Generic(fn=lambda z, kk=k, tt=t: kk * np.asarray(z, dtype=float) ** (-tt),
                           decreasing=True, bounded_away_from_origin=True)

        base = extinction_test(model, wrap(1.0)).verdict
        for kappa in (0.37, 11.0):
            if extinction_test(model, wrap(kappa)).verdict != base:
                failures.append(f"scaling invariance theta={theta} kappa={kappa}")
    for model, pairs in [(s15, [(0.5, 1.4)]), (bmdrift, [(0.5, 1.5), (1.0, 1.9)])]:
        for lo, hi in pairs:
            if extinction_test(model, PowerLaw(hi)).converges and \
               not extinction_test(model, PowerLaw(lo)).converges:
                failures.append(f"theta monotonicity {lo} vs {hi}")

    # finiteness equivalence: extinction verdict <-> conditional expectation
    # finite; the transform route decides finiteness by the extinction verdict
    # itself, so the inversion route (a Generic f) is the one compared
    cases = [(s15, 1.0), (s15, 1.5), (bmdrift, 1.0), (bmdrift, 2.0),
             (builtin_model("bmup"), 1.5), (builtin_model("cpexp"), 1.0),
             (builtin_model("cpexp"), 2.5)]
    for model, theta in cases:
        verdict = extinction_test(model, PowerLaw(theta))
        if verdict.verdict == "inconclusive":
            failures.append(f"inconclusive extinction theta={theta}")
            continue
        val = ScaleEvaluator(model).conditional_exp_functional(
            _as_generic(PowerLaw(theta)), 1.0, 1.0)
        if verdict.converges != math.isfinite(val):
            failures.append(
                f"(iii)<->(iv) mismatch theta={theta}: {verdict.verdict} vs {val}")

    # explosion routes agree where both apply: tail integral (Generic f) and
    # Laplace density at 0+
    for model in (bmdrift, builtin_model("cpexp")):
        for theta in (1.5, 2.0, 3.0):
            a = explosion_test(model, _as_generic(PowerLaw(theta))).verdict
            b = explosion_test(model, PowerLaw(theta)).verdict
            if a != b:
                failures.append(f"route disagreement theta={theta}: {a} vs {b}")

    passed = not failures
    return _result("property_sweeps", start, passed,
                   "all invariants hold" if not failures else "; ".join(failures[:4]),
                   "module invariants", "as stated per invariant")


def check_expectation_routes() -> CheckResult:
    """Transform route vs inversion route of the two expectation formulas.

    The inversion route is named by passing f as a `Generic`.  Closed forms
    are off, so the inversion route inverts W by Talbot at the nodes of the
    verdict engine's K15 panels.  The two routes agree to about 2e-10 on
    condexp, and on occupation to 1.3e-12 on the first three occupation
    models, 2.4e-10 on stable1.5_phi0 and 6.8e-9 on tempered0.6_phi0, far
    inside the tolerances.
    """
    start = time.perf_counter()
    tempered = validate(-0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))
    tempered_down = validate(0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))
    # Phi(0) = 2.86 and 20.7: their tilted transforms have a branch point at -Phi(0)
    stable_up = validate(-1.0, 0.0, StablePositive(alpha=1.5, scale=0.5))
    tempered_up = validate(-1.0, 0.0, TemperedStable(alpha=0.6, scale=1.0, tempering=1.0))
    cases = [("condexp", "cpexp", builtin_model("cpexp"), (0.5, 1.0)),
             ("condexp", "stable15", builtin_model("stable15"), (0.5, 1.0)),
             ("condexp", "tempered", tempered, (0.5, 1.0)),
             ("occupation", "cpexp", builtin_model("cpexp"), (1.5, 2.5)),
             ("occupation", "bmdrift", builtin_model("bmdrift"), (1.5, 2.5)),
             ("occupation", "tempered_phi0_zero", tempered_down, (1.5, 2.5)),
             ("occupation", "stable1.5_phi0", stable_up, (1.5, 2.5)),
             ("occupation", "tempered0.6_phi0", tempered_up, (1.5, 2.5))]
    tols = {"condexp": 1e-5, "occupation": 1e-3}
    worst = {"condexp": (0.0, ""), "occupation": (0.0, "")}
    for kind, name, model, thetas in cases:
        ev = ScaleEvaluator(model, use_closed_form=False)
        for theta in thetas:
            f = PowerLaw(theta)
            if kind == "condexp":
                a = ev.conditional_exp_functional(f, 1.0, 1.0)
                b = ev.conditional_exp_functional(_as_generic(f), 1.0, 1.0)
            else:
                a = ev.occupation_expectation(f, 1.0, 0.2)
                b = ev.occupation_expectation(_as_generic(f), 1.0, 0.2)
            rel = abs(a - b) / abs(a) if math.isfinite(a) and math.isfinite(b) else math.inf
            if rel >= worst[kind][0]:
                worst[kind] = (rel, f"{name}@theta={theta}")
    passed = all(worst[k][0] <= tols[k] for k in tols)
    return _result("expectation_routes_agree", start, passed,
                   f"condexp rel {worst['condexp'][0]:.2e} ({worst['condexp'][1]}), "
                   f"occupation rel {worst['occupation'][0]:.2e} ({worst['occupation'][1]})",
                   "transform = inversion",
                   f"{tols['condexp']:.0e} / {tols['occupation']:.0e}")


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

def check_mc_determinism() -> CheckResult:
    """Same seed, different worker counts: bit-identical summaries."""
    start = time.perf_counter()
    model = builtin_model("bmdrift")
    cfg = PathConfig(dt=5e-3, horizon=20.0, barrier=15.0, seed=SEED_DETERMINISM)
    runs = [mc_estimate(model, 1.0, None, HitProb(), 150, cfg, workers=w)
            for w in (1, 3, 1)]
    same = (runs[0].estimate == runs[1].estimate == runs[2].estimate
            and runs[0].stderr == runs[1].stderr == runs[2].stderr
            and runs[0].censored_fraction == runs[1].censored_fraction)
    passed = same
    return _result("mc_worker_determinism", start, passed,
                   f"estimates {[r.estimate for r in runs]}", "identical across workers",
                   "bitwise")


def check_hitprob_mc(n: int = 20000) -> CheckResult:
    """Hitting probability of 0 vs e^{-Phi(0)x} for psi = lam^2 - lam."""
    start = time.perf_counter()
    model = builtin_model("bmdrift")
    cfg = PathConfig(dt=1e-3, horizon=80.0, barrier=30.0, seed=SEED_HITPROB)
    summary = mc_estimate(model, 1.0, None, HitProb(), n, cfg, workers=4)
    target = math.exp(-1.0)
    tol = 3.0 * summary.stderr + 0.01
    err = abs(summary.estimate - target)
    return _result("hitting_probability_mc", start, err <= tol,
                   f"{summary.estimate:.4f} (se {summary.stderr:.4f})",
                   f"{target:.4f}", f"3se+0.01 = {tol:.4f}",
                   detail=f"censored {summary.censored_fraction:.4f}")


def check_conditional_exp(n: int = 9000) -> CheckResult:
    """E_1[int e^{-Z} dt | hit] for driftless Brownian: MC and quadrature vs closed form."""
    start = time.perf_counter()
    model = validate(0.0, 1.0, NoJumps())
    target = conditional_exp_constant_closed_form(model, 1.0, 1.0)  # 1 - e^{-1}

    quad_val = ScaleEvaluator(model).conditional_exp_functional(
        _as_generic(constant_functional()), 1.0, 1.0)
    quad_ok = abs(quad_val - target) <= 1e-3 * target

    cfg = PathConfig(dt=5e-4, horizon=2000.0, barrier=300.0, seed=SEED_CONDEXP)
    summary = mc_estimate(model, 1.0, constant_functional(),
                          CondExpFunctional(lam=1.0), n, cfg, workers=4)
    tol = 3.0 * summary.stderr + 0.01
    mc_ok = abs(summary.estimate - target) <= tol
    return _result("conditional_exp_functional", start, quad_ok and mc_ok,
                   f"mc {summary.estimate:.4f} (se {summary.stderr:.4f}), quad {quad_val:.6f}",
                   f"{target:.6f}", f"mc 3se+0.01 = {tol:.4f}; quad rel 1e-3",
                   detail=f"censored {summary.censored_fraction:.4f}")


def check_occupation(n: int = 20000) -> CheckResult:
    """Mean passage time from 1 to 0.01 for psi = lam^2 + lam, three ways."""
    start = time.perf_counter()
    model = builtin_model("bmup")
    x, y = 1.0, 0.01
    # oracle: the integral over z > 0 of the scale difference W(z) - W(z-d),
    # W = 1 - e^{-z}, is d/psi'(0+) = d
    oracle = (x - y) / model.laplace_exponent_derivative(0.0)

    ev = ScaleEvaluator(model)
    quad_val = ev.occupation_expectation(constant_functional(), x, y)
    quad_ok = abs(quad_val - oracle) <= 0.02 * oracle

    cfg = PathConfig(dt=2e-4, horizon=100.0, barrier=50.0, seed=SEED_OCCUPATION)
    summary = mc_estimate(model, x, constant_functional(), MeanPassage(y=y), n,
                          cfg, workers=4)
    mc_ok = abs(summary.estimate - quad_val) <= 0.05 * quad_val
    return _result("occupation_formula", start, quad_ok and mc_ok,
                   f"quad {quad_val:.4f}, mc {summary.estimate:.4f} (se {summary.stderr:.4f})",
                   f"oracle {oracle:.4f}", "quad rel 2%; mc vs quad rel 5%")


def check_functional_corroboration() -> CheckResult:
    """Time-changed boundary clocks for the critical stable model.

    At theta = 1.0 (< alpha) at least 99% of hitting paths must report a
    finite extinction clock; at theta = 1.6 (> alpha) the median truncated
    functional must keep growing as the horizon doubles.
    """
    start = time.perf_counter()
    model = builtin_model("stable15")

    cfg = PathConfig(dt=1e-3, horizon=50.0, barrier=1e6, seed=SEED_FUNCTIONAL)
    n_hit = n_finite = 0
    for i in range(5000):
        path = sample_path(model, 1.0, cfg, i)
        if path.status != "hit_zero":
            continue
        n_hit += 1
        fs = functional_along_path(path, PowerLaw(1.0))
        if math.isfinite(fs.A_final):
            n_finite += 1
    finite_frac = n_finite / max(n_hit, 1)
    part_a = finite_frac >= 0.99 and n_hit >= 4000

    horizons = [0.05, 0.1, 0.2, 0.4]
    cfg2 = PathConfig(dt=1e-3, horizon=horizons[-1], barrier=1e6,
                      seed=SEED_FUNCTIONAL + 1)
    per_horizon = [[] for _ in horizons]
    for i in range(1200):
        path = sample_path(model, 1.0, cfg2, i)
        fs = functional_along_path(path, PowerLaw(1.6))
        for j, h in enumerate(horizons):
            idx = min(int(round(h / cfg2.dt)), len(fs.A) - 1)
            per_horizon[j].append(fs.A[idx])
    medians = [float(np.median(v)) for v in per_horizon]
    part_b = all(b > a for a, b in zip(medians, medians[1:]))

    passed = part_a and part_b
    return _result("functional_finiteness_mc", start, passed,
                   f"finite clock on {finite_frac:.4f} of {n_hit} hits; medians {['%.3g' % m for m in medians]}",
                   ">= 0.99 finite; strictly growing medians", "as stated",
                   detail="truncated functional medians at doubling horizons")


ANALYTIC_CHECKS: list[Callable[[], CheckResult]] = [
    check_scale_oracles,
    check_laplace_identity,
    check_classification_table,
    check_property_sweeps,
    check_expectation_routes,
]

MC_CHECKS: list[Callable[[], CheckResult]] = [
    check_mc_determinism,
    check_hitprob_mc,
    check_conditional_exp,
    check_occupation,
    check_functional_corroboration,
]


def run_suite(suite: str = "all",
              report: Optional[Callable[[CheckResult], None]] = None) -> list[CheckResult]:
    """Run the requested check suite; `report` is called after each check."""
    if suite == "analytic":
        checks = list(ANALYTIC_CHECKS)
    elif suite in ("montecarlo", "mc"):
        checks = list(MC_CHECKS)
    elif suite == "all":
        checks = list(ANALYTIC_CHECKS) + list(MC_CHECKS)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for check in checks:
        start = time.perf_counter()
        try:
            res = check()
        except Exception as exc:  # a crashing check is a failing check
            res = _result(check.__name__.removeprefix("check_"), start, False,
                          f"{type(exc).__name__}: {exc}", "no exception", "-")
        results.append(res)
        if report is not None:
            report(res)
    return results
