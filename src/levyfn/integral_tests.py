"""Numeric convergence verdicts for one-sided improper integrals, and the
extinction / extinguishing / explosion classification they imply.

The engine integrates over geometrically doubling (or halving) panels and
reads the convergence class off the decay of the panel increments: geometric
decay certifies convergence with a summable tail estimate, non-decaying
increments certify divergence (this catches log-divergent integrands that a
plain Cauchy criterion misses), and the gap in between is reported honestly
as inconclusive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (
    NonPositiveStartError,
    NotApplicableError,
    PreconditionViolatedError,
    SignChangeError,
)
from .levy_model import LevyModel

# Verdict heuristics: geometric-decay ratio for "converges", ratio margin
# 2**(-DIVERGE_MARGIN) for "diverges", judged over the last WINDOW doublings.
DOUBLINGS = 40
WINDOW = 5
CONVERGE_RATIO = 0.9
DIVERGE_MARGIN = 0.05
NEGLIGIBLE_REL = 1e-15

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Functionals f on (0, inf)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLaw:
    """f(x) = x**(-theta) with theta > 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be > 0")


@dataclass(frozen=True)
class LaplaceRep:
    """f(x) = integral_0^inf exp(-x*z) g(z) dz for a nonnegative density g.

    Such an f is completely monotone, hence strictly decreasing and bounded
    on [eps, inf) for every eps > 0.
    """

    g: Callable[[float], float]


@dataclass(frozen=True)
class Generic:
    """Pointwise evaluator with explicit shape flags.

    `fn` must accept floats and numpy arrays.  The flags gate which
    classification tests apply: `decreasing` for the explosion test,
    `bounded_away_from_origin` (sup of f on [eps, inf) finite for every
    eps > 0) for the extinction test.
    """

    fn: Callable
    decreasing: bool = False
    bounded_away_from_origin: bool = False


FunctionalSpec = PowerLaw | LaplaceRep | Generic


@dataclass(frozen=True)
class _Constant:
    """The `fn` of :func:`constant_functional`; it carries its value, so the
    expectation formulas can recognise a constant f."""

    value: float

    def __call__(self, x):
        return self.value * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else self.value


def constant_functional(value: float = 1.0) -> Generic:
    """f identically equal to `value` (> 0)."""
    if value <= 0:
        raise ValueError("constant must be > 0")
    return Generic(fn=_Constant(value), decreasing=True, bounded_away_from_origin=True)


def constant_value(f: FunctionalSpec) -> Optional[float]:
    """The value of f when it was built by :func:`constant_functional`."""
    if isinstance(f, Generic) and isinstance(f.fn, _Constant):
        return f.fn.value
    return None


def f_eval(f: FunctionalSpec, x: float) -> float:
    if isinstance(f, PowerLaw):
        return x ** (-f.theta)
    if isinstance(f, Generic):
        return float(f.fn(x))
    val, _ = quad(lambda z: math.exp(-x * z) * f.g(z), 0.0, math.inf, limit=200)
    return val


def f_eval_array(f: FunctionalSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(f, PowerLaw):
        return np.asarray(x, dtype=float) ** (-f.theta)
    if isinstance(f, Generic):
        return np.asarray(f.fn(np.asarray(x, dtype=float)), dtype=float)
    return np.array([f_eval(f, float(xi)) for xi in np.asarray(x).ravel()]).reshape(np.shape(x))


def is_decreasing(f: FunctionalSpec) -> bool:
    return isinstance(f, (PowerLaw, LaplaceRep)) or f.decreasing


def bounded_away_from_origin(f: FunctionalSpec) -> bool:
    return isinstance(f, (PowerLaw, LaplaceRep)) or f.bounded_away_from_origin


def laplace_density(f: FunctionalSpec) -> Optional[Callable[[float], float]]:
    """The density g with f(x) = integral exp(-x*z) g(z) dz, when known.

    For f(x) = x**(-theta) this is g(z) = z**(theta-1) / Gamma(theta).
    """
    if isinstance(f, PowerLaw):
        theta = f.theta
        norm = math.gamma(theta)
        return lambda z: z ** (theta - 1.0) / norm
    if isinstance(f, LaplaceRep):
        return f.g
    return None


# ---------------------------------------------------------------------------
# Improper-integral verdict engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtInfinity:
    """Test the endpoint +inf, integrating from `start` outward."""

    start: float


@dataclass(frozen=True)
class AtZeroPlus:
    """Test the endpoint 0+, integrating from `stop` inward."""

    stop: float


@dataclass
class TestVerdict:
    verdict: str                      # converges | diverges | inconclusive
    value: Optional[float]            # finite value, +-inf, or None
    diagnostics: dict = field(default_factory=dict)

    @property
    def converges(self) -> bool:
        return self.verdict == CONVERGES

    @property
    def diverges(self) -> bool:
        return self.verdict == DIVERGES


def _panel(integrand, lo, hi) -> tuple[float, float, int]:
    """quad over [lo, hi]: value, error estimate and IntegrationWarning count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, abserr = quad(integrand, lo, hi, limit=200, epsabs=1e-300, epsrel=1e-10)
    return val, abserr, sum(issubclass(w.category, IntegrationWarning) for w in caught)


def improper_integral_verdict(integrand: Callable[[float], float],
                              endpoint: AtInfinity | AtZeroPlus,
                              *,
                              doublings: int = DOUBLINGS,
                              window: int = WINDOW,
                              converge_ratio: float = CONVERGE_RATIO,
                              diverge_margin: float = DIVERGE_MARGIN) -> TestVerdict:
    """Classify the improper integral of `integrand` at one endpoint.

    The integrand must have constant sign near the tested endpoint
    (SignChangeError otherwise).  On convergence the returned value includes
    a geometric tail estimate; on divergence it is +-inf by the integrand's
    sign near the endpoint.
    """
    at_inf = isinstance(endpoint, AtInfinity)
    base = endpoint.start if at_inf else endpoint.stop
    if base <= 0:
        raise ValueError("panel base must be > 0")

    increments: list[float] = []
    probes: list[float] = []
    total = 0.0
    negligible = 0
    max_rel_abserr = 0.0
    quad_warnings = 0
    for k in range(doublings):
        if at_inf:
            lo, hi = base * 2.0**k, base * 2.0 ** (k + 1)
        else:
            lo, hi = base * 2.0 ** (-k - 1), base * 2.0 ** (-k)
        probes.append(integrand(math.sqrt(lo * hi)))
        inc, abserr, n_warn = _panel(integrand, lo, hi)
        max_rel_abserr = max(max_rel_abserr, abserr / max(abs(inc), 1e-300))
        quad_warnings += n_warn
        increments.append(inc)
        total += inc
        if abs(inc) <= NEGLIGIBLE_REL * (abs(total) + 1e-300):
            negligible += 1
            if negligible >= 3:
                break
        else:
            negligible = 0

    pmax = max(abs(p) for p in probes)
    if pmax > 0.0:
        signs = {math.copysign(1.0, p) for p in probes if abs(p) > 1e-9 * pmax}
        if len(signs) > 1:
            raise SignChangeError("integrand changes sign in the probed region")
    sign = math.copysign(1.0, total) if total != 0.0 else 1.0

    mags = [abs(v) for v in increments]
    diag = {"panels": len(mags), "partial": total, "increments": mags[-(window + 1):],
            "max_rel_abserr": max_rel_abserr, "quad_warnings": quad_warnings}

    if negligible >= 3 or all(m == 0.0 for m in mags[-window:]):
        diag["reason"] = "tail negligible"
        return TestVerdict(CONVERGES, total, diag)

    if len(mags) < window + 1:
        return TestVerdict(INCONCLUSIVE, None, diag)

    ratios = []
    for a, b in zip(mags[-(window + 1):-1], mags[-window:]):
        ratios.append(b / a if a > 0.0 else math.inf)
    diag["ratios"] = ratios
    geo = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
    # local exponent: integrand ~ t**p at inf gives ratio 2**(p+1);
    # ~ t**(-q) at 0+ gives ratio 2**(q-1)
    diag["fitted_exponent"] = math.log2(geo) - 1.0 if at_inf else -(math.log2(geo) + 1.0)

    if all(r <= converge_ratio for r in ratios):
        rho = ratios[-1]
        tail = mags[-1] * rho / (1.0 - rho)
        diag["tail_estimate"] = tail
        return TestVerdict(CONVERGES, total + sign * tail, diag)
    if all(r >= 2.0 ** (-diverge_margin) for r in ratios):
        return TestVerdict(DIVERGES, sign * math.inf, diag)
    return TestVerdict(INCONCLUSIVE, None, diag)


# ---------------------------------------------------------------------------
# Extinction / explosion tests
# ---------------------------------------------------------------------------

def extinction_test(model: LevyModel, f: FunctionalSpec) -> TestVerdict:
    """Finiteness of the accumulated functional on paths that hit 0.

    Converges  <=>  integral^inf f(1/lam) / (lam * psi(lam)) d lam < inf
    <=> the time-changed process dies out in finite time (given it hits 0);
    Diverges <=> it only extinguishes (approaches 0 without reaching it).
    """
    if not bounded_away_from_origin(f):
        raise PreconditionViolatedError(
            "extinction test needs f bounded on [eps, inf) for every eps > 0")
    phi0 = model.phi_zero().value
    start = max(1.0, 2.0 * phi0)

    closed = model.jumps.closed_form(model) if isinstance(f, PowerLaw) else None
    if closed is not None and closed.power is not None:
        kappa, p = closed.power
        theta = f.theta
        diag = {"route": "analytic_power", "kappa": kappa, "power": p, "start": start}
        if theta < p:
            value = start ** (theta - p) / (kappa * (p - theta))
            return TestVerdict(CONVERGES, value, diag)
        return TestVerdict(DIVERGES, math.inf, diag)

    def integrand(lam: float) -> float:
        return f_eval(f, 1.0 / lam) / (lam * model.laplace_exponent(lam))

    verdict = improper_integral_verdict(integrand, AtInfinity(start))
    verdict.diagnostics["route"] = "doubling_panels"
    verdict.diagnostics["start"] = start
    return verdict


def explosion_test(model: LevyModel, f: FunctionalSpec, *, route: str = "auto") -> TestVerdict:
    """Finiteness of the all-time functional on surviving paths.

    Requires Phi(0) > 0 (NotApplicableError otherwise) and decreasing f.
    Two routes decide it:

    * ``laplace_zero`` -- when f has a known Laplace density g, test
      integral_{0+} g(lam)/psi(lam) d lam > -inf (psi < 0 below Phi(0), so
      the integrand is negative and divergence means -inf);
    * ``tail_integral`` -- when psi'(0+) is finite, test
      integral^inf f(y) dy < inf.

    ``auto`` prefers the Laplace route (no moment assumption), falling back
    to the tail route, and returns an inconclusive verdict when neither
    applies.
    """
    if route not in ("auto", "laplace_zero", "tail_integral"):
        raise ValueError(f"unknown route {route!r}")
    phi0 = model.phi_zero().value
    if phi0 <= 0.0:
        raise NotApplicableError("Phi(0) = 0: survival has probability zero")
    if not is_decreasing(f):
        raise PreconditionViolatedError("explosion test needs decreasing f")

    g = laplace_density(f)
    d0 = model.laplace_exponent_derivative(0.0)

    if route == "laplace_zero" or (route == "auto" and g is not None):
        if g is None:
            raise PreconditionViolatedError("no Laplace density available for f")

        def integrand(lam: float) -> float:
            return g(lam) / model.laplace_exponent(lam)

        verdict = improper_integral_verdict(integrand, AtZeroPlus(phi0 / 2.0))
        verdict.diagnostics["route"] = "laplace_zero"
        return verdict

    if route == "tail_integral" or math.isfinite(d0):
        if not math.isfinite(d0):
            raise PreconditionViolatedError("tail-integral route needs psi'(0+) finite")
        verdict = improper_integral_verdict(lambda y: f_eval(f, y), AtInfinity(1.0))
        verdict.diagnostics["route"] = "tail_integral"
        return verdict

    return TestVerdict(INCONCLUSIVE, None,
                       {"route": "none", "reason": "psi'(0+) infinite and no Laplace density"})


# ---------------------------------------------------------------------------
# Boundary classification
# ---------------------------------------------------------------------------

@dataclass
class BoundaryReport:
    """Combined boundary behavior of the time-changed process started at x.

    The three `*_possible` fields are True/False when the underlying verdict
    is decisive and None when it is inconclusive (never a guess).  On the
    hitting event (probability `hit_prob`), extinction and extinguishing are
    complementary; explosion concerns the surviving event and requires
    Phi(0) > 0.
    """

    extinction_possible: Optional[bool]
    extinguishing_possible: Optional[bool]
    explosion_possible: Optional[bool]
    hit_prob: float
    survival_prob: float
    extinction_verdict: TestVerdict
    explosion_verdict: Optional[TestVerdict]

    @property
    def decisive(self) -> bool:
        return None not in (self.extinction_possible, self.extinguishing_possible,
                            self.explosion_possible)

    def to_dict(self) -> dict:
        def verdict_dict(v):
            if v is None:
                return None
            val = v.value
            if val is not None and not math.isfinite(val):
                val = str(val)
            return {"verdict": v.verdict, "value": val,
                    "route": v.diagnostics.get("route"),
                    "fitted_exponent": v.diagnostics.get("fitted_exponent")}

        return {
            "extinction_possible": self.extinction_possible,
            "extinguishing_possible": self.extinguishing_possible,
            "explosion_possible": self.explosion_possible,
            "hit_prob": self.hit_prob,
            "survival_prob": self.survival_prob,
            "extinction_verdict": verdict_dict(self.extinction_verdict),
            "explosion_verdict": verdict_dict(self.explosion_verdict),
        }


def classify_boundary(model: LevyModel, f: FunctionalSpec, x: float) -> BoundaryReport:
    """Classify extinction / extinguishing / explosion for the process started at x."""
    if x <= 0:
        raise NonPositiveStartError("x must be > 0")
    hit = model.hit_probability(x)
    ext = extinction_test(model, f)
    if ext.converges:
        extinction, extinguishing = True, False
    elif ext.diverges:
        extinction, extinguishing = False, True
    else:
        extinction = extinguishing = None

    phi0 = model.phi_zero().value
    if phi0 <= 0.0:
        explosion, expl_verdict = False, None
    else:
        expl_verdict = explosion_test(model, f)
        if expl_verdict.converges:
            explosion = True
        elif expl_verdict.diverges:
            explosion = False
        else:
            explosion = None

    return BoundaryReport(
        extinction_possible=extinction,
        extinguishing_possible=extinguishing,
        explosion_possible=explosion,
        hit_prob=hit,
        survival_prob=1.0 - hit,
        extinction_verdict=ext,
        explosion_verdict=expl_verdict,
    )
