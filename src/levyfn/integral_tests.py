"""Numeric convergence verdicts for one-sided improper integrals, and the
extinction / extinguishing / explosion classification they imply.

The engine integrates over geometrically doubling (or halving) panels and
reads the convergence class off the decay of the panel increments: geometric
decay certifies convergence with a summable tail estimate, non-decaying
increments certify divergence (this catches log-divergent integrands that a
plain Cauchy criterion misses), and the gap in between is reported honestly
as inconclusive.

The kind of the functional f alone picks the formula each test uses.  Every
kind owns `value(x)` in plain float arithmetic (one call per quadrature
node), `values(arr)` on numpy arrays, the flags `decreasing` and
`bounded_away_from_origin`, `laplace_density()`, `power` and `constant`.
Wrapping any f as a `Generic` names the general (reference) route.
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

class _Functional:
    """Contract defaults: decreasing and bounded f, no power, constant or g."""

    decreasing = True
    bounded_away_from_origin = True
    power = None
    constant = None

    def laplace_density(self) -> Optional[Callable[[float], float]]:
        """The density g with f(x) = integral exp(-x*z) g(z) dz, when known."""
        return None


@dataclass(frozen=True)
class PowerLaw(_Functional):
    """f(x) = x**(-theta) with theta > 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be > 0")

    @property
    def power(self) -> float:
        return self.theta

    def value(self, x: float) -> float:
        return x ** (-self.theta)

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) ** (-self.theta)

    def laplace_density(self) -> Callable[[float], float]:
        """g(z) = z**(theta-1) / Gamma(theta)."""
        theta = self.theta
        norm = math.gamma(theta)
        return lambda z: z ** (theta - 1.0) / norm


@dataclass(frozen=True)
class LaplaceRep(_Functional):
    """f(x) = integral_0^inf exp(-x*z) g(z) dz for a nonnegative density g.

    Such an f is completely monotone, hence strictly decreasing and bounded
    on [eps, inf) for every eps > 0.
    """

    g: Callable[[float], float]

    def value(self, x: float) -> float:
        val, _ = quad(lambda z: math.exp(-x * z) * self.g(z), 0.0, math.inf, limit=200)
        return val

    def values(self, x: np.ndarray) -> np.ndarray:
        vals = [self.value(float(xi)) for xi in np.asarray(x).ravel()]
        return np.array(vals).reshape(np.shape(x))

    def laplace_density(self) -> Callable[[float], float]:
        return self.g


@dataclass(frozen=True)
class Constant(_Functional):
    """f identically equal to c > 0."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("constant must be > 0")

    @property
    def constant(self) -> float:
        return self.c

    def value(self, x: float) -> float:
        return self.c

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self.c, dtype=float)


@dataclass(frozen=True)
class Generic(_Functional):
    """Pointwise evaluator with explicit shape flags.

    `fn` must accept floats and numpy arrays.  The flags gate which
    classification tests apply: `decreasing` for the explosion test,
    `bounded_away_from_origin` (sup of f on [eps, inf) finite for every
    eps > 0) for the extinction test.  Nothing else is known about f, so
    every formula takes its general route.
    """

    fn: Callable
    decreasing: bool = False
    bounded_away_from_origin: bool = False

    def value(self, x: float) -> float:
        return float(self.fn(x))

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


FunctionalSpec = PowerLaw | LaplaceRep | Constant | Generic


def constant_functional(value: float = 1.0) -> Constant:
    """f identically equal to `value` (> 0)."""
    return Constant(value)


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
                              endpoint: AtInfinity | AtZeroPlus) -> TestVerdict:
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
    for k in range(DOUBLINGS):
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
    diag = {"panels": len(mags), "partial": total, "increments": mags[-(WINDOW + 1):],
            "max_rel_abserr": max_rel_abserr, "quad_warnings": quad_warnings}

    if negligible >= 3 or all(m == 0.0 for m in mags[-WINDOW:]):
        diag["reason"] = "tail negligible"
        return TestVerdict(CONVERGES, total, diag)

    if len(mags) < WINDOW + 1:
        return TestVerdict(INCONCLUSIVE, None, diag)

    ratios = []
    for a, b in zip(mags[-(WINDOW + 1):-1], mags[-WINDOW:]):
        ratios.append(b / a if a > 0.0 else math.inf)
    diag["ratios"] = ratios
    geo = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
    # local exponent: integrand ~ t**p at inf gives ratio 2**(p+1);
    # ~ t**(-q) at 0+ gives ratio 2**(q-1)
    diag["fitted_exponent"] = math.log2(geo) - 1.0 if at_inf else -(math.log2(geo) + 1.0)

    if all(r <= CONVERGE_RATIO for r in ratios):
        rho = ratios[-1]
        tail = mags[-1] * rho / (1.0 - rho)
        diag["tail_estimate"] = tail
        return TestVerdict(CONVERGES, total + sign * tail, diag)
    if all(r >= 2.0 ** (-DIVERGE_MARGIN) for r in ratios):
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
    if not f.bounded_away_from_origin:
        raise PreconditionViolatedError(
            "extinction test needs f bounded on [eps, inf) for every eps > 0")
    phi0 = model.phi_zero().value
    start = max(1.0, 2.0 * phi0)

    theta = f.power
    closed = model.jumps.closed_form(model) if theta is not None else None
    if closed is not None and closed.power is not None:
        kappa, p = closed.power
        diag = {"route": "analytic_power", "kappa": kappa, "power": p, "start": start}
        if theta < p:
            value = start ** (theta - p) / (kappa * (p - theta))
            return TestVerdict(CONVERGES, value, diag)
        return TestVerdict(DIVERGES, math.inf, diag)

    def integrand(lam: float) -> float:
        return f.value(1.0 / lam) / (lam * model.laplace_exponent(lam))

    verdict = improper_integral_verdict(integrand, AtInfinity(start))
    verdict.diagnostics["route"] = "doubling_panels"
    verdict.diagnostics["start"] = start
    return verdict


def explosion_test(model: LevyModel, f: FunctionalSpec) -> TestVerdict:
    """Finiteness of the all-time functional on surviving paths.

    Requires Phi(0) > 0 (NotApplicableError otherwise) and decreasing f.
    The kind of f picks the route:

    * ``laplace_zero`` -- when f has a known Laplace density g, test
      integral_{0+} g(lam)/psi(lam) d lam > -inf (psi < 0 below Phi(0), so
      the integrand is negative and divergence means -inf); this needs no
      moment assumption;
    * ``tail_integral`` -- otherwise, when psi'(0+) is finite, test
      integral^inf f(y) dy < inf.

    When neither applies the verdict is inconclusive.
    """
    phi0 = model.phi_zero().value
    if phi0 <= 0.0:
        raise NotApplicableError("Phi(0) = 0: survival has probability zero")
    if not f.decreasing:
        raise PreconditionViolatedError("explosion test needs decreasing f")

    g = f.laplace_density()
    if g is not None:
        def integrand(lam: float) -> float:
            return g(lam) / model.laplace_exponent(lam)

        verdict = improper_integral_verdict(integrand, AtZeroPlus(phi0 / 2.0))
        verdict.diagnostics["route"] = "laplace_zero"
        return verdict

    if math.isfinite(model.laplace_exponent_derivative(0.0)):
        verdict = improper_integral_verdict(f.value, AtInfinity(1.0))
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
