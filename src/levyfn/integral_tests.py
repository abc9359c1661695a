"""Numeric convergence verdicts for one-sided improper integrals, and the
extinction / extinguishing / explosion classification they imply.

The engine integrates over geometrically doubling (or halving) panels and
reads the convergence class off the decay of the panel increments: geometric
decay certifies convergence with a summable tail estimate, non-decaying
increments certify divergence (this catches log-divergent integrands that a
plain Cauchy criterion misses), and the gap in between is reported honestly
as inconclusive.

The panels are the K15 sweep of :mod:`levyfn.quadrature`: DOUBLINGS panels
from the endpoint's base, each integrated by the 7-point Gauss / 15-point
Kronrod pair with QUADPACK's error estimate (qk15), and refined while a
panel before the early stop has an error estimate above the target the
verdict asks for.  A verdict asks for PANEL_EPSREL = 1e-10 by default, which
`scale_fn` takes for the head and tail verdicts whose values it sums.  The
extinction and explosion tests ask for VERDICT_RTOL = 1e-6, the level at
which `finite_integral` calls a value failed: qk15's estimate bounds the
7-point Gauss value, not the K15 value the verdict keeps, so it flags about
a quarter of their sweeps at 1e-10 where refining moves the kept sums by
about 1e-15 and changes no verdict.  Such a verdict is judged again at
1e-10 when its panel errors could move a window ratio across a ratio rule
(`_near_a_rule`), which it checks only when a panel error exceeds 1e-10.  A
panel still above the verdict's target is counted in its `quad_warnings`,
not raised; a non-finite value on a panel before the early stop raises
NumericalOverflowError, one beyond it is ignored.  The tests build their
integrands on arrays from `f.values`, `laplace_density()` and
`LevyModel.laplace_exponent_array`; one that takes only floats is called
point by point.

A `TestVerdict` is a frozen, slotted record with typed fields: the verdict,
value, route, start, panel count, flagged-panel count, the panel target
`rtol` it met and reason, an index verdict's `tail_error`, and the engine's
one float64 record of the sweep (the partial sum, the largest relative
error estimate and the magnitudes of the last WINDOW + 1 increments).  Its
`diagnostics` property builds the familiar dict on each read, with the
ratios, the fitted exponent, the margins to the two ratio rules and the
tail estimate derived from the increments.  A
`BoundaryReport` holds the hitting probability and its verdicts; its flags
and `survival_prob` are derived from them, and `to_dict` gives each
verdict's route, panels, `quad_warnings`, `rtol` and margins.

For f = PowerLaw(theta), psi's index decides both sides (route
`analytic_index`).  The extinction integrand is lam^(theta-1)/psi(lam)
with psi(lam) = lam^p L(lam) at infinity, p = `LevyModel.index_at_infinity`
and L slowly varying, so by Potter's bounds (Bingham, Goldie & Teugels,
*Regular Variation*, 1987, Thm 1.5.6) the integral converges exactly when
theta < p; it diverges at theta = p too, where L is a constant or, for
alpha = 1 with no Gaussian part, ~ log lam.  The Laplace explosion
integrand is lam^(theta-1)/(Gamma(theta) psi(lam)) with |psi(lam)| =
lam^p0 L(lam) at 0+, p0 = `LevyModel.index_at_zero` (1 where psi'(0+) is
finite, the stable alpha <= 1 otherwise), so it converges exactly when
theta > p0.  A divergent verdict takes no sweep.  A convergent one takes
its value from one sweep at VERDICT_RTOL plus the tail beyond it, whose
panel ratios tend to the known 2^(theta-p) per doubling at infinity
(2^(p0-theta) per halving at 0+): only the rate at which they approach it
is fitted (`_index_verdict`), and `tail_error` records how far that tail
is from the geometric one at the limit ratio.  Such a verdict reads no
sign probe and no ratio rule, and keeps no sweep record.  A pure-power psi
keeps its exact `analytic_power` value.  `Generic` and `LaplaceRep` f take
the engine, the reference route.

The kind of the functional f alone picks the formula each test uses.  Every
kind owns `values(x)`, f on a numpy array or on a float taken as a 0-d
array, which is how every caller evaluates f; the flags `decreasing` and
`bounded_away_from_origin`, `laplace_density()`, `power` and `constant`.
Wrapping any f as a `Generic` names the general (reference) route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    NonPositiveStartError,
    NotApplicableError,
    NumericalOverflowError,
    PreconditionViolatedError,
    SignChangeError,
)
from .levy_model import LevyModel
from .quadrature import (
    PANEL_EPSREL,
    TRANSFORM_FAIL_RTOL,
    WINDOW,
    AtInfinity,
    AtZeroPlus,
    _endpoint_rule,
    _extrapolated_tail,
    _laplace_rule,
    _on_arrays,
    _ratios,
    _sweep,
    _tail,
)

# Verdict heuristics: geometric-decay ratio for "converges", ratio margin
# 2**(-DIVERGE_MARGIN) for "diverges", judged over the last WINDOW doublings.
CONVERGE_RATIO = 0.9
DIVERGE_MARGIN = 0.05
# the panel target of the boundary verdicts (1e-6): the level at which
# `finite_integral` calls a value failed
VERDICT_RTOL = TRANSFORM_FAIL_RTOL
# the two ratio rules, as natural logarithms (see `_near_a_rule`)
_RULE_LOGS = (math.log(CONVERGE_RATIO), math.log(2.0 ** (-DIVERGE_MARGIN)))

# LaplaceRep's rule: the x range it is accurate on, and the x values that
# share one block of exp(-x t) (a 128 x 2160 float64 block is 2.2 MB)
_LAPLACE_X = (2.0**-48, 2.0**48)
_LAPLACE_ROWS = 128
# exp(-u) rounds to 0 in float64 for every u above this
_EXP_UFLOW = 746.0

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"
# the reason of a sweep stopped on a negligible tail; it reports no ratios
TAIL_NEGLIGIBLE = "tail negligible"


# ---------------------------------------------------------------------------
# Functionals f on (0, inf)
# ---------------------------------------------------------------------------

class _Functional:
    """Contract defaults: decreasing and bounded f, no power, constant or g."""

    decreasing = True
    bounded_away_from_origin = True
    power = None
    constant = None

    def laplace_density(self) -> Optional[Callable]:
        """The density g with f(x) = integral exp(-x*z) g(z) dz, when known.

        g takes a float and returns a float.  It should also take a float64
        array and return the array of its values: the verdict engine calls
        it on arrays first, and point by point only when that raises
        TypeError or ValueError.  `PowerLaw`'s g takes arrays; a
        `LaplaceRep` hands back the user's g as it is.
        """
        return None


@dataclass(frozen=True)
class PowerLaw(_Functional):
    """f(x) = x**(-theta) with theta > 0."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be finite and > 0")

    @property
    def power(self) -> float:
        return self.theta

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) ** (-self.theta)

    def laplace_density(self) -> Callable:
        """g(z) = z**(theta-1) / Gamma(theta), on floats and arrays."""
        theta = self.theta
        norm = math.gamma(theta)
        return lambda z: z ** (theta - 1.0) / norm


@dataclass(frozen=True)
class LaplaceRep(_Functional):
    """f(x) = integral_0^inf exp(-x*t) g(t) dt for a nonnegative density g.

    Such an f is completely monotone, hence strictly decreasing and bounded
    on [eps, inf) for every eps > 0.

    `values` takes one fixed rule for every x: K15 on the doubling panels
    [2^k, 2^(k+1)] of t, k = -88, ..., 55, with g evaluated once per call on
    the rule's 2160 nodes (one array call when g takes arrays, see
    `_on_arrays`); each block of x skips the nodes where e^(-xt) is 0 for
    all of its x, past xt = 746.  The piece on (0, 2^-88) is the geometric
    series of the first two panels of g, which is exact for g ~ t^(theta-1)
    at 0+.  The rule is accurate for x in [2^-48, 2^48]: there e^(-xt) is
    within 2^-40 of 1 below the first panel and below e^(-256) past the
    last, and it matches 1/(1+x), 1/(1+x)^2 and x^(-theta), theta in
    [0.05, 2.5], to 1e-14 relative.  An x outside that range raises
    PreconditionViolatedError.
    """

    g: Callable[[float], float]

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        inside = (flat >= _LAPLACE_X[0]) & (flat <= _LAPLACE_X[1])
        if not inside.all():
            raise PreconditionViolatedError(
                f"LaplaceRep is evaluated for x in [2^-48, 2^48], not at {flat[~inside][0]:g}")
        nodes, weights = _laplace_rule()
        gw = _on_arrays(self.g)(nodes) * weights
        # g alone on the first two panels: the ratio of the series below them
        first, second = gw[:15].sum(), gw[15:30].sum()
        rho = first / second if second > 0.0 else 0.0
        head = first * rho / (1.0 - rho) if rho < 1.0 else math.inf
        out = np.empty(len(flat))
        for s in range(0, len(flat), _LAPLACE_ROWS):
            block = flat[s:s + _LAPLACE_ROWS]
            # e^(-xt) is exactly 0 for every x of the block past this node
            cut = np.searchsorted(nodes, _EXP_UFLOW / block.min(), side="right")
            out[s:s + _LAPLACE_ROWS] = np.exp(-block[:, None] * nodes[:cut]) @ gw[:cut]
        return (out + head).reshape(x.shape)

    def laplace_density(self) -> Callable:
        return self.g


@dataclass(frozen=True)
class Constant(_Functional):
    """f identically equal to c > 0."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ValueError("constant must be finite and > 0")

    @property
    def constant(self) -> float:
        return self.c

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self.c, dtype=float)


@dataclass(frozen=True)
class Generic(_Functional):
    """Pointwise evaluator with explicit shape flags.

    `fn` should take float64 arrays; one that takes only floats is called
    point by point (see `_on_arrays`).  The flags gate which
    classification tests apply: `decreasing` for the explosion test,
    `bounded_away_from_origin` (sup of f on [eps, inf) finite for every
    eps > 0) for the extinction test.  Nothing else is known about f, so
    every formula takes its general route.
    """

    fn: Callable
    decreasing: bool = False
    bounded_away_from_origin: bool = False

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _on_arrays(self.fn)(x.ravel()).reshape(x.shape)


FunctionalSpec = PowerLaw | LaplaceRep | Constant | Generic


def constant_functional(value: float = 1.0) -> Constant:
    """f identically equal to `value` (> 0)."""
    return Constant(value)


# ---------------------------------------------------------------------------
# Improper-integral verdict engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class TestVerdict:
    """One verdict and the facts behind it, immutable once built.

    An engine sweep keeps its numbers in `sweep`, one float64 record
    stored as bytes: the partial sum, the largest relative error estimate
    and the magnitudes of the last WINDOW + 1 increments, which `partial`,
    `max_rel_abserr` and `increments` read back (None on routes without a
    sweep).  Callers may keep many reports of one or two verdicts each, and
    the record takes about 100 bytes where separate floats and an ndarray
    take about 250.  `diagnostics` derives the panel ratios, the fitted
    exponent, the tail estimate and the two margins from the increments on
    each read: `converge_margin` = CONVERGE_RATIO - max(ratios) and
    `diverge_margin` = min(ratios) - 2**(-DIVERGE_MARGIN), so a decisive
    verdict's own margin is >= 0 and an inconclusive one has both < 0.
    `rtol` is the panel target the sweep met (see
    `improper_integral_verdict`), and `quad_warnings` counts the kept panels
    whose error estimate is still above it.  A convergent `analytic_index`
    verdict sweeps but keeps no record; its `tail_error` estimates the error
    of its extrapolated tail (see `_index_verdict`).
    """

    verdict: str                      # converges | diverges | inconclusive
    value: Optional[float]            # finite value, +-inf, or None
    route: Optional[str] = None
    start: Optional[float] = None
    panels: int = 0
    quad_warnings: int = 0
    rtol: Optional[float] = None
    reason: Optional[str] = None
    kappa: Optional[float] = None
    power: Optional[float] = None
    at_infinity: bool = True
    sweep: Optional[bytes] = None
    tail_error: Optional[float] = None

    @property
    def converges(self) -> bool:
        return self.verdict == CONVERGES

    @property
    def diverges(self) -> bool:
        return self.verdict == DIVERGES

    def _record(self) -> Optional[np.ndarray]:
        return None if self.sweep is None else np.frombuffer(self.sweep)

    @property
    def partial(self) -> Optional[float]:
        rec = self._record()
        return None if rec is None else float(rec[0])

    @property
    def max_rel_abserr(self) -> Optional[float]:
        rec = self._record()
        return None if rec is None else float(rec[1])

    @property
    def increments(self) -> Optional[np.ndarray]:
        """Magnitudes of the last WINDOW + 1 increments, read-only."""
        rec = self._record()
        return None if rec is None else rec[2:]

    @property
    def diagnostics(self) -> dict:
        """The verdict's facts as a fresh dict (route, panels, ratios, ...)."""
        d: dict = {}
        if self.route is not None:
            d["route"] = self.route
        if self.kappa is not None:
            d["kappa"] = self.kappa
        if self.power is not None:
            d["power"] = self.power
        if self.start is not None:
            d["start"] = self.start
        if self.rtol is not None:
            d.update(panels=self.panels, quad_warnings=self.quad_warnings, rtol=self.rtol)
        if self.tail_error is not None:
            d["tail_error"] = self.tail_error
        rec = self._record()
        if rec is not None:
            mags = rec[2:]
            d.update(partial=float(rec[0]), increments=mags.tolist(),
                     max_rel_abserr=float(rec[1]))
            if self.reason != TAIL_NEGLIGIBLE and self.panels > WINDOW:
                ratios = _ratios(mags)
                d["ratios"] = ratios
                d["fitted_exponent"] = _fitted_exponent(ratios, self.at_infinity)
                d["converge_margin"] = CONVERGE_RATIO - max(ratios)
                d["diverge_margin"] = min(ratios) - 2.0 ** (-DIVERGE_MARGIN)
                if self.converges:
                    d["tail_estimate"] = _tail(mags, ratios)
        if self.reason is not None:
            d["reason"] = self.reason
        return d


def _fitted_exponent(ratios: list[float], at_infinity: bool) -> float:
    """Local exponent: integrand ~ t**p at inf gives ratio 2**(p+1);
    ~ t**(-q) at 0+ gives ratio 2**(q-1)."""
    geo = math.log2(float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300))))))
    return geo - 1.0 if at_infinity else -(geo + 1.0)


def improper_integral_verdict(integrand: Callable, endpoint: AtInfinity | AtZeroPlus, *,
                              route: Optional[str] = None,
                              start: Optional[float] = None,
                              rtol: float = PANEL_EPSREL) -> TestVerdict:
    """Classify the improper integral of `integrand` at one endpoint.

    The integrand is called on float64 arrays when it takes them (see
    `_on_arrays`), else point by point.  It must have constant sign near
    the tested endpoint (SignChangeError otherwise), and be finite on the
    panels before the early stop (NumericalOverflowError otherwise).  On
    convergence the returned value includes a geometric tail estimate; on
    divergence it is +-inf by the integrand's sign near the endpoint.
    `route` and `start` are recorded on the verdict as given.

    The panels are refined to `rtol` of their values (see `_sweep`), and
    `quad_warnings` counts those still above it.  A target looser than
    PANEL_EPSREL is kept only while the panel errors could not move a
    window ratio across a ratio rule (`_near_a_rule`); otherwise the
    verdict is judged again at PANEL_EPSREL, and records that target.
    """
    at_inf = isinstance(endpoint, AtInfinity)
    rule, base = _endpoint_rule(endpoint)
    values, errors, probes, (n, total, negligible) = _sweep(integrand, rule, base, rtol)
    values, errors, probes = values[:n], errors[:n], probes[:n]
    if not (np.isfinite(values).all() and np.isfinite(probes).all()):
        raise NumericalOverflowError("integrand is not finite on a kept panel")

    top, bottom = probes.max(), probes.min()
    small = 1e-9 * max(top, -bottom)
    if top > small and bottom < -small:
        raise SignChangeError("integrand changes sign in the probed region")
    sign = math.copysign(1.0, total) if total != 0.0 else 1.0

    mags = np.abs(values)
    rel = errors / np.maximum(mags, 1e-300)
    max_rel_abserr = rel.max()
    sweep = np.concatenate(([total, max_rel_abserr], mags[-(WINDOW + 1):])).tobytes()
    facts = {"route": route, "start": start, "panels": n,
             "quad_warnings": int((errors > rtol * mags).sum()), "rtol": rtol,
             "at_infinity": at_inf, "sweep": sweep}

    if negligible or not mags[-WINDOW:].any():
        return TestVerdict(CONVERGES, total, reason=TAIL_NEGLIGIBLE, **facts)
    if n < WINDOW + 1:
        return TestVerdict(INCONCLUSIVE, None, **facts)

    ratios = _ratios(mags)
    if max_rel_abserr > PANEL_EPSREL and rtol > PANEL_EPSREL and _near_a_rule(
            ratios, rel[-(WINDOW + 1):].tolist()):
        return improper_integral_verdict(integrand, endpoint, route=route, start=start)
    if all(r <= CONVERGE_RATIO for r in ratios):
        return TestVerdict(CONVERGES, total + sign * _tail(mags, ratios), **facts)
    if all(r >= 2.0 ** (-DIVERGE_MARGIN) for r in ratios):
        return TestVerdict(DIVERGES, sign * math.inf, **facts)
    return TestVerdict(INCONCLUSIVE, None, **facts)


def _near_a_rule(ratios: list[float], rel: list[float]) -> bool:
    """Whether the relative errors `rel` of the last WINDOW + 1 panels could
    move a ratio r of two of them across a ratio rule T:
    |log(r / T)| <= 2 (rel_i + rel_(i+1)) for T = CONVERGE_RATIO or
    2**(-DIVERGE_MARGIN).  A ratio of 0 or inf is far from both."""
    for r, a, b in zip(ratios, rel, rel[1:]):
        if 0.0 < r < math.inf:
            slack, log_r = 2.0 * (a + b), math.log(r)
            if abs(log_r - _RULE_LOGS[0]) <= slack or abs(log_r - _RULE_LOGS[1]) <= slack:
                return True
    return False


def _index_verdict(integrand: Callable, endpoint: AtInfinity | AtZeroPlus, rho: float,
                   power: float, start: Optional[float] = None) -> TestVerdict:
    """"converges" for a PowerLaw integral that psi's index `power` proves
    convergent at the endpoint (route `analytic_index`), with its value.

    The value is one `_sweep` at VERDICT_RTOL plus the tail beyond its last
    panel, whose ratios approach the known limit `rho` per doubling at the
    rate the last two panel ratios show (`_extrapolated_tail`).  `tail_error`
    records |that tail - the geometric tail at rho|; both are 0 when the
    sweep stopped on negligible increments.  No sign probe, ratio rule or
    sweep record is kept.  A non-finite kept panel raises
    NumericalOverflowError."""
    rule, base = _endpoint_rule(endpoint)
    values, errors, _, (n, total, negligible) = _sweep(integrand, rule, base, VERDICT_RTOL)
    if not math.isfinite(total):
        raise NumericalOverflowError("integrand is not finite on a kept panel")
    mags = np.abs(values[:n])
    tail = tail_error = 0.0
    if not negligible:
        tail = _extrapolated_tail(mags, _ratios(mags), rho)
        tail_error = float(abs(tail - float(mags[-1]) * rho / (1.0 - rho)))
    return TestVerdict(CONVERGES, total + math.copysign(tail, values[n - 1]),
                       route="analytic_index", start=start, panels=n,
                       quad_warnings=int((errors[:n] > VERDICT_RTOL * mags).sum()),
                       rtol=VERDICT_RTOL, power=power,
                       at_infinity=isinstance(endpoint, AtInfinity), tail_error=tail_error)


# ---------------------------------------------------------------------------
# Extinction / explosion tests
# ---------------------------------------------------------------------------

def extinction_test(model: LevyModel, f: FunctionalSpec) -> TestVerdict:
    """Finiteness of the accumulated functional on paths that hit 0.

    Converges  <=>  integral^inf f(1/lam) / (lam * psi(lam)) d lam < inf
    <=> the time-changed process dies out in finite time (given it hits 0);
    Diverges <=> it only extinguishes (approaches 0 without reaching it).

    For f = PowerLaw(theta) psi's index p at infinity decides: theta >= p
    diverges with no sweep, and theta < p converges (both ``analytic_index``).
    A pure-power psi = kappa lam^p gives the exact convergent value
    (``analytic_power``); otherwise the value is one sweep from `start` plus
    a tail extrapolated towards the known ratio 2^(theta-p) per doubling
    (`_index_verdict`).
    """
    if not f.bounded_away_from_origin:
        raise PreconditionViolatedError(
            "extinction test needs f bounded on [eps, inf) for every eps > 0")
    phi0 = model.phi_zero().value
    start = max(1.0, 2.0 * phi0)

    theta = f.power
    if theta is not None:
        p = model.index_at_infinity
        if theta >= p:
            return TestVerdict(DIVERGES, math.inf, route="analytic_index", power=p, start=start)
        closed = model.jumps.closed_form(model)
        if closed is not None and closed.power is not None:
            kappa, p = closed.power
            value = start ** (theta - p) / (kappa * (p - theta))
            return TestVerdict(CONVERGES, value, route="analytic_power", kappa=kappa, power=p,
                               start=start)

    psi = model.laplace_exponent_array
    if theta is not None:
        return _index_verdict(lambda lam: lam ** (theta - 1.0) / psi(lam), AtInfinity(start),
                              2.0 ** (theta - p), p, start)

    def integrand(lam):
        return f.values(1.0 / lam) / (lam * psi(lam))

    return improper_integral_verdict(integrand, AtInfinity(start), route="doubling_panels",
                                     start=start, rtol=VERDICT_RTOL)


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

    When neither applies the verdict is inconclusive.  For f =
    PowerLaw(theta) psi's index p0 at 0+ decides: theta <= p0 diverges with
    no sweep, and theta > p0 converges (both ``analytic_index``), with the
    value of the Laplace integral from one sweep below Phi(0)/2 plus a tail
    extrapolated towards the known ratio 2^(p0-theta) per halving
    (`_index_verdict`).
    """
    phi0 = model.phi_zero().value
    if phi0 <= 0.0:
        raise NotApplicableError("Phi(0) = 0: survival has probability zero")
    if not f.decreasing:
        raise PreconditionViolatedError("explosion test needs decreasing f")

    theta = f.power
    if theta is not None:
        p0 = model.index_at_zero
        if theta <= p0:
            return TestVerdict(DIVERGES, -math.inf, route="analytic_index", power=p0,
                               at_infinity=False)

    g = f.laplace_density()
    if g is not None:
        psi = model.laplace_exponent_array

        def integrand(lam):
            return g(lam) / psi(lam)

        if theta is not None:
            return _index_verdict(integrand, AtZeroPlus(phi0 / 2.0), 2.0 ** (p0 - theta), p0)
        return improper_integral_verdict(integrand, AtZeroPlus(phi0 / 2.0),
                                         route="laplace_zero", rtol=VERDICT_RTOL)

    if math.isfinite(model.laplace_exponent_derivative(0.0)):
        return improper_integral_verdict(f.values, AtInfinity(1.0), route="tail_integral",
                                         rtol=VERDICT_RTOL)

    return TestVerdict(INCONCLUSIVE, None, route="none",
                       reason="psi'(0+) infinite and no Laplace density")


# ---------------------------------------------------------------------------
# Boundary classification
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class BoundaryReport:
    """Combined boundary behavior of the time-changed process started at x.

    The three `*_possible` flags are True/False when the underlying verdict
    is decisive and None when it is inconclusive (never a guess).  On the
    hitting event (probability `hit_prob`), extinction and extinguishing are
    complementary; explosion concerns the surviving event and requires
    Phi(0) > 0, so it is False when there is no explosion verdict.
    """

    hit_prob: float
    extinction_verdict: TestVerdict
    explosion_verdict: Optional[TestVerdict]

    @property
    def survival_prob(self) -> float:
        return 1.0 - self.hit_prob

    @property
    def extinction_possible(self) -> Optional[bool]:
        return _decision(self.extinction_verdict)

    @property
    def extinguishing_possible(self) -> Optional[bool]:
        ext = _decision(self.extinction_verdict)
        return None if ext is None else not ext

    @property
    def explosion_possible(self) -> Optional[bool]:
        if self.explosion_verdict is None:
            return False
        return _decision(self.explosion_verdict)

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
            d = v.diagnostics
            return {"verdict": v.verdict, "value": val, "route": d.get("route"),
                    "fitted_exponent": d.get("fitted_exponent"), "panels": v.panels,
                    "quad_warnings": v.quad_warnings, "rtol": v.rtol,
                    "converge_margin": d.get("converge_margin"),
                    "diverge_margin": d.get("diverge_margin")}

        return {
            "extinction_possible": self.extinction_possible,
            "extinguishing_possible": self.extinguishing_possible,
            "explosion_possible": self.explosion_possible,
            "hit_prob": self.hit_prob,
            "survival_prob": self.survival_prob,
            "extinction_verdict": verdict_dict(self.extinction_verdict),
            "explosion_verdict": verdict_dict(self.explosion_verdict),
        }


def _decision(verdict: TestVerdict) -> Optional[bool]:
    """True on convergence, False on divergence, None when inconclusive."""
    if verdict.converges:
        return True
    return False if verdict.diverges else None


def classify_boundary(model: LevyModel, f: FunctionalSpec, x: float) -> BoundaryReport:
    """Classify extinction / extinguishing / explosion for the process started at x."""
    if x <= 0:
        raise NonPositiveStartError("x must be > 0")
    if not math.isfinite(x):
        raise PreconditionViolatedError("x must be finite")
    hit = model.hit_probability(x)
    ext = extinction_test(model, f)
    expl = explosion_test(model, f) if model.phi_zero().value > 0.0 else None
    return BoundaryReport(hit_prob=hit, extinction_verdict=ext, explosion_verdict=expl)
