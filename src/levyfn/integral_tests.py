"""Numeric convergence verdicts for one-sided improper integrals, and the
extinction / extinguishing / explosion classification they imply.

The engine integrates over geometrically doubling (or halving) panels and
reads the convergence class off the decay of the panel increments: geometric
decay certifies convergence with a summable tail estimate, non-decaying
increments certify divergence (this catches log-divergent integrands that a
plain Cauchy criterion misses), and the gap in between is reported honestly
as inconclusive.

Each of the DOUBLINGS panels is integrated by the 7-point Gauss / 15-point Kronrod pair with
QUADPACK's error estimate (Piessens et al., *QUADPACK*, 1983, qk15).  The
panels from base 1, outward and inward, are built once at import (their
ends, half-widths, K15 nodes and sign probes), and a sweep from base b
scales them by b into a fresh array, with the same nodes bit for bit as
panels built from b.  The integrand is evaluated once on that float64 array
of the K15 nodes of all panels and one sign probe per panel.  When no panel
before the early stop (three negligible increments in a row) has an error
estimate above PANEL_EPSREL = 1e-10 of its value, which is the common case,
the sweep ends there.  Otherwise those panels are refined, one array call
per level for at most MAX_LEVELS levels: each of their pieces whose error
exceeds its length's share of the target is bisected, and a piece keeps its
halves only when their errors sum below its own.  The early stop is found
once per level and handed to the verdict.  A panel still above the target
is counted in the verdict's `quad_warnings`, not raised; a non-finite value
on a panel before the early stop raises NumericalOverflowError, one beyond
it is ignored.

`finite_integral` takes an integral the caller knows to converge through
the same sweep: doubling panels on a closed piece, and at an open end (0+
or inf) the panels before the early stop plus the tail beyond them, whose
ratios are extrapolated from the last three (one Richardson step), with
none of the verdict's ratio rules.  `LaplaceRep.values` takes the same K15 rule
on fixed panels in t.

An integrand should take a float64 array and return the array of its
values.  One that cannot (an array call raises TypeError or ValueError, or
returns another shape) is called point by point instead, and a point that
overflows reads as non-finite.  The tests build their integrands on arrays
from `f.values`, `laplace_density()` and `LevyModel.laplace_exponent_array`.

A `TestVerdict` is a frozen, slotted record with typed fields: the verdict,
value, route, start, panel count, flagged-panel count and reason, and one
float64 record of the sweep (the partial sum, the largest relative error
estimate and the magnitudes of the last WINDOW + 1 increments).  Its
`diagnostics` property builds the familiar dict on each read, with the
ratios, the fitted exponent, the margins to the two ratio rules and the
tail estimate derived from the increments.  A `BoundaryReport` holds the
hitting probability and its verdicts; its flags and `survival_prob` are
derived from them.

The kind of the functional f alone picks the formula each test uses.  Every
kind owns `value(x)` in plain float arithmetic, `values(arr)` on numpy
arrays, the flags `decreasing` and `bounded_away_from_origin`,
`laplace_density()`, `power` and `constant`.  Wrapping any f as a `Generic`
names the general (reference) route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import (
    NonPositiveStartError,
    NotApplicableError,
    NumericalOverflowError,
    PreconditionViolatedError,
    QuadratureFailureError,
    SignChangeError,
)

if TYPE_CHECKING:  # annotations only; levy_model imports finite_integral
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

    def value(self, x: float) -> float:
        return x ** (-self.theta)

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

    def value(self, x: float) -> float:
        return float(self.values(np.array([x], dtype=float))[0])

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

    def value(self, x: float) -> float:
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

    def value(self, x: float) -> float:
        return float(self.fn(x))

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

@dataclass(frozen=True)
class AtInfinity:
    """Test the endpoint +inf, integrating from `start` outward."""

    start: float


@dataclass(frozen=True)
class AtZeroPlus:
    """Test the endpoint 0+, integrating from `stop` inward."""

    stop: float


@dataclass(frozen=True, slots=True, eq=False)
class TestVerdict:
    """One verdict and the facts behind it, immutable once built.

    A doubling-panel sweep keeps its numbers in `sweep`, one float64 record
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
    """

    verdict: str                      # converges | diverges | inconclusive
    value: Optional[float]            # finite value, +-inf, or None
    route: Optional[str] = None
    start: Optional[float] = None
    panels: int = 0
    quad_warnings: int = 0
    reason: Optional[str] = None
    kappa: Optional[float] = None
    power: Optional[float] = None
    at_infinity: bool = True
    sweep: Optional[bytes] = None

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
            d["kappa"], d["power"] = self.kappa, self.power
        if self.start is not None:
            d["start"] = self.start
        rec = self._record()
        if rec is not None:
            mags = rec[2:]
            d.update(panels=self.panels, partial=float(rec[0]), increments=mags.tolist(),
                     max_rel_abserr=float(rec[1]), quad_warnings=self.quad_warnings)
            if self.reason is None and self.panels > WINDOW:
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


def _ratios(mags: np.ndarray) -> list[float]:
    """Consecutive ratios of the last WINDOW + 1 increment magnitudes."""
    tail = mags[-(WINDOW + 1):].tolist()
    return [b / a if a > 0.0 else math.inf for a, b in zip(tail, tail[1:])]


def _fitted_exponent(ratios: list[float], at_infinity: bool) -> float:
    """Local exponent: integrand ~ t**p at inf gives ratio 2**(p+1);
    ~ t**(-q) at 0+ gives ratio 2**(q-1)."""
    geo = math.log2(float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300))))))
    return geo - 1.0 if at_infinity else -(geo + 1.0)


def _tail(mags: np.ndarray, ratios: list[float]) -> float:
    """Geometric tail beyond the last panel at the last ratio."""
    rho = ratios[-1]
    return float(mags[-1]) * rho / (1.0 - rho)


# 7-point Gauss / 15-point Kronrod pair (QUADPACK qk15): Kronrod nodes on
# [-1, 1] in increasing order, with the Kronrod weights and the Gauss weights
# (zero at the Kronrod-only nodes)
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
K15_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
K15_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
G7_WEIGHTS = np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                       0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])
_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny

# a panel is flagged while its error estimate exceeds PANEL_EPSREL of its
# value; flagged panels are bisected for at most MAX_LEVELS levels;
# `finite_integral` fails where its summed error estimate exceeds
# TRANSFORM_FAIL_RTOL of its value
PANEL_EPSREL = 1e-10
MAX_LEVELS = 10
TRANSFORM_FAIL_RTOL = 1e-6


# LaplaceRep's rule: the x range it is accurate on, and the x values that
# share one block of exp(-x t) (a 128 x 2160 float64 block is 2.2 MB)
_LAPLACE_X = (2.0**-48, 2.0**48)
_LAPLACE_ROWS = 128
# exp(-u) rounds to 0 in float64 for every u above this
_EXP_UFLOW = 746.0


@lru_cache(maxsize=1)
def _laplace_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of K15 on the panels [2^k, 2^(k+1)], k = -88..55."""
    edges = 2.0 ** np.arange(-88.0, 57.0)
    lo, hi = edges[:-1], edges[1:]
    nodes, weights = _nodes(lo, hi).ravel(), (((hi - lo) / 2.0)[:, None] * K15_WEIGHTS).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The K15 nodes of each panel [lo, hi], one row per panel."""
    return ((lo + hi) / 2.0)[:, None] + ((hi - lo) / 2.0)[:, None] * K15_NODES


def _rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """The panels [lo, hi] as `_sweep` takes them: their ends, their
    half-widths, and the points of its first array call (the K15 nodes of
    every panel, then one geometric-midpoint sign probe per panel) as the
    sum of two flat arrays, the panel midpoints (the probes) and the nodes'
    offsets from them (zeros)."""
    half = (hi - lo) / 2.0
    mids = np.concatenate((np.repeat((lo + hi) / 2.0, len(K15_NODES)), np.sqrt(lo * hi)))
    offsets = np.concatenate(((half[:, None] * K15_NODES).ravel(), np.zeros(len(lo))))
    return lo, hi, half, mids, offsets


def _unit_rule(at_inf: bool) -> tuple[np.ndarray, ...]:
    """`_rule` of the DOUBLINGS panels from 1 outward (or inward), read-only."""
    k = np.arange(DOUBLINGS + 1.0)
    edges = 2.0 ** (k if at_inf else -k)
    rule = _rule(edges[:-1], edges[1:]) if at_inf else _rule(edges[1:], edges[:-1])
    for part in rule:
        part.flags.writeable = False
    return rule


# the doubling panels of every endpoint sweep, built once.  A sweep from
# base b scales each part by b: the ends, half-widths, midpoints and offsets
# of its panels are then those of the panels [b 2^k, b 2^(k+1)] rounded as
# `_nodes` rounds them, so its nodes are bit for bit `_nodes` of those ends
_UNIT_RULES = {True: _unit_rule(True), False: _unit_rule(False)}


def _k15(fx: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 value and QUADPACK error estimate of each panel from its node values
    and its half-width.

    The estimate scales the Kronrod-Gauss gap as qk15 does:
    resasc * min(1, (200 |K15 - G7| / resasc)**1.5), at least 50 eps resabs.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        resk = fx @ K15_WEIGHTS
        value = resk * half
        abserr = np.abs((resk - fx @ G7_WEIGHTS) * half)
        resabs = (np.abs(fx) @ K15_WEIGHTS) * half
        resasc = (np.abs(fx - (resk / 2.0)[:, None]) @ K15_WEIGHTS) * half
        scaled = (resasc != 0.0) & (abserr != 0.0)
        ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
        abserr = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPS),
                          np.maximum(50.0 * _EPS * resabs, abserr), abserr)
    return value, abserr


def _point(integrand: Callable[[float], float], t: float) -> float:
    try:
        return float(integrand(t))
    except (ArithmeticError, NumericalOverflowError):
        return math.nan


def _on_arrays(integrand: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """`integrand` on float64 arrays: one call per array while the integrand
    takes arrays, point by point once an array call raises TypeError or
    ValueError or returns another shape.  A point that overflows reads NaN."""
    scalar = False

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal scalar
        with np.errstate(all="ignore"):
            if not scalar:
                try:
                    out = np.asarray(integrand(x), dtype=float)
                    if out.shape == x.shape:
                        return out
                except (TypeError, ValueError):
                    pass
                scalar = True
            return np.array([_point(integrand, t) for t in x.tolist()])

    return evaluate


def _kept(values: np.ndarray) -> tuple[int, float, bool]:
    """Panels before the early stop, their running sum, and whether the
    stop (three negligible increments in a row) was reached."""
    totals = np.cumsum(values)
    negligible = np.abs(values) <= NEGLIGIBLE_REL * (np.abs(totals) + 1e-300)
    runs = negligible[:-2] & negligible[1:-1] & negligible[2:]
    stopped = bool(runs.any())
    n = int(runs.argmax()) + 3 if stopped else len(values)
    return n, float(totals[n - 1]), stopped


def _endpoint_rule(endpoint: AtInfinity | AtZeroPlus) -> tuple[tuple[np.ndarray, ...], float]:
    """The unit rule of the endpoint's direction, and the base it scales to."""
    at_inf = isinstance(endpoint, AtInfinity)
    base = endpoint.start if at_inf else endpoint.stop
    if base <= 0:
        raise ValueError("panel base must be > 0")
    return _UNIT_RULES[at_inf], base


def _sweep(integrand: Callable, rule: tuple[np.ndarray, ...], scale: float = 1.0
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, float, bool]]:
    """Value, error estimate and geometric-midpoint probe of each panel of
    `rule` (see `_rule`) scaled by `scale`, and `_kept` of the values.

    All panel nodes and probes take one array call, on a fresh array the
    integrand may write into.  When no panel inside the early-stop prefix
    has an error above PANEL_EPSREL of its value, that is the sweep.
    Otherwise, one array call per level, those panels are refined: each of
    their pieces whose error exceeds its length's share of that target is
    bisected, and the halves replace it only when their errors sum below
    its own; a piece whose halves do not is left as it is.
    """
    evaluate = _on_arrays(integrand)
    lo, hi, half, mids, offsets = rule
    n = len(lo)
    points = mids * scale
    points += offsets * scale
    fx = evaluate(points)
    probes = fx[-n:]
    total, total_err = _k15(fx[:-n].reshape(n, -1), half * scale)
    kept = _kept(total)
    if not (total_err[:kept[0]] > PANEL_EPSREL * np.abs(total[:kept[0]])).any():
        return total, total_err, probes, kept
    # the pieces: owning panel, ends, value, error, still refinable
    lo, hi = lo * scale, hi * scale
    owner, p_lo, p_hi, active = np.arange(n), lo, hi, np.ones(n, dtype=bool)
    val, err, width = total, total_err, hi - lo
    for _ in range(MAX_LEVELS):
        target = PANEL_EPSREL * np.abs(total)
        flagged = (total_err > target) & (np.arange(n) < kept[0])
        split = active & flagged[owner] & (err > target[owner] * (p_hi - p_lo) / width[owner])
        if not split.any():
            break
        s_lo, s_hi = p_lo[split], p_hi[split]
        mid = (s_lo + s_hi) / 2.0
        h_lo = np.ravel((s_lo, mid), order="F")
        h_hi = np.ravel((mid, s_hi), order="F")
        h_val, h_err = _k15(evaluate(_nodes(h_lo, h_hi).ravel()).reshape(len(h_lo), -1),
                            (h_hi - h_lo) / 2.0)
        better = h_err[0::2] + h_err[1::2] < err[split]
        active[np.flatnonzero(split)[~better]] = False
        keep = ~split | ~active
        take = np.repeat(better, 2)
        owner = np.concatenate((owner[keep], np.repeat(owner[split][better], 2)))
        p_lo = np.concatenate((p_lo[keep], h_lo[take]))
        p_hi = np.concatenate((p_hi[keep], h_hi[take]))
        val = np.concatenate((val[keep], h_val[take]))
        err = np.concatenate((err[keep], h_err[take]))
        active = np.concatenate((active[keep], np.ones(take.sum(), dtype=bool)))
        total, total_err = np.bincount(owner, val, n), np.bincount(owner, err, n)
        kept = _kept(total)
    return total, total_err, probes, kept


# the open-end tail (see `_open_end`): the extrapolated ratios multiplied
# out before the geometric remainder; a fitted gap factor needs ratio
# differences above _TAIL_FIT_MIN, well clear of rounding, and is trusted
# up to _TAIL_GAP_MAX
_TAIL_TERMS = 64
_TAIL_FIT_MIN = 1e-12
_TAIL_GAP_MAX = 0.9


def _open_end(integrand: Callable, endpoint: AtInfinity | AtZeroPlus) -> tuple[float, float]:
    """Value and summed error estimate of an integral that converges at the
    endpoint: the panels of `_sweep` before the early stop, plus the tail
    beyond them.  The last WINDOW ratios must all be below 1, or
    QuadratureFailureError is raised; no ratio rule of
    `improper_integral_verdict` applies.

    The tail takes one Richardson step on the last panel ratios.  When
    their gap to the limit rho shrinks by a factor q per doubling, the
    limit is rho = r_n + (r_n - r_{n-1}) q / (1 - q) and the i-th ratio
    beyond the last panel is rho + (r_n - rho) q^i.  q is fitted as
    (r_n - r_{n-1}) / (r_{n-1} - r_{n-2}) when that denominator exceeds
    _TAIL_FIT_MIN and the fit lies in (0, _TAIL_GAP_MAX]; otherwise it is
    1/2, the gap of an integrand c t^p (1 + O(1/t)) at inf or
    c t^p (1 + O(t)) at 0+ (then rho = 2 r_n - r_{n-1}).  The first
    _TAIL_TERMS ratios are multiplied out and summed, and the rest are the
    geometric series at rho.  When rho is not in (0, 1) the tail is
    geometric at r_n (`_tail`)."""
    values, errors, _, (n, total, negligible) = _sweep(integrand, *_endpoint_rule(endpoint))
    mags = np.abs(values[:n])
    error = float(errors[:n].sum())
    if negligible or not np.isfinite(total) or not mags[-WINDOW:].any():
        return total, error
    ratios = _ratios(mags)
    if not all(r < 1.0 for r in ratios):
        raise QuadratureFailureError(
            f"open end of a convergent integral: panel ratios {np.round(ratios, 4).tolist()}")
    first, prev, last = ratios[-3:]
    gap = (last - prev) / (prev - first) if abs(prev - first) > _TAIL_FIT_MIN else 0.5
    if not 0.0 < gap <= _TAIL_GAP_MAX:
        gap = 0.5
    rho = last + (last - prev) * gap / (1.0 - gap)
    if 0.0 < rho < 1.0:
        terms = np.cumprod(rho + (last - rho) * gap ** np.arange(1.0, _TAIL_TERMS + 1.0))
        tail = float(mags[-1]) * (terms.sum() + terms[-1] * rho / (1.0 - rho))
    else:
        tail = _tail(mags, ratios)
    return total + math.copysign(tail, values[n - 1]), error


def finite_integral(integrand: Callable, lo: float, hi: float) -> float:
    """Integral of `integrand` over [lo, hi] for 0 <= lo < hi <= inf.

    A closed [lo, hi] is refined by `_sweep` on the doubling panels
    [lo, 2 lo], [2 lo, 4 lo], ..., ending at hi, so that a panel never spans
    more than a factor of two in y.  An open end, lo = 0 or hi = inf, is the
    caller's promise that the integral converges there: it is the 0+ sweep
    from hi or the inf sweep from lo (`_open_end`; both from 1 when both
    ends are open).  A non-finite value raises NumericalOverflowError, and a
    summed error estimate above TRANSFORM_FAIL_RTOL of the value raises
    QuadratureFailureError."""
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    if lo == 0.0 and hi == math.inf:
        return finite_integral(integrand, 0.0, 1.0) + finite_integral(integrand, 1.0, hi)
    if lo == 0.0:
        value, error = _open_end(integrand, AtZeroPlus(hi))
    elif hi == math.inf:
        value, error = _open_end(integrand, AtInfinity(lo))
    else:
        edges = lo * 2.0 ** np.arange(math.ceil(math.log2(hi / lo)) + 1.0)
        edges = np.append(edges[edges < hi], hi)
        values, errors, _, _ = _sweep(integrand, _rule(edges[:-1], edges[1:]))
        value, error = values.sum(), errors.sum()
    if not np.isfinite(value):
        raise NumericalOverflowError(f"integrand is not finite on [{lo:g}, {hi:g}]")
    if error > TRANSFORM_FAIL_RTOL * abs(value):
        raise QuadratureFailureError(
            f"integral on [{lo:g}, {hi:g}]: error estimate {error:.3g} of value {value:.6g}")
    return float(value)


def improper_integral_verdict(integrand: Callable, endpoint: AtInfinity | AtZeroPlus, *,
                              route: Optional[str] = None,
                              start: Optional[float] = None) -> TestVerdict:
    """Classify the improper integral of `integrand` at one endpoint.

    The integrand is called on float64 arrays when it takes them (see
    `_on_arrays`), else point by point.  It must have constant sign near
    the tested endpoint (SignChangeError otherwise), and be finite on the
    panels before the early stop (NumericalOverflowError otherwise).  On
    convergence the returned value includes a geometric tail estimate; on
    divergence it is +-inf by the integrand's sign near the endpoint.
    `route` and `start` are recorded on the verdict as given.
    """
    at_inf = isinstance(endpoint, AtInfinity)
    values, errors, probes, (n, total, negligible) = _sweep(integrand,
                                                            *_endpoint_rule(endpoint))
    values, errors, probes = values[:n], errors[:n], probes[:n]
    if not (np.isfinite(values).all() and np.isfinite(probes).all()):
        raise NumericalOverflowError("integrand is not finite on a kept panel")

    top, bottom = probes.max(), probes.min()
    small = 1e-9 * max(top, -bottom)
    if top > small and bottom < -small:
        raise SignChangeError("integrand changes sign in the probed region")
    sign = math.copysign(1.0, total) if total != 0.0 else 1.0

    mags = np.abs(values)
    max_rel_abserr = (errors / np.maximum(mags, 1e-300)).max()
    sweep = np.concatenate(([total, max_rel_abserr], mags[-(WINDOW + 1):])).tobytes()
    facts = {"route": route, "start": start, "panels": n,
             "quad_warnings": int((errors > PANEL_EPSREL * mags).sum()),
             "at_infinity": at_inf, "sweep": sweep}

    if negligible or not mags[-WINDOW:].any():
        return TestVerdict(CONVERGES, total, reason="tail negligible", **facts)
    if n < WINDOW + 1:
        return TestVerdict(INCONCLUSIVE, None, **facts)

    ratios = _ratios(mags)
    if all(r <= CONVERGE_RATIO for r in ratios):
        return TestVerdict(CONVERGES, total + sign * _tail(mags, ratios), **facts)
    if all(r >= 2.0 ** (-DIVERGE_MARGIN) for r in ratios):
        return TestVerdict(DIVERGES, sign * math.inf, **facts)
    return TestVerdict(INCONCLUSIVE, None, **facts)


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
        facts = {"route": "analytic_power", "kappa": kappa, "power": p, "start": start}
        if theta < p:
            value = start ** (theta - p) / (kappa * (p - theta))
            return TestVerdict(CONVERGES, value, **facts)
        return TestVerdict(DIVERGES, math.inf, **facts)

    psi = model.laplace_exponent_array

    def integrand(lam):
        return f.values(1.0 / lam) / (lam * psi(lam))

    return improper_integral_verdict(integrand, AtInfinity(start), route="doubling_panels",
                                     start=start)


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
        psi = model.laplace_exponent_array

        def integrand(lam):
            return g(lam) / psi(lam)

        return improper_integral_verdict(integrand, AtZeroPlus(phi0 / 2.0), route="laplace_zero")

    if math.isfinite(model.laplace_exponent_derivative(0.0)):
        return improper_integral_verdict(f.values, AtInfinity(1.0), route="tail_integral")

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
