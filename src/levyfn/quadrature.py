"""The K15 quadrature core: doubling-panel sweeps towards an endpoint, and
integrals known to converge.

Each of the DOUBLINGS panels is integrated by the 7-point Gauss / 15-point
Kronrod pair with QUADPACK's error estimate (Piessens et al., *QUADPACK*,
1983, qk15).  The panels from base 1, outward and inward, are built once at
import (their ends, half-widths, K15 nodes and sign probes), and a sweep
from base b scales them by b into a fresh array, with the same nodes bit
for bit as panels built from b.  The integrand is evaluated once on that
float64 array of the K15 nodes of all panels and one sign probe per panel.
A sweep takes the accuracy its caller needs, `rtol`: when no panel before
the early stop (three negligible increments in a row) has an error
estimate above `rtol` of its value, which is the common case, the sweep
ends there.  Otherwise those panels are refined, one array call per level
for at most MAX_LEVELS levels: each of their pieces whose error exceeds its
length's share of the target is bisected, and a piece keeps its halves only
when their errors sum below its own.  The early stop is found once per
level and handed to the caller.

`finite_integral` takes an integral the caller knows to converge through
the same sweep at PANEL_EPSREL = 1e-10: doubling panels on a closed piece,
and at an open end (0+ or inf) the panels before the early stop plus the
tail beyond them, whose ratios are extrapolated from the last three (one
Richardson step).  `_laplace_rule` is the same K15 rule on fixed panels in
t, which `LaplaceRep.values` takes.

An integrand should take a float64 array and return the array of its
values.  One that cannot (an array call raises TypeError or ValueError, or
returns another shape) is called point by point instead, and a point that
overflows reads as non-finite.

The module imports nothing of the verdicts, the models or the scale
functions: `levy_model`, `integral_tests` and `scale_fn` build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalOverflowError, QuadratureFailureError

# an endpoint sweep takes DOUBLINGS panels; the ratio rules and the open-end
# tail read the last WINDOW + 1 increments; an increment is negligible below
# NEGLIGIBLE_REL of the running sum
DOUBLINGS = 40
WINDOW = 5
NEGLIGIBLE_REL = 1e-15

# a panel is flagged while its error estimate exceeds PANEL_EPSREL of its
# value (unless the caller asks for less); flagged panels are bisected for
# at most MAX_LEVELS levels; `finite_integral` fails where its summed error
# estimate exceeds TRANSFORM_FAIL_RTOL of its value
PANEL_EPSREL = 1e-10
MAX_LEVELS = 10
TRANSFORM_FAIL_RTOL = 1e-6


@dataclass(frozen=True)
class AtInfinity:
    """Test the endpoint +inf, integrating from `start` outward."""

    start: float


@dataclass(frozen=True)
class AtZeroPlus:
    """Test the endpoint 0+, integrating from `stop` inward."""

    stop: float


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
# qk15 raises an error estimate to 50 eps of the panel's |f| integral only
# above this floor, where that bound cannot underflow
_RESABS_FLOOR = np.finfo(float).tiny / (50.0 * _EPS)


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resk = fx @ K15_WEIGHTS
        value = resk * half
        abserr = np.abs((resk - fx @ G7_WEIGHTS) * half)
        resabs = (np.abs(fx) @ K15_WEIGHTS) * half
        resasc = (np.abs(fx - (resk / 2.0)[:, None]) @ K15_WEIGHTS) * half
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        np.copyto(abserr, scaled, where=(resasc != 0.0) & (abserr != 0.0))
        np.maximum(50.0 * _EPS * resabs, abserr, out=abserr, where=resabs > _RESABS_FLOOR)
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


def _sweep(integrand: Callable, rule: tuple[np.ndarray, ...], scale: float = 1.0,
           rtol: float = PANEL_EPSREL
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, float, bool]]:
    """Value, error estimate and geometric-midpoint probe of each panel of
    `rule` (see `_rule`) scaled by `scale`, and `_kept` of the values.

    All panel nodes and probes take one array call, on a fresh array the
    integrand may write into.  When no panel inside the early-stop prefix
    has an error above `rtol` of its value, that is the sweep.  Otherwise,
    one array call per level, those panels are refined: each of their
    pieces whose error exceeds its length's share of that target is
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
    if not (total_err[:kept[0]] > rtol * np.abs(total[:kept[0]])).any():
        return total, total_err, probes, kept
    # the pieces: owning panel, ends, value, error, still refinable
    lo, hi = lo * scale, hi * scale
    owner, p_lo, p_hi, active = np.arange(n), lo, hi, np.ones(n, dtype=bool)
    val, err, width = total, total_err, hi - lo
    for _ in range(MAX_LEVELS):
        target = rtol * np.abs(total)
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


def _ratios(mags: np.ndarray) -> list[float]:
    """Consecutive ratios of the last WINDOW + 1 increment magnitudes."""
    tail = mags[-(WINDOW + 1):].tolist()
    return [b / a if a > 0.0 else math.inf for a, b in zip(tail, tail[1:])]


def _tail(mags: np.ndarray, ratios: list[float]) -> float:
    """Geometric tail beyond the last panel at the last ratio."""
    rho = ratios[-1]
    return float(mags[-1]) * rho / (1.0 - rho)


# the open-end tail (see `_extrapolated_tail`): the extrapolated ratios
# multiplied out before the geometric remainder; a fitted gap factor needs
# ratio differences above _TAIL_FIT_MIN, well clear of rounding, and, where
# it also fits the limit ratio, is trusted up to _TAIL_GAP_MAX
_TAIL_TERMS = 64
_TAIL_FIT_MIN = 1e-12
_TAIL_GAP_MAX = 0.9


def _open_end(integrand: Callable, endpoint: AtInfinity | AtZeroPlus) -> tuple[float, float]:
    """Value and summed error estimate of an integral that converges at the
    endpoint: the panels of `_sweep` before the early stop, plus the tail
    beyond them.  The last WINDOW ratios must all be below 1, or
    QuadratureFailureError is raised; no ratio rule of the verdicts
    applies.

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
    return total + math.copysign(_extrapolated_tail(mags, ratios), values[n - 1]), error


def _extrapolated_tail(mags: np.ndarray, ratios: list[float], rho: float | None = None) -> float:
    """The magnitude of the tail beyond the last of the panel magnitudes
    `mags`, whose last ratios are `ratios` (`_ratios`), by one Richardson
    step: the i-th ratio beyond the last panel is rho + (r_n - rho) q^i.

    With the limit rho unknown, q and rho are fitted as `_open_end` states.
    A caller that knows rho in (0, 1) passes it, and q is then the last
    ratio's gap to it over the one before, (r_n - rho) / (r_{n-1} - rho),
    when that denominator exceeds _TAIL_FIT_MIN and the fit lies in (0, 1),
    else 1/2."""
    first, prev, last = ratios[-3:]
    if rho is None:
        gap = (last - prev) / (prev - first) if abs(prev - first) > _TAIL_FIT_MIN else 0.5
        if not 0.0 < gap <= _TAIL_GAP_MAX:
            gap = 0.5
        rho = last + (last - prev) * gap / (1.0 - gap)
        if not 0.0 < rho < 1.0:
            return _tail(mags, ratios)
    else:
        gap = (last - rho) / (prev - rho) if abs(prev - rho) > _TAIL_FIT_MIN else 0.5
        if not 0.0 < gap < 1.0:
            gap = 0.5
    terms = np.cumprod(rho + (last - rho) * gap ** np.arange(1.0, _TAIL_TERMS + 1.0))
    return float(mags[-1]) * (terms.sum() + terms[-1] * rho / (1.0 - rho))


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
