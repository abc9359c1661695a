"""Scale function W and the expectation formulas built on it.

W is defined through its Laplace transform: integral_0^inf e^{-lam*y} W(y) dy
= 1/psi(lam) for lam > Phi(0), with W = 0 on the negatives.  Numerically we
never invert 1/psi directly.  The model tilted by Phi(0)
(`LevyModel.tilted`, Levy density e^{-Phi(0)u} pi(du)) has the exponent
psi_Phi(s) = psi(s + Phi(0)), its own Phi(0) = 0 and its transform
abscissa at 0; its scale function is W_shift(x) = e^{-Phi(0)x} W(x), so we
invert 1/psi_Phi at the nodes themselves, with no Phi(0) added to them,
and recover W(x) = exp(Phi(0)*x) * W_shift(x).  Closed forms, too, are
those of the tilted model, written for Phi(0) = 0.

The public evaluation is the fixed Talbot rule (Abate & Valko 2004) in
float64 complex arithmetic: with M nodes on the contour s(theta) =
r theta (cot theta + i), theta_k = k pi/M, r = 2M/(5x), it sums the
transform at the nodes against fixed weights.  x enters only through
r, so the nodes are s_k = nu_k/x and the weights e^{x s_k}(1 + i sigma_k)
do not depend on x; one W point is one numpy psi call on the nodes of M
and 2M together, and a 1-D array of x one call per TABLE_BLOCK points,
within about 1e-12 relative of its points (a matrix sums in another order
than a row).  M is TALBOT_ORDER: the M- and 2M-node values must
agree to ORDER_AGREEMENT_RTOL or the evaluation reports instability, and
the 2M-node value is returned (about 1e-12 relative at M = 14).  The
contour wraps the negative real axis, so it needs the
transform's singularities on the non-positive real axis: 1/psi_Phi has
its pole at 0, its branch cuts and other poles left of it and no complex
zeros, which holds for the four jump families here, whose Levy densities,
tilted or not, are completely monotone (Kyprianou & Rivero, EJP 2008).  A
new family must meet the same condition.  The nodes grow like 1/x, so below about
x = 1e-140 psi overflows at them and the evaluation raises
NumericalOverflowError instead of returning a value; at x = 0 itself W is
the model fact 1/`LevyModel.drift_at_infinity` (0 unless the process has
bounded variation).

The arbitrary-precision Gaver-Stehfest series (real nodes k*ln2/x,
`gs_invert_mp` on `laplace_exponent_hp`) is the reference the inversion is
tested against.  The Laplace identity integrates the published W itself,
at all points of a fixed rule on [0, M] in one Talbot evaluation, each
point checked N against 2N nodes: IDENTITY_GL_POINTS-point Gauss-Legendre
on the panels [M 2^{-j-1}, M 2^{-j}], j < IDENTITY_PANELS - 1, and
[0, M 2^{1-IDENTITY_PANELS}], graded towards 0 where W(y) ~ y^gamma.  The
N nodes at y are bitwise the even 2N nodes at 2y (nu^{2N}_{2k} = 2 nu^N_k),
and each panel halves the next, so a point whose 2y is a rule point reads
its N-node check from there: one psi call on 160 x 28 + 16 x 14 nodes.
M is the first power of 2 where the integrand drops below
IDENTITY_INTEGRAND_TOL; W_shift is nondecreasing, so the search evaluates
W only where its last value does not already decide.  The
inversion route below evaluates Talbot W on arrays at the nodes of the
verdict engine's K15 panels.  Float64 Gaver-Stehfest (`gs_invert_float`,
~1e-5) remains only for levybench's layer probe.
Both expectation formulas integrate one scale-function difference, the
tilted model's potential density W_shift(z) - W_shift(z-d)
(`_tilted_density_fn`): its closed form, or W_shift at z and z - d from one
Talbot evaluation, checked N against 2N nodes.  Beyond d both terms
approach the same limit and cancel, so values below a noise floor read 0
there.  The conditional-expectation bracket B(y) = W_shift(y) -
W_shift(y-x) is that density at d = x, with no factor e^{Phi(0)x} to
overflow.  The occupation's potential density D_d(z) = e^{-Phi(0)d} W(z) -
W(z-d) is e^{Phi(0)(z-d)} times it (`_potential_density_fn`) up to z = d +
1/Phi(0), where that factor is at most e; beyond, it is the integral over v
in [0, d] of e^{-Phi(0)v} g(z-d+v), g = W' - Phi(0) W inverted from
(s - Phi(0))/psi(s) - W(0), whose pole at Phi(0) cancels, so no factor
grows with z and D tends to its plateau (e^{-Phi(0)d} - 1)/psi'(0+).

The two expectation formulas are integrals of W against f, and when f has a
Laplace density g (f(y) = integral_0^inf e^{-yt} g(t) dt: `PowerLaw`,
`LaplaceRep`) Fubini turns each into an integral of g against 1/psi, with
no inversion at all (the transform route), on the K15 sweep of
:mod:`levyfn.quadrature` with the integrand on arrays (`finite_integral`):

* the conditional-expectation bracket B(y) = W_shift(y) - W_shift(y-x)
  has transform (1 - e^{-sx})/psi_Phi(s), so

      condexp = integral_0^inf g(t) (1 - e^{-(t+lam)x}) / psi_Phi(t+lam) dt,

  finite exactly when the extinction integral converges (the same tail);
* the potential density e^{-Phi(0)d} W(z) - W(z-d), d = x - y, has
  transform (e^{-Phi(0)d} - e^{-sd})/psi(s) for s > 0, so

      occupation = integral_0^inf g(t) e^{-yt} (e^{-Phi(0)d} - e^{-td}) / psi(t) dt.

  Numerator and psi vanish together at t = Phi(0), a removable point: the
  closed piece [Phi(0)/2, max(2 Phi(0), 1)] has it on a doubling-panel
  edge, where no node sits.  Finiteness is decided at 0+ by the verdict
  engine whenever Phi(0) > 0 or psi'(0+) = 0, and that verdict's value is
  the head.

A constant f needs no quadrature: condexp is (1 - e^{-lam*x})/psi_Phi(lam),
and occupation is d/psi'(0+) when Phi(0) = 0 (+inf when psi'(0+) =
0 or Phi(0) > 0).  The kind of f picks the route, with no option to
overrule it: a `Generic` f takes the inversion route, which integrates f
against inverted scale-function values.  Wrapping a `PowerLaw`, `LaplaceRep`
or `Constant` as a `Generic` names the inversion route for the same
function; the cross-checks compare the two routes that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .errors import (
    InversionUnstableError,
    NumericalOverflowError,
    PreconditionViolatedError,
    QuadratureFailureError,
)
from .integral_tests import (
    AtInfinity,
    AtZeroPlus,
    FunctionalSpec,
    extinction_test,
    improper_integral_verdict,
)
from .levy_model import ClosedForm, LevyModel
from .quadrature import K15_WEIGHTS, _nodes, _on_arrays, finite_integral

LN2 = math.log(2.0)

# Fixed Talbot node count M of a W evaluation, checked against 2M nodes.
TALBOT_ORDER = 14
# Relative disagreement between consecutive orders that flags instability.
ORDER_AGREEMENT_RTOL = 1e-3
# Relative step down that W's monotonicity tolerates, as rounding.
MONOTONE_RTOL = 1e-9
# Points of a W table per psi call, at least the identity rule's 160.
TABLE_BLOCK = 512

# truncation of the Laplace-identity integral: where e^{-lam*M} W(M) drops below
IDENTITY_INTEGRAND_TOL = 1e-8
# rule of the Laplace-identity integral on [0, M]: Gauss-Legendre points per
# panel, and panels graded geometrically towards 0 (see _identity_rule)
IDENTITY_GL_POINTS = 8
IDENTITY_PANELS = 20


# ---------------------------------------------------------------------------
# Gaver-Stehfest machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _stehfest_weights_exact(order: int) -> tuple:
    """Salzer summation weights as exact rationals."""
    if order % 2 != 0 or order < 2:
        raise ValueError("Stehfest order must be a positive even integer")
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(j**half * math.factorial(2 * j),
                            math.factorial(half - j) * math.factorial(j)
                            * math.factorial(j - 1) * math.factorial(k - j)
                            * math.factorial(2 * j - k))
        weights.append((-1) ** (k + half) * acc)
    return tuple(weights)


@lru_cache(maxsize=32)
def _stehfest_weights_float(order: int) -> np.ndarray:
    return np.array([float(v) for v in _stehfest_weights_exact(order)])


@lru_cache(maxsize=32)
def _stehfest_weights_mp(order: int, dps: int) -> tuple:
    with mp.workdps(dps):
        return tuple(mp.mpf(w.numerator) / mp.mpf(w.denominator)
                     for w in _stehfest_weights_exact(order))


def _dps_for(order: int) -> int:
    return max(30, int(2.2 * order) + 8)


def gs_invert_float(transform: Callable[[float], float], t: float, order: int = 14) -> float:
    """Float64 Gaver-Stehfest inversion of `transform` at t > 0."""
    weights = _stehfest_weights_float(order)
    scale = LN2 / t
    acc = 0.0
    for k in range(order):
        acc += weights[k] * transform((k + 1) * scale)
    return scale * acc


def gs_invert_mp(transform_hp: Callable, t: float, order: int = 14) -> float:
    """Arbitrary-precision Gaver-Stehfest inversion at t > 0.

    `transform_hp` is called with mpmath arguments inside a working
    precision chosen from the order.
    """
    dps = _dps_for(order)
    with mp.workdps(dps):
        scale = mp.ln(2) / mp.mpf(t)
        weights = _stehfest_weights_mp(order, dps)
        acc = mp.mpf(0)
        for k in range(order):
            acc += weights[k] * transform_hp((k + 1) * scale)
        return float(scale * acc)


# ---------------------------------------------------------------------------
# Fixed-Talbot machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _talbot_rules(orders: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """The fixed Talbot rule of each order M in `orders`: the nodes nu_k of
    every order, stacked, and per order its (slice into the stack, weights
    omega_k), scaled so that f(x) = Re(sum_k omega_k F(nu_k / x)) / x.

    Node k sits at s_k = r delta_k with r = 2M/(5x), delta_0 = 1 and
    delta_k = theta_k (cot theta_k + i); its weight (r/M) e^{x s_k}
    (1 + i sigma_k), sigma_k = theta_k + (theta_k cot theta_k - 1) cot theta_k,
    is 2/(5x) times a constant (halved at k = 0).
    """
    nodes, parts, start = [], [], 0
    for order in orders:
        theta = np.pi * np.arange(1, order) / order
        cot = 1.0 / np.tan(theta)
        nu = 0.4 * order * np.concatenate(([1.0], theta * (cot + 1j)))
        sigma = np.concatenate(([0.0], theta + (theta * cot - 1.0) * cot))
        omega = 0.4 * np.exp(nu) * (1.0 + 1j * sigma)
        omega[0] *= 0.5
        omega.flags.writeable = False
        nodes.append(nu)
        parts.append((slice(start, start + order), omega))
        start += order
    stacked = np.concatenate(nodes)
    stacked.flags.writeable = False
    return stacked, tuple(parts)


# ---------------------------------------------------------------------------
# Scale evaluator
# ---------------------------------------------------------------------------

@dataclass
class ScaleEvaluator:
    """Scale-function evaluator with closed-form short-circuits.

    Immutable after construction: the validation grid is built eagerly, so
    concurrent readers never observe partial state.
    """

    model: LevyModel
    use_closed_form: bool = True
    closed_form: Optional[ClosedForm] = field(init=False, default=None)
    phi0: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not self.model.validated:
            raise PreconditionViolatedError("evaluator needs a validated model")
        self.phi0 = self.model.phi_zero().value
        if self.use_closed_form:
            tilted = self.model.tilted
            self.closed_form = tilted.jumps.closed_form(tilted)
        # the function inverted: W itself would overflow here once Phi(0) > 35
        grid_w = self.w_shifted(np.geomspace(0.05, 20.0, 16))
        scale = max(grid_w.max(), 1e-300)
        if (grid_w <= 0.0).any() or (np.diff(grid_w) < -MONOTONE_RTOL * scale).any():
            raise InversionUnstableError(
                "scale function not positive/nondecreasing on the cache grid")

    # -- core inversions -----------------------------------------------------

    def _w_talbot(self, x, orders: tuple[int, ...], twice=None, slope=False) -> tuple:
        """W_shift at x for each of `orders` Talbot node counts, from one psi
        call on the nodes of all of them: floats for a float x, arrays for a
        1-D array of x (one row of nodes per point).  With `slope`, g = W' -
        Phi(0) W instead, the inverse of (s - Phi(0))/psi(s) - W(0).

        `twice`, for orders (N, 2N) and an array x, pairs the points:
        x[twice[i]] == 2 x[i], or twice[i] < 0 where 2 x[i] is not in x.  The
        even 2N nodes are nu^{2N}_{2k} = 2 nu^N_k bitwise, so the N-node
        value at a paired x[i] reads psi at the even 2N nodes of x[twice[i]],
        and only the unpaired points add N nodes of their own."""
        nodes, parts = _talbot_rules(orders)
        array = isinstance(x, np.ndarray)
        if twice is None:
            s = nodes / (x[:, None] if array else x)
        else:
            (lo, omega_lo), (hi, omega_hi) = parts
            own = twice < 0
            s = np.concatenate(((nodes[hi] / x[:, None]).ravel(),
                                (nodes[lo] / x[own, None]).ravel()))
        # a node where psi reads 0 gives 1/psi = inf, and the NaN it leaves
        # in the sums fails the order check of `_w_checked`
        with np.errstate(all="ignore"):
            psi = (self.model if slope else self.model.tilted).laplace_exponent_array(s)
            if not np.isfinite(psi).all():
                raise NumericalOverflowError(
                    f"psi overflows at the Talbot nodes of x={np.min(x):g}")
            transform = ((s - self.phi0) / psi - 1.0 / self.model.drift_at_infinity
                         if slope else 1.0 / psi)
            if twice is not None:
                top = transform[:len(x) * omega_hi.size].reshape(len(x), -1)
                rows = top[twice, ::2]
                rows[own] = transform[top.size:].reshape(-1, omega_lo.size)
                return (rows @ omega_lo).real / x, (top @ omega_hi).real / x
            values = tuple((transform[..., part] @ omega).real / x for part, omega in parts)
        return values if array else tuple(map(float, values))

    def _w_checked(self, x, twice=None, slope=False):
        """W_shift (or with `slope`, g) at a float x or at each x of a 1-D
        array: the 2N-node Talbot value, once the N-node value agrees with it
        to ORDER_AGREEMENT_RTOL.  `twice` pairs x with 2x as in `_w_talbot`."""
        lo, hi = self._w_talbot(x, (TALBOT_ORDER, 2 * TALBOT_ORDER), twice, slope)
        # |hi - lo| <= RTOL * (|hi| + 1e-300), in operators that take a float
        # as cheaply as an array, and false where lo or hi is NaN or infinite
        ok = abs(hi - lo) - ORDER_AGREEMENT_RTOL * abs(hi) <= ORDER_AGREEMENT_RTOL * 1e-300
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            i = np.flatnonzero(np.logical_not(ok))[0]
            raise InversionUnstableError(
                f"orders {TALBOT_ORDER} and {2 * TALBOT_ORDER} disagree at "
                f"x={np.ravel(x)[i]:g}: {np.ravel(lo)[i]:.6g} vs {np.ravel(hi)[i]:.6g}")
        return hi

    def w_shifted(self, x: float | np.ndarray, twice=None) -> float | np.ndarray:
        """W_shift(x) = e^{-Phi(0)x} W(x), the scale function of
        `LevyModel.tilted` (the inverse of 1/psi(s + Phi(0)), its limit
        1/psi'(Phi(0)) when that is finite), at a float x or at each x of a
        1-D array; the conditional-expectation bracket is W_shift(y) -
        W_shift(y - x).  Zero for x < 0, -inf included; W(0) =
        1/`LevyModel.drift_at_infinity` where no closed form gives it; NaN
        and +inf raise, naming the first such x.  A float stays on scalar
        arithmetic; a table goes TABLE_BLOCK points at a time to the closed
        form or one checked Talbot evaluation, within about 1e-12 relative of
        its points.  `twice` pairs a table of at most TABLE_BLOCK points x > 0
        with 2x as in `_w_talbot`."""
        if not isinstance(x, np.ndarray):
            if x < 0.0:
                return 0.0
            if not x < math.inf:
                raise PreconditionViolatedError(f"x must be finite, got {x}")
            if self.closed_form is not None:
                return float(self.closed_form.w(x))
            return self._w_checked(x) if x > 0.0 else 1.0 / self.model.drift_at_infinity
        bad = np.isnan(x) | (x == math.inf)
        if bad.any():
            raise PreconditionViolatedError(f"x must be finite, got {x[bad][0]}")
        out, rows = np.zeros(len(x)), np.flatnonzero(x > 0.0)
        out[x == 0.0] = self.w_shifted(0.0)
        for i in range(0, len(rows), TABLE_BLOCK):
            block = rows[i:i + TABLE_BLOCK]
            out[block] = (self._w_checked(x[block], twice) if self.closed_form is None
                          else self.closed_form.w(x[block]))
        return out

    def scale_w(self, x: float | np.ndarray) -> float | np.ndarray:
        """W(x) = e^{Phi(0)x} W_shift(x) with the contract of `w_shifted`; the
        growth factor is libm's exp at a float, numpy's on an array."""
        wn = self.w_shifted(x)
        if not isinstance(x, np.ndarray):
            try:
                return math.exp(self.phi0 * x) * wn if x > 0.0 else wn
            except OverflowError as exc:
                raise NumericalOverflowError(f"W({x:g}) overflows") from exc
        with np.errstate(over="ignore"):
            growth = np.exp(self.phi0 * np.maximum(x, 0.0))
        if np.isinf(growth).any():
            raise NumericalOverflowError(f"W({x[np.isinf(growth)][0]:g}) overflows")
        return growth * wn

    # -- potential density ---------------------------------------------------

    def _tilted_density_fn(self, d: float) -> Callable[[np.ndarray], np.ndarray]:
        """z -> W_shift(z) - W_shift(z-d) on a 1-D array of z, 0 at z <= 0:
        the potential density of `LevyModel.tilted`, whose Phi(0) is 0: the
        closed form, or W_shift at z and z - d from one checked Talbot
        evaluation (`w_shifted`).  Beyond d, where the two terms approach one
        limit and cancel, Talbot values below 1e-12 of the value at max(d, 1)
        read 0, so spurious increments cannot masquerade as a tail."""
        if self.closed_form is not None:
            potential = self.closed_form.potential
            return lambda z: np.array([potential(v, d) if v > 0.0 else 0.0 for v in z.tolist()])

        def direct(z: np.ndarray) -> np.ndarray:
            pos, lag = z > 0.0, z > d
            lead, lagged = np.zeros((2, len(z)))
            lead[pos], lagged[lag] = np.split(
                self.w_shifted(np.concatenate((z[pos], z[lag] - d))), [np.count_nonzero(pos)])
            return lead - lagged

        floor = 1e-12 * max(abs(direct(np.array([max(d, 1.0)]))[0]), 1e-300)

        def density(z: np.ndarray) -> np.ndarray:
            val = direct(z)
            return np.where((np.abs(val) > floor) | (z <= d), val, 0.0)

        return density

    def _potential_density_fn(self, d: float) -> Callable[[np.ndarray], np.ndarray]:
        """z -> e^{-Phi(0)d} W(z) - W(z-d) on a 1-D array of z, 0 at z <= 0:
        e^{Phi(0)(z-d)} times the tilted density up to z = d + 1/Phi(0), and
        beyond it the integral of d/dv e^{-Phi(0)v} W(z-d+v) = e^{-Phi(0)v}
        g(z-d+v) over v in [0, min(d, 40/Phi(0))], K15 on pieces [0, 1], [1, 2],
        [2, 4], ... of v in units of 1/Phi(0), so rounding z - d moves no node."""
        density, phi0 = self._tilted_density_fn(d), self.phi0
        if not phi0:
            return density
        top = min(d, 40.0 / phi0)
        edges = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) / phi0
        edges = np.append(edges[edges < top], top)
        v = _nodes(edges[:-1], edges[1:]).ravel()
        weights = (np.diff(edges)[:, None] / 2.0 * K15_WEIGHTS).ravel() * np.exp(-phi0 * v)

        def potential(z: np.ndarray) -> np.ndarray:
            near, out = z <= d + 1.0 / phi0, np.empty(len(z))
            out[near] = np.exp(phi0 * (z[near] - d)) * density(z[near])
            if not near.all():
                u = ((z[~near] - d)[:, None] + v).ravel()
                g = [self._w_checked(u[i:i + TABLE_BLOCK], slope=True)
                     for i in range(0, len(u), TABLE_BLOCK)]
                out[~near] = np.concatenate(g).reshape(-1, len(v)) @ weights
            return out

        return potential

    def potential_density(self, x: float, y: float) -> float:
        """Density of the expected occupation measure before hitting 0:

        e^{-Phi(0)x} W(y) - W(y-x), for the process started at x > 0.  Far out
        it tends to the plateau (e^{-Phi(0)x} - 1)/psi'(0+) when Phi(0) > 0
        (see `_potential_density_fn`), and, without a closed form, reads 0
        below 1e-12 of its value at max(x, 1) when Phi(0) = 0.
        """
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):
            raise ValueError(f"x and y must be finite and > 0, got x={x}, y={y}")
        return float(self._potential_density_fn(x)(np.array([float(y)]))[0])

    # -- expectation formulas -------------------------------------------------

    def occupation_expectation(self, f: FunctionalSpec, x: float, y: float) -> float:
        """E_x[time-integral of f(Z) until first passage below y], 0 < y < x.

        Equals integral_0^inf f(z+y) [e^{-Phi(0)(x-y)} W(z) - W(z-x+y)] dz;
        returns +inf when the integral diverges.  Constant f and f with a
        Laplace density take the transform route, `Generic` f the inversion
        route (see the module docstring).
        """
        if not 0.0 < y < x < math.inf:
            raise PreconditionViolatedError(f"need 0 < y < x < inf, got x={x}, y={y}")
        if _has_transform(f):
            return occupation_transform(self.model, f, x, y)
        d = x - y
        density = self._potential_density_fn(d)

        def integrand(z: np.ndarray) -> np.ndarray:
            return f.values(z + y) * density(z)

        head = improper_integral_verdict(integrand, AtZeroPlus(d))
        if not head.converges:
            raise QuadratureFailureError(f"0+ verdict not convergent: {head.diagnostics}")
        tail = improper_integral_verdict(integrand, AtInfinity(d))
        if tail.diverges:
            return math.inf
        if not tail.converges:
            raise QuadratureFailureError(
                f"tail verdict inconclusive: {tail.diagnostics}")
        return head.value + tail.value

    def conditional_exp_functional(self, f: FunctionalSpec, x: float,
                                   lam: float = 1.0) -> float:
        """E_x[integral_0^{hit} f(Z_t) e^{-lam Z_t} dt | the process hits 0].

        Equals integral_0^inf f(y) e^{-lam*y} B(y) dy with
        B(y) = e^{-Phi(0)y}[W(y) - e^{Phi(0)x} W(y-x)] = W_shift(y) -
        W_shift(y-x), the potential density of `LevyModel.tilted`; +inf when
        f is too singular at 0+ for the integral to exist.  Finiteness does
        not depend on lam, so the default lam = 1 suffices for the finiteness
        test; for f = 1 the closed form (1 - e^{-lam*x}) / psi(lam + Phi(0)) is
        available as :func:`conditional_exp_constant_closed_form`.  The kind
        of f picks the route as in :meth:`occupation_expectation`.
        """
        if not (0.0 < x < math.inf and 0.0 < lam < math.inf):
            raise PreconditionViolatedError(f"need finite x > 0 and lam > 0, got x={x}, lam={lam}")
        if _has_transform(f):
            return conditional_exp_transform(self.model, f, x, lam)
        bracket = self._tilted_density_fn(x)

        def integrand(y: np.ndarray) -> np.ndarray:
            return np.exp(-lam * y) * f.values(y) * bracket(y)

        split = min(x, 1.0) / 2.0
        zero_side = improper_integral_verdict(integrand, AtZeroPlus(split))
        if zero_side.diverges:
            return math.inf
        if not zero_side.converges:
            raise QuadratureFailureError(
                f"0+ verdict inconclusive: {zero_side.diagnostics}")
        mid = finite_integral(integrand, split, x)
        tail = improper_integral_verdict(integrand, AtInfinity(x))
        if not tail.converges:
            raise QuadratureFailureError(
                f"tail verdict not convergent: {tail.diagnostics}")
        return zero_side.value + mid + tail.value


# ---------------------------------------------------------------------------
# Transform-domain expectation formulas
# ---------------------------------------------------------------------------

def _has_transform(f: FunctionalSpec) -> bool:
    """Whether f is constant or has a Laplace density: the transform route."""
    return f.constant is not None or f.laplace_density() is not None


def conditional_exp_transform(model: LevyModel, f: FunctionalSpec, x: float,
                              lam: float) -> float:
    """The conditional expectation of :meth:`ScaleEvaluator.conditional_exp_functional`
    for constant f or f with a Laplace density g, without inversion:

    integral_0^inf g(t) (1 - e^{-(t+lam)x}) / psi_Phi(t + lam) dt,

    psi_Phi(s) = psi(s + Phi(0)) the exponent of `LevyModel.tilted`.

    Its tail at infinity is the extinction integral's, so `extinction_test`
    decides finiteness.
    """
    if not (0.0 < x < math.inf and 0.0 < lam < math.inf):
        raise PreconditionViolatedError(f"need finite x > 0 and lam > 0, got x={x}, lam={lam}")
    if f.constant is not None:
        return f.constant * conditional_exp_constant_closed_form(model, x, lam)
    g = f.laplace_density()
    if g is None:
        raise PreconditionViolatedError("f has no Laplace density")
    tail = extinction_test(model, f)
    if tail.diverges:
        return math.inf
    if not tail.converges:
        raise QuadratureFailureError(f"extinction verdict inconclusive: {tail.diagnostics}")
    g, psi = _on_arrays(g), model.tilted.laplace_exponent_array

    def integrand(t: np.ndarray) -> np.ndarray:
        return g(t) * -np.expm1(-(t + lam) * x) / psi(t + lam)

    return finite_integral(integrand, 0.0, math.inf)


def occupation_transform(model: LevyModel, f: FunctionalSpec, x: float, y: float) -> float:
    """The occupation expectation of :meth:`ScaleEvaluator.occupation_expectation`
    for constant f or f with a Laplace density g, without inversion:

    integral_0^inf g(t) e^{-yt} (e^{-Phi(0)d} - e^{-td}) / psi(t) dt, d = x - y.
    """
    if not 0.0 < y < x < math.inf:
        raise PreconditionViolatedError(f"need 0 < y < x < inf, got x={x}, y={y}")
    d = x - y
    phi0 = model.phi_zero().value
    d0 = model.laplace_exponent_derivative(0.0)
    if f.constant is not None:
        # the integral of the potential density: the transform at s -> 0+
        return f.constant * d / d0 if phi0 == 0.0 and d0 > 0.0 else math.inf
    g = f.laplace_density()
    if g is None:
        raise PreconditionViolatedError("f has no Laplace density")
    g, psi = _on_arrays(g), model.laplace_exponent_array

    def integrand(t: np.ndarray) -> np.ndarray:
        # e^{-Phi(0)d} - e^{-td} as a product, exact through t = Phi(0)
        return g(t) * np.exp(-y * t - phi0 * d) * -np.expm1((phi0 - t) * d) / psi(t)

    split = phi0 / 2.0 if phi0 > 0.0 else 1.0
    # with psi'(0+) > 0 the integrand is g(t) times a bounded factor near 0+
    if phi0 > 0.0 or d0 == 0.0:
        head = improper_integral_verdict(integrand, AtZeroPlus(split))
        if head.diverges:
            return math.inf
        if not head.converges:
            raise QuadratureFailureError(f"0+ verdict inconclusive: {head.diagnostics}")
        value = head.value
    else:
        value = finite_integral(integrand, 0.0, split)
    if phi0 > 0.0:
        # the doubling edges from Phi(0)/2 put the removable point t = Phi(0)
        # on a panel edge, where no node sits
        top = max(2.0 * phi0, 1.0)
        value += finite_integral(integrand, split, top)
        return value + finite_integral(integrand, top, math.inf)
    return value + finite_integral(integrand, split, math.inf)


def conditional_exp_constant_closed_form(model: LevyModel, x: float, lam: float) -> float:
    """(1 - e^{-lam*x}) / psi(lam + Phi(0)): the f = 1 case in closed form,
    with psi(lam + Phi(0)) the exponent of `LevyModel.tilted` at lam."""
    if not (0.0 < x < math.inf and 0.0 < lam < math.inf):
        raise PreconditionViolatedError(f"need finite x > 0 and lam > 0, got x={x}, lam={lam}")
    return -math.expm1(-lam * x) / model.tilted.laplace_exponent(lam)


@lru_cache(maxsize=1)
def _identity_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points, weights and doubled points of the Laplace-identity rule on
    [0, 1]: IDENTITY_GL_POINTS-point Gauss-Legendre on each panel
    [2^{-j-1}, 2^{-j}], j < IDENTITY_PANELS - 1, and on
    [0, 2^{1-IDENTITY_PANELS}].  Each panel halves the next one exactly, so
    the points of all but the first and last panel double bitwise to points
    of the next; `twice` indexes them as `ScaleEvaluator._w_talbot` reads it,
    -1 where 2y is not a point."""
    nodes, weights = np.polynomial.legendre.leggauss(IDENTITY_GL_POINTS)
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(IDENTITY_PANELS - 1.0, -1.0, -1.0)))
    half = np.diff(edges)[:, None] / 2.0
    points = (edges[:-1, None] + half * (nodes + 1.0)).ravel()
    weights = (half * weights).ravel()
    twice = np.searchsorted(points, 2.0 * points)
    twice[points[np.minimum(twice, points.size - 1)] != 2.0 * points] = -1
    for a in (points, weights, twice):
        a.flags.writeable = False
    return points, weights, twice


def _identity_truncation(ev: ScaleEvaluator, rate: float) -> float:
    """The first M of 1, 2, 4, ... with e^{-rate M} W_shift(M) below
    IDENTITY_INTEGRAND_TOL.  W_shift is nondecreasing (it is the scale
    function of the process tilted by Phi(0)), so W_shift(M) is at least
    its last evaluated value, less MONOTONE_RTOL of it, and W_shift is
    evaluated only at the M that bound does not decide.  The M is that of
    evaluating W_shift at every M."""
    M, floor = 1.0, 0.0
    while True:
        decay = math.exp(-rate * M)
        if decay * floor < IDENTITY_INTEGRAND_TOL:
            w = ev.w_shifted(M)
            if decay * w < IDENTITY_INTEGRAND_TOL:
                return M
            floor = w * (1.0 - MONOTONE_RTOL)
        M *= 2.0
        if M > 2.0**40:
            raise QuadratureFailureError("no usable truncation point found")


def laplace_identity_residual(ev: ScaleEvaluator, lam: float) -> float:
    """|psi(lam) * integral_0^M e^{-lam*y} W(y) dy - 1| for lam > Phi(0).

    The integrand is the W that `ev` publishes, in shifted form
    e^{-(lam-Phi(0))y} W_shift(y).  M is the first of 1, 2, 4, ... where the
    integrand drops below IDENTITY_INTEGRAND_TOL; the search evaluates W
    only at the M that W_shift's monotonicity leaves open (see
    `_identity_truncation`).  The integral is a fixed rule on [0, M],
    Gauss-Legendre on panels graded geometrically towards 0, where
    W(y) ~ y^gamma (see `_identity_rule`).  Without a closed form its points
    take one Talbot evaluation, each checked N against 2N nodes as
    `ScaleEvaluator.w_shifted` checks one; the N-node check of a point y
    reads psi at the 2N nodes of the point 2y where there is one, so the
    psi call covers 160 x 28 + 16 x 14 nodes.
    """
    phi0 = ev.phi0
    if not phi0 < lam < math.inf:
        raise PreconditionViolatedError(f"lam must be finite and > Phi(0), got {lam}")
    rate = lam - phi0
    M = _identity_truncation(ev, rate)
    points, weights, twice = _identity_rule()
    ys = M * points
    val = M * (weights @ (np.exp(-rate * ys) * ev.w_shifted(ys, twice)))
    return abs(ev.model.laplace_exponent(lam) * val - 1.0)
