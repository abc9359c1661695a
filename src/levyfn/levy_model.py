"""Spectrally positive Levy process models.

A model is a triplet (drift b, Gaussian coefficient c >= 0, jump measure pi
on (0, inf)) for a process with no negative jumps,

    Z_t = x - b*t + sqrt(2c)*B_t + (compensated jumps of size <= 1) + (jumps > 1),

whose Laplace exponent

    psi(lam) = b*lam + c*lam**2
               + integral (exp(-lam*u) - 1 + lam*u*1{u <= 1}) pi(du)

satisfies E_x[exp(-lam*Z_t)] = exp(-lam*x + psi(lam)*t).  psi is strictly
convex with psi(0) = 0, and for a non-monotone process psi(lam) -> +inf.

Each jump family is one frozen dataclass, and everything the package knows
about a family lives in it: its JSON tag and parameter checks, its density
and jump integrals, psi and psi' as closures, its closed-form scale function
if psi has one, and its jump-size sampler.  `_Family` states this contract;
its defaults describe the empty measure.  Callers ask the family instead of
branching on it, so a new family is one class plus its entry in `JumpSpec`.
A family writes its psi constants once, against float (`math`), numpy or
mpmath arithmetic, and the model builds the float and numpy closures once;
the numpy psi takes complex arrays, the nodes of the Laplace inversion in
:mod:`levyfn.scale_fn`.  All families
admit closed forms for psi and psi'; a direct quadrature evaluation of the
jump integral is kept alongside as an independent cross-check.

The tempered-stable jump part, C*Gamma(-alpha)*((lam+q)**alpha - q**alpha -
alpha*q**(alpha-1)*lam), is an O(lam**2) remainder of O(q**alpha) terms near
lam = 0, so the float psi evaluates it as K*(expm1(alpha*log1p(u)) - alpha*u)
with u = lam/q and K = C*Gamma(-alpha)*q**alpha.  Its rounding error is then
O(eps*lam) instead of O(eps*q**alpha), and psi keeps full relative accuracy
down to lam ~ 1e-14 wherever psi'(0+) != 0, as the explosion test's
integral near 0+ needs.  The numpy psi takes the same form, with complex
log1p in Kahan's form (`_log1p_np`).  The high-precision (mpmath) psi, the
reference the inversion is tested against, keeps the direct form: at its
working precision the cancellation is harmless.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, ClassVar, Optional, get_args

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, gamma, gammainc, gammaincc, zeta

from .errors import (
    BracketNotFoundError,
    InvalidJumpIndexError,
    NegativeGaussianError,
    NonPositiveStartError,
    NumericalOverflowError,
    SubordinatorError,
)

EULER_GAMMA = 0.5772156649015328606

# Geometric probe grid for the "not a subordinator" check and root bracketing.
PROBE_LO = 1e-6
PROBE_HI = 1e8
PROBE_RATIO = 2.0

# Absolute tolerance for the positive root of psi.
ROOT_TOL = 1e-10


# |s| below which Gamma(s, x < 1) is taken from a series that is smooth in s:
# the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x)/s loses digits in
# proportion to 1/|s|.
SMALL_S = 0.1
# (-1)^k zeta(k)/k for k = 2..25: the series of log Gamma(1+s) + gamma*s,
# whose terms fall below 1e-17 at |s| <= SMALL_S well before k = 25.
_LGAMMA1P_COEFFS = tuple((-1) ** k * float(zeta(k)) / k for k in range(2, 26))


def _upper_gamma_cf(s: float, x: float) -> float:
    """Gamma(s, x) for x >= 1 by Legendre's continued fraction
    e^-x x^s / (x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))),
    evaluated by the modified Lentz method."""
    tiny = 1e-300
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 300):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(s * math.log(x) - x) * h


def _upper_gamma_series(s: float, x: float) -> float:
    """Gamma(s, x) for 0 < |s| <= SMALL_S and 0 < x < 1, as Gamma(s) -
    gamma(s, x) with the two poles at s = 0 cancelled by hand:
    (Gamma(1+s) - 1)/s - (x^s - 1)/s - x^s sum_{k>=1} (-x)^k / (k! (s+k))."""
    acc = 0.0
    for coeff in reversed(_LGAMMA1P_COEFFS):
        acc = acc * s + coeff
    gamma1pm1_over_s = math.expm1(s * (s * acc - EULER_GAMMA)) / s
    log_x = math.log(x)
    total, term, k = 0.0, 1.0, 1
    while True:
        term *= -x / k
        inc = term / (s + k)
        total += inc
        if abs(inc) <= 1e-17 * abs(total):
            break
        k += 1
    return gamma1pm1_over_s - math.expm1(s * log_x) / s - math.exp(s * log_x) * total


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for s in (-1, 1) and x > 0."""
    if s == 0.0:
        return float(exp1(x))
    if x >= 1.0:
        return _upper_gamma_cf(s, x)
    if abs(s) <= SMALL_S:
        return _upper_gamma_series(s, x)
    if s > 0.0:
        return float(gammaincc(s, x) * gamma(s))
    # Gamma(s, x) = (Gamma(s+1, x) - x**s e^-x) / s, with s + 1 in (0, 1)
    return float(gammaincc(s + 1.0, x) * gamma(s + 1.0) - x**s * math.exp(-x)) / s


def _log1p_np(u):
    """np.log1p, in Kahan's form log(w) u/(w - 1), w = 1 + u, for complex u,
    and u itself where w rounds to 1: numpy's complex log1p keeps about
    eps/|u| relative accuracy."""
    if not np.iscomplexobj(u):
        return np.log1p(u)
    w = 1.0 + u
    d = w - 1.0
    if np.count_nonzero(d) == np.size(d):
        return np.log(w) * (u / d)
    live = d != 0.0
    return np.where(live, np.log(w) * (u / np.where(live, d, 1.0)), u)


# The arithmetic a family writes its psi constants against: float64, numpy
# (float64 constants; psi then takes real or complex arrays), or mpmath at
# the caller's working precision.  `xlogx(x)` is x*log(x), 0 at x = 0.
_FLOAT = SimpleNamespace(real=float, gamma=math.gamma, exp=math.exp, log=math.log,
                         expm1=math.expm1, log1p=math.log1p, euler=EULER_GAMMA,
                         upper_gamma=_upper_gamma,
                         xlogx=lambda x: x * math.log(x) if x > 0 else 0.0)
_NP = SimpleNamespace(**{**vars(_FLOAT), "log": np.log, "expm1": np.expm1,
                         "log1p": _log1p_np, "xlogx": lambda x: x * np.log(x)})
_MP = SimpleNamespace(real=mp.mpf, gamma=mp.gamma, exp=mp.exp, log=mp.log,
                      expm1=mp.expm1, log1p=mp.log1p, euler=mp.euler,
                      upper_gamma=mp.gammainc,
                      xlogx=lambda x: x * mp.log(x) if x > 0 else 0.0)


# ---------------------------------------------------------------------------
# Jump measure families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """A closed-form scale function.

    `w_shifted(x)` is W_shift(x) = e^{-Phi(0)x} W(x) for x >= 0,
    `potential(z, d)` the potential density e^{-Phi(0)d} W(z) - W(z-d) for
    z > 0, and `power` is (kappa, p) when psi(lam) = kappa * lam**p exactly.
    """

    w_shifted: Callable[[float], float]
    potential: Callable[[float, float], float]
    power: Optional[tuple[float, float]] = None


class _Family:
    """The contract of a jump family; the defaults are the empty measure's."""

    tag: ClassVar[str]

    def check(self) -> None:
        """Raise for parameters outside the family's domain."""

    def density(self, u: float) -> float:
        """Levy density pi(u) for u > 0."""
        return 0.0

    def tail_mass(self, eps: float) -> float:
        """pi([eps, inf)): the rate of jumps of size >= eps."""
        return 0.0

    def mean_eps_to_one(self, eps: float) -> float:
        """integral_{[eps, 1]} u pi(du) for eps < 1."""
        return 0.0

    def small_variance(self, eps: float) -> float:
        """integral_{(0, eps)} u^2 pi(du)."""
        return 0.0

    def exponent(self, b, c, ops) -> dict:
        """psi and psi' as closures ("psi", "dpsi"), with the constants they use.

        "b" is the drift with the jump compensator folded in.  Constants are
        computed in `ops` arithmetic (`_FLOAT`, `_NP` or `_MP`, inside the
        working precision), from drift `b` and Gaussian coefficient `c` given
        in it.  The `_NP` psi takes real or complex arrays.
        """
        def psi(lam):
            return b * lam + c * lam * lam

        def dpsi(lam):
            return b + 2 * c * lam

        return {"b": b, "c": c, "psi": psi, "dpsi": dpsi}

    def closed_form(self, model: LevyModel) -> Optional[ClosedForm]:
        """The closed-form scale function of `model`, if there is one."""
        return None

    def sampler(self, eps: float) -> Optional[Callable]:
        """`sample(gen, n)`: n jump sizes from pi restricted to [eps, inf),
        normalized; None when there are no jumps."""
        return None


def _check_index_and_scale(alpha: float, scale: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise InvalidJumpIndexError(f"alpha={alpha} outside (0, 2)")
    if scale <= 0.0:
        raise ValueError("jump scale must be > 0")


@dataclass(frozen=True)
class NoJumps(_Family):
    """Empty jump measure (Brownian motion with drift, or pure drift)."""

    tag: ClassVar[str] = "none"

    def closed_form(self, model):
        b, c = model.drift, model.gaussian
        if c == 0.0:  # pure drift
            if b <= 0.0:
                return None
            return ClosedForm(lambda x: 1.0 / b, lambda z, d: 1.0 / b if z <= d else 0.0, (b, 1.0))
        if b == 0.0:
            return ClosedForm(lambda x: x / c, lambda z, d: min(z, d) / c, (c, 2.0))
        if b > 0.0:  # Phi(0) = 0
            return ClosedForm(
                lambda x: -math.expm1(-b * x / c) / b,
                lambda z, d: (-math.expm1(-b * z / c) / b if z <= d
                              else math.exp(-b * z / c) * math.expm1(b * d / c) / b))
        phi0 = model.phi_zero().value  # = -b/c
        return ClosedForm(
            lambda x: math.expm1(-phi0 * x) / b,
            lambda z, d: (math.exp(-phi0 * d) * math.expm1(phi0 * z) / (-b) if z <= d
                          else -math.expm1(-phi0 * d) / (-b)))


@dataclass(frozen=True)
class StablePositive(_Family):
    """One-sided stable jumps, density scale * z**(-1-alpha) dz on (0, inf)."""

    alpha: float
    scale: float
    tag: ClassVar[str] = "stable"

    def check(self):
        _check_index_and_scale(self.alpha, self.scale)

    def density(self, u):
        return self.scale * u ** (-1.0 - self.alpha)

    def tail_mass(self, eps):
        return self.scale * eps ** (-self.alpha) / self.alpha

    def mean_eps_to_one(self, eps):
        a, C = self.alpha, self.scale
        if a == 1.0:
            return C * math.log(1.0 / eps)
        return C * (1.0 - eps ** (1.0 - a)) / (1.0 - a)

    def small_variance(self, eps):
        a = self.alpha
        return self.scale * eps ** (2.0 - a) / (2.0 - a)

    def exponent(self, b, c, ops):
        a, C = ops.real(self.alpha), ops.real(self.scale)
        if self.alpha == 1.0:
            beff, log, xlogx = b + C * (ops.euler - 1), ops.log, ops.xlogx

            def psi(lam):
                return beff * lam + c * lam * lam + C * xlogx(lam)

            def dpsi(lam):
                return beff + 2 * c * lam + C * (1 + log(lam)) if lam > 0 else -math.inf

            return {"b": beff, "c": c, "psi": psi, "dpsi": dpsi}
        CG = C * ops.gamma(-a)  # Gamma(-a) > 0 for a in (1,2), < 0 for a in (0,1)
        beff = b - C / (a - 1) if self.alpha > 1.0 else b + C / (1 - a)

        def psi(lam):
            return beff * lam + c * lam * lam + CG * lam**a

        def dpsi(lam):
            if lam == 0.0:
                return beff if a > 1.0 else -math.inf
            return beff + 2 * c * lam + CG * a * lam ** (a - 1)

        return {"b": beff, "c": c, "CG": CG, "psi": psi, "dpsi": dpsi}

    def closed_form(self, model):
        # psi(lam) = C Gamma(-a) lam**a when c = 0 and psi'(0+), the net drift, is 0
        a = self.alpha
        if (model.gaussian != 0.0 or a <= 1.0 or abs(model.laplace_exponent_derivative(0.0))
                > 1e-14 * max(1.0, abs(model.drift))):
            return None
        g = math.gamma(a)

        def potential(z, d):
            if z <= d:
                return z ** (a - 1.0) / g
            # z^(a-1) - (z-d)^(a-1) without large-z cancellation
            return -(z ** (a - 1.0)) * math.expm1((a - 1.0) * math.log1p(-d / z)) / g

        return ClosedForm(lambda x: x ** (a - 1.0) / g, potential,
                          (self.scale * math.gamma(-a), a))

    def sampler(self, eps):
        inv = -1.0 / self.alpha

        def sample(gen, n):
            # inverse transform of the Pareto tail: pi|[eps,inf) has cdf
            # 1 - (u/eps)^(-alpha)
            return eps * (1.0 - gen.random(n)) ** inv

        return sample


@dataclass(frozen=True)
class CompoundPoissonExp(_Family):
    """Compound Poisson jumps at `rate`, exponential sizes with mean `jump_mean`.

    Density: rate * mu * exp(-mu*z) dz with mu = 1/jump_mean.
    """

    rate: float
    jump_mean: float
    tag: ClassVar[str] = "cpexp"

    @property
    def mu(self) -> float:
        return 1.0 / self.jump_mean

    def check(self):
        if self.rate <= 0.0 or self.jump_mean <= 0.0:
            raise ValueError("rate and jump_mean must be > 0")

    def density(self, u):
        mu = self.mu
        return self.rate * mu * math.exp(-mu * u)

    def tail_mass(self, eps):
        return self.rate * math.exp(-self.mu * eps)

    def mean_eps_to_one(self, eps):
        mu, rho = self.mu, self.rate
        return rho * (math.exp(-mu * eps) * (mu * eps + 1.0) - math.exp(-mu) * (mu + 1.0)) / mu

    def small_variance(self, eps):
        mu, rho = self.mu, self.rate
        return rho * (2.0 - math.exp(-mu * eps) * (mu * eps * (mu * eps + 2.0) + 2.0)) / mu**2

    def exponent(self, b, c, ops):
        mu, rho = 1 / ops.real(self.jump_mean), ops.real(self.rate)
        beff = b + rho * (1 - ops.exp(-mu) * (1 + mu)) / mu

        def psi(lam):
            return beff * lam + c * lam * lam - rho * lam / (lam + mu)

        def dpsi(lam):
            return beff + 2 * c * lam - rho * mu / (lam + mu) ** 2

        return {"b": beff, "c": c, "psi": psi, "dpsi": dpsi}

    def sampler(self, eps):
        mean = self.jump_mean
        # memoryless: the restriction to [eps, inf) is eps + Exp(mu)
        return lambda gen, n: eps + gen.exponential(mean, n)


@dataclass(frozen=True)
class TemperedStable(_Family):
    """Exponentially tempered stable jumps, density scale * exp(-q z) * z**(-1-alpha) dz."""

    alpha: float
    scale: float
    tempering: float
    tag: ClassVar[str] = "tempered"

    def check(self):
        _check_index_and_scale(self.alpha, self.scale)
        if self.tempering <= 0.0:
            raise ValueError("tempering must be > 0")

    def density(self, u):
        return self.scale * math.exp(-self.tempering * u) * u ** (-1.0 - self.alpha)

    def tail_mass(self, eps):
        # C q^a Gamma(-a, q eps); for a >= 1 below q eps = 1, Gamma(-a, x) =
        # (x^-a e^-x - Gamma(1-a, x))/a with 1 - a in (-1, 0]
        a, C, q = self.alpha, self.scale, self.tempering
        x = q * eps
        if a < 1.0:
            g = _upper_gamma(-a, x)
        elif x >= 1.0:
            g = _upper_gamma_cf(-a, x)
        else:
            g = (x**-a * math.exp(-x) - _upper_gamma(1.0 - a, x)) / a
        return C * q**a * g

    def mean_eps_to_one(self, eps):
        # C q^(a-1) [Gamma(1-a, q eps) - Gamma(1-a, q)]
        a, C, q = self.alpha, self.scale, self.tempering
        return C * q ** (a - 1.0) * (_upper_gamma(1.0 - a, q * eps) - _upper_gamma(1.0 - a, q))

    def small_variance(self, eps):
        # C q^(a-2) gamma(2-a, q eps), with the lower incomplete gamma
        a, C, q = self.alpha, self.scale, self.tempering
        return float(C * q ** (a - 2.0) * gammainc(2.0 - a, q * eps) * gamma(2.0 - a))

    def exponent(self, b, c, ops):
        a, C, q = ops.real(self.alpha), ops.real(self.scale), ops.real(self.tempering)
        # tail mean: integral_1^inf u * C e^{-qu} u^{-1-a} du = C q^{a-1} Gamma(1-a, q)
        beff = b - C * q ** (a - 1) * ops.upper_gamma(1 - a, q)
        log1p = ops.log1p
        if self.alpha == 1.0:
            def psi(lam):
                return beff * lam + c * lam * lam + C * ((lam + q) * log1p(lam / q) - lam)

            def dpsi(lam):
                return beff + 2 * c * lam + C * log1p(lam / q)

            return {"b": beff, "c": c, "psi": psi, "dpsi": dpsi}
        CG, qa, expm1 = C * ops.gamma(-a), q**a, ops.expm1
        K = CG * qa
        if ops is not _MP:
            def psi(lam):  # cancellation-free form, see the module docstring
                u = lam / q
                return beff * lam + c * lam * lam + K * (expm1(a * log1p(u)) - a * u)
        else:
            aqa1 = a * q ** (a - 1)

            def psi(lam):
                return beff * lam + c * lam * lam + CG * ((lam + q) ** a - qa - aqa1 * lam)

        def dpsi(lam):
            return beff + 2 * c * lam + K * a / q * expm1((a - 1) * log1p(lam / q))

        return {"b": beff, "c": c, "CG": CG, "psi": psi, "dpsi": dpsi}

    def sampler(self, eps):
        # rejection from the stable proposal, accepted with e^{-q(u-eps)}
        inv = -1.0 / self.alpha
        q = self.tempering

        def sample(gen, n):
            out = np.empty(n)
            filled = 0
            while filled < n:
                m = n - filled
                props = eps * (1.0 - gen.random(m)) ** inv
                keep = props[gen.random(m) < np.exp(-q * (props - eps))]
                take = min(len(keep), m)
                out[filled:filled + take] = keep[:take]
                filled += take
            return out

        return sample


JumpSpec = NoJumps | StablePositive | CompoundPoissonExp | TemperedStable


@lru_cache(maxsize=256)
def jump_tail_mass(jumps: JumpSpec, eps: float) -> float:
    """pi([eps, inf)): the rate of jumps of size >= eps."""
    return jumps.tail_mass(eps)


@lru_cache(maxsize=256)
def jump_mean_eps_to_one(jumps: JumpSpec, eps: float) -> float:
    """integral_{[eps, 1]} u pi(du), the compensator mean of retained small jumps."""
    return 0.0 if eps >= 1.0 else jumps.mean_eps_to_one(eps)


@lru_cache(maxsize=256)
def jump_small_variance(jumps: JumpSpec, eps: float) -> float:
    """integral_{(0, eps)} u^2 pi(du), the variance of discarded small jumps."""
    return jumps.small_variance(eps)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiZero:
    """Largest root of psi: inf{lam > 0 : psi(lam) > 0}.

    `exact_zero` is set when psi'(0+) >= 0, in which case the value is 0 by
    convexity rather than by root finding.
    """

    value: float
    exact_zero: bool


@dataclass(frozen=True)
class LevyModel:
    """Validated triplet with cached Laplace-exponent machinery.

    Instances are immutable; every method is a pure function of the model, so
    a model can be shared freely across threads or workers.
    """

    drift: float
    gaussian: float
    jumps: JumpSpec
    validated: bool = False

    @cached_property
    def _exponent(self) -> dict:
        return self.jumps.exponent(self.drift, self.gaussian, _FLOAT)

    @cached_property
    def _exponent_np(self) -> dict:
        return self.jumps.exponent(self.drift, self.gaussian, _NP)

    # -- Laplace exponent -------------------------------------------------

    def laplace_exponent(self, lam: float) -> float:
        """psi(lam) for lam >= 0, via the family's closed form."""
        if lam < 0:
            raise ValueError("lam must be >= 0")
        val = self._exponent["psi"](lam)
        if not math.isfinite(val):
            raise NumericalOverflowError(f"psi({lam}) is not representable")
        return val

    def laplace_exponent_array(self, lam: np.ndarray) -> np.ndarray:
        """psi elementwise on a real or complex array, off the non-positive
        real axis; entries that overflow come back non-finite."""
        return self._exponent_np["psi"](lam)

    def laplace_exponent_derivative(self, lam: float) -> float:
        """psi'(lam); at lam = 0 this is psi'(0+), which may be -inf."""
        if lam < 0:
            raise ValueError("lam must be >= 0")
        return self._exponent["dpsi"](lam)

    # -- root of psi and derived quantities --------------------------------

    @cached_property
    def _phi0(self) -> PhiZero:
        d0 = self.laplace_exponent_derivative(0.0)
        if d0 >= 0.0:
            return PhiZero(0.0, True)
        # psi dips negative before its unique positive root; bracket it by
        # geometric expansion, then bisect and polish with Newton steps.
        lo, hi = 0.0, None
        lam = PROBE_LO
        while lam <= PROBE_HI:
            if self.laplace_exponent(lam) > 0.0:
                hi = lam
                break
            lo = lam
            lam *= PROBE_RATIO
        if hi is None:
            raise BracketNotFoundError(
                f"no sign change of psi below {PROBE_HI:g}; model mis-validated?")
        while hi - lo > ROOT_TOL:
            mid = 0.5 * (lo + hi)
            if self.laplace_exponent(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        for _ in range(3):
            dpsi = self.laplace_exponent_derivative(root)
            if not math.isfinite(dpsi) or dpsi <= 0.0:
                break
            step = self.laplace_exponent(root) / dpsi
            root -= step
            if abs(step) < 1e-16 * max(1.0, root):
                break
        return PhiZero(max(root, 0.0), False)

    def phi_zero(self) -> PhiZero:
        """inf{lam > 0 : psi(lam) > 0}, to absolute tolerance 1e-10."""
        return self._phi0

    def shifted_exponent(self, lam: float) -> float:
        """psi_shift(lam) = psi(lam + Phi(0)); vanishes at 0, positive beyond."""
        return self.laplace_exponent(lam + self._phi0.value)

    def hit_probability(self, x: float) -> float:
        """P_x(process hits 0 in finite time) = exp(-Phi(0) * x)."""
        if x <= 0:
            raise NonPositiveStartError("starting point x must be > 0")
        return math.exp(-self._phi0.value * x)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(drift: float, gaussian: float, jumps: JumpSpec) -> LevyModel:
    """Validate a raw triplet and return an immutable model.

    Raises InvalidJumpIndexError for a stable index outside (0, 2),
    NegativeGaussianError for c < 0, ValueError for non-finite or other
    non-positive parameters, and SubordinatorError when no probed lambda
    has psi(lambda) > 0 (a monotone process).
    """
    params = {"drift": drift, "gaussian": gaussian, **asdict(jumps)}
    bad = [name for name, v in params.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite model parameters: {', '.join(bad)}")
    jumps.check()
    if gaussian < 0.0:
        raise NegativeGaussianError(f"gaussian coefficient c={gaussian} < 0")

    model = LevyModel(float(drift), float(gaussian), jumps, validated=True)
    lam = PROBE_LO
    while lam <= PROBE_HI:
        if model.laplace_exponent(lam) > 0.0:
            return model
        lam *= PROBE_RATIO
    raise SubordinatorError("psi(lambda) <= 0 on the whole probe grid")


# ---------------------------------------------------------------------------
# JSON configuration (schema shared with the CLI)
# ---------------------------------------------------------------------------

_FAMILY_TAGS = {cls.tag: cls for cls in get_args(JumpSpec)}


def model_from_dict(cfg: dict) -> LevyModel:
    """Build and validate a model from {"drift", "gaussian", "jumps": {...}}."""
    try:
        drift = float(cfg["drift"])
        gaussian = float(cfg["gaussian"])
        jcfg = dict(cfg["jumps"])
        family = jcfg.pop("family")
        params = {k: float(v) for k, v in jcfg.items()}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model config: {exc}") from exc
    if family not in _FAMILY_TAGS:
        raise ValueError(f"unknown jump family {family!r}")
    cls = _FAMILY_TAGS[family]
    expected = [f.name for f in fields(cls)]
    if sorted(params) != sorted(expected):
        raise ValueError(f"jump family {family!r} takes keys {expected}, got {sorted(params)}")
    return validate(drift, gaussian, cls(**params))


def model_to_dict(model: LevyModel) -> dict:
    jumps = {"family": model.jumps.tag, **asdict(model.jumps)}
    return {"drift": model.drift, "gaussian": model.gaussian, "jumps": jumps}


def model_from_json(text: str) -> LevyModel:
    return model_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Independent quadrature route for psi (cross-check of the closed forms)
# ---------------------------------------------------------------------------

def laplace_exponent_quadrature(model: LevyModel, lam: float) -> float:
    """psi(lam) with the jump integral evaluated numerically, split at u = 1.

    Slower and less accurate than the closed forms; kept as an independent
    oracle for tests.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    b, c, density = model.drift, model.gaussian, model.jumps.density
    base = b * lam + c * lam * lam
    if lam == 0.0:
        return base

    def small(u: float) -> float:
        return (math.exp(-lam * u) - 1.0 + lam * u) * density(u)

    def large(u: float) -> float:
        return (math.exp(-lam * u) - 1.0) * density(u)

    with warnings.catch_warnings():
        # the u^(1-alpha) endpoint singularity trips quad's roundoff check
        # long after the value is converged
        warnings.simplefilter("ignore")
        v1, _ = quad(small, 0.0, 1.0, limit=400)
        v2, _ = quad(large, 1.0, math.inf, limit=400)
    return base + v1 + v2


# ---------------------------------------------------------------------------
# High-precision evaluation (the reference for the Laplace inversion)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _hp_consts(model: LevyModel, dps: int) -> dict:
    """The family's psi constants and closures at `dps` decimal digits."""
    with mp.workdps(dps):
        return model.jumps.exponent(mp.mpf(model.drift), mp.mpf(model.gaussian), _MP)


def laplace_exponent_hp(model: LevyModel, lam) -> "mp.mpf":
    """psi(lam) on mpmath floats at the caller's working precision."""
    return _hp_consts(model, mp.mp.dps)["psi"](lam)


@lru_cache(maxsize=128)
def phi_zero_hp(model: LevyModel, dps: int) -> "mp.mpf":
    """Phi(0) refined to `dps` digits (0 when psi'(0+) >= 0)."""
    phi = model.phi_zero()
    if phi.exact_zero or phi.value == 0.0:
        return mp.mpf(0)
    with mp.workdps(dps):
        return mp.findroot(lambda lam: laplace_exponent_hp(model, lam), mp.mpf(phi.value))
