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
about a family lives in it: its JSON tag and parameter checks, its density,
its jump index, psi and psi' as closures, its closed-form scale function if
psi has one, its Esscher tilt (`tilted(theta)`, the family of the density
e^{-theta u} pi(du): stable becomes tempered, tempered and compound Poisson
stay in their family), and its exact increment sampler where the law of an
increment is known (`StableIncrement`), or else its jump-size sampler and
the jump integrals of the truncated step (compound Poisson, tempered with
alpha >= 1).  `_Family` states this contract; its defaults describe the
empty measure.  `LevyModel.tilted` is the model tilted by its own Phi(0),
whose exponent is psi(lam + Phi(0)) and whose scale function is
e^{-Phi(0)x} W(x); the scale-function code inverts that model's exponent
and asks it for closed forms.  `LevyModel.index_at_infinity` derives
psi's index at infinity, and so W's power at 0+, from the jump index, and
`LevyModel.index_at_zero` derives psi's index at 0+ from psi'(0+) and the
jump index at 0+.  `LevyModel.drift_at_infinity`, d = lim psi(lam)/lam,
adds the family's `small_jump_mean` to the drift; it is finite exactly for
bounded variation, and W(0) = 1/d.  Callers ask the family instead of
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

The tempered family's incomplete gamma integrals, the tail mean
C q^(alpha-1) Gamma(1-alpha, q) in psi and the truncated step's jump
integrals, take Legendre's continued fraction where the argument is >= 1
and the K15 quadrature core of :mod:`levyfn.quadrature` below it.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, ClassVar, Optional, get_args

import mpmath as mp
import numpy as np

from .errors import (
    BracketNotFoundError,
    InvalidJumpIndexError,
    NegativeGaussianError,
    NonPositiveStartError,
    NumericalOverflowError,
    PreconditionViolatedError,
    SubordinatorError,
)
from .quadrature import finite_integral

EULER_GAMMA = 0.5772156649015328606

# Geometric probe grid for the "not a subordinator" check and root bracketing.
PROBE_LO = 1e-6
PROBE_HI = 1e8
PROBE_RATIO = 2.0

# Absolute tolerance for the positive root of psi.
ROOT_TOL = 1e-10


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


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for s < 2 and x > 0: the continued
    fraction for x >= 1, else the K15 integral of t^(s-1) e^-t over [x, 1]
    plus Gamma(s, 1)."""
    if x >= 1.0:
        return _upper_gamma_cf(s, x)
    return finite_integral(lambda t: t ** (s - 1.0) * np.exp(-t), x, 1.0) + _upper_gamma_cf(s, 1.0)


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


def _power_np(x, a):
    """x**a, for a complex array x as exp(a log x): glibc's cpow, which
    numpy's complex ** calls, computes the same, and more slowly."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "c":
        return np.exp(a * np.log(x))
    return x**a


# The arithmetic a family writes its psi constants against: float64, numpy
# (float64 constants; psi then takes real or complex arrays), or mpmath at
# the caller's working precision.  `xlogx(x)` is x*log(x), 0 at x = 0, and
# `power(x, a)` is x**a.
_FLOAT = SimpleNamespace(real=float, gamma=math.gamma, exp=math.exp, log=math.log,
                         expm1=math.expm1, log1p=math.log1p, euler=EULER_GAMMA,
                         upper_gamma=_upper_gamma, power=operator.pow,
                         xlogx=lambda x: x * math.log(x) if x > 0 else 0.0)
_NP = SimpleNamespace(**{**vars(_FLOAT), "log": np.log, "expm1": np.expm1,
                         "log1p": _log1p_np, "power": _power_np,
                         "xlogx": lambda x: x * np.log(x)})
_MP = SimpleNamespace(real=mp.mpf, gamma=mp.gamma, exp=mp.exp, log=mp.log,
                      expm1=mp.expm1, log1p=mp.log1p, euler=mp.euler,
                      upper_gamma=mp.gammainc, power=operator.pow,
                      xlogx=lambda x: x * mp.log(x) if x > 0 else 0.0)


# ---------------------------------------------------------------------------
# Jump measure families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """A closed-form scale function of a model with Phi(0) = 0.

    `w(x)` is W(x) for x >= 0, at a float or a 1-D array (numpy's expm1 and
    `**`, a few ulp off libm's on a table), `potential(z, d)` the potential
    density W(z) - W(z-d) for z > 0, and `power` is (kappa, p) when
    psi(lam) = kappa * lam**p exactly.  Where Phi(0) > 0 the scale-function
    code asks for the closed form of `LevyModel.tilted`, whose Phi(0) is 0.
    """

    w: Callable
    potential: Callable[[float, float], float]
    power: Optional[tuple[float, float]] = None


class _Family:
    """The contract of a jump family; the defaults are the empty measure's.

    A family whose `sampler` is not None, so that paths take the truncated
    step, also defines the jump integrals that step reads, for 0 < eps <= 1:
    `tail_mass(eps)` = pi([eps, inf)), `mean_eps_to_one(eps)` =
    integral_{[eps, 1]} u pi(du) and `small_variance(eps)` =
    integral_{(0, eps)} u^2 pi(du).
    """

    tag: ClassVar[str]
    # the index of the jump part of psi at infinity: 0 for a finite measure,
    # alpha for stable-like small jumps
    jump_index: ClassVar[float] = 0.0
    # the index at 0+ of the jump part of psi beyond its linear term: 2 for
    # jumps of finite variance, alpha for stable large jumps
    jump_index_at_zero: ClassVar[float] = 2.0
    # integral_(0, 1] u pi(du): finite for jumps of bounded variation (a
    # finite measure, or jump index below 1), inf otherwise
    small_jump_mean: ClassVar[float] = 0.0

    def check(self) -> None:
        """Raise for parameters outside the family's domain."""

    def density(self, u: float) -> float:
        """Levy density pi(u) for u > 0."""
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
        """The closed-form scale function of `model`, if it has Phi(0) = 0
        and there is one."""
        return None

    def tilted(self, theta: float) -> JumpSpec:
        """The family of the Levy density e^{-theta u} pi(du), theta > 0."""
        return self

    def sampler(self, eps: float) -> Optional[Callable]:
        """`sample(gen, n)`: n jump sizes from pi restricted to [eps, inf),
        normalized, for the truncated step; None where paths never take
        that step (no jumps, or an exact `increment_sampler`)."""
        return None

    def increment_sampler(self, dt: float) -> Optional[StableIncrement]:
        """The exact law of the jump part of a dt-increment, when it can be
        drawn; None where paths take the truncated `sampler`."""
        return None


def _check_index_and_scale(alpha: float, scale: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise InvalidJumpIndexError(f"alpha={alpha} outside (0, 2)")
    if scale <= 0.0:
        raise ValueError("jump scale must be > 0")


@dataclass(frozen=True)
class StableIncrement:
    """The jump part J of a dt-increment, drawn exactly.

    `shift` + J has E e^{-lam (shift + J)} = e^{dt (psi(lam) - b lam - c lam^2)},
    b the drift with the compensator folded in (`LevyModel.effective_drift`).
    J is totally skewed (beta = 1) stable, by Chambers, Mallows & Stuck
    (1976) from V = pi (1/2 - U) on (-pi/2, pi/2], U uniform, and W
    standard exponential:

        alpha != 1:  J = K sin(alpha V + t0) cos(V)^(-1/alpha)
                         (cos((1 - alpha) V - t0) / W)^((1 - alpha)/alpha),
        alpha = 1:   J = K (log(h / (W sin h)) - h cot h),  h = pi/2 + V,

    with t0 = pi alpha/2 for alpha < 1 and pi alpha/2 - pi for alpha > 1, and
    `scale` K = (dt C |Gamma(-alpha)|)^(1/alpha), or dt C at alpha = 1, so that
    E e^{-lam J} = e^{dt C Gamma(-alpha) lam^alpha}, or e^{dt C lam log(dt C lam)}
    at alpha = 1.  With `tempering` q > 0 (alpha < 1) each
    J is kept with probability e^{-qJ} and drawn again otherwise, which tilts
    the law to e^{dt C Gamma(-alpha)((lam + q)^alpha - q^alpha)} (Baeumer &
    Meerschaert 2010; Kawai & Masuda 2011).
    """

    alpha: float
    scale: float
    shift: float
    tempering: float = 0.0

    def fill(self, gens: list, v: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """Fill row r of `out` with J drawn from gens[r]: a uniform row V, an
        exponential row W, then, when tempered, an exponential row that
        accepts or rejects each entry, and the rejected entries redrawn in
        the same order.  `v` and `w` are scratch of the shape of `out`."""
        for gen, vr, wr in zip(gens, v, w):
            gen.random(out=vr)
            gen.standard_exponential(out=wr)
        self._cms(v, w, out)
        if not self.tempering:
            return
        for gen, er in zip(gens, w):
            gen.standard_exponential(out=er)
        np.multiply(out, self.tempering, out=v)
        rejected = w <= v
        for r in np.flatnonzero(rejected.any(axis=1)):
            self._redraw(gens[r], out[r], np.flatnonzero(rejected[r]))

    def _redraw(self, gen, row: np.ndarray, idx: np.ndarray) -> None:
        while idx.size:
            m = idx.size
            v, w, s = gen.random(m), gen.standard_exponential(m), np.empty(m)
            self._cms(v, w, s)
            keep = gen.standard_exponential(m) > self.tempering * s
            row[idx[keep]] = s[keep]
            idx = idx[~keep]

    def _cms(self, u: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """J into `out` from uniforms `u` and exponentials `w`, which it
        overwrites.  Every call is a whole-array ufunc, and the sines and
        cosines are taken from half-angle tangents, which numpy evaluates
        several times faster: cos 2x = 2/(1 + tan^2 x) - 1, sin 2x =
        2 tan x/(1 + tan^2 x)."""
        a = self.alpha
        if a == 1.0:
            # with x = h/2 in (0, pi/2], tau = tan x and r = x/tau,
            # J/K = log(r (1 + tau^2)/W) + r (tau^2 - 1)
            np.subtract(1.0, u, out=u)
            u *= math.pi / 2.0
            np.tan(u, out=out)
            u /= out
            out *= out
            np.divide(u, w, out=w)
            out += 1.0
            w *= out
            np.log(w, out=w)
            out -= 2.0
            out *= u
            out += w
            out *= self.scale
            return
        t0 = math.pi * a / 2.0 - (math.pi if a > 1.0 else 0.0)
        np.subtract(0.5, u, out=u)
        u *= math.pi / 2.0  # V/2
        # cos((1 - a) V - t0) / W, to the power (1 - a)/a
        np.multiply(u, 1.0 - a, out=out)
        out -= t0 / 2.0
        np.tan(out, out=out)
        out *= out
        out += 1.0
        np.divide(2.0, out, out=out)
        out -= 1.0
        out /= w
        np.log(out, out=out)
        out *= (1.0 - a) / a
        # cos(V)^(-1/a)
        np.tan(u, out=w)
        w *= w
        w += 1.0
        np.divide(2.0, w, out=w)
        w -= 1.0
        np.log(w, out=w)
        w *= 1.0 / a
        out -= w
        out += math.log(2.0 * self.scale)
        np.exp(out, out=out)
        # sin(a V + t0) / 2
        u *= a
        u += t0 / 2.0
        np.tan(u, out=u)
        np.multiply(u, u, out=w)
        w += 1.0
        np.divide(u, w, out=w)
        out *= w


def _stable_increment(alpha: float, scale: float, dt: float, tempering: float = 0.0,
                      shift: float = 0.0) -> StableIncrement:
    if alpha == 1.0:
        k = dt * scale
        return StableIncrement(1.0, k, shift + k * math.log(k))
    k = (dt * scale * abs(math.gamma(-alpha))) ** (1.0 / alpha)
    return StableIncrement(alpha, k, shift, tempering)


@dataclass(frozen=True)
class NoJumps(_Family):
    """Empty jump measure (Brownian motion with drift, or pure drift)."""

    tag: ClassVar[str] = "none"

    def closed_form(self, model):
        b, c = model.drift, model.gaussian
        if c == 0.0:  # pure drift
            if b <= 0.0:
                return None
            return ClosedForm(lambda x: np.full(np.shape(x), 1.0 / b),
                              lambda z, d: 1.0 / b if z <= d else 0.0, (b, 1.0))
        if b == 0.0:
            return ClosedForm(lambda x: x / c, lambda z, d: min(z, d) / c, (c, 2.0))
        if b < 0.0:  # Phi(0) = -b/c > 0
            return None
        # beyond d, e^{-b(z-d)/c} (1 - e^{-bd/c})/b: no factor overflows
        return ClosedForm(
            lambda x: -np.expm1(-b * x / c) / b,
            lambda z, d: (-math.expm1(-b * z / c) / b if z <= d
                          else -math.exp(-b * (z - d) / c) * math.expm1(-b * d / c) / b))


@dataclass(frozen=True)
class StablePositive(_Family):
    """One-sided stable jumps, density scale * z**(-1-alpha) dz on (0, inf)."""

    alpha: float
    scale: float
    tag: ClassVar[str] = "stable"

    @property
    def jump_index(self) -> float:
        return self.alpha

    @property
    def jump_index_at_zero(self) -> float:
        return self.alpha

    @property
    def small_jump_mean(self) -> float:
        a = self.alpha
        return self.scale / (1.0 - a) if a < 1.0 else math.inf

    def check(self):
        _check_index_and_scale(self.alpha, self.scale)

    def density(self, u):
        return self.scale * u ** (-1.0 - self.alpha)

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
        power = ops.power

        def psi(lam):
            return beff * lam + c * lam * lam + CG * power(lam, a)

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

    def tilted(self, theta):
        return TemperedStable(self.alpha, self.scale, theta)

    def increment_sampler(self, dt):
        return _stable_increment(self.alpha, self.scale, dt)


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

    @property
    def small_jump_mean(self) -> float:
        return self.mean_eps_to_one(0.0)

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

    def tilted(self, theta):
        # rho mu e^{-(mu + theta)u}: rate rho mu/(mu + theta), mean 1/(mu + theta)
        mu = self.mu
        return CompoundPoissonExp(self.rate * mu / (mu + theta), 1.0 / (mu + theta))

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

    @property
    def jump_index(self) -> float:
        return self.alpha

    @property
    def small_jump_mean(self) -> float:
        # C q^(a-1) (Gamma(1-a) - Gamma(1-a, q))
        a, C, q = self.alpha, self.scale, self.tempering
        if a >= 1.0:
            return math.inf
        return C * q ** (a - 1.0) * (math.gamma(1.0 - a) - _upper_gamma(1.0 - a, q))

    def check(self):
        _check_index_and_scale(self.alpha, self.scale)
        if self.tempering <= 0.0:
            raise ValueError("tempering must be > 0")

    def density(self, u):
        return self.scale * math.exp(-self.tempering * u) * u ** (-1.0 - self.alpha)

    def tail_mass(self, eps):
        # C q^a Gamma(-a, q eps)
        a, C, q = self.alpha, self.scale, self.tempering
        return C * q**a * _upper_gamma(-a, q * eps)

    def mean_eps_to_one(self, eps):
        # C q^(a-1) integral_{q eps}^q t^-a e^-t dt, one piece (0 at eps = 1)
        a, C, q = self.alpha, self.scale, self.tempering
        if eps == 1.0:
            return 0.0
        return C * q ** (a - 1.0) * finite_integral(lambda t: t**-a * np.exp(-t), q * eps, q)

    def small_variance(self, eps):
        # C q^(a-2) gamma(2-a, q eps), the lower incomplete gamma, as
        # x^s/s + integral_0^x t^(s-1) expm1(-t) dt with s = 2-a, x = q eps:
        # the singular part in closed form, a remainder that vanishes like t^s
        a, C, q = self.alpha, self.scale, self.tempering
        s, x = 2.0 - a, q * eps
        rest = finite_integral(lambda t: t ** (s - 1.0) * np.expm1(-t), 0.0, x)
        return C * q ** (a - 2.0) * (x**s / s + rest)

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

    def tilted(self, theta):
        return replace(self, tempering=self.tempering + theta)

    def sampler(self, eps):
        # alpha < 1 draws exact increments; else rejection from the stable
        # proposal, accepted with e^{-q(u-eps)}
        if self.alpha < 1.0:
            return None
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

    def increment_sampler(self, dt):
        # exact for alpha < 1 only: the stable proposal of alpha >= 1 is not
        # positive, so e^{-qJ} is not a probability
        a, C, q = self.alpha, self.scale, self.tempering
        if a >= 1.0:
            return None
        # the compensator's linear term -C Gamma(-a) a q^(a-1) lam of psi
        return _stable_increment(a, C, dt, q, dt * C * math.gamma(-a) * a * q ** (a - 1.0))


JumpSpec = NoJumps | StablePositive | CompoundPoissonExp | TemperedStable


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
        """psi(lam) for finite lam >= 0, via the family's closed form."""
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        val = self._exponent["psi"](lam)
        if not math.isfinite(val):
            raise NumericalOverflowError(f"psi({lam}) is not representable")
        return val

    def laplace_exponent_array(self, lam: np.ndarray) -> np.ndarray:
        """psi elementwise on a real or complex array, off the non-positive
        real axis; entries that overflow come back non-finite."""
        return self._exponent_np["psi"](lam)

    @property
    def effective_drift(self) -> float:
        """psi's drift coefficient beside its jump term: the drift with the
        compensator folded in, as the family's `exponent` gives it."""
        return self._exponent["b"]

    @property
    def index_at_infinity(self) -> float:
        """The index p of psi at infinity, psi(lam) = lam^p L(lam) with L
        slowly varying: 2 with a Gaussian part, else max(1, the family's jump
        index), since jumps of index below 1 leave the drift's lam dominant.
        By W(x) ~ 1/(x psi(1/x)) (Kuznetsov, Kyprianou & Rivero 2012), W
        has the power p - 1 at 0+."""
        return 2.0 if self.gaussian > 0.0 else max(1.0, self.jumps.jump_index)

    @cached_property
    def drift_at_infinity(self) -> float:
        """d = lim psi(lam)/lam as lam -> inf: the drift plus the family's
        `small_jump_mean` when the process has bounded variation (no
        Gaussian part, and a finite jump measure or jump index below 1),
        +inf otherwise.  W(0) = 1/d: 1/d for bounded variation, else 0
        (Kuznetsov, Kyprianou & Rivero 2012)."""
        return math.inf if self.gaussian > 0.0 else self.drift + self.jumps.small_jump_mean

    @property
    def index_at_zero(self) -> float:
        """The index p0 of psi at 0+, |psi(lam)| = lam^p0 L(lam) with L
        slowly varying as lam -> 0+: 1 where psi'(0+) is finite and not 0,
        else the family's index at 0+, which is at most the Gaussian's 2
        (alpha for stable jumps, with L ~ log(1/lam) at alpha = 1; 2
        otherwise).  Where Phi(0) > 0, psi'(0+) < 0, so p0 is 1 unless the
        jumps have an infinite mean, and then it is the stable alpha <= 1."""
        d0 = self.laplace_exponent_derivative(0.0)
        return 1.0 if d0 != 0.0 and math.isfinite(d0) else self.jumps.jump_index_at_zero

    def laplace_exponent_derivative(self, lam: float) -> float:
        """psi'(lam) for finite lam >= 0; at lam = 0 this is psi'(0+), which
        may be -inf."""
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
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

    @cached_property
    def tilted(self) -> LevyModel:
        """The model tilted by its own Phi(0) (the Esscher transform): Levy
        density e^{-Phi(0)u} pi(du), the same c, and the drift for which its
        psi'(0+) is psi'(Phi(0)).  Its exponent is psi(lam + Phi(0)), its own
        Phi(0) is 0, and its scale function is W_shift(x) = e^{-Phi(0)x} W(x)
        (Kyprianou, Fluctuations of Levy Processes, 2nd ed. 2014, section
        8.1).  The model itself when Phi(0) = 0."""
        phi0 = self._phi0.value
        if not phi0:
            return self
        base = replace(self, jumps=self.jumps.tilted(phi0))
        # psi' moves one for one with the drift
        shift = self.laplace_exponent_derivative(phi0) - base.laplace_exponent_derivative(0.0)
        return replace(base, drift=self.drift + shift)

    def hit_probability(self, x: float) -> float:
        """P_x(process hits 0 in finite time) = exp(-Phi(0) * x)."""
        if x <= 0:
            raise NonPositiveStartError("starting point x must be > 0")
        if not x < math.inf:
            raise PreconditionViolatedError(f"starting point x must be finite, got {x}")
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
    oracle for tests.  It is the library's one adaptive QUADPACK call: on
    the verdict engine's sweep its e^{-lam u} - 1 + lam u cancels to
    rounding noise near u = 2^-40, and `finite_integral` raises.
    """
    from scipy.integrate import quad

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
