"""Spectrally positive Levy process models.

A model is a triplet (drift b, Gaussian coefficient c >= 0, jump measure pi
on (0, inf)) for a process with no negative jumps,

    Z_t = x - b*t + sqrt(2c)*B_t + (compensated jumps of size <= 1) + (jumps > 1),

whose Laplace exponent

    psi(lam) = b*lam + c*lam**2
               + integral (exp(-lam*u) - 1 + lam*u*1{u <= 1}) pi(du)

satisfies E_x[exp(-lam*Z_t)] = exp(-lam*x + psi(lam)*t).  psi is strictly
convex with psi(0) = 0, and for a non-monotone process psi(lam) -> +inf.

All supported jump families admit closed forms for psi and psi'; a direct
quadrature evaluation of the jump integral is kept alongside as an
independent cross-check.

The tempered-stable jump part, C*Gamma(-alpha)*((lam+q)**alpha - q**alpha -
alpha*q**(alpha-1)*lam), is an O(lam**2) remainder of O(q**alpha) terms near
lam = 0, so it is evaluated as K*(expm1(alpha*log1p(u)) - alpha*u) with
u = lam/q and K = C*Gamma(-alpha)*q**alpha.  Its rounding error is then
O(eps*lam) instead of O(eps*q**alpha), and psi keeps full relative accuracy
down to lam ~ 1e-14 wherever psi'(0+) != 0, as the explosion test's
integral near 0+ needs.  A high-precision (mpmath) evaluation path backs
the numerical Laplace inversion in :mod:`levyfn.scale_fn`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import mpmath as mp
from scipy.integrate import quad
from scipy.special import exp1, gamma, gammainc, gammaincc

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


# ---------------------------------------------------------------------------
# Jump measure families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoJumps:
    """Empty jump measure (Brownian motion with drift, or pure drift)."""


@dataclass(frozen=True)
class StablePositive:
    """One-sided stable jumps, density scale * z**(-1-alpha) dz on (0, inf)."""

    alpha: float
    scale: float


@dataclass(frozen=True)
class CompoundPoissonExp:
    """Compound Poisson jumps at `rate`, exponential sizes with mean `jump_mean`.

    Density: rate * mu * exp(-mu*z) dz with mu = 1/jump_mean.
    """

    rate: float
    jump_mean: float

    @property
    def mu(self) -> float:
        return 1.0 / self.jump_mean


@dataclass(frozen=True)
class TemperedStable:
    """Exponentially tempered stable jumps, density scale * exp(-q z) * z**(-1-alpha) dz."""

    alpha: float
    scale: float
    tempering: float


JumpSpec = NoJumps | StablePositive | CompoundPoissonExp | TemperedStable


def jump_density(jumps: JumpSpec, u: float) -> float:
    """Pointwise Levy density pi(u) for u > 0 (0 for NoJumps)."""
    if isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, StablePositive):
        return jumps.scale * u ** (-1.0 - jumps.alpha)
    if isinstance(jumps, CompoundPoissonExp):
        mu = jumps.mu
        return jumps.rate * mu * math.exp(-mu * u)
    if isinstance(jumps, TemperedStable):
        return jumps.scale * math.exp(-jumps.tempering * u) * u ** (-1.0 - jumps.alpha)
    raise TypeError(f"unknown jump spec {jumps!r}")


@lru_cache(maxsize=256)
def jump_tail_mass(jumps: JumpSpec, eps: float) -> float:
    """pi([eps, inf)): the rate of jumps of size >= eps."""
    if isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, StablePositive):
        return jumps.scale * eps ** (-jumps.alpha) / jumps.alpha
    if isinstance(jumps, CompoundPoissonExp):
        return jumps.rate * math.exp(-jumps.mu * eps)
    if isinstance(jumps, TemperedStable):
        val, _ = quad(lambda u: jump_density(jumps, u), eps, math.inf, limit=200)
        return val
    raise TypeError(f"unknown jump spec {jumps!r}")


@lru_cache(maxsize=256)
def jump_mean_eps_to_one(jumps: JumpSpec, eps: float) -> float:
    """integral_{[eps, 1]} u pi(du), the compensator mean of retained small jumps."""
    if eps >= 1.0 or isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, StablePositive):
        a, C = jumps.alpha, jumps.scale
        if a == 1.0:
            return C * math.log(1.0 / eps)
        return C * (1.0 - eps ** (1.0 - a)) / (1.0 - a)
    if isinstance(jumps, CompoundPoissonExp):
        mu, rho = jumps.mu, jumps.rate
        return rho * (math.exp(-mu * eps) * (mu * eps + 1.0) - math.exp(-mu) * (mu + 1.0)) / mu
    if isinstance(jumps, TemperedStable):
        val, _ = quad(lambda u: u * jump_density(jumps, u), eps, 1.0, limit=200)
        return val
    raise TypeError(f"unknown jump spec {jumps!r}")


@lru_cache(maxsize=256)
def jump_small_variance(jumps: JumpSpec, eps: float) -> float:
    """integral_{(0, eps)} u^2 pi(du), the variance of discarded small jumps."""
    if isinstance(jumps, NoJumps):
        return 0.0
    if isinstance(jumps, StablePositive):
        a, C = jumps.alpha, jumps.scale
        return C * eps ** (2.0 - a) / (2.0 - a)
    if isinstance(jumps, CompoundPoissonExp):
        mu, rho = jumps.mu, jumps.rate
        return rho * (2.0 - math.exp(-mu * eps) * (mu * eps * (mu * eps + 2.0) + 2.0)) / mu**2
    if isinstance(jumps, TemperedStable):
        # C q^(a-2) gamma(2-a, q eps), with the lower incomplete gamma
        a, C, q = jumps.alpha, jumps.scale, jumps.tempering
        return float(C * q ** (a - 2.0) * gammainc(2.0 - a, q * eps) * gamma(2.0 - a))
    raise TypeError(f"unknown jump spec {jumps!r}")


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for s in (-1, 1) and x > 0."""
    if s > 0.0:
        return float(gammaincc(s, x) * gamma(s))
    if s == 0.0:
        return float(exp1(x))
    # Gamma(s, x) = (Gamma(s+1, x) - x**s e^-x) / s, with s + 1 in (0, 1)
    return float(gammaincc(s + 1.0, x) * gamma(s + 1.0) - x**s * math.exp(-x)) / s


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

    # -- cached per-family constants -------------------------------------

    @cached_property
    def _consts(self) -> dict:
        b, c, j = self.drift, self.gaussian, self.jumps
        if isinstance(j, NoJumps):
            return {"kind": "none"}
        if isinstance(j, StablePositive):
            a, C = j.alpha, j.scale
            if a == 1.0:
                return {"kind": "stable1", "beff": b + C * (EULER_GAMMA - 1.0), "C": C}
            g = math.gamma(-a)  # > 0 for a in (1,2), < 0 for a in (0,1)
            beff = b - C / (a - 1.0) if a > 1.0 else b + C / (1.0 - a)
            return {"kind": "stable", "beff": beff, "CG": C * g, "alpha": a}
        if isinstance(j, CompoundPoissonExp):
            mu, rho = j.mu, j.rate
            m01 = rho * (1.0 - math.exp(-mu) * (1.0 + mu)) / mu
            return {"kind": "cpexp", "beff": b + m01, "rho": rho, "mu": mu}
        if isinstance(j, TemperedStable):
            a, C, q = j.alpha, j.scale, j.tempering
            beff = b - C * q ** (a - 1.0) * _upper_gamma(1.0 - a, q)
            if a == 1.0:
                return {"kind": "tempered1", "beff": beff, "C": C, "q": q}
            return {"kind": "tempered", "beff": beff, "K": C * math.gamma(-a) * q**a,
                    "alpha": a, "q": q}
        raise TypeError(f"unknown jump spec {j!r}")

    # -- Laplace exponent -------------------------------------------------

    def laplace_exponent(self, lam: float) -> float:
        """psi(lam) for lam >= 0, via the family's closed form."""
        if lam < 0:
            raise ValueError("lam must be >= 0")
        k = self._consts
        c = self.gaussian
        kind = k["kind"]
        if kind == "none":
            val = self.drift * lam + c * lam * lam
        elif kind == "stable":
            val = k["beff"] * lam + c * lam * lam + k["CG"] * lam ** k["alpha"]
        elif kind == "stable1":
            ll = lam * math.log(lam) if lam > 0 else 0.0
            val = k["beff"] * lam + c * lam * lam + k["C"] * ll
        elif kind == "cpexp":
            val = k["beff"] * lam + c * lam * lam - k["rho"] * lam / (lam + k["mu"])
        elif kind == "tempered":
            a, u = k["alpha"], lam / k["q"]
            val = (k["beff"] * lam + c * lam * lam
                   + k["K"] * (math.expm1(a * math.log1p(u)) - a * u))
        else:  # tempered1
            q = k["q"]
            val = (k["beff"] * lam + c * lam * lam
                   + k["C"] * ((lam + q) * math.log1p(lam / q) - lam))
        if not math.isfinite(val):
            raise NumericalOverflowError(f"psi({lam}) is not representable")
        return val

    def laplace_exponent_derivative(self, lam: float) -> float:
        """psi'(lam); at lam = 0 this is psi'(0+), which may be -inf."""
        if lam < 0:
            raise ValueError("lam must be >= 0")
        k = self._consts
        c = self.gaussian
        kind = k["kind"]
        if kind == "none":
            return self.drift + 2.0 * c * lam
        if kind == "stable":
            a = k["alpha"]
            if lam == 0.0:
                return k["beff"] if a > 1.0 else -math.inf
            return k["beff"] + 2.0 * c * lam + k["CG"] * a * lam ** (a - 1.0)
        if kind == "stable1":
            if lam == 0.0:
                return -math.inf
            return k["beff"] + 2.0 * c * lam + k["C"] * (1.0 + math.log(lam))
        if kind == "cpexp":
            mu = k["mu"]
            return k["beff"] + 2.0 * c * lam - k["rho"] * mu / (lam + mu) ** 2
        if kind == "tempered":
            a, q = k["alpha"], k["q"]
            return (k["beff"] + 2.0 * c * lam
                    + k["K"] * a / q * math.expm1((a - 1.0) * math.log1p(lam / q)))
        # tempered1
        return k["beff"] + 2.0 * c * lam + k["C"] * math.log1p(lam / k["q"])

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
    params = {"drift": drift, "gaussian": gaussian,
              **{f.name: getattr(jumps, f.name) for f in fields(jumps)}}
    bad = [name for name, v in params.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite model parameters: {', '.join(bad)}")
    if isinstance(jumps, (StablePositive, TemperedStable)):
        if not 0.0 < jumps.alpha < 2.0:
            raise InvalidJumpIndexError(f"alpha={jumps.alpha} outside (0, 2)")
        if jumps.scale <= 0.0:
            raise ValueError("jump scale must be > 0")
        if isinstance(jumps, TemperedStable) and jumps.tempering <= 0.0:
            raise ValueError("tempering must be > 0")
    if isinstance(jumps, CompoundPoissonExp):
        if jumps.rate <= 0.0 or jumps.jump_mean <= 0.0:
            raise ValueError("rate and jump_mean must be > 0")
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

_FAMILY_TAGS = {"none": NoJumps, "stable": StablePositive,
                "cpexp": CompoundPoissonExp, "tempered": TemperedStable}


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
    j = model.jumps
    if isinstance(j, NoJumps):
        jumps = {"family": "none"}
    elif isinstance(j, StablePositive):
        jumps = {"family": "stable", "alpha": j.alpha, "scale": j.scale}
    elif isinstance(j, CompoundPoissonExp):
        jumps = {"family": "cpexp", "rate": j.rate, "jump_mean": j.jump_mean}
    else:
        jumps = {"family": "tempered", "alpha": j.alpha, "scale": j.scale,
                 "tempering": j.tempering}
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
    b, c, j = model.drift, model.gaussian, model.jumps
    base = b * lam + c * lam * lam
    if isinstance(j, NoJumps) or lam == 0.0:
        return base

    def small(u: float) -> float:
        return (math.exp(-lam * u) - 1.0 + lam * u) * jump_density(j, u)

    def large(u: float) -> float:
        return (math.exp(-lam * u) - 1.0) * jump_density(j, u)

    with warnings.catch_warnings():
        # the u^(1-alpha) endpoint singularity trips quad's roundoff check
        # long after the value is converged
        warnings.simplefilter("ignore")
        v1, _ = quad(small, 0.0, 1.0, limit=400)
        v2, _ = quad(large, 1.0, math.inf, limit=400)
    return base + v1 + v2


# ---------------------------------------------------------------------------
# High-precision evaluation (backs the Laplace inversion)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _hp_consts(model: LevyModel, dps: int) -> dict:
    """Family constants recomputed at `dps` decimal digits."""
    with mp.workdps(dps):
        b = mp.mpf(model.drift)
        c = mp.mpf(model.gaussian)
        j = model.jumps
        if isinstance(j, NoJumps):
            return {"kind": "none", "b": b, "c": c}
        if isinstance(j, StablePositive):
            a, C = mp.mpf(j.alpha), mp.mpf(j.scale)
            if j.alpha == 1.0:
                return {"kind": "stable1", "b": b + C * (mp.euler - 1), "c": c, "C": C}
            g = mp.gamma(-a)
            beff = b - C / (a - 1) if j.alpha > 1.0 else b + C / (1 - a)
            return {"kind": "stable", "b": beff, "c": c, "CG": C * g, "alpha": a}
        if isinstance(j, CompoundPoissonExp):
            mu, rho = mp.mpf(1) / mp.mpf(j.jump_mean), mp.mpf(j.rate)
            m01 = rho * (1 - mp.e**(-mu) * (1 + mu)) / mu
            return {"kind": "cpexp", "b": b + m01, "c": c, "rho": rho, "mu": mu}
        a, C, q = mp.mpf(j.alpha), mp.mpf(j.scale), mp.mpf(j.tempering)
        # tail mean: integral_1^inf u * C e^{-qu} u^{-1-a} du = C q^{a-1} Gamma(1-a, q)
        tail = C * q ** (a - 1) * mp.gammainc(1 - a, q)
        if j.alpha == 1.0:
            return {"kind": "tempered1", "b": b - tail, "c": c, "C": C, "q": q}
        # q**a and a*q**(a-1), the lam-free terms of the jump part
        return {"kind": "tempered", "b": b - tail, "c": c, "CG": C * mp.gamma(-a),
                "alpha": a, "q": q, "qa": q**a, "aqa1": a * q ** (a - 1)}


def laplace_exponent_hp(model: LevyModel, lam) -> "mp.mpf":
    """psi(lam) on mpmath floats at the caller's working precision."""
    k = _hp_consts(model, mp.mp.dps)
    kind = k["kind"]
    base = k["b"] * lam + k["c"] * lam * lam
    if kind == "none":
        return base
    if kind == "stable":
        return base + k["CG"] * lam ** k["alpha"]
    if kind == "stable1":
        return base + (k["C"] * lam * mp.log(lam) if lam > 0 else 0)
    if kind == "cpexp":
        return base - k["rho"] * lam / (lam + k["mu"])
    if kind == "tempered":
        return base + k["CG"] * ((lam + k["q"]) ** k["alpha"] - k["qa"] - k["aqa1"] * lam)
    q = k["q"]
    return base + k["C"] * ((lam + q) * mp.log(1 + lam / q) - lam)


@lru_cache(maxsize=128)
def phi_zero_hp(model: LevyModel, dps: int) -> "mp.mpf":
    """Phi(0) refined to `dps` digits (0 when psi'(0+) >= 0)."""
    phi = model.phi_zero()
    if phi.exact_zero or phi.value == 0.0:
        return mp.mpf(0)
    with mp.workdps(dps):
        return mp.findroot(lambda lam: laplace_exponent_hp(model, lam), mp.mpf(phi.value))
