"""Path simulation, accumulated functionals, and the random time change.

Paths follow the Euler skeleton of the triplet representation: a drift and
Gaussian increment per step, jumps of size >= eps drawn at Poisson rate
pi([eps, inf)) from the normalized restriction of the jump measure, the
compensator of retained jumps in [eps, 1], and (optionally) a Gaussian
correction with the variance of the discarded jumps below eps (Asmussen &
Rosinski, J. Appl. Prob. 2001).  Downward motion has no jumps, so first
passage is detected on the grid and the crossing time interpolated
linearly; the O(sqrt(dt)) overshoot bias this leaves is budgeted in the
acceptance tolerances rather than corrected.

A path is drawn in blocks of 256 steps, doubling up to 16384, so it never
draws more than twice the steps it uses plus 256.  Each step draws one
normal, with the variance of the Gaussian part and the small-jump
correction together.  A block's jumps come from Poisson splitting: one
Poisson(n pi([eps, inf)) dt) total for the block's n steps, placed on
uniformly drawn steps, which has the law of independent per-step Poisson
counts.  A path without jumps therefore draws its substream's normals in
order, one per step.  `PathSample.steps_drawn` and `jumps_drawn` count
what a path drew; `mc_estimate` sums them into its extras.

Reproducibility contract: each path owns a counter-based Philox substream
keyed by (seed, path index), and estimates reduce in path-index order, so
the same seed gives bit-identical results for any worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import AllCensoredError, PreconditionViolatedError
from .integral_tests import FunctionalSpec, Generic
from .levy_model import (
    LevyModel,
    jump_mean_eps_to_one,
    jump_small_variance,
    jump_tail_mass,
)
from .scale_fn import local_power_near_zero

HIT_ZERO = "hit_zero"
HIT_BARRIER = "hit_barrier"
CENSORED = "censored"

_MASK64 = (1 << 64) - 1
_BLOCK_START = 256
_BLOCK_MAX = 16384


@dataclass(frozen=True)
class PathConfig:
    """Discretization and stopping parameters for one simulation run."""

    dt: float
    horizon: float
    barrier: float
    eps: float = 1e-3
    gaussian_compensation: bool = True
    seed: int = 0
    stop_level: float = 0.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.stop_level < 0.0:
            raise ValueError("stop_level must be >= 0")
        if self.barrier <= self.stop_level:
            raise ValueError("barrier must exceed the stop level")


@dataclass
class PathSample:
    """Grid skeleton of one simulated path.

    `values[i]` is the value at time i*dt and `values[0]` the start point.
    On HIT_ZERO the final value lies at or below the stop level and
    `stop_time` is the linearly interpolated crossing.  `subgrid_exponent`
    is the local scale-function power used to weight sub-grid occupation in
    the final panel of integral functionals.
    `steps_drawn` counts the steps drawn, at least the `len(values) - 1`
    used, and `jumps_drawn` the jumps drawn in them.
    """

    dt: float
    values: np.ndarray
    status: str
    stop_time: float
    substream: int
    subgrid_exponent: float
    stop_level: float
    steps_drawn: int = 0
    jumps_drawn: int = 0

    @property
    def zeta(self) -> Optional[float]:
        return self.stop_time if self.status == HIT_ZERO else None


def substream_generator(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream keyed by (seed, path index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_path(model: LevyModel, x: float, cfg: PathConfig, substream: int) -> PathSample:
    """Simulate one Euler skeleton until first passage, barrier, or horizon."""
    if not model.validated:
        raise PreconditionViolatedError("model must be validated")
    if not cfg.stop_level < x < cfg.barrier:
        raise PreconditionViolatedError(
            f"start x={x} must lie in (stop_level, barrier)")
    gen = substream_generator(cfg.seed, substream)
    dt = cfg.dt
    n_total = int(math.ceil(cfg.horizon / dt))

    base = -model.drift * dt
    # the Gaussian part and the small-jump compensation are independent
    # centred normals, so each step draws their sum as one normal
    var = 2.0 * model.gaussian * dt
    sampler = model.jumps.sampler(cfg.eps)
    if sampler is not None:
        pois_mean = jump_tail_mass(model.jumps, cfg.eps) * dt
        base -= dt * jump_mean_eps_to_one(model.jumps, cfg.eps)
        if cfg.gaussian_compensation:
            var += dt * jump_small_variance(model.jumps, cfg.eps)
    sd = math.sqrt(var)

    chunks = [np.array([x])]
    z = x
    steps_done = 0
    jumps_drawn = 0
    status = CENSORED
    stop_time = n_total * dt
    block = _BLOCK_START
    while steps_done < n_total:
        n = min(block, n_total - steps_done)
        block = min(block * 2, _BLOCK_MAX)
        start = steps_done
        steps_done += n
        if sd:
            inc = gen.standard_normal(n)
            inc *= sd
            inc += base
        else:
            inc = np.full(n, base)
        if sampler is not None:
            # Poisson splitting: a Poisson(n * pois_mean) total placed on
            # uniform steps has the law of n i.i.d. Poisson(pois_mean) counts
            total = int(gen.poisson(pois_mean * n))
            if total:
                idx = gen.integers(0, n, total)
                inc += np.bincount(idx, weights=sampler(gen, total), minlength=n)
            jumps_drawn += total
        vals = np.cumsum(inc, out=inc)
        vals += z
        stopped = (vals <= cfg.stop_level) | (vals >= cfg.barrier)
        i = int(np.argmax(stopped))
        if stopped[i]:
            chunks.append(vals[:i + 1])
            t_prev = (start + i) * dt
            if vals[i] <= cfg.stop_level:
                status = HIT_ZERO
                z_prev = vals[i - 1] if i > 0 else z
                frac = (z_prev - cfg.stop_level) / (z_prev - vals[i])
                stop_time = t_prev + frac * dt
            else:
                status = HIT_BARRIER
                stop_time = t_prev + dt
            break
        chunks.append(vals)
        z = float(vals[-1])

    values = np.concatenate(chunks)
    if status == CENSORED:
        stop_time = dt * (len(values) - 1)
    return PathSample(dt=dt, values=values, status=status,
                      stop_time=stop_time, substream=substream,
                      subgrid_exponent=local_power_near_zero(model),
                      stop_level=cfg.stop_level,
                      steps_drawn=steps_done, jumps_drawn=jumps_drawn)


# ---------------------------------------------------------------------------
# Accumulated functional and time change
# ---------------------------------------------------------------------------

@dataclass
class FunctionalSample:
    """A path together with its accumulated functional A_t = int f(Z_s) ds.

    `A` is aligned with `values`, taken at times i*dt (A[0] = 0 and A is
    nondecreasing).
    `A_final` is A at the stopping time: on a hit it includes the final
    sub-grid panel and may be +inf when f is too singular at the boundary;
    on a censored or barrier path it is the accumulated value so far, a
    lower bound.  After :func:`time_change`, `x_times`/`x_values` hold the
    time-changed skeleton (a pure reindexing of the same values) and
    `boundary_time` the extinction or explosion clock estimate.
    """

    dt: float
    values: np.ndarray
    A: np.ndarray
    A_final: float
    status: str
    censored: bool
    stop_time: float
    x_times: Optional[np.ndarray] = None
    x_values: Optional[np.ndarray] = None
    boundary_time: Optional[float] = None
    boundary_is_lower_bound: bool = False


def _subgrid_panel(f: FunctionalSpec, z_prev: float, slope: float, gamma: float) -> float:
    """Final-panel value of int f over the sub-grid descent from z_prev to 0.

    The grid resolves nothing below z_prev, so the panel weights the linear
    descent (speed `slope`) by the relative occupation (z/z_prev)**gamma
    implied by the scale function's local power gamma near 0.  For pure
    drift (gamma = 0) this is exactly the integral of f along the segment;
    for power laws it is finite precisely when theta < gamma + 1.
    """
    theta = f.power
    if theta is not None:
        if theta >= gamma + 1.0:
            return math.inf
        return z_prev ** (1.0 - theta) / (slope * (gamma + 1.0 - theta))
    # locally constant f at the sub-grid scale
    return f.value(z_prev) * z_prev / (slope * (gamma + 1.0))


def functional_along_path(path: PathSample, f: FunctionalSpec) -> FunctionalSample:
    """Trapezoidal accumulation of A_t = int_0^t f(Z_s) ds along the skeleton."""
    vals = path.values
    hit = path.status == HIT_ZERO
    # the final grid point of a hit path lies at or below the stop level,
    # where f may be undefined; it is replaced by an explicit last panel
    npos = len(vals) - 1 if hit else len(vals)
    grid_vals = vals[:npos]
    fv = f.values(grid_vals)
    # differenced from the time grid, not taken as dt, so that A rounds as
    # the trapezoid sum over the grid times i*dt
    inc = np.diff(path.dt * np.arange(npos))
    inc *= 0.5
    inc *= fv[:-1] + fv[1:]
    A = np.empty(npos)
    A[0] = 0.0
    np.cumsum(inc, out=A[1:])
    A_final = float(A[-1])

    if hit:
        t_prev = path.dt * (npos - 1)
        z_prev = float(vals[npos - 1])
        seg = path.stop_time - t_prev
        if path.stop_level > 0.0:
            panel = seg * 0.5 * (f.value(z_prev) + f.value(path.stop_level))
        elif seg > 0.0:
            slope = (z_prev - path.stop_level) / seg
            panel = _subgrid_panel(f, z_prev, slope, path.subgrid_exponent)
        else:
            panel = 0.0
        A_final = A_final + panel

    return FunctionalSample(dt=path.dt, values=grid_vals,
                            A=A, A_final=A_final, status=path.status,
                            censored=path.status == CENSORED,
                            stop_time=path.stop_time)


def time_change(sample: FunctionalSample) -> FunctionalSample:
    """Fill in the time-changed skeleton X_t = Z at the inverse functional clock.

    The grid image of the inverse is a reindexing: X at functional time A_i
    equals Z at grid time t_i, value for value.  The boundary time is the
    extinction clock A at the hit (exact, by construction) or the
    accumulated A at censoring, flagged as a lower bound.
    """
    return replace(sample,
                   x_times=sample.A,
                   x_values=sample.values,
                   boundary_time=sample.A_final,
                   boundary_is_lower_bound=sample.status != HIT_ZERO)


def time_changed_value(sample: FunctionalSample, s: float) -> float:
    """X_s for a time-changed sample: Z at the first grid index with A > s."""
    if sample.x_times is None:
        raise PreconditionViolatedError("call time_change first")
    idx = int(np.searchsorted(sample.x_times, s, side="right"))
    return float(sample.x_values[min(idx, len(sample.x_values) - 1)])


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HitProb:
    """Fraction of paths that hit the stop level before barrier/horizon."""


@dataclass(frozen=True)
class MeanPassage:
    """Mean of int_0^{first passage below y} f(Z) dt over all paths."""

    y: float


@dataclass(frozen=True)
class CondExpFunctional:
    """Mean of int_0^{hit} f(Z) e^{-lam Z} dt over hitting paths only."""

    lam: float


@dataclass(frozen=True)
class FunctionalFiniteness:
    """Empirical finiteness of A at the hit, with censoring diagnostics."""


Estimator = HitProb | MeanPassage | CondExpFunctional | FunctionalFiniteness


@dataclass
class MCSummary:
    estimate: float
    stderr: float
    n_paths: int
    censored_fraction: float
    seed: int
    wall_clock: float
    extras: dict = field(default_factory=dict)


def _weighted_spec(f: FunctionalSpec, lam: float) -> Generic:
    def fn(z):
        arr = np.asarray(z, dtype=float)
        if not arr.ndim:
            return float(f.values(arr) * np.exp(-lam * arr))
        out = np.multiply(arr, -lam)
        np.exp(out, out=out)
        out *= f.values(arr)
        return out

    return Generic(fn=fn, decreasing=False, bounded_away_from_origin=False)


def _path_value(path, f, estimator):
    """The estimator's value on one path, and A at its stopping time."""
    if isinstance(estimator, HitProb):
        return (1.0 if path.status == HIT_ZERO else 0.0), math.nan
    if isinstance(estimator, CondExpFunctional):
        fs = functional_along_path(path, _weighted_spec(f, estimator.lam))
        return (fs.A_final if path.status == HIT_ZERO else math.nan), fs.A_final
    fs = functional_along_path(path, f)
    if isinstance(estimator, MeanPassage):
        return fs.A_final, fs.A_final
    # FunctionalFiniteness
    val = (1.0 if math.isfinite(fs.A_final) else 0.0) if path.status == HIT_ZERO else math.nan
    return val, fs.A_final


def _path_record(model, x, f, estimator, cfg, idx):
    path = sample_path(model, x, cfg, idx)
    zeta = path.zeta if path.zeta is not None else math.nan
    val, a_final = _path_value(path, f, estimator)
    return (path.status, val, a_final, zeta,
            path.steps_drawn, len(path.values) - 1, path.jumps_drawn)


def mc_estimate(model: LevyModel, x: float, f: Optional[FunctionalSpec],
                estimator: Estimator, n: int, cfg: PathConfig,
                workers: int = 1, keep_path_rows: bool = False) -> MCSummary:
    """Run n independent paths and reduce the requested estimator.

    Results are reduced in path-index order from per-path substreams, so the
    summary is identical for any `workers` given the same seed.
    """
    if n < 100:
        raise PreconditionViolatedError("need n >= 100 paths")
    if f is None:
        if not isinstance(estimator, HitProb):
            raise PreconditionViolatedError("this estimator needs a functional f")
    if isinstance(estimator, MeanPassage):
        if estimator.y <= 0.0:
            raise ValueError("passage level y must be > 0")
        cfg = replace(cfg, stop_level=estimator.y)

    start = time.perf_counter()
    records: list = [None] * n

    def run_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            records[i] = _path_record(model, x, f, estimator, cfg, i)

    if workers <= 1:
        run_range(0, n)
    else:
        chunk = max(1, -(-n // (workers * 4)))
        bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda lh: run_range(*lh), bounds))

    statuses = [r[0] for r in records]
    values = np.array([r[1] for r in records])
    n_censored = sum(1 for s in statuses if s == CENSORED)
    if n_censored == n:
        raise AllCensoredError("no path resolved before the horizon")

    extras: dict = {"n_hit": sum(1 for s in statuses if s == HIT_ZERO),
                    "n_barrier": sum(1 for s in statuses if s == HIT_BARRIER),
                    "n_censored": n_censored,
                    "steps_drawn": sum(r[4] for r in records),
                    "steps_used": sum(r[5] for r in records),
                    "jumps_drawn": sum(r[6] for r in records)}

    if isinstance(estimator, (HitProb, MeanPassage)):
        used = values
        censored_fraction = n_censored / n
    else:
        used = values[~np.isnan(values)]
        censored_fraction = 1.0 - len(used) / n
        if len(used) == 0:
            raise AllCensoredError("no hitting path available for the estimator")

    if isinstance(estimator, FunctionalFiniteness):
        finite_a = np.array([r[2] for r, s in zip(records, statuses)
                             if s == HIT_ZERO and math.isfinite(r[2])])
        extras["n_infinite"] = int(extras["n_hit"] - len(finite_a))
        if len(finite_a):
            qs = np.quantile(finite_a, [0.25, 0.5, 0.75])
            extras["boundary_time_quartiles"] = [float(q) for q in qs]

    finite_used = used[np.isfinite(used)]
    if len(finite_used) < len(used):
        extras["n_infinite_values"] = int(len(used) - len(finite_used))
    estimate = float(np.mean(used)) if np.isfinite(used).all() else math.inf
    spread = float(np.std(finite_used, ddof=1)) if len(finite_used) > 1 else 0.0
    stderr = spread / math.sqrt(len(used)) if len(used) else math.nan

    if keep_path_rows:
        extras["path_rows"] = [(i, r[0], r[3], r[2], r[2])
                               for i, r in enumerate(records)]

    return MCSummary(estimate=estimate, stderr=stderr, n_paths=n,
                     censored_fraction=censored_fraction, seed=cfg.seed,
                     wall_clock=time.perf_counter() - start, extras=extras)
