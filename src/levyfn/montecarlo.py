"""Path simulation, accumulated functionals, and the random time change.

Paths are skeletons on the grid i*dt.  Where the family knows the law of
an increment (`increment_sampler`: stable at every alpha, tempered with
alpha < 1), every step is exact: the drift -b dt, b with the compensator
folded in, a normal of variance 2c dt, and the jump part J drawn by
Chambers-Mallows-Stuck, so the grid values have exactly the law of the
process.  The other families (compound Poisson, tempered with alpha >= 1)
take the Euler skeleton of the triplet representation: a drift and
Gaussian increment per step, jumps of size >= eps drawn at Poisson rate
pi([eps, inf)) from the normalized restriction of the jump measure, the
compensator of retained jumps in [eps, 1], and a Gaussian correction with
the variance of the discarded jumps below eps (Asmussen & Rosinski,
J. Appl. Prob. 2001); `eps` applies to these truncated families only.
`MCSummary.extras["increments"]` says which ("exact" also without jumps).
Downward motion has no jumps, so first passage is detected on the grid
and the crossing time interpolated linearly; the O(sqrt(dt)) overshoot
bias this leaves is budgeted in the acceptance tolerances rather than
corrected.  Below the last grid point of a hit the functional's final panel
weights the linear descent by W's power gamma at 0+, which the model states
exactly: its `index_at_infinity` less 1, as W(x) ~ 1/(x psi(1/x)).

A path is drawn in blocks of 256 steps, doubling up to 16384, so it never
draws more than twice the steps it uses plus 256.  Each step draws one
normal, with the variance of the Gaussian part and, when truncated, the
small-jump correction together.  An exact block then draws a uniform row
V and an exponential row W (and, tempered, an exponential row that
accepts each J with probability e^{-qJ}, the rejected entries redrawn
from the same substream).  A truncated block's jumps come from Poisson
splitting: one Poisson(n pi([eps, inf)) dt) total for the block's n
steps, placed on uniformly drawn steps, which has the law of independent
per-step Poisson counts.  A path without jumps therefore draws its
substream's normals in order, one per step.  `PathSample.steps_drawn` and
`jumps_drawn` count what a path drew (no truncated jumps when exact);
`mc_estimate` sums them into its extras.

One engine, `_simulate`, advances a contiguous batch of paths in lockstep:
all live paths of a batch are at the same step, so a block is one 2-D
array with a row per path.  Each path fills its row from its own
substream, in the order normals, then V and W (exact) or Poisson total,
jump positions, jump sizes (truncated); the scaling, the Chambers-
Mallows-Stuck transform on scratch buffers kept per batch, cumulative sum,
stop test and the estimator's f then run once per block over the whole
batch.  The trapezoid sum of f is folded block by block with a sequential
carry, so it rounds exactly as `functional_along_path` over the whole
path while no path's values outlive their block: memory is set by the
batch and block sizes, not by path length.  `sample_path` is the same
engine on a batch of one that keeps its blocks.

`mc_estimate` splits the n paths into one contiguous batch per worker, cut
further so that a batch holds at most 32 paths, and runs the batches on a
thread pool.  The calls that scale across threads are the ones on whole
rows or blocks (normal, V and W draws, the 2-D scaling, transform and
cumulative sum, f), which release the interpreter lock for their length;
calls of a few microseconds gain nothing, since each lock release hands
the lock to the other thread, so the engine makes per-path calls only for
the substream draws, the tempered redraws and the placement of a path's
jumps.

Reproducibility contract: each path owns a counter-based Philox substream
keyed by (seed, path index), and estimates reduce in path-index order, so
the same seed gives bit-identical results for any worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import AllCensoredError, PreconditionViolatedError
from .integral_tests import FunctionalSpec, Generic
from .levy_model import LevyModel, StableIncrement

HIT_ZERO = "hit_zero"
HIT_BARRIER = "hit_barrier"
CENSORED = "censored"

_MASK64 = (1 << 64) - 1
_BLOCK_START = 256
_BLOCK_MAX = 16384
# a block of a full batch is 32 x 16385 float64, 4.2 MB: larger batches
# save no measurable time on two cores and hold more memory per worker
_BATCH_MAX = 32


@dataclass(frozen=True)
class PathConfig:
    """Discretization and stopping parameters for one simulation run.

    `dt` and `horizon` are finite and positive, `stop_level` finite and
    >= 0, and `barrier` (inf allowed) above it.  `eps` is the small-jump
    truncation level: jumps below it are replaced by a normal of their
    variance.  It applies only to truncated families, those whose
    `increment_sampler` is None.
    """

    dt: float
    horizon: float
    barrier: float
    eps: float = 1e-3
    seed: int = 0
    stop_level: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if not 0.0 <= self.stop_level < math.inf:
            raise ValueError("stop_level must be finite and >= 0")
        if not self.barrier > self.stop_level:
            raise ValueError("barrier must exceed the stop level")


@dataclass
class PathSample:
    """Grid skeleton of one simulated path.

    `values[i]` is the value at time i*dt and `values[0]` the start point.
    On HIT_ZERO the final value lies at or below the stop level and
    `stop_time` is the linearly interpolated crossing.  `subgrid_exponent`
    is W's power gamma at 0+, `model.index_at_infinity - 1`, which weights
    the sub-grid occupation in the final panel of integral functionals.
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


@dataclass(frozen=True)
class _StepLaw:
    """Per-step increment law and stopping rule, shared by every path of a run.

    `gamma` is W's power at 0+, `index_at_infinity - 1`, which weights the
    sub-grid panel of a hit."""

    dt: float
    n_total: int
    base: float
    sd: float
    sampler: Optional[Callable]
    exact: Optional[StableIncrement]
    pois_mean: float
    stop_level: float
    barrier: float
    seed: int
    gamma: float


def _step_law(model: LevyModel, x: float, cfg: PathConfig) -> _StepLaw:
    if not model.validated:
        raise PreconditionViolatedError("model must be validated")
    if not cfg.stop_level < x < cfg.barrier:
        raise PreconditionViolatedError(
            f"start x={x} must lie in (stop_level, barrier)")
    dt = cfg.dt
    var = 2.0 * model.gaussian * dt
    exact = model.jumps.increment_sampler(dt)
    sampler, pois_mean = None, 0.0
    if exact is not None:
        base = -model.effective_drift * dt + exact.shift
    else:
        base = -model.drift * dt
        sampler = model.jumps.sampler(cfg.eps)
    if sampler is not None:
        jumps, eps = model.jumps, cfg.eps
        pois_mean = jumps.tail_mass(eps) * dt
        base -= dt * jumps.mean_eps_to_one(eps)
        # the Gaussian part and the small-jump compensation are independent
        # centred normals, so each step draws their sum as one normal
        var += dt * jumps.small_variance(eps)
    return _StepLaw(dt=dt, n_total=int(math.ceil(cfg.horizon / dt)), base=base,
                    sd=math.sqrt(var), sampler=sampler, exact=exact, pois_mean=pois_mean,
                    stop_level=cfg.stop_level, barrier=cfg.barrier, seed=cfg.seed,
                    gamma=model.index_at_infinity - 1.0)


_STATUS = (CENSORED, HIT_ZERO, HIT_BARRIER)
_CENSORED, _HIT, _BARRIER = range(3)


class _Batch:
    """Per-path outcomes of one lockstep batch, indexed from its first path.

    `status` indexes `_STATUS`.  `A` is the trapezoid sum of f up to the
    stop, with the final sub-grid panel on a hit; it is NaN without f.
    `blocks` holds each path's values block by block when kept.
    """

    def __init__(self, count: int, keep: bool):
        self.status = np.full(count, _CENSORED, dtype=np.int8)
        self.stop_time = np.empty(count)
        self.steps_used = np.empty(count, dtype=np.int64)
        self.steps_drawn = np.empty(count, dtype=np.int64)
        self.jumps_drawn = np.zeros(count, dtype=np.int64)
        self.A = np.full(count, math.nan)
        self.blocks = [[] for _ in range(count)] if keep else None


def _trapezoid_terms(fv: np.ndarray, first: int, dt: float) -> np.ndarray:
    """Trapezoid panels of f between consecutive grid points first, first+1, ...

    `fv` holds f at the grid points along its last axis.  The steps are
    differenced from the time grid, not taken as dt, so that the sequential
    cumulative sum of the panels rounds as the trapezoid rule over the grid
    times i*dt.
    """
    h = np.diff(dt * np.arange(first, first + fv.shape[-1]))
    h *= 0.5
    terms = fv[..., :-1] + fv[..., 1:]
    terms *= h
    return terms


def _simulate(law: _StepLaw, x: float, first: int, count: int,
              f: Optional[FunctionalSpec] = None, keep: bool = False) -> _Batch:
    """Advance paths first, ..., first+count-1 in lockstep, block by block.

    Each live path fills its row of the block from its own substream, in
    the order normals, then V and W (exact increments) or Poisson total,
    jump positions, jump sizes (truncated); scaling, the increment
    transform, cumulative sum, stop test and f run once per block over all
    rows.  A path leaves the batch in the block where it stops.  With f,
    the trapezoid sum is folded block by block with a sequential carry, so
    it rounds as :func:`functional_along_path` on the whole path; values
    outlive their block only when `keep` is set.
    """
    dt, low, top = law.dt, law.stop_level, law.barrier
    gens = [substream_generator(law.seed, first + k) for k in range(count)]
    out = _Batch(count, keep)
    if law.exact is not None:
        # V, W and J of every block, each in the first rows * steps entries
        # of its own buffer: one buffer three times that size raised the
        # peak RSS of an mc round by 5 MB, as freeing it lifts glibc's mmap
        # threshold above the size of a block
        scratch = [np.empty(count * min(law.n_total, _BLOCK_MAX)) for _ in range(3)]
    live = np.arange(count)
    z = np.full(count, float(x))
    carry = np.zeros(count)
    done, block = 0, _BLOCK_START
    while live.size and done < law.n_total:
        n = min(block, law.n_total - done)
        block = min(block * 2, _BLOCK_MAX)
        start = done
        done += n
        # column 0 holds each path's value before the block
        grid = np.empty((live.size, n + 1))
        grid[:, 0] = z
        inc = grid[:, 1:]
        if law.sd:
            for k, row in zip(live, inc):
                gens[k].standard_normal(out=row)
            inc *= law.sd
            inc += law.base
        else:
            inc[...] = law.base
        if law.exact is not None:
            v, w, jumps = (buf[:live.size * n].reshape(live.size, n) for buf in scratch)
            law.exact.fill([gens[k] for k in live], v, w, jumps)
            inc += jumps
        if law.sampler is not None:
            for k, row in zip(live, inc):
                gen = gens[k]
                # Poisson splitting: a Poisson(n * pois_mean) total placed on
                # uniform steps has the law of n i.i.d. Poisson(pois_mean) counts
                total = int(gen.poisson(law.pois_mean * n))
                if total:
                    idx = gen.integers(0, n, total)
                    row += np.bincount(idx, weights=law.sampler(gen, total), minlength=n)
                out.jumps_drawn[k] += total
        np.cumsum(inc, axis=1, out=inc)
        inc += z[:, None]
        ends = np.flatnonzero((np.fmin.reduce(inc, axis=1) <= low)
                              | (np.fmax.reduce(inc, axis=1) >= top))
        # (row, grid columns in the trapezoid sum, and on a hit the value
        # before it and the time from there to the crossing)
        exits = []
        for r in ends:
            k = live[r]
            vals = grid[r]
            i = int(np.argmax((vals[1:] <= low) | (vals[1:] >= top)))
            t_prev = (start + i) * dt
            out.steps_used[k] = start + i + 1
            out.steps_drawn[k] = done
            if keep:
                out.blocks[k].append(vals[1:i + 2].copy())
            if vals[i + 1] <= low:
                out.status[k] = _HIT
                z_prev = vals[i]
                frac = (z_prev - low) / (z_prev - vals[i + 1])
                out.stop_time[k] = t_prev + frac * dt
                exits.append((r, i, float(z_prev), out.stop_time[k] - t_prev))
                # f need not be defined at or below the stop level
                vals[i + 1:] = z_prev
            else:
                out.status[k] = _BARRIER
                out.stop_time[k] = t_prev + dt
                exits.append((r, i + 1, None, 0.0))
                vals[i + 2:] = vals[i + 1]
        if f is not None:
            acc = _trapezoid_terms(f.values(grid), start, dt)
            if start:
                acc[:, 0] += carry
            np.cumsum(acc, axis=1, out=acc)
            for r, last, z_prev, seg in exits:
                a = float(acc[r, last - 1]) if last else float(carry[r])
                if z_prev is not None:
                    a = a + _hit_panel(f, z_prev, seg, low, law.gamma)
                out.A[live[r]] = a
            carry = acc[:, -1]
        go = np.ones(live.size, dtype=bool)
        go[ends] = False
        if keep:
            for r in np.flatnonzero(go):
                out.blocks[live[r]].append(grid[r, 1:].copy())
        live, z, carry = live[go], grid[go, -1], carry[go]
    out.stop_time[live] = dt * law.n_total
    out.steps_used[live] = law.n_total
    out.steps_drawn[live] = law.n_total
    if f is not None:
        out.A[live] = carry
    return out


def sample_path(model: LevyModel, x: float, cfg: PathConfig, substream: int) -> PathSample:
    """Simulate one grid skeleton until first passage, barrier, or horizon."""
    law = _step_law(model, x, cfg)
    b = _simulate(law, x, substream, 1, keep=True)
    return PathSample(dt=cfg.dt, values=np.concatenate([[x], *b.blocks[0]]),
                      status=_STATUS[b.status[0]], stop_time=b.stop_time[0],
                      substream=substream,
                      subgrid_exponent=law.gamma,
                      stop_level=cfg.stop_level,
                      steps_drawn=int(b.steps_drawn[0]), jumps_drawn=int(b.jumps_drawn[0]))


# ---------------------------------------------------------------------------
# Accumulated functional and time change
# ---------------------------------------------------------------------------

@dataclass
class FunctionalSample:
    """A path together with its accumulated functional A_t = int f(Z_s) ds.

    `A` is aligned with `values`, taken at times i*dt (A[0] = 0 and A is
    nondecreasing), and the two are the time-changed skeleton as they
    stand: X at functional time A[i] is Z at grid time i*dt
    (:func:`time_changed_value`).  `A_final` is A at the stopping time, the
    extinction or explosion clock: on a hit it includes the final sub-grid
    panel and may be +inf when f is too singular at the boundary; on a
    censored or barrier path it is the value accumulated so far, a lower
    bound.
    """

    dt: float
    values: np.ndarray
    A: np.ndarray
    A_final: float
    status: str
    stop_time: float


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
    return f.values(z_prev) * z_prev / (slope * (gamma + 1.0))


def _hit_panel(f: FunctionalSpec, z_prev: float, seg: float, stop_level: float,
               gamma: float) -> float:
    """The panel from the last grid point above the stop level, at value
    z_prev, to the interpolated crossing `seg` later."""
    if stop_level > 0.0:
        return seg * 0.5 * (f.values(z_prev) + f.values(stop_level))
    if seg > 0.0:
        return _subgrid_panel(f, z_prev, (z_prev - stop_level) / seg, gamma)
    return 0.0


def functional_along_path(path: PathSample, f: FunctionalSpec) -> FunctionalSample:
    """Trapezoidal accumulation of A_t = int_0^t f(Z_s) ds along the skeleton."""
    vals = path.values
    hit = path.status == HIT_ZERO
    # the final grid point of a hit path lies at or below the stop level,
    # where f may be undefined; it is replaced by an explicit last panel
    npos = len(vals) - 1 if hit else len(vals)
    grid_vals = vals[:npos]
    A = np.empty(npos)
    A[0] = 0.0
    np.cumsum(_trapezoid_terms(f.values(grid_vals), 0, path.dt), out=A[1:])
    A_final = float(A[-1])
    if hit:
        t_prev = path.dt * (npos - 1)
        A_final = A_final + _hit_panel(f, float(vals[npos - 1]), path.stop_time - t_prev,
                                       path.stop_level, path.subgrid_exponent)

    return FunctionalSample(dt=path.dt, values=grid_vals, A=A, A_final=A_final,
                            status=path.status, stop_time=path.stop_time)


def time_changed_value(sample: FunctionalSample, s: float) -> float:
    """X_s, the time-changed process at functional time s: Z at the first
    grid index with A > s, or at the last grid point once s passes A."""
    idx = int(np.searchsorted(sample.A, s, side="right"))
    return float(sample.values[min(idx, len(sample.values) - 1)])


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HitProb:
    """Fraction of paths that hit the stop level before barrier/horizon."""


@dataclass(frozen=True)
class MeanPassage:
    """Mean of int_0^{first passage below y} f(Z) dt over all paths; y is
    finite and > 0."""

    y: float

    def __post_init__(self):
        if not 0.0 < self.y < math.inf:
            raise ValueError("passage level y must be finite and > 0")


@dataclass(frozen=True)
class CondExpFunctional:
    """Mean of int_0^{hit} f(Z) e^{-lam Z} dt over hitting paths only; lam
    is finite and > 0."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")


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
    c = f.constant

    def fn(z):
        arr = np.asarray(z, dtype=float)
        out = np.multiply(arr, -lam)
        np.exp(out, out=out)
        if c is None:
            out *= f.values(arr)
        elif c != 1.0:
            out *= c
        return out

    return Generic(fn=fn, decreasing=False, bounded_away_from_origin=False)


def _batches(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (first, count) path ranges: one per worker, split further so
    that no lockstep block holds more than _BATCH_MAX paths."""
    per_worker = -(-n // workers)
    pieces = -(-per_worker // _BATCH_MAX)
    size = -(-per_worker // pieces)
    return [(lo, min(size, n - lo)) for lo in range(0, n, size)]


def mc_estimate(model: LevyModel, x: float, f: Optional[FunctionalSpec],
                estimator: Estimator, n: int, cfg: PathConfig,
                workers: int = 1, keep_path_rows: bool = False) -> MCSummary:
    """Run n independent paths and reduce the requested estimator.

    Results are reduced in path-index order from per-path substreams, so the
    summary is identical for any `workers` given the same seed.
    """
    if n < 100:
        raise PreconditionViolatedError("need n >= 100 paths")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if f is None:
        if not isinstance(estimator, HitProb):
            raise PreconditionViolatedError("this estimator needs a functional f")
    if isinstance(estimator, MeanPassage):
        cfg = replace(cfg, stop_level=estimator.y)

    start = time.perf_counter()
    law = _step_law(model, x, cfg)
    spec = None
    if not isinstance(estimator, HitProb):
        spec = (_weighted_spec(f, estimator.lam) if isinstance(estimator, CondExpFunctional)
                else f)

    def run(batch):
        return _simulate(law, x, *batch, f=spec)

    batches = _batches(n, workers)
    if workers <= 1 or len(batches) == 1:
        parts = [run(b) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, batches))

    def joined(name):
        return np.concatenate([getattr(p, name) for p in parts])

    status, A = joined("status"), joined("A")
    hit = status == _HIT
    n_censored = int(np.count_nonzero(status == _CENSORED))
    if n_censored == n:
        raise AllCensoredError("no path resolved before the horizon")

    n_hit = int(np.count_nonzero(hit))
    extras: dict = {"n_hit": n_hit,
                    "n_barrier": n - n_hit - n_censored,
                    "n_censored": n_censored,
                    "steps_drawn": int(joined("steps_drawn").sum()),
                    "steps_used": int(joined("steps_used").sum()),
                    "jumps_drawn": int(joined("jumps_drawn").sum()),
                    "increments": "truncated" if law.sampler is not None else "exact"}

    if isinstance(estimator, HitProb):
        values = hit.astype(float)
    elif isinstance(estimator, MeanPassage):
        values = A
    elif isinstance(estimator, CondExpFunctional):
        values = np.where(hit, A, math.nan)
    else:
        values = np.where(hit, np.isfinite(A).astype(float), math.nan)

    if isinstance(estimator, (HitProb, MeanPassage)):
        used = values
        censored_fraction = n_censored / n
    else:
        used = values[~np.isnan(values)]
        censored_fraction = 1.0 - len(used) / n
        if len(used) == 0:
            raise AllCensoredError("no hitting path available for the estimator")

    if isinstance(estimator, FunctionalFiniteness):
        finite_a = A[hit & np.isfinite(A)]
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
        zeta = np.where(hit, joined("stop_time"), math.nan).tolist()
        extras["path_rows"] = [(i, _STATUS[s], zt, a)
                               for i, (s, zt, a) in enumerate(zip(status, zeta, A.tolist()))]

    return MCSummary(estimate=estimate, stderr=stderr, n_paths=n,
                     censored_fraction=censored_fraction, seed=cfg.seed,
                     wall_clock=time.perf_counter() - start, extras=extras)
