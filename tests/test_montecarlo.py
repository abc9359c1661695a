import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import kstest

from levyfn import (
    CompoundPoissonExp,
    CondExpFunctional,
    FunctionalFiniteness,
    Generic,
    HitProb,
    MeanPassage,
    NoJumps,
    PathConfig,
    PowerLaw,
    StablePositive,
    TemperedStable,
    brownian_model,
    builtin_model,
    constant_functional,
    functional_along_path,
    mc_estimate,
    sample_path,
    extinction_test,
    stable_power_model,
    time_changed_value,
    validate,
)
from levyfn.errors import AllCensoredError, PreconditionViolatedError
from levyfn.montecarlo import substream_generator

DRIFT_LINE = validate(1.0, 0.0, NoJumps())  # Z = x - t, deterministic
# tempered with alpha >= 1: the truncated sampler
TEMPERED13 = validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0))


def drift_path(x=1.0, dt=1e-3, substream=0):
    cfg = PathConfig(dt=dt, horizon=10.0, barrier=100.0, seed=1)
    return sample_path(DRIFT_LINE, x, cfg, substream)


class TestPathConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PathConfig(dt=0.0, horizon=1.0, barrier=2.0)
        with pytest.raises(ValueError):
            PathConfig(dt=1e-3, horizon=1.0, barrier=2.0, eps=1.5)
        with pytest.raises(ValueError):
            PathConfig(dt=1e-3, horizon=1.0, barrier=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["dt", "horizon"])
    def test_rejects_non_finite_grid(self, name, value):
        kwargs = {"dt": 1e-3, "horizon": 1.0, "barrier": 2.0, name: value}
        with pytest.raises(ValueError, match=name):
            PathConfig(**kwargs)

    @pytest.mark.parametrize("name", ["barrier", "stop_level"])
    def test_rejects_nan_levels(self, name):
        kwargs = {"dt": 1e-3, "horizon": 1.0, "barrier": 2.0, name: math.nan}
        with pytest.raises(ValueError, match=name):
            PathConfig(**kwargs)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, 0.0])
def test_condexp_weight_must_be_finite_and_positive(lam):
    with pytest.raises(ValueError, match="lam"):
        CondExpFunctional(lam)


@pytest.mark.parametrize("y", [math.nan, math.inf, -1.0, 0.0])
def test_passage_level_must_be_finite_and_positive(y):
    with pytest.raises(ValueError, match="passage level y"):
        MeanPassage(y)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    cfg = PathConfig(dt=1e-3, horizon=1.0, barrier=2.0)
    with pytest.raises(ValueError, match="workers"):
        mc_estimate(DRIFT_LINE, 1.0, None, HitProb(), 100, cfg, workers=workers)


class TestSamplePath:
    def test_deterministic_drift_hits_zero(self):
        p = drift_path(x=2.0)
        assert p.status == "hit_zero"
        assert p.zeta == pytest.approx(2.0, abs=1e-3)
        assert p.values[0] == 2.0
        assert p.values[-1] <= 0.0

    def test_start_must_lie_between_levels(self):
        cfg = PathConfig(dt=1e-3, horizon=1.0, barrier=2.0)
        with pytest.raises(PreconditionViolatedError):
            sample_path(DRIFT_LINE, 5.0, cfg, 0)

    def test_barrier_detection(self):
        # upward drift line: Z = 1 + t
        m = brownian_model(-1.0)
        cfg = PathConfig(dt=1e-3, horizon=50.0, barrier=5.0, seed=9)
        p = sample_path(m, 1.0, cfg, 0)
        assert p.status in ("hit_zero", "hit_barrier")
        if p.status == "hit_barrier":
            assert p.values[-1] >= 5.0

    def test_censoring(self):
        m = validate(0.0, 1.0, NoJumps())
        cfg = PathConfig(dt=1e-3, horizon=0.05, barrier=100.0, seed=2)
        p = sample_path(m, 50.0, cfg, 0)
        assert p.status == "censored"
        assert p.stop_time == pytest.approx(0.05, abs=2e-3)

    def test_no_downward_jumps_beyond_diffusion_scale(self):
        # spectrally positive: all heavy moves of a truncated step point up
        m = TEMPERED13
        cfg = PathConfig(dt=1e-3, horizon=5.0, barrier=1e6, seed=3)
        p = sample_path(m, 1.0, cfg, 4)
        steps = np.diff(p.values)
        drift_step = cfg.dt * (m.drift + m.jumps.mean_eps_to_one(cfg.eps))
        sd = math.sqrt(cfg.dt * (2.0 * m.gaussian + m.jumps.small_variance(cfg.eps)))
        assert steps.min() >= -(drift_step + 8.0 * sd)

    def test_same_substream_reproduces(self):
        m = builtin_model("bmdrift")
        cfg = PathConfig(dt=1e-3, horizon=10.0, barrier=30.0, seed=11)
        p1 = sample_path(m, 1.0, cfg, 5)
        p2 = sample_path(m, 1.0, cfg, 5)
        p3 = sample_path(m, 1.0, cfg, 6)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values[:10], p3.values[:10])

    @pytest.mark.parametrize("model", [builtin_model("bmdrift"), builtin_model("bmup"),
                                       brownian_model(0.0, 0.5)])
    def test_jump_free_path_uses_first_normals(self, model):
        # one normal per step, drawn in order from the path's own substream
        cfg = PathConfig(dt=1e-3, horizon=8.0, barrier=6.0, seed=17)
        for i in range(4):
            p = sample_path(model, 1.0, cfg, i)
            steps = len(p.values) - 1
            normals = substream_generator(cfg.seed, i).standard_normal(steps)
            sd = math.sqrt(2.0 * model.gaussian * cfg.dt)
            ref = 1.0 + np.cumsum(-model.drift * cfg.dt + sd * normals)
            assert p.values[0] == 1.0
            np.testing.assert_allclose(p.values[1:], ref, rtol=0.0, atol=1e-12)

    def test_blocks_overdraw_at_most_twice(self):
        cases = [("stable15", 20.0, 1e6), ("cpexp", 20.0, 8.0), ("bmdrift", 7.7, 8.0)]
        seen = set()
        for name, horizon, barrier in cases:
            model = builtin_model(name)
            cfg = PathConfig(dt=1e-3, horizon=horizon, barrier=barrier, seed=3)
            for i in range(30):
                p = sample_path(model, 1.0, cfg, i)
                used = len(p.values) - 1
                assert used <= p.steps_drawn <= 2 * used + 256
                seen.add(p.status)
        assert seen == {"hit_zero", "hit_barrier", "censored"}


# pi([u, inf)) up to a constant factor, in mpmath, for each family with a
# truncated sampler (stable, and tempered alpha < 1, increments are drawn
# exactly, with no sampler)
JUMP_TAILS = {
    "cpexp": (CompoundPoissonExp(rate=2.0, jump_mean=0.5), lambda u: mp.exp(-2 * u)),
    **{f"tempered{a}": (TemperedStable(alpha=a, scale=0.7, tempering=2.0),
                        lambda u, a=a: mp.gammainc(-mp.mpf(a), 2 * u))
       for a in (1.0, 1.3)},
}


class TestJumpSizeLaw:
    """Jump sizes drawn by each family's sampler follow pi restricted to [eps, inf)."""

    @pytest.mark.parametrize("eps", [1e-3, 0.1])
    @pytest.mark.parametrize("name", sorted(JUMP_TAILS))
    def test_ks_against_normalized_tail(self, name, eps):
        jumps, tail = JUMP_TAILS[name]
        draws = jumps.sampler(eps)(substream_generator(2718, 0), 5000)
        assert draws.shape == (5000,) and draws.min() >= eps
        t_eps = tail(mp.mpf(eps))

        def cdf(u):
            return np.array([float(1 - tail(mp.mpf(v)) / t_eps) for v in u])

        assert kstest(draws, cdf).pvalue >= 1e-3

    def test_no_jumps_have_no_sampler(self):
        assert NoJumps().sampler(1e-3) is None

    def test_stable_has_no_truncated_sampler(self):
        # paths draw stable increments exactly, never truncated jumps
        jumps = StablePositive(alpha=1.5, scale=0.7)
        assert jumps.sampler(1e-3) is None and jumps.increment_sampler(1e-3) is not None

    def test_tempered_below_one_has_no_truncated_sampler(self):
        # tempered alpha < 1 increments are drawn exactly as well
        jumps = TemperedStable(0.6, 0.7, 2.0)
        assert jumps.sampler(1e-3) is None and jumps.increment_sampler(1e-3) is not None


# models whose increments are drawn exactly, each with a drift that keeps
# it from being a subordinator
EXACT_MODELS = {
    **{f"stable{a}_c{c}": validate(1.0, c, StablePositive(alpha=a, scale=0.7))
       for a in (0.6, 1.0, 1.5, 1.8) for c in (0.0, 0.3)},
    "tempered0.6": validate(0.5, 0.2, TemperedStable(alpha=0.6, scale=0.7, tempering=2.0)),
}


class TestExactIncrementLaw:
    """Exact increments have E e^{-lam (Z_dt - Z_0)} = e^{dt psi(lam)}."""

    @pytest.mark.parametrize("name", sorted(EXACT_MODELS))
    def test_laplace_transform_of_increments(self, name):
        m = EXACT_MODELS[name]
        # dt psi(16) = 2 at most bounds the variance of e^{-8 dZ}
        dt = min(0.05, 2.0 / m.laplace_exponent(16.0))
        assert m.jumps.increment_sampler(dt) is not None
        cfg = PathConfig(dt=dt, horizon=8000 * dt, barrier=1e12, seed=77)
        incs = np.concatenate([np.diff(sample_path(m, 1e4, cfg, i).values)
                               for i in range(3)])
        assert len(incs) >= 24000
        for lam in (0.5, 2.0, 8.0):
            e = np.exp(-lam * incs)
            se = e.std(ddof=1) / math.sqrt(len(e))
            want = math.exp(dt * m.laplace_exponent(lam))
            assert abs(e.mean() - want) <= 4.0 * se, (lam, e.mean(), want, se)

    @pytest.mark.parametrize("jumps", [NoJumps(), CompoundPoissonExp(rate=2.0, jump_mean=0.5),
                                       TemperedStable(alpha=1.0, scale=0.7, tempering=2.0),
                                       TemperedStable(alpha=1.3, scale=0.7, tempering=2.0)],
                             ids=["none", "cpexp", "tempered1", "tempered13"])
    def test_truncated_families_have_none(self, jumps):
        assert jumps.increment_sampler(1e-3) is None


class TestFunctionalAlongPath:
    def test_sqrt_singularity_value(self):
        # int_0^1 (1-t)^(-1/2) dt = 2
        fs = functional_along_path(drift_path(), PowerLaw(0.5))
        assert fs.A_final == pytest.approx(2.0, abs=0.01)

    def test_constant_clock(self):
        p = drift_path()
        fs = functional_along_path(p, constant_functional())
        assert np.allclose(fs.A, fs.dt * np.arange(len(fs.values)))
        assert fs.A_final == pytest.approx(p.zeta, abs=1e-9)

    def test_log_divergence_flagged_infinite(self):
        fs = functional_along_path(drift_path(), PowerLaw(1.0))
        assert fs.A_final == math.inf

    def test_monotone_exactly(self):
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=10.0, barrier=1e6, seed=5)
        p = sample_path(m, 1.0, cfg, 7)
        fs = functional_along_path(p, PowerLaw(0.7))
        assert (np.diff(fs.A) >= 0.0).all()

    def test_trapezoid_sum_bitwise(self):
        # the accumulated clock is exactly the cumulative trapezoid rule
        cases = [(stable_power_model(1.5), PowerLaw(0.7)),
                 (builtin_model("cpexp"), constant_functional()),
                 (builtin_model("bmdrift"), PowerLaw(1.3))]
        cfg = PathConfig(dt=1e-3, horizon=10.0, barrier=1e3, seed=4)
        for model, f in cases:
            for i in range(5):
                p = sample_path(model, 1.0, cfg, i)
                fs = functional_along_path(p, f)
                fv = f.values(fs.values)
                steps = np.diff(fs.dt * np.arange(len(fs.values)))
                ref = np.concatenate(([0.0], np.cumsum(steps * 0.5 * (fv[:-1] + fv[1:]))))
                assert np.array_equal(fs.A, ref)

    def test_finite_at_subcritical_power_on_stable(self):
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=30.0, barrier=1e6, seed=6)
        for i in range(5):
            p = sample_path(m, 1.0, cfg, i)
            if p.status != "hit_zero":
                continue
            fs = functional_along_path(p, PowerLaw(1.0))
            assert math.isfinite(fs.A_final)

    def test_supercritical_power_infinite_at_hit(self):
        # theta above gamma + 1: the sub-grid panel diverges
        p = drift_path()
        assert p.subgrid_exponent == 0.0
        fs = functional_along_path(p, PowerLaw(1.2))
        assert fs.A_final == math.inf


class TestTimeChange:
    def test_identity_clock(self):
        p = drift_path()
        fs = functional_along_path(p, constant_functional())
        for s in (0.1, 0.45, 0.8):
            times = p.dt * np.arange(len(p.values))
            grid_val = p.values[np.searchsorted(times, s, side="right")]
            assert time_changed_value(fs, s) == pytest.approx(grid_val, abs=2e-3)

    def test_barrier_path_reports_lower_bound(self):
        # upward drift line reaches the barrier; the explosion clock estimate
        # A_final is the functional accumulated so far, a lower bound
        m = brownian_model(-1.0)
        cfg = PathConfig(dt=1e-3, horizon=50.0, barrier=3.0, seed=31)
        for i in range(20):
            p = sample_path(m, 1.0, cfg, i)
            if p.status != "hit_barrier":
                continue
            fs = functional_along_path(p, constant_functional())
            assert fs.status == "hit_barrier"
            assert fs.A_final == fs.A[-1] > 0.0
            assert time_changed_value(fs, fs.A_final) == fs.values[-1]
            return
        pytest.fail("no barrier path found in 20 substreams")


class TestFinitenessAgreesWithIntegralTest:
    """At and just above the critical theta the hitting clock is infinite on
    every path, as `extinction_test` says; below it, finite.  gamma is W's
    power at 0+ from the jump family: 0 on both models, where psi has index
    1 at infinity (a drift, or alpha = 1 with a log factor).  A gamma read
    numerically as lam psi'/psi - 1 at lam = 1e8 (2.4e-4 and 0.053 here)
    puts theta below gamma + 1 and reads every clock finite, which fails
    this test."""

    MODELS = {"tempered0.6": (validate(2.0, 0.0, TemperedStable(0.6, 1.0, 1.0)), 1.0),
              "stable1": (validate(1.0, 0.0, StablePositive(1.0, 1.0)), 1.02)}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_reads_the_extinction_verdict(self, name):
        model, theta = self.MODELS[name]
        assert extinction_test(model, PowerLaw(theta)).diverges
        cfg = PathConfig(dt=1e-3, horizon=20.0, barrier=20.0, seed=5)
        for th, want in ((theta, 0.0), (0.9, 1.0)):
            s = mc_estimate(model, 1.0, PowerLaw(th), FunctionalFiniteness(), 100, cfg)
            assert s.extras["n_hit"] > 50
            assert s.estimate == want, (name, th)


class TestMcEstimate:
    def test_needs_enough_paths(self):
        cfg = PathConfig(dt=1e-2, horizon=5.0, barrier=30.0)
        with pytest.raises(PreconditionViolatedError):
            mc_estimate(builtin_model("bmdrift"), 1.0, None, HitProb(), 10, cfg)

    def test_all_censored_raises(self):
        m = validate(0.0, 1.0, NoJumps())
        cfg = PathConfig(dt=1e-3, horizon=0.01, barrier=1000.0, seed=4)
        with pytest.raises(AllCensoredError):
            mc_estimate(m, 500.0, None, HitProb(), 100, cfg)

    def test_hitprob_smoke(self):
        m = builtin_model("bmdrift")
        cfg = PathConfig(dt=2e-3, horizon=80.0, barrier=30.0, seed=42)
        s = mc_estimate(m, 1.0, None, HitProb(), 2000, cfg)
        # 3 standard errors plus the O(sqrt(dt)) first-passage budget
        assert s.estimate == pytest.approx(math.exp(-1.0), abs=3 * s.stderr + 0.02)

    def test_mean_zeta_brownian_down(self):
        # mean passage to ~0 equals x / psi'(0) = 1
        m = builtin_model("bmup")
        cfg = PathConfig(dt=1e-3, horizon=50.0, barrier=40.0, seed=12)
        s = mc_estimate(m, 1.0, constant_functional(), MeanPassage(y=1e-4), 2000, cfg)
        assert s.estimate == pytest.approx(1.0, abs=3 * s.stderr + 0.02)

    def test_condexp_smoke(self):
        m = validate(0.0, 1.0, NoJumps())
        cfg = PathConfig(dt=2e-3, horizon=500.0, barrier=200.0, seed=13)
        s = mc_estimate(m, 1.0, constant_functional(), CondExpFunctional(1.0), 1000, cfg)
        assert s.estimate == pytest.approx(1 - math.exp(-1.0), abs=3 * s.stderr + 0.05)

    def test_finiteness_estimator(self):
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=2e-3, horizon=30.0, barrier=1e6, seed=14)
        s = mc_estimate(m, 1.0, PowerLaw(1.0), FunctionalFiniteness(), 300, cfg)
        assert s.estimate == 1.0
        assert "boundary_time_quartiles" in s.extras

    def test_worker_determinism(self):
        m = builtin_model("bmdrift")
        cfg = PathConfig(dt=5e-3, horizon=20.0, barrier=15.0, seed=21)
        runs = [mc_estimate(m, 1.0, None, HitProb(), 200, cfg, workers=w)
                for w in (1, 4)]
        assert runs[0].estimate == runs[1].estimate
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].censored_fraction == runs[1].censored_fraction

    @pytest.mark.parametrize("model", [
        builtin_model("cpexp"),
        stable_power_model(1.5),
        validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0)),
        # exact increments drawing normals, V and W, and tempered redraws
        EXACT_MODELS["stable1.0_c0.3"],
        EXACT_MODELS["tempered0.6"],
    ])
    def test_worker_determinism_with_jumps(self, model):
        cfg = PathConfig(dt=1e-3, horizon=3.0, barrier=10.0, seed=23)
        runs = [mc_estimate(model, 1.0, PowerLaw(0.5), FunctionalFiniteness(), 120, cfg,
                            workers=w, keep_path_rows=True)
                for w in (1, 2)]
        a, b = runs
        assert (a.estimate, a.stderr, a.censored_fraction) == \
            (b.estimate, b.stderr, b.censored_fraction)
        assert repr(a.extras) == repr(b.extras)

    def test_rows_are_sample_paths(self):
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=3.0, barrier=1e6, seed=24)
        s = mc_estimate(m, 1.0, PowerLaw(0.5), FunctionalFiniteness(), 100, cfg,
                        workers=2, keep_path_rows=True)
        for i, status, zeta, a_final in s.extras["path_rows"][::9]:
            p = sample_path(m, 1.0, cfg, i)
            assert status == p.status
            assert zeta == p.zeta or (math.isnan(zeta) and p.zeta is None)
            assert a_final == functional_along_path(p, PowerLaw(0.5)).A_final

    @pytest.mark.parametrize("estimator", ["hitprob", "meanpassage", "condexp", "finiteness"])
    @pytest.mark.parametrize("model", [
        builtin_model("bmdrift"),
        builtin_model("cpexp"),
        validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0)),
    ], ids=["nojumps", "cpexp", "tempered"])
    def test_rows_are_sample_paths_each_estimator(self, model, estimator):
        # every row of the lockstep engine is the path sample_path draws on
        # its own, with A as functional_along_path accumulates it
        f, lam = PowerLaw(0.5), 1.0
        est, spec = {"hitprob": (HitProb(), None),
                     "meanpassage": (MeanPassage(y=0.05), f),
                     "condexp": (CondExpFunctional(lam), Generic(
                         fn=lambda z: f.values(z) * np.exp(-lam * np.asarray(z, dtype=float)))),
                     "finiteness": (FunctionalFiniteness(), f)}[estimator]
        cfg = PathConfig(dt=1e-3, horizon=3.0, barrier=10.0, seed=24)
        path_cfg = replace(cfg, stop_level=0.05) if estimator == "meanpassage" else cfg
        want = []
        for i in range(100):
            p = sample_path(model, 1.0, path_cfg, i)
            a = functional_along_path(p, spec).A_final if spec else math.nan
            want.append((i, p.status, p.zeta if p.zeta is not None else math.nan, a))
        assert {row[1] for row in want} >= {"hit_zero"}
        for workers in (1, 2):
            s = mc_estimate(model, 1.0, None if spec is None else f, est, 100, cfg,
                            workers=workers, keep_path_rows=True)
            for got, ref in zip(s.extras["path_rows"], want, strict=True):
                assert got[:2] == ref[:2]
                for g, r in zip(got[2:], ref[2:]):
                    assert g == r or (math.isnan(g) and math.isnan(r))

    def test_memory_does_not_grow_with_horizon(self):
        # a path's values outlive only their block: the survivors of a 4x
        # longer horizon add no memory beyond the blocks of live paths
        import tracemalloc

        m = validate(0.0, 1.0, NoJumps())
        peaks, drawn = [], []
        for horizon in (500.0, 2000.0):
            cfg = PathConfig(dt=1e-2, horizon=horizon, barrier=300.0, seed=27)
            tracemalloc.start()
            try:
                s = mc_estimate(m, 1.0, constant_functional(), CondExpFunctional(1.0), 100, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            drawn.append(s.extras["steps_drawn"])
        # survivors of the short horizon run 4x longer in the long one
        assert drawn[1] >= 2 * drawn[0]
        assert peaks[1] <= 1.1 * peaks[0] + 64 * 1024, peaks

    @pytest.mark.parametrize("name,barrier", [("cpexp", 8.0), ("stable15", 1e6),
                                              ("tempered13", 10.0)])
    def test_draw_counters(self, name, barrier):
        m = TEMPERED13 if name == "tempered13" else builtin_model(name)
        cfg = PathConfig(dt=1e-3, horizon=4.0, barrier=barrier, seed=25)
        s = mc_estimate(m, 1.0, None, HitProb(), 150, cfg)
        paths = [sample_path(m, 1.0, cfg, i) for i in range(150)]
        assert s.extras["steps_drawn"] == sum(p.steps_drawn for p in paths)
        assert s.extras["steps_used"] == sum(len(p.values) - 1 for p in paths)
        assert s.extras["jumps_drawn"] == sum(p.jumps_drawn for p in paths)
        assert s.extras["steps_used"] <= s.extras["steps_drawn"]
        if m.jumps.increment_sampler(cfg.dt) is not None:
            # exact increments draw no truncated jumps
            assert s.extras["increments"] == "exact"
            assert s.extras["jumps_drawn"] == 0
            return
        assert s.extras["increments"] == "truncated"
        # jump totals are Poisson given the steps drawn
        mean = m.jumps.tail_mass(cfg.eps) * cfg.dt * s.extras["steps_drawn"]
        assert abs(s.extras["jumps_drawn"] - mean) <= 4.0 * math.sqrt(mean)

    def test_seed_changes_result(self):
        m = builtin_model("bmdrift")
        base = PathConfig(dt=5e-3, horizon=20.0, barrier=15.0, seed=21)
        other = PathConfig(dt=5e-3, horizon=20.0, barrier=15.0, seed=22)
        a = mc_estimate(m, 1.0, None, HitProb(), 200, base)
        b = mc_estimate(m, 1.0, None, HitProb(), 200, other)
        assert a.estimate != b.estimate

    def test_path_rows(self):
        m = builtin_model("bmdrift")
        cfg = PathConfig(dt=5e-3, horizon=20.0, barrier=15.0, seed=21)
        s = mc_estimate(m, 1.0, constant_functional(), MeanPassage(y=0.05), 150,
                        cfg, keep_path_rows=True)
        rows = s.extras["path_rows"]
        assert len(rows) == 150
        assert rows[0][0] == 0 and rows[-1][0] == 149


class TestBiasOrdering:
    def test_hitprob_bias_shrinks_with_dt(self):
        # grid first-passage detection undershoots the hitting probability;
        # halving dt must move the estimate monotonically toward the target
        m = builtin_model("bmdrift")
        estimates = []
        for dt in (1.6e-2, 4e-3, 1e-3):
            cfg = PathConfig(dt=dt, horizon=80.0, barrier=30.0, seed=914)
            s = mc_estimate(m, 1.0, None, HitProb(), 12000, cfg, workers=4)
            estimates.append(s.estimate)
        target = math.exp(-1.0)
        assert estimates[0] < estimates[1] < estimates[2] < target


class TestAgreementSuite:
    """Monte Carlo vs analytic oracles across the shipped families.

    Tolerances are three standard errors plus an explicit discretization
    budget; seeds are fixed, so the assertions are deterministic.
    """

    def test_hitprob_cpexp(self):
        m = builtin_model("cpexp")
        cfg = PathConfig(dt=1e-3, horizon=150.0, barrier=60.0, seed=916)
        s = mc_estimate(m, 1.0, None, HitProb(), 4000, cfg, workers=4)
        assert s.estimate == pytest.approx(m.hit_probability(1.0),
                                           abs=3 * s.stderr + 0.01)

    def test_condexp_stable(self):
        from levyfn import conditional_exp_constant_closed_form

        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=60.0, barrier=1e6, seed=915)
        s = mc_estimate(m, 1.0, constant_functional(), CondExpFunctional(1.0),
                        2000, cfg, workers=4)
        oracle = conditional_exp_constant_closed_form(m, 1.0, 1.0)
        assert s.estimate == pytest.approx(oracle, abs=3 * s.stderr + 0.02)

    def test_meanpassage_cpexp_decaying_functional(self):
        # f = 1 has infinite expectation here (positive survival
        # probability), so the agreement case uses a decaying functional
        import numpy as np
        from levyfn import Generic, ScaleEvaluator

        f = Generic(fn=lambda z: np.exp(-np.asarray(z, dtype=float)),
                    decreasing=True, bounded_away_from_origin=True)
        m = builtin_model("cpexp")
        oracle = ScaleEvaluator(m).occupation_expectation(f, 1.0, 0.05)
        cfg = PathConfig(dt=1e-3, horizon=300.0, barrier=80.0, seed=917)
        s = mc_estimate(m, 1.0, f, MeanPassage(y=0.05), 3000, cfg, workers=4)
        assert s.estimate == pytest.approx(oracle, abs=3 * s.stderr + 0.02)

    def test_hitprob_tempered(self):
        # exercises the rejection sampler for tempered jumps end to end
        from levyfn import TemperedStable

        m = validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0))
        cfg = PathConfig(dt=1e-3, horizon=30.0, barrier=50.0, seed=5)
        s = mc_estimate(m, 1.0, None, HitProb(), 800, cfg, workers=4)
        assert s.estimate == pytest.approx(m.hit_probability(1.0),
                                           abs=3 * s.stderr + 0.02)
