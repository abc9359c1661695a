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
    stable_power_model,
    time_change,
    time_changed_value,
    validate,
)
from levyfn.errors import AllCensoredError, PreconditionViolatedError
from levyfn.levy_model import jump_tail_mass
from levyfn.montecarlo import substream_generator

DRIFT_LINE = validate(1.0, 0.0, NoJumps())  # Z = x - t, deterministic


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
        # spectrally positive: all heavy moves point up
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=5.0, barrier=1e6, seed=3)
        p = sample_path(m, 1.0, cfg, 4)
        steps = np.diff(p.values)
        from levyfn.levy_model import jump_mean_eps_to_one, jump_small_variance

        drift_step = cfg.dt * (m.drift + jump_mean_eps_to_one(m.jumps, cfg.eps))
        small_sd = math.sqrt(cfg.dt * jump_small_variance(m.jumps, cfg.eps))
        assert steps.min() >= -(drift_step + 8.0 * small_sd)

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


# pi([u, inf)) up to a constant factor, in mpmath, for one family of each kind
JUMP_TAILS = {
    "stable06": (StablePositive(alpha=0.6, scale=0.7), lambda u: u ** mp.mpf(-0.6)),
    "stable1": (StablePositive(alpha=1.0, scale=0.7), lambda u: 1 / u),
    "stable15": (StablePositive(alpha=1.5, scale=0.7), lambda u: u ** mp.mpf(-1.5)),
    "cpexp": (CompoundPoissonExp(rate=2.0, jump_mean=0.5), lambda u: mp.exp(-2 * u)),
    **{f"tempered{a}": (TemperedStable(alpha=a, scale=0.7, tempering=2.0),
                        lambda u, a=a: mp.gammainc(-mp.mpf(a), 2 * u))
       for a in (0.6, 1.0, 1.3)},
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
    def test_reindexing_exact(self):
        p = drift_path()
        fs = time_change(functional_along_path(p, PowerLaw(0.5)))
        assert np.array_equal(fs.x_values, fs.values)
        assert np.array_equal(fs.x_times, fs.A)

    def test_boundary_clock_identity_bitwise(self):
        m = stable_power_model(1.5)
        cfg = PathConfig(dt=1e-3, horizon=30.0, barrier=1e6, seed=8)
        for i in range(10):
            p = sample_path(m, 1.0, cfg, i)
            fs = time_change(functional_along_path(p, PowerLaw(1.0)))
            assert fs.boundary_time == fs.A_final
            assert fs.boundary_is_lower_bound == (p.status != "hit_zero")

    def test_identity_clock(self):
        p = drift_path()
        fs = time_change(functional_along_path(p, constant_functional()))
        for s in (0.1, 0.45, 0.8):
            times = p.dt * np.arange(len(p.values))
            grid_val = p.values[np.searchsorted(times, s, side="right")]
            assert time_changed_value(fs, s) == pytest.approx(grid_val, abs=2e-3)

    def test_requires_filled_skeleton(self):
        fs = functional_along_path(drift_path(), constant_functional())
        with pytest.raises(PreconditionViolatedError):
            time_changed_value(fs, 0.3)

    def test_barrier_path_reports_lower_bound(self):
        # upward drift line reaches the barrier; the explosion clock estimate
        # is the functional accumulated so far, flagged as a lower bound
        m = brownian_model(-1.0)
        cfg = PathConfig(dt=1e-3, horizon=50.0, barrier=3.0, seed=31)
        for i in range(20):
            p = sample_path(m, 1.0, cfg, i)
            if p.status != "hit_barrier":
                continue
            fs = time_change(functional_along_path(p, constant_functional()))
            assert fs.boundary_is_lower_bound
            assert fs.boundary_time == fs.A_final
            return
        pytest.fail("no barrier path found in 20 substreams")


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
        for i, status, zeta, a_final, t_boundary in s.extras["path_rows"][::9]:
            p = sample_path(m, 1.0, cfg, i)
            assert status == p.status
            assert zeta == p.zeta or (math.isnan(zeta) and p.zeta is None)
            assert a_final == t_boundary == functional_along_path(p, PowerLaw(0.5)).A_final

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
            want.append((i, p.status, p.zeta if p.zeta is not None else math.nan, a, a))
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

    @pytest.mark.parametrize("name,barrier", [("cpexp", 8.0), ("stable15", 1e6)])
    def test_draw_counters(self, name, barrier):
        m = builtin_model(name)
        cfg = PathConfig(dt=1e-3, horizon=4.0, barrier=barrier, seed=25)
        s = mc_estimate(m, 1.0, None, HitProb(), 150, cfg)
        paths = [sample_path(m, 1.0, cfg, i) for i in range(150)]
        assert s.extras["steps_drawn"] == sum(p.steps_drawn for p in paths)
        assert s.extras["steps_used"] == sum(len(p.values) - 1 for p in paths)
        assert s.extras["jumps_drawn"] == sum(p.jumps_drawn for p in paths)
        assert s.extras["steps_used"] <= s.extras["steps_drawn"]
        # jump totals are Poisson given the steps drawn
        mean = jump_tail_mass(m.jumps, cfg.eps) * cfg.dt * s.extras["steps_drawn"]
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
