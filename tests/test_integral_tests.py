import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from levyfn import (
    AtInfinity,
    AtZeroPlus,
    CompoundPoissonExp,
    Constant,
    Generic,
    LaplaceRep,
    LevyModel,
    NoJumps,
    PowerLaw,
    StablePositive,
    TemperedStable,
    brownian_model,
    builtin_model,
    classify_boundary,
    constant_functional,
    explosion_test,
    extinction_test,
    improper_integral_verdict,
    integral_tests,
    stable_power_model,
    quadrature,
    validate,
)
from levyfn.levy_model import _hp_consts, laplace_exponent_hp
from levyfn.errors import (
    NotApplicableError,
    PreconditionViolatedError,
    SignChangeError,
)


def as_generic(f):
    """The same function as a Generic, which takes the general route."""
    return Generic(fn=f.values, decreasing=f.decreasing,
                   bounded_away_from_origin=f.bounded_away_from_origin)


def as_laplace_rep(f):
    """f by its Laplace density alone, which takes the Laplace route at 0+
    with no index known."""
    return LaplaceRep(g=f.laplace_density())


class TestVerdictEngine:
    def test_inverse_square_tail(self):
        v = improper_integral_verdict(lambda t: t**-2.0, AtInfinity(1.0))
        assert v.converges
        assert v.value == pytest.approx(1.0, rel=1e-6)

    def test_harmonic_tail_diverges(self):
        v = improper_integral_verdict(lambda t: 1.0 / t, AtInfinity(1.0))
        assert v.diverges
        assert v.value == math.inf

    def test_negative_integrand_at_zero(self):
        v = improper_integral_verdict(lambda s: 1.0 / (s - 1.0), AtZeroPlus(0.5))
        assert v.converges
        assert v.value == pytest.approx(math.log(0.5), abs=1e-9)

    def test_negative_divergence_sign(self):
        v = improper_integral_verdict(lambda s: -1.0 / s, AtZeroPlus(0.5))
        assert v.diverges
        assert v.value == -math.inf

    def test_exponential_early_stop(self):
        v = improper_integral_verdict(lambda t: math.exp(-t), AtInfinity(1.0))
        assert v.converges
        assert v.value == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_zero_integrand(self):
        v = improper_integral_verdict(lambda t: 0.0, AtInfinity(1.0))
        assert v.converges and v.value == 0.0

    def test_sign_change_raises(self):
        with pytest.raises(SignChangeError):
            improper_integral_verdict(math.sin, AtInfinity(1.0))

    def test_integrable_singularity_at_zero(self):
        v = improper_integral_verdict(lambda s: s**-0.5, AtZeroPlus(1.0))
        assert v.converges
        assert v.value == pytest.approx(2.0, rel=1e-6)

    def test_log_divergence_at_zero(self):
        v = improper_integral_verdict(lambda s: 1.0 / s, AtZeroPlus(1.0))
        assert v.diverges

    def test_boundary_zone_is_inconclusive(self):
        # local exponent -1.07: between the converge (<= -1.15) and
        # diverge (>= -1.05) thresholds
        v = improper_integral_verdict(lambda t: t**-1.07, AtInfinity(1.0))
        assert v.verdict == "inconclusive"
        assert v.value is None


class TestFunctionalSpecs:
    def test_power_law_requires_positive_theta(self):
        with pytest.raises(ValueError):
            PowerLaw(0.0)

    @pytest.mark.parametrize("make, bad", [(PowerLaw, math.nan), (PowerLaw, math.inf),
                                           (Constant, math.nan), (Constant, math.inf)])
    def test_non_finite_parameter_rejected(self, make, bad):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            make(bad)

    def test_laplace_density_of_power_law(self):
        # x^{-theta} = integral e^{-xz} z^{theta-1}/Gamma(theta) dz
        g = PowerLaw(1.5).laplace_density()
        from scipy.integrate import quad

        val, _ = quad(lambda z: math.exp(-2.0 * z) * g(z), 0.0, math.inf)
        assert val == pytest.approx(2.0**-1.5, rel=1e-8)

    def test_constant_functional(self):
        f = constant_functional(2.5)
        assert isinstance(f, Constant) and f.constant == 2.5
        assert f.values(0.3) == 2.5
        assert f.decreasing and f.bounded_away_from_origin

    @pytest.mark.parametrize("f,flags,power,constant,has_density", [
        (PowerLaw(1.5), (True, True), 1.5, None, True),
        (LaplaceRep(g=lambda t: t * math.exp(-t)), (True, True), None, None, True),
        (Constant(2.5), (True, True), None, 2.5, False),
        (Generic(fn=lambda z: np.asarray(z, float) ** 2), (False, False), None, None, False),
    ], ids=["powerlaw", "laplacerep", "constant", "generic"])
    def test_contract(self, f, flags, power, constant, has_density):
        grid = np.geomspace(0.05, 20.0, 9)
        vals = f.values(grid)
        assert vals.shape == grid.shape and vals.dtype == float
        for x, v in zip(grid, vals):
            assert f.values(float(x)) == pytest.approx(v, rel=1e-14)
        assert (f.decreasing, f.bounded_away_from_origin) == flags
        assert f.power == power
        assert f.constant == constant
        assert (f.laplace_density() is not None) == has_density


# Laplace densities g with f(x) = integral e^{-xt} g(t) dt in closed form
LAPLACE_PAIRS = {
    "exp": (lambda t: np.exp(-t), lambda x: 1.0 / (1.0 + x)),
    "texp": (lambda t: t * np.exp(-t), lambda x: (1.0 + x) ** -2.0),
    **{f"power{theta}": (lambda t, a=theta: t ** (a - 1.0) / math.gamma(a),
                         lambda x, a=theta: x ** -a)
       for theta in (0.05, 0.5, 1.5, 2.5)},
}


class TestLaplaceRepRule:
    """`LaplaceRep.values`: one K15 rule on doubling panels in t."""

    @pytest.mark.parametrize("name", sorted(LAPLACE_PAIRS))
    def test_values_match_closed_form(self, name):
        g, f = LAPLACE_PAIRS[name]
        calls = []

        def counting(t):
            calls.append(np.shape(t))
            return g(t)

        rep = LaplaceRep(g=counting)
        mid = np.geomspace(1e-3, 1e3, 401)
        np.testing.assert_allclose(rep.values(mid), f(mid), rtol=1e-12, atol=0.0)
        # both ends of the stated range [2^-48, 2^48]
        wide = np.geomspace(2.0**-48, 2.0**48, 385)
        np.testing.assert_allclose(rep.values(wide.reshape(5, 77)), f(wide).reshape(5, 77),
                                   rtol=1e-10, atol=0.0)
        assert len(calls) == 2 and all(len(shape) == 1 for shape in calls)
        assert rep.values(2.0**15) == pytest.approx(f(2.0**15), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(LAPLACE_PAIRS))
    def test_underflowing_nodes_change_nothing(self, name):
        # each block of x skips the nodes where e^(-xt) is 0 for all its x:
        # the values are those of the whole rule
        g = LAPLACE_PAIRS[name][0]
        x = np.random.default_rng(3).permutation(np.geomspace(2.0**-48, 2.0**48, 2000))
        nodes, weights = quadrature._laplace_rule()
        gw = g(nodes) * weights
        rho = gw[:15].sum() / gw[15:30].sum()
        head = gw[:15].sum() * rho / (1.0 - rho)
        want = np.concatenate([np.exp(-x[s:s + 128, None] * nodes) @ gw
                               for s in range(0, len(x), 128)]) + head
        np.testing.assert_allclose(LaplaceRep(g=g).values(x), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("x", [2.0**-49, 2.0**49, 0.0, math.inf, math.nan])
    def test_outside_the_range_raises(self, x):
        rep = LaplaceRep(g=lambda t: np.exp(-t))
        with pytest.raises(PreconditionViolatedError):
            rep.values(np.array([1.0, x]))
        with pytest.raises(PreconditionViolatedError):
            rep.values(x)


class TestExtinction:
    @pytest.mark.parametrize("theta,want", [(1.0, "converges"), (1.5, "diverges")])
    def test_normalized_stable(self, theta, want):
        v = extinction_test(stable_power_model(1.5), PowerLaw(theta))
        assert v.verdict == want

    def test_pure_gaussian(self):
        m = validate(0.0, 1.0, NoJumps())
        assert extinction_test(m, PowerLaw(0.5)).converges

    def test_analytic_shortcut_matches_engine(self):
        # a Generic wrapper of the same f bypasses the pure-power shortcut,
        # so this compares the doubling-panel engine with the exact integral
        m = stable_power_model(1.5)
        f = Generic(fn=lambda z: np.asarray(z, float) ** -1.0,
                    decreasing=True, bounded_away_from_origin=True)
        v_engine = extinction_test(m, f)
        v_exact = extinction_test(m, PowerLaw(1.0))
        assert v_engine.converges and v_exact.converges
        assert v_engine.diagnostics["route"] == "doubling_panels"
        assert v_exact.diagnostics["route"] == "analytic_power"
        assert v_engine.value == pytest.approx(v_exact.value, rel=1e-4)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_stable_benchmark(self, alpha):
        m = stable_power_model(alpha)
        for theta in (0.5, 1.0, alpha - 0.1, alpha, alpha + 0.5):
            v = extinction_test(m, PowerLaw(theta))
            assert v.converges == (theta < alpha), (alpha, theta, v.verdict)

    def test_unbounded_generic_rejected(self):
        f = Generic(fn=lambda z: z, decreasing=False, bounded_away_from_origin=False)
        with pytest.raises(PreconditionViolatedError):
            extinction_test(brownian_model(-1.0), f)

    @given(st.floats(0.2, 1.9), st.sampled_from(["stable15", "bmdrift", "bmup", "cpexp"]),
           st.floats(0.05, 20.0))
    def test_scaling_invariance(self, theta, name, kappa):
        # compare like with like: both sides through the panel engine (the
        # pure-power shortcut is trivially scale-free)
        model = builtin_model(name)

        def wrap(k):
            return Generic(fn=lambda z, kk=k: kk * np.asarray(z, float) ** (-theta),
                           decreasing=True, bounded_away_from_origin=True)

        base = extinction_test(model, wrap(1.0))
        scaled = extinction_test(model, wrap(kappa))
        assert scaled.verdict == base.verdict
        if base.converges:
            assert scaled.value == pytest.approx(kappa * base.value, rel=1e-6)

    @given(st.sampled_from(["stable15", "bmdrift", "bmup", "cpexp"]),
           st.floats(0.2, 1.8), st.floats(0.05, 0.8))
    def test_theta_monotonicity(self, name, theta, dec):
        model = builtin_model(name)
        hi = extinction_test(model, PowerLaw(theta))
        if hi.converges:
            lo = extinction_test(model, PowerLaw(max(theta - dec, 0.05)))
            assert lo.converges


class TestExplosion:
    def test_brownian_drift_values(self):
        m = brownian_model(-1.0)
        v = explosion_test(m, PowerLaw(2.0))
        assert v.converges
        assert v.value == pytest.approx(math.log(0.5), abs=1e-8)
        v = explosion_test(m, PowerLaw(1.0))
        assert v.diverges and v.value == -math.inf

    def test_tempered_laplace_route_quadrature_is_clean(self):
        # psi near 0+ must be accurate enough for quad to converge on every
        # panel; the LaplaceRep takes the engine, which reads the panels
        m = validate(-0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))
        v = explosion_test(m, as_laplace_rep(PowerLaw(1.5)))
        assert v.diagnostics["route"] == "laplace_zero"
        assert v.diagnostics["panels"] == 40
        assert v.diagnostics["quad_warnings"] == 0
        assert v.diagnostics["max_rel_abserr"] < 1e-10
        assert v.converges

    def test_not_applicable_without_root(self):
        with pytest.raises(NotApplicableError):
            explosion_test(stable_power_model(1.5), PowerLaw(1.0))

    def test_generic_needs_decreasing_flag(self):
        f = Generic(fn=lambda z: np.exp(np.asarray(z, float)), decreasing=False,
                    bounded_away_from_origin=False)
        with pytest.raises(PreconditionViolatedError):
            explosion_test(brownian_model(-1.0), f)

    def test_tail_route_on_generic(self):
        f = Generic(fn=lambda z: np.exp(-np.asarray(z, float)), decreasing=True,
                    bounded_away_from_origin=True)
        v = explosion_test(brownian_model(-1.0), f)
        assert v.diagnostics["route"] == "tail_integral"
        assert v.converges

    @pytest.mark.parametrize("name", ["bmdrift", "cpexp"])
    @pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
    def test_routes_agree(self, name, theta):
        # the Generic wrapper has no Laplace density, so it takes the tail
        # route; the LaplaceRep takes the engine's Laplace route, and the
        # PowerLaw itself psi's index at 0+
        model = builtin_model(name)
        a = explosion_test(model, as_generic(PowerLaw(theta)))
        b = explosion_test(model, as_laplace_rep(PowerLaw(theta)))
        c = explosion_test(model, PowerLaw(theta))
        assert a.diagnostics["route"] == "tail_integral"
        assert b.diagnostics["route"] == "laplace_zero"
        assert c.diagnostics["route"] == "analytic_index"
        assert a.verdict == b.verdict == c.verdict == "converges"
        assert c.value == pytest.approx(b.value, rel=1e-6)

    def test_route_disagreement_boundary(self):
        # theta = 1: tail integral of y^-1 is log-divergent, and so is the
        # Laplace route near 0 (PowerLaw(1.0) itself is decided by psi's index)
        m = builtin_model("cpexp")
        a = explosion_test(m, as_generic(PowerLaw(1.0)))
        b = explosion_test(m, as_laplace_rep(PowerLaw(1.0)))
        assert a.diagnostics["route"] == "tail_integral"
        assert b.diagnostics["route"] == "laplace_zero"
        assert a.diverges and b.diverges


# (drift, gaussian, jumps, critical theta at infinity, at 0+ or None where
# Phi(0) = 0), the critical values read off psi's form: at infinity 2 with a
# Gaussian part, else the larger of 1 and the jump index (lam log lam at
# alpha = 1); at 0+ 1 where psi'(0+) is finite, else the stable alpha
INDEX_CASES = {
    "none_c0": (1.0, 0.0, NoJumps(), 1.0, None),
    "none_phi0": (-1.0, 0.5, NoJumps(), 2.0, 1.0),
    "none_up": (1.0, 0.5, NoJumps(), 2.0, None),
    "cpexp_c0_phi0": (0.25, 0.0, CompoundPoissonExp(1.0, 1.0), 1.0, 1.0),
    "cpexp_c0_up": (1.5, 0.0, CompoundPoissonExp(1.0, 1.0), 1.0, None),
    "cpexp_phi0": (0.25, 0.3, CompoundPoissonExp(1.0, 1.0), 2.0, 1.0),
    "stable0.8_c0": (0.5, 0.0, StablePositive(0.8, 1.0), 1.0, 0.8),
    "stable0.8": (0.5, 0.3, StablePositive(0.8, 1.0), 2.0, 0.8),
    "stable1_c0": (1.0, 0.0, StablePositive(1.0, 1.0), 1.0, 1.0),
    "stable1": (1.0, 0.3, StablePositive(1.0, 1.0), 2.0, 1.0),
    "stable1.5_c0_phi0": (1.5, 0.0, StablePositive(1.5, 1.0), 1.5, 1.0),
    "stable1.5_c0_up": (2.5, 0.0, StablePositive(1.5, 1.0), 1.5, None),
    "stable1.5_phi0": (1.5, 0.3, StablePositive(1.5, 1.0), 2.0, 1.0),
    "tempered0.6_c0_phi0": (0.2, 0.0, TemperedStable(0.6, 1.0, 1.0), 1.0, 1.0),
    "tempered0.6_c0_up": (2.0, 0.0, TemperedStable(0.6, 1.0, 1.0), 1.0, None),
    "tempered0.6_phi0": (-0.5, 0.3, TemperedStable(0.6, 1.0, 1.0), 2.0, 1.0),
    "tempered1_c0_phi0": (-0.5, 0.0, TemperedStable(1.0, 1.0, 1.0), 1.0, 1.0),
    "tempered1_phi0": (-0.5, 0.3, TemperedStable(1.0, 1.0, 1.0), 2.0, 1.0),
    "tempered1.5_c0_phi0": (-0.5, 0.0, TemperedStable(1.5, 1.0, 1.0), 1.5, 1.0),
    "tempered1.5_phi0": (-0.5, 0.3, TemperedStable(1.5, 1.0, 1.0), 2.0, 1.0),
}


def index_case(name):
    drift, gaussian, jumps, crit_inf, crit_zero = INDEX_CASES[name]
    model = validate(drift, gaussian, jumps)
    assert (model.phi_zero().value > 0.0) == (crit_zero is not None)
    return model, crit_inf, crit_zero


def psi_array_calls(monkeypatch):
    calls = []
    orig = LevyModel.laplace_exponent_array

    def counting(self, lam):
        calls.append(lam)
        return orig(self, lam)

    monkeypatch.setattr(LevyModel, "laplace_exponent_array", counting)
    return calls


def engine_calls(monkeypatch):
    calls = []
    orig = integral_tests.improper_integral_verdict

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(integral_tests, "improper_integral_verdict", counting)
    return calls


class TestIndexRoute:
    """PowerLaw verdicts next to the critical theta: psi's index decides
    both sides, the divergent one with no sweep, and none calls the ratio
    engine."""

    @pytest.mark.parametrize("offset", [-0.01, 0.0, 0.01])
    @pytest.mark.parametrize("name", sorted(INDEX_CASES))
    def test_extinction(self, monkeypatch, name, offset):
        model, crit, _ = index_case(name)
        engine = engine_calls(monkeypatch)
        calls = psi_array_calls(monkeypatch)
        theta = crit + offset
        v = extinction_test(model, PowerLaw(theta))
        assert engine == []
        if theta < crit:
            assert v.converges and 0.0 < v.value < math.inf
            assert v.route in ("analytic_index", "analytic_power")
            return
        assert v.diverges and v.value == math.inf
        assert v.route == "analytic_index"
        assert calls == []

    @pytest.mark.parametrize("offset", [-0.01, 0.0, 0.01])
    @pytest.mark.parametrize("name", sorted(n for n, case in INDEX_CASES.items()
                                            if case[4] is not None))
    def test_explosion(self, monkeypatch, name, offset):
        model, _, crit = index_case(name)
        engine = engine_calls(monkeypatch)
        calls = psi_array_calls(monkeypatch)
        theta = crit + offset
        v = explosion_test(model, PowerLaw(theta))
        assert engine == []
        if theta > crit:
            assert v.converges and -math.inf < v.value < 0.0
            assert v.route == "analytic_index" and v.power == crit
            assert len(calls) == 1
            return
        assert v.diverges and v.value == -math.inf
        assert v.route == "analytic_index" and v.diagnostics == {"route": "analytic_index",
                                                                  "power": crit}
        assert calls == []

    @pytest.mark.parametrize("name", ["cpexp_phi0", "stable1_c0", "tempered1.5_c0_phi0"])
    def test_wrapped_power_takes_the_engine(self, name):
        model, crit_inf, crit_zero = index_case(name)
        ext = extinction_test(model, as_generic(PowerLaw(crit_inf + 0.01)))
        assert ext.route == "doubling_panels"
        expl = explosion_test(model, as_laplace_rep(PowerLaw(crit_zero - 0.01)))
        assert expl.route == "laplace_zero" and expl.diverges

    @pytest.mark.parametrize("model,theta,where", [
        (builtin_model("cpexp"), 1.95, "at infinity is 2"),
        (builtin_model("cpexp"), 1.99, "at infinity is 2"),
        (builtin_model("bmdrift"), 1.02, "at 0+ is 1"),
        (builtin_model("bmdrift"), 1.04, "at 0+ is 1"),
        (validate(0.5, 0.0, StablePositive(0.8, 1.0)), 0.81, "at 0+ is 0.8"),
    ])
    def test_ratios_against_the_index_are_inconclusive(self, model, theta, where):
        # the panel ratios read "diverges" on these convergent integrals, so
        # the engine, which knows no index, is wrong on the wrapped f; the
        # PowerLaw verdict reads psi's index (`where`) and converges
        test = extinction_test if where.startswith("at infinity") else explosion_test
        engine = test(model, as_generic(PowerLaw(theta)) if test is extinction_test
                      else as_laplace_rep(PowerLaw(theta)))
        assert engine.diverges and engine.diagnostics["diverge_margin"] >= 0.0
        v = test(model, PowerLaw(theta))
        assert v.converges and math.isfinite(v.value) and v.reason is None
        assert v.route == "analytic_index" and where.endswith(f" is {v.power:g}")
        assert v.panels == engine.panels and v.sweep is None

    def test_log_harmonic_tail_diverges(self):
        v = improper_integral_verdict(lambda t: 1.0 / (t * np.log(t)), AtInfinity(2.0))
        assert v.diverges and v.value == math.inf


# models of the value tests: (drift, gaussian, jumps); psi's index decides
# the extinction values at infinity and the explosion values at 0+
VALUE_CASES = {
    "cpexp": builtin_model("cpexp"),
    "bmdrift": builtin_model("bmdrift"),
    "tempered1.1_c0": validate(1.0, 0.0, TemperedStable(1.1, 1.0, 1.0)),
    "tempered1.5_phi0": validate(-0.5, 0.3, TemperedStable(1.5, 1.0, 1.0)),
    "tempered1.5_c0_phi0": validate(-0.5, 0.0, TemperedStable(1.5, 1.0, 1.0)),
    "tempered0.6_c0_up": validate(2.0, 0.0, TemperedStable(0.6, 1.0, 1.0)),
    "tempered0.6_phi0": validate(-0.5, 0.3, TemperedStable(0.6, 1.0, 1.0)),
    "stable1_c0": validate(1.0, 0.0, StablePositive(1.0, 1.0)),
    "stable1_c0_phi0": validate(-1.0, 0.0, StablePositive(1.0, 1.0)),
    "stable0.8_c0": validate(0.5, 0.0, StablePositive(0.8, 1.0)),
}
VALUE_DPS = 40


def psi_reference(model, lam):
    """psi at the working precision; below e^-30 a tempered model takes its
    two-term Taylor series psi'(0) lam + psi''(0) lam^2 / 2, where the direct
    high-precision form cancels."""
    jumps = model.jumps
    if isinstance(jumps, TemperedStable) and lam < mp.exp(-30):
        a, C, q = mp.mpf(jumps.alpha), mp.mpf(jumps.scale), mp.mpf(jumps.tempering)
        d1 = _hp_consts(model, mp.mp.dps)["dpsi"](mp.mpf(0))
        d2 = 2 * mp.mpf(model.gaussian) + C * mp.gamma(2 - a) * q ** (a - 2)
        return d1 * lam + d2 / 2 * lam**2
    return laplace_exponent_hp(model, lam)


@functools.lru_cache(maxsize=None)
def index_value_reference(name, theta, at_infinity):
    """The extinction integral int_start^inf lam^(theta-1) / psi dlam, or
    the Laplace explosion integral int_0^(Phi(0)/2) lam^(theta-1) /
    (Gamma(theta) psi) dlam, in t = +-log lam at VALUE_DPS digits, on
    pieces t0 + [0, 1, 2, 4, ...] out to where the integrand has decayed by
    e^-100."""
    model = VALUE_CASES[name]
    with mp.workdps(VALUE_DPS):
        th = mp.mpf(theta)
        if at_infinity:
            t0 = mp.log(max(1.0, 2.0 * model.phi_zero().value))
            decay = model.index_at_infinity - theta

            def integrand(t):
                return mp.exp(t * th) / psi_reference(model, mp.exp(t))
        else:
            t0 = -mp.log(mp.mpf(model.phi_zero().value) / 2)
            decay = theta - model.index_at_zero

            def integrand(t):
                return mp.exp(-t * th) / psi_reference(model, mp.exp(-t)) / mp.gamma(th)
        pieces, width = [t0], 1.0
        while width < 200.0 / decay:
            pieces.append(t0 + width)
            width *= 2.0
        return float(mp.quad(integrand, pieces))


class TestIndexValues:
    """Convergent PowerLaw values against a high-precision reference: within
    1e-6 relative at 0.3 from the critical theta, and within the recorded
    tail estimate closer to it."""

    @pytest.mark.parametrize("offset", [0.3, 0.1, 0.01])
    @pytest.mark.parametrize("name", ["cpexp", "bmdrift", "tempered1.1_c0", "tempered1.5_phi0",
                                      "tempered0.6_c0_up", "stable1_c0"])
    def test_extinction(self, name, offset):
        model = VALUE_CASES[name]
        theta = model.index_at_infinity - offset
        v = extinction_test(model, PowerLaw(theta))
        assert v.route == "analytic_index" and v.rtol == integral_tests.VERDICT_RTOL
        self.check(v, index_value_reference(name, theta, True), offset)

    @pytest.mark.parametrize("offset", [0.3, 0.1, 0.01])
    @pytest.mark.parametrize("name", ["cpexp", "bmdrift", "tempered1.5_c0_phi0",
                                      "tempered0.6_phi0", "stable1_c0_phi0", "stable0.8_c0"])
    def test_explosion(self, name, offset):
        model = VALUE_CASES[name]
        theta = model.index_at_zero + offset
        v = explosion_test(model, PowerLaw(theta))
        assert v.route == "analytic_index" and v.rtol == integral_tests.VERDICT_RTOL
        self.check(v, index_value_reference(name, theta, False), offset)

    @staticmethod
    def check(v, ref, offset):
        err = abs(v.value - ref)
        assert v.tail_error >= 0.0
        if offset >= 0.3:
            assert err <= 1e-6 * abs(ref), (v.value, ref)
        else:
            assert err <= v.tail_error + 1e-9 * abs(ref), (v.value, ref, v.tail_error)

    def test_reference_next_to_the_critical_theta(self):
        # the integrand decays like lam^-1.01; mp.quad on [1, inf) in lam
        # itself reads about 214.6, t = log lam resolves the slow tail
        ref = index_value_reference("cpexp", 1.99, True)
        assert ref == pytest.approx(396.137, abs=1e-3)
        assert extinction_test(VALUE_CASES["cpexp"], PowerLaw(1.99)).value == pytest.approx(
            ref, rel=1e-12)

    @pytest.mark.parametrize("name", ["tempered0.6_c0_up", "stable1_c0"])
    def test_power_law_0_9_converges(self, name):
        # panel ratios near 2^-0.1 lie between the engine's two ratio rules,
        # where the engine alone answers "inconclusive"
        model = VALUE_CASES[name]
        assert extinction_test(model, as_generic(PowerLaw(0.9))).verdict == "inconclusive"
        v = extinction_test(model, PowerLaw(0.9))
        assert v.converges and v.route == "analytic_index"
        ref = index_value_reference(name, 0.9, True)
        assert abs(v.value - ref) <= v.tail_error + 1e-9 * ref


class TestClassifyBoundary:
    def test_stable_theta_one(self):
        r = classify_boundary(stable_power_model(1.5), PowerLaw(1.0), 1.0)
        assert r.hit_prob == 1.0
        assert r.extinction_possible is True
        assert r.extinguishing_possible is False
        assert r.explosion_possible is False
        assert r.explosion_verdict is None

    def test_brownian_drift_theta_two(self):
        # theta = 2 sits exactly at the Gaussian exponent: the extinction
        # integral is log-divergent, so the hit branch only extinguishes,
        # while the surviving branch can explode
        r = classify_boundary(brownian_model(-1.0), PowerLaw(2.0), 1.0)
        assert r.hit_prob == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert r.extinction_possible is False
        assert r.extinguishing_possible is True
        assert r.explosion_possible is True

    def test_brownian_drift_theta_one(self):
        r = classify_boundary(brownian_model(-1.0), PowerLaw(1.0), 1.0)
        assert r.extinction_possible is True
        assert r.explosion_possible is False

    def test_inconclusive_is_none_not_guess(self):
        # the engine's ratios on x^-1.9 at infinity sit between its rules
        r = classify_boundary(builtin_model("cpexp"), as_generic(PowerLaw(1.9)), 1.0)
        assert r.extinction_possible is None
        assert r.extinguishing_possible is None
        assert not r.decisive

    @given(st.sampled_from(["stable15", "bmdrift", "bmup", "cpexp"]),
           st.floats(0.3, 2.5), st.floats(0.1, 5.0))
    def test_invariants(self, name, theta, x):
        model = builtin_model(name)
        r = classify_boundary(model, PowerLaw(theta), x)
        assert r.hit_prob == pytest.approx(model.hit_probability(x))
        assert r.hit_prob + r.survival_prob == pytest.approx(1.0)
        if r.extinction_possible is not None:
            assert r.extinction_possible != r.extinguishing_possible
        if r.explosion_possible:
            assert model.phi_zero().value > 0.0

    def test_report_serializes(self):
        import json

        r = classify_boundary(brownian_model(-1.0), PowerLaw(1.0), 1.0)
        text = json.dumps(r.to_dict())
        assert "extinction_possible" in text
