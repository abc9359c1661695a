"""The Gauss-Kronrod panel sweep behind `improper_integral_verdict`, and the
compact verdict and report it returns."""

import dataclasses
import gc
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyfn import (
    AtInfinity,
    AtZeroPlus,
    CompoundPoissonExp,
    Generic,
    LaplaceRep,
    LevyModel,
    PowerLaw,
    StablePositive,
    TemperedStable,
    builtin_model,
    classify_boundary,
    explosion_test,
    extinction_test,
    improper_integral_verdict,
    integral_tests,
    quadrature,
    validate,
)
from levyfn.errors import NumericalOverflowError, QuadratureFailureError
from levyfn.scale_fn import occupation_transform


def drawn_tempered_phi0(seed: int = 5) -> LevyModel:
    """A tempered-stable model with negative drift, so Phi(0) > 0."""
    r = random.Random(seed)
    jumps = TemperedStable(alpha=r.uniform(1.1, 1.9), scale=r.uniform(0.3, 1.0),
                           tempering=r.uniform(1.0, 3.0))
    return validate(-r.uniform(0.1, 0.8), r.uniform(0.05, 0.5), jumps)


def drawn_cpexp_phi0(seed: int = 3) -> LevyModel:
    """Gaussian plus exponential jumps with psi'(0+) < 0, so Phi(0) > 0."""
    r = random.Random(seed)
    rate, jump_mean = r.uniform(0.5, 3.0), r.uniform(0.2, 1.5)
    mu = 1.0 / jump_mean
    drift = -r.uniform(0.1, 0.8) + rate * math.exp(-mu) * (1.0 + mu) / mu
    return validate(drift, r.uniform(0.1, 1.0), CompoundPoissonExp(rate, jump_mean))


MODELS = {**{n: builtin_model(n) for n in ("bmdrift", "bmup", "cpexp", "stable15")},
          "tempered_phi0": drawn_tempered_phi0()}


def verdict_integrands(model, f):
    """(integrand, endpoint) of the extinction test and the Laplace route at 0+."""
    psi = model.laplace_exponent_array
    g = f.laplace_density()
    phi0 = model.phi_zero().value
    return [(lambda lam: f.values(1.0 / lam) / (lam * psi(lam)),
             AtInfinity(max(1.0, 2.0 * phi0))),
            (lambda lam: g(lam) / psi(lam), AtZeroPlus(phi0 / 2.0 if phi0 > 0.0 else 1.0))]


class TestPanelRule:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("theta", [0.5, 1.5])
    def test_panels_match_quad(self, name, theta):
        model = MODELS[name]
        for integrand, endpoint in verdict_integrands(model, PowerLaw(theta)):
            rule, base = quadrature._endpoint_rule(endpoint)
            lo, hi = rule[0] * base, rule[1] * base
            values, _, _, (kept, _, _) = quadrature._sweep(integrand, rule, base)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = [quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for a, b in zip(lo[:kept], hi[:kept])]
            np.testing.assert_allclose(values[:kept], want, rtol=1e-13, atol=0.0)

    def test_rule_is_exact_on_polynomials(self):
        x = quadrature.K15_NODES
        for degree in range(23):
            want = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert quadrature.K15_WEIGHTS @ x**degree == pytest.approx(want, abs=1e-15)
            if degree < 14:
                assert quadrature.G7_WEIGHTS @ x**degree == pytest.approx(want, abs=1e-15)


    def test_error_estimate_is_qk15_bit_for_bit(self):
        # QUADPACK's two branches, written out: the scaled Kronrod-Gauss gap
        # where resasc and the gap are nonzero, raised to 50 eps resabs
        # above the underflow floor
        rng = np.random.default_rng(7)
        fx = rng.standard_normal((64, 15)) * 10.0 ** rng.integers(-300, 300, (64, 1))
        fx[0], fx[1], fx[2] = 0.0, 3.0, 1e-320
        fx[3, 7] = np.nan
        half = 10.0 ** rng.uniform(-5, 5, 64)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        with np.errstate(all="ignore"):
            resk = fx @ quadrature.K15_WEIGHTS
            abserr = np.abs((resk - fx @ quadrature.G7_WEIGHTS) * half)
            resabs = (np.abs(fx) @ quadrature.K15_WEIGHTS) * half
            resasc = (np.abs(fx - (resk / 2.0)[:, None]) @ quadrature.K15_WEIGHTS) * half
            scaled = (resasc != 0.0) & (abserr != 0.0)
            ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
            want = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), abserr)
            want = np.where(resabs > tiny / (50.0 * eps), np.maximum(50.0 * eps * resabs, want),
                            want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err = quadrature._k15(fx, half)
        np.testing.assert_array_equal(value, resk * half)
        np.testing.assert_array_equal(err, want)
        assert err[0] == 0.0 and math.isnan(err[3])


class TestNonFinite:
    def test_past_the_early_stop_is_ignored(self):
        v = improper_integral_verdict(lambda t: np.where(t > 1e4, np.nan, np.exp(-t)),
                                      AtInfinity(1.0))
        assert v.converges and v.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_scalar_overflow_past_the_early_stop_is_ignored(self):
        v = improper_integral_verdict(lambda t: math.exp(-t) if t < 1e4 else math.exp(t),
                                      AtInfinity(1.0))
        assert v.converges and v.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_on_a_kept_panel_raises(self):
        with pytest.raises(NumericalOverflowError):
            improper_integral_verdict(lambda t: np.where((t > 4.0) & (t < 8.0), np.inf, t**-2.0),
                                      AtInfinity(1.0))


class TestRefinement:
    def test_noisy_integrand_is_counted_not_raised(self):
        rng = np.random.default_rng(1)
        calls = []

        def noisy(t):
            calls.append(t.size)
            return t**-2.0 * (1.0 + 1e-7 * rng.standard_normal(t.shape))

        v = improper_integral_verdict(noisy, AtInfinity(1.0))
        assert v.converges and v.value == pytest.approx(1.0, rel=1e-5)
        assert v.diagnostics["quad_warnings"] > 0
        assert len(calls) <= 1 + quadrature.MAX_LEVELS

    def test_finite_integral_raises_above_its_target(self):
        # noise no bisection removes leaves the error estimate far above
        # TRANSFORM_FAIL_RTOL of the value, which the verdict would only count
        rng = np.random.default_rng(1)

        def noisy(t):
            return t**-2.0 * (1.0 + 1e-4 * rng.standard_normal(t.shape))

        with pytest.raises(QuadratureFailureError, match=r"\[1, 2\]"):
            quadrature.finite_integral(noisy, 1.0, 2.0)
        assert quadrature.finite_integral(lambda t: t**-2.0, 1.0, 2.0) == \
            pytest.approx(0.5, rel=1e-14)

    def test_smooth_integrand_takes_one_array_call(self):
        calls = []

        def inverse_square(t):
            calls.append(t.shape)
            return t**-2.0

        v = improper_integral_verdict(inverse_square, AtInfinity(1.0))
        assert v.converges and v.diagnostics["quad_warnings"] == 0
        assert calls == [(quadrature.DOUBLINGS * 16,)]

    def test_scalar_psi_falls_back_point_by_point(self):
        # scalar LevyModel.laplace_exponent raises ValueError on arrays
        model = builtin_model("cpexp")
        f = PowerLaw(0.5)
        array = extinction_test(model, Generic(fn=f.values, decreasing=True,
                                               bounded_away_from_origin=True))
        scalar = improper_integral_verdict(
            lambda lam: f.values(1.0 / lam) / (lam * model.laplace_exponent(lam)),
            AtInfinity(array.start))
        assert scalar.verdict == array.verdict == "converges"
        assert scalar.value == pytest.approx(array.value, rel=1e-13)


def tempered_phi0(alpha: float) -> LevyModel:
    return validate(-0.3, 0.2, TemperedStable(alpha, 0.6, 2.0))


TARGET_MODELS = {**{n: builtin_model(n) for n in ("bmdrift", "bmup", "cpexp", "stable15")},
                 "tempered13": tempered_phi0(1.3), "tempered06": tempered_phi0(0.6)}


class TestVerdictTarget:
    """The boundary verdicts ask for VERDICT_RTOL, and refine no further
    unless the panel errors could move a ratio across a rule."""

    @pytest.mark.parametrize("name", sorted(TARGET_MODELS))
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.9, 1.5, 1.95, 2.5])
    def test_boundary_verdicts_match_full_accuracy(self, monkeypatch, name, theta):
        model, f = TARGET_MODELS[name], PowerLaw(theta)
        tests = [extinction_test] + ([explosion_test] if model.phi_zero().value > 0.0 else [])
        got = [test(model, f) for test in tests]
        # the same integrands, judged by the engine at its default target
        monkeypatch.setattr(integral_tests, "VERDICT_RTOL", quadrature.PANEL_EPSREL)
        want = [test(model, f) for test in tests]
        for g, w in zip(got, want):
            assert (g.verdict, g.route, g.panels) == (w.verdict, w.route, w.panels)
            if w.value is None or not math.isfinite(w.value):
                assert g.value == w.value
            else:
                assert g.value == pytest.approx(w.value, rel=1e-13, abs=0.0)

    def test_guard_refines_next_to_a_rule(self):
        # panel ratios of 0.9 with 1e-7 relative noise: no panel error
        # reaches VERDICT_RTOL, but the errors could move a ratio across
        # CONVERGE_RATIO, so the verdict is judged again at PANEL_EPSREL
        rng = np.random.default_rng(1)
        power = math.log2(integral_tests.CONVERGE_RATIO) - 1.0
        calls = []

        def noisy(t):
            calls.append(t.size)
            return t**power * (1.0 + 1e-7 * rng.standard_normal(t.shape))

        v = improper_integral_verdict(noisy, AtInfinity(1.0), rtol=integral_tests.VERDICT_RTOL)
        assert len(calls) > 1
        assert v.rtol == quadrature.PANEL_EPSREL
        smooth = improper_integral_verdict(lambda t: t**power, AtInfinity(1.0),
                                           rtol=integral_tests.VERDICT_RTOL)
        assert smooth.rtol == integral_tests.VERDICT_RTOL

    def test_smooth_boundary_verdicts_take_one_call(self, monkeypatch):
        # cpexp's extinction verdict at theta = 0.7 is flagged at 1e-10 but
        # not at VERDICT_RTOL; the Laplace density alone takes the engine at
        # 0+, where PowerLaw(0.7) is decided by psi's index
        model = builtin_model("cpexp")
        model.phi_zero()
        calls = count_calls(monkeypatch, LevyModel, "laplace_exponent_array")
        r = classify_boundary(model, as_laplace_rep(PowerLaw(0.7)), 1.0)
        assert [np.size(args[1]) for args in calls] == [quadrature.DOUBLINGS * 16] * 2
        for v in (r.extinction_verdict, r.explosion_verdict):
            assert v.rtol == integral_tests.VERDICT_RTOL and v.quad_warnings == 0
        assert r.extinction_verdict.max_rel_abserr > quadrature.PANEL_EPSREL


class TestSharedRule:
    """Every endpoint sweep scales one rule, built at import, to its base."""

    @pytest.mark.parametrize("tidy,endpoint", [(lambda t: t**-2.0, AtInfinity(3.0)),
                                               (lambda t: t**-0.5, AtZeroPlus(0.3))])
    def test_integrand_writing_into_its_argument(self, tidy, endpoint):
        def clobbering(t):
            out = tidy(t)
            t[:] = -1.0
            return out

        want = improper_integral_verdict(tidy, endpoint)
        for integrand in (clobbering, clobbering, tidy):
            got = improper_integral_verdict(integrand, endpoint)
            assert (got.verdict, got.value, got.panels) == (want.verdict, want.value, want.panels)

    @pytest.mark.parametrize("base", [1.0, 0.1, 1.0 / 3.0, 2.5, 2.0**-30, 7.3e5])
    @pytest.mark.parametrize("at_inf", [True, False])
    def test_nodes_are_those_of_the_scaled_panels(self, base, at_inf):
        seen = []

        def spy(t):
            seen.append(t.copy())
            return np.exp(-t)

        improper_integral_verdict(spy, AtInfinity(base) if at_inf else AtZeroPlus(base))
        n = quadrature.DOUBLINGS
        k = np.arange(n + 1.0)
        edges = base * 2.0 ** (k if at_inf else -k)
        lo, hi = (edges[:-1], edges[1:]) if at_inf else (edges[1:], edges[:-1])
        # the midpoints and offsets are scaled apart, so the nodes are
        # those of the scaled ends bit for bit, not just within an ulp
        np.testing.assert_array_equal(seen[0][:-n].reshape(n, -1), quadrature._nodes(lo, hi))
        np.testing.assert_allclose(seen[0][-n:], np.sqrt(lo * hi), rtol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("integrand,endpoint", [
        (lambda t: t**-2.0, AtInfinity(1.0)),
        (lambda t: t**-0.5, AtZeroPlus(2.0)),
        (lambda t: 1.0 / t, AtInfinity(1.0)),
    ])
    def test_unflagged_verdict_scans_once(self, monkeypatch, integrand, endpoint):
        calls = count_calls(monkeypatch, quadrature, "_kept")
        v = improper_integral_verdict(integrand, endpoint)
        assert v.quad_warnings == 0
        assert len(calls) == 1

    def test_each_refined_level_scans_once(self, monkeypatch):
        rng = np.random.default_rng(1)
        arrays = []

        def noisy(t):
            arrays.append(t.size)
            return t**-2.0 * (1.0 + 1e-7 * rng.standard_normal(t.shape))

        calls = count_calls(monkeypatch, quadrature, "_kept")
        improper_integral_verdict(noisy, AtInfinity(1.0))
        assert len(arrays) > 1 and len(calls) == len(arrays)


class TestOpenEndTail:
    """`finite_integral`'s open ends extrapolate the panel ratios."""

    @pytest.mark.parametrize("integrand,lo,hi,want", [
        # ratio gaps shrinking by 1/2 per doubling, then by 2^-0.5
        (lambda t: t**-1.2 * (1.0 + 1.0 / t), 1.0, math.inf, 1.0 / 0.2 + 1.0 / 1.2),
        (lambda t: t**-1.2 * (1.0 + t**-0.5), 1.0, math.inf, 1.0 / 0.2 + 1.0 / 0.7),
        (lambda t: t**-0.8 * (1.0 + t**0.5), 0.0, 1.0, 1.0 / 0.2 + 1.0 / 0.7),
        # pure powers next to the critical exponent: no gap to fit
        (lambda t: t**-1.01, 1.0, math.inf, 100.0),
        (lambda t: t**-0.99, 0.0, 1.0, 100.0),
    ], ids=["inf_half", "inf_root_half", "zero_root_half", "inf_power", "zero_power"])
    def test_tail_matches_closed_form(self, integrand, lo, hi, want):
        assert quadrature.finite_integral(integrand, lo, hi) == pytest.approx(want, rel=1e-13)


def count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestArrayIntegrands:
    def test_classify_makes_no_scalar_psi_call(self, monkeypatch):
        model = drawn_cpexp_phi0()
        assert model.phi_zero().value > 0.0
        calls = count_calls(monkeypatch, LevyModel, "laplace_exponent")
        # psi's index at 0+ decides every plain PowerLaw, and above it sweeps
        # the Laplace integral; the LaplaceRep takes the engine's sweep
        for f, route in ((as_laplace_rep(PowerLaw(0.5)), "laplace_zero"),
                         (PowerLaw(1.5), "analytic_index"), (PowerLaw(2.5), "analytic_index")):
            r = classify_boundary(model, f, 1.0)
            assert r.explosion_verdict.diagnostics["route"] == route
        assert calls == []

    def test_occupation_head_is_one_array_call(self, monkeypatch):
        # the 0+ verdict's sweep below Phi(0)/2 is the head's value, not
        # swept again; the pieces above it take psi on arrays too
        model = builtin_model("cpexp")
        phi0 = model.phi_zero().value
        scalar = count_calls(monkeypatch, LevyModel, "laplace_exponent")
        calls = count_calls(monkeypatch, LevyModel, "laplace_exponent_array")
        value = occupation_transform(model, PowerLaw(1.5), 1.0, 0.2)
        assert math.isfinite(value)
        assert scalar == []
        head = [np.size(args[1]) for args in calls if np.max(args[1]) < phi0 / 2.0]
        assert head == [quadrature.DOUBLINGS * 16]
        assert len(calls) > 1


def generic(fn):
    return Generic(fn=fn, decreasing=True, bounded_away_from_origin=True)


def as_generic(f):
    """The same function as a Generic, which takes the general route."""
    return generic(f.values)


def as_laplace_rep(f):
    """f by its Laplace density alone, which takes the Laplace route at 0+
    with no index known."""
    return LaplaceRep(g=f.laplace_density())


SWEEP_KEYS = {"panels", "quad_warnings", "rtol"}
ENGINE_KEYS = SWEEP_KEYS | {"partial", "increments", "max_rel_abserr"}
RATIO_KEYS = {"ratios", "fitted_exponent", "converge_margin", "diverge_margin"}


class TestCompactVerdict:
    @pytest.mark.parametrize("case,keys", [
        (lambda: extinction_test(builtin_model("cpexp"), as_generic(PowerLaw(1.5))),
         ENGINE_KEYS | RATIO_KEYS | {"route", "start", "tail_estimate"}),
        (lambda: extinction_test(builtin_model("cpexp"), as_generic(PowerLaw(2.5))),
         ENGINE_KEYS | RATIO_KEYS | {"route", "start"}),
        (lambda: explosion_test(builtin_model("bmdrift"), as_laplace_rep(PowerLaw(2.0))),
         ENGINE_KEYS | RATIO_KEYS | {"route", "tail_estimate"}),
        (lambda: extinction_test(builtin_model("cpexp"), PowerLaw(1.5)),
         SWEEP_KEYS | {"route", "power", "start", "tail_error"}),
        (lambda: explosion_test(builtin_model("bmdrift"), PowerLaw(2.0)),
         SWEEP_KEYS | {"route", "power", "tail_error"}),
        (lambda: extinction_test(builtin_model("cpexp"), PowerLaw(2.5)),
         {"route", "power", "start"}),
        (lambda: explosion_test(builtin_model("bmdrift"), generic(lambda z: np.exp(-z))),
         ENGINE_KEYS | {"route", "reason"}),
        (lambda: extinction_test(builtin_model("stable15"), PowerLaw(1.0)),
         {"route", "kappa", "power", "start"}),
        (lambda: explosion_test(validate(0.5, 0.0, StablePositive(0.8, 1.0)),
                                generic(lambda z: 1.0 / (1.0 + z))),
         {"route", "reason"}),
        (lambda: improper_integral_verdict(lambda t: t**-2.0, AtInfinity(1.0)),
         ENGINE_KEYS | RATIO_KEYS | {"tail_estimate"}),
    ], ids=["doubling_panels", "doubling_panels_diverges", "laplace_zero",
            "analytic_index_extinction", "analytic_index_explosion", "analytic_index_diverges",
            "tail_integral", "analytic_power", "none", "engine"])
    def test_diagnostics_keys(self, case, keys):
        assert set(case().diagnostics) == keys

    def test_derived_diagnostics(self):
        v = improper_integral_verdict(lambda s: s**-0.5, AtZeroPlus(1.0))
        d = v.diagnostics
        assert len(d["increments"]) == integral_tests.WINDOW + 1
        assert d["fitted_exponent"] == pytest.approx(-0.5, abs=1e-9)
        assert all(r == pytest.approx(2.0**-0.5, rel=1e-9) for r in d["ratios"])
        assert v.value == pytest.approx(d["partial"] + d["tail_estimate"], rel=1e-15)

    @pytest.mark.parametrize("integrand,verdict,converge,diverge", [
        (lambda t: t**-2.0, "converges", 0.4, 0.5 - 2.0**-0.05),
        # a diverge margin of 0.034
        (lambda t: 1.0 / t, "diverges", -0.1, 1.0 - 2.0**-0.05),
        # ratios 2^-0.1, between the two rules: both margins negative
        (lambda t: t**-1.1, "inconclusive", 0.9 - 2.0**-0.1, 2.0**-0.1 - 2.0**-0.05),
    ], ids=["inverse_square", "harmonic", "boundary_zone"])
    def test_margins(self, integrand, verdict, converge, diverge):
        v = improper_integral_verdict(integrand, AtInfinity(1.0))
        d = v.diagnostics
        assert v.verdict == verdict
        assert d["converge_margin"] == pytest.approx(converge, abs=1e-12)
        assert d["diverge_margin"] == pytest.approx(diverge, abs=1e-12)
        assert d["converge_margin"] == integral_tests.CONVERGE_RATIO - max(d["ratios"])

    def test_verdict_is_frozen(self):
        v = extinction_test(builtin_model("cpexp"), as_generic(PowerLaw(0.5)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.verdict = "diverges"
        v.diagnostics["route"] = "changed"
        assert v.diagnostics["route"] == "doubling_panels"
        assert not hasattr(v, "__dict__")

    def test_sweep_record_reads_back(self):
        v = improper_integral_verdict(lambda t: t**-2.0, AtInfinity(1.0))
        d = v.diagnostics
        assert v.partial == d["partial"] and v.max_rel_abserr == d["max_rel_abserr"]
        assert v.increments.dtype == np.float64 and not v.increments.flags.writeable
        assert v.increments.tolist() == d["increments"]
        analytic = extinction_test(builtin_model("stable15"), PowerLaw(1.0))
        assert analytic.partial is None and analytic.increments is None

    def test_report_flags_are_derived(self):
        r = classify_boundary(builtin_model("bmdrift"), PowerLaw(2.0), 1.0)
        assert r.survival_prob == 1.0 - r.hit_prob
        assert (r.extinction_possible, r.extinguishing_possible, r.explosion_possible) == (
            r.extinction_verdict.converges, r.extinction_verdict.diverges,
            r.explosion_verdict.converges)
        assert not hasattr(r, "__dict__")
        # the engine's ratios on x^-1.9 at infinity sit between its rules
        r = classify_boundary(builtin_model("cpexp"), as_generic(PowerLaw(1.9)), 1.0)
        assert r.extinction_verdict.verdict == "inconclusive"
        assert r.extinction_possible is None and r.extinguishing_possible is None

    def test_report_dict_shows_the_decision(self):
        d = classify_boundary(builtin_model("cpexp"), as_generic(PowerLaw(0.7)), 1.0).to_dict()
        for key in ("extinction_verdict", "explosion_verdict"):
            v = d[key]
            assert (v["panels"], v["quad_warnings"], v["rtol"]) == (
                quadrature.DOUBLINGS, 0, integral_tests.VERDICT_RTOL)
        assert d["extinction_verdict"]["converge_margin"] > 0.0
        assert d["explosion_verdict"]["diverge_margin"] > 0.0
        analytic = classify_boundary(builtin_model("stable15"), PowerLaw(1.0), 1.0).to_dict()
        assert analytic["extinction_verdict"]["rtol"] is None
        assert analytic["extinction_verdict"]["converge_margin"] is None

    def test_report_memory(self):
        models = [builtin_model(n) for n in ("bmdrift", "bmup", "cpexp", "stable15")]
        thetas = np.linspace(0.3, 3.0, 50)
        for m in models:
            classify_boundary(m, PowerLaw(0.5), 1.0)
        reports = [None] * 200
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                reports[i] = classify_boundary(models[i % 4], PowerLaw(float(thetas[i // 4])),
                                               1.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(reports) <= 600
