import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from levyfn import (
    CompoundPoissonExp,
    Generic,
    LaplaceRep,
    NoJumps,
    PowerLaw,
    ScaleEvaluator,
    StablePositive,
    TemperedStable,
    brownian_model,
    builtin_model,
    conditional_exp_constant_closed_form,
    conditional_exp_transform,
    constant_functional,
    laplace_identity_residual,
    local_power_near_zero,
    occupation_transform,
    stable_power_model,
    validate,
)
from levyfn.errors import (
    InversionUnstableError,
    NumericalOverflowError,
    PreconditionViolatedError,
)

EXP_DECAY = Generic(fn=lambda z: np.exp(-np.asarray(z, dtype=float)),
                    decreasing=True, bounded_away_from_origin=True)


@pytest.fixture(scope="module")
def evaluators():
    return {name: ScaleEvaluator(builtin_model(name))
            for name in ("stable15", "bmdrift", "bmup", "cpexp")}


class TestScaleW:
    def test_stable_closed_form_value(self):
        ev = ScaleEvaluator(stable_power_model(1.5))
        assert ev.scale_w(1.0) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)

    def test_brownian_up_value(self):
        ev = ScaleEvaluator(brownian_model(1.0), use_closed_form=False)
        assert ev.scale_w(1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-7)

    def test_negative_argument(self, evaluators):
        for ev in evaluators.values():
            assert ev.scale_w(-0.5) == 0.0

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_inversion_matches_stable_closed_form(self, alpha):
        ev = ScaleEvaluator(stable_power_model(alpha), use_closed_form=False)
        for x in np.geomspace(0.1, 10.0, 12):
            exact = x ** (alpha - 1.0) / math.gamma(alpha)
            assert ev.scale_w(float(x)) == pytest.approx(exact, rel=1e-4)

    def test_inversion_matches_gaussian_families(self):
        for drift, w in [(1.0, lambda x: -math.expm1(-x)),
                         (-1.0, lambda x: math.expm1(x))]:
            ev = ScaleEvaluator(brownian_model(drift), use_closed_form=False)
            for x in np.geomspace(0.1, 10.0, 12):
                assert ev.scale_w(float(x)) == pytest.approx(w(x), rel=1e-4)

    def test_monotone_positive(self, evaluators):
        for name, ev in evaluators.items():
            xs = np.geomspace(0.01, 30.0, 40)
            ws = np.array([ev.scale_w(float(x)) for x in xs])
            assert (ws > 0.0).all(), name
            assert (np.diff(ws) >= -1e-9 * ws.max()).all(), name

    def test_low_order_is_detected_unstable(self):
        with pytest.raises(InversionUnstableError):
            ScaleEvaluator(builtin_model("cpexp"), order=4)

    def test_unvalidated_model_rejected(self):
        from levyfn import LevyModel

        raw = LevyModel(drift=-1.0, gaussian=1.0, jumps=NoJumps())
        with pytest.raises(PreconditionViolatedError):
            ScaleEvaluator(raw)

    def test_bound_sandwich(self, evaluators):
        for name, ev in evaluators.items():
            phi0 = ev.model.phi_zero().value
            x_hi = min(1.0, 0.5 / phi0) if phi0 > 0 else 1.0
            for x in np.geomspace(1e-4, x_hi, 20):
                ratio = ev.scale_w(float(x)) * x * ev.model.laplace_exponent(1.0 / x)
                assert 1e-3 <= ratio <= 1e3, (name, x, ratio)

    def test_laplace_identity(self, evaluators):
        for name, ev in evaluators.items():
            phi0 = ev.phi0
            for shift in (1.0, 2.0, 5.0):
                assert laplace_identity_residual(ev, phi0 + shift) <= 1e-3, name


class TestPotentialDensity:
    def test_driftless_brownian_is_min(self):
        # W(z) = z for psi = lam^2, so the density is min(x, y)
        ev = ScaleEvaluator(validate(0.0, 1.0, NoJumps()))
        assert ev.potential_density(1.0, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert ev.potential_density(1.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_nonnegative_at_origin_neighborhood(self):
        ev = ScaleEvaluator(brownian_model(-1.0))
        val = ev.potential_density(1.0, 1.0)
        assert val >= 0.0

    def test_inversion_matches_direct_difference(self):
        ev = ScaleEvaluator(builtin_model("cpexp"))
        got = ev.potential_density(1.0, 2.0)
        w2 = ev.scale_w(2.0)
        w1 = ev.scale_w(1.0)
        want = math.exp(-ev.phi0) * w2 - w1
        assert got == pytest.approx(want, rel=1e-6)

    def test_domain_errors(self):
        ev = ScaleEvaluator(brownian_model(1.0))
        with pytest.raises(ValueError):
            ev.potential_density(0.0, 1.0)
        with pytest.raises(ValueError):
            ev.potential_density(1.0, -1.0)

    @pytest.mark.parametrize("y", [40.0, 100.0, 400.0])
    def test_far_out_without_closed_form(self, y):
        # past the resolvable window: the plateau (Phi(0) > 0) or the noise
        # floor (Phi(0) = 0), as the inversion route integrates them
        evs = {name: ScaleEvaluator(builtin_model(name), use_closed_form=False)
               for name in ("bmdrift", "cpexp", "bmup")}
        plateau = ScaleEvaluator(builtin_model("bmdrift")).potential_density(1.0, y)
        assert plateau == 0.6321205588285577
        assert evs["bmdrift"].potential_density(1.0, y) == pytest.approx(plateau, rel=1e-12)
        assert math.isfinite(evs["cpexp"].potential_density(1.0, y))
        assert evs["bmup"].potential_density(1.0, y) >= 0.0

    @given(st.sampled_from(["stable15", "bmdrift", "bmup", "cpexp"]),
           st.floats(0.1, 4.0), st.floats(0.05, 20.0))
    def test_nonnegative(self, name, x, y):
        ev = ScaleEvaluator(builtin_model(name))
        assert ev.potential_density(x, y) >= -1e-6 * ev.scale_w(y)


class TestOccupationExpectation:
    def test_mean_passage_brownian_up(self):
        # downward unit drift: expected passage time from x to y is x - y
        ev = ScaleEvaluator(builtin_model("bmup"))
        assert ev.occupation_expectation(constant_functional(), 1.0, 0.01) == \
            pytest.approx(0.99, rel=1e-6)
        assert ev.occupation_expectation(constant_functional(), 1.0, 1e-7) == \
            pytest.approx(1.0, rel=1e-5)

    def test_driftless_brownian_diverges(self):
        ev = ScaleEvaluator(validate(0.0, 1.0, NoJumps()))
        assert ev.occupation_expectation(constant_functional(), 1.0, 1e-6) == math.inf

    def test_driftless_brownian_exponential_weight(self):
        # oracle: int_0^1 z e^-z dz + int_1^inf e^-z dz = 1 - 1/e
        ev = ScaleEvaluator(validate(0.0, 1.0, NoJumps()))
        got = ev.occupation_expectation(EXP_DECAY, 1.0, 1e-9)
        assert got == pytest.approx(-math.expm1(-1.0), abs=1e-6)

    def test_cpexp_against_closed_form_oracle(self):
        # oracle via independent quadrature of the hp-inverted density
        model = builtin_model("cpexp")
        ev = ScaleEvaluator(model)
        x, y = 1.0, 0.2
        d = x - y
        density = ev._potential_density_fn(d)
        oracle, _ = quad(lambda z: math.exp(-(z + y)) * density(np.array([z]))[0], 0.0, 80.0,
                         limit=400, points=[d])
        got = ev.occupation_expectation(EXP_DECAY, x, y)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_precondition(self):
        ev = ScaleEvaluator(builtin_model("bmup"))
        with pytest.raises(PreconditionViolatedError):
            ev.occupation_expectation(constant_functional(), 1.0, 2.0)


class TestConditionalExpFunctional:
    @pytest.mark.parametrize("drift,x,lam,expect", [
        (0.0, 1.0, 1.0, -math.expm1(-1.0)),       # psi = lam^2, psi(1) = 1
        (-1.0, 1.0, 1.0, -math.expm1(-1.0) / 2.0),  # psi(2) = 2
        (0.0, 2.0, 1.0, -math.expm1(-2.0)),
    ])
    def test_constant_f_values(self, drift, x, lam, expect):
        m = validate(drift, 1.0, NoJumps())
        ev = ScaleEvaluator(m)
        assert ev.conditional_exp_functional(constant_functional(), x, lam) == \
            pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("name", ["stable15", "bmdrift", "bmup", "cpexp"])
    def test_constant_f_matches_closed_form(self, name):
        model = builtin_model(name)
        ev = ScaleEvaluator(model)
        got = ev.conditional_exp_functional(constant_functional(), 1.0, 1.0)
        want = conditional_exp_constant_closed_form(model, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-3)

    def test_singular_f_infinite_at_boundary_case(self):
        ev = ScaleEvaluator(stable_power_model(1.5))
        assert ev.conditional_exp_functional(PowerLaw(1.5), 1.0, 1.0) == math.inf

    def test_singular_f_finite_below_boundary(self):
        ev = ScaleEvaluator(stable_power_model(1.5))
        val = ev.conditional_exp_functional(PowerLaw(1.0), 1.0, 1.0)
        # oracle: int y^-1 e^-y [W(y) - W(y-1)] dy with W(y) = y^0.5/Gamma(1.5)
        g = math.gamma(1.5)

        def integrand(y):
            w1 = y**0.5 / g
            w2 = (y - 1.0) ** 0.5 / g if y > 1.0 else 0.0
            return (1.0 / y) * math.exp(-y) * (w1 - w2)

        v1, _ = quad(integrand, 0.0, 1.0, limit=400)
        v2, _ = quad(integrand, 1.0, 60.0, limit=400)
        assert val == pytest.approx(v1 + v2, rel=1e-3)

    def test_extinction_equivalence(self):
        # finiteness of the weighted functional matches the extinction verdict
        from levyfn import extinction_test

        for name, theta in [("stable15", 1.0), ("stable15", 1.5),
                            ("bmdrift", 1.0), ("bmdrift", 2.0),
                            ("bmup", 1.5), ("cpexp", 1.0), ("cpexp", 2.5)]:
            model = builtin_model(name)
            verdict = extinction_test(model, PowerLaw(theta))
            val = ScaleEvaluator(model).conditional_exp_functional(
                PowerLaw(theta), 1.0, 1.0)
            assert verdict.converges == math.isfinite(val), (name, theta)

    def test_domain_errors(self):
        ev = ScaleEvaluator(builtin_model("bmup"))
        with pytest.raises(PreconditionViolatedError):
            ev.conditional_exp_functional(constant_functional(), -1.0, 1.0)
        with pytest.raises(PreconditionViolatedError):
            ev.conditional_exp_functional(constant_functional(), 1.0, 0.0)


class TestLocalPower:
    def test_values(self):
        assert local_power_near_zero(stable_power_model(1.5)) == pytest.approx(0.5, abs=1e-6)
        assert local_power_near_zero(validate(0.0, 1.0, NoJumps())) == pytest.approx(1.0, abs=1e-6)
        assert local_power_near_zero(validate(1.0, 0.0, NoJumps())) == 0.0
        assert local_power_near_zero(builtin_model("cpexp")) == pytest.approx(1.0, abs=1e-6)


class TestTemperedFamily:
    """The tempered-stable family has no closed-form W: everything runs
    through the high-precision inversion, including the incomplete-gamma
    constants."""

    @pytest.fixture()
    def tempered(self):
        from levyfn import TemperedStable

        return validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0))

    def test_positive_root(self, tempered):
        assert tempered.phi_zero().value == pytest.approx(0.3938854561, abs=1e-8)

    def test_laplace_identity(self, tempered):
        ev = ScaleEvaluator(tempered)
        assert ev.closed_form is None
        for shift in (1.0, 3.0):
            assert laplace_identity_residual(ev, ev.phi0 + shift) <= 1e-3

    def test_conditional_exp_matches_closed_form(self, tempered):
        ev = ScaleEvaluator(tempered)
        got = ev.conditional_exp_functional(constant_functional(), 1.0, 1.0)
        want = conditional_exp_constant_closed_form(tempered, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-3)

    def test_potential_density_nonnegative(self, tempered):
        ev = ScaleEvaluator(tempered)
        for y in (0.1, 0.7, 1.5, 4.0, 12.0):
            assert ev.potential_density(1.0, y) >= -1e-6 * ev.scale_w(y)


def _exact_w_cpexp(model, x):
    """W of a Brownian-plus-exponential-jumps model by partial fractions:
    psi(lam) (lam + mu) = lam (c lam^2 + (b + c mu) lam + b mu - rho) =: P(lam),
    with b the drift net of the compensator of jumps <= 1, has simple real
    roots r, and W(x) = sum_r e^{rx} (r + mu) / P'(r)."""
    c, rho, mu = model.gaussian, model.jumps.rate, model.jumps.mu
    b = model.drift + rho * (1.0 - math.exp(-mu) * (1.0 + mu)) / mu
    poly = np.polymul([1.0, 0.0], [c, b + c * mu, b * mu - rho])
    dpoly = np.polyder(poly)
    return sum(math.exp(r * x) * (r + mu) / np.polyval(dpoly, r)
               for r in np.roots(poly).real)


class TestTalbot:
    """W is the fixed-Talbot inversion at 2N nodes, checked against N nodes,
    of a numpy psi; the hp psi takes no part in it."""

    @pytest.fixture(scope="class", params=["cpexp", "tempered_phi0", "stable15"])
    def ev(self, request):
        model = {"cpexp": lambda: builtin_model("cpexp"),
                 "tempered_phi0": lambda: validate(
                     -0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0)),
                 "stable15": lambda: stable_power_model(1.5)}[request.param]()
        return ScaleEvaluator(model, use_closed_form=False)

    def test_returns_doubled_order_inversion(self, ev):
        for x in np.geomspace(0.05, 20.0, 9):
            x = float(x)
            (w_2n,) = ev._w_talbot(x, (2 * ev.order,))
            assert ev.scale_w(x) == math.exp(ev.phi0 * x) * w_2n

    def test_no_hp_psi_calls(self, ev, monkeypatch):
        from levyfn import levy_model

        calls = []
        orig = levy_model.laplace_exponent_hp

        def counting(model, lam):
            calls.append(lam)
            return orig(model, lam)

        monkeypatch.setattr(levy_model, "laplace_exponent_hp", counting)
        fresh = ScaleEvaluator(ev.model, use_closed_form=False)
        for x in (0.3, 1.0, 4.0):
            fresh.scale_w(x)
        fresh.potential_density(1.0, 2.0)
        assert calls == []

    @pytest.mark.parametrize("name", ["bmup", "bmdrift", "cpexp"])
    def test_matches_exact_w(self, name):
        model = builtin_model(name)
        exact = {"bmup": lambda x: -math.expm1(-x), "bmdrift": math.expm1,
                 "cpexp": lambda x: _exact_w_cpexp(model, x)}[name]
        ev = ScaleEvaluator(model, use_closed_form=False)
        for x in np.geomspace(0.01, 60.0, 40):
            assert ev.scale_w(float(x)) == pytest.approx(exact(float(x)), rel=1e-10), x

    @pytest.mark.parametrize("model", [
        validate(0.3, 0.5, NoJumps()),
        validate(0.4, 0.2, StablePositive(alpha=1.0, scale=0.8)),
        validate(-0.2, 0.0, StablePositive(alpha=1.0, scale=0.8)),
        validate(0.3, 0.0, StablePositive(alpha=1.6, scale=0.7)),
        validate(-0.3, 0.0, StablePositive(alpha=0.6, scale=0.5)),
        validate(0.2, 0.25, CompoundPoissonExp(rate=2.0, jump_mean=0.5)),
        validate(0.5, 0.1, TemperedStable(alpha=1.0, scale=1.0, tempering=1.5)),
        validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0)),
        validate(0.4, 0.0, TemperedStable(alpha=0.7, scale=0.6, tempering=2.0)),
    ], ids=["none", "stable1", "stable1_phi0", "stable1.6", "stable0.6",
            "cpexp", "tempered1", "tempered1.3_phi0", "tempered0.7"])
    def test_matches_hp_gaver_stehfest(self, model):
        from levyfn.levy_model import laplace_exponent_hp, phi_zero_hp
        from levyfn.scale_fn import gs_invert_mp

        ev = ScaleEvaluator(model, use_closed_form=False)
        phi0_hp = phi_zero_hp(model, 70)
        for x in (0.05, 0.4, 2.0, 9.0):
            want = gs_invert_mp(lambda s: 1 / laplace_exponent_hp(model, s + phi0_hp), x, 28)
            assert ev.w_shifted(x) == pytest.approx(want, rel=1e-7), x

    def test_tiny_x(self):
        ev = ScaleEvaluator(builtin_model("bmup"), use_closed_form=False)
        # W(x) = x/c + O(x^2) with c = 1 at x far below any scale of the model
        assert ev.scale_w(1e-100) == pytest.approx(1e-100, rel=1e-10)
        # below ~1e-140 psi overflows at the contour's nodes: an error, never
        # 0, NaN or the value at a clamped x
        with pytest.raises(NumericalOverflowError):
            ev.w_shifted(1e-200)
        with pytest.raises(NumericalOverflowError):
            ev.scale_w(1e-200)

    @pytest.mark.parametrize("x", [1e6, 1e8, 1e10, 1e12, 1e17, 1e18])
    def test_tempered_limit_at_large_x(self, x):
        # psi's log1p at the nodes |u| ~ 1/x kept only eps/|u| of relative
        # accuracy: 3.1e-4 off the limit at x = 1e10, an order raise at 1e12
        model = validate(0.5, 0.1, TemperedStable(1.15, 1.0, 1.5))
        ev = ScaleEvaluator(model, use_closed_form=False)
        limit = 1.0 / model.laplace_exponent_derivative(0.0)
        assert abs(ev.w_shifted(x) - limit) <= 1e-9 * limit

    def test_tempered_plateau_builds(self):
        # Gaver-Stehfest noise (~1e-8) made W step down on this model's
        # plateau, W(20) = 1.405031467195 after 1.405031481927, and the
        # self-check rejected it; the limit is 1/psi'(0+) = 1.4050314735949
        model = validate(0.7562156296137178, 0.0, TemperedStable(
            alpha=1.196788081699263, scale=0.5768831600352027,
            tempering=1.6333248701785947))
        ev = ScaleEvaluator(model, use_closed_form=False)
        ws = np.array([ev.scale_w(float(x)) for x in np.geomspace(0.05, 20.0, 16)])
        assert (np.diff(ws) >= 0.0).all()
        limit = 1.0 / model.laplace_exponent_derivative(0.0)
        assert abs(ev.scale_w(20.0) - limit) <= 1e-9 * limit


def _mp_identity_residual(name, lam):
    """|psi(lam) integral_0^M e^{-lam y} W(y) dy - 1| at 30 digits for the
    exact W of a Brownian builtin, with M doubled from 1 until
    e^{-lam M} W(M) < 1e-8."""
    import mpmath as mp

    model = builtin_model(name)
    w = {"bmup": lambda y: -mp.expm1(-y), "bmdrift": mp.expm1}[name]
    with mp.workdps(30):
        M = mp.mpf(1)
        while mp.exp(-lam * M) * w(M) >= 1e-8:
            M *= 2
        val = mp.quad(lambda y: mp.exp(-lam * y) * w(y), mp.linspace(0, M, 9))
        return float(abs(model.laplace_exponent(lam) * val - 1))


class TestLaplaceIdentity:
    """The identity integrates the W the evaluator publishes, on a fixed
    Gauss-Legendre rule over panels graded towards 0."""

    @pytest.mark.parametrize("shift", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("name", ["bmup", "bmdrift"])
    def test_matches_mp_reference(self, name, shift):
        ev = ScaleEvaluator(builtin_model(name), use_closed_form=False)
        lam = ev.phi0 + shift
        want = _mp_identity_residual(name, lam)
        assert abs(laplace_identity_residual(ev, lam) - want) <= 1e-9

    @pytest.mark.parametrize("name", ["bmup", "bmdrift"])
    def test_closed_form_on_and_off(self, name):
        closed = ScaleEvaluator(builtin_model(name))
        inverted = ScaleEvaluator(builtin_model(name), use_closed_form=False)
        assert closed.closed_form is not None and inverted.closed_form is None
        for shift in (0.5, 1.0, 2.0, 5.0):
            lam = closed.phi0 + shift
            assert abs(laplace_identity_residual(closed, lam)
                       - laplace_identity_residual(inverted, lam)) <= 1e-9

    def test_no_float_gaver_stehfest(self, evaluators, monkeypatch):
        from levyfn import scale_fn

        calls = []
        orig = scale_fn.gs_invert_float

        def counting(transform, t, order=14):
            calls.append(t)
            return orig(transform, t, order)

        monkeypatch.setattr(scale_fn, "gs_invert_float", counting)
        tempered = validate(-0.1, 0.2, TemperedStable(alpha=1.3, scale=0.5, tempering=1.0))
        evs = list(evaluators.values()) + [
            ScaleEvaluator(tempered), ScaleEvaluator(builtin_model("cpexp"), use_closed_form=False)]
        for ev in evs:
            for shift in (0.5, 2.0):
                laplace_identity_residual(ev, ev.phi0 + shift)
        assert calls == []

    def test_order_disagreement_raises(self, monkeypatch):
        # at 4 against 8 nodes cpexp's W disagrees near x = 9 (see
        # TestScaleW.test_low_order_is_detected_unstable)
        ev = ScaleEvaluator(builtin_model("cpexp"))
        monkeypatch.setattr(ev, "order", 4)
        with pytest.raises(InversionUnstableError):
            laplace_identity_residual(ev, ev.phi0 + 1.0)

    def test_occupation_route_checks_orders(self, monkeypatch):
        ev = ScaleEvaluator(builtin_model("cpexp"), use_closed_form=False)
        monkeypatch.setattr(ev, "order", 4)
        with pytest.raises(InversionUnstableError):
            ev.occupation_expectation(EXP_DECAY, 1.0, 0.2)

    def test_array_evaluation_checks_every_point(self, monkeypatch):
        ev = ScaleEvaluator(builtin_model("cpexp"), use_closed_form=False)
        xs = np.geomspace(0.05, 30.0, 25)
        want = [ev.w_shifted(float(x)) for x in xs]
        # the rows sum in another order than one point's dot product does;
        # the weights reach e^{0.4 * 28}, so rounding differs near 1e-12
        np.testing.assert_allclose(ev._w_shifted_array(xs), want, rtol=1e-11)
        monkeypatch.setattr(ev, "order", 4)
        unstable = []
        for x in xs:
            try:
                ev.w_shifted(float(x))
            except InversionUnstableError:
                unstable.append(float(x))
        assert unstable
        with pytest.raises(InversionUnstableError, match=re.escape(f"x={unstable[0]:g}:")):
            ev._w_shifted_array(xs)
        stable = np.array([x for x in xs if x not in unstable])
        assert len(ev._w_shifted_array(stable)) == len(stable)

    def test_self_check_is_one_psi_call(self, monkeypatch):
        from levyfn import LevyModel

        calls = []
        orig = LevyModel.laplace_exponent_array

        def counting(model, lam):
            calls.append(np.shape(lam))
            return orig(model, lam)

        monkeypatch.setattr(LevyModel, "laplace_exponent_array", counting)
        ScaleEvaluator(builtin_model("cpexp"), use_closed_form=False)
        assert calls == [(16, 42)]


def _tempered_phi0():
    """Tempered model with Phi(0) > 0 (drift up)."""
    from levyfn import TemperedStable

    return validate(-0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))


def _mp_condexp(model, g, x, lam):
    """30-digit quadrature of integral g(t)(1 - e^{-(t+lam)x}) / psi(t+lam+Phi(0)) dt."""
    import mpmath as mp
    from levyfn.levy_model import laplace_exponent_hp, phi_zero_hp

    with mp.workdps(30):
        shift = lam + phi_zero_hp(model, 30)
        return float(mp.quad(lambda t: g(t) * -mp.expm1(-(t + lam) * x)
                             / laplace_exponent_hp(model, t + shift), [0, 1, mp.inf]))


def _mp_occupation(model, g, x, y):
    """30-digit quadrature of integral g(t) e^{-yt}(e^{-Phi(0)d} - e^{-td}) / psi(t) dt."""
    import mpmath as mp
    from levyfn.levy_model import laplace_exponent_hp, phi_zero_hp

    with mp.workdps(30):
        phi0 = phi_zero_hp(model, 30)
        d = mp.mpf(x) - mp.mpf(y)
        pts = [0, phi0, 2 * phi0 + 1, mp.inf] if phi0 > 0 else [0, 1, mp.inf]
        return float(mp.quad(lambda t: g(t) * mp.exp(-y * t - phi0 * d)
                             * -mp.expm1((phi0 - t) * d) / laplace_exponent_hp(model, t),
                             pts))


def _mp_power_density(theta):
    import mpmath as mp

    return lambda t: t ** (theta - 1) / mp.gamma(theta)


# f(y) = 1/(1+y) and 1/(1+y)^2, with Laplace densities e^{-t} and t e^{-t}
LAPLACE_REP = LaplaceRep(g=lambda t: math.exp(-t))
LAPLACE_REP2 = LaplaceRep(g=lambda t: t * math.exp(-t))


class TestTransformRoute:
    """condexp and occupation in the transform domain: one float quadrature
    of the Laplace density against 1/psi, checked against 30-digit mpmath
    quadratures of the same integrals."""

    @pytest.mark.parametrize("name,f,g_mp,x,y", [
        ("cpexp", PowerLaw(1.5), _mp_power_density(1.5), 1.0, 0.2),
        ("cpexp", PowerLaw(2.5), _mp_power_density(2.5), 1.0, 0.2),
        ("tempered_phi0", PowerLaw(1.5), _mp_power_density(1.5), 1.0, 0.2),
        ("bmdrift", LAPLACE_REP2, lambda t: t * math.e ** -t, 1.5, 0.3),
        ("bmup", LAPLACE_REP, lambda t: math.e ** -t, 1.5, 0.3),
        ("stable15", PowerLaw(1.5), _mp_power_density(1.5), 2.0, 0.5),
    ], ids=["cpexp-1.5", "cpexp-2.5", "tempered_phi0-1.5", "bmdrift-laplacerep",
            "bmup-laplacerep", "stable15-1.5"])
    def test_occupation_matches_mp_oracle(self, name, f, g_mp, x, y):
        model = _tempered_phi0() if name == "tempered_phi0" else builtin_model(name)
        got = occupation_transform(model, f, x, y)
        want = _mp_occupation(model, g_mp, x, y)
        assert got == pytest.approx(want, rel=1e-8)

    def test_cpexp_occupation_value(self):
        # the 30-digit value of the transform integral; the inversion route
        # reads 3.459875 here
        ev = ScaleEvaluator(builtin_model("cpexp"))
        got = ev.occupation_expectation(PowerLaw(1.5), 1.0, 0.2)
        assert got == pytest.approx(3.458389093610389, rel=1e-8)

    @pytest.mark.parametrize("name,f,g_mp,x,lam", [
        ("cpexp", PowerLaw(0.5), _mp_power_density(0.5), 1.0, 1.0),
        ("stable15", PowerLaw(1.0), _mp_power_density(1.0), 1.0, 1.0),
        ("tempered_phi0", PowerLaw(0.5), _mp_power_density(0.5), 1.0, 1.0),
        ("tempered_phi0", PowerLaw(1.0), _mp_power_density(1.0), 2.0, 0.5),
        ("cpexp", LAPLACE_REP, lambda t: math.e ** -t, 1.0, 1.0),
    ], ids=["cpexp-0.5", "stable15-1.0", "tempered_phi0-0.5", "tempered_phi0-1.0",
            "cpexp-laplacerep"])
    def test_condexp_matches_mp_oracle(self, name, f, g_mp, x, lam):
        model = _tempered_phi0() if name == "tempered_phi0" else builtin_model(name)
        ev = ScaleEvaluator(model, use_closed_form=False)
        got = ev.conditional_exp_functional(f, x, lam)
        want = _mp_condexp(model, g_mp, x, lam)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("name", ["bmup", "cpexp", "bmdrift", "stable15"])
    def test_constant_occupation_exact(self, name):
        model = builtin_model(name)
        ev = ScaleEvaluator(model)
        d0 = model.laplace_exponent_derivative(0.0)
        for x, y in [(1.0, 0.01), (2.5, 0.4)]:
            got = ev.occupation_expectation(constant_functional(2.0), x, y)
            if model.phi_zero().value == 0.0 and d0 > 0.0:
                assert got == 2.0 * (x - y) / d0
            else:
                assert got == math.inf

    def test_constant_occupation_tempered(self):
        from levyfn import TemperedStable

        model = validate(0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))
        d0 = model.laplace_exponent_derivative(0.0)
        assert model.phi_zero().value == 0.0 and d0 > 0.0
        assert occupation_transform(model, constant_functional(), 1.0, 0.01) == 0.99 / d0

    def test_constant_condexp_is_closed_form(self):
        model = builtin_model("cpexp")
        ev = ScaleEvaluator(model)
        got = ev.conditional_exp_functional(constant_functional(3.0), 1.5, 0.7)
        assert got == 3.0 * conditional_exp_constant_closed_form(model, 1.5, 0.7)

    def test_bmup_without_closed_form_is_finite(self):
        # the inversion route raises SignChangeError here
        ev = ScaleEvaluator(builtin_model("bmup"), use_closed_form=False)
        got = ev.occupation_expectation(PowerLaw(1.5), 1.0, 0.2)
        assert math.isfinite(got) and got > 0.0
        # the closed-form potential density, integrated against f
        # (a Generic f takes the inversion route)
        want = ScaleEvaluator(builtin_model("bmup")).occupation_expectation(
            Generic(fn=PowerLaw(1.5).value), 1.0, 0.2)
        assert got == pytest.approx(want, rel=1e-8)

    def test_bmup_inversion_route_matches_transform(self):
        # the inversion route on the Talbot-inverted potential density
        ev = ScaleEvaluator(builtin_model("bmup"), use_closed_form=False)
        got = ev.occupation_expectation(Generic(fn=PowerLaw(1.5).value), 1.0, 0.2)
        want = ev.occupation_expectation(PowerLaw(1.5), 1.0, 0.2)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("name", ["stable15", "bmdrift", "bmup", "cpexp",
                                      "tempered_phi0"])
    def test_finiteness_is_extinction_verdict(self, name):
        from levyfn import extinction_test
        from levyfn.errors import QuadratureFailureError

        model = _tempered_phi0() if name == "tempered_phi0" else builtin_model(name)
        ev = ScaleEvaluator(model, use_closed_form=False)
        for theta in np.linspace(0.25, 3.0, 12):
            f = PowerLaw(float(theta))
            verdict = extinction_test(model, f)
            if verdict.verdict == "inconclusive":
                with pytest.raises(QuadratureFailureError):
                    ev.conditional_exp_functional(f, 1.0, 1.0)
                continue
            val = ev.conditional_exp_functional(f, 1.0, 1.0)
            assert verdict.converges == math.isfinite(val), (name, theta)
            assert val > 0.0

    def test_occupation_finiteness_at_zero(self):
        # with Phi(0) > 0 the potential density has a positive plateau, so
        # the occupation of (z+y)^-theta is finite exactly when theta > 1
        ev = ScaleEvaluator(builtin_model("cpexp"))
        for theta in (0.5, 0.8, 1.5, 2.0):
            val = ev.occupation_expectation(PowerLaw(theta), 1.0, 0.2)
            assert math.isfinite(val) == (theta > 1.0), theta
        # psi = lam^1.5: W(z) - W(z-d) ~ z^-0.5, finite exactly when theta > 0.5
        ev = ScaleEvaluator(stable_power_model(1.5), use_closed_form=False)
        for theta in (0.3, 0.7, 1.2):
            val = ev.occupation_expectation(PowerLaw(theta), 1.0, 0.2)
            assert math.isfinite(val) == (theta > 0.5), theta

    def test_no_integration_warnings(self):
        import warnings

        models = [builtin_model(n) for n in ("stable15", "bmdrift", "bmup", "cpexp")]
        models.append(_tempered_phi0())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in models:
                for theta in (0.5, 1.0, 1.5, 2.5):
                    conditional_exp_transform(model, PowerLaw(theta), 1.0, 1.0)
                    occupation_transform(model, PowerLaw(theta), 1.0, 0.2)
                conditional_exp_transform(model, LAPLACE_REP, 1.0, 1.0)
                occupation_transform(model, LAPLACE_REP2, 1.0, 0.2)

    def test_routing(self):
        ev = ScaleEvaluator(builtin_model("bmup"))
        hand_built = Generic(fn=lambda z: np.ones_like(np.asarray(z, dtype=float)),
                             decreasing=True, bounded_away_from_origin=True)
        # a hand-built constant takes the inversion route, as does a Generic
        # wrapper of constant_functional
        got = ev.occupation_expectation(hand_built, 1.0, 0.01)
        wrapped = Generic(fn=constant_functional().value, decreasing=True,
                          bounded_away_from_origin=True)
        assert got == ev.occupation_expectation(wrapped, 1.0, 0.01)
        # constant_functional takes the transform route: exactly d/psi'(0+)
        exact = ev.occupation_expectation(constant_functional(), 1.0, 0.01)
        assert exact == 0.99 / builtin_model("bmup").laplace_exponent_derivative(0.0)
        assert got == pytest.approx(exact, rel=1e-3)


class TestInversionRoute:
    """The `Generic`-f route: Talbot W on arrays at the verdict engine's nodes."""

    MODELS = {"cpexp": lambda: builtin_model("cpexp"),
              "stable15": lambda: builtin_model("stable15"),
              "tempered_phi0": _tempered_phi0}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_no_float_gaver_stehfest(self, name, monkeypatch):
        from levyfn import scale_fn

        calls = []
        orig = scale_fn.gs_invert_float

        def counting(transform, t, order=14):
            calls.append(t)
            return orig(transform, t, order)

        monkeypatch.setattr(scale_fn, "gs_invert_float", counting)
        ev = ScaleEvaluator(self.MODELS[name](), use_closed_form=False)
        assert ev.closed_form is None
        condexp = ev.conditional_exp_functional(Generic(fn=PowerLaw(1.0).value), 1.0, 1.0)
        occupation = ev.occupation_expectation(Generic(fn=PowerLaw(1.5).value), 1.0, 0.2)
        assert math.isfinite(condexp) and math.isfinite(occupation)
        for y in (0.05, 0.5, 2.0):
            ev.potential_density(1.0, y)
        assert calls == []

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_condexp_matches_transform_route(self, name, theta):
        ev = ScaleEvaluator(self.MODELS[name](), use_closed_form=False)
        want = ev.conditional_exp_functional(PowerLaw(theta), 1.0, 1.0)
        got = ev.conditional_exp_functional(Generic(fn=PowerLaw(theta).value), 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("theta", [1.5, 2.5])
    def test_stable_occupation_matches_transform_route(self, theta):
        # W ~ z^{1/2} at 0+: the head [0, d] is a 0+ sweep, not one panel
        ev = ScaleEvaluator(builtin_model("stable15"), use_closed_form=False)
        want = ev.occupation_expectation(PowerLaw(theta), 1.0, 0.2)
        got = ev.occupation_expectation(Generic(fn=PowerLaw(theta).value), 1.0, 0.2)
        assert got == pytest.approx(want, rel=1e-9)

    def test_scalar_only_fn(self):
        ev = ScaleEvaluator(builtin_model("cpexp"), use_closed_form=False)
        scalar = Generic(fn=lambda z: math.exp(-z), decreasing=True,
                         bounded_away_from_origin=True)
        with pytest.raises(TypeError):
            math.exp(-np.ones(3))
        condexp = ev.conditional_exp_functional(scalar, 1.0, 1.0)
        assert condexp == ev.conditional_exp_functional(EXP_DECAY, 1.0, 1.0)
        # f e^{-y} = e^{-2y}: the constant f at lam = 2 in closed form
        want = conditional_exp_constant_closed_form(ev.model, 1.0, 2.0)
        assert condexp == pytest.approx(want, rel=1e-10)
        assert ev.occupation_expectation(scalar, 1.0, 0.2) == \
            ev.occupation_expectation(EXP_DECAY, 1.0, 0.2)

    @pytest.mark.parametrize("name", ["bmdrift", "cpexp"])
    def test_far_tail_takes_no_w(self, name):
        # the sweep at infinity reaches x 2^40, where W_shift is not
        # resolvable; the potential density takes its plateau there
        ev = ScaleEvaluator(builtin_model(name), use_closed_form=False)
        with pytest.raises(InversionUnstableError):
            ev.w_shifted(2.0**36)
        for lam in (1.0, 1e-10):
            got = ev.conditional_exp_functional(EXP_DECAY, 1.0, lam)
            want = conditional_exp_constant_closed_form(ev.model, 1.0, 1.0 + lam)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("closed_form", [True, False])
    @pytest.mark.parametrize("name", ["bmdrift", "cpexp"])
    def test_far_start_middle_piece(self, name, closed_form):
        # the middle piece [min(x, 1)/2, x] spans a factor 600 at x = 300;
        # as one panel its error estimate exceeded its value
        ev = ScaleEvaluator(builtin_model(name), use_closed_form=closed_form)
        got = ev.conditional_exp_functional(EXP_DECAY, 300.0, 1.0)
        want = conditional_exp_constant_closed_form(ev.model, 300.0, 2.0)
        assert got == pytest.approx(want, rel=1e-12)
