import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from levyfn import (
    CompoundPoissonExp,
    NoJumps,
    ScaleEvaluator,
    StablePositive,
    TemperedStable,
    brownian_model,
    builtin_model,
    example_models,
    laplace_exponent_quadrature,
    model_from_dict,
    model_to_dict,
    stable_power_model,
    validate,
)
from levyfn.errors import (
    BracketNotFoundError,
    InvalidJumpIndexError,
    NegativeGaussianError,
    NonPositiveStartError,
    SubordinatorError,
)
from levyfn.levy_model import (
    _NP,
    PhiZero,
    _hp_consts,
    _upper_gamma,
    laplace_exponent_hp,
)

# scale making psi(lam) = lam^1.5: C = 1/Gamma(-1.5) = 3/(4 sqrt(pi))
C15 = 3.0 / (4.0 * math.sqrt(math.pi))


def models_strategy():
    """Validated models across all four jump families."""
    nojumps = st.tuples(st.floats(-3, 3), st.floats(0.1, 4.0)).map(
        lambda t: validate(t[0], t[1], NoJumps()))
    stable = st.tuples(st.floats(-2, 2), st.floats(0.1, 2.0),
                       st.one_of(st.floats(1.05, 1.9), st.floats(0.2, 0.95)),
                       st.floats(0.1, 3.0)).map(
        lambda t: validate(t[0], t[1], StablePositive(alpha=t[2], scale=t[3])))
    cpexp = st.tuples(st.floats(-2, 2), st.floats(0.05, 2.0), st.floats(0.2, 4.0),
                      st.floats(0.1, 2.0)).map(
        lambda t: validate(t[0], t[1], CompoundPoissonExp(rate=t[2], jump_mean=t[3])))
    tempered = st.tuples(st.floats(-2, 2), st.floats(0.05, 1.0), st.floats(0.3, 1.9),
                         st.floats(0.1, 2.0), st.floats(0.3, 3.0)).map(
        lambda t: validate(t[0], t[1],
                           TemperedStable(alpha=t[2], scale=t[3], tempering=t[4])))
    return st.one_of(nojumps, stable, cpexp, tempered)


class TestValidate:
    def test_brownian_with_drift_valid(self):
        m = validate(-1.0, 1.0, NoJumps())
        assert m.validated

    def test_bad_stable_index(self):
        with pytest.raises(InvalidJumpIndexError):
            validate(0.0, 0.0, StablePositive(alpha=2.5, scale=1.0))
        with pytest.raises(InvalidJumpIndexError):
            validate(0.0, 0.0, StablePositive(alpha=-0.3, scale=1.0))
        with pytest.raises(InvalidJumpIndexError):
            validate(0.0, 0.0, TemperedStable(alpha=2.5, scale=1.0, tempering=1.0))

    def test_normalized_stable_valid(self):
        m = validate(0.0, 0.0, StablePositive(alpha=1.5, scale=C15))
        assert m.validated

    def test_negative_gaussian(self):
        with pytest.raises(NegativeGaussianError):
            validate(0.0, -0.5, NoJumps())

    def test_subordinator_rejected(self):
        # pure upward drift: psi(lam) = -lam < 0 everywhere
        with pytest.raises(SubordinatorError):
            validate(-1.0, 0.0, NoJumps())
        # upward drift dominating the small-jump compensator, plus positive
        # jumps: a monotone path
        with pytest.raises(SubordinatorError):
            validate(-1.0, 0.0, CompoundPoissonExp(rate=1.0, jump_mean=1.0))

    def test_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            validate(0.0, 1.0, StablePositive(alpha=1.5, scale=-1.0))
        with pytest.raises(ValueError):
            validate(0.0, 1.0, CompoundPoissonExp(rate=0.0, jump_mean=1.0))
        with pytest.raises(ValueError):
            validate(0.0, 1.0, TemperedStable(alpha=1.2, scale=1.0, tempering=0.0))


class TestIndexAtZero:
    """psi's index at 0+: 1 where psi'(0+) is finite and not 0, else the
    family's, checked against the local exponent lam psi'(lam) / psi(lam)."""

    @pytest.mark.parametrize("model,index", [
        (validate(0.5, 0.0, StablePositive(alpha=0.8, scale=1.0)), 0.8),
        (validate(0.5, 0.3, StablePositive(alpha=0.8, scale=1.0)), 0.8),
        (validate(1.0, 0.0, StablePositive(alpha=1.0, scale=1.0)), 1.0),
        (validate(1.5, 0.0, StablePositive(alpha=1.5, scale=1.0)), 1.0),
        (stable_power_model(1.5), 1.5),
        (validate(-0.5, 0.0, TemperedStable(alpha=0.6, scale=1.0, tempering=1.0)), 1.0),
        (validate(-0.5, 0.3, TemperedStable(alpha=1.5, scale=1.0, tempering=1.0)), 1.0),
        (builtin_model("cpexp"), 1.0),
        (builtin_model("bmdrift"), 1.0),
        (validate(0.0, 1.0, NoJumps()), 2.0),
    ], ids=["stable0.8", "stable0.8_gauss", "stable1", "stable1.5", "stable15", "tempered0.6",
            "tempered1.5_gauss", "cpexp", "bmdrift", "bm"])
    def test_values(self, model, index):
        assert model.index_at_zero == index
        lam = 1e-12
        local = lam * model.laplace_exponent_derivative(lam) / model.laplace_exponent(lam)
        # at alpha = 1 the log factor leaves 1 + 1/log(lam), about 0.04 off
        assert local == pytest.approx(index, abs=0.05)


class TestDriftAtInfinity:
    """d = lim psi(lam)/lam, finite exactly for bounded variation, against
    the high-precision psi at lam = 1e40."""

    @pytest.mark.parametrize("model", [
        validate(0.5, 0.0, NoJumps()),
        validate(0.25, 0.0, CompoundPoissonExp(rate=1.0, jump_mean=1.0)),
        validate(0.5, 0.0, StablePositive(alpha=0.8, scale=1.0)),
        validate(0.5, 0.0, StablePositive(alpha=0.3, scale=2.0)),
        validate(2.0, 0.0, TemperedStable(alpha=0.6, scale=1.0, tempering=1.0)),
        validate(-1.0, 0.0, TemperedStable(alpha=0.6, scale=1.0, tempering=1.0)),
        validate(0.2, 0.0, TemperedStable(alpha=0.3, scale=1.3, tempering=2.5)),
    ], ids=["drift", "cpexp_c0", "stable0.8", "stable0.3", "tempered0.6_up",
            "tempered0.6_phi0", "tempered0.3"])
    def test_bounded_variation(self, model):
        d = model.drift_at_infinity
        with mp.workdps(30):
            lam = mp.mpf(10) ** 40
            assert d == pytest.approx(float(laplace_exponent_hp(model, lam) / lam), rel=1e-7)
        assert d > 0.0

    @pytest.mark.parametrize("model", [
        builtin_model("cpexp"), builtin_model("bmdrift"), stable_power_model(1.5),
        validate(1.0, 0.0, StablePositive(alpha=1.0, scale=1.0)),
        validate(-0.5, 0.0, TemperedStable(alpha=1.0, scale=1.0, tempering=1.0)),
        validate(-0.5, 0.0, TemperedStable(alpha=1.5, scale=1.0, tempering=1.0)),
    ], ids=["cpexp", "bmdrift", "stable15", "stable1_c0", "tempered1_c0", "tempered1.5_c0"])
    def test_unbounded_variation(self, model):
        assert model.drift_at_infinity == math.inf


class TestLaplaceExponent:
    def test_brownian_drift_value(self):
        m = brownian_model(-1.0)  # psi = lam^2 - lam
        assert m.laplace_exponent(2.0) == pytest.approx(2.0, abs=1e-14)

    def test_zero_is_zero_exactly(self):
        for m in example_models().values():
            assert m.laplace_exponent(0.0) == 0.0

    def test_normalized_stable_power(self):
        # full compensation folds the linear term into the drift, leaving
        # C * Gamma(-alpha) * lam^alpha = lam^1.5
        m = validate(C15 / 0.5, 0.0, StablePositive(alpha=1.5, scale=C15))
        assert m.laplace_exponent(2.0) == pytest.approx(2.0**1.5, rel=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            brownian_model(1.0).laplace_exponent(-0.1)

    def test_overflow_reported(self):
        from levyfn.errors import NumericalOverflowError

        with pytest.raises(NumericalOverflowError):
            brownian_model(1.0).laplace_exponent(1e200)

    @pytest.mark.parametrize("name", sorted(example_models()))
    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.7, 25.0])
    def test_closed_form_matches_quadrature(self, name, lam):
        m = builtin_model(name)
        a = m.laplace_exponent(lam)
        b = laplace_exponent_quadrature(m, lam)
        assert a == pytest.approx(b, rel=1e-7, abs=1e-9)

    def test_stable_alpha_one_against_quadrature(self):
        m = validate(1.0, 0.5, StablePositive(alpha=1.0, scale=0.7))
        for lam in (0.5, 2.0, 9.0):
            assert m.laplace_exponent(lam) == pytest.approx(
                laplace_exponent_quadrature(m, lam), rel=1e-7)

    def test_tempered_against_quadrature(self):
        for alpha in (0.6, 1.0, 1.5):
            m = validate(0.5, 0.2, TemperedStable(alpha=alpha, scale=0.8, tempering=1.3))
            for lam in (0.4, 3.0, 11.0):
                assert m.laplace_exponent(lam) == pytest.approx(
                    laplace_exponent_quadrature(m, lam), rel=1e-7)

    ORACLE_MODELS = {
        **{name: builtin_model(name) for name in ("bmdrift", "bmup", "cpexp", "stable15")},
        **{f"stable{a}": validate(-1.0, 0.3, StablePositive(alpha=a, scale=0.7))
           for a in (0.6, 1.0, 1.5, 1.95)},
        **{f"tempered{a}": validate(-0.2, 0.0, TemperedStable(alpha=a, scale=0.7, tempering=2.5))
           for a in (0.6, 1.0, 1.3, 1.5)},
    }

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_quadrature_oracle_accuracy(self, name):
        # the compensated piece written without cancellation holds the
        # oracle to the closed forms down to lam = 1e-3 and up to 1e3
        m = self.ORACLE_MODELS[name]
        for lam in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3):
            psi = m.laplace_exponent(lam)
            assert abs(laplace_exponent_quadrature(m, lam) - psi) <= 1e-12 * abs(psi), lam

    @given(models_strategy())
    def test_grows_to_infinity(self, m):
        assert m.laplace_exponent(1e6) > m.laplace_exponent(1e3) > 0.0

    @given(models_strategy(), st.floats(0.01, 100.0))
    def test_strict_convexity_triple(self, m, lam):
        l1, l2, l3 = lam, 2.0 * lam, 4.0 * lam
        p1, p2, p3 = (m.laplace_exponent(l) for l in (l1, l2, l3))
        interp = p1 + (p3 - p1) * (l2 - l1) / (l3 - l1)
        assert p2 < interp - 1e-12 * max(1.0, abs(p3))


class TestHighPrecisionAgreement:
    """Float psi against the 50-digit mpmath psi over 22 decades of lambda."""

    MODELS = {
        "tempered06": (0.3, 0.1, TemperedStable(alpha=0.6, scale=1.0, tempering=2.0)),
        "tempered1": (0.3, 0.1, TemperedStable(alpha=1.0, scale=1.0, tempering=2.0)),
        "tempered115_phi0": (-0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5)),
        "tempered17_c0": (0.3, 0.0, TemperedStable(alpha=1.7, scale=0.8, tempering=1.0)),
        "tempered199": (0.2, 0.05, TemperedStable(alpha=1.99, scale=0.5, tempering=3.0)),
        "stable1": (0.5, 0.1, StablePositive(alpha=1.0, scale=0.7)),
        "nojumps": (0.5, 0.3, NoJumps()),
    }

    @pytest.mark.parametrize("name", [*MODELS, "cpexp", "stable15"])
    def test_float_matches_hp(self, name):
        m = validate(*self.MODELS[name]) if name in self.MODELS else builtin_model(name)
        with mp.workdps(50):
            for k in range(-14, 9):
                lam = 10.0**k
                ref = laplace_exponent_hp(m, mp.mpf(lam))
                rel = abs((m.laplace_exponent(lam) - ref) / ref)
                assert rel <= 1e-12, f"lam=1e{k}: rel err {float(rel):.2e}"

    @pytest.mark.parametrize("dps", [38, 69])
    @pytest.mark.parametrize("name", ["tempered06", "tempered115_phi0", "tempered199"])
    def test_tempered_hp_is_direct_form(self, name, dps):
        m = validate(*self.MODELS[name])
        k = _hp_consts(m, dps)
        with mp.workdps(dps):
            a, q = mp.mpf(m.jumps.alpha), mp.mpf(m.jumps.tempering)
            for e in range(-14, 9):
                lam = mp.mpf(10) ** e
                direct = k["b"] * lam + k["c"] * lam * lam + k["CG"] * (
                    (lam + q) ** a - q**a - a * q ** (a - 1) * lam)
                assert laplace_exponent_hp(m, lam) == direct

    @pytest.mark.parametrize("mag", [1e-20, 1e-17, 1e-12, 1e-8, 1e-4])
    def test_numpy_log1p_is_accurate_on_complex_input(self, mag):
        # np.log1p on complex u takes the log of |1 + u|: 1.5e-8 relative
        # error at |u| = 1e-8; the tempered psi takes it at the Talbot nodes
        u = mag * np.exp(1j * np.linspace(0.05, 3.1, 24))
        got = _NP.log1p(u)
        with mp.workdps(40):
            for ui, gi in zip(u, got):
                ref = mp.log1p(mp.mpc(ui.real, ui.imag))
                assert abs(gi - complex(ref)) <= 1e-15 * abs(complex(ref))

    def test_numpy_log1p_is_u_where_w_rounds_to_one(self):
        # on the real axis 1 + u rounds to 1 below eps/2: Kahan's quotient
        # would be 0/0
        u = np.array([1e-17, -3e-18, 1e-300, 0.0, 1e-3]) + 0j
        got = _NP.log1p(u)
        assert np.array_equal(got[:4], u[:4])
        assert got[4] == pytest.approx(math.log1p(1e-3), rel=1e-15)

    def test_numpy_log1p_is_np_log1p_on_real_input(self):
        u = np.concatenate((-np.geomspace(1e-16, 0.9, 40), np.geomspace(1e-300, 1e300, 60)))
        assert np.array_equal(_NP.log1p(u), np.log1p(u))

    def test_tempered_alpha1_hp_keeps_digits_at_small_lambda(self):
        # (lam + q) log1p(lam/q) - lam at lam << q: log(1 + lam/q) would lose
        # 14 of the 30 digits
        m = validate(-0.5, 0.1, TemperedStable(alpha=1.0, scale=1.0, tempering=1.5))
        lam = mp.mpf(1e-14)
        with mp.workdps(50):
            q = mp.mpf(1.5)
            beff = mp.mpf(-0.5) - mp.e1(q)  # the tail mean C Gamma(0, q)
            want = beff * lam + mp.mpf(0.1) * lam**2 + (lam + q) * mp.log1p(lam / q) - lam
        with mp.workdps(30):
            got = laplace_exponent_hp(m, lam)
        with mp.workdps(50):
            assert abs(got / want - 1) <= 1e-25

@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.5, 1.9, 1.95, 1.99, 1.999])
@pytest.mark.parametrize("q, eps", [(2.0, 1e-3), (5.0, 1e-4), (0.5, 0.1), (1.0, 1.0), (30.0, 1.0)])
def test_tempered_small_jump_variance(alpha, q, eps):
    """integral_0^eps u^2 pi(du) = C q^(alpha-2) gamma(2-alpha, q eps)."""
    C = 0.7
    got = TemperedStable(alpha=alpha, scale=C, tempering=q).small_variance(eps)
    with mp.workdps(40):
        a = mp.mpf(alpha)
        want = C * mp.mpf(q) ** (a - 2) * mp.gammainc(2 - a, 0, mp.mpf(q) * mp.mpf(eps))
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.95, 1.0, 1.05, 1.5, 1.9])
@pytest.mark.parametrize("q", [0.5, 5.0])
@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.5])
def test_tempered_tail_mass_and_mean(alpha, q, eps):
    """pi([eps, inf)) = C q^alpha Gamma(-alpha, q eps) and integral_eps^1 u
    pi(du) = C q^(alpha-1) [Gamma(1-alpha, q eps) - Gamma(1-alpha, q)]."""
    C = 0.7
    jumps = TemperedStable(alpha=alpha, scale=C, tempering=q)
    with mp.workdps(40):
        a, mq = mp.mpf(alpha), mp.mpf(q)
        tail = C * mq**a * mp.gammainc(-a, mq * mp.mpf(eps))
        mean = C * mq ** (a - 1) * mp.gammainc(1 - a, mq * mp.mpf(eps), mq)
        assert abs(jumps.tail_mass(eps) - tail) <= 1e-13 * tail
        assert abs(jumps.mean_eps_to_one(eps) - mean) <= 1e-13 * mean


# The families that define the jump integrals of the truncated step, with
# the Levy density written out in mpmath.
JUMP_FAMILIES = {
    "cpexp": (CompoundPoissonExp(rate=2.0, jump_mean=0.5), lambda u: 4 * mp.exp(-2 * u)),
    **{f"tempered{a}": (TemperedStable(alpha=a, scale=0.7, tempering=2.0),
                        lambda u, a=a: 0.7 * mp.exp(-2 * u) * u ** (-1 - mp.mpf(a)))
       for a in (0.6, 1.0, 1.3)},
}


class TestJumpIntegrals:
    """The three jump integrals against mpmath quadrature of the density."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.1])
    @pytest.mark.parametrize("name", sorted(JUMP_FAMILIES))
    def test_against_mpmath_quad(self, name, eps):
        jumps, density = JUMP_FAMILIES[name]
        with mp.workdps(30):
            e = mp.mpf(eps)
            want = (mp.quad(density, [e, 1, mp.inf]),
                    mp.quad(lambda u: u * density(u), [e, 1]),
                    mp.quad(lambda u: u * u * density(u), [0, e]))
        got = (jumps.tail_mass(eps), jumps.mean_eps_to_one(eps), jumps.small_variance(eps))
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-10)

    @pytest.mark.parametrize("name", ["cpexp", "tempered1.3"])
    def test_mean_eps_to_one_is_zero_at_one(self, name):
        jumps, _ = JUMP_FAMILIES[name]
        assert jumps.mean_eps_to_one(1.0) == 0.0


class TestDerivative:
    def test_brownian_values(self):
        assert brownian_model(1.0).laplace_exponent_derivative(0.0) == 1.0
        assert brownian_model(-1.0).laplace_exponent_derivative(0.0) == -1.0

    def test_normalized_stable_zero_limit(self):
        m = stable_power_model(1.5)
        assert m.laplace_exponent_derivative(0.0) == 0.0

    def test_infinite_mean_reported(self):
        m = validate(1.0, 0.5, StablePositive(alpha=0.7, scale=1.0))
        assert m.laplace_exponent_derivative(0.0) == -math.inf
        m1 = validate(1.0, 0.5, StablePositive(alpha=1.0, scale=1.0))
        assert m1.laplace_exponent_derivative(0.0) == -math.inf

    @given(models_strategy(), st.floats(1e-3, 1e3))
    def test_finite_difference(self, m, lam):
        h = 1e-5 * lam
        fd = (m.laplace_exponent(lam + h) - m.laplace_exponent(lam - h)) / (2 * h)
        d = m.laplace_exponent_derivative(lam)
        assert abs(d - fd) <= 1e-5 * max(1.0, abs(d))


class TestPhiZero:
    def test_positive_root(self):
        phi = brownian_model(-1.0).phi_zero()
        assert phi.value == pytest.approx(1.0, abs=1e-10)
        assert phi.value != 0.0

    def test_exact_zero_flag(self):
        phi = brownian_model(1.0).phi_zero()
        assert phi.value == 0.0

    def test_stable_power_zero(self):
        phi = stable_power_model(1.5).phi_zero()
        assert phi.value == 0.0

    def test_cpexp_root_against_brentq(self):
        from scipy.optimize import brentq

        m = builtin_model("cpexp")
        root = brentq(m.laplace_exponent, 1e-6, 10.0, xtol=1e-13)
        assert m.phi_zero().value == pytest.approx(root, abs=1e-10)

    @given(models_strategy())
    def test_root_consistency(self, m):
        phi = m.phi_zero()
        d0 = m.laplace_exponent_derivative(0.0)
        assert (phi.value > 0.0) == (d0 < 0.0)
        if phi.value > 0.0:
            slope = m.laplace_exponent_derivative(phi.value)
            assert abs(m.laplace_exponent(phi.value)) <= 1e-10 * max(1.0, slope)

    def test_mis_validated_model_reports_missing_bracket(self):
        from levyfn import LevyModel

        # a subordinator smuggled past validation: psi < 0 everywhere
        raw = LevyModel(drift=-1.0, gaussian=0.0, jumps=NoJumps(), validated=True)
        with pytest.raises(BracketNotFoundError):
            raw.phi_zero()


class TestHitProbability:
    def test_values(self):
        m = brownian_model(-1.0)
        assert m.hit_probability(1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert m.hit_probability(2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_certain_hit_when_phi_zero(self):
        assert stable_power_model(1.5).hit_probability(7.3) == 1.0

    def test_nonpositive_start(self):
        with pytest.raises(NonPositiveStartError):
            brownian_model(-1.0).hit_probability(0.0)


class TestJsonConfig:
    TRIPLETS = {
        "tempered06": (0.3, 0.1, TemperedStable(alpha=0.6, scale=1.0, tempering=2.0)),
        "tempered1": (-0.5, 0.1, TemperedStable(alpha=1.0, scale=1.0, tempering=1.5)),
        "tempered12": (0.3, 0.0, TemperedStable(alpha=1.2, scale=0.8, tempering=1.0)),
        "stable1": (0.5, 0.1, StablePositive(alpha=1.0, scale=0.7)),
    }

    @pytest.mark.parametrize("name", sorted(example_models()) + sorted(TRIPLETS))
    def test_roundtrip(self, name):
        m = validate(*self.TRIPLETS[name]) if name in self.TRIPLETS else builtin_model(name)
        again = model_from_dict(model_to_dict(m))
        assert again == m

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            model_from_dict({"drift": 0.0, "gaussian": 1.0,
                             "jumps": {"family": "cauchy"}})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            model_from_dict({"gaussian": 1.0, "jumps": {"family": "none"}})


class TestUpperGamma:
    """Gamma(s, q): at s = 1 - alpha near 0 the tail-mean constant of the
    tempered family's psi, and at s = -alpha in (-2, 0) its tail mass."""

    @pytest.mark.parametrize("alpha", [1.001, 1.01, 1.05, 0.99, 0.95])
    @pytest.mark.parametrize("q", [0.5, 5.0, 30.0])
    def test_matches_mpmath_near_s_zero(self, alpha, q):
        s = 1.0 - alpha
        with mp.workdps(40):
            want = mp.gammainc(mp.mpf(s), mp.mpf(q))
            assert abs(_upper_gamma(s, q) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [-1.9, -1.5, -1.001, -1.0, -0.9, -0.5, -0.2, 0.0, 0.3, 0.8])
    @pytest.mark.parametrize("q", [0.2, 1.0, 3.0, 60.0])
    def test_matches_mpmath_elsewhere(self, s, q):
        with mp.workdps(40):
            want = mp.gammainc(mp.mpf(s), mp.mpf(q))
            assert abs(_upper_gamma(s, q) - want) <= 1e-13 * abs(want)


class TestTilt:
    """`LevyModel.tilted`: the model tilted by its own Phi(0), whose exponent
    is psi(lam + Phi(0)) and whose scale function is e^{-Phi(0)x} W(x)."""

    MODELS = {
        "stable0.6": (1.0, 0.0, StablePositive(alpha=0.6, scale=0.5)),
        "stable1": (0.4, 0.2, StablePositive(alpha=1.0, scale=0.8)),
        "stable1.5": (-1.0, 0.0, StablePositive(alpha=1.5, scale=0.5)),
        "cpexp": (0.2, 0.25, CompoundPoissonExp(rate=2.0, jump_mean=0.5)),
        "cpexp_c0": (-0.5, 0.0, CompoundPoissonExp(rate=2.0, jump_mean=1.0)),
        "tempered0.6": (-1.0, 0.0, TemperedStable(alpha=0.6, scale=1.0, tempering=1.0)),
        "tempered1": (-0.5, 0.1, TemperedStable(alpha=1.0, scale=1.0, tempering=1.5)),
        "tempered1.3": (-1.0, 0.1, TemperedStable(alpha=1.3, scale=1.0, tempering=1.5)),
        "bmdrift": (-1.0, 1.0, NoJumps()),
        "bm_phi40": (-40.0, 1.0, NoJumps()),
    }

    @pytest.fixture(params=sorted(MODELS))
    def model(self, request):
        m = validate(*self.MODELS[request.param])
        assert m.phi_zero().value > 0.0
        return m

    def test_exponent_is_psi_shifted(self, model):
        # against the 40-digit psi(lam + theta) - psi(theta), theta the float
        # Phi(0) the tilt takes, so that the root's own rounding drops out
        tilted, phi0 = model.tilted, model.phi_zero().value
        with mp.workdps(40):
            theta = mp.mpf(phi0)
            base = laplace_exponent_hp(model, theta)
            for lam in np.geomspace(1e-3, 1e3, 13):
                want = laplace_exponent_hp(model, mp.mpf(lam) + theta) - base
                got = tilted.laplace_exponent(float(lam))
                assert abs(got / want - 1) <= 1e-12, (lam, got, float(want))

    def test_slope_at_zero_and_own_root(self, model):
        tilted = model.tilted
        want = model.laplace_exponent_derivative(model.phi_zero().value)
        assert tilted.laplace_exponent_derivative(0.0) == pytest.approx(want, rel=1e-12)
        assert tilted.phi_zero() == PhiZero(0.0)
        assert tilted.gaussian == model.gaussian and tilted.validated
        assert tilted.tilted is tilted

    def test_density_is_tilted(self, model):
        phi0 = model.phi_zero().value
        for u in np.geomspace(1e-3, 5.0, 9):
            want = math.exp(-phi0 * u) * model.jumps.density(float(u))
            assert model.tilted.jumps.density(float(u)) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [20, 30, 36, 40, 50])
    def test_inverted_w_shift_keeps_its_limit(self, model, k):
        # W_shift is the tilted model's W, inverted at nodes nu/x that no
        # Phi(0) rounds away: its limit 1/psi'(Phi(0)) holds to 2^50
        ev = ScaleEvaluator(model, use_closed_form=False)
        limit = 1.0 / model.laplace_exponent_derivative(model.phi_zero().value)
        assert abs(ev.w_shifted(2.0**k) - limit) <= 1e-10 * limit

    @pytest.mark.parametrize("name", ["bmup", "stable15"])
    def test_phi_zero_zero_is_the_model(self, name):
        m = builtin_model(name)
        assert m.tilted is m
        tempered = validate(0.5, 0.1, TemperedStable(alpha=1.15, scale=1.0, tempering=1.5))
        assert tempered.tilted is tempered

    def test_families(self):
        assert NoJumps().tilted(2.0) == NoJumps()
        assert StablePositive(1.5, 0.5).tilted(2.0) == TemperedStable(1.5, 0.5, 2.0)
        assert TemperedStable(0.6, 1.0, 1.0).tilted(2.0) == TemperedStable(0.6, 1.0, 3.0)
        assert CompoundPoissonExp(2.0, 0.5).tilted(2.0) == CompoundPoissonExp(1.0, 0.25)
