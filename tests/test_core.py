import math

import numpy as np
import pytest

from ossmax import (
    ConfigError,
    SolverConfig,
    contraction_factor,
    default_outer_round_cap,
    guaranteed_ratio,
)


class TestContractionFactor:
    def test_sigma_zero_is_one(self):
        assert contraction_factor(1.0, 0.0) == 1.0
        assert contraction_factor(0.3, 0.0) == 1.0

    def test_alpha_one_sigma_one(self):
        assert contraction_factor(1.0, 1.0) == pytest.approx(0.25)

    def test_alpha_half_sigma_one(self):
        assert contraction_factor(0.5, 1.0) == pytest.approx(1.0 / 9.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ConfigError):
            contraction_factor(alpha, 1.0)

    def test_sigma_domain(self):
        with pytest.raises(ConfigError):
            contraction_factor(0.5, -0.1)
        with pytest.raises(ConfigError):
            contraction_factor(0.5, math.nan)
        # the factor must stay in (0, 1]: one that underflows to 0 is rejected
        assert contraction_factor(0.05, 122.3) > 0.0
        for alpha, sigma in [(0.05, 123.0), (0.05, math.inf), (1.0, math.inf)]:
            with pytest.raises(ConfigError):
                contraction_factor(alpha, sigma)

    def test_range(self):
        for alpha in np.linspace(0.05, 1.0, 12):
            for sigma in np.linspace(0.0, 4.0, 9):
                value = contraction_factor(float(alpha), float(sigma))
                assert 0.0 < value <= 1.0

    def test_monotone_in_alpha(self):
        # for fixed sigma > 0 the factor grows with alpha
        for sigma in (0.5, 1.0, 2.0):
            values = [contraction_factor(a, sigma) for a in np.linspace(0.05, 1.0, 20)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_sigma(self):
        # for fixed alpha < 1 the factor shrinks as sigma grows
        for alpha in (0.2, 0.5, 0.9):
            values = [contraction_factor(alpha, s) for s in np.linspace(0.0, 3.0, 16)]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestGuaranteedRatio:
    def test_sigma_zero_limit(self):
        # epsilon -> 0 recovers 1 - 1/e for the smooth-free case
        cfg = SolverConfig(epsilon=1e-12, sigma=0.0)
        assert guaranteed_ratio(cfg) == pytest.approx(1.0 - 1.0 / math.e, abs=1e-9)
        assert guaranteed_ratio(cfg) == pytest.approx(0.6321, abs=1e-4)

    def test_sigma_zero_eps_tenth(self):
        cfg = SolverConfig(epsilon=0.1, sigma=0.0)
        assert guaranteed_ratio(cfg) == pytest.approx(0.9 * (1.0 - 1.0 / math.e), rel=1e-12)

    def test_alpha_one_sigma_one(self):
        cfg = SolverConfig(alpha=1.0, sigma=1.0, epsilon=1e-12)
        assert guaranteed_ratio(cfg) == pytest.approx(1.0 - math.exp(-0.25), abs=1e-9)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.mu == 1.0
        assert cfg.max_outer_rounds == default_outer_round_cap(cfg.epsilon)

    def test_derived_round_cap_formula(self):
        assert default_outer_round_cap(0.1) == math.ceil(10.0 * math.log(1e6) / 0.1)
        assert default_outer_round_cap(0.2) == math.ceil(10.0 * math.log(1e6) / 0.2)

    def test_explicit_round_cap_kept(self):
        cfg = SolverConfig(max_outer_rounds=7)
        assert cfg.max_outer_rounds == 7

    def test_mu_property(self):
        cfg = SolverConfig(alpha=1.0, sigma=1.0)
        assert cfg.mu == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.2},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"eta": -1.0},
            {"sigma": -0.5},
            {"spg_batch": 0},
            {"lipschitz_L": -1.0},
            {"diameter_D": -0.1},
            {"noise_theta": -0.2},
            {"max_outer_rounds": 0},
            {"alpha": -0.5},
            {"spg_batch": -4},
            # NaN fails every check
            {"alpha": math.nan},
            {"epsilon": math.nan},
            {"sigma": math.nan},
            {"eta": math.nan},
            {"lipschitz_L": math.nan},
            {"diameter_D": math.nan},
            {"noise_theta": math.nan},
            {"spg_batch": math.nan},
            {"max_outer_rounds": math.nan},
            # mu underflows to 0; an infinite eta leaves no step
            {"sigma": 123.0},
            {"sigma": math.inf},
            {"eta": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(AttributeError):
            cfg.alpha = 0.5
