import numpy as np
import pytest

from filtershare import autodiff as ad
from filtershare import factorize, regularizers as reg
from filtershare.errors import ConfigError, DegenerateSeedError
from filtershare.sharedconv import FilterBank, expand_filters
from filtershare.tensor import Tensor


class TestUnitNormProjection:
    def test_three_four_five(self):
        bank = FilterBank(Tensor([[3.0, 4.0]]))
        out = reg.project_unit_norm(bank)
        assert out.seeds.array.tolist() == [[0.6, 0.8]]

    def test_idempotent_on_unit_seed(self, rng):
        seed = rng.normal(size=(1, 3, 3))
        seed /= np.linalg.norm(seed)
        out = reg.project_unit_norm(FilterBank(Tensor(seed)))
        assert np.abs(out.seeds.array - seed).max() < 1e-15

    def test_all_norms_one(self, rng):
        bank = FilterBank(Tensor(rng.normal(size=(5, 4, 4)) * 7.0))
        out = reg.project_unit_norm(bank)
        assert np.abs(out.norms() - 1.0).max() < 1e-12

    def test_preserves_direction(self, rng):
        bank = FilterBank(Tensor(rng.normal(size=(4, 6))))
        out = reg.project_unit_norm(bank)
        for p in range(4):
            a = bank.seeds.array[p].ravel()
            b = out.seeds.array[p].ravel()
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(cos - 1.0) < 1e-12

    def test_degenerate_seed_aborts(self):
        bank = FilterBank(Tensor(np.zeros((2, 3))))
        with pytest.raises(DegenerateSeedError):
            reg.project_unit_norm(bank)


class TestL1Penalty:
    def test_hand_value(self):
        out = reg.l1_penalty(Tensor(np.array([[1.0, -2.0]]).reshape(1, 1, 2)), 0.5)
        assert out.value.array.tolist() == [1.5]

    def test_zero_weight(self, rng):
        out = reg.l1_penalty(Tensor(rng.normal(size=(2, 2, 2))), 0.0)
        assert out.value.array.tolist() == [0.0]

    def test_gradient_matches_fd_away_from_zero(self, rng):
        vals = rng.normal(size=(2, 3, 2))
        vals[np.abs(vals) < 0.2] += 0.5  # keep clear of the kink
        p = ad.Parameter("alpha", vals)
        report = ad.grad_check(lambda: reg.l1_penalty(p, 0.7), [p])
        assert report.passed
        _, tape = ad.forward(lambda: reg.l1_penalty(p, 0.7))
        ad.zero_grads([p])
        ad.backward(tape, Tensor([1.0]))
        assert np.array_equal(p.grad, 0.7 * np.sign(vals))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            reg.l1_penalty(Tensor(np.ones((1, 1, 1))), -1.0)


class TestNuclearPenalty:
    def test_rank_one_matrix(self):
        out = reg.nuclear_penalty(Tensor([[2.0, 0.0], [0.0, 0.0]]), 0.5)
        assert out.value.array.tolist() == [pytest.approx(1.0)]

    def test_identity(self):
        out = reg.nuclear_penalty(Tensor(np.eye(2)), 1.0)
        assert out.value.array.tolist() == [pytest.approx(2.0)]

    def test_matches_jacobi_oracle(self, rng):
        mat = rng.normal(size=(6, 3))
        got = reg.nuclear_penalty(Tensor(mat), 1.0).value.item()
        _, sigma, _ = factorize.jacobi_svd(mat)
        assert abs(got - sigma.sum()) < 1e-10

    def test_diagonal_equals_l1(self, rng):
        d = np.abs(rng.normal(size=4))
        mat = np.zeros((4, 4))
        np.fill_diagonal(mat, d)
        nuc = reg.nuclear_penalty(Tensor(mat), 1.0).value.item()
        l1 = reg.l1_penalty(Tensor(d.reshape(1, 1, 4)), 1.0).value.item()
        assert abs(nuc - l1) < 1e-12

    def test_gradient_matches_fd_at_distinct_singulars(self, rng):
        # well-separated singular values so the subgradient is the gradient
        u, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        mat = (u * np.array([3.0, 1.5, 0.6])) @ v.T
        p = ad.Parameter("alpha", mat)
        report = ad.grad_check(lambda: reg.nuclear_penalty(p, 1.3), [p],
                               tolerance=1e-5)
        assert report.passed


class TestFeatureDropout:
    def test_p_zero_identity_exact(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = reg.feature_dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert np.array_equal(out.array, x.array)

    def test_inference_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = reg.feature_dropout(x, 0.9, np.random.default_rng(0), training=False)
        assert np.array_equal(out.array, x.array)

    def test_monte_carlo_expectation(self):
        x = Tensor(np.ones(1_000_000))
        out = reg.feature_dropout(x, 0.1, np.random.default_rng(7), training=True)
        assert abs(out.array.mean() - 1.0) < 0.01

    def test_expectation_preserved_within_3_sigma(self, rng):
        p = 0.3
        n = 200_000
        x = Tensor(np.full(n, 2.0))
        out = reg.feature_dropout(x, p, np.random.default_rng(11), training=True)
        # per-element variance of (mask/(1-p))*2 is 4p/(1-p)
        sigma_mean = np.sqrt(4.0 * p / (1.0 - p) / n)
        assert abs(out.array.mean() - 2.0) <= 3.0 * sigma_mean

    def test_bad_probability(self, rng):
        x = Tensor(np.ones(4))
        with pytest.raises(ConfigError):
            reg.feature_dropout(x, 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ConfigError):
            reg.RegularizerConfig(dropout_p=1.0)


class TestGaugeFixing:
    def test_projection_plus_alpha_rescale_is_exact_reparameterization(self, rng):
        """Normalizing seeds while scaling each p-slice of alpha by the old
        seed norm leaves the expanded filters unchanged."""
        seeds = rng.normal(size=(4, 3, 3)) * rng.uniform(0.2, 5.0, (4, 1, 1))
        alpha = rng.normal(size=(3, 2, 4))
        bank = FilterBank(Tensor(seeds))
        norms = bank.norms()
        projected = reg.project_unit_norm(bank)
        alpha_rescaled = alpha * norms[None, None, :]
        base = expand_filters(Tensor(seeds), Tensor(alpha)).value.array
        moved = expand_filters(projected.seeds, Tensor(alpha_rescaled)).value.array
        assert np.abs(base - moved).max() < 1e-10 * max(1.0, np.abs(base).max())


class TestPenaltyTerm:
    def test_inactive_returns_none(self, rng):
        p = ad.Parameter("alpha", rng.normal(size=(2, 2, 2)))
        cfg = reg.RegularizerConfig()
        assert reg.penalty_term([p], cfg) is None

    def test_combined_terms_add(self, rng):
        arr = rng.normal(size=(2, 2, 3))
        p = ad.Parameter("alpha", arr)
        cfg = reg.RegularizerConfig(l1_alpha=0.5, nuclear_alpha=0.25)
        total = reg.penalty_term([p], cfg).value.item()
        want = (reg.l1_penalty(Tensor(arr), 0.5).value.item()
                + reg.nuclear_penalty(Tensor(arr), 0.25).value.item())
        assert abs(total - want) < 1e-12
