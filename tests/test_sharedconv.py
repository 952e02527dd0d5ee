import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtershare import autodiff as ad
from filtershare import nets
from filtershare import sharedconv as sc
from filtershare import traineval as te
from filtershare.errors import ConfigError, ShapeError
from filtershare.tensor import Tensor


def random_layer(rng, m=3, n=2, kernel=(3, 3), p=2, padding=sc.VALID):
    spec = sc.ConvLayerSpec(n, m, kernel, padding=padding, sharing_p=p)
    seeds = Tensor(rng.normal(size=(p,) + kernel))
    alpha = Tensor(rng.normal(size=(m, n, p)))
    bias = Tensor(rng.normal(size=m))
    return spec, seeds, alpha, bias


class TestExpandFilters:
    def test_single_seed_scaling(self):
        out = sc.expand_filters(Tensor([[1.0, 0.0, -1.0]]),
                                Tensor(np.full((1, 1, 1), 2.0)))
        assert out.value.array.tolist() == [[[2.0, 0.0, -2.0]]]

    def test_basis_combination(self):
        seeds = Tensor([[1.0, 0.0], [0.0, 1.0]])
        alpha = Tensor(np.array([3.0, 4.0]).reshape(1, 1, 2))
        out = sc.expand_filters(seeds, alpha)
        assert out.value.array.tolist() == [[[3.0, 4.0]]]

    def test_zero_alpha_zero_filters(self, rng):
        seeds = Tensor(rng.normal(size=(4, 3, 3)))
        alpha = Tensor(np.zeros((2, 3, 4)))
        out = sc.expand_filters(seeds, alpha).value
        assert np.all(out.array == 0.0)

    def test_p_mismatch(self, rng):
        with pytest.raises(ShapeError):
            sc.expand_filters(Tensor(rng.normal(size=(3, 2, 2))),
                              Tensor(rng.normal(size=(2, 2, 4))))


class TestLayerForward:
    def test_identity_kernel_identity(self, rng):
        spec = sc.ConvLayerSpec(1, 1, (1, 1))
        x = Tensor(rng.normal(size=(1, 5, 5)))
        out = sc.layer_forward(spec, Tensor(np.ones((1, 1, 1, 1))),
                               Tensor([0.0]), x)
        assert np.array_equal(out.array, x.array)

    def test_zero_filters_bias_broadcast(self, rng):
        spec = sc.ConvLayerSpec(2, 1, (3, 3))
        x = Tensor(rng.normal(size=(2, 6, 6)))
        out = sc.layer_forward(spec, Tensor(np.zeros((1, 2, 3, 3))),
                               Tensor([5.0]), x)
        assert np.all(out.array == 5.0)

    def test_matches_triple_loop_oracle(self, rng):
        spec = sc.ConvLayerSpec(3, 2, (3, 3))
        filters = rng.normal(size=(2, 3, 3, 3))
        bias = rng.normal(size=2)
        x = rng.normal(size=(3, 7, 6))
        out = sc.layer_forward(spec, Tensor(filters), Tensor(bias), Tensor(x))
        expected = np.zeros((2, 5, 4))
        for i in range(2):
            for j in range(3):
                for px in range(5):
                    for py in range(4):
                        expected[i, px, py] += (
                            x[j, px:px + 3, py:py + 3] * filters[i, j]).sum()
            expected[i] += bias[i]
        assert np.abs(out.array - expected).max() < 1e-12

    def test_channel_mismatch(self, rng):
        spec = sc.ConvLayerSpec(3, 2, (3, 3))
        with pytest.raises(ShapeError):
            sc.layer_forward(spec, Tensor(rng.normal(size=(2, 3, 3, 3))),
                             Tensor(rng.normal(size=2)),
                             Tensor(rng.normal(size=(2, 6, 6))))


class TestSharedLayer:
    def test_equals_expanded_unshared_bitwise(self, rng):
        for _ in range(5):
            spec, seeds, alpha, bias = random_layer(rng)
            x = Tensor(rng.normal(size=(2, 8, 8)))
            shared = sc.shared_layer_forward(spec, seeds, alpha, bias, x).value
            expanded = sc.expand_filters(seeds, alpha).value
            unshared = sc.layer_forward(spec, expanded, bias, x).value
            assert np.array_equal(shared.array, unshared.array)

    def test_one_hot_alpha_reproduces_unshared_layer(self, rng):
        m, n, kernel = 2, 3, (3, 3)
        s = int(np.prod(kernel))
        filters = rng.normal(size=(m, n) + kernel)
        # P = MN one-hot mixing: seed (i,j) is exactly filter (i,j)
        p = m * n
        seeds = filters.reshape(p, *kernel)
        alpha = np.zeros((m, n, p))
        for i in range(m):
            for j in range(n):
                alpha[i, j, i * n + j] = 1.0
        spec_shared = sc.ConvLayerSpec(n, m, kernel, sharing_p=p)
        spec_plain = sc.ConvLayerSpec(n, m, kernel)
        bias = Tensor(rng.normal(size=m))
        x = Tensor(rng.normal(size=(n, 7, 7)))
        got = sc.shared_layer_forward(spec_shared, Tensor(seeds), Tensor(alpha),
                                      bias, x).value
        want = sc.layer_forward(spec_plain, Tensor(filters), bias, x).value
        assert np.abs(got.array - want.array).max() < 1e-12

    def test_low_rank_cannot_reproduce_full_rank(self, rng):
        # random full-rank MNxS filter matrix: best rank-P fit leaves residual
        m, n, s = 2, 3, 9
        filters = rng.normal(size=(m * n, s))
        for p in (1, 3, 5):
            u, sig, vt = np.linalg.svd(filters, full_matrices=False)
            best = (u[:, :p] * sig[:p]) @ vt[:p]
            residual = np.linalg.norm(filters - best)
            assert residual > 1e-6

    def test_seed_alpha_rescaling_leaves_filters_unchanged(self, rng):
        spec, seeds, alpha, _ = random_layer(rng, p=4)
        c = 3.7
        scaled_seeds = Tensor(seeds.array * c)
        scaled_alpha = Tensor(alpha.array / c)
        base = sc.expand_filters(seeds, alpha).value.array
        moved = sc.expand_filters(scaled_seeds, scaled_alpha).value.array
        assert np.abs(base - moved).max() <= 1e-12 * max(1.0, np.abs(base).max())

    def test_gradients_match_hand_chain_rule(self, rng):
        """Tape grads for the bank/coefficients equal the chain rule applied
        to the unshared layer's filter gradient."""
        spec, seeds, alpha, bias = random_layer(rng, m=3, n=2, p=2)
        x = Tensor(rng.normal(size=(2, 8, 8)))
        g_out = rng.normal(size=(3, 6, 6))

        # route 1: tape through the shared layer
        seeds_p = ad.Parameter("seeds", seeds)
        alpha_p = ad.Parameter("alpha", alpha)
        _, tape = ad.forward(
            lambda: sc.shared_layer_forward(spec, seeds_p, alpha_p, bias, x))
        ad.backward(tape, Tensor(g_out))

        # route 2: filter-level gradient from the unshared layer, then the
        # hand-derived chain rule through v = sum_p alpha * seed
        filters_p = ad.Parameter("filters", sc.expand_filters(seeds, alpha).value)
        spec_plain = sc.ConvLayerSpec(2, 3, (3, 3))
        _, tape2 = ad.forward(
            lambda: sc.layer_forward(spec_plain, filters_p, bias, x))
        ad.backward(tape2, Tensor(g_out))
        dv = filters_p.grad  # (M, N, *k)

        want_alpha = np.einsum("pab,ijab->ijp", seeds.array, dv)
        want_seeds = np.einsum("ijp,ijab->pab", alpha.array, dv)
        scale = max(1.0, np.abs(dv).max())
        assert np.abs(alpha_p.grad - want_alpha).max() < 1e-10 * scale
        assert np.abs(seeds_p.grad - want_seeds).max() < 1e-10 * scale

    def test_grad_check_all_dims(self, rng):
        for d, kernel in ((1, (5,)), (2, (3, 3)), (3, (3, 3, 3))):
            spec, seeds, alpha, bias = random_layer(rng, m=2, n=2,
                                                    kernel=kernel, p=2)
            seeds_p = ad.Parameter("seeds", seeds)
            alpha_p = ad.Parameter("alpha", Tensor(rng.normal(size=(2, 2, 2))))
            bias_p = ad.Parameter("bias", bias)
            x = Tensor(rng.normal(size=(2,) + (7,) * d))
            report = ad.grad_check(
                lambda: ad.sum_all(sc.shared_layer_forward(
                    spec, seeds_p, alpha_p, bias_p, x)),
                [seeds_p, alpha_p, bias_p], tolerance=1e-4)
            assert report.passed, f"D={d}: {report.max_rel_err}"


class TestCounting:
    def test_anchor_3x3x3(self):
        unshared = sc.ConvLayerSpec(32, 64, (3, 3, 3))
        shared = sc.ConvLayerSpec(32, 64, (3, 3, 3), sharing_p=15)
        assert sc.param_count(unshared) == sc.ParamCount(55296, 64)
        assert sc.param_count(shared) == sc.ParamCount(31125, 64)

    def test_degenerate_single_everything(self):
        unshared = sc.ConvLayerSpec(1, 1, (1,))
        shared = sc.ConvLayerSpec(1, 1, (1,), sharing_p=1)
        assert sc.param_count(unshared).weights == 1
        assert sc.param_count(shared).weights == 2

    def test_breakeven_anchor(self):
        assert sc.sharing_breakeven(sc.ConvLayerSpec(32, 64, (3, 3, 3))) == 26

    def test_breakeven_impossible(self):
        assert sc.sharing_breakeven(sc.ConvLayerSpec(1, 1, (2,))) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 80),
           st.integers(1, 40))
    def test_breakeven_matches_integer_scan(self, m, n, s, p):
        spec_u = sc.ConvLayerSpec(n, m, (s,))
        spec_s = sc.ConvLayerSpec(n, m, (s,), sharing_p=p)
        breakeven = sc.sharing_breakeven(spec_u)
        # brute-force largest P with savings
        best = 0
        for cand in range(1, m * n * s + 1):
            if m * n * cand + cand * s < m * n * s:
                best = cand
        assert breakeven == best
        saves = sc.param_count(spec_s).weights < sc.param_count(spec_u).weights
        assert saves == (p <= breakeven)

    def test_shared_count_slopes_in_filter_size(self):
        m, n, p = 8, 4, 15
        sizes = [e ** 3 for e in (3, 5, 7, 9)]
        shared = [sc.param_count(
            sc.ConvLayerSpec(n, m, (e, e, e), sharing_p=p)).weights
            for e in (3, 5, 7, 9)]
        unshared = [sc.param_count(
            sc.ConvLayerSpec(n, m, (e, e, e))).weights for e in (3, 5, 7, 9)]
        for i in range(1, 4):
            ds = sizes[i] - sizes[i - 1]
            assert shared[i] - shared[i - 1] == p * ds
            assert unshared[i] - unshared[i - 1] == m * n * ds


class TestSpecValidation:
    def test_bad_channels(self):
        with pytest.raises(ConfigError):
            sc.ConvLayerSpec(0, 1, (3,))

    def test_same_padding_needs_odd(self):
        with pytest.raises(ConfigError):
            sc.ConvLayerSpec(1, 1, (2, 2), padding=sc.SAME)

    def test_shared_layer_requires_sharing_spec(self, rng):
        spec = sc.ConvLayerSpec(2, 3, (3, 3))
        with pytest.raises(ConfigError):
            sc.shared_layer_forward(spec, Tensor(rng.normal(size=(2, 3, 3))),
                                    Tensor(rng.normal(size=(3, 2, 2))),
                                    Tensor(rng.normal(size=3)),
                                    Tensor(rng.normal(size=(2, 6, 6))))


class TestLayerCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        """A one-shared-layer net through the trainer's checkpoint format."""
        spec, seeds, alpha, bias = random_layer(rng, m=1, p=3)
        net = nets.Network(
            nets.NetSpec(name="one_layer", input_shape=(2, 6, 6),
                         layers=(nets.ConvBlock(spec),), head=nets.HEAD_MASK),
            {"layer0.seeds": ad.Parameter("layer0.seeds", seeds),
             "layer0.alpha": ad.Parameter("layer0.alpha", alpha),
             "layer0.bias": ad.Parameter("layer0.bias", bias)})
        te.save_checkpoint(tmp_path / "layer", net, te.SGD(0.1), epoch=0)
        net2, _, _ = te.load_checkpoint(tmp_path / "layer")
        assert net2.spec.layers[0].conv == spec
        assert np.array_equal(net2.params["layer0.seeds"].value.array,
                              seeds.array)
        assert np.array_equal(net2.params["layer0.alpha"].value.array,
                              alpha.array)
        assert np.array_equal(net2.params["layer0.bias"].value.array,
                              bias.array)
