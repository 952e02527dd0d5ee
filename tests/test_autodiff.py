import numpy as np
import pytest

from filtershare import autodiff as ad
from filtershare.errors import ContractError, ShapeError
from filtershare.tensor import Tensor


def fd_directional(f, params, delta, h=1e-5):
    """Central-difference directional derivative along delta (one array per
    param), an oracle independent of the tape."""
    originals = [p.value for p in params]

    def shift(sign):
        for p, base, d in zip(params, originals, delta):
            p.value = Tensor(base.array + sign * h * d)
        try:
            return f()
        finally:
            for p, base in zip(params, originals):
                p.value = base

    return (shift(+1.0) - shift(-1.0)) / (2.0 * h)


def test_every_exported_name_resolves():
    missing = [name for name in ad.__all__ if not hasattr(ad, name)]
    assert missing == []
    # a conv layer and a U-Net skip join are one op each
    for gone in ("pad_spatial", "channel_bias", "upsample_nearest",
                 "concat_channels"):
        assert not hasattr(ad, gone)


class TestForward:
    def test_identity_program_empty_tape(self):
        x = Tensor([1.0, 2.0])
        out, tape = ad.forward(lambda v: v, inputs=[x])
        assert np.array_equal(out.array, x.array)
        assert len(tape) == 0

    def test_dot_program(self):
        w = ad.Parameter("w", [1.0, 2.0])
        out, _ = ad.forward(lambda x: ad.sum_all(ad.apply_mask(w, x.array)),
                            inputs=[Tensor([3.0, 4.0])])
        assert out.array.tolist() == [11.0]

    def test_replay_is_bitwise_deterministic(self, rng):
        w = ad.Parameter("w", rng.normal(size=(4, 4)))
        x = Tensor(rng.normal(size=(4, 4)))

        def program(v):
            return ad.sum_all(ad.relu(ad.apply_mask(w, v.array)))

        out1, _ = ad.forward(program, inputs=[x])
        out2, _ = ad.forward(program, inputs=[x])
        assert np.array_equal(out1.array, out2.array)


class TestBackward:
    def test_linear_function_grad(self):
        w = ad.Parameter("w", [1.0, 1.0])
        x = Tensor([3.0, 4.0])
        _, tape = ad.forward(lambda: ad.sum_all(ad.apply_mask(w, x.array)))
        ad.backward(tape, Tensor([1.0]))
        assert w.grad.tolist() == [3.0, 4.0]

    def test_relu_subgradient(self):
        w = ad.Parameter("w", [-1.0, 2.0])
        _, tape = ad.forward(lambda: ad.sum_all(ad.relu(w)))
        ad.backward(tape, Tensor([1.0]))
        assert w.grad.tolist() == [0.0, 1.0]

    def test_seed_shape_mismatch(self):
        w = ad.Parameter("w", [1.0, 2.0])
        _, tape = ad.forward(lambda: ad.relu(w))
        with pytest.raises(ShapeError):
            ad.backward(tape, Tensor([1.0]))

    def test_three_layer_program_matches_fd(self, rng):
        w1 = ad.Parameter("w1", rng.normal(size=(3, 5)))
        b1 = ad.Parameter("b1", rng.normal(size=3))
        w2 = ad.Parameter("w2", rng.normal(size=(2, 3)))
        params = [w1, b1, w2]
        x = Tensor(rng.normal(size=5))

        def program():
            h = ad.relu(ad.affine(w1, x, b1))
            out = ad.affine(w2, h, Tensor([0.0, 0.0]))
            return ad.sum_all(ad.sigmoid(out))

        _, tape = ad.forward(program)
        ad.zero_grads(params)
        ad.backward(tape, Tensor([1.0]))
        for p in params:
            flat = p.grad.reshape(-1)
            for ci in range(flat.size):
                delta = [np.zeros(q.value.shape) for q in params]
                delta[params.index(p)].reshape(-1)[ci] = 1.0
                numeric = fd_directional(
                    lambda: ad.forward(program)[0].item(), params, delta)
                rel = abs(flat[ci] - numeric) / (abs(flat[ci]) + abs(numeric) + 1)
                assert rel < 1e-6

    def test_accumulation_multiple_backward(self, rng):
        w = ad.Parameter("w", rng.normal(size=4))
        _, tape = ad.forward(lambda: ad.sum_all(ad.add(w, w)))
        ad.backward(tape, Tensor([1.0]))
        once = w.grad.copy()
        assert np.array_equal(once, np.full(4, 2.0))  # both fan-in routes
        ad.backward(tape, Tensor([1.0]))
        assert np.array_equal(w.grad, 2.0 * once)

    def test_grad_of_sum_is_sum_of_grads(self, rng):
        w = ad.Parameter("w", rng.normal(size=4))
        x1 = Tensor(rng.normal(size=4))
        x2 = Tensor(rng.normal(size=4))

        def p1():
            return ad.sum_all(ad.apply_mask(w, x1.array))

        def p2():
            return ad.sum_all(ad.apply_mask(w, x2.array))

        ad.zero_grads([w])
        _, t1 = ad.forward(p1)
        ad.backward(t1, Tensor([1.0]))
        g1 = w.grad.copy()
        ad.zero_grads([w])
        _, t2 = ad.forward(p2)
        ad.backward(t2, Tensor([1.0]))
        g2 = w.grad.copy()
        ad.zero_grads([w])
        _, t3 = ad.forward(lambda: ad.add(p1(), p2()))
        ad.backward(t3, Tensor([1.0]))
        assert np.array_equal(w.grad, g1 + g2)

    def test_parameter_as_output(self):
        w = ad.Parameter("w", [1.0, 2.0])
        _, tape = ad.forward(lambda: w)
        ad.backward(tape, Tensor([5.0, 7.0]))
        assert w.grad.tolist() == [5.0, 7.0]


class TestPrimitiveDotProducts:
    """Every primitive passes the directional-derivative (dot-product) test."""

    CASES = []

    @pytest.mark.parametrize("name", [
        "add", "relu", "sigmoid", "conv_valid",
        "conv_stack", "pad_spatial", "channel_bias", "max_pool",
        "upsample_nearest", "concat_channels", "global_avg_pool", "affine",
        "apply_mask", "mix_filters", "squeeze_leading", "sum_all",
    ])
    def test_primitive(self, name, rng):
        progs = self._programs(rng)
        program, params = progs[name]
        _, tape = ad.forward(program)
        ad.zero_grads(params)
        ad.backward(tape, Tensor([1.0]))
        delta = [rng.normal(size=p.value.shape) for p in params]
        analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, delta))
        numeric = fd_directional(lambda: ad.forward(program)[0].item(),
                                 params, delta)
        rel = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)
        assert rel < 1e-6, f"{name}: analytic {analytic} vs numeric {numeric}"

    def _programs(self, rng):
        a = ad.Parameter("a", rng.normal(size=(3, 4)))
        b = ad.Parameter("b", rng.normal(size=(3, 4)))
        vec1 = ad.Parameter("vec1", rng.normal(size=6))
        img = ad.Parameter("img", rng.normal(size=(2, 6, 6)))
        one_map = ad.Parameter("one_map", rng.normal(size=(1, 4, 4)))
        filt = ad.Parameter("filt", rng.normal(size=(3, 2, 3, 3)))
        seeds = ad.Parameter("seeds", rng.normal(size=(2, 3, 3)))
        alpha = ad.Parameter("alpha", rng.normal(size=(3, 2, 2)))
        bias3 = ad.Parameter("bias3", rng.normal(size=3))
        w = ad.Parameter("w", rng.normal(size=(4, 6)))
        bw = ad.Parameter("bw", rng.normal(size=4))
        xmap = ad.Parameter("xmap", rng.normal(size=(1, 5, 5)))
        kmap = ad.Parameter("kmap", rng.normal(size=(1, 1, 2, 2)))
        probe = {
            "mat": rng.normal(size=(3, 4)),
            "convout": rng.normal(size=(3, 4, 4)),
            "pool": rng.normal(size=(2, 3, 3)),
            "pad": rng.normal(size=(3, 6, 6)),
            "up": rng.normal(size=(3, 12, 12)),
            "cat": rng.normal(size=(3, 6, 6)),
            "gap": rng.normal(size=2),
            "aff": rng.normal(size=4),
            "map": rng.normal(size=(1, 4, 4)),
            "sq": rng.normal(size=(4, 4)),
            "mix": rng.normal(size=(3, 2, 3, 3)),
        }
        mask = (rng.random((3, 4)) > 0.4) / 0.6
        zero1, zero3 = Tensor(np.zeros(1)), Tensor(np.zeros(3))
        low = Tensor(rng.normal(size=(1, 3, 3)))
        high = Tensor(rng.normal(size=(1, 12, 12)))

        def tie(out, key):
            return ad.sum_all(ad.apply_mask(out, probe[key]))

        return {
            "add": (lambda: tie(ad.add(a, b), "mat"), [a, b]),
            "relu": (lambda: tie(ad.relu(a), "mat"), [a]),
            "sigmoid": (lambda: tie(ad.sigmoid(a), "mat"), [a]),
            "sum_all": (lambda: ad.sum_all(a), [a]),
            # valid convolution of one map by one kernel
            "conv_valid": (lambda: tie(ad.conv_stack(xmap, kmap, zero1, (0, 0)),
                                       "map"), [xmap, kmap]),
            "conv_stack": (lambda: tie(ad.conv_stack(img, filt, zero3, (0, 0)),
                                       "convout"), [img, filt]),
            # SAME padding inside the conv op
            "pad_spatial": (lambda: tie(ad.conv_stack(img, filt, zero3, (1, 1)),
                                        "pad"), [img, filt]),
            "channel_bias": (lambda: tie(ad.conv_stack(img, filt, bias3, (0, 0)),
                                         "convout"), [img, filt, bias3]),
            "max_pool": (lambda: tie(ad.max_pool(img, 2), "pool"), [img]),
            # upsample_concat, one id per route: the upsampled x, the skip
            "upsample_nearest": (lambda: tie(ad.upsample_concat(img, high, 2),
                                             "up"), [img]),
            "concat_channels": (lambda: tie(ad.upsample_concat(low, img, 2),
                                            "cat"), [img]),
            "global_avg_pool": (lambda: tie(ad.global_avg_pool(img), "gap"),
                                [img]),
            "affine": (lambda: tie(ad.affine(w, vec1, bw), "aff"),
                       [w, vec1, bw]),
            "apply_mask": (lambda: tie(ad.apply_mask(a, mask), "mat"), [a]),
            "mix_filters": (lambda: tie(ad.mix_filters(seeds, alpha), "mix"),
                            [seeds, alpha]),
            "squeeze_leading": (lambda: tie(ad.squeeze_leading(one_map), "sq"),
                                [one_map]),
        }


class TestGradCheck:
    def test_quadratic_passes(self):
        # w @ x is a quadratic form in (w, x): each gradient is the other
        w = ad.Parameter("w", [[1.0, 2.0]])
        x = ad.Parameter("x", [3.0, 4.0])
        report = ad.grad_check(
            lambda: ad.affine(w, x, Tensor([0.0])), [w, x])
        assert report.passed
        analytic = {(r.param_id, r.coord): r.analytic for r in report.rows}
        assert analytic == {("w", 0): pytest.approx(3.0),
                            ("w", 1): pytest.approx(4.0),
                            ("x", 0): pytest.approx(1.0),
                            ("x", 1): pytest.approx(2.0)}

    def test_non_scalar_program_rejected(self):
        w = ad.Parameter("w", [1.0, 2.0])
        with pytest.raises(ContractError):
            ad.grad_check(lambda: ad.relu(w), [w])

    def test_corrupted_backward_rule_fails(self, rng):
        w = ad.Parameter("w", rng.normal(size=8))
        ad.set_fault_injection(True)
        try:
            report = ad.grad_check(lambda: ad.sum_all(ad.relu(w)), [w])
        finally:
            ad.set_fault_injection(False)
        assert not report.passed

    def test_coordinate_subsampling(self, rng):
        w = ad.Parameter("w", rng.normal(size=64))
        report = ad.grad_check(
            lambda: ad.sum_all(ad.sigmoid(ad.add(w, w))), [w], coord_budget=10)
        assert 1 <= len(report.rows) <= 10
        assert report.passed
