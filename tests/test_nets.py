import hashlib
import json
import warnings

import numpy as np
import pytest

from filtershare import autodiff as ad
from filtershare import nets
from filtershare import sharedconv as sc
from filtershare.errors import ShapeError
from filtershare.tensor import Tensor


def quiet_build(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def bias_count(net):
    return sum(p.value.size for k, p in net.params.items()
               if k.endswith(".bias"))


class TestCifCnn:
    def test_shape_trace_ends_at_10_logits(self, monkeypatch):
        net = nets.Network.initialize(nets.build_cifcnn(), seed=0)
        conv_shapes = []
        layer_forward = sc.layer_forward

        def traced(*args):
            out = layer_forward(*args)
            conv_shapes.append(out.shape)
            return out

        monkeypatch.setattr(sc, "layer_forward", traced)
        assert net.forward(Tensor(np.zeros((3, 32, 32)))).shape == (10,)
        # conv 32x32 ->(5x5 valid) 28 -> pool 14 ->(5x5) 10 -> pool 5 ->(3x3) 3
        assert conv_shapes == [(32, 28, 28), (64, 10, 10), (64, 3, 3)]

    def test_unshared_total_matches_hand_sum(self):
        net = nets.Network.initialize(nets.build_cifcnn(shared=False), seed=0)
        # conv1 32*3*25, conv2 64*32*25, conv3 64*64*9, dense 64*10 + biases
        weights = 32 * 3 * 25 + 64 * 32 * 25 + 64 * 64 * 9 + 64 * 10
        bias = 32 + 64 + 64 + 10
        assert net.weight_count() == weights
        assert bias_count(net) == bias

    def test_shared_layers_use_sharing_formula(self):
        spec = quiet_build(nets.build_cifcnn, shared=True, p=15)
        for layer in spec.layers:
            if isinstance(layer, nets.ConvBlock):
                cs = layer.conv
                assert cs.shared
                pc = sc.param_count(cs)
                assert pc.weights == (cs.out_channels * cs.in_channels
                                      * cs.sharing_p
                                      + cs.sharing_p * cs.filter_size)

    def test_p_clamped_to_breakeven_with_warning(self):
        with pytest.warns(UserWarning, match="clamp"):
            spec = nets.build_cifcnn(shared=True, p=15)
        convs = [l.conv for l in spec.layers if isinstance(l, nets.ConvBlock)]
        assert convs[0].sharing_p == 15
        assert convs[1].sharing_p == 15
        assert convs[2].sharing_p == sc.sharing_breakeven(
            sc.ConvLayerSpec(64, 64, (3, 3)))

    def test_zero_image_constant_propagation_oracle(self):
        """On a zero image (dropout off) every map is constant, so the whole
        net reduces to a per-channel scalar recurrence through the biases."""
        net = nets.Network.initialize(nets.build_cifcnn(shared=False), seed=9)
        logits = net.forward(Tensor(np.zeros((3, 32, 32)))).array

        def conv_const(values, layer_index):
            w = net.params[f"layer{layer_index}.weights"].value.array
            b = net.params[f"layer{layer_index}.bias"].value.array
            sums = w.reshape(w.shape[0], w.shape[1], -1).sum(axis=2)
            return np.maximum(sums @ values + b, 0.0)  # conv then relu

        c = conv_const(np.zeros(3), 0)     # conv1 on zero maps
        c = conv_const(c, 2)               # pool keeps constants; conv2
        c = conv_const(c, 4)               # conv3
        w = net.params["layer6.weights"].value.array
        b = net.params["layer6.bias"].value.array
        expected = w @ c + b               # global average of constants = c
        assert np.abs(logits - expected).max() < 1e-12


class TestUnet3d:
    def test_output_shape_matches_input(self):
        net = nets.Network.initialize(
            quiet_build(nets.build_unet3d, shared=True, p=15), seed=0)
        assert net.forward(Tensor(np.zeros((1, 40, 40, 40)))).shape \
            == (40, 40, 40)

    def test_unshared_total_matches_hand_sum(self):
        weights = 27 * (1 * 8 + 8 * 8 + 8 * 16 + 16 * 16 + 16 * 32 + 32 * 32
                        + 48 * 16 + 16 * 16 + 24 * 8 + 8 * 8) + 8 * 1
        bias = 8 + 8 + 16 + 16 + 32 + 32 + 16 + 16 + 8 + 8 + 1
        net = nets.Network.initialize(nets.build_unet3d(shared=False), seed=0)
        assert net.weight_count() == weights == 88352
        assert bias_count(net) == bias == 161

    def test_shared_strictly_fewer_weights(self):
        shared = nets.Network.initialize(
            quiet_build(nets.build_unet3d, shared=True, p=15), seed=0)
        unshared = nets.Network.initialize(nets.build_unet3d(shared=False),
                                           seed=0)
        ratio = shared.weight_count() / unshared.weight_count()
        assert 0 < ratio <= 0.60

    def test_forward_in_unit_interval(self, rng):
        net = nets.Network.initialize(
            quiet_build(nets.build_unet3d, levels=2, base_channels=2,
                        input_extent=8, shared=True, p=4), seed=0)
        out = net.forward(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (8, 8, 8)
        assert out.array.min() > 0.0 and out.array.max() < 1.0

    def test_indivisible_input_extent(self):
        spec = nets.build_unet3d(shared=False, input_extent=41)
        with pytest.raises(ShapeError, match="pool"):
            nets.validate(spec)

    def test_shape_invariant_to_channels_and_p(self, rng):
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        a = nets.Network.initialize(
            nets.build_unet3d(base_channels=4, input_extent=8), seed=0)
        b = nets.Network.initialize(
            quiet_build(nets.build_unet3d, base_channels=8, shared=True, p=5,
                        input_extent=8), seed=0)
        assert a.forward(x).shape == b.forward(x).shape == (8, 8, 8)

    def test_backward_skips_input_gradient_of_constant_input(self, rng,
                                                             monkeypatch):
        """Layer 0 convolves the data, which needs no gradient, so one
        backward computes an input gradient for every other conv layer."""
        net = nets.Network.initialize(
            quiet_build(nets.build_unet3d, levels=2, base_channels=2,
                        input_extent=8, shared=True, p=3), seed=0)
        calls = []
        grad_input = ad.kernels.conv_stack_grad_input

        def counted(*args):
            calls.append(args)
            return grad_input(*args)

        monkeypatch.setattr(ad.kernels, "conv_stack_grad_input", counted)
        tape = ad.Tape()
        with ad.recording(tape):
            out = net.forward_var(Tensor(rng.normal(size=(1, 8, 8, 8))),
                                  training=True)
        ad.backward(tape, Tensor(np.ones(out.shape)))
        assert len(calls) == len(net.conv_layer_indices()) - 1
        assert all(np.any(p.grad) for p in net.parameters())

    def test_shared_and_unshared_same_output_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        outs = []
        for shared in (False, True):
            net = nets.Network.initialize(
                quiet_build(nets.build_unet3d, levels=2, base_channels=2,
                            input_extent=8, shared=shared, p=3), seed=1)
            outs.append(net.forward(x).shape)
        assert outs[0] == outs[1]


class TestNetworkParams:
    @pytest.mark.parametrize("builder,kwargs", [
        (nets.build_cifcnn, {"shared": False}),
        (nets.build_cifcnn, {"shared": True, "p": 15}),
        (nets.build_unet3d, {"shared": False, "levels": 2, "base_channels": 2,
                             "input_extent": 8}),
        (nets.build_unet3d, {"shared": True, "p": 6, "levels": 2,
                             "base_channels": 2, "input_extent": 8}),
    ])
    def test_registered_scalars_equal_trace_total(self, builder, kwargs):
        """The registered scalars are those that sharedconv.param_count
        gives per conv layer, plus in*out + out per dense layer."""
        spec = quiet_build(builder, **kwargs)
        net = nets.Network.initialize(spec, seed=0)
        counts = [sc.param_count(layer.conv) for layer in spec.layers
                  if isinstance(layer, nets.ConvBlock)]
        dense = [layer for layer in spec.layers if isinstance(layer, nets.Dense)]
        assert sum(p.value.size for p in net.parameters()) == (
            sum(pc.weights + pc.bias for pc in counts)
            + sum(d.in_dim * d.out_dim + d.out_dim for d in dense))

    def test_initialization_is_seed_deterministic(self):
        a = nets.Network.initialize(nets.build_cifcnn(), seed=4)
        b = nets.Network.initialize(nets.build_cifcnn(), seed=4)
        for key in a.params:
            assert np.array_equal(a.params[key].value.array,
                                  b.params[key].value.array)

    def test_dropout_changes_training_forward_only(self, rng):
        spec = quiet_build(nets.build_unet3d, levels=2, base_channels=2,
                           input_extent=8, shared=True, p=3)
        net = nets.Network.initialize(spec, seed=2)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        plain = net.forward(x).array
        dropped = net.forward_var(x, training=True, dropout_p=0.5,
                                  rng=np.random.default_rng(0)).array
        assert not np.array_equal(plain, dropped)
        again = net.forward(x).array
        assert np.array_equal(plain, again)


class TestNetSpecJson:
    def test_round_trip(self):
        for spec in (quiet_build(nets.build_cifcnn, shared=True, p=15),
                     quiet_build(nets.build_unet3d, shared=True, p=15)):
            doc = spec.to_json()
            back = nets.NetSpec.from_json(doc)
            assert back == spec

    def test_json_is_plain_data(self):
        doc = nets.build_cifcnn().to_json()
        json.dumps(doc)  # must not raise

    @pytest.mark.parametrize("builder,digest", [
        (nets.build_unet3d,
         "7a5f8f29da1e2f27da9b658c886c3b1862bee29ede1514bfbeb6bea55af8c78d"),
        (nets.build_cifcnn,
         "1f1b74f8019b5aa360caa6eb61055a01d131a4b2f16d3b51695e14b35ab6e26d"),
    ])
    def test_default_shared_json_bytes_pinned(self, builder, digest):
        """Saved manifests and perfbench/checks.py read this JSON, so its
        keys and values must not drift."""
        doc = quiet_build(builder, shared=True).to_json()
        assert sorted(doc["layers"][0]) == [
            "activation", "dropout", "in_channels", "kernel_extents", "kind",
            "out_channels", "padding", "save_as", "sharing_p"]
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
