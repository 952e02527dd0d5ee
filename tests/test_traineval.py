import warnings

import numpy as np
import pytest

from filtershare import autodiff as ad
from filtershare import data, nets, traineval as te
from filtershare import sharedconv as sc
from filtershare.errors import (ConfigError, ContractError, FormatError,
                                ShapeError, TrainingAbort)
from filtershare.regularizers import RegularizerConfig
from filtershare.tensor import Tensor


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way(self):
        loss = te.softmax_cross_entropy(Tensor([0.0, 0.0]), 0)
        assert loss.value.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_huge_logit_no_overflow(self):
        loss = te.softmax_cross_entropy(Tensor([1000.0, 0.0]), 0)
        assert loss.value.item() == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_class(self):
        with pytest.raises(ContractError):
            te.softmax_cross_entropy(Tensor([0.0, 0.0]), 2)

    def test_gradient_matches_fd(self, rng):
        logits = ad.Parameter("logits", rng.normal(size=6))
        report = ad.grad_check(lambda: te.softmax_cross_entropy(logits, 4),
                               [logits])
        assert report.passed


class TestSoftDice:
    def test_perfect_prediction(self):
        ones = Tensor(np.ones(8))
        assert te.soft_dice_loss(ones, ones).value.item() == pytest.approx(0.0)

    def test_all_zero_prediction(self):
        loss = te.soft_dice_loss(Tensor(np.zeros(8)), Tensor(np.ones(8)))
        assert loss.value.item() == pytest.approx(1.0 - 1.0 / 9.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            te.soft_dice_loss(Tensor(np.zeros(4)), Tensor(np.ones(5)))

    def test_gradient_matches_fd(self, rng):
        pred = ad.Parameter("pred", rng.random((4, 4)))
        target = Tensor((rng.random((4, 4)) > 0.5).astype(float))
        report = ad.grad_check(lambda: te.soft_dice_loss(pred, target), [pred])
        assert report.passed

    def test_binary_pred_identity_with_hard_dice(self, rng):
        # with eps -> 0, 1 - soft dice on binary predictions is hard dice
        pred = (rng.random(64) > 0.4).astype(float)
        target = (rng.random(64) > 0.6).astype(float)
        soft = te.soft_dice_loss(Tensor(pred), Tensor(target),
                                 epsilon=1e-300).value.item()
        hard = te.dice_overlap(Tensor(pred), Tensor(target))
        assert 1.0 - soft == pytest.approx(hard, abs=1e-12)


class TestDiceOverlap:
    def test_identical_masks(self, rng):
        m = Tensor((rng.random(27) > 0.5).astype(float))
        assert te.dice_overlap(m, m) == 1.0

    def test_disjoint_masks(self):
        a = Tensor([1.0, 1.0, 0.0, 0.0])
        b = Tensor([0.0, 0.0, 1.0, 1.0])
        assert te.dice_overlap(a, b) == 0.0

    def test_half_overlap(self):
        a = Tensor([1, 1, 1, 1, 0, 0, 0, 0.0])
        b = Tensor([1, 1, 0, 0, 1, 1, 0, 0.0])
        assert te.dice_overlap(a, b) == 0.5

    def test_both_empty_is_one(self):
        z = Tensor(np.zeros(8))
        assert te.dice_overlap(z, z) == 1.0

    def test_thresholds_probabilities(self):
        probs = Tensor([0.9, 0.6, 0.4, 0.1])
        target = Tensor([1.0, 1.0, 0.0, 0.0])
        assert te.dice_overlap(probs, target) == 1.0


class TestOptimizers:
    def test_sgd_hand_step(self):
        p = ad.Parameter("w", [1.0])
        p.grad[:] = 2.0
        te.SGD(0.1).step([p])
        assert p.value.array.tolist() == [pytest.approx(0.8)]

    def test_zero_grad_keeps_value(self):
        for opt in (te.SGD(0.1), te.Adam(0.1)):
            p = ad.Parameter("w", [3.0])
            opt.step([p])
            assert p.value.array.tolist() == [3.0]

    def test_adam_descends_quadratic(self):
        p = ad.Parameter("w", [1.0, 1.0])
        opt = te.Adam(1e-3)
        losses = []
        for _ in range(100):
            ad.zero_grads([p])
            # p as a constant mask: the tape's gradient is p, that of sum(p^2)/2
            _, tape = ad.forward(
                lambda: ad.sum_all(ad.apply_mask(p, p.value.array)))
            losses.append(float((p.value.array ** 2).sum()))
            ad.backward(tape, Tensor([1.0]))
            opt.step([p])
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_nan_grad_aborts(self):
        p = ad.Parameter("w", [1.0])
        p.grad[:] = np.nan
        with pytest.raises(TrainingAbort, match="w"):
            te.optimizer_step(te.SGD(0.1), [p])

    def test_unit_norm_projection_after_step(self):
        seeds = ad.Parameter("layer.seeds", [[3.0, 4.0]])
        alpha = ad.Parameter("layer.alpha", [[[1.0]]])
        te.optimizer_step(te.SGD(0.1), [seeds, alpha],
                          RegularizerConfig(unit_norm_seeds=True),
                          [(seeds, alpha)])
        norm = np.linalg.norm(seeds.value.array)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_projection_keeps_expanded_filters(self, rng):
        seeds = ad.Parameter("layer.seeds", rng.normal(size=(4, 3, 3)) * 0.2)
        alpha = ad.Parameter("layer.alpha", rng.normal(size=(5, 2, 4)))
        before = sc.expand_filters(seeds, alpha).array
        # zero gradients: the optimizer leaves both parameters as they are
        te.optimizer_step(te.SGD(0.1), [seeds, alpha],
                          RegularizerConfig(unit_norm_seeds=True),
                          [(seeds, alpha)])
        flat = seeds.value.array.reshape(4, -1)
        np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0,
                                   rtol=1e-12)
        after = sc.expand_filters(seeds, alpha).array
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()


def separable_points(n, seed):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        label = i % 2
        base = np.array([2.0, 2.0]) if label else np.array([-2.0, -2.0])
        items.append((Tensor(base + rng.normal(0, 0.5, 2)), label))
    return items


def linear_net(seed=0):
    spec = nets.NetSpec(name="linear", input_shape=(2,),
                        layers=(nets.Dense(2, 2),), head=nets.HEAD_LOGITS)
    return nets.Network.initialize(spec, seed=seed)


class TestTrainLoop:
    def test_linear_model_solves_separable_data(self):
        train_set = separable_points(40, seed=5)
        net = linear_net()
        cfg = te.TrainConfig(optimizer="sgd", learning_rate=0.1, batch_size=8,
                             epochs=50, seed=1, eval_every=0)
        net, metrics = te.train(net, train_set, None, cfg,
                                RegularizerConfig(dropout_p=0.0))
        assert cfg.epochs <= 200
        _, acc = te.evaluate(net, train_set)
        assert acc >= 0.99

    def test_first_epoch_losses_mostly_decrease(self):
        # smoke property: >= 90% of consecutive train-loss deltas negative
        train_set = separable_points(60, seed=8)
        net = linear_net(seed=2)
        cfg = te.TrainConfig(optimizer="sgd", learning_rate=0.05, batch_size=60,
                             epochs=30, seed=3, eval_every=0)
        _, metrics = te.train(net, train_set, None, cfg,
                              RegularizerConfig(dropout_p=0.0))
        losses = [r.loss for r in metrics.rows if r.split == "train"]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops >= 0.9 * (len(losses) - 1)

    def test_training_is_bitwise_reproducible(self, tmp_path):
        train_set = separable_points(20, seed=5)
        rows = []
        for _ in range(2):
            net = linear_net(seed=7)
            cfg = te.TrainConfig(optimizer="adam", learning_rate=0.01,
                                 batch_size=4, epochs=5, seed=9, eval_every=1,
                                 record_seconds=False)
            _, metrics = te.train(net, train_set, train_set[:8], cfg,
                                  RegularizerConfig(dropout_p=0.0))
            path = tmp_path / f"m{len(rows)}.csv"
            metrics.write_csv(path)
            rows.append(path.read_bytes())
        assert rows[0] == rows[1]

    def test_penalties_add_to_loss(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = nets.build_cifcnn(shared=True, p=4)
        net = nets.Network.initialize(spec, seed=0)
        imgs = data.toy_image_dataset(4, seed=3, num_classes=2)
        cfg = te.TrainConfig(optimizer="sgd", learning_rate=1e-3, batch_size=4,
                             epochs=1, seed=0, eval_every=0)
        _, plain = te.train(net.clone(), imgs, None, cfg,
                            RegularizerConfig(dropout_p=0.0))
        _, penalized = te.train(net.clone(), imgs, None, cfg,
                                RegularizerConfig(dropout_p=0.0, l1_alpha=0.1))
        assert penalized.rows[0].loss > plain.rows[0].loss

    def test_evaluate_is_pure(self):
        net = linear_net()
        ds = separable_points(10, seed=0)
        a = te.evaluate(net, ds)
        b = te.evaluate(net, ds)
        assert a == b

    def test_uniform_predictor_near_chance(self, rng):
        # zeroed dense layer -> uniform softmax over 10 classes; on balanced
        # labels the accuracy sits at chance level
        spec = nets.NetSpec(name="flat", input_shape=(4,),
                            layers=(nets.Dense(4, 10),), head=nets.HEAD_LOGITS)
        net = nets.Network.initialize(spec, seed=0)
        for key in net.params:
            net.params[key].assign(Tensor(np.zeros(net.params[key].value.shape)))
        ds = [(Tensor(rng.normal(size=4)), i % 10) for i in range(1000)]
        _, acc = te.evaluate(net, ds)
        assert abs(acc - 0.1) <= 0.03

    def test_non_finite_loss_aborts(self):
        # huge inputs + huge lr drive the weights to inf, so the next forward
        # produces a nan loss and training must abort
        train_set = [(Tensor([1e160, -1e160]), i % 2) for i in range(4)]
        net = linear_net()
        cfg = te.TrainConfig(optimizer="sgd", learning_rate=1e160, batch_size=4,
                             epochs=5, seed=0, eval_every=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingAbort,
                                                      match="non-finite"):
            te.train(net, train_set, None, cfg, RegularizerConfig(dropout_p=0.0))


class TestCheckpoints:
    def _small_unet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = nets.build_unet3d(levels=2, base_channels=2, shared=True,
                                     p=3, input_extent=8)
        return nets.Network.initialize(spec, seed=1)

    def test_round_trip_preserves_params_and_epoch(self, tmp_path):
        net = self._small_unet()
        opt = te.Adam(1e-3)
        te.save_checkpoint(tmp_path / "ck", net, opt, epoch=7)
        net2, opt2, epoch = te.load_checkpoint(tmp_path / "ck")
        assert epoch == 7
        assert isinstance(opt2, te.Adam)
        assert net2.spec == net.spec
        for key in net.params:
            assert np.array_equal(net2.params[key].value.array,
                                  net.params[key].value.array)

    def test_resume_continues_exactly(self, tmp_path):
        """train(0..4) == train(0..2) + resume(3..4), bitwise on metrics."""
        train_set = separable_points(16, seed=4)
        cfg_all = te.TrainConfig(optimizer="adam", learning_rate=0.01,
                                 batch_size=4, epochs=5, seed=2, eval_every=1,
                                 record_seconds=False)
        net_a = linear_net(seed=11)
        _, metrics_a = te.train(net_a, train_set, train_set, cfg_all,
                                RegularizerConfig(dropout_p=0.0))

        cfg_first = te.TrainConfig(optimizer="adam", learning_rate=0.01,
                                   batch_size=4, epochs=3, seed=2, eval_every=1,
                                   record_seconds=False)
        net_b = linear_net(seed=11)
        _, metrics_b1 = te.train(net_b, train_set, train_set, cfg_first,
                                 RegularizerConfig(dropout_p=0.0),
                                 checkpoint_dir=tmp_path)
        latest = te.latest_checkpoint(tmp_path)
        net_c, opt_c, last_epoch = te.load_checkpoint(latest)
        _, metrics_b2 = te.train(net_c, train_set, train_set, cfg_all,
                                 RegularizerConfig(dropout_p=0.0),
                                 start_epoch=last_epoch + 1, optimizer=opt_c)
        combined = metrics_b1.rows + metrics_b2.rows
        assert [(r.epoch, r.split, r.loss, r.metric) for r in metrics_a.rows] \
            == [(r.epoch, r.split, r.loss, r.metric) for r in combined]

    def test_keeps_last_two_checkpoints(self, tmp_path):
        train_set = separable_points(8, seed=4)
        cfg = te.TrainConfig(optimizer="sgd", learning_rate=0.01, batch_size=4,
                             epochs=5, seed=0, eval_every=0)
        te.train(linear_net(), train_set, None, cfg,
                 RegularizerConfig(dropout_p=0.0), checkpoint_dir=tmp_path)
        kept = sorted(p.name for p in tmp_path.iterdir()
                      if p.name.startswith("epoch_"))
        assert kept == ["epoch_0003", "epoch_0004"]

    def test_save_replaces_existing_checkpoint(self, tmp_path):
        net = linear_net(seed=0)
        te.save_checkpoint(tmp_path / "epoch_0000", net, te.SGD(0.1), epoch=0)
        net.params["layer0.bias"].assign(Tensor([5.0, -5.0]))
        te.save_checkpoint(tmp_path / "epoch_0000", net, te.SGD(0.1), epoch=1)
        assert [p.name for p in tmp_path.iterdir()] == ["epoch_0000"]
        net2, _, epoch = te.load_checkpoint(tmp_path / "epoch_0000")
        assert epoch == 1
        assert net2.params["layer0.bias"].value.array.tolist() == [5.0, -5.0]

    def test_interrupted_save_leftovers_are_not_checkpoints(self, tmp_path):
        net = linear_net(seed=0)
        te.save_checkpoint(tmp_path / "epoch_0000", net, te.SGD(0.1), epoch=0)
        (tmp_path / "epoch_0001.tmp").mkdir()
        (tmp_path / "epoch_0001.old").mkdir()
        assert te.latest_checkpoint(tmp_path) == tmp_path / "epoch_0000"


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        m = te.Metrics()
        m.append(te.MetricsRow(0, "train", 1.5, 0.25, 10.0))
        m.append(te.MetricsRow(0, "val", 1.25, 0.5, 2.0))
        path = tmp_path / "metrics.csv"
        m.write_csv(path)
        assert path.read_text().splitlines()[0] == "epoch,split,loss,metric,seconds"
        back = te.Metrics.read_csv(path, last_epoch=0)
        assert back.rows == m.rows

    @pytest.mark.parametrize("bad_row", ["0,train,abc,1,0", "0,train,1.5,1",
                                         "x,train,1.5,1,0"],
                             ids=["bad_loss", "short_row", "bad_epoch"])
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_row):
        path = tmp_path / "metrics.csv"
        path.write_text("epoch,split,loss,metric,seconds\n"
                        "0,val,1.25,0.5,2.0\n" + bad_row + "\n")
        with pytest.raises(FormatError, match=r"metrics\.csv: line 3"):
            te.Metrics.read_csv(path, last_epoch=0)

    @pytest.mark.parametrize("text", ["", "epoch,split\n"],
                             ids=["empty", "bad_header"])
    def test_bad_header_names_file(self, tmp_path, text):
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=r"metrics\.csv: unexpected"):
            te.Metrics.read_csv(path, last_epoch=0)
