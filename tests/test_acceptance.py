"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The segmentation run
(criterion 6) dominates the clock at roughly 12 CPU-minutes on one core.
"""

import csv
import itertools
import time
import warnings

import numpy as np
import pytest

from filtershare import autodiff as ad
from filtershare import cli, data, factorize as fz, nets, traineval as te
from filtershare import regularizers as reg
from filtershare import sharedconv as sc
from filtershare.tensor import Tensor


def note(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def run_cli(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCriterion01GradientCorrectness:
    def test_shared_layer_gradients_all_dims(self):
        t0 = time.perf_counter()
        worst = 0.0
        for d, kernel, extent in ((1, (5,), 14), (2, (3, 3), 10),
                                  (3, (3, 3, 3), 7)):
            rng = np.random.default_rng(1000 + d)
            spec = sc.ConvLayerSpec(2, 3, kernel, sharing_p=2)
            seeds = ad.Parameter("seeds", rng.normal(size=(2,) + kernel))
            alpha = ad.Parameter("alpha", rng.normal(size=(3, 2, 2)))
            bias = ad.Parameter("bias", rng.normal(size=3))
            x = Tensor(rng.normal(size=(2,) + (extent,) * d))

            def program():
                return ad.sum_all(
                    sc.shared_layer_forward(spec, seeds, alpha, bias, x))

            report = ad.grad_check(program, [seeds, alpha, bias],
                                   tolerance=1e-4)
            assert report.passed, f"D={d}: max rel err {report.max_rel_err}"
            checked = {r.param_id for r in report.rows}
            assert checked == {"seeds", "alpha", "bias"}
            total = sum(p.value.size for p in (seeds, alpha, bias))
            assert len(report.rows) == total  # every coordinate
            worst = max(worst, report.max_rel_err)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        note(1, f"seed/coefficient/bias gradients at D=1,2,3 within "
                f"{worst:.2e} (<1e-4) in {elapsed:.1f}s (<60s)")


class TestCriterion02CountingFormulas:
    def test_formulas_and_breakeven_on_grid(self):
        cases = 0
        for m, n, kernel, p in itertools.product(
                (1, 2, 3, 8, 64), (1, 2, 3, 32),
                ((1,), (3,), (5, 5), (3, 3), (3, 3, 3), (7, 7, 7)),
                (1, 2, 15)):
            s = int(np.prod(kernel))
            unshared = sc.param_count(sc.ConvLayerSpec(n, m, kernel))
            shared = sc.param_count(sc.ConvLayerSpec(n, m, kernel, sharing_p=p))
            assert unshared.weights == m * n * s
            assert shared.weights == m * n * p + p * s
            assert unshared.bias == shared.bias == m
            breakeven = sc.sharing_breakeven(sc.ConvLayerSpec(n, m, kernel))
            scan_best = 0
            cand = 1
            while m * n * cand + cand * s < m * n * s:
                scan_best = cand
                cand += 1
            assert breakeven == scan_best
            assert (shared.weights < unshared.weights) == (p <= breakeven)
            cases += 1
        assert cases >= 200
        anchor_u = sc.param_count(sc.ConvLayerSpec(32, 64, (3, 3, 3)))
        anchor_s = sc.param_count(sc.ConvLayerSpec(32, 64, (3, 3, 3),
                                                   sharing_p=15))
        assert (anchor_u.weights, anchor_s.weights) == (55296, 31125)
        note(2, f"{cases}-case grid exact for M*N*S and M*N*P+P*S; "
                f"breakeven matches integer scan; anchor 55296 vs 31125")


class TestCriterion03ParamsSweep:
    def test_cli_sweep_matches_hand_computed(self, tmp_path):
        assert run_cli(["params", "--output-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "params.csv")
        assert rows[0] == ["kernel_extent", "unshared", "shared", "ratio",
                           "over_breakeven"]
        m, n, p = 64, 32, 15
        body = rows[1:]
        assert [int(r[0]) for r in body] == [3, 5, 7, 9]
        for r in body:
            s = int(r[0]) ** 3
            assert int(r[1]) == m * n * s
            assert int(r[2]) == m * n * p + p * s
            assert float(r[3]) == pytest.approx(int(r[2]) / int(r[1]), abs=0)
        sizes = [int(r[0]) ** 3 for r in body]
        for i in range(1, len(body)):
            ds = sizes[i] - sizes[i - 1]
            assert int(body[i][2]) - int(body[i - 1][2]) == p * ds
            assert int(body[i][1]) - int(body[i - 1][1]) == m * n * ds
        note(3, "3^3..9^3 sweep CSV exact; shared slope P*dS, "
                "unshared slope M*N*dS")


class TestCriterion04DefinitionalEquivalence:
    def test_bitwise_on_50_random_configurations(self):
        rng = np.random.default_rng(4)
        for case in range(50):
            d = int(rng.integers(1, 4))
            same = bool(rng.integers(0, 2))
            kernel = tuple(int(e) for e in
                           rng.choice([1, 3, 5], size=d)) if same else tuple(
                int(rng.integers(1, 4)) for _ in range(d))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 7))
            spec = sc.ConvLayerSpec(n, m, kernel,
                                    padding=sc.SAME if same else sc.VALID,
                                    sharing_p=p)
            extent = tuple(int(rng.integers(max(kernel), max(kernel) + 6))
                           for _ in range(d))
            seeds = Tensor(rng.normal(size=(p,) + kernel))
            alpha = Tensor(rng.normal(size=(m, n, p)))
            bias = Tensor(rng.normal(size=m))
            x = Tensor(rng.normal(size=(n,) + extent))
            shared = sc.shared_layer_forward(spec, seeds, alpha, bias, x)
            plain = sc.layer_forward(spec, sc.expand_filters(seeds, alpha),
                                     bias, x)
            assert np.array_equal(shared.array, plain.array), f"case {case}"
        note(4, "shared forward == expand-then-convolve, bitwise, "
                "50 random configurations (D in 1..3, both paddings)")


class TestCriterion05EckartYoung:
    def test_beats_random_factorizations(self):
        rng = np.random.default_rng(5)
        for case in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            s = int(rng.integers(3, 9))
            p = int(rng.integers(1, min(m * n, s) + 1))
            filters = rng.normal(size=(m, n, s))
            fact = fz.decompose(Tensor(filters), p)
            best = np.linalg.norm(fz.reconstruct(fact).array - filters)
            mat = filters.reshape(m * n, s)
            for _ in range(100):
                rival = np.linalg.norm(
                    rng.normal(size=(m * n, p)) @ rng.normal(size=(p, s)) - mat)
                assert best <= rival + 1e-12, f"case {case}"
        note(5, "decompose beats 100 random rank-P rivals on 20 matrices")

    def test_lossless_substitution_below_1e9(self):
        rng = np.random.default_rng(55)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = nets.build_unet3d(levels=2, base_channels=2, shared=False,
                                     input_extent=8)
        net = nets.Network.initialize(spec, seed=5)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)))
        base = net.forward(x).array
        worst = 0.0
        for layer_index in net.conv_layer_indices():
            w = net.params[f"layer{layer_index}.weights"].value
            max_p = min(w.array.shape[0] * w.array.shape[1],
                        int(np.prod(w.array.shape[2:])))
            candidate = fz._substitute(
                net, layer_index, fz.reconstruct(fz.decompose(w, max_p)))
            worst = max(worst, np.abs(candidate.forward(x).array - base).max())
        assert worst < 1e-9
        note(5, f"lossless-P substitution moves outputs by {worst:.1e} (<1e-9)")


@pytest.mark.slow
class TestCriterion06DeskScaleSegmentation:
    def test_shared_unet_reaches_dice_080_within_budget(self):
        t_cpu = time.process_time()
        t_wall = time.perf_counter()
        samples = data.synth_nodule_dataset(280, seed=2026)
        train_set, val_set, test_set = data.split(samples, (0.5, 0.25, 0.25),
                                                  seed=2026)
        assert (len(train_set), len(val_set), len(test_set)) == (140, 70, 70)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shared_spec = nets.build_unet3d(shared=True, p=15)
        unshared_spec = nets.build_unet3d(shared=False)
        net = nets.Network.initialize(shared_spec, seed=1)
        ratio = (net.weight_count()
                 / nets.Network.initialize(unshared_spec, seed=1).weight_count())
        assert ratio <= 0.60
        cfg = te.TrainConfig(optimizer="adam", learning_rate=1e-3,
                             batch_size=2, epochs=4, seed=0, eval_every=1)
        net, metrics = te.train(net, train_set, val_set, cfg,
                                reg.RegularizerConfig(dropout_p=0.1))
        _, test_dice = te.evaluate(net, test_set)
        cpu_minutes = (time.process_time() - t_cpu) / 60.0
        wall_minutes = (time.perf_counter() - t_wall) / 60.0
        assert cpu_minutes < 30.0
        assert test_dice >= 0.80
        note(6, f"140/70/70 split; shared weights at {ratio:.3f} of unshared "
                f"(<=0.60); test Dice {test_dice:.3f} (>=0.80) in "
                f"{cpu_minutes:.1f} CPU-min / {wall_minutes:.1f} wall-min (<30)")


@pytest.mark.slow
class TestCriterion07SingleSampleOverfit:
    def test_dice_095_within_500_steps(self):
        vol = data.synth_nodule_dataset(1, seed=7)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = nets.build_unet3d(shared=True, p=15)
        net = nets.Network.initialize(spec, seed=3)
        cfg = te.TrainConfig(optimizer="adam", learning_rate=1e-3,
                             batch_size=1, epochs=120, seed=0, eval_every=5)
        _, metrics = te.train(net, [vol], [vol], cfg,
                              reg.RegularizerConfig(dropout_p=0.0))
        hits = [r.epoch + 1 for r in metrics.rows
                if r.split == "val" and r.metric >= 0.95]
        assert hits, "never reached Dice 0.95"
        assert hits[0] <= 500
        note(7, f"single-volume overfit hit Dice >= 0.95 after {hits[0]} "
                f"steps (<=500)")


@pytest.mark.slow
class TestCriterion08SubsetProtocol:
    def test_paired_curves_on_toy_task(self, tmp_path):
        args = ["subset", "--output-dir", str(tmp_path),
                "--set", "task=toy",
                "--set", "data.count=900",
                "--set", "data.split=[0.6667,0.3333,0.0]",
                "--set", "seed=20",
                "--set", "subset.fractions=[0.1,0.2,0.35]",
                "--set", "train.epochs=16",
                "--set", "train.batch_size=8",
                "--set", "train.record_seconds=false"]
        assert run_cli(args) == 0
        rows = read_csv(tmp_path / "subset.csv")[1:]
        assert len(rows) == 6  # 2 variants x 3 fractions
        for shared in ("false", "true"):
            curve = [(float(r[0]), float(r[3])) for r in rows
                     if r[1] == shared]
            curve.sort()
            metrics = [m for _, m in curve]
            assert len(metrics) == 3
            for a, b in zip(metrics, metrics[1:]):
                assert b >= a - 0.01, f"shared={shared}: {metrics}"
        for fraction in ("0.1", "0.2", "0.35"):
            pair = {r[1]: int(r[2]) for r in rows if r[0] == fraction}
            assert pair["true"] < pair["false"]
        curves = {s: [float(r[3]) for r in rows if r[1] == s]
                  for s in ("false", "true")}
        note(8, f"paired curves non-decreasing within 1 point at fixed seed "
                f"(unshared {curves['false']}, shared {curves['true']}); "
                f"shared weights strictly smaller at every fraction")


class TestCriterion09RegularizerSuite:
    def test_unit_norm_idempotent(self, rng):
        bank = sc.FilterBank(Tensor(rng.normal(size=(6, 3, 3)) * 4.2))
        once = reg.project_unit_norm(bank)
        twice = reg.project_unit_norm(once)
        assert np.abs(once.seeds.array - twice.seeds.array).max() < 1e-12
        assert np.abs(once.norms() - 1.0).max() < 1e-12

    def test_dropout_expectation_3sigma(self):
        p = 0.1
        n = 1_000_000
        out = reg.feature_dropout(Tensor(np.ones(n)), p,
                                  np.random.default_rng(9), training=True)
        sigma_mean = np.sqrt(p / (1.0 - p) / n)
        assert abs(out.array.mean() - 1.0) <= 3.0 * sigma_mean

    def test_nuclear_vs_jacobi_oracle(self, rng):
        for _ in range(10):
            mat = rng.normal(size=(8, 4))
            got = reg.nuclear_penalty(Tensor(mat), 1.0).value.item()
            _, sigma, _ = fz.jacobi_svd(mat)
            assert abs(got - sigma.sum()) < 1e-10

    def test_gauge_reparameterization_invariance(self, rng):
        seeds = rng.normal(size=(5, 3, 3)) * rng.uniform(0.3, 4.0, (5, 1, 1))
        alpha = rng.normal(size=(4, 2, 5))
        bank = sc.FilterBank(Tensor(seeds))
        norms = bank.norms()
        base = sc.expand_filters(Tensor(seeds), Tensor(alpha)).value.array
        moved = sc.expand_filters(
            reg.project_unit_norm(bank).seeds,
            Tensor(alpha * norms[None, None, :])).value.array
        assert np.abs(base - moved).max() < 1e-10

    def test_summary(self):
        note(9, "unit-norm idempotence (1e-12), dropout expectation (3 sigma),"
                " nuclear norm vs Jacobi oracle (1e-10), gauge invariance "
                "(1e-10)")


class TestCriterion10Reproducibility:
    def _twice(self, tmp_path, args_fn):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(args_fn(out)) == 0
            outputs.append(out)
        return outputs

    def test_all_commands_bitwise(self, tmp_path):
        checked = []

        a, b = self._twice(tmp_path / "params",
                           lambda out: ["params", "--output-dir", str(out)])
        assert (a / "params.csv").read_bytes() == (b / "params.csv").read_bytes()
        checked.append("params")

        a, b = self._twice(
            tmp_path / "gradcheck",
            lambda out: ["gradcheck", "--output-dir", str(out),
                         "--set", "gradcheck.coord_budget=40",
                         "--set", "gradcheck.unet_input_extent=8"])
        assert (a / "gradcheck.csv").read_bytes() == \
            (b / "gradcheck.csv").read_bytes()
        checked.append("gradcheck")

        def train_args(out):
            return ["train", "--output-dir", str(out),
                    "--set", "task=synth3d", "--set", "data.count=8",
                    "--set", "arch.levels=2", "--set", "arch.base_channels=2",
                    "--set", "arch.input_extent=8", "--set", "sharing.p=3",
                    "--set", "train.epochs=2", "--set", "train.batch_size=4",
                    "--set", "train.record_seconds=false"]

        a, b = self._twice(tmp_path / "train", train_args)
        assert (a / "metrics.csv").read_bytes() == \
            (b / "metrics.csv").read_bytes()
        checked.append("train")

        def eval_args(out, ck):
            return ["eval", "--output-dir", str(out),
                    "--set", "task=synth3d", "--set", "data.count=8",
                    "--set", "arch.levels=2", "--set", "arch.base_channels=2",
                    "--set", "arch.input_extent=8", "--set", "sharing.p=3",
                    "--set", f"resume={ck}"]

        for tag, src in (("a", a), ("b", b)):
            assert run_cli(eval_args(tmp_path / "eval" / tag,
                                     src / "checkpoints")) == 0
        assert (tmp_path / "eval" / "a" / "eval.csv").read_bytes() == \
            (tmp_path / "eval" / "b" / "eval.csv").read_bytes()
        checked.append("eval")

        def subset_args(out):
            return ["subset", "--output-dir", str(out),
                    "--set", "task=toy", "--set", "data.count=40",
                    "--set", "subset.fractions=[0.5,1.0]",
                    "--set", "train.epochs=1",
                    "--set", "train.record_seconds=false"]

        a, b = self._twice(tmp_path / "subset", subset_args)
        assert (a / "subset.csv").read_bytes() == (b / "subset.csv").read_bytes()
        checked.append("subset")

        def factorize_args(out, ck_u, ck_s):
            return ["factorize", "--output-dir", str(out),
                    "--set", "task=synth3d", "--set", "data.count=8",
                    "--set", "arch.levels=2", "--set", "arch.base_channels=2",
                    "--set", "arch.input_extent=8",
                    "--set", f"factorize.unshared_checkpoint={ck_u}",
                    "--set", f"factorize.shared_checkpoint={ck_s}",
                    "--set", "factorize.p_grid=[1,2]",
                    "--set", "factorize.eval_count=2"]

        ck_u_dir = tmp_path / "train_u"
        assert run_cli(train_args(ck_u_dir)
                       + ["--set", "sharing.enabled=false"]) == 0
        ck_u = ck_u_dir / "checkpoints" / "epoch_0001"
        ck_s = tmp_path / "train" / "a" / "checkpoints" / "epoch_0001"
        for tag in ("a", "b"):
            assert run_cli(factorize_args(tmp_path / "fz" / tag,
                                          ck_u, ck_s)) == 0
        assert (tmp_path / "fz" / "a" / "factorize.csv").read_bytes() == \
            (tmp_path / "fz" / "b" / "factorize.csv").read_bytes()
        checked.append("factorize")

        note(10, f"bitwise-identical CSVs on re-run for: {', '.join(checked)} "
                 f"(train/eval with the timing column disabled; with timing "
                 f"enabled the seconds column is the documented exception)")
