import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from filtershare import cli, config as cfgmod
from filtershare.errors import ConfigError
from filtershare.tensor import Tensor, dump_tensor, load_tensor


def run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SMALL_GRADCHECK = [
    "--set", "gradcheck.coord_budget=60",
    "--set", "gradcheck.unet_input_extent=8",
]


class TestConfig:
    def test_defaults_validate(self):
        cfg = cfgmod.resolve()
        assert cfg["task"] == "synth3d"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"taskk": "toy"}))
        with pytest.raises(ConfigError, match="taskk"):
            cfgmod.resolve(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"epochz": 3}}))
        with pytest.raises(ConfigError):
            cfgmod.resolve(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5, "train": {"epochs": 9}}))
        cfg = cfgmod.resolve(path, ["train.epochs=2", "seed=7"])
        assert cfg["seed"] == 7
        assert cfg["train"]["epochs"] == 2

    def test_bad_override_value_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.resolve(None, ["train.epochs=-3"])

    def test_resolved_copy_round_trips(self, tmp_path):
        cfg = cfgmod.resolve(None, ["seed=3"])
        path = cfgmod.write_resolved(cfg, tmp_path)
        again = cfgmod.resolve(path)
        assert again == cfg


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_config_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert run(["params", "--config", str(bad)]) == cli.EXIT_USAGE

    def test_gradcheck_ok_is_exit_0(self, tmp_path):
        code = run(["gradcheck", "--output-dir", str(tmp_path)]
                   + SMALL_GRADCHECK)
        assert code == cli.EXIT_OK

    def test_gradcheck_fault_injection_is_exit_1(self, tmp_path):
        code = run(["gradcheck", "--output-dir", str(tmp_path),
                    "--set", "gradcheck.fault_injection=true"]
                   + SMALL_GRADCHECK)
        assert code == cli.EXIT_CHECK_FAILED

    def test_missing_checkpoint_is_exit_2(self, tmp_path):
        code = run(["factorize", "--output-dir", str(tmp_path),
                    "--set", "factorize.unshared_checkpoint=/nope",
                    "--set", "factorize.shared_checkpoint=/nope2"])
        assert code == cli.EXIT_USAGE


class TestGradcheckCommand:
    def test_report_one_row_per_parameter_tensor(self, tmp_path):
        assert run(["gradcheck", "--output-dir", str(tmp_path)]
                   + SMALL_GRADCHECK) == 0
        rows = read_csv(tmp_path / "gradcheck.csv")
        assert rows[0] == ["case", "param_id", "coords_checked", "max_rel_err",
                           "status"]
        body = rows[1:]
        # 3 single layers x 3 tensors + every net parameter tensor
        assert len(body) > 9
        assert len({(r[0], r[1]) for r in body}) == len(body)
        assert all(r[4] == "pass" for r in body)

    def test_writes_resolved_config(self, tmp_path):
        run(["gradcheck", "--output-dir", str(tmp_path)] + SMALL_GRADCHECK)
        assert (tmp_path / "config.resolved.json").exists()


class TestParamsCommand:
    def test_single_layer_anchor_row(self, tmp_path):
        assert run(["params", "--output-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "params.csv")
        assert rows[0] == ["kernel_extent", "unshared", "shared", "ratio",
                           "over_breakeven"]
        anchor = [r for r in rows if r[0] == "3"][0]
        assert anchor[1] == "55296"
        assert anchor[2] == "31125"

    def test_ratio_strictly_decreasing_for_unet(self, tmp_path):
        assert run(["params", "--output-dir", str(tmp_path),
                    "--set", "params_sweep.net=unet3d"]) == 0
        rows = read_csv(tmp_path / "params.csv")[1:]
        ratios = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_over_breakeven_flagged(self, tmp_path):
        assert run(["params", "--output-dir", str(tmp_path),
                    "--set", "params_sweep.m=1",
                    "--set", "params_sweep.n=1",
                    "--set", "params_sweep.p=15",
                    "--set", "params_sweep.spatial_dims=1",
                    "--set", "params_sweep.kernel_extents=[3]"]) == 0
        rows = read_csv(tmp_path / "params.csv")[1:]
        assert rows[0][4] == "true"
        assert float(rows[0][3]) > 1.0


def train_args(out, epochs=1, count=8, extent=8):
    return ["train", "--output-dir", str(out),
            "--set", "task=synth3d",
            "--set", f"data.count={count}",
            "--set", "arch.levels=2",
            "--set", "arch.base_channels=2",
            "--set", f"arch.input_extent={extent}",
            "--set", "sharing.p=3",
            "--set", f"train.epochs={epochs}",
            "--set", "train.batch_size=4",
            "--set", "train.record_seconds=false"]


def eval_args(out):
    """eval of train_args' latest checkpoint under out, into out/eval_out."""
    return ["eval", "--output-dir", str(out / "eval_out"),
            "--set", "task=synth3d",
            "--set", "data.count=8",
            "--set", "arch.levels=2",
            "--set", "arch.base_channels=2",
            "--set", "arch.input_extent=8",
            "--set", f"resume={out / 'checkpoints'}"]


def _edit_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


def _truncate(ckpt):
    path = ckpt / "layer0.seeds.bin"
    path.write_bytes(path.read_bytes()[:-8])
    return path


def _wrong_shape(ckpt):
    """P=2 seeds in a P=3 layer."""
    path = ckpt / "layer1.seeds.bin"
    dump_tensor(Tensor(load_tensor(path).array[:2]), path)
    return path


def _missing_file(ckpt):
    path = ckpt / "layer0.bias.bin"
    path.unlink()
    return path


def _bad_json(ckpt):
    path = ckpt / "manifest.json"
    path.write_text(path.read_text()[:-20])
    return path


def _missing_key(ckpt):
    return _edit_manifest(ckpt, lambda m: m.pop("net"))


def _wrong_format(ckpt):
    return _edit_manifest(ckpt, lambda m: m.update(format=2))


def _unknown_layer_key(ckpt):
    return _edit_manifest(ckpt, lambda m: m["net"]["layers"][0].update(
        stride=2))


def _missing_layer_key(ckpt):
    return _edit_manifest(ckpt, lambda m: m["net"]["layers"][1].pop("padding"))


def _unknown_kind(ckpt):
    return _edit_manifest(ckpt, lambda m: m["net"]["layers"][2].update(
        kind="avg_pool"))


def _adam_m_without_v(ckpt):
    path = ckpt / "layer0.seeds.adam_v.bin"
    path.unlink()
    return path


CORRUPTIONS = {
    "truncated": _truncate, "wrong_shape": _wrong_shape,
    "missing_file": _missing_file, "bad_json": _bad_json,
    "missing_key": _missing_key, "wrong_format": _wrong_format,
    "adam_m_without_v": _adam_m_without_v,
    "unknown_layer_key": _unknown_layer_key,
    "missing_layer_key": _missing_layer_key, "unknown_kind": _unknown_kind,
}


class TestTrainEvalCommands:
    def test_train_writes_metrics_checkpoints_config(self, tmp_path):
        assert run(train_args(tmp_path, epochs=2)) == 0
        rows = read_csv(tmp_path / "metrics.csv")
        assert rows[0] == ["epoch", "split", "loss", "metric", "seconds"]
        splits = {r[1] for r in rows[1:]}
        assert splits == {"train", "val"}
        assert (tmp_path / "checkpoints" / "epoch_0001").exists()
        assert (tmp_path / "config.resolved.json").exists()

    def test_resume_continues_epoch_numbering(self, tmp_path):
        assert run(train_args(tmp_path, epochs=1)) == 0
        assert run(train_args(tmp_path, epochs=3)
                   + ["--set", f"resume={tmp_path / 'checkpoints'}"]) == 0
        rows = read_csv(tmp_path / "metrics.csv")[1:]
        train_epochs = [int(r[0]) for r in rows if r[1] == "train"]
        assert train_epochs == [0, 1, 2]

    def test_resume_with_malformed_metrics_is_exit_2(self, tmp_path, capsys):
        assert run(train_args(tmp_path, epochs=1)) == 0
        metrics = tmp_path / "metrics.csv"
        with open(metrics, "a") as fh:
            fh.write("0,train,abc,1,0\n")
        capsys.readouterr()
        assert run(train_args(tmp_path, epochs=2)
                   + ["--set", f"resume={tmp_path / 'checkpoints'}"]
                   ) == cli.EXIT_USAGE
        assert f"{metrics}: line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("row,why", [
        ("0,train,nan,inf,0", "non-finite"),
        ("7,val,1,1,0", "epoch 7 is past the checkpoint's epoch 0"),
    ], ids=["non_finite", "future_epoch"])
    def test_resume_rejects_metrics_the_checkpoint_cannot_have(
            self, tmp_path, capsys, row, why):
        assert run(train_args(tmp_path, epochs=1)) == 0
        metrics = tmp_path / "metrics.csv"
        with open(metrics, "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert run(train_args(tmp_path, epochs=2)
                   + ["--set", f"resume={tmp_path / 'checkpoints'}"]
                   ) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{metrics}: line 4" in err and why in err

    @pytest.mark.parametrize("override,where", [
        ("sharing.enabled=false", "net.layers.0.sharing_p"),
        ("arch.base_channels=3", "net.layers.0.out_channels"),
        ("train.optimizer=sgd", "train.optimizer"),
        ("train.learning_rate=0.01", "train.learning_rate"),
    ], ids=["sharing", "arch", "optimizer", "learning_rate"])
    def test_resume_with_other_net_or_optimizer_is_exit_2(
            self, tmp_path, capsys, override, where):
        assert run(train_args(tmp_path, epochs=1)) == 0
        capsys.readouterr()
        assert run(train_args(tmp_path, epochs=2)
                   + ["--set", f"resume={tmp_path / 'checkpoints'}",
                      "--set", override]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        manifest = tmp_path / "checkpoints" / "epoch_0000" / "manifest.json"
        assert str(manifest) in err and where in err
        assert not (tmp_path / "checkpoints" / "epoch_0001").exists()

    def test_subset_fraction_is_not_a_train_key(self, tmp_path, capsys):
        args = train_args(tmp_path, epochs=1) + [
            "--set", "train.subset_fraction=0.5"]
        assert run(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "train" in err and "subset_fraction" in err

    def test_eval_command(self, tmp_path):
        assert run(train_args(tmp_path, epochs=1)) == 0
        assert run(eval_args(tmp_path)) == 0
        rows = read_csv(tmp_path / "eval_out" / "eval.csv")
        assert rows[1][1] == "test"

    def test_eval_rejects_nan_in_checkpoint(self, tmp_path, capsys):
        assert run(train_args(tmp_path, epochs=1)) == 0
        bad = tmp_path / "checkpoints" / "epoch_0000" / "layer0.seeds.bin"
        raw = bytearray(bad.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(eval_args(tmp_path)) == cli.EXIT_USAGE
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_eval_rejects_bad_checkpoint(self, tmp_path, capsys, corrupt):
        assert run(train_args(tmp_path, epochs=1)) == 0
        bad = CORRUPTIONS[corrupt](tmp_path / "checkpoints" / "epoch_0000")
        capsys.readouterr()
        assert run(eval_args(tmp_path)) == cli.EXIT_USAGE
        assert str(bad) in capsys.readouterr().err

    def test_eval_non_finite_loss_is_exit_1(self, tmp_path, capsys):
        assert run(train_args(tmp_path, epochs=1)) == 0
        ckpt = tmp_path / "checkpoints" / "epoch_0000"
        for key in ("layer0.seeds", "layer1.seeds"):
            path = ckpt / f"{key}.bin"
            dump_tensor(Tensor(load_tensor(path).array * 1e300), path)
        capsys.readouterr()
        assert run(eval_args(tmp_path)) == cli.EXIT_CHECK_FAILED
        assert "evaluation loss is nan" in capsys.readouterr().err
        assert not (tmp_path / "eval_out" / "eval.csv").exists()

    def test_cifar_task_without_root_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.DATA_ROOT_ENV, raising=False)
        args = ["train", "--output-dir", str(tmp_path), "--set", "task=cifar"]
        assert run(args) == cli.EXIT_USAGE


class TestSubsetCommand:
    def test_row_count_and_param_ordering(self, tmp_path):
        args = ["subset", "--output-dir", str(tmp_path),
                "--set", "task=toy",
                "--set", "data.count=60",
                "--set", "subset.fractions=[0.5,1.0]",
                "--set", "train.epochs=1",
                "--set", "train.record_seconds=false"]
        assert run(args) == 0
        rows = read_csv(tmp_path / "subset.csv")
        assert rows[0] == ["fraction", "shared", "weights", "val_metric"]
        body = rows[1:]
        assert len(body) == 4  # 2 fractions x 2 variants
        for fraction in ("0.5", "1"):
            pair = {r[1]: int(r[2]) for r in body if r[0] == fraction}
            assert pair["true"] < pair["false"]

    def test_synth3d_task_rejected(self, tmp_path):
        assert run(["subset", "--output-dir", str(tmp_path),
                    "--set", "task=synth3d"]) == cli.EXIT_USAGE


class TestFactorizeCommand:
    def test_end_to_end_row_count(self, tmp_path):
        a = tmp_path / "unshared"
        b = tmp_path / "shared"
        assert run(train_args(a, epochs=1)
                   + ["--set", "sharing.enabled=false"]) == 0
        assert run(train_args(b, epochs=1)) == 0
        out = tmp_path / "cmp"
        args = ["factorize", "--output-dir", str(out),
                "--set", "task=synth3d",
                "--set", "data.count=8",
                "--set", "arch.levels=2",
                "--set", "arch.base_channels=2",
                "--set", "arch.input_extent=8",
                "--set", f"factorize.unshared_checkpoint={a / 'checkpoints' / 'epoch_0000'}",
                "--set", f"factorize.shared_checkpoint={b / 'checkpoints' / 'epoch_0000'}",
                "--set", "factorize.p_grid=[1,2]",
                "--set", "factorize.eval_count=2"]
        assert run(args) == 0
        rows = read_csv(out / "factorize.csv")
        assert rows[0] == ["layer", "P", "rmse", "retained_energy",
                           "posthoc_metric", "direct_metric"]
        n_layers = 7  # levels=2 u-net: 2+2+2 convs + head
        assert len(rows) - 1 == n_layers * 2


class TestReproducibility:
    def test_params_bitwise(self, tmp_path):
        run(["params", "--output-dir", str(tmp_path / "a")])
        run(["params", "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "params.csv").read_bytes() == \
            (tmp_path / "b" / "params.csv").read_bytes()

    def test_train_bitwise_without_timing(self, tmp_path):
        run(train_args(tmp_path / "a", epochs=2))
        run(train_args(tmp_path / "b", epochs=2))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_train_timing_column_excluded_equality(self, tmp_path):
        base = train_args(tmp_path / "a", epochs=1)
        base = [x.replace("train.record_seconds=false",
                          "train.record_seconds=true") for x in base]
        other = train_args(tmp_path / "b", epochs=1)
        other = [x.replace("train.record_seconds=false",
                           "train.record_seconds=true") for x in other]
        run(base)
        run(other)
        a = read_csv(tmp_path / "a" / "metrics.csv")
        b = read_csv(tmp_path / "b" / "metrics.csv")
        assert [r[:4] for r in a] == [r[:4] for r in b]
