"""Command-line entry point: gradcheck, params, train, eval, subset, factorize.

Every command is driven by one JSON config (defaults <- file <- --set
overrides), validates it before any work, writes CSV artifacts plus the
resolved config into the output directory, and is bitwise-reproducible for a
fixed config and seed. Exit codes: 0 success, 1 check failure, 2 usage,
config or input-format error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config as cfgmod
from . import data, factorize, nets, traineval
from . import sharedconv as sc
from .errors import ConfigError, FilterShareError, FormatError
from .regularizers import RegularizerConfig
from .tensor import Tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DATA_ROOT_ENV = "FILTERSHARE_DATA_ROOT"


def _out_dir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reg_config(cfg) -> RegularizerConfig:
    return RegularizerConfig(**cfg["regularizers"])


def _train_config(cfg) -> traineval.TrainConfig:
    return traineval.TrainConfig(seed=cfg["seed"], **cfg["train"])


def _build_net_spec(cfg) -> nets.NetSpec:
    shared = cfg["sharing"]["enabled"]
    p = cfg["sharing"]["p"]
    if cfg["task"] in ("cifar", "toy"):
        return nets.build_cifcnn(shared=shared, p=p)
    arch = cfg["arch"]
    return nets.build_unet3d(levels=arch["levels"],
                             base_channels=arch["base_channels"],
                             shared=shared, p=p,
                             input_extent=arch["input_extent"])


def _load_task_data(cfg):
    """Returns (train, val, test) for the configured task."""
    task = cfg["task"]
    seed = cfg["seed"]
    if task == "synth3d":
        samples = data.synth_nodule_dataset(cfg["data"]["count"], seed=seed)
        return data.split(samples, tuple(cfg["data"]["split"]), seed=seed)
    if task == "toy":
        samples = data.toy_image_dataset(cfg["data"]["count"], seed=seed,
                                         num_classes=cfg["data"]["toy_classes"])
        return data.split(samples, tuple(cfg["data"]["split"]), seed=seed)
    root = cfg["data"]["root"] or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise ConfigError(
            f"task 'cifar' needs data.root or ${DATA_ROOT_ENV} pointing at the "
            f"binary batch files"
        )
    train_set, test_set = data.load_cifar10(root)
    return train_set, test_set, test_set


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _scramble_params(net: nets.Network, seed: int) -> None:
    """Move every parameter to a generic random point.

    Fresh initialization leaves biases at exactly zero, which parks relu and
    pooling kinks exactly at the evaluation point and poisons central
    differences; derivative checks belong at a generic point instead.
    """
    rng = np.random.default_rng(seed)
    for key in sorted(net.params):
        p = net.params[key]
        jitter = rng.normal(0.0, 0.1, size=p.value.shape)
        p.assign(Tensor(p.value.array + jitter))


def _gradcheck_cases(cfg):
    """Shared conv layers for D in {1,2,3}, the CIF-CNN, and a 2-level,
    2-base-channel U-Net on gradcheck.unet_input_extent^3 inputs."""
    extent = cfg["gradcheck"]["unet_input_extent"]
    cases = []
    for d, kernel in ((1, (5,)), (2, (3, 3)), (3, (3, 3, 3))):
        spec = sc.ConvLayerSpec(2, 3, kernel, sharing_p=2)
        rng = np.random.default_rng(100 + d)
        seeds = ad.Parameter(f"layer_d{d}.seeds", rng.normal(size=(2,) + kernel))
        alpha = ad.Parameter(f"layer_d{d}.alpha", rng.normal(size=(3, 2, 2)))
        bias = ad.Parameter(f"layer_d{d}.bias", rng.normal(size=3))
        x = Tensor(rng.normal(size=(2,) + (8,) * d))

        def program(spec=spec, seeds=seeds, alpha=alpha, bias=bias, x=x):
            return ad.sum_all(sc.shared_layer_forward(spec, seeds, alpha, bias, x))

        cases.append((f"shared_layer_{d}d", program, [seeds, alpha, bias]))

    cif = nets.Network.initialize(nets.build_cifcnn(shared=True, p=15), seed=5)
    _scramble_params(cif, seed=50)
    cif_x = Tensor(np.random.default_rng(200).random((3, 32, 32)))

    def cif_program():
        return traineval.softmax_cross_entropy(cif.forward_var(cif_x), 3)

    cases.append(("cifcnn", cif_program, cif.parameters()))

    unet = nets.Network.initialize(
        nets.build_unet3d(levels=2, base_channels=2, shared=True, p=15,
                          input_extent=extent),
        seed=6)
    _scramble_params(unet, seed=60)
    rng = np.random.default_rng(300)
    unet_x = Tensor(rng.normal(size=(1,) + (extent,) * 3))
    unet_t = Tensor((rng.random((extent,) * 3) > 0.7).astype(float))

    def unet_program():
        return traineval.soft_dice_loss(unet.forward_var(unet_x), unet_t)

    cases.append(("unet3d", unet_program, unet.parameters()))
    return cases


def cmd_gradcheck(cfg) -> int:
    gc = cfg["gradcheck"]
    out = _out_dir(cfg)
    ad.set_fault_injection(gc["fault_injection"])
    try:
        rows = []
        all_ok = True
        for name, program, params in _gradcheck_cases(cfg):
            report = ad.grad_check(program, params,
                                   coord_budget=gc["coord_budget"],
                                   seed=cfg["seed"])
            all_ok &= report.passed
            worst = report.worst_by_param()
            checked = {}
            for r in report.rows:
                checked[r.param_id] = checked.get(r.param_id, 0) + 1
            for pid in sorted(worst):
                rows.append([name, pid, checked[pid], f"{worst[pid]:.6e}",
                             "pass" if worst[pid] < report.tolerance else "FAIL"])
    finally:
        ad.set_fault_injection(False)
    with open(out / "gradcheck.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "param_id", "coords_checked", "max_rel_err",
                    "status"])
        w.writerows(rows)
    cfgmod.write_resolved(cfg, out)
    print(f"gradcheck: {'pass' if all_ok else 'FAIL'} "
          f"({len(rows)} parameter tensors, report {out / 'gradcheck.csv'})")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# params sweep
# ---------------------------------------------------------------------------

def _unet_conv_specs(extent: int, arch, p: int):
    """Conv specs of the u-net with every 3^D kernel swapped for extent^D."""
    spec = nets.build_unet3d(levels=arch["levels"],
                             base_channels=arch["base_channels"], shared=False)
    out = []
    for layer in spec.layers:
        if isinstance(layer, nets.ConvBlock):
            cs = layer.conv
            kernel = (tuple([extent] * len(cs.kernel_extents))
                      if cs.filter_size > 1 else cs.kernel_extents)
            out.append(sc.ConvLayerSpec(cs.in_channels, cs.out_channels, kernel,
                                        sharing_p=p))
    return out


def cmd_params(cfg) -> int:
    sweep = cfg["params_sweep"]
    out = _out_dir(cfg)
    rows = []
    for extent in sweep["kernel_extents"]:
        if sweep["net"] == "layer":
            kernel = (extent,) * sweep["spatial_dims"]
            unshared = sc.param_count(
                sc.ConvLayerSpec(sweep["n"], sweep["m"], kernel)).weights
            shared_spec = sc.ConvLayerSpec(sweep["n"], sweep["m"], kernel,
                                           sharing_p=sweep["p"])
            shared = sc.param_count(shared_spec).weights
            over = sweep["p"] > sc.sharing_breakeven(shared_spec)
        else:
            specs = _unet_conv_specs(extent, cfg["arch"], sweep["p"])
            unshared = sum(
                sc.param_count(sc.ConvLayerSpec(s.in_channels, s.out_channels,
                                                s.kernel_extents)).weights
                for s in specs)
            shared = sum(sc.param_count(s).weights for s in specs)
            over = any(s.sharing_p > sc.sharing_breakeven(s) for s in specs)
        rows.append([extent, unshared, shared, f"{shared / unshared:.17g}",
                     str(bool(over)).lower()])
    with open(out / "params.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kernel_extent", "unshared", "shared", "ratio",
                    "over_breakeven"])
        w.writerows(rows)
    cfgmod.write_resolved(cfg, out)
    print(f"params: {len(rows)} rows -> {out / 'params.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def cmd_train(cfg) -> int:
    out = _out_dir(cfg)
    train_set, val_set, _ = _load_task_data(cfg)
    tc = _train_config(cfg)
    reg = _reg_config(cfg)
    start_epoch = 0
    optimizer = None
    metrics = traineval.Metrics()
    metrics_path = out / "metrics.csv"
    if cfg["resume"]:
        latest = traineval.latest_checkpoint(cfg["resume"])
        if latest is None:
            raise ConfigError(f"resume: no checkpoints under {cfg['resume']}")
        net, optimizer, last_epoch = traineval.load_checkpoint(latest)
        _check_resume_matches(cfg, latest / "manifest.json", net, optimizer)
        start_epoch = last_epoch + 1
        if metrics_path.exists():
            metrics = traineval.Metrics.read_csv(metrics_path, last_epoch)
    else:
        net = nets.Network.initialize(_build_net_spec(cfg), seed=cfg["seed"])
    try:
        traineval.train(net, train_set, val_set, tc, reg,
                        checkpoint_dir=out / "checkpoints",
                        start_epoch=start_epoch, optimizer=optimizer,
                        metrics=metrics)
    finally:
        # an abort keeps the rows of the epochs whose checkpoints are on disk
        metrics.write_csv(metrics_path)
    cfgmod.write_resolved(cfg, out)
    final = metrics.final("val") or metrics.final("train")
    print(f"train: {cfg['task']} epochs {start_epoch}..{tc.epochs - 1}, "
          f"final {final.split} metric {final.metric:.4f} -> {metrics_path}")
    return EXIT_OK


def _check_resume_matches(cfg, manifest_path, net, optimizer=None) -> None:
    """A resumed run trains the checkpoint's net and optimizer, and `eval`
    evaluates its net, so the config must describe the same ones. `eval`
    passes no optimizer, and only the nets are compared."""
    ours = {"net": net.spec.to_json()}
    configured = {"net": _build_net_spec(cfg).to_json()}
    if optimizer is not None:
        ours["train"] = {"optimizer": optimizer.kind,
                         "learning_rate": optimizer.learning_rate}
        configured["train"] = {k: cfg["train"][k]
                               for k in ("optimizer", "learning_rate")}
    diff = cfgmod.first_difference(ours, configured)
    if diff is not None:
        raise ConfigError(f"resume: {manifest_path} differs from the config "
                          f"at {diff}")


def cmd_eval(cfg) -> int:
    out = _out_dir(cfg)
    if not cfg["resume"]:
        raise ConfigError("eval needs resume pointing at a checkpoint directory")
    latest = traineval.latest_checkpoint(cfg["resume"])
    if latest is None:
        raise ConfigError(f"eval: no checkpoints under {cfg['resume']}")
    net, _, epoch = traineval.load_checkpoint(latest)
    _check_resume_matches(cfg, latest / "manifest.json", net)
    _, _, test_set = _load_task_data(cfg)
    loss, metric = traineval.evaluate(net, test_set)
    metrics = traineval.Metrics()
    metrics.append(traineval.MetricsRow(epoch, "test", loss, metric, 0.0))
    metrics.write_csv(out / "eval.csv")
    cfgmod.write_resolved(cfg, out)
    print(f"eval: epoch {epoch} loss {loss:.6f} metric {metric:.4f} "
          f"-> {out / 'eval.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subset experiment
# ---------------------------------------------------------------------------

def cmd_subset(cfg) -> int:
    if cfg["task"] == "synth3d":
        raise ConfigError("the subset experiment is a classification protocol; "
                          "use task 'toy' or 'cifar'")
    out = _out_dir(cfg)
    train_pool, val_set, _ = _load_task_data(cfg)
    tc = _train_config(cfg)
    reg = _reg_config(cfg)
    rows = []
    for fraction in cfg["subset"]["fractions"]:
        picked = data.subset(train_pool, fraction, cfg["seed"])
        for shared in (False, True):
            spec = nets.build_cifcnn(shared=shared, p=cfg["sharing"]["p"])
            net = nets.Network.initialize(spec, seed=cfg["seed"])
            net, _ = traineval.train(net, picked, None, tc, reg)
            _, metric = traineval.evaluate(net, val_set)
            rows.append([f"{fraction:.12g}", str(shared).lower(),
                         net.weight_count(), f"{metric:.12g}"])
    with open(out / "subset.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fraction", "shared", "weights", "val_metric"])
        w.writerows(rows)
    cfgmod.write_resolved(cfg, out)
    print(f"subset: {len(rows)} rows -> {out / 'subset.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

def cmd_factorize(cfg) -> int:
    out = _out_dir(cfg)
    fz = cfg["factorize"]
    if not fz["unshared_checkpoint"] or not fz["shared_checkpoint"]:
        raise ConfigError("factorize needs factorize.unshared_checkpoint and "
                          "factorize.shared_checkpoint")
    for key in ("unshared_checkpoint", "shared_checkpoint"):
        if not Path(fz[key]).exists():
            raise ConfigError(f"{key} {fz[key]} does not exist")
    unshared_net, _, _ = traineval.load_checkpoint(fz["unshared_checkpoint"])
    shared_net, _, _ = traineval.load_checkpoint(fz["shared_checkpoint"])
    _, _, test_set = _load_task_data(cfg)
    eval_set = (data.SubsetView(test_set, np.arange(min(fz["eval_count"],
                                                        len(test_set))))
                if len(test_set) > fz["eval_count"] else test_set)
    rows = factorize.compare_posthoc_vs_direct(unshared_net, shared_net,
                                               eval_set, fz["p_grid"] or None)
    factorize.write_report(rows, out / "factorize.csv")
    cfgmod.write_resolved(cfg, out)
    print(f"factorize: {len(rows)} rows -> {out / 'factorize.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "params": cmd_params,
    "train": cmd_train,
    "eval": cmd_eval,
    "subset": cmd_subset,
    "factorize": cmd_factorize,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtershare",
        description="filter-sharing convolution experiments (CSV-emitting)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults apply otherwise)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides",
                       help="override a config key, e.g. --set train.epochs=3 "
                            "(repeatable; flags win over the file)")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        cfg = cfgmod.resolve(args.config, overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _COMMANDS[args.command](cfg)
    except (ConfigError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FilterShareError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
