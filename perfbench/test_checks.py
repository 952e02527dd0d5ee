"""Tests of the benchmark's own checks and tracing, on small networks.

    python3 -m pytest -q perfbench/test_checks.py

The point of the gradient check is that it can fail: with
``autodiff.set_fault_injection(True)`` (a deliberately wrong relu backward
rule) the directional finite-difference check must reject the gradient.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracing import Tracer

fs = run._import_program()


def small_unet(shared=True):
    spec = fs.nets.build_unet3d(levels=2, base_channels=2, shared=shared, p=2,
                                input_extent=8)
    return fs.nets.Network.initialize(spec, seed=5)


def volume(seed=0):
    rng = np.random.default_rng(seed)
    x = fs.tensor.Tensor(rng.normal(size=(1, 8, 8, 8)))
    y = fs.tensor.Tensor((rng.random((8, 8, 8)) < 0.3).astype(float))
    return x, y


def toy_image():
    item = fs.data.toy_image_dataset(1, seed=3)[0]
    return item.image, item.label


REG = fs.regularizers.RegularizerConfig(l1_alpha=1e-3, nuclear_alpha=1e-3)


@pytest.mark.parametrize("shared", [True, False])
def test_reference_forward_matches_network(shared):
    net = small_unet(shared)
    x, y = volume()
    ref = checks.reference_forward(net.spec.to_json(),
                                   checks.param_arrays(net), x.array)
    np.testing.assert_allclose(net.forward(x).array, ref, rtol=0, atol=1e-12)
    reported = fs.traineval.evaluate(net, [(x, y)])
    checks.check_against_reference(net, [(x, y)], reported, "unet")


def test_reference_forward_cifcnn_and_scores():
    net = fs.nets.Network.initialize(fs.nets.build_cifcnn(shared=True, p=4),
                                     seed=2)
    items = [(it.image, it.label)
             for it in fs.data.toy_image_dataset(6, seed=1)]
    reported = fs.traineval.evaluate(net, items)
    checks.check_against_reference(net, items, reported, "cifcnn")
    with pytest.raises(checks.CheckFailed):
        checks.check_against_reference(
            net, items, (reported[0] + 1e-6, reported[1]), "cifcnn")


@pytest.mark.parametrize("make", ["unet", "cifcnn"])
def test_directional_fd_passes_and_fails_under_fault_injection(make):
    if make == "unet":
        net, (x, y) = small_unet(), volume()
    else:
        net = fs.nets.Network.initialize(
            fs.nets.build_cifcnn(shared=True, p=4), seed=2)
        x, y = toy_image()
    assert checks.check_directional_fd(fs, net, x, y, REG, 7, make) < 1e-6
    fs.autodiff.set_fault_injection(True)
    try:
        _, _, rel = checks.directional_fd(fs, net, x, y, REG, 7)
        with pytest.raises(checks.CheckFailed):
            checks.check_directional_fd(fs, net, x, y, REG, 7, make)
    finally:
        fs.autodiff.set_fault_injection(False)
    assert rel > 100 * checks.FD_RTOL


def test_weight_count_formula():
    shared, unshared = small_unet(True), small_unet(False)
    checks.check_weight_count(shared, "shared")
    checks.check_weight_count(unshared, "unshared")
    formula = checks.weight_count_formula(shared.spec.to_json())
    assert formula[0] == shared.weight_count() < formula[1]
    assert formula[1] == unshared.weight_count()


def test_span_self_time_excludes_children():
    tr = Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tr.wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        inner_t()

    t0 = time.perf_counter()
    tr.wrap(outer, "outer")()
    total = time.perf_counter() - t0
    assert tr.calls == {"inner": 1, "outer": 1}
    assert tr.self_s["inner"] >= 0.02 and tr.self_s["outer"] >= 0.01
    assert tr.self_s["inner"] + tr.self_s["outer"] <= total


def test_layer_spans_restore_and_count_im2col():
    tr = Tracer()
    original = fs.kernels.stack_cols
    tr.install_layers(fs)
    try:
        net = small_unet()
        x, y = volume()
        tape = fs.autodiff.Tape()
        with fs.autodiff.recording(tape):
            out = net.forward_var(x, training=True, dropout_p=0.0)
        built = tr.count["kernels.im2col_bytes"]
        assert tr.calls["kernels.stack_cols"] == 7  # one per conv layer
        assert tr.calls["nets.forward_train"] == 1
        assert workloads.tape_bytes(fs, tape) >= built
        assert out.array.shape == (8, 8, 8)
    finally:
        tr.restore()
    assert fs.kernels.stack_cols is original


BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_short_run_prints_every_declared_metric(trace, section):
    argv = SPEC["command"] + ["--workload", "cifcnn_subset", "--seed", "3",
                              "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=BENCH_DIR.parent, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    argv = [sys.executable] + SPEC["command"][1:] + [
        "--workload", "unet3d_train", "--seed", "1", "--seconds", "1",
        "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
