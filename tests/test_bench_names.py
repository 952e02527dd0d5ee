"""The names that the benchmark (`perfbench/`) wraps or walks still exist.

`perfbench/tracing.py` replaces module attributes with timing wrappers, and
`perfbench/workloads.py` walks a tape's entries to count its bytes. A change
under src/ that deletes or renames one of those names, or stops calling a
kernel through its module, fails here rather than only in a benchmark run.
So does a change to the net spec JSON that drops or renames a key that
`perfbench/checks.py` reads.
"""

import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from filtershare import (autodiff as ad, data, kernels, nets, regularizers,
                         sharedconv, tensor, traineval)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_tape_walk(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    fs = SimpleNamespace(autodiff=ad, data=data, kernels=kernels, nets=nets,
                         regularizers=regularizers, sharedconv=sharedconv,
                         tensor=tensor, traineval=traineval)
    originals = (kernels.conv_stack, ad.backward, traineval.evaluate,
                 traineval.optimizer_step)
    tracer = tracing.Tracer()
    try:
        tracing.Clock(tracer, traineval)
        tracer.install_layers(fs)
        rng = np.random.default_rng(0)
        x = ad.Parameter("x", rng.normal(size=(2, 5, 5)))
        f = ad.Parameter("f", rng.normal(size=(3, 2, 3, 3)))
        b = ad.Parameter("b", rng.normal(size=3))
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.conv_stack(x, f, b, (0, 0))
        assert len(tape.entries) == 1
        assert tracer.calls["kernels.stack_cols"] == 1
        assert tracer.calls["kernels.conv_stack"] == 1
        cols_bytes = tracer.count["kernels.im2col_bytes"]
        assert cols_bytes > 0
        held = out.array.nbytes + x.array.nbytes + f.array.nbytes + b.array.nbytes
        assert workloads.tape_bytes(fs, tape) == held + cols_bytes
    finally:
        tracer.restore()
    assert (kernels.conv_stack, ad.backward, traineval.evaluate,
            traineval.optimizer_step) == originals


def quiet_build(fn, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(**kwargs)


@pytest.mark.parametrize("builder", [nets.build_cifcnn, nets.build_unet3d])
@pytest.mark.parametrize("shared", [False, True])
def test_checks_weight_formula_reads_spec_json(monkeypatch, builder, shared):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    net = nets.Network.initialize(quiet_build(builder, shared=shared), seed=0)
    shared_count, _ = checks.weight_count_formula(net.spec.to_json())
    assert shared_count == net.weight_count()


def test_checks_reference_forward_reads_spec_json(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    net = nets.Network.initialize(
        quiet_build(nets.build_unet3d, levels=2, base_channels=2,
                    input_extent=8, shared=True, p=3), seed=0)
    x = np.random.default_rng(1).normal(size=(1, 8, 8, 8))
    ref = checks.reference_forward(net.spec.to_json(),
                                   checks.param_arrays(net), x)
    np.testing.assert_allclose(net.forward(tensor.Tensor(x)).array, ref,
                               rtol=0, atol=1e-12)
