import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (AdamPerTensor, check_grads_per_tensor,
                     conv1d_forward_per_tap, conv1d_input_grad_per_tap,
                     conv1d_weight_grads_per_tap, mask_batch_by_where,
                     rotate_batch_by_index)
import wfaug
from wfaug import augment, evaluate
from wfaug.nn import Conv1D, Model, training
from wfaug.nn import model as model_mod


@pytest.fixture
def eval_predicts(monkeypatch):
    """Trace arrays that evaluation code passes to ``predict``, in call order.

    Only ``wfaug.evaluate``'s binding is recorded, so the per-epoch
    validation inside training does not show up.
    """
    seen = []
    predict = evaluate.predict

    def recording(model, traces):
        seen.append(np.array(traces))
        return predict(model, traces)

    monkeypatch.setattr(evaluate, "predict", recording)
    return seen


@pytest.fixture
def per_tap_conv(monkeypatch):
    """``Conv1D`` running the per-tap reference arithmetic of
    ``oracles.conv1d_forward_per_tap``, ``conv1d_weight_grads_per_tap`` and
    ``conv1d_input_grad_per_tap``: in ``forward`` and in the two parts that
    ``backward`` and a tiled training step call.

    A change meant to keep the bits trains the same model with and without
    this fixture and compares the outputs byte for byte; both sides run on
    the same machine and BLAS.
    """
    def geometry(conv):
        return conv.dilation, conv.stride, conv.pad_l, conv.pad_r

    def forward(self, x, train=False):
        y, padded = conv1d_forward_per_tap(x, self.params["w"],
                                           self.params["b"], *geometry(self))
        if train:
            # the padded input as the one phase its own parts read
            self._cache = [padded]
        return y

    def weight_grad_jobs(self, phases, dy):
        xp, = phases

        def job():
            self.grads["w"], self.grads["b"] = conv1d_weight_grads_per_tap(
                xp, self.params["w"], dy, *geometry(self))
        return [job]

    def input_grads(self, phases, dy):
        xp, = phases
        return conv1d_input_grad_per_tap(xp, self.params["w"], dy,
                                         *geometry(self))

    monkeypatch.setattr(Conv1D, "forward", forward)
    monkeypatch.setattr(Conv1D, "weight_grad_jobs", weight_grad_jobs)
    monkeypatch.setattr(Conv1D, "input_grads", input_grads)


@pytest.fixture
def per_tensor_step(monkeypatch):
    """Training without the parameter vector: the per-tensor optimizer
    ``oracles.AdamPerTensor``, the per-tensor finite check
    ``oracles.check_grads_per_tensor`` in place of the gather and check at
    the end of ``Model.backward`` (serial or tiled), and the
    index-arithmetic rotation and masking of
    ``oracles.rotate_batch_by_index``/``mask_batch_by_where``.

    Used like ``per_tap_conv``: the same training with and without it must
    give the same bytes. Returns the list of steps the per-tensor optimizer
    took, one entry per step, so a test can show the reference ran.
    """
    steps = []

    class RecordingAdam(AdamPerTensor):
        def step(self):
            steps.append(self.t)
            super().step()

    monkeypatch.setattr(training, "Adam", RecordingAdam)
    monkeypatch.setattr(Model, "_gather_grads", check_grads_per_tensor)
    monkeypatch.setattr(augment, "rotate_batch", rotate_batch_by_index)
    monkeypatch.setattr(augment, "mask_batch", mask_batch_by_where)
    return steps


PRINT_BLAS_KERNEL = """
import ctypes, glob, os, numpy
lib = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                    "numpy.libs", "libscipy_openblas*.so")))[0]
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())
"""


@pytest.fixture
def nehalem_env():
    """Environment for a subprocess whose numpy runs OpenBLAS's Nehalem
    kernels (SSE4.2 only, so any x86-64 machine has them) with this
    checkout's ``wfaug`` importable; the library is asked which kernel it
    runs. Skips off x86-64 and where numpy's BLAS is not scipy-openblas.
    """
    if platform.machine() != "x86_64":
        pytest.skip("OpenBLAS's Nehalem kernels are x86-64 kernels")
    if model_mod._blas_thread_setter() is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=str(Path(wfaug.__file__).parents[1]))
    kernel = subprocess.run([sys.executable, "-c", PRINT_BLAS_KERNEL],
                            check=True, capture_output=True, text=True,
                            env=env).stdout
    assert kernel.strip() == "Nehalem"
    return env
