import numpy as np
import pytest

from oracles import (AdamPerTensor, SgdMomentumPerTensor, backward_per_layer,
                     conv1d_backward_per_tap, conv1d_forward_per_tap,
                     mask_batch_by_where, rotate_batch_by_index)
from wfaug import augment, evaluate
from wfaug.nn import Conv1D, Model, optim


@pytest.fixture
def eval_predicts(monkeypatch):
    """Trace arrays that evaluation code passes to ``predict``, in call order.

    Only ``wfaug.evaluate``'s binding is recorded, so the per-epoch
    validation inside training does not show up.
    """
    seen = []
    predict = evaluate.predict

    def recording(model, traces, batch_size=256):
        seen.append(np.array(traces))
        return predict(model, traces, batch_size)

    monkeypatch.setattr(evaluate, "predict", recording)
    return seen


@pytest.fixture
def per_tap_conv(monkeypatch):
    """``Conv1D`` running the per-tap reference arithmetic of
    ``oracles.conv1d_forward_per_tap``/``conv1d_backward_per_tap``.

    A change meant to keep the bits trains the same model with and without
    this fixture and compares the outputs byte for byte; both sides run on
    the same machine and BLAS.
    """
    def forward(self, x, train=False):
        y, xp = conv1d_forward_per_tap(x, self.params["w"], self.params["b"],
                                       self.dilation, self.stride,
                                       self.pad_l, self.pad_r)
        if train:
            self._cache = xp
        return y

    def backward(self, dy):
        xp, self._cache = self._cache, None
        dw, db, dx = conv1d_backward_per_tap(xp, self.params["w"], dy,
                                             self.dilation, self.stride,
                                             self.pad_l, self.pad_r)
        self.grads["w"], self.grads["b"] = dw, db
        return dx

    monkeypatch.setattr(Conv1D, "forward", forward)
    monkeypatch.setattr(Conv1D, "backward", backward)


@pytest.fixture
def per_tensor_step(monkeypatch):
    """Training without the parameter vector: the per-tensor optimizers
    ``oracles.AdamPerTensor``/``SgdMomentumPerTensor``, ``Model.backward``
    as ``oracles.backward_per_layer`` and the index-arithmetic rotation and
    masking of ``oracles.rotate_batch_by_index``/``mask_batch_by_where``.

    Used like ``per_tap_conv``: the same training with and without it must
    give the same bytes.
    """
    monkeypatch.setattr(optim, "Adam", AdamPerTensor)
    monkeypatch.setattr(optim, "SgdMomentum", SgdMomentumPerTensor)
    monkeypatch.setattr(Model, "backward", backward_per_layer)
    monkeypatch.setattr(augment, "rotate_batch", rotate_batch_by_index)
    monkeypatch.setattr(augment, "mask_batch", mask_batch_by_where)
