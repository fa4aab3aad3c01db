import numpy as np
import pytest

from oracles import conv1d_backward_per_tap, conv1d_forward_per_tap
from wfaug import evaluate
from wfaug.nn import Conv1D


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
