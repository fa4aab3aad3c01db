import numpy as np
import pytest

from wfaug import evaluate


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
