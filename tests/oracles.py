"""Independent brute-force oracles used by the test suite.

These deliberately avoid the index-arithmetic code paths of the package:
rotation and masking are realized as explicit matrix products over small
traces, so kernel implementations can be checked exactly. The per-tap
convolution is the one ``Conv1D`` used before its fast path (``np.pad``, one
matmul per tap, ``tensordot`` weight gradients): the layer must write the
same bytes. So must the per-tensor Adam and finite check that came
before the parameter vector, and the index-arithmetic rotation
and masking that came before the window views, and the one-expression
mixing that came before the in-place steps.
"""

from __future__ import annotations

import numpy as np


def rotation_matrix(n: int, n_step: int, direction: str) -> np.ndarray:
    """Circulant matrix whose single product with x performs the rotation.

    Row k of the forward circle matrix is x rotated forward by k, i.e.
    B[k] @ x == roll(x, k); selecting row n_step via a one-hot vector yields
    the rotated trace.
    """
    basis = np.eye(n)
    # forward by k reads source index (i - k) % n, so the row-i one sits at
    # column (i - k); rolling the identity columns by -k puts it there
    sign = -1 if direction == "forward" else 1
    rows = [np.roll(basis, sign * k, axis=1) for k in range(n)]
    one_hot = np.zeros(n)
    one_hot[n_step % n] = 1.0
    # stack of per-step rotation operators, selected by the one-hot step
    return np.tensordot(one_hot, np.stack(rows), axes=1)


def rotate_by_matrix(x: np.ndarray, n_step: int, direction: str) -> np.ndarray:
    return rotation_matrix(len(x), n_step, direction) @ np.asarray(x, dtype=np.float64)


def rotate_batch_by_index(x, shifts):
    """Row b of (B, L) ``x`` shifted circularly by shifts[b], through a
    (B, L) array of source columns ``(i - shift) % L``."""
    pos = np.arange(x.shape[1])[None, :]
    cols = (pos - np.asarray(shifts)[:, None]) % x.shape[1]
    return x[np.arange(len(x))[:, None], cols]


def mask_batch_by_where(x, starts, length):
    """Positions [starts[b], starts[b] + length) of row b zeroed through
    ``np.where`` over a (B, L) window test."""
    pos = np.arange(x.shape[1])[None, :]
    starts = np.asarray(starts)[:, None]
    return np.where((pos >= starts) & (pos < starts + length), 0, x)


def mix_batch_by_expression(x, y, partners, lams):
    """``augment.mix_batch`` as one expression per array, before its in-place
    steps: ``x + t * (x[partners] - x)`` with t = 1 - lams, in float64."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = (1.0 - np.asarray(lams, dtype=np.float64))[:, None]
    return x + t * (x[partners] - x), y + t * (y[partners] - y)


def masking_matrix(n: int, start: int, length: int) -> np.ndarray:
    """diag(1 - sum of identity rows over the masked window [start, start+length))."""
    eye = np.eye(n)
    window = np.zeros(n)
    for i in range(start, start + length):
        window = window + eye[i]
    return np.diag(np.ones(n) - window)


def mask_by_matrix(x: np.ndarray, start: int, length: int) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ masking_matrix(len(x), start, length)


def nearest_template_labels(traces: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Brute-force nearest-neighbor classification against class templates."""
    x = traces.astype(np.float64)
    t = templates.astype(np.float64)
    d2 = ((x[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def conv1d_forward_loops(x, w, b, dilation=1, stride=1, pad_l=0, pad_r=0):
    """Nested-loop 1D convolution: y[n,o,p] = b[o] + sum w[o,i,t] * xp[n,i,ps+td]."""
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (pad_l, pad_r)))
    batch, in_ch = x.shape[:2]
    out_ch, _, kernel = w.shape
    span = (kernel - 1) * dilation + 1
    l_out = (xp.shape[2] - span) // stride + 1
    y = np.zeros((batch, out_ch, l_out))
    for n in range(batch):
        for o in range(out_ch):
            for p in range(l_out):
                acc = b[o]
                for i in range(in_ch):
                    for t in range(kernel):
                        acc += w[o, i, t] * xp[n, i, p * stride + t * dilation]
                y[n, o, p] = acc
    return y


def conv1d_backward_loops(x, w, dy, dilation=1, stride=1, pad_l=0, pad_r=0):
    """Nested-loop convolution gradients; returns (dw, db, dx)."""
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (pad_l, pad_r)))
    batch, in_ch = x.shape[:2]
    out_ch, _, kernel = w.shape
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for n in range(batch):
        for o in range(out_ch):
            for p in range(dy.shape[2]):
                for i in range(in_ch):
                    for t in range(kernel):
                        src = p * stride + t * dilation
                        dw[o, i, t] += dy[n, o, p] * xp[n, i, src]
                        dxp[n, i, src] += dy[n, o, p] * w[o, i, t]
    dx = dxp[:, :, pad_l: xp.shape[2] - pad_r if pad_r else None]
    return dw, dy.sum(axis=(0, 2)), dx


def _tap(t, dilation, stride, l_out):
    start = t * dilation
    return slice(start, start + stride * (l_out - 1) + 1, stride)


def conv1d_forward_per_tap(x, w, b, dilation=1, stride=1, pad_l=0, pad_r=0):
    """Per-tap convolution as ``Conv1D`` computed it before its fast path:
    ``np.pad``, then ``y = zeros; y += w[:, :, t] @ tap`` for every tap t,
    in the dtype of the input and weights. Returns (y, xp), the output and
    the padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_r)))
    out_ch, _, kernel = w.shape
    l_out = (xp.shape[2] - (kernel - 1) * dilation - 1) // stride + 1
    y = np.zeros((x.shape[0], out_ch, l_out), np.result_type(xp, w))
    for t in range(kernel):
        y += np.matmul(w[:, :, t], xp[:, :, _tap(t, dilation, stride, l_out)])
    y += b[None, :, None]
    return y, xp


def conv1d_backward_per_tap(xp, w, dy, dilation=1, stride=1, pad_l=0,
                            pad_r=0):
    """Per-tap gradients of ``conv1d_forward_per_tap`` from its padded input:
    ``conv1d_weight_grads_per_tap`` and ``conv1d_input_grad_per_tap``.
    Returns (dw, db, dx)."""
    args = (dilation, stride, pad_l, pad_r)
    return (*conv1d_weight_grads_per_tap(xp, w, dy, *args),
            conv1d_input_grad_per_tap(xp, w, dy, *args))


def conv1d_weight_grads_per_tap(xp, w, dy, dilation=1, stride=1, pad_l=0,
                                pad_r=0):
    """``tensordot`` over batch and length for each weight tap, and the bias
    gradient summed over batch and length. Returns (dw, db)."""
    l_out = dy.shape[2]
    dw = np.empty_like(w)
    for t in range(w.shape[2]):
        tap = _tap(t, dilation, stride, l_out)
        dw[:, :, t] = np.tensordot(dy, xp[:, :, tap], axes=([0, 2], [0, 2]))
    return dw, dy.sum(axis=(0, 2))


def conv1d_input_grad_per_tap(xp, w, dy, dilation=1, stride=1, pad_l=0,
                              pad_r=0):
    """A ``w.T @ dy`` matmul per tap added into a zeroed padded input
    gradient, with the padding cut off."""
    l_out = dy.shape[2]
    dxp = np.zeros_like(xp)
    for t in range(w.shape[2]):
        dxp[:, :, _tap(t, dilation, stride, l_out)] += np.matmul(w[:, :, t].T,
                                                                 dy)
    return dxp[:, :, pad_l: xp.shape[2] - pad_r]


def check_grads_per_tensor(model):
    """The finite check of ``Model.backward`` without the gradient vector:
    each layer's gradients in backward order, tensor by tensor."""
    for layer in reversed(model.layers):
        for key, g in layer.grads.items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    f"non-finite gradient in {layer.name}.{key}")


class AdamPerTensor:
    """Adam keeping one moment pair per parameter tensor and updating the
    tensors one at a time from the layers' own gradients."""

    def __init__(self, model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model = model
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in model.param_items()}
        self.v = {name: np.zeros_like(p) for name, p in model.param_items()}

    def step(self):
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, p, g in self.model.param_grad_items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def maxpool2_forward_argmax(x):
    """Width-2 max pooling through argmax over explicit pairs; returns the
    pooled array and the per-pair winner index (0 = left, 1 = right)."""
    b, c, length = x.shape
    pairs = x[:, :, :2 * (length // 2)].reshape(b, c, length // 2, 2)
    idx = pairs.argmax(axis=3)
    return np.take_along_axis(pairs, idx[..., None], axis=3)[..., 0], idx


def maxpool2_backward_argmax(dy, idx, length):
    """Route each output gradient to its pair's argmax slot; zeros elsewhere."""
    b, c, half = dy.shape
    pairs = np.zeros((b, c, half, 2))
    np.put_along_axis(pairs, idx[..., None], dy[..., None], axis=3)
    dx = np.zeros((b, c, length))
    dx[:, :, :2 * half] = pairs.reshape(b, c, 2 * half)
    return dx


def load_dataset_per_token(path, trace_len: int):
    """Trace-file reader that checks and converts one token at a time.

    The reference for ``wfaug.traces.load_dataset``, with the same messages.
    """
    from wfaug.traces import BACKGROUND, MAX_LABEL, Dataset, TraceFormatError

    if trace_len < 1:
        raise ValueError("trace_len must be >= 1")
    traces, labels = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                raise TraceFormatError(f"{path}:{lineno}: blank line")
            head, sep, rest = line.partition("\t")
            if not sep:
                raise TraceFormatError(f"{path}:{lineno}: missing tab separator")
            try:
                label = int(head)
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{lineno}: label {head!r} is not an integer") from None
            if str(label) != head:
                raise TraceFormatError(
                    f"{path}:{lineno}: label {head!r} must be written as {label}")
            if not BACKGROUND <= label <= MAX_LABEL:
                raise TraceFormatError(f"{path}:{lineno}: label {label} out of range")
            vals = []
            for tok in rest.split(" "):
                if tok not in ("1", "-1"):
                    raise TraceFormatError(
                        f"{path}:{lineno}: direction {tok!r} must be 1 or -1")
                vals.append(int(tok))
            row = np.zeros(trace_len, dtype=np.int8)
            row[:min(len(vals), trace_len)] = vals[:trace_len]
            traces.append(row)
            labels.append(label)
    if not traces:
        raise TraceFormatError(f"{path}: empty dataset file")
    labels = np.array(labels, dtype=np.int64)
    monitored = labels[labels != BACKGROUND]
    num_classes = int(monitored.max()) + 1 if len(monitored) else 0
    return Dataset(np.stack(traces), labels, num_classes)


def render_runs_loop(run_lengths, trace_len: int) -> np.ndarray:
    """Alternating +1/-1 runs, one Python step per run, cut at ``trace_len``."""
    out = np.zeros(trace_len, dtype=np.int8)
    pos, sign = 0, 1
    for run in run_lengths:
        if pos >= trace_len:
            break
        end = min(pos + run, trace_len)
        out[pos:end] = sign
        pos = end
        sign = -sign
    return out


def synth_templates(num_classes: int, trace_len: int, seed: int) -> np.ndarray:
    """Rendered (num_classes, trace_len) template traces, one Python step
    per run; the targets of nearest-template classification."""
    from wfaug.traces import synth_template_runs

    return np.stack([render_runs_loop(runs, trace_len) for runs in
                     synth_template_runs(num_classes, trace_len, seed)])


def synth_dataset_per_boundary(num_classes: int, samples_per_class: int,
                               trace_len: int, noise_rate: float, seed: int):
    """Synthesizer that draws one jitter per ``rng.integers`` call and renders
    runs in a Python loop.

    The reference for ``wfaug.traces.synth_dataset``, without its argument
    checks: same templates, streams and bytes.
    """
    from wfaug.seeding import derive_rng
    from wfaug.traces import Dataset, synth_template_runs

    template_runs = synth_template_runs(num_classes, trace_len, seed)
    traces = np.empty((num_classes * samples_per_class, trace_len), dtype=np.int8)
    labels = np.empty(num_classes * samples_per_class, dtype=np.int64)
    row = 0
    for cid in range(num_classes):
        runs = template_runs[cid]
        bounds = np.concatenate([[0], np.cumsum(runs)])
        for k in range(samples_per_class):
            if noise_rate == 0.0:
                trace = render_runs_loop(runs, trace_len)
            else:
                rng = derive_rng(seed, "sample", cid, k)
                jittered = bounds.copy()
                for b in range(1, len(bounds)):
                    d = max(1, int(round(0.1 * runs[b - 1])))
                    jittered[b] = min(bounds[b] + int(rng.integers(-d, d + 1)),
                                      trace_len)
                jittered = np.maximum.accumulate(jittered)
                trace = render_runs_loop(np.diff(jittered).tolist(), trace_len)
                flip = rng.random(trace_len) < noise_rate
                trace = np.where(flip, -trace, trace).astype(np.int8)
            traces[row] = trace
            labels[row] = cid
            row += 1
    return Dataset(traces, labels, num_classes)


def save_dataset_per_token(dataset, path) -> None:
    """Trace-file writer that spells one token at a time, checking each row
    as it goes. The reference for the bytes ``wfaug.traces.save_dataset``
    writes."""
    tokens = {1: "1", -1: "-1"}
    with open(path, "w", encoding="utf-8") as fh:
        for trace, label in zip(dataset.traces, dataset.labels):
            nz = np.nonzero(trace)[0]
            if len(nz) == 0:
                raise ValueError("cannot save an all-padding trace")
            body = trace[: nz[-1] + 1]
            if np.any(body == 0):
                raise ValueError("cannot save a trace with interior zeros")
            fh.write(f"{label}\t{' '.join([tokens[v] for v in body.tolist()])}\n")
