"""Minimal reverse-mode differentiation on dense numpy buffers, plus Adam.

Each Tensor records its parents and a backward rule; the tape is this
implicit graph. ``backward`` topologically sorts from the scalar loss and
accumulates gradients; a tape is consumed by one backward pass, and running
a second pass on the same loss raises. A backward rule computes the
gradient of a parent only when that parent is on the tape: nothing reads
the gradient of a constant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _on_tape(self) -> bool:
        """Whether a backward pass can reach this tensor."""
        return self.requires_grad or bool(self._parents)

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``; the first gradient is copied (cast and
        broadcast to ``data``), which is the float ``0 + g`` up to the sign
        of a zero."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def param(data, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=False)


def _make(out_data, parents, backward) -> Tensor:
    out = Tensor(out_data, _parents=tuple(parents), _backward=backward)
    if not any(p._on_tape() for p in parents):
        out._parents, out._backward = (), None
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a._on_tape():
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b._on_tape():
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def matmul(a: Tensor, b: Tensor, out: np.ndarray | None = None) -> Tensor:
    """``a @ b``, written into ``out`` when a caller passes that buffer."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch {a.data.shape} @ {b.data.shape}")
    out_data = np.matmul(a.data, b.data, out=out)

    def backward(g):
        if a._on_tape():
            a._accumulate(g @ b.data.T)
        if b._on_tape():
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        a._accumulate(g * (out_data > 0))

    return _make(out_data, (a,), backward)


def add_(a: Tensor, b: Tensor) -> Tensor:
    """``add`` into ``a``'s buffer when neither operand is on a tape and the
    sum keeps ``a``'s shape and dtype; the caller gives that buffer up.
    Elementwise, ``a + b`` is the same float either way."""
    if a._on_tape() or b._on_tape() or np.result_type(a.data, b.data) != a.dtype or (
        np.broadcast_shapes(a.shape, b.shape) != a.shape
    ):
        return add(a, b)
    a.data += b.data
    return a


def relu_(a: Tensor) -> Tensor:
    """``relu`` in ``a``'s buffer when ``a`` is on no tape, so that no
    backward rule reads it; the caller gives that buffer up."""
    if a._on_tape():
        return relu(a)
    np.maximum(a.data, 0, out=a.data)
    return a


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def sum_into_rows(idx: np.ndarray, n_rows: int, dtype) -> sp.csr_matrix:
    """Sparse S of shape (n_rows, len(idx)) with S[idx[k], k] = 1.

    ``S @ v`` adds row k of v into row idx[k] of a zero buffer. Each row of
    the canonical CSR lists its columns in increasing k, and scipy adds a
    row's terms in that order, starting from zero, so every sum is the same
    float, bit for bit, as adding the rows one at a time in index order.
    """
    idx = np.asarray(idx, dtype=np.intp)
    counts = np.bincount(idx, minlength=n_rows)
    if counts.size > n_rows:
        raise ShapeError(f"row index {idx.max()} out of range for {n_rows} rows")
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    cols = np.argsort(idx, kind="stable")
    return sp.csr_matrix((np.ones(idx.size, dtype=dtype), cols, indptr), shape=(n_rows, idx.size))


def gather_rows(a: Tensor, idx: np.ndarray, scatter: Callable[[], sp.csr_matrix] | None = None) -> Tensor:
    """Rows ``idx`` of ``a``. The backward adds the gradient's rows back by
    ``sum_into_rows(idx, len(a), a.dtype)``; a caller that keeps that
    operator passes ``scatter``, which returns it and which only a backward
    calls."""
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        s = sum_into_rows(idx, a.data.shape[0], g.dtype) if scatter is None else scatter()
        a._accumulate(s @ g)

    return _make(a.data[idx], (a,), backward)


def scatter_add_rows(values: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """Rows of ``values`` added into a fresh (n_rows, C) buffer at ``idx``."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = sum_into_rows(idx, n_rows, values.data.dtype) @ values.data

    def backward(g):
        values._accumulate(g[idx])

    return _make(out_data, (values,), backward)


def row_scale(a: Tensor, weights: np.ndarray) -> Tensor:
    """Multiply each row by a constant scalar weight."""
    w = np.asarray(weights, dtype=a.data.dtype).reshape(-1, 1)
    if w.shape[0] != a.data.shape[0]:
        raise ShapeError("one weight per row expected")

    def backward(g):
        a._accumulate(g * w)

    return _make(a.data * w, (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError("concat_cols expects equal row counts")
    na = a.data.shape[1]

    def backward(g):
        if a._on_tape():
            a._accumulate(g[:, :na])
        if b._on_tape():
            b._accumulate(g[:, na:])

    return _make(np.hstack([a.data, b.data]), (a, b), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack tensors of equal width row-wise; one part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    if len({p.data.shape[1:] for p in parts}) != 1:
        raise ShapeError("concat_rows expects equal widths")
    ends = np.cumsum([p.data.shape[0] for p in parts])

    def backward(g):
        for p, e in zip(parts, ends):
            if p._on_tape():
                p._accumulate(g[e - p.data.shape[0] : e])

    return _make(np.concatenate([p.data for p in parts]), parts, backward)


def sparse_mix(a: Tensor, mat: sp.spmatrix, transposed: Callable[[], sp.spmatrix] | None = None) -> Tensor:
    """Multiply by a constant sparse matrix: out = mat @ a, in a's dtype.

    The backward multiplies by ``mat.T``; a caller that keeps that
    transpose passes ``transposed``, which returns it and which only a
    backward calls (see ``EdgePlan.block``).
    """
    csr = mat.tocsr().astype(a.data.dtype, copy=False)

    def backward(g):
        a._accumulate((csr.T if transposed is None else transposed()) @ g)

    return _make(csr @ a.data, (a,), backward)


def segment_mean(a: Tensor, seg_ids: np.ndarray, n_segments: int, scatter: sp.csr_matrix | None = None) -> Tensor:
    """Mean of rows per segment; empty segments produce zero rows. A caller
    that keeps ``sum_into_rows(seg_ids, n_segments, a.dtype)`` passes it as
    ``scatter``."""
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    counts = np.bincount(seg_ids, minlength=n_segments).astype(a.data.dtype)
    safe = np.maximum(counts, 1.0)
    if scatter is None:
        scatter = sum_into_rows(seg_ids, n_segments, a.data.dtype)
    out_data = (scatter @ a.data) / safe[:, None]

    def backward(g):
        a._accumulate((g / safe[:, None])[seg_ids])

    return _make(out_data, (a,), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels under softmax of logits, taken
    as a log-softmax, ``logsumexp(z) - z[label]``, which stays finite in
    float32 where a label's probability underflows."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError("expected (B, C) logits and (B,) integer labels")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    expz = np.exp(z)
    total = expz.sum(axis=1, keepdims=True)
    batch = logits.data.shape[0]
    loss = np.mean(np.log(total[:, 0]) - z[np.arange(batch), labels])

    def backward(g):
        grad = expz / total
        grad[np.arange(batch), labels] -= 1.0
        logits._accumulate(g * grad / batch)

    return _make(np.asarray(loss), (logits,), backward)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every parameter reachable from a scalar loss."""
    if loss.data.ndim != 0:
        raise ContractError("backward expects a scalar loss")
    if loss._consumed:
        raise ContractError("this tape was already differentiated")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._consumed = True


def grads_of(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Run backward and collect gradients, zeros for unreachable parameters."""
    backward(loss)
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState, params: dict[str, Tensor], grads: dict[str, np.ndarray]
) -> dict[str, Tensor]:
    """Standard Adam update with bias correction, in place on the params."""
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p.data = p.data - state.rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# Checkpoints: versioned flat binary of named tensors
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"NGNCKPT"
_CKPT_VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(_CKPT_VERSION.to_bytes(2, "big"))
        fh.write(len(tensors).to_bytes(4, "big"))
        for name, arr in tensors.items():
            arr = np.asarray(arr, order="C")  # keeps 0-d arrays 0-d
            name_b = name.encode("utf-8")
            dtype_b = str(arr.dtype).encode("ascii")
            fh.write(len(name_b).to_bytes(2, "big"))
            fh.write(name_b)
            fh.write(len(dtype_b).to_bytes(1, "big"))
            fh.write(dtype_b)
            fh.write(arr.ndim.to_bytes(1, "big"))
            for d in arr.shape:
                fh.write(int(d).to_bytes(8, "big"))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A short read, trailing bytes or an unreadable header field raises
    ContractError; no tensor is read past the bytes left in the file.
    """
    data = Path(path).read_bytes()
    at = 0

    def take(n: int) -> bytes:
        nonlocal at
        if n > len(data) - at:
            raise ContractError(f"checkpoint truncated at byte {len(data)}: {n} more bytes expected at {at}")
        at += n
        return data[at - n : at]

    def number(width: int) -> int:
        return int.from_bytes(take(width), "big")

    if take(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
        raise ContractError("not a checkpoint file")
    version = number(2)
    if version != _CKPT_VERSION:
        raise ContractError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(number(4)):
        try:
            name = take(number(2)).decode("utf-8")
            dtype = np.dtype(take(number(1)).decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as exc:  # UnicodeDecodeError is a ValueError
            raise ContractError(f"unreadable tensor header before byte {at}: {exc}") from None
        if dtype.hasobject or dtype.subdtype is not None or dtype.itemsize == 0:
            raise ContractError(f"tensor {name!r} has an unsupported dtype {dtype}")
        shape = tuple(number(8) for _ in range(number(1)))
        flat = np.frombuffer(take(dtype.itemsize * math.prod(shape)), dtype=dtype)
        try:
            out[name] = flat.reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape whose dimensions numpy cannot represent
            raise ContractError(f"tensor {name!r} has an unusable shape {shape}: {exc}") from None
    if at != len(data):
        raise ContractError(f"{len(data) - at} trailing bytes after the last tensor")
    return out
