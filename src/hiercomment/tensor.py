"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray; every op records its parents and a closure
that pushes the output gradient back into them.  backward() walks the
recorded graph in reverse topological order, accumulating gradients with
+=, then frees the graph.  Gradients are exact vector-Jacobian products;
grad_check verifies any scalar-valued builder against central finite
differences.

A GRU recurrence over a whole sequence is a single node with a
hand-written backward pass through time: each layer and direction of a
sequence model builds one tape node, not one or more per timestep, which
keeps desk-scale training fast without leaving numpy.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True

CHECKPOINT_MAGIC = b"HCMCKPT1"
CHECKPOINT_SCHEMA_VERSION = 1


@contextmanager
def no_grad():
    """Disable tape recording inside the context (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)

    def backward(self) -> None:
        """Backpropagate from a scalar output; frees the graph afterward."""
        if self.data.size != 1:
            raise ShapeError("backward: output must be scalar, got shape %r"
                             % (self.shape,))
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)
        for node in topo:
            if node._vjp is not None:
                node._parents = ()
                node._vjp = None
                if node is not self:
                    node.grad = None


def const(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else const(x)


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t._vjp is not None):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _make(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """a @ b for a left operand (..., D) and a right operand (D,) or (D, K)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim == 0 or not 1 <= b.data.ndim <= 2:
        raise ShapeError("matmul: need (..., D) x (D,) or (D, K), got %r x %r"
                         % (a.data.shape, b.data.shape))
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError("matmul: incompatible shapes %r x %r"
                         % (a.data.shape, b.data.shape))

    def vjp(g):
        rows = a.data.reshape(-1, b.data.shape[0])
        if b.data.ndim == 2:
            _accum(a, g @ b.data.T)
            _accum(b, rows.T @ g.reshape(-1, b.data.shape[1]))
        else:
            _accum(a, g[..., None] * b.data)
            _accum(b, rows.T @ g.reshape(-1))
    return _make(data, (a, b), vjp)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g):
        _accum(x, g * out_data * (1.0 - out_data))
    return _make(out_data, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np.tanh(x.data)

    def vjp(g):
        _accum(x, g * (1.0 - out_data * out_data))
    return _make(out_data, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0

    def vjp(g):
        _accum(x, g * mask)
    return _make(x.data * mask, (x,), vjp)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        _accum(x, g / x.data)
    return _make(np.log(x.data), (x,), vjp)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > floor

    def vjp(g):
        _accum(x, g * mask)
    return _make(np.maximum(x.data, floor), (x,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(x, out_data * (g - dot))
    return _make(out_data, (x,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])
    return _make(data, tensors, vjp)


def stack_rows(vectors) -> Tensor:
    """Stack 1-D tensors of equal length into a (T, D) matrix."""
    vectors = [_as_tensor(v) for v in vectors]
    if not vectors:
        raise ShapeError("stack_rows: need at least one vector")
    data = np.stack([v.data for v in vectors], axis=0)

    def vjp(g):
        for i, v in enumerate(vectors):
            _accum(v, g[i])
    return _make(data, vectors, vjp)


def transpose(x: Tensor) -> Tensor:
    """Transpose of a 2-D tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose: expected 2-D tensor, got %r" % (x.shape,))

    def vjp(g):
        _accum(x, g.T)
    return _make(x.data.T, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        _accum(x, g.reshape(x.data.shape))
    return _make(data, (x,), vjp)


def row(x: Tensor, i: int) -> Tensor:
    x = _as_tensor(x)
    data = x.data[i].copy()

    def vjp(g):
        full = np.zeros_like(x.data)
        full[i] = g
        _accum(x, full)
    return _make(data, (x,), vjp)


def vec_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop] of a 1-D tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError("vec_slice: expected 1-D tensor, got %r" % (x.shape,))
    if not 0 <= start <= stop <= x.data.shape[0]:
        raise ShapeError("vec_slice: bad range [%d:%d] for length %d"
                         % (start, stop, x.data.shape[0]))
    data = x.data[start:stop].copy()

    def vjp(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accum(x, full)
    return _make(data, (x,), vjp)


def gather_scalar(vec: Tensor, idx: int) -> Tensor:
    """Pick one element of a 1-D tensor as a 0-d scalar."""
    vec = _as_tensor(vec)
    if vec.data.ndim != 1:
        raise ShapeError("gather_scalar: expected 1-D tensor, got %r" % (vec.shape,))
    data = np.asarray(vec.data[idx])

    def vjp(g):
        full = np.zeros_like(vec.data)
        full[idx] = g
        _accum(vec, full)
    return _make(data, (vec,), vjp)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """table[ids] for an int id array of any shape (repeats allowed)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    data = table.data[ids]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accum(table, full)
    return _make(data, (table,), vjp)


def scatter_sum(values: Tensor, index, size: int) -> Tensor:
    """out[..., j] = sum of values[..., i] over positions i with index[i] == j."""
    values = _as_tensor(values)
    index = np.asarray(index, dtype=np.int64)
    data = np.zeros(values.data.shape[:-1] + (size,), dtype=np.float64)
    np.add.at(data, (..., index), values.data)

    def vjp(g):
        _accum(values, g[..., index])
    return _make(data, (values,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: identity when train is False or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1), got %r" % p)
    x = _as_tensor(x)
    if not train or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def vjp(g):
        _accum(x, g * mask)
    return _make(x.data * mask, (x,), vjp)


def tsum(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())
    return _make(data, (x,), vjp)


def gru_step(gi: Tensor, h0: Tensor, wh: Tensor, bh: Tensor,
             reverse: bool = False) -> Tensor:
    """GRU recurrence over the leading time axis of a precomputed input
    projection.

    gi is x @ wi + bi of shape (T, ..., 3H), laid out as [z | r | n]
    blocks of the hidden size, and h0 the (..., H) initial state.  Each
    step reads gi[t] and the state before it, h:
    z = sigm(gi_z + gh_z), r = sigm(gi_r + gh_r),
    n = tanh(gi_n + r * gh_n) with gh = h @ wh + bh, and
    h_next = z * h + (1 - z) * n, so zero weights halve the state.
    Returns the (T, ..., H) states, index t holding the state after
    reading step t; `reverse` runs from t = T-1 down to 0.

    One tape node; the backward pass walks the steps in reverse.
    """
    gi, h0, wh, bh = map(_as_tensor, (gi, h0, wh, bh))
    hsize = h0.data.shape[-1]
    if gi.data.shape[1:] != h0.data.shape[:-1] + (3 * hsize,) or not len(gi.data):
        raise ShapeError("gru_step: gi has %r, expected (T >= 1,) + %r"
                         % (gi.data.shape, h0.data.shape[:-1] + (3 * hsize,)))
    h1, h2 = hsize, 2 * hsize
    steps = range(len(gi.data) - 1, -1, -1) if reverse else range(len(gi.data))
    out_data = np.empty(gi.data.shape[:-1] + (hsize,))
    cache = []                    # per step taken: (h, z, r, n, gh_n)
    h = h0.data
    for t in steps:
        gh = h @ wh.data + bh.data
        git = gi.data[t]
        z = 1.0 / (1.0 + np.exp(-(git[..., :h1] + gh[..., :h1])))
        r = 1.0 / (1.0 + np.exp(-(git[..., h1:h2] + gh[..., h1:h2])))
        n = np.tanh(git[..., h2:] + r * gh[..., h2:])
        cache.append((h, z, r, n, gh[..., h2:]))
        h = out_data[t] = z * h + (1.0 - z) * n

    def vjp(g):
        dgi = np.empty_like(gi.data)
        dgh_steps = []
        dh = np.zeros_like(h0.data)
        for t, (prev, z, r, n, ghn) in zip(reversed(steps), reversed(cache)):
            gt = g[t] + dh
            dz = gt * (prev - n)
            dn = gt * (1.0 - z)
            dan = dn * (1.0 - n * n)
            dr = dan * ghn
            daz = dz * z * (1.0 - z)
            dar = dr * r * (1.0 - r)
            dgh = np.concatenate([daz, dar, dan * r], axis=-1)
            dgi[t] = np.concatenate([daz, dar, dan], axis=-1)
            dh = dgh @ wh.data.T + gt * z
            dgh_steps.append(dgh)
        prev_rows = np.stack([c[0] for c in reversed(cache)]).reshape(-1, hsize)
        dgh_rows = np.stack(dgh_steps).reshape(-1, 3 * hsize)
        _accum(gi, dgi)
        _accum(h0, dh)
        _accum(wh, prev_rows.T @ dgh_rows)
        _accum(bh, dgh_rows.sum(axis=0))
    return _make(out_data, (gi, h0, wh, bh), vjp)


def gru_run(x_seq: Tensor, h0: Tensor, weights: dict, reverse: bool = False) -> Tensor:
    """A GRU over the leading time axis of x_seq (T, ..., D) from state h0
    (..., H); weights maps 'wi','bi','wh','bh' to Tensors.  Returns the
    (T, ..., H) states, index t holding the state after reading step t."""
    gi = add(matmul(x_seq, weights["wi"]), weights["bi"])
    return gru_step(gi, h0, weights["wh"], weights["bh"], reverse)


def bigru_encode(x_seq: Tensor, layer_weights: list, dropout_p: float = 0.0,
                 rng: np.random.Generator | None = None, train: bool = False):
    """Multi-layer bidirectional GRU over a (T, D) input.

    layer_weights is a list of {'f': weights, 'b': weights} dicts.
    Returns (per_step_states (T, 2H), final_states) where final_states
    is one (2H,) tensor per layer, forward final then backward final.
    """
    if x_seq.data.ndim != 2 or x_seq.data.shape[0] == 0:
        raise ShapeError("bigru_encode: need a nonempty (T, D) input, got %r"
                         % (x_seq.shape,))
    cur = x_seq
    finals = []
    for li, lw in enumerate(layer_weights):
        if li > 0 and train and dropout_p > 0.0:
            cur = dropout(cur, dropout_p, rng, train)
        h0 = const(np.zeros(lw["f"]["wh"].data.shape[0]))
        fwd = gru_run(cur, h0, lw["f"])
        bwd = gru_run(cur, h0, lw["b"], reverse=True)
        cur = concat([fwd, bwd], axis=1)
        finals.append(concat([row(fwd, -1), row(bwd, 0)]))
    return cur, finals


class AdamState:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: dict) -> None:
        self.t += 1
        for name in params:
            p = params[name]
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise RuntimeError("diverged: non-finite gradient in %r" % name)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self, params: dict) -> None:
        for p in params.values():
            p.grad = None


def write_container(path: str, magic: bytes, schema_version: int, header: dict,
                    arrays) -> None:
    """The one binary file layout: 8-byte magic, `<Q` header length, the
    header as sorted JSON (schema_version added), then each array's raw
    `<f8` values in order. The file is written beside `path` under a
    temporary name and then renamed over it, so a failed write leaves
    any earlier file at `path` as it was."""
    blob = json.dumps(dict(header, schema_version=schema_version),
                      sort_keys=True).encode("utf-8")
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_container(path: str, magic: bytes, schema_version: int, what: str,
                   shapes_of, parse):
    """`parse(header, arrays)` of a file from write_container.

    `shapes_of(header)` gives the shapes of the stored arrays in order.
    A wrong magic or schema version, a short preamble, a cut or non-JSON
    header, a cut payload, trailing bytes and a header key that
    `shapes_of` or `parse` finds missing or mistyped each raise
    ValueError naming `what`.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        got = fh.read(8)
        if got != magic:
            raise ValueError("not a %s file (bad magic %r)" % (what, got))
        if size < 16:
            raise ValueError("truncated %s header" % what)
        (hlen,) = struct.unpack("<Q", fh.read(8))
        if hlen > size - 16:
            raise ValueError("truncated %s header" % what)
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise ValueError("%s header is not a JSON object" % what)
        if header.get("schema_version") != schema_version:
            raise ValueError("unsupported %s schema_version %r"
                             % (what, header.get("schema_version")))
        try:
            shapes = [tuple(int(d) for d in shape) for shape in shapes_of(header)]
        except (KeyError, TypeError, ValueError):
            shapes = None
        if shapes is None or any(d < 0 for shape in shapes for d in shape):
            raise ValueError("malformed %s header" % what)
        counts = [math.prod(shape) for shape in shapes]
        payload = size - 16 - hlen
        if 8 * sum(counts) > payload:
            raise ValueError("truncated %s payload" % what)
        if 8 * sum(counts) < payload:
            raise ValueError("trailing bytes after the %s payload" % what)
        arrays = [np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape).copy()
                  for shape, n in zip(shapes, counts)]
    try:
        return parse(header, arrays)
    except (KeyError, TypeError, AttributeError):
        raise ValueError("malformed %s header" % what) from None


def save_checkpoint(path: str, arrays: dict, meta: dict) -> None:
    """Write named f64 arrays and a JSON-able meta dict."""
    header = {"dtype": "<f8", "meta": meta,
              "tensors": [{"name": n, "shape": list(np.shape(a))}
                          for n, a in arrays.items()]}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, header,
                    arrays.values())


def load_checkpoint(path: str, parse_meta=dict):
    """Read a checkpoint; returns (arrays dict, parse_meta(meta dict))."""
    return read_container(
        path, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, "checkpoint",
        lambda h: [spec["shape"] for spec in h["tensors"]],
        lambda h, arrays: (dict(zip([spec["name"] for spec in h["tensors"]], arrays)),
                           parse_meta(h["meta"])))


def grad_check(build_loss, params: dict, eps: float = 1e-5,
               max_coords: int | None = None, seed: int = 0) -> float:
    """Max relative error between backward() and central differences.

    build_loss() must rebuild the graph and return a scalar Tensor,
    deterministically.  When max_coords is set, that many coordinates
    per tensor are sampled (seeded) instead of sweeping all of them.
    """
    loss = build_loss()
    loss.backward()
    analytic = {k: (np.array(p.grad) if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    for p in params.values():
        p.grad = None

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        coords = (range(n) if max_coords is None or n <= max_coords
                  else sorted(rng.choice(n, size=max_coords, replace=False)))
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            up = float(build_loss().data)
            flat[c] = keep - eps
            down = float(build_loss().data)
            flat[c] = keep
            numeric = (up - down) / (2 * eps)
            a = analytic[name].reshape(-1)[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if err > worst:
                worst = err
    return worst
