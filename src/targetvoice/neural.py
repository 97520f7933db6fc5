"""Minimal tensor runtime: dense, causal conv1d, GRU, Adam.

Everything is plain numpy with hand-written reverse-mode gradients, enough
to train desk-scale models and run real-time inference without a
framework. Layers operate on [batch, time, channels] (or [time, channels])
arrays; training runs in float64, streaming inference in float32.

Each layer caches its last forward pass; backward() consumes that cache,
accumulates parameter gradients in-place, and returns the input gradient.
"""

from __future__ import annotations

import numpy as np

GRAD_CLIP_NORM = 5.0


class ShapeError(ValueError):
    """Raised when tensor shapes do not match a layer's parameters."""


def xavier_uniform(rng: np.random.Generator, n_in: int, n_out: int,
                   shape, dtype=np.float64) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return z
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(y: np.ndarray, kind: str) -> np.ndarray:
    """d activation / d pre-activation, expressed through the output y."""
    if kind == "linear":
        return np.ones_like(y)
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "sigmoid":
        return y * (1.0 - y)
    raise ValueError(f"unknown activation {kind!r}")


class Layer:
    """Common parameter bookkeeping for all layer kinds."""

    name = "layer"

    def params(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def grads(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g.fill(0.0)

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params().values())


class Dense(Layer):
    """y_t = activation(x_t @ W + b), applied independently per time step."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, activation: str = "linear",
                 rng: np.random.Generator | None = None, name: str = "dense"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_in, self.n_out, self.activation = n_in, n_out, activation
        self.name = name
        self.W = xavier_uniform(rng, n_in, n_out, (n_in, n_out))
        self.b = np.zeros(n_out)
        # np.zeros, not zeros_like: gradient pages stay untouched until training
        self.dW = np.zeros(self.W.shape)
        self.db = np.zeros(self.b.shape)
        self._cache = None

    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def grads(self):
        return {f"{self.name}.W": self.dW, f"{self.name}.b": self.db}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"{self.name}: got {x.shape[-1]} channels, "
                             f"expected {self.n_in}")
        y = _activate(x @ self.W + self.b, self.activation)
        self._cache = (x, y)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, y = self._cache
        dz = dy * _activation_grad(y, self.activation)
        flat_x = x.reshape(-1, self.n_in)
        flat_dz = dz.reshape(-1, self.n_out)
        self.dW += flat_x.T @ flat_dz
        self.db += flat_dz.sum(axis=0)
        return dz @ self.W.T


class CausalConv1d(Layer):
    """1-D convolution along time with past-only padding.

    y[t] = activation(sum_k x[t - k] @ W[k] + b); output at time t never
    sees inputs after t, and the output keeps the input's time length.
    """

    kind = "conv1d"

    def __init__(self, n_in: int, n_out: int, kernel: int,
                 activation: str = "tanh",
                 rng: np.random.Generator | None = None, name: str = "conv"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_in, self.n_out, self.kernel = n_in, n_out, kernel
        self.activation = activation
        self.name = name
        self.W = xavier_uniform(rng, kernel * n_in, n_out, (kernel, n_in, n_out))
        self.b = np.zeros(n_out)
        self.dW = np.zeros(self.W.shape)
        self.db = np.zeros(self.b.shape)
        self._cache = None

    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def grads(self):
        return {f"{self.name}.W": self.dW, f"{self.name}.b": self.db}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"{self.name}: got {x.shape[-1]} channels, "
                             f"expected {self.n_in}")
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        z = np.tensordot(x, self.W[0], axes=([2], [0])) + self.b
        for k in range(1, self.kernel):
            z[:, k:, :] += np.tensordot(x[:, :-k, :], self.W[k], axes=([2], [0]))
        y = _activate(z, self.activation)
        self._cache = (x, y, squeeze)
        return y[0] if squeeze else y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, y, squeeze = self._cache
        if squeeze:
            dy = dy[None]
        dz = dy * _activation_grad(y, self.activation)
        dx = np.tensordot(dz, self.W[0], axes=([2], [1]))
        self.dW[0] += np.tensordot(x, dz, axes=([0, 1], [0, 1]))
        for k in range(1, self.kernel):
            dx[:, :-k, :] += np.tensordot(dz[:, k:, :], self.W[k], axes=([2], [1]))
            self.dW[k] += np.tensordot(x[:, :-k, :], dz[:, k:, :],
                                       axes=([0, 1], [0, 1]))
        self.db += dz.sum(axis=(0, 1))
        return dx[0] if squeeze else dx


class GRU(Layer):
    """Gated recurrent unit over [batch, time, channels].

    Gate order in the stacked matrices is (update z, reset r, candidate n):
        z = sigmoid(x W_z + h U_z + b_z)
        r = sigmoid(x W_r + h U_r + b_r)
        n = tanh(x W_n + r * (h U_n) + b_n)
        h' = (1 - z) * h + z * n
    """

    kind = "gru"

    def __init__(self, n_in: int, n_units: int,
                 rng: np.random.Generator | None = None, name: str = "gru"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_in, self.n_units = n_in, n_units
        self.name = name
        self.Wx = xavier_uniform(rng, n_in, n_units, (n_in, 3 * n_units))
        self.Wh = xavier_uniform(rng, n_units, n_units, (n_units, 3 * n_units))
        self.b = np.zeros(3 * n_units)
        self.dWx = np.zeros(self.Wx.shape)
        self.dWh = np.zeros(self.Wh.shape)
        self.db = np.zeros(self.b.shape)
        self._cache = None

    def params(self):
        return {f"{self.name}.Wx": self.Wx, f"{self.name}.Wh": self.Wh,
                f"{self.name}.b": self.b}

    def grads(self):
        return {f"{self.name}.Wx": self.dWx, f"{self.name}.Wh": self.dWh,
                f"{self.name}.b": self.db}

    def step(self, x_t: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One recurrence step (no cache); used by tests and inference."""
        n = self.n_units
        gx = x_t @ self.Wx + self.b
        gh = h @ self.Wh
        z = _activate(gx[..., :n] + gh[..., :n], "sigmoid")
        r = _activate(gx[..., n:2 * n] + gh[..., n:2 * n], "sigmoid")
        cand = np.tanh(gx[..., 2 * n:] + r * gh[..., 2 * n:])
        return (1.0 - z) * h + z * cand

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"{self.name}: got {x.shape[-1]} channels, "
                             f"expected {self.n_in}")
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        batch, steps, _ = x.shape
        n = self.n_units
        h = np.zeros((batch, n)) if h0 is None else h0.copy()

        gx_all = x @ self.Wx + self.b
        h_seq = np.empty((batch, steps, n))
        cache = []
        for t in range(steps):
            gh = h @ self.Wh
            gx = gx_all[:, t, :]
            z = _activate(gx[:, :n] + gh[:, :n], "sigmoid")
            r = _activate(gx[:, n:2 * n] + gh[:, n:2 * n], "sigmoid")
            ghn = gh[:, 2 * n:]
            cand = np.tanh(gx[:, 2 * n:] + r * ghn)
            h_new = (1.0 - z) * h + z * cand
            cache.append((h, z, r, cand, ghn))
            h = h_new
            h_seq[:, t, :] = h
        self._cache = (x, cache, squeeze)
        return h_seq[0] if squeeze else h_seq

    def backward(self, dh_seq: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x, cache, squeeze = self._cache
        if squeeze:
            dh_seq = dh_seq[None]
        batch, steps, _ = x.shape
        n = self.n_units
        dx = np.zeros_like(x)
        dgx = np.empty((batch, 3 * n))
        dgh = np.empty((batch, 3 * n))
        dh_carry = np.zeros((batch, n))
        for t in range(steps - 1, -1, -1):
            h_prev, z, r, cand, ghn = cache[t]
            dh = dh_seq[:, t, :] + dh_carry
            dn = dh * z
            dz = dh * (cand - h_prev)
            dh_prev = dh * (1.0 - z)

            dn_pre = dn * (1.0 - cand * cand)
            dr = dn_pre * ghn
            dz_pre = dz * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)

            dgx[:, :n] = dz_pre
            dgx[:, n:2 * n] = dr_pre
            dgx[:, 2 * n:] = dn_pre
            dgh[:, :n] = dz_pre
            dgh[:, n:2 * n] = dr_pre
            dgh[:, 2 * n:] = dn_pre * r

            x_t = x[:, t, :]
            self.dWx += x_t.T @ dgx
            self.dWh += h_prev.T @ dgh
            self.db += dgx.sum(axis=0)
            dx[:, t, :] = dgx @ self.Wx.T
            dh_carry = dh_prev + dgh @ self.Wh.T
        return dx[0] if squeeze else dx


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with global gradient-norm clipping (lr 1e-3, clip 5.0)."""

    def __init__(self, named_params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 clip_norm: float = GRAD_CLIP_NORM):
        self.params = named_params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.clip_norm = clip_norm
        self.m = {k: np.zeros_like(v) for k, v in named_params.items()}
        self.v = {k: np.zeros_like(v) for k, v in named_params.items()}
        self.t = 0

    def step(self, named_grads: dict[str, np.ndarray]) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        total = 0.0
        for g in named_grads.values():
            total += float(np.sum(g * g))
        norm = float(np.sqrt(total))
        scale = 1.0
        if self.clip_norm and norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, p in self.params.items():
            g = named_grads[key] * scale
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return norm


def collect_params(layers) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for layer in layers:
        for key, val in layer.params().items():
            if key in out:
                raise ValueError(f"duplicate parameter name {key}")
            out[key] = val
    return out


def collect_grads(layers) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for layer in layers:
        out.update(layer.grads())
    return out
