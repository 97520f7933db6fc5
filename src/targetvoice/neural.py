"""Minimal tensor runtime: dense, causal conv1d, GRU, Adam.

Everything is plain numpy with hand-written reverse-mode gradients, enough
to train desk-scale models and run real-time inference without a
framework. Layers operate on [batch, time, channels] arrays; training runs
in float64, streaming inference in float32.

Each layer caches its last forward pass; backward() consumes that cache,
accumulates parameter gradients in-place, and returns the input gradient.
`Layer` holds what every layer kind shares (named parameters with their
gradients, the input check, the backward guard) and `Net` what both
networks share (parameter and gradient maps, weight-file entries, a net
built from stored arrays).
"""

from __future__ import annotations

import numpy as np

ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0


class ShapeError(ValueError):
    """Raised when tensor shapes do not match a layer's parameters."""


def xavier_uniform(rng: np.random.Generator, n_in: int, n_out: int,
                   shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape)


class Unfilled:
    """Generator stand-in for a net whose loader fills every parameter next."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


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


def _by_gate(w: np.ndarray) -> np.ndarray:
    """View a [..., 3n] array as [3, ..., n], one block per gate (z, r, n)."""
    return np.moveaxis(w.reshape(*w.shape[:-1], 3, -1), -2, 0)


class Layer:
    """The bookkeeping every layer kind shares.

    Each keyword parameter p of __init__ becomes the attribute p, with its
    gradient d<p> beside it; params() and grads() name them "<name>.<p>",
    in the order given.
    """

    def __init__(self, n_in: int, name: str, **params: np.ndarray):
        self.n_in, self.name = n_in, name
        self._keys = tuple(params)
        for key, value in params.items():
            setattr(self, key, value)
            # np.zeros, not zeros_like: gradient pages stay untouched until training
            setattr(self, f"d{key}", np.zeros(value.shape))
        self._cache = None

    def params(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.{key}": getattr(self, key) for key in self._keys}

    def grads(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.{key}": getattr(self, f"d{key}") for key in self._keys}

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g.fill(0.0)

    def _check_input(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"{self.name}: got {x.shape[-1]} channels, "
                             f"expected {self.n_in}")

    def _cached(self):
        """The last forward pass's cache, for backward."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return self._cache


class Dense(Layer):
    """y_t = activation(x_t @ W + b), applied independently per time step."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, activation: str,
                 rng: np.random.Generator, name: str = "dense"):
        self.n_out, self.activation = n_out, activation
        super().__init__(n_in, name, W=xavier_uniform(rng, n_in, n_out, (n_in, n_out)),
                         b=np.zeros(n_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        y = _activate(x @ self.W + self.b, self.activation)
        self._cache = (x, y)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, y = self._cached()
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

    def __init__(self, n_in: int, n_out: int, kernel: int, activation: str,
                 rng: np.random.Generator, name: str = "conv"):
        self.n_out, self.kernel, self.activation = n_out, kernel, activation
        super().__init__(n_in, name,
                         W=xavier_uniform(rng, kernel * n_in, n_out, (kernel, n_in, n_out)),
                         b=np.zeros(n_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        z = np.tensordot(x, self.W[0], axes=([2], [0])) + self.b
        for k in range(1, self.kernel):
            z[:, k:, :] += np.tensordot(x[:, :-k, :], self.W[k], axes=([2], [0]))
        y = _activate(z, self.activation)
        self._cache = (x, y)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, y = self._cached()
        dz = dy * _activation_grad(y, self.activation)
        dx = np.tensordot(dz, self.W[0], axes=([2], [1]))
        self.dW[0] += np.tensordot(x, dz, axes=([0, 1], [0, 1]))
        for k in range(1, self.kernel):
            dx[:, :-k, :] += np.tensordot(dz[:, k:, :], self.W[k], axes=([2], [1]))
            self.dW[k] += np.tensordot(x[:, :-k, :], dz[:, k:, :],
                                       axes=([0, 1], [0, 1]))
        self.db += dz.sum(axis=(0, 1))
        return dx


class GRU(Layer):
    """Gated recurrent unit over [batch, time, channels].

    Gate order in the stacked matrices is (update z, reset r, candidate n):
        z = sigmoid(x W_z + h U_z + b_z)
        r = sigmoid(x W_r + h U_r + b_r)
        n = tanh(x W_n + r * (h U_n) + b_n)
        h' = (1 - z) * h + z * n
    """

    kind = "gru"

    def __init__(self, n_in: int, n_units: int, rng: np.random.Generator,
                 name: str = "gru"):
        self.n_units = n_units
        super().__init__(n_in, name,
                         Wx=xavier_uniform(rng, n_in, n_units, (n_in, 3 * n_units)),
                         Wh=xavier_uniform(rng, n_units, n_units, (n_units, 3 * n_units)),
                         b=np.zeros(3 * n_units))

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        self._check_input(x)
        batch, steps, _ = x.shape
        n = self.n_units
        # Time-major buffers, [T, 3, B, n] for the gates: one step's gates
        # are one block, and one gate's [B, n] rows are contiguous, so
        # neither the step loop nor the backward pass's whole-sequence
        # arithmetic walks rows of n values interleaved with the other
        # gates (2-3x slower at n = 32).
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(steps * batch, -1)
        gx = (x_tm @ self.Wx).reshape(steps, batch, 3, n).transpose(0, 2, 1, 3)
        gates = np.empty((steps, 3, batch, n))
        np.add(gx, _by_gate(self.b)[:, None], out=gates)
        wh = _by_gate(self.Wh)
        states = np.empty((steps + 1, batch, n))
        states[0] = 0.0 if h0 is None else h0
        for t in range(steps):
            h = states[t]
            g = gates[t]
            gh = np.matmul(h, wh)
            zr = g[:2]  # z and r, made sigmoid in place
            zr += gh[:2]
            np.negative(zr, out=zr)
            np.exp(zr, out=zr)
            zr += 1.0
            np.reciprocal(zr, out=zr)
            ghn = gh[2]
            ghn *= g[1]
            cand = g[2]  # made the candidate n in place
            cand += ghn
            np.tanh(cand, out=cand)
            h_new = states[t + 1]  # h + z (n - h)
            np.subtract(cand, h, out=h_new)
            h_new *= g[0]
            h_new += h
        self._cache = (x_tm, states, gates)
        return states[1:].transpose(1, 0, 2).copy()

    def backward(self, dh_seq: np.ndarray) -> np.ndarray:
        x_tm, states, gates = self._cached()
        steps, batch, n = states.shape[0] - 1, states.shape[1], self.n_units
        h_prev = states[:-1]
        z, r, cand = gates.transpose(1, 0, 2, 3)
        h_un = (h_prev.reshape(-1, n) @ self.Wh[:, 2 * n:]).reshape(steps, batch, n)

        # Per-step factors, whole sequence at once. With dh the gradient
        # reaching h_t, the gate pre-activation gradients are
        #   dz = dh z(1-z)(n-h),  dn = dh z(1-n^2),  dr = dn r(1-r)(h U_n),
        # the recurrent ones are (dz, dr, dn r), and h_{t-1} gets
        # dh (1-z) plus those through Wh^T. Fresh pages cost about as much
        # as a pass over them, so the factors are computed in their slots
        # and the loop scales each step's slots by its dh in place.
        fac = np.empty((5, steps, batch, n))  # (dz, dr, dn r, direct, dn) per unit dh
        f_z, f_r, f_nr, f_h, f_n = fac
        np.subtract(1.0, z, out=f_h)
        np.multiply(cand, cand, out=f_n)
        np.subtract(1.0, f_n, out=f_n)
        f_n *= z
        np.subtract(cand, h_prev, out=f_z)
        f_z *= z
        f_z *= f_h
        np.subtract(1.0, r, out=f_r)
        f_r *= r
        f_r *= h_un
        f_r *= f_n
        np.multiply(f_n, r, out=f_nr)

        wh_t = self.Wh.T
        carry = np.zeros((batch, n))
        for t in range(steps - 1, -1, -1):
            d = fac[:, t]
            d *= dh_seq[:, t, :] + carry
            carry = d[:3].transpose(1, 0, 2).reshape(batch, 3 * n) @ wh_t
            carry += d[3]

        dwh = _by_gate(self.dWh)
        dwh += np.matmul(h_prev.reshape(-1, n).T, fac[:3].reshape(3, -1, n))
        fac[2] = f_n  # the input gate gradients are (dz, dr, dn)
        dgx = fac[:3].reshape(3, -1, n)
        dwx = _by_gate(self.dWx)
        dwx += np.matmul(x_tm.T, dgx)
        db = _by_gate(self.db)
        db += dgx.sum(axis=1)
        dx = sum(g @ w.T for g, w in zip(dgx, _by_gate(self.Wx)))
        return np.ascontiguousarray(dx.reshape(steps, batch, -1).transpose(1, 0, 2))


class Net:
    """The bookkeeping both networks share.

    A subclass's _build(rng) creates its layers, drawing their weights
    from rng, and lists them in self.layers; params() names every
    parameter in that order, which is also the weight file's order.
    """

    def __init__(self, config, seed: int = 0):
        self.config = config
        self._build(np.random.default_rng(seed))

    @classmethod
    def from_arrays(cls, config, arrays):
        """The net of `config` whose parameters are copies of `arrays`
        (name -> array, one per params() entry), widened to float64."""
        net = cls.__new__(cls)
        net.config = config
        net._build(Unfilled())
        for name, p in net.params().items():
            p[...] = arrays[name]
        return net

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params().values())

    def params(self) -> dict[str, np.ndarray]:
        return collect_params(self.layers)

    def grads(self) -> dict[str, np.ndarray]:
        return {key: g for layer in self.layers for key, g in layer.grads().items()}

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def entries(self, meta_keys) -> list[tuple[str, str, np.ndarray]]:
        """Weight-file entries: a scalar meta.<key> per config field in
        `meta_keys`, in that order, then every parameter with its layer's kind."""
        entries = [(f"meta.{key}", "scalar", np.array([float(getattr(self.config, key))]))
                   for key in meta_keys]
        for layer in self.layers:
            entries.extend((name, layer.kind, arr) for name, arr in layer.params().items())
        return entries


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with global gradient-norm clipping (step size ADAM_LR, clip 5.0)."""

    def __init__(self, named_params: dict[str, np.ndarray]):
        self.params = named_params
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
        if norm > GRAD_CLIP_NORM:
            scale = GRAD_CLIP_NORM / (norm + 1e-12)

        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for key, p in self.params.items():
            g = named_grads[key] * scale
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= ADAM_LR * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        return norm


def collect_params(layers) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for layer in layers:
        for key, val in layer.params().items():
            if key in out:
                raise ValueError(f"duplicate parameter name {key}")
            out[key] = val
    return out

