"""Speaker-conditioned enhancer network, supervision targets, losses.

The model maps the 68-dim frame features, with the target speaker's
embedding appended to every frame, to three sigmoid heads: 32 band gains,
32 pitch-filter strengths, and a frame VAD probability. Topology:

    dense -> conv1d(k=5) -> conv1d(k=3) -> [concat embedding]
          -> GRU stack -> {gains, strengths(gains appended), vad(from GRU 1)}

The named presets ppn512/ppn1024 use a 4-layer GRU stack sized to land on
the published 8.5M / 26.5M parameter budgets (within the +-20% the
constructor test enforces); toy configs shrink every width for desk-scale
training.

Training consumes mixtures from the data synthesizer: per-frame ideal band
ratio masks as gain targets, clean-signal pitch coherence as strength
targets, and a clean-frame energy gate as the VAD label. The model's
outputs for frame t are supervised from the features up to frame t+3
(the 30 ms look-ahead), realized by shifting targets three frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from targetvoice.frontend import FEATURE_DIM, LOOKAHEAD_FRAMES, N_BANDS
from targetvoice.neural import (
    Adam,
    CausalConv1d,
    Dense,
    GRU,
    Unfilled,
    collect_grads,
    collect_params,
)
from targetvoice.weights_io import check_shapes, read_meta

GAIN_LOSS_EXPONENT = 0.5
VAD_LOSS_WEIGHT = 1.0
VAD_ENERGY_GATE_DB = 40.0
BCE_CLAMP = 1e-7
_POW_EPS = 1e-10


@dataclass(frozen=True)
class EnhancerConfig:
    gru_units: int = 512
    n_gru_layers: int = 4
    dense_units: int = 128
    conv_channels: int = 512
    embedding_dim: int = 128

    @classmethod
    def preset(cls, name: str) -> "EnhancerConfig":
        presets = {
            "ppn512": cls(gru_units=512),
            "ppn1024": cls(gru_units=1024),
            "toy": cls(gru_units=64, n_gru_layers=2, dense_units=32,
                       conv_channels=48, embedding_dim=16),
        }
        if name not in presets:
            raise ValueError(f"unknown preset {name!r}; "
                             f"choose from {sorted(presets)}")
        return presets[name]

    def to_text(self) -> str:
        return "".join(
            f"{k} = {v}\n"
            for k, v in sorted(vars(self).items())
        )

    @classmethod
    def from_text(cls, text: str) -> "EnhancerConfig":
        cfg = cls()
        fields = {f: int for f in vars(cfg)}
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = int(val.strip())
        return replace(cfg, **values)


class EnhancerNet:
    """The conditioned DNN with gains / strengths / VAD heads.

    Streaming sessions share one float32 copy of the parameters, built on
    first use. While it exists the float64 parameters are read-only, so a
    write that bypasses params() fails instead of leaving sessions on stale
    weights; params() drops the copy and makes them writable again.
    """

    def __init__(self, config: EnhancerConfig = EnhancerConfig(), seed: int = 0):
        self._build(config, np.random.default_rng(seed))

    @classmethod
    def _unfilled(cls, config: EnhancerConfig) -> "EnhancerNet":
        net = cls.__new__(cls)
        net._build(config, Unfilled())
        return net

    def _build(self, config: EnhancerConfig, rng) -> None:
        self.config = config
        d, c = config.dense_units, config.conv_channels
        n, e = config.gru_units, config.embedding_dim
        self.dense_in = Dense(FEATURE_DIM, d, "tanh", rng, "en_dense_in")
        self.conv1 = CausalConv1d(d, c, 5, "tanh", rng, "en_conv1")
        self.conv2 = CausalConv1d(c, c, 3, "tanh", rng, "en_conv2")
        self.grus = [
            GRU(c + e if i == 0 else n, n, rng, f"en_gru{i + 1}")
            for i in range(config.n_gru_layers)
        ]
        self.head_gains = Dense(n, N_BANDS, "sigmoid", rng, "en_gains")
        self.head_strengths = Dense(n + N_BANDS, N_BANDS, "sigmoid", rng,
                                    "en_strengths")
        self.head_vad = Dense(n, 1, "sigmoid", rng, "en_vad")
        self.layers = [self.dense_in, self.conv1, self.conv2, *self.grus,
                       self.head_gains, self.head_strengths, self.head_vad]
        self._cache = None
        self._float32 = None

    @property
    def n_params(self) -> int:
        return sum(layer.n_params for layer in self.layers)

    def params(self):
        if self._float32 is not None:
            self._float32 = None
            self._set_writeable(True)
        return collect_params(self.layers)

    def _set_writeable(self, flag: bool) -> None:
        for p in collect_params(self.layers).values():
            p.flags.writeable = flag

    def float32_weights(self) -> "Float32Weights":
        """The read-only float32 parameters every session on this net shares."""
        if self._float32 is None:
            self._float32 = Float32Weights(self)
            self._set_writeable(False)
        return self._float32

    def grads(self):
        return collect_grads(self.layers)

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def forward(self, features: np.ndarray, embedding: np.ndarray):
        """Run [B, T, 68] features with [B, E] embeddings (or unbatched).

        Returns (gains, strengths, vad) with sigmoid ranges; the output at
        frame t depends only on features at frames <= t plus the constant
        embedding.
        """
        features = np.asarray(features, dtype=np.float64)
        embedding = np.asarray(embedding, dtype=np.float64)
        squeeze = features.ndim == 2
        if squeeze:
            features = features[None]
            embedding = embedding[None]
        if embedding.shape[-1] != self.config.embedding_dim:
            raise ValueError(
                f"embedding dim {embedding.shape[-1]} does not match model "
                f"dim {self.config.embedding_dim}"
            )
        batch, steps, _ = features.shape
        h = self.dense_in.forward(features)
        h = self.conv1.forward(h)
        h = self.conv2.forward(h)
        emb_tiled = np.broadcast_to(embedding[:, None, :],
                                    (batch, steps, embedding.shape[-1]))
        h = np.concatenate([h, emb_tiled], axis=-1)
        gru_outs = []
        for gru in self.grus:
            h = gru.forward(h)
            gru_outs.append(h)
        gains = self.head_gains.forward(h)
        strengths = self.head_strengths.forward(
            np.concatenate([h, gains], axis=-1)
        )
        vad = self.head_vad.forward(gru_outs[0])[..., 0]
        self._cache = (batch, steps)
        if squeeze:
            return gains[0], strengths[0], vad[0]
        return gains, strengths, vad

    def backward(self, d_gains: np.ndarray, d_strengths: np.ndarray,
                 d_vad: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        batch, steps = self._cache
        if d_gains.ndim == 2:
            d_gains, d_strengths, d_vad = d_gains[None], d_strengths[None], d_vad[None]
        n = self.config.gru_units

        d_s_in = self.head_strengths.backward(d_strengths)
        d_last = d_s_in[..., :n].copy()
        d_gains_total = d_gains + d_s_in[..., n:]
        d_last += self.head_gains.backward(d_gains_total)

        d_vad_seq = self.head_vad.backward(d_vad[..., None])

        d = d_last
        for i in range(len(self.grus) - 1, -1, -1):
            if i == 0:
                d = d + d_vad_seq
            d = self.grus[i].backward(d)
        d = d[..., : self.config.conv_channels]  # embedding is a constant input
        d = self.conv2.backward(np.ascontiguousarray(d))
        d = self.conv1.backward(d)
        self.dense_in.backward(d)


def build_model(config: EnhancerConfig, seed: int = 0):
    """Construct the network and report its exact parameter count."""
    net = EnhancerNet(config, seed=seed)
    return net, net.n_params


# ---------------------------------------------------------------------------
# Supervision targets
# ---------------------------------------------------------------------------


def compute_target_gains(clean_band_e: np.ndarray,
                         noisy_band_e: np.ndarray) -> np.ndarray:
    """Ideal band ratio mask: min(1, sqrt(clean / noisy)) per band."""
    clean = np.asarray(clean_band_e, dtype=np.float64)
    noisy = np.asarray(noisy_band_e, dtype=np.float64)
    return np.minimum(1.0, np.sqrt(clean / np.maximum(noisy, 1e-12)))


def vad_labels_from_energy(clean_log_energy: np.ndarray,
                           gate_db: float = VAD_ENERGY_GATE_DB) -> np.ndarray:
    """1 where the clean frame is within gate_db of the utterance peak."""
    log_e = np.asarray(clean_log_energy, dtype=np.float64)
    threshold = log_e.max() - gate_db / 10.0  # log10 energy units
    return (log_e > threshold).astype(np.float64)


# ---------------------------------------------------------------------------
# Losses (value + analytic gradients)
# ---------------------------------------------------------------------------


def gain_strength_loss(pred_gains, pred_strengths, target_gains,
                       target_strengths, frame_weights=None):
    """Band-summed, frame-averaged loss on gains (power-compressed) and strengths.

    L = mean_t [ sum_b (g^gamma - ghat^gamma)^2 + sum_b (r - rhat)^2 ],
    gamma = 0.5. Returns (loss, d_pred_gains, d_pred_strengths).
    """
    g_hat = np.asarray(pred_gains, dtype=np.float64)
    r_hat = np.asarray(pred_strengths, dtype=np.float64)
    g = np.asarray(target_gains, dtype=np.float64)
    r = np.asarray(target_strengths, dtype=np.float64)
    if g_hat.shape != g.shape or r_hat.shape != r.shape:
        raise ValueError("prediction/target shapes differ")

    n_frames = int(np.prod(g_hat.shape[:-1])) or 1
    if frame_weights is None:
        weights = np.ones(g_hat.shape[:-1])
    else:
        weights = np.asarray(frame_weights, dtype=np.float64)
    norm = max(float(weights.sum()), 1.0)
    wex = weights[..., None]

    gh = np.power(np.maximum(g_hat, _POW_EPS), GAIN_LOSS_EXPONENT)
    gt = np.power(np.maximum(g, 0.0), GAIN_LOSS_EXPONENT)
    diff_g = gh - gt
    diff_r = r_hat - r
    loss = float(np.sum(wex * (diff_g ** 2 + diff_r ** 2)) / norm)

    d_gh = 2.0 * diff_g * wex / norm
    d_g_hat = d_gh * GAIN_LOSS_EXPONENT * np.power(
        np.maximum(g_hat, _POW_EPS), GAIN_LOSS_EXPONENT - 1.0
    )
    d_r_hat = 2.0 * diff_r * wex / norm
    return loss, d_g_hat, d_r_hat


def vad_loss(pred_vad, labels, frame_weights=None):
    """Frame-averaged binary cross-entropy; predictions clamped to
    [1e-7, 1 - 1e-7]. Returns (loss, d_pred)."""
    p = np.clip(np.asarray(pred_vad, dtype=np.float64), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("prediction/label shapes differ")
    if frame_weights is None:
        weights = np.ones_like(p)
    else:
        weights = np.asarray(frame_weights, dtype=np.float64)
    norm = max(float(weights.sum()), 1.0)
    loss = float(np.sum(weights * -(y * np.log(p) + (1 - y) * np.log(1 - p))) / norm)
    d_pred = weights * (p - y) / (p * (1.0 - p)) / norm
    # zero gradient where the raw prediction sat outside the clamp
    raw = np.asarray(pred_vad, dtype=np.float64)
    d_pred = np.where((raw > BCE_CLAMP) & (raw < 1.0 - BCE_CLAMP), d_pred, 0.0)
    return loss, d_pred


# ---------------------------------------------------------------------------
# Toy training
# ---------------------------------------------------------------------------


@dataclass
class EnhancerTrainConfig:
    steps: int = 1000
    batch_size: int = 4
    lr: float = 1e-3
    seed: int = 0
    vad_weight: float = VAD_LOSS_WEIGHT
    log_every: int = 100
    model: EnhancerConfig = field(
        default_factory=lambda: EnhancerConfig.preset("toy")
    )
    model_seed: int = 0


def train_enhancer_toy(dataset: list, config: EnhancerTrainConfig, log=None):
    """Train on synthesized mixtures; returns (net, loss_curve).

    Each dataset example carries equal-length arrays: features [T, 68],
    embedding [E], gains [T, 32], strengths [T, 32], vad [T]. The model's
    step t output is supervised with the targets of frame t - 3 (look-ahead
    shift); the first 3 steps of each sequence carry no loss.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    net = EnhancerNet(config.model, seed=config.model_seed)
    opt = Adam(net.params(), lr=config.lr)
    shift = LOOKAHEAD_FRAMES

    losses = []
    for step in range(1, config.steps + 1):
        picks = rng.choice(len(dataset), size=min(config.batch_size, len(dataset)),
                           replace=False)
        feats = np.stack([dataset[i]["features"] for i in picks]).astype(np.float64)
        embs = np.stack([dataset[i]["embedding"] for i in picks]).astype(np.float64)
        t_gain = np.stack([dataset[i]["gains"] for i in picks])
        t_str = np.stack([dataset[i]["strengths"] for i in picks])
        t_vad = np.stack([dataset[i]["vad"] for i in picks])

        net.zero_grads()
        gains, strengths, vad = net.forward(feats, embs)
        gs_loss, d_g, d_r = gain_strength_loss(
            gains[:, shift:], strengths[:, shift:],
            t_gain[:, : t_gain.shape[1] - shift],
            t_str[:, : t_str.shape[1] - shift],
        )
        v_loss, d_v = vad_loss(vad[:, shift:], t_vad[:, : t_vad.shape[1] - shift])
        loss = gs_loss + config.vad_weight * v_loss

        d_gains = np.zeros_like(gains)
        d_strengths = np.zeros_like(strengths)
        d_vad = np.zeros_like(vad)
        d_gains[:, shift:] = d_g
        d_strengths[:, shift:] = d_r
        d_vad[:, shift:] = config.vad_weight * d_v
        net.backward(d_gains, d_strengths, d_vad)
        opt.step(net.grads())

        losses.append(loss)
        if log and step % config.log_every == 0:
            log(f"step {step}: loss {np.mean(losses[-config.log_every:]):.4f}")
    return net, losses


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def enhancer_entries(net: EnhancerNet) -> list[tuple[str, str, np.ndarray]]:
    cfg = net.config
    entries = [
        (f"meta.{key}", "scalar", np.array([float(val)]))
        for key, val in sorted(vars(cfg).items())
    ]
    for layer in net.layers:
        for name, arr in layer.params().items():
            entries.append((name, layer.kind, arr))
    return entries


def _param_shapes(cfg: EnhancerConfig):
    """(name, shape) of every parameter EnhancerNet(cfg) holds, in order."""
    d, c = cfg.dense_units, cfg.conv_channels
    n, e = cfg.gru_units, cfg.embedding_dim
    yield "en_dense_in.W", (FEATURE_DIM, d)
    yield "en_dense_in.b", (d,)
    yield "en_conv1.W", (5, d, c)
    yield "en_conv1.b", (c,)
    yield "en_conv2.W", (3, c, c)
    yield "en_conv2.b", (c,)
    for i in range(cfg.n_gru_layers):
        yield f"en_gru{i + 1}.Wx", (c + e if i == 0 else n, 3 * n)
        yield f"en_gru{i + 1}.Wh", (n, 3 * n)
        yield f"en_gru{i + 1}.b", (3 * n,)
    yield "en_gains.W", (n, N_BANDS)
    yield "en_gains.b", (N_BANDS,)
    yield "en_strengths.W", (n + N_BANDS, N_BANDS)
    yield "en_strengths.b", (N_BANDS,)
    yield "en_vad.W", (n, 1)
    yield "en_vad.b", (1,)


def enhancer_from_entries(entries: dict) -> EnhancerNet:
    """The net a weight file holds; WeightsFormatError before any allocation."""
    cfg = EnhancerConfig(**read_meta(entries, vars(EnhancerConfig()), "enhancer"))
    check_shapes(entries, _param_shapes(cfg), "enhancer")
    net = EnhancerNet._unfilled(cfg)
    for layer in net.layers:
        for name, arr in layer.params().items():
            arr[...] = entries[name][1]
    return net


# ---------------------------------------------------------------------------
# Streaming inference session (float32, allocation-free steps)
# ---------------------------------------------------------------------------


def _read_only_f32(arr: np.ndarray) -> np.ndarray:
    out = arr.astype(np.float32)
    out.flags.writeable = False
    return out


class Float32Weights:
    """One net's parameters as read-only float32 arrays, shared by its sessions.

    GRU 1's input weight keeps only its conv rows: each session folds the
    constant embedding rows into its own copy of that layer's bias.
    """

    def __init__(self, net: EnhancerNet):
        f32 = _read_only_f32
        c = net.config.conv_channels
        self.w_dense, self.b_dense = f32(net.dense_in.W), f32(net.dense_in.b)
        self.w_conv1, self.b_conv1 = f32(net.conv1.W), f32(net.conv1.b)
        self.w_conv2, self.b_conv2 = f32(net.conv2.W), f32(net.conv2.b)
        self.gru_wx = (f32(net.grus[0].Wx[:c]), *(f32(g.Wx) for g in net.grus[1:]))
        self.gru_wh = tuple(f32(g.Wh) for g in net.grus)
        self.gru_b = tuple(f32(g.b) for g in net.grus)
        self.w_gains, self.b_gains = f32(net.head_gains.W), f32(net.head_gains.b)
        self.w_str, self.b_str = f32(net.head_strengths.W), f32(net.head_strengths.b)
        self.w_vad, self.b_vad = f32(net.head_vad.W), f32(net.head_vad.b)


class EnhancerSession:
    """Per-stream float32 inference state with preallocated buffers.

    step() runs one 10 ms frame through the network without allocating new
    arrays, so a warm stream adds no steady-state heap growth. The weights
    are the net's shared read-only Float32Weights; all mutable state (conv
    rings, GRU hidden vectors, scratch) is session-local.
    """

    def __init__(self, net: EnhancerNet, embedding: np.ndarray):
        cfg = net.config
        if embedding.shape != (cfg.embedding_dim,):
            raise ValueError(
                f"embedding shape {embedding.shape} does not match model "
                f"dim {cfg.embedding_dim}"
            )
        f32 = np.float32
        self.cfg = cfg
        self.weights = w = net.float32_weights()
        d, c, n = cfg.dense_units, cfg.conv_channels, cfg.gru_units
        # GRU 1 sees [conv2 out, embedding]; the embedding's term is constant
        gru1 = net.grus[0]
        bias1 = (embedding.astype(np.float64) @ gru1.Wx[c:] + gru1.b).astype(f32)
        self._gru_b = (bias1, *w.gru_b[1:])

        self._dense_out = np.zeros(d, dtype=f32)
        self._ring1 = np.zeros((5, d), dtype=f32)
        self._ring2 = np.zeros((3, c), dtype=f32)
        self._head1 = 0
        self._head2 = 0
        self._conv1_out = np.zeros(c, dtype=f32)
        self._conv2_out = np.zeros(c, dtype=f32)
        self._h = [np.zeros(n, dtype=f32) for _ in net.grus]
        self._gx = np.zeros(3 * n, dtype=f32)
        self._gh = np.zeros(3 * n, dtype=f32)
        self._zbuf = np.zeros(n, dtype=f32)
        self._rbuf = np.zeros(n, dtype=f32)
        self._nbuf = np.zeros(n, dtype=f32)
        self._tmp_n = np.zeros(n, dtype=f32)
        self._tmp_c = np.zeros(c, dtype=f32)
        self._str_in = np.zeros(n + N_BANDS, dtype=f32)
        self.gains = np.zeros(N_BANDS, dtype=f32)
        self.strengths = np.zeros(N_BANDS, dtype=f32)
        self._vad_out = np.zeros(1, dtype=f32)

    @staticmethod
    def _sigmoid_inplace(x: np.ndarray) -> None:
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.reciprocal(x, out=x)

    def _gru_step(self, idx: int, x: np.ndarray) -> np.ndarray:
        n = self.cfg.gru_units
        h = self._h[idx]
        np.matmul(x, self.weights.gru_wx[idx], out=self._gx)
        self._gx += self._gru_b[idx]
        np.matmul(h, self.weights.gru_wh[idx], out=self._gh)
        z, r, cand = self._zbuf, self._rbuf, self._nbuf
        np.add(self._gx[:n], self._gh[:n], out=z)
        self._sigmoid_inplace(z)
        np.add(self._gx[n : 2 * n], self._gh[n : 2 * n], out=r)
        self._sigmoid_inplace(r)
        np.multiply(r, self._gh[2 * n :], out=cand)
        cand += self._gx[2 * n :]
        np.tanh(cand, out=cand)
        # h += z * (cand - h)
        np.subtract(cand, h, out=self._tmp_n)
        self._tmp_n *= z
        h += self._tmp_n
        return h

    def step(self, feature_vector: np.ndarray) -> float:
        """Advance one frame; results land in .gains / .strengths, VAD returned."""
        w = self.weights
        np.matmul(feature_vector, w.w_dense, out=self._dense_out)
        self._dense_out += w.b_dense
        np.tanh(self._dense_out, out=self._dense_out)

        self._head1 = (self._head1 + 1) % 5
        ring = self._ring1
        ring[self._head1] = self._dense_out
        out = self._conv1_out
        out[:] = w.b_conv1
        for k in range(5):
            np.matmul(ring[(self._head1 - k) % 5], w.w_conv1[k], out=self._tmp_c)
            out += self._tmp_c
        np.tanh(out, out=out)

        self._head2 = (self._head2 + 1) % 3
        self._ring2[self._head2] = out
        out2 = self._conv2_out
        out2[:] = w.b_conv2
        for k in range(3):
            np.matmul(self._ring2[(self._head2 - k) % 3], w.w_conv2[k],
                      out=self._tmp_c)
            out2 += self._tmp_c
        np.tanh(out2, out=out2)

        h = self._gru_step(0, out2)
        np.matmul(h, w.w_vad, out=self._vad_out)
        self._vad_out += w.b_vad
        self._sigmoid_inplace(self._vad_out)
        vad = self._vad_out

        for i in range(1, len(self._h)):
            h = self._gru_step(i, h)

        np.matmul(h, w.w_gains, out=self.gains)
        self.gains += w.b_gains
        self._sigmoid_inplace(self.gains)

        n = self.cfg.gru_units
        self._str_in[:n] = h
        self._str_in[n:] = self.gains
        np.matmul(self._str_in, w.w_str, out=self.strengths)
        self.strengths += w.b_str
        self._sigmoid_inplace(self.strengths)
        return vad[0]
