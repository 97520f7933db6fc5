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

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from targetvoice.frontend import FEATURE_DIM, LOOKAHEAD_FRAMES, N_BANDS
from targetvoice.neural import Adam, CausalConv1d, Dense, GRU, Net
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


class EnhancerNet(Net):
    """The conditioned DNN with gains / strengths / VAD heads.

    Its float64 parameters are what training, forward() and backward() use.
    float32_weights() narrows them into an EnhancerWeights, the form every
    streaming session runs on.
    """

    def _build(self, rng) -> None:
        d, c = self.config.dense_units, self.config.conv_channels
        n, e = self.config.gru_units, self.config.embedding_dim
        self.dense_in = Dense(FEATURE_DIM, d, "tanh", rng, "en_dense_in")
        self.conv1 = CausalConv1d(d, c, 5, "tanh", rng, "en_conv1")
        self.conv2 = CausalConv1d(c, c, 3, "tanh", rng, "en_conv2")
        self.grus = [
            GRU(c + e if i == 0 else n, n, rng, f"en_gru{i + 1}")
            for i in range(self.config.n_gru_layers)
        ]
        self.head_gains = Dense(n, N_BANDS, "sigmoid", rng, "en_gains")
        self.head_strengths = Dense(n + N_BANDS, N_BANDS, "sigmoid", rng,
                                    "en_strengths")
        self.head_vad = Dense(n, 1, "sigmoid", rng, "en_vad")
        self.layers = [self.dense_in, self.conv1, self.conv2, *self.grus,
                       self.head_gains, self.head_strengths, self.head_vad]

    def float32_weights(self) -> EnhancerWeights:
        """A new EnhancerWeights narrowed from the current parameters."""
        return EnhancerWeights(self.config, _shared_float32(self.params()))

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
        if squeeze:
            return gains[0], strengths[0], vad[0]
        return gains, strengths, vad

    def backward(self, d_gains: np.ndarray, d_strengths: np.ndarray,
                 d_vad: np.ndarray) -> None:
        """Gradients of [B, T, ·] outputs into every layer's grads."""
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


# ---------------------------------------------------------------------------
# Supervision targets
# ---------------------------------------------------------------------------


def compute_target_gains(clean_band_e: np.ndarray,
                         noisy_band_e: np.ndarray) -> np.ndarray:
    """Ideal band ratio mask: min(1, sqrt(clean / noisy)) per band."""
    clean = np.asarray(clean_band_e, dtype=np.float64)
    noisy = np.asarray(noisy_band_e, dtype=np.float64)
    return np.minimum(1.0, np.sqrt(clean / np.maximum(noisy, 1e-12)))


def vad_labels_from_energy(clean_log_energy: np.ndarray) -> np.ndarray:
    """1 where the clean frame is within 40 dB of the utterance peak."""
    log_e = np.asarray(clean_log_energy, dtype=np.float64)
    threshold = log_e.max() - VAD_ENERGY_GATE_DB / 10.0  # log10 energy units
    return (log_e > threshold).astype(np.float64)


def lookahead_slices(n_outputs: int, n_labels: int) -> tuple[slice, slice]:
    """Slices of outputs and labels pairing step t with frame t - LOOKAHEAD_FRAMES.

    The model emits a frame's estimate once it has seen 30 ms past it; the
    first LOOKAHEAD_FRAMES outputs belong to no frame.
    """
    n = max(0, min(n_outputs - LOOKAHEAD_FRAMES, n_labels))
    return slice(LOOKAHEAD_FRAMES, LOOKAHEAD_FRAMES + n), slice(0, n)


# ---------------------------------------------------------------------------
# Losses (value + analytic gradients)
# ---------------------------------------------------------------------------


def gain_strength_loss(pred_gains, pred_strengths, target_gains,
                       target_strengths):
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

    norm = max(float(math.prod(g_hat.shape[:-1])), 1.0)  # the frame count

    gh = np.power(np.maximum(g_hat, _POW_EPS), GAIN_LOSS_EXPONENT)
    gt = np.power(np.maximum(g, 0.0), GAIN_LOSS_EXPONENT)
    diff_g = gh - gt
    diff_r = r_hat - r
    loss = float(np.sum(diff_g ** 2 + diff_r ** 2) / norm)

    d_gh = 2.0 * diff_g / norm
    d_g_hat = d_gh * GAIN_LOSS_EXPONENT * np.power(
        np.maximum(g_hat, _POW_EPS), GAIN_LOSS_EXPONENT - 1.0
    )
    d_r_hat = 2.0 * diff_r / norm
    return loss, d_g_hat, d_r_hat


def vad_loss(pred_vad, labels):
    """Frame-averaged binary cross-entropy; predictions clamped to
    [1e-7, 1 - 1e-7]. Returns (loss, d_pred)."""
    p = np.clip(np.asarray(pred_vad, dtype=np.float64), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("prediction/label shapes differ")
    norm = max(float(p.size), 1.0)
    loss = float(np.sum(-(y * np.log(p) + (1 - y) * np.log(1 - p))) / norm)
    d_pred = (p - y) / (p * (1.0 - p)) / norm
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
    seed: int = 0
    log_every: int = 100
    model: EnhancerConfig = field(
        default_factory=lambda: EnhancerConfig.preset("toy")
    )
    model_seed: int = 0


def train_enhancer_toy(dataset: list, config: EnhancerTrainConfig, log=None):
    """Train on synthesized mixtures; returns (net, loss_curve).

    Each dataset example carries equal-length arrays: features [T, 68],
    embedding [E], gains [T, 32], strengths [T, 32], vad [T]. The model's
    step t output is supervised with the targets of frame t - 3
    (lookahead_slices); the first 3 steps of each sequence carry no loss.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    net = EnhancerNet(config.model, seed=config.model_seed)
    opt = Adam(net.params())

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
        out, lab = lookahead_slices(vad.shape[1], t_vad.shape[1])
        gs_loss, d_g, d_r = gain_strength_loss(
            gains[:, out], strengths[:, out], t_gain[:, lab], t_str[:, lab])
        v_loss, d_v = vad_loss(vad[:, out], t_vad[:, lab])
        loss = gs_loss + VAD_LOSS_WEIGHT * v_loss

        d_gains = np.zeros_like(gains)
        d_strengths = np.zeros_like(strengths)
        d_vad = np.zeros_like(vad)
        d_gains[:, out] = d_g
        d_strengths[:, out] = d_r
        d_vad[:, out] = VAD_LOSS_WEIGHT * d_v
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
    return net.entries(sorted(vars(net.config)))


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


def enhancer_from_entries(entries: dict) -> EnhancerWeights:
    """The weights a file holds; WeightsFormatError before any allocation.

    They adopt the entries' float32 arrays as they are and make them
    read-only; nothing is copied.
    """
    cfg = EnhancerConfig(**read_meta(entries, vars(EnhancerConfig()), "enhancer"))
    shapes = list(_param_shapes(cfg))
    check_shapes(entries, shapes, "enhancer")
    return EnhancerWeights(cfg, _shared_float32({name: entries[name][1] for name, _ in shapes}))


def _shared_float32(params: dict[str, np.ndarray]) -> MappingProxyType:
    """Read-only name -> read-only float32 array mapping over `params`.

    A contiguous float32 array is adopted as it is; any other is narrowed
    into a float32 copy.
    """
    shared = {}
    for name, arr in params.items():
        shared[name] = np.ascontiguousarray(arr, dtype=np.float32)
        shared[name].flags.writeable = False
    return MappingProxyType(shared)


class EnhancerWeights:
    """An enhancer in its streaming form: a loaded file, or a narrowed net.

    `arrays` maps each parameter name, in EnhancerNet.params() order, to a
    read-only float32 array; every session on these weights runs on those
    arrays. forward() runs the float64 net widened from them bit for bit,
    built on its first call and kept.
    """

    def __init__(self, config: EnhancerConfig, arrays: MappingProxyType):
        self.config = config
        self.arrays = arrays
        self._net = None

    @property
    def n_params(self) -> int:
        return sum(arr.size for arr in self.arrays.values())

    def forward(self, features: np.ndarray, embedding: np.ndarray):
        """EnhancerNet.forward on the widened arrays."""
        if self._net is None:
            self._net = EnhancerNet.from_arrays(self.config, self.arrays)
        return self._net.forward(features, embedding)


# ---------------------------------------------------------------------------
# Streaming inference session (float32, no steady-state heap growth)
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class EnhancerSession:
    """Per-stream float32 inference over an enhancer's read-only weights.

    The session runs on `weights.arrays`, which every session on one
    EnhancerWeights shares. It holds only its own state: the two conv
    layers' input windows (newest frame first), one hidden vector per GRU
    layer, and GRU 1's bias with the constant embedding term folded in.
    step() allocates only temporaries, so a warm stream shows no
    steady-state heap growth (audited by acceptance criterion 8).
    """

    def __init__(self, weights: EnhancerWeights, embedding: np.ndarray):
        cfg = weights.config
        if embedding.shape != (cfg.embedding_dim,):
            raise ValueError(
                f"embedding shape {embedding.shape} does not match model "
                f"dim {cfg.embedding_dim}"
            )
        self.cfg = cfg
        self.weights = w = weights.arrays
        c, n = cfg.conv_channels, cfg.gru_units
        # GRU 1 sees [conv2 out, embedding]; the embedding's term is constant
        self._gru1_b = (embedding.astype(np.float64) @ w["en_gru1.Wx"][c:].astype(np.float64)
                        + w["en_gru1.b"].astype(np.float64)).astype(np.float32)
        self._conv1_in = np.zeros((5, cfg.dense_units), dtype=np.float32)
        self._conv2_in = np.zeros((3, c), dtype=np.float32)
        self._h = [np.zeros(n, dtype=np.float32) for _ in range(cfg.n_gru_layers)]
        self.gains = np.zeros(N_BANDS, dtype=np.float32)
        self.strengths = np.zeros(N_BANDS, dtype=np.float32)

    def _conv(self, window: np.ndarray, x: np.ndarray, layer: str) -> np.ndarray:
        window[1:] = window[:-1]
        window[0] = x
        wc = self.weights[f"{layer}.W"]
        return np.tanh(window.reshape(-1) @ wc.reshape(-1, wc.shape[-1])
                       + self.weights[f"{layer}.b"])

    def _gru(self, i: int, x: np.ndarray, wx: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, h = self.cfg.gru_units, self._h[i]
        gx = x @ wx + b
        gh = h @ self.weights[f"en_gru{i + 1}.Wh"]
        z = _sigmoid(gx[:n] + gh[:n])
        r = _sigmoid(gx[n:2 * n] + gh[n:2 * n])
        cand = np.tanh(gx[2 * n:] + r * gh[2 * n:])
        h += z * (cand - h)
        return h

    def step(self, feature_vector: np.ndarray) -> float:
        """Advance one frame; results land in .gains / .strengths, VAD returned."""
        w = self.weights
        x = np.tanh(feature_vector @ w["en_dense_in.W"] + w["en_dense_in.b"])
        x = self._conv(self._conv1_in, x, "en_conv1")
        x = self._conv(self._conv2_in, x, "en_conv2")
        h = self._gru(0, x, w["en_gru1.Wx"][:self.cfg.conv_channels], self._gru1_b)
        vad = _sigmoid(h @ w["en_vad.W"] + w["en_vad.b"])
        for i in range(1, len(self._h)):
            h = self._gru(i, h, w[f"en_gru{i + 1}.Wx"], w[f"en_gru{i + 1}.b"])
        self.gains = _sigmoid(h @ w["en_gains.W"] + w["en_gains.b"])
        self.strengths = _sigmoid(np.concatenate([h, self.gains]) @ w["en_strengths.W"]
                                  + w["en_strengths.b"])
        return vad[0]
