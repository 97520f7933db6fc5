"""Speaker embedder: feature sequences to unit-norm identity vectors.

The network is two causal convolutions over the 68-dim frame features
followed by two GRU layers; the final GRU's output at the last frame is
projected and L2-normalized into the speaker embedding. Training uses the
generalized end-to-end softmax verification loss: each utterance embedding
is pulled toward its own speaker centroid (computed leave-one-out) and
pushed from the other speakers' centroids via scaled-cosine softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from targetvoice.frontend import FEATURE_DIM
from targetvoice.neural import Adam, CausalConv1d, Dense, GRU, Net
from targetvoice.weights_io import check_shapes, read_meta

MIN_EMBED_FRAMES = 50  # 0.5 s
ENROLL_CROP_FRAMES = 599  # 6 s

# GE2E batches: speakers per batch, utterances per speaker
GE2E_SPEAKERS = 8
GE2E_UTTERANCES = 4
MIN_SPEAKERS = 4  # the fewest train_embedder accepts

# training steps between held-out EER checkpoints (and the last step)
EVAL_EVERY = 50

GE2E_W_INIT = 10.0
GE2E_B_INIT = -5.0
GE2E_W_MIN = 1e-4


@dataclass(frozen=True)
class EmbedderConfig:
    conv_channels: int = 128
    gru_units: int = 256
    embedding_dim: int = 128

    @classmethod
    def toy(cls) -> "EmbedderConfig":
        return cls(conv_channels=24, gru_units=32, embedding_dim=16)


class EmbedderNet(Net):
    """Conv x2 -> GRU x2 -> last-frame dense -> L2 normalize."""

    def _build(self, rng) -> None:
        cfg = self.config
        ch, units, dim = cfg.conv_channels, cfg.gru_units, cfg.embedding_dim
        self.conv1 = CausalConv1d(FEATURE_DIM, ch, 3, "tanh", rng, "se_conv1")
        self.conv2 = CausalConv1d(ch, ch, 3, "tanh", rng, "se_conv2")
        self.gru1 = GRU(ch, units, rng, "se_gru1")
        self.gru2 = GRU(units, units, rng, "se_gru2")
        self.proj = Dense(units, dim, "linear", rng, "se_proj")
        self.layers = [self.conv1, self.conv2, self.gru1, self.gru2, self.proj]
        self._cache = None

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        """Embed a [B, T, 68] batch of equal-length sequences -> [B, E]."""
        h = self.conv1.forward(features)
        h = self.conv2.forward(h)
        h = self.gru1.forward(h)
        h_seq = self.gru2.forward(h)
        last = h_seq[:, -1, :]
        raw = self.proj.forward(last)
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
        norms = np.maximum(norms, 1e-12)
        emb = raw / norms
        self._cache = (h_seq.shape, raw, norms, emb)
        return emb

    def backward_batch(self, d_emb: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        seq_shape, raw, norms, emb = self._cache
        # y = raw / ||raw||: dy/draw = (I - y y^T) / ||raw||
        inner = np.sum(d_emb * emb, axis=-1, keepdims=True)
        d_raw = (d_emb - emb * inner) / norms
        d_last = self.proj.backward(d_raw)
        d_seq = np.zeros(seq_shape)
        d_seq[:, -1, :] = d_last
        d = self.gru2.backward(d_seq)
        d = self.gru1.backward(d)
        d = self.conv2.backward(d)
        self.conv1.backward(d)


def embed_utterance(net: EmbedderNet, features: np.ndarray) -> np.ndarray:
    """Map a [T, 68] feature sequence (T >= 50) to a unit-norm embedding."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected [T, {FEATURE_DIM}] features, got {features.shape}")
    if features.shape[0] < MIN_EMBED_FRAMES:
        raise ValueError(
            f"sequence too short: {features.shape[0]} frames, need >= {MIN_EMBED_FRAMES}"
        )
    return net.forward_batch(features[None])[0]


def enroll_embedding(net: EmbedderNet, features: np.ndarray) -> np.ndarray:
    """Average embeddings of non-overlapping crops and re-normalize.

    Enrollment audio longer than one crop (ENROLL_CROP_FRAMES, 6 s)
    contributes one embedding per full crop; shorter audio is embedded whole.
    """
    features = np.asarray(features, dtype=np.float64)
    total = features.shape[0]
    if total < MIN_EMBED_FRAMES:
        raise ValueError(f"enrollment too short: {total} frames")
    n_crops = max(1, total // ENROLL_CROP_FRAMES)
    embs = []
    for i in range(n_crops):
        crop = features[i * ENROLL_CROP_FRAMES : (i + 1) * ENROLL_CROP_FRAMES]
        embs.append(embed_utterance(net, crop))
    mean = np.mean(embs, axis=0)
    return mean / max(np.linalg.norm(mean), 1e-12)


# ---------------------------------------------------------------------------
# Generalized end-to-end loss
# ---------------------------------------------------------------------------


def ge2e_loss(embeddings: np.ndarray, w: float, b: float):
    """GE2E softmax loss over an [N, M, E] embedding batch.

    Similarities are w * cos(e_ji, c_k) + b against every speaker centroid,
    with the query's own centroid computed leave-one-out. The loss sums the
    softmax cross-entropy of each utterance against its own speaker.

    Returns (loss, d_embeddings, dw, db).
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 3:
        raise ValueError(f"expected [N, M, E] embeddings, got {emb.shape}")
    n_spk, n_utt, dim = emb.shape
    if n_spk < 2 or n_utt < 2:
        raise ValueError(f"need N >= 2 speakers and M >= 2 utterances, "
                         f"got N={n_spk}, M={n_utt}")
    w = max(float(w), GE2E_W_MIN)

    sums = emb.sum(axis=1)                      # [N, E]
    cent_full = sums / n_utt                    # [N, E]

    # centroid matrix per query: own speaker leave-one-out
    cents = np.broadcast_to(cent_full, (n_spk, n_utt, n_spk, dim)).copy()
    for j in range(n_spk):
        cents[j, :, j, :] = (sums[j][None, :] - emb[j]) / (n_utt - 1)

    cnorm = np.linalg.norm(cents, axis=-1)
    enorm = np.linalg.norm(emb, axis=-1)
    dots = np.einsum("jie,jike->jik", emb, cents)
    denom = np.maximum(enorm[:, :, None] * cnorm, 1e-12)
    cos = dots / denom
    sim = w * cos + b

    shifted = sim - sim.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=-1, keepdims=True)
    log_post = shifted - np.log(exp.sum(axis=-1, keepdims=True))
    own = np.arange(n_spk)
    loss = -float(log_post[own, :, own].sum())

    g_sim = softmax.copy()
    g_sim[own, :, own] -= 1.0                   # dL/d sim

    dw = float(np.sum(g_sim * cos))
    db = float(np.sum(g_sim))

    # dL/d cos -> gradients on queries and centroids
    g_cos = g_sim * w
    d_emb = np.zeros_like(emb)
    inv = 1.0 / denom
    # query path: d cos/d e = c/(|e||c|) - cos * e/|e|^2
    d_emb += np.einsum("jik,jike->jie", g_cos * inv, cents)
    d_emb -= emb * np.einsum(
        "jik->ji", g_cos * cos / np.maximum(enorm[:, :, None] ** 2, 1e-12)
    )[:, :, None]
    # centroid path: d cos/d c = e/(|e||c|) - cos * c/|c|^2
    d_cent = (g_cos * inv)[..., None] * emb[:, :, None, :]
    d_cent -= (g_cos * cos / np.maximum(cnorm ** 2, 1e-12))[..., None] * cents
    # scatter centroid gradients back to their member embeddings
    for j in range(n_spk):
        for i in range(n_utt):
            for k in range(n_spk):
                if k == j:
                    grad = d_cent[j, i, k] / (n_utt - 1)
                    d_emb[j] += grad
                    d_emb[j, i] -= grad
                else:
                    d_emb[k] += d_cent[j, i, k] / n_utt
    return loss, d_emb, dw, db


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class EmbedderTrainConfig:
    """Training of the toy embedder, EmbedderConfig.toy(); seed draws its
    initial weights and its batches."""

    steps: int = 200
    seed: int = 0


def train_embedder(train_set: dict, heldout_set: dict, config: EmbedderTrainConfig,
                   log=None):
    """Train an embedder with GE2E batches of equal-length feature crops.

    train_set / heldout_set map speaker id -> list of [T, 68] arrays (all T
    equal). Returns (net, ge2e_scale, history, losses) where history is a
    list of (step, heldout_eer, mean_loss) checkpoints and losses the
    per-step GE2E loss.
    """
    from targetvoice.metrics import eer as compute_eer

    speakers = sorted(train_set)
    if len(speakers) < MIN_SPEAKERS:
        raise ValueError(f"need >= {MIN_SPEAKERS} speakers, got {len(speakers)}")
    for spk in speakers:
        if len(train_set[spk]) < 4:
            raise ValueError(f"speaker {spk!r} has < 4 utterances")

    rng = np.random.default_rng(config.seed)
    net = EmbedderNet(EmbedderConfig.toy(), seed=config.seed)
    w = np.array([GE2E_W_INIT])
    b = np.array([GE2E_B_INIT])
    params = dict(net.params())
    params["ge2e.w"] = w
    params["ge2e.b"] = b
    opt = Adam(params)

    n_spk = min(GE2E_SPEAKERS, len(speakers))
    n_utt = GE2E_UTTERANCES
    history = []
    losses = []
    for step in range(1, config.steps + 1):
        chosen = rng.choice(len(speakers), size=n_spk, replace=False)
        batch = []
        for idx in chosen:
            utts = train_set[speakers[idx]]
            picks = rng.choice(len(utts), size=n_utt, replace=len(utts) < n_utt)
            batch.extend(utts[p] for p in picks)
        feats = np.stack(batch).astype(np.float64)

        net.zero_grads()
        emb = net.forward_batch(feats).reshape(n_spk, n_utt, -1)
        loss, d_emb, dw, db = ge2e_loss(emb, float(w[0]), float(b[0]))
        net.backward_batch(d_emb.reshape(n_spk * n_utt, -1))

        grads = dict(net.grads())
        grads["ge2e.w"] = np.array([dw])
        grads["ge2e.b"] = np.array([db])
        opt.step(grads)
        w[0] = max(w[0], GE2E_W_MIN)
        losses.append(loss)

        if step % EVAL_EVERY == 0 or step == config.steps:
            scores, labels = verification_trials(net, heldout_set)
            err = compute_eer(scores, labels)
            history.append((step, err, float(np.mean(losses[-EVAL_EVERY:]))))
            if log:
                log(f"step {step}: ge2e loss {np.mean(losses[-20:]):.3f}, "
                    f"held-out EER {err:.3f}")
    return net, float(w[0]), history, losses


def verification_trials(net: EmbedderNet, utterances: dict):
    """All-pairs cosine trials over a speaker -> crops mapping."""
    embs = []
    spk_ids = []
    for spk in sorted(utterances):
        feats = np.stack(utterances[spk]).astype(np.float64)
        for e in net.forward_batch(feats):
            embs.append(e)
            spk_ids.append(spk)
    scores, labels = [], []
    for i in range(len(embs)):
        for j in range(i + 1, len(embs)):
            scores.append(float(np.dot(embs[i], embs[j])))
            labels.append(spk_ids[i] == spk_ids[j])
    return np.array(scores), np.array(labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def embedder_entries(net: EmbedderNet) -> list[tuple[str, str, np.ndarray]]:
    return net.entries(vars(net.config))


def _param_shapes(cfg: EmbedderConfig):
    """(name, shape) of every parameter EmbedderNet(cfg) holds, in order."""
    ch, units, dim = cfg.conv_channels, cfg.gru_units, cfg.embedding_dim
    yield "se_conv1.W", (3, FEATURE_DIM, ch)
    yield "se_conv1.b", (ch,)
    yield "se_conv2.W", (3, ch, ch)
    yield "se_conv2.b", (ch,)
    for name, n_in in (("se_gru1", ch), ("se_gru2", units)):
        yield f"{name}.Wx", (n_in, 3 * units)
        yield f"{name}.Wh", (units, 3 * units)
        yield f"{name}.b", (3 * units,)
    yield "se_proj.W", (units, dim)
    yield "se_proj.b", (dim,)


def embedder_from_entries(entries: dict) -> EmbedderNet:
    """The net a weight file holds; WeightsFormatError before any allocation."""
    config = EmbedderConfig(**read_meta(entries, vars(EmbedderConfig()), "embedder"))
    shapes = list(_param_shapes(config))
    check_shapes(entries, shapes, "embedder")
    return EmbedderNet.from_arrays(config, {name: entries[name][1] for name, _ in shapes})
