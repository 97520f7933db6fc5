"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines. The
expensive fixtures (toy corpus, trained embedder, trained enhancer) are
shared module-wide, so criteria 6 and 7 reuse one training run.

Published full-scale figures are not reproducible at desk scale; these
criteria check structural constants and property-level behavior on the
synthetic toy corpus. Where a criterion names a figure from the full-scale
system (CPU fraction of a mobile core), the measured value is reported for
context, not asserted.
"""

import time

import numpy as np
import pytest

from targetvoice import embedder as em
from targetvoice import enhancer as en
from targetvoice import frontend as fe
from targetvoice import metrics as mt
from targetvoice import neural as nn
from targetvoice import synth as sy
from targetvoice.pipeline import enhance_audio, replay_controls
from targetvoice.weights_io import pack_weights
from tests.conftest import blas_core, finite_difference_params, tone


def _verdict(num, name, checks):
    """Print one line, naming the BLAS core; checks is a list of (label, ok, detail)."""
    ok = all(c[1] for c in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{label} {'ok' if good else 'FAILED'} ({info})"
                       for label, good, info in checks)
    print(f"\n[criterion {num}] {status} — {name}: {detail}; BLAS core {blas_core()}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared toy-scale fixtures (one training run for criteria 6 and 7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fbank():
    return fe.design_erb_filterbank()


@pytest.fixture(scope="module")
def toy_speakers():
    return sy.ToySpeakers(8, 0)


@pytest.fixture(scope="module")
def embedder_bundle(toy_speakers):
    train_set, heldout_set = sy.embedder_crop_sets(toy_speakers)
    config = em.EmbedderTrainConfig(steps=200, seed=0)
    net, scale, history, losses = em.train_embedder(train_set, heldout_set, config)
    return net, scale, history, losses, heldout_set


@pytest.fixture(scope="module")
def enhancer_bundle(toy_speakers, embedder_bundle):
    net_e = embedder_bundle[0]
    dataset, embeddings = sy.toy_enhancer_dataset(toy_speakers, net_e,
                                                  n_mixtures=96, seed=0)
    config = en.EnhancerTrainConfig(steps=1000, seed=0)
    net, losses = en.train_enhancer_toy(dataset, config)
    return net, losses, embeddings


# ---------------------------------------------------------------------------
# 1. Feature-space constants
# ---------------------------------------------------------------------------


def test_criterion_1_feature_space_constants(fbank):
    t0 = time.perf_counter()
    frames = fe.extract_features(0.1 * np.random.default_rng(0).standard_normal(9600))
    checks = [
        ("feature dim == 68", frames.features.shape[1:] == (68,), "68"),
        ("band count == 32", fbank.weights.shape[0] == 32, "32"),
        ("hop == 10 ms", fe.HOP == 480 and fe.HOP / fe.SAMPLE_RATE == 0.01, "480"),
        ("look-ahead == 30 ms",
         fe.LOOKAHEAD_FRAMES * fe.HOP * 1000 / fe.SAMPLE_RATE == 30.0,
         f"{fe.LOOKAHEAD_FRAMES} frames"),
        ("window == 2 hops", fe.WINDOW == 2 * fe.HOP, "960"),
    ]
    checks.append(("runtime", True, f"{time.perf_counter() - t0:.2f} s"))
    _verdict(1, "feature-space constants", checks)


# ---------------------------------------------------------------------------
# 2. Parameter-count calibration
# ---------------------------------------------------------------------------


def test_criterion_2_parameter_counts():
    t0 = time.perf_counter()
    n512 = en.EnhancerNet(en.EnhancerConfig.preset("ppn512")).n_params
    n1024 = en.EnhancerNet(en.EnhancerConfig.preset("ppn1024")).n_params
    checks = [
        ("ppn512 in 8.5M +- 20%", 6.8e6 <= n512 <= 10.2e6, f"{n512 / 1e6:.2f}M"),
        ("ppn1024 in 26.5M +- 20%", 21.2e6 <= n1024 <= 31.8e6, f"{n1024 / 1e6:.2f}M"),
        ("runtime", True, f"{time.perf_counter() - t0:.2f} s"),
    ]
    _verdict(2, "parameter-count calibration", checks)


# ---------------------------------------------------------------------------
# 3. Identity reconstruction
# ---------------------------------------------------------------------------


def test_criterion_3_identity_reconstruction():
    t0 = time.perf_counter()
    noise = sy.speech_shaped_noise(1, 10.0).samples.astype(np.float64)
    noise_snr = mt.si_snr_aligned(enhance_audio(noise), noise)
    pure = tone(440.0, 10.0)
    tone_snr = mt.si_snr_aligned(enhance_audio(pure), pure)
    checks = [
        ("speech-shaped noise >= 40 dB", noise_snr >= 40.0, f"{noise_snr:.1f} dB"),
        ("440 Hz tone >= 40 dB", tone_snr >= 40.0, f"{tone_snr:.1f} dB"),
        ("runtime", True, f"{time.perf_counter() - t0:.2f} s"),
    ]
    _verdict(3, "identity reconstruction", checks)


# ---------------------------------------------------------------------------
# 4. Filterbank partition + pitch tracker
# ---------------------------------------------------------------------------


def test_criterion_4_partition_and_pitch(fbank):
    t0 = time.perf_counter()
    partition_err = float(np.abs(fbank.weights.sum(axis=0) - 1.0).max())

    worst = 0.0
    for f0 in np.geomspace(62.5, 500.0, 20):
        t = np.arange(4000) / 48000.0
        x = (np.sin(2 * np.pi * f0 * t)
             + 0.4 * np.sin(2 * np.pi * 2 * f0 * t + 0.7)
             + 0.2 * np.sin(2 * np.pi * 3 * f0 * t + 1.1))
        est = fe.estimate_pitch(x[-1536:])
        err = abs((est.period or 0) - 48000.0 / f0)
        worst = max(worst, err)
    checks = [
        ("partition of unity <= 1e-6", partition_err <= 1e-6, f"{partition_err:.2e}"),
        ("pitch within +-1 sample over 20 F0s", worst <= 1.0, f"worst {worst:.2f}"),
        ("runtime", True, f"{time.perf_counter() - t0:.2f} s"),
    ]
    _verdict(4, "partition of unity and pitch tracking", checks)


# ---------------------------------------------------------------------------
# 5. Gradient suite
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    results = []

    def check(label, layer, x):
        probe = rng.standard_normal(layer.forward(x).shape)
        layer.zero_grads()
        layer.forward(x)
        layer.backward(probe)
        grads = {k: v.copy() for k, v in layer.grads().items()}
        worst = finite_difference_params(
            lambda: float(np.sum(layer.forward(x) * probe)),
            layer.params(), grads, rng, samples_per_param=5,
        )
        results.append((label, worst))

    x = rng.standard_normal((2, 8, 6))
    check("dense/linear", nn.Dense(6, 4, "linear", rng), x)
    check("dense/tanh", nn.Dense(6, 4, "tanh", rng), x)
    check("dense/sigmoid", nn.Dense(6, 4, "sigmoid", rng), x)
    check("conv1d", nn.CausalConv1d(6, 5, 3, "tanh", rng), x)
    check("gru", nn.GRU(6, 5, rng), x)

    # losses
    g = rng.uniform(0.05, 0.95, (3, 32))
    r = rng.uniform(0.05, 0.95, (3, 32))
    tg, tr = rng.uniform(0, 1, (2, 3, 32))
    _, dg, dr = en.gain_strength_loss(g, r, tg, tr)
    h = 1e-6
    worst = 0.0
    for idx in [(0, 5), (2, 20)]:
        up, down = g.copy(), g.copy()
        up[idx] += h
        down[idx] -= h
        numeric = (en.gain_strength_loss(up, r, tg, tr)[0]
                   - en.gain_strength_loss(down, r, tg, tr)[0]) / (2 * h)
        worst = max(worst, abs(numeric - dg[idx]) / max(abs(numeric), 1e-9))
    results.append(("gain_strength_loss", worst))

    p = rng.uniform(0.05, 0.95, 12)
    y = (rng.uniform(0, 1, 12) > 0.5).astype(float)
    _, dp = en.vad_loss(p, y)
    worst = 0.0
    for i in (1, 6):
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        numeric = (en.vad_loss(up, y)[0] - en.vad_loss(down, y)[0]) / (2 * h)
        worst = max(worst, abs(numeric - dp[i]) / max(abs(numeric), 1e-9))
    results.append(("vad_loss", worst))

    emb = rng.standard_normal((3, 3, 6))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    _, d_emb, dw, _ = em.ge2e_loss(emb, 7.0, -3.0)
    worst = 0.0
    for idx in [(0, 1, 2), (2, 0, 4)]:
        up, down = emb.copy(), emb.copy()
        up[idx] += h
        down[idx] -= h
        numeric = (em.ge2e_loss(up, 7.0, -3.0)[0]
                   - em.ge2e_loss(down, 7.0, -3.0)[0]) / (2 * h)
        worst = max(worst, abs(numeric - d_emb[idx]) / max(abs(numeric), 1e-9))
    results.append(("ge2e_loss", worst))

    # composed: embedder network through GE2E
    se = em.EmbedderNet(em.EmbedderConfig(conv_channels=6, gru_units=5,
                                          embedding_dim=4), seed=1)
    feats = 0.3 * rng.standard_normal((4, 10, 68))

    def se_loss():
        e = se.forward_batch(feats).reshape(2, 2, -1)
        return em.ge2e_loss(e, 8.0, -4.0)[0]

    se.zero_grads()
    e = se.forward_batch(feats).reshape(2, 2, -1)
    _, d_emb, _, _ = em.ge2e_loss(e, 8.0, -4.0)
    se.backward_batch(d_emb.reshape(4, -1))
    grads = {k: v.copy() for k, v in se.grads().items()}
    results.append(("embedder+ge2e composed",
                    finite_difference_params(se_loss, se.params(), grads, rng,
                                             samples_per_param=3)))

    # composed: enhancer network through both losses
    cfg = en.EnhancerConfig(gru_units=12, n_gru_layers=2, dense_units=8,
                            conv_channels=10, embedding_dim=4)
    net = en.EnhancerNet(cfg, seed=2)
    ef = rng.standard_normal((2, 7, 68))
    ee = rng.standard_normal((2, 4))
    ee /= np.linalg.norm(ee, axis=-1, keepdims=True)
    tg = rng.uniform(0, 1, (2, 7, 32))
    tr = rng.uniform(0, 1, (2, 7, 32))
    tv = (rng.uniform(0, 1, (2, 7)) > 0.5).astype(float)

    def full_loss():
        gg, ss, vv = net.forward(ef, ee)
        l1, _, _ = en.gain_strength_loss(gg, ss, tg, tr)
        l2, _ = en.vad_loss(vv, tv)
        return l1 + l2

    net.zero_grads()
    gg, ss, vv = net.forward(ef, ee)
    _, dgg, dss = en.gain_strength_loss(gg, ss, tg, tr)
    _, dvv = en.vad_loss(vv, tv)
    net.backward(dgg, dss, dvv)
    grads = {k: v.copy() for k, v in net.grads().items()}
    results.append(("enhancer composed",
                    finite_difference_params(full_loss, net.params(), grads, rng,
                                             samples_per_param=3)))

    checks = [(label, worst < 1e-4, f"{worst:.2e}") for label, worst in results]
    checks.append(("runtime", True, f"{time.perf_counter() - t0:.1f} s"))
    _verdict(5, "finite-difference gradient suite", checks)


# ---------------------------------------------------------------------------
# 6. Oracle-mask separation
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_mask_separation(toy_speakers, embedder_bundle):
    t0 = time.perf_counter()
    net_e = embedder_bundle[0]
    mixtures = sy.toy_eval_mixtures(toy_speakers, n_mixtures=50, seed=200,
                                    snr_db=0.0, sir_db=5.0)
    gains_db, cos_t, cos_i = [], [], []
    for example, _, _ in mixtures:
        mix = example.mixture.samples.astype(np.float64)
        ref = example.clean_target.samples.astype(np.float64)
        out = replay_controls(mix, example.targets.gains,
                              np.zeros_like(example.targets.strengths))
        gains_db.append(mt.si_snr_aligned(out, ref) - mt.si_snr_aligned(mix, ref))
        probe = mt.cosine_probe(*(fe.extract_features(x).features
                                  for x in (out, ref, example.interferer.samples)), net_e)
        cos_t.append(probe.cos_target)
        cos_i.append(probe.cos_interference)

    median_gain = float(np.median(gains_db))
    sep = float(np.median(cos_t) - np.median(cos_i))
    checks = [
        ("median SI-SNR gain >= 5 dB", median_gain >= 5.0, f"{median_gain:.2f} dB"),
        ("median cos_target > median cos_interf",
         np.median(cos_t) > np.median(cos_i),
         f"{np.median(cos_t):.3f} vs {np.median(cos_i):.3f}"),
        ("cluster separation >= 0.2", sep >= 0.2, f"{sep:.3f}"),
        ("runtime", True, f"{time.perf_counter() - t0:.1f} s"),
    ]
    _verdict(6, "oracle-mask separation (50 mixtures, 0 dB SNR / 5 dB SIR)", checks)


# ---------------------------------------------------------------------------
# 7. Toy personalization end to end
# ---------------------------------------------------------------------------


def test_criterion_7_toy_personalization(toy_speakers, embedder_bundle,
                                         enhancer_bundle):
    t0 = time.perf_counter()
    net_e, _, history, se_losses, heldout_set = embedder_bundle
    net_h, losses, embeddings = enhancer_bundle
    final_eer = history[-1][1]

    # EER strictly decreases from its untrained value
    untrained = em.EmbedderNet(em.EmbedderConfig.toy(), seed=0)
    scores, labels = em.verification_trials(untrained, heldout_set)
    untrained_eer = mt.eer(scores, labels)

    # GE2E loss finite and non-increasing in 10-step moving average early on
    early = np.asarray(se_losses[:100])
    moving = np.convolve(early, np.ones(10) / 10.0, mode="valid")
    loss_trend_ok = (np.all(np.isfinite(early))
                     and moving[-1] < moving[0]
                     and np.all(moving[1:] <= moving[:-1] * 1.25 + 1e-9))

    # embedder sanity: same speaker beats cross-speaker similarity
    same_spk = [float(np.dot(
        em.embed_utterance(net_e, heldout_set[s][0]),
        em.embed_utterance(net_e, heldout_set[s][1]))) for s in heldout_set]
    cross = [float(np.dot(
        em.embed_utterance(net_e, heldout_set[a][0]),
        em.embed_utterance(net_e, heldout_set[b][0])))
        for a in heldout_set for b in heldout_set if a < b]
    same_beats_cross = min(same_spk) > float(np.mean(cross))

    mixtures = sy.toy_eval_mixtures(toy_speakers, n_mixtures=50, seed=100)
    wins = 0
    active_correct = 0
    active_total = 0
    vad_target_only: list[float] = []
    vad_interf_only: list[float] = []
    weights_h = net_h.float32_weights()
    for example, spk_a, spk_b in mixtures:
        mix = example.mixture.samples.astype(np.float64)
        ref = example.clean_target.samples.astype(np.float64)
        out_a = enhance_audio(mix, weights_h, embeddings[spk_a])
        out_b = enhance_audio(mix, weights_h, embeddings[spk_b])
        if mt.si_snr_aligned(out_a, ref) > mt.si_snr_aligned(out_b, ref):
            wins += 1
        feats = fe.extract_features(mix).features
        _, _, vad = en.EnhancerSession(weights_h, embeddings[spk_a]).step(feats)
        out_t, lab_t = en.lookahead_slices(len(vad), len(example.targets.vad))
        vad = vad[out_t]
        active = example.targets.vad[lab_t] > 0.5
        active_total += int(active.sum())
        active_correct += int(np.sum(vad[active] >= 0.5))
        # personalization: the VAD must stay low when only the interferer talks
        interf_feats = fe.extract_features(example.interferer.samples.astype(np.float64)).features
        interf_log_e = interf_feats[lab_t, -2].astype(np.float64)
        interf_active = en.vad_labels_from_energy(interf_log_e) > 0.5
        vad_target_only.extend(vad[active[: len(interf_active)] & ~interf_active])
        vad_interf_only.extend(vad[interf_active & ~active[: len(interf_active)]])

    vad_active_acc = active_correct / max(active_total, 1)
    personalization_ok = (bool(vad_interf_only) and bool(vad_target_only)
                          and np.mean(vad_interf_only) < np.mean(vad_target_only))
    checks = [
        ("held-out EER < 20%", final_eer < 0.20, f"{100 * final_eer:.1f}%"),
        ("EER below untrained value", final_eer < untrained_eer,
         f"{100 * final_eer:.1f}% vs {100 * untrained_eer:.1f}%"),
        ("GE2E loss finite, moving average trending down", loss_trend_ok,
         f"{moving[0]:.1f} -> {moving[-1]:.1f}"),
        ("embedder same>cross", same_beats_cross,
         f"min same {min(same_spk):.2f} vs mean cross {np.mean(cross):.2f}"),
        ("enhancer trained <= 2000 steps", len(losses) <= 2000, f"{len(losses)}"),
        ("training loss halved", losses and
         float(np.mean(losses[-50:])) < 0.5 * float(np.mean(losses[:10])),
         f"{np.mean(losses[:10]):.2f} -> {np.mean(losses[-50:]):.2f}"),
        ("conditioning wins >= 90%", wins >= 45, f"{wins}/50"),
        ("VAD accuracy on target-active frames > 90%", vad_active_acc > 0.90,
         f"{100 * vad_active_acc:.1f}%"),
        ("VAD personalized (interferer-only < target-only)", personalization_ok,
         f"{np.mean(vad_interf_only):.2f} vs {np.mean(vad_target_only):.2f}"),
        ("runtime", True, f"{time.perf_counter() - t0:.1f} s (fixtures excluded)"),
    ]
    _verdict(7, "toy personalization end to end", checks)


# ---------------------------------------------------------------------------
# 8. Real-time gate
# ---------------------------------------------------------------------------


def test_criterion_8_realtime_gate():
    t0 = time.perf_counter()
    net = en.EnhancerNet(en.EnhancerConfig.preset("ppn512"), seed=0)
    rng = np.random.default_rng(0)
    emb = rng.standard_normal(net.config.embedding_dim)
    emb /= np.linalg.norm(emb)
    report = mt.benchmark_stream(net.float32_weights(), emb, duration_s=5.0)
    per_frame_bytes = report.alloc_net_bytes / 1000.0
    checks = [
        ("realtime_factor > 1", report.realtime_factor > 1.0,
         f"{report.realtime_factor:.2f}x"),
        ("no per-frame heap growth after warm-up",
         abs(report.alloc_net_blocks) <= 16 and per_frame_bytes < 16.0,
         f"{report.alloc_net_blocks} objects, {per_frame_bytes:.1f} B/frame"),
        ("cpu_fraction (reported, not asserted; 4.7% of a mobile core "
         "published for the full-scale system)", True,
         f"{100 * report.cpu_fraction:.1f}% of this core"),
        ("runtime", True, f"{time.perf_counter() - t0:.1f} s"),
    ]
    _verdict(8, "real-time gate (PPN-512)", checks)


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(toy_speakers, tmp_path):
    t0 = time.perf_counter()

    # mixtures
    target = sy.synth_speaker(21, 2.0)
    interf = sy.synth_speaker(22, 2.0)
    noise = sy.synth_noise(23, 2.0)
    spec = sy.MixtureSpec(snr_db=6.0, sir_db=2.0, seed=99)
    mix_a = sy.make_mixture(spec, target, interf, noise)
    mix_b = sy.make_mixture(spec, target, interf, noise)
    mixtures_ok = (np.array_equal(mix_a.mixture.samples, mix_b.mixture.samples)
                   and np.array_equal(mix_a.targets.gains, mix_b.targets.gains))

    # features (batch and sample-by-sample streaming)
    audio = mix_a.mixture.samples
    feats_a = fe.extract_features(audio).features
    feats_b = fe.extract_features(audio).features
    stream = fe.FeatureStream()
    streamed = np.concatenate([stream.push(audio[i : i + 733]).features
                               for i in range(0, len(audio), 733)])
    features_ok = (np.array_equal(feats_a, feats_b)
                   and np.array_equal(feats_a, streamed))

    # trained weights: short runs, bit-identical serialized bytes
    train_set, heldout_set = sy.embedder_crop_sets(toy_speakers)
    cfg_e = em.EmbedderTrainConfig(steps=20, seed=5)
    blobs = []
    for _ in range(2):
        net, _, _, _ = em.train_embedder(train_set, heldout_set, cfg_e)
        blobs.append(pack_weights("embedder", em.embedder_entries(net)))
    embedder_ok = blobs[0] == blobs[1]

    dataset, _ = sy.toy_enhancer_dataset(toy_speakers, net, n_mixtures=8,
                                         seed=3)
    cfg_h = en.EnhancerTrainConfig(steps=25, seed=5)
    blobs = []
    for _ in range(2):
        net_h, _ = en.train_enhancer_toy(dataset, cfg_h)
        blobs.append(pack_weights("enhancer", en.enhancer_entries(net_h)))
    enhancer_ok = blobs[0] == blobs[1]

    # reports
    rows = [{"index": 0, "si_snr_out": float(mt.si_snr_aligned(
        enhance_audio(audio.astype(np.float64)),
        audio.astype(np.float64)))}]
    p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    mt.write_report(p1, rows)
    mt.write_report(p2, rows)
    reports_ok = p1.read_bytes() == p2.read_bytes()

    checks = [
        ("mixtures bit-identical", mixtures_ok, "make_mixture x2"),
        ("features bit-identical (batch == stream)", features_ok, "chunk 733"),
        ("embedder weights bit-identical", embedder_ok, "20 steps x2"),
        ("enhancer weights bit-identical", enhancer_ok, "25 steps x2"),
        ("reports bit-identical", reports_ok, "write_report x2"),
        ("runtime", True, f"{time.perf_counter() - t0:.1f} s"),
    ]
    _verdict(9, "determinism under fixed seeds", checks)
