"""Objective evaluation: SI-SNR, cosine probe, EER, VAD metrics, benchmarks.

SI-SNR substitutes for licensed perceptual metrics: the estimate is
projected onto the reference and the projection-to-residual energy ratio
reported in dB (capped at 60). The cosine probe embeds the processed
output with a frozen embedder and compares it against the ground-truth
target and interferer embeddings; a personalized system lands close to
the target cluster.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
from scipy.signal import correlate

from targetvoice.enhancer import EnhancerWeights
from targetvoice.frontend import HOP, SAMPLE_RATE

SI_SNR_CAP_DB = 60.0
ALIGN_MAX_SHIFT = 2400
VAD_THRESHOLD = 0.5
# benchmark_stream's untimed warm-up, the seed of its synthetic audio, and
# the frames its heap audit lets settle, then measures
BENCH_WARMUP_S = 1.0
BENCH_SEED = 0
BENCH_SETTLE_FRAMES = 2000
BENCH_AUDIT_FRAMES = 1000


class MetricError(ValueError):
    """Raised for degenerate metric inputs (silence, single-class labels)."""


# ---------------------------------------------------------------------------
# SI-SNR
# ---------------------------------------------------------------------------


def si_snr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant SNR in dB: project the estimate onto the reference.

    Invariant to positive scaling of the estimate; a perfect (scaled) match
    hits the cap. The reference must not be silent.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise MetricError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy <= 0.0:
        raise MetricError("silent reference; SI-SNR undefined")
    proj = (float(np.dot(est, ref)) / ref_energy) * ref
    residual = est - proj
    p = float(np.dot(proj, proj))
    r = float(np.dot(residual, residual))
    if r <= 0.0 or (p > 0 and 10.0 * np.log10(p / r) >= SI_SNR_CAP_DB):
        return SI_SNR_CAP_DB
    if p <= 0.0:
        return -SI_SNR_CAP_DB
    return float(10.0 * np.log10(p / r))


def align_signals(estimate: np.ndarray, reference: np.ndarray):
    """Latency-compensate by cross-correlation over +-ALIGN_MAX_SHIFT samples.

    Returns (estimate', reference') trimmed to their aligned overlap.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    n = min(len(est), len(ref))
    est, ref = est[:n], ref[:n]
    corr = correlate(est, ref, mode="full", method="fft")
    lags = np.arange(-n + 1, n)
    valid = np.abs(lags) <= ALIGN_MAX_SHIFT
    best = int(lags[valid][np.argmax(corr[valid])])
    if best >= 0:  # estimate lags reference by `best`
        est_a, ref_a = est[best:], ref[: n - best]
    else:
        est_a, ref_a = est[: n + best], ref[-best:]
    return est_a, ref_a


def si_snr_aligned(estimate: np.ndarray, reference: np.ndarray) -> float:
    est, ref = align_signals(estimate, reference)
    return si_snr(est, ref)


# ---------------------------------------------------------------------------
# Embedding cosine probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    cos_target: float
    cos_interference: float


def cosine_probe(output: np.ndarray, target: np.ndarray,
                 interferer: np.ndarray, embedder_net) -> ProbeResult:
    """Embed the processed output and both ground-truth references.

    Each argument is a signal's [T, 68] feature matrix (Frames.features).
    All three use the same frozen embedder; an ideal personalized system
    scores cos_target near 1 and cos_interference near 0.
    """
    from targetvoice.embedder import embed_utterance

    e_out, e_tgt, e_int = (embed_utterance(embedder_net, feats)
                           for feats in (output, target, interferer))
    return ProbeResult(
        cos_target=float(np.dot(e_out, e_tgt)),
        cos_interference=float(np.dot(e_out, e_int)),
    )


# ---------------------------------------------------------------------------
# Equal error rate
# ---------------------------------------------------------------------------


def eer(scores: np.ndarray, labels: np.ndarray) -> float:
    """EER of same/different-speaker scores (accept when score >= threshold).

    Sweeps every achievable operating point and linearly interpolates the
    crossing where the false-accept and false-reject rates meet.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels differ in length")
    n_same = int(labels.sum())
    n_diff = int((~labels).sum())
    if n_same == 0 or n_diff == 0:
        raise MetricError("need both same and different trials for EER")

    thresholds = np.concatenate(([np.inf], np.unique(scores)[::-1], [-np.inf]))
    far = np.array([np.sum(scores[~labels] >= t) / n_diff for t in thresholds])
    frr = np.array([np.sum(scores[labels] < t) / n_same for t in thresholds])
    diff = far - frr  # monotone nondecreasing along the sweep
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(far[k])
    f0, r0 = far[k - 1], frr[k - 1]
    f1, r1 = far[k], frr[k]
    denom = (f1 - f0) - (r1 - r0)
    alpha = (r0 - f0) / denom if denom != 0 else 0.0
    return float(f0 + alpha * (f1 - f0))


# ---------------------------------------------------------------------------
# VAD metrics
# ---------------------------------------------------------------------------


def vad_accuracy(pred: np.ndarray, labels: np.ndarray):
    """Accuracy / precision / recall at VAD_THRESHOLD; ties count as active."""
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64) > 0.5
    if p.shape != y.shape:
        raise MetricError(f"length mismatch: {p.shape} vs {y.shape}")
    active = p >= VAD_THRESHOLD
    tp = int(np.sum(active & y))
    tn = int(np.sum(~active & ~y))
    fp = int(np.sum(active & ~y))
    fn = int(np.sum(~active & y))
    total = max(tp + tn + fp + fn, 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return (tp + tn) / total, precision, recall


# ---------------------------------------------------------------------------
# Real-time benchmark
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkReport:
    realtime_factor: float
    cpu_fraction: float
    frames_processed: int
    duration_s: float
    alloc_net_bytes: int
    alloc_net_blocks: int

    def summary(self) -> str:
        return (
            f"realtime_factor = {self.realtime_factor:.2f}\n"
            f"cpu_fraction = {self.cpu_fraction:.4f}\n"
            f"frames_processed = {self.frames_processed}\n"
            f"duration_s = {self.duration_s:.1f}\n"
            f"alloc_net_bytes = {self.alloc_net_bytes}\n"
            f"alloc_net_blocks = {self.alloc_net_blocks}\n"
        )


def benchmark_stream(weights: EnhancerWeights | None = None, embedding=None,
                     duration_s: float = 10.0) -> BenchmarkReport:
    """Time the full pipeline on synthetic audio and audit heap growth.

    Wall time is measured after BENCH_WARMUP_S of untimed warm-up, without
    tracing. A separate untimed pass then runs under tracemalloc: after
    BENCH_SETTLE_FRAMES let the interpreter and numpy/scipy caches reach
    steady state, net traced bytes and live-object count are measured across
    BENCH_AUDIT_FRAMES. A warm stream holds both at zero up to sub-pointer-size
    pool jitter (observed well under 16 bytes/frame, versus the several
    kilobytes every frame of fresh buffers would cost).

    frames_processed is a pure function of duration.
    """
    from targetvoice.pipeline import StreamingEnhancer
    from targetvoice.synth import speech_shaped_noise

    audio = speech_shaped_noise(BENCH_SEED, BENCH_WARMUP_S + duration_s).samples.astype(np.float64)
    engine = StreamingEnhancer(weights, embedding)

    warm_hops = int(BENCH_WARMUP_S * SAMPLE_RATE) // HOP
    total_hops = len(audio) // HOP
    pos = 0
    for _ in range(warm_hops):
        engine.process(audio[pos : pos + HOP])
        pos += HOP

    frames_before = engine.frames_processed
    start = time.perf_counter()
    for _ in range(warm_hops, total_hops):
        engine.process(audio[pos : pos + HOP])
        pos += HOP
    elapsed = time.perf_counter() - start
    frames = engine.frames_processed - frames_before
    processed_s = frames * HOP / SAMPLE_RATE
    rtf = processed_s / max(elapsed, 1e-9)

    # allocation audit (untimed): net growth over a steady-state region
    audit_s = (BENCH_SETTLE_FRAMES + BENCH_AUDIT_FRAMES + 10) * HOP / SAMPLE_RATE
    audit_audio = speech_shaped_noise(BENCH_SEED + 1, audit_s).samples.astype(np.float64)
    tracemalloc.start()
    pos = 0
    for _ in range(BENCH_SETTLE_FRAMES):
        engine.process(audit_audio[pos : pos + HOP])
        pos += HOP
    gc.collect()
    objs_before = len(gc.get_objects())
    bytes_before, _ = tracemalloc.get_traced_memory()
    for _ in range(BENCH_AUDIT_FRAMES):
        engine.process(audit_audio[pos : pos + HOP])
        pos += HOP
    gc.collect()
    bytes_after, _ = tracemalloc.get_traced_memory()
    objs_after = len(gc.get_objects())
    tracemalloc.stop()

    return BenchmarkReport(
        realtime_factor=float(rtf),
        cpu_fraction=float(1.0 / rtf) if rtf > 0 else float("inf"),
        frames_processed=frames,
        duration_s=processed_s,
        alloc_net_bytes=int(bytes_after - bytes_before),
        alloc_net_blocks=int(objs_after - objs_before),
    )


# ---------------------------------------------------------------------------
# Evaluation reports (line-delimited JSON + summary row)
# ---------------------------------------------------------------------------


def write_report(path, rows: list[dict]) -> dict:
    """Write per-mixture rows plus a median summary row; returns the summary."""
    summary: dict = {"summary": True}
    if rows:
        keys = [k for k, v in rows[0].items()
                if isinstance(v, (int, float)) and k != "index"]
        for key in keys:
            summary[f"median_{key}"] = float(np.median([r[key] for r in rows]))
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    return summary


def read_report(path):
    rows = []
    summary = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("summary"):
                summary = row
            else:
                rows.append(row)
    return rows, summary
