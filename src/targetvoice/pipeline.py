"""The streaming enhancement engine: features -> model -> comb -> resynthesis.

process() hands its input to a FeatureStream, at most 16 hops per push,
and walks the rows of each returned Frames record: the model steps once on
its features, and each row's pitch period and analysis spectrum wait in a
three-frame queue. Row t's gains and pitch-filter strengths apply to the
frame three hops behind it — the model has consumed features up to frame
t+3 before the output for frame t is synthesized, which realizes the
30 ms look-ahead as a delay line at the feature/output boundary. A one-hop
push and a whole file take this one path. The model sees exactly the rows
of extract_features(); the straddle frame in front of them (see
StreamingEnhancer) is synthesis-only.

Stream timing: process() returns 480 output samples per 480 input samples
with a fixed 1920-sample (40 ms) delay — 10 ms from the synthesis overlap
plus the 30 ms look-ahead. run_whole() is process() plus flush(): it trims
that delay and returns the VAD that the process() call left in vad_block.

Without a model (identity mode: gains 1, strengths 0) the engine is an
exact pass-through reconstructor; oracle evaluation replays known controls
through it (replay_controls).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from targetvoice.comb import CombState, OverlapAddSynthesizer, apply_per_band
from targetvoice.enhancer import EnhancerSession, EnhancerWeights
from targetvoice.frontend import (
    HOP,
    LOOKAHEAD_FRAMES,
    N_BANDS,
    VORBIS_WINDOW,
    ErbFilterbank,
    FeatureStream,
    check_filterbank,
)

# input samples per FeatureStream push, 16 hops at most: a whole-file
# process() holds one piece's record and kernel scratch at a time, and on 8 s
# of float32 input peaks at 5.8 MB (tracemalloc) against 8.3 MB at 32 hops
PIECE_SAMPLES = 16 * HOP


class ControlReplay:
    """Known per-frame controls in the model session's place.

    Row t of the [T, 32] gains and strengths belongs to frame t of
    extract_features on the engine's input. Like the model, step t supplies
    frame t - LOOKAHEAD_FRAMES's controls; the straddle frame and the tail
    frames take the nearest row. Its step takes and returns blocks as the
    model's does; the VAD reads 0.
    """

    def __init__(self, gains: np.ndarray, strengths: np.ndarray):
        self._gains = np.asarray(gains, dtype=np.float64)
        self._strengths = np.asarray(strengths, dtype=np.float64)
        if (self._gains.shape[1:] != (N_BANDS,) or not len(self._gains)
                or self._strengths.shape != self._gains.shape):
            raise ValueError(f"gains {self._gains.shape} and strengths "
                             f"{self._strengths.shape} must both be [T, {N_BANDS}], T >= 1")
        self._steps = 0

    def step(self, features: np.ndarray):
        first, self._steps = self._steps, self._steps + len(features)
        t = np.clip(np.arange(first, self._steps) - LOOKAHEAD_FRAMES, 0, len(self._gains) - 1)
        self.gains, self.strengths = self._gains[t[-1]], self._strengths[t[-1]]
        return self._gains[t], self._strengths[t], np.zeros(len(t))


class StreamingEnhancer:
    """One real-time enhancement session (single stream, single thread).

    The engine's first frame straddles the stream start: a hop of silence,
    then the first input hop. A FeatureStream of its own frames those 960
    samples; the frame gets no model step, and it makes reconstruction
    exact from the first sample. Every later frame is a row of the engine's
    FeatureStream, which frames the input as extract_features does. The
    session runs on the read-only float32 `weights`, and every mutable
    buffer lives in this object.
    `session` supplies the per-frame controls, one step per record of
    frames: an EnhancerSession, a ControlReplay, or None (identity). Only
    samples received while `session` is set enter the comb ring, which
    only the controls read: a session set mid-stream combs against silence
    for the samples before it until the ring has refilled, nine hops
    later. `fb` is only checked (frontend.check_filterbank); it stays
    while the benchmark passes one.
    """

    DELAY_SAMPLES = (LOOKAHEAD_FRAMES + 1) * HOP  # 40 ms stream delay

    def __init__(self, weights: EnhancerWeights | None = None,
                 embedding: np.ndarray | None = None,
                 fb: ErbFilterbank | None = None):
        check_filterbank(fb)
        if weights is not None and embedding is None:
            raise ValueError("a model needs a speaker embedding")
        self.session = None if weights is None else EnhancerSession(weights, embedding)

        self.features = FeatureStream()
        self.comb = CombState()
        self.ola = OverlapAddSynthesizer()
        # pitch period (0 when unvoiced) and analysis spectrum row of each
        # frame awaiting its look-ahead output
        self._frame_queue: deque[tuple[int, np.ndarray]] = deque()
        self._first_hop = np.zeros(0)  # the straddle frame's input until it is complete
        self._received = 0  # input samples
        self.frames_processed = 0
        self.last_vad = 0.0
        self.vad_block = None  # the VAD of every row the last process() stepped, or None

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed arbitrary-length audio; returns the ready output samples.

        Output lags input by exactly DELAY_SAMPLES; each completed frame gives
        one hop. Frame t ends at input sample (t + 1) * HOP, and the comb ring
        then holds the input up to there: its window is frame t - 3, whose
        spectrum heads the queue and takes the controls of the step on frame t.
        """
        x = np.asarray(samples).ravel()
        start, self._received = self._received, self._received + len(x)
        first = start // HOP  # the first frame this push can complete
        out = np.zeros((self._received // HOP - first) * HOP)
        combing = self.session is not None
        fed = 0  # x[:fed] is in the comb ring
        vads = []  # each stepped record's [k] VAD
        if start < HOP:  # the straddle frame: a hop of silence, then the first hop
            self._first_hop = np.concatenate([self._first_hop, x[: HOP - start]])
            if len(self._first_hop) == HOP:
                row = FeatureStream().push(np.concatenate([np.zeros(HOP), self._first_hop]))
                self._frame_queue.append((int(row.periods[0]), row.spectra[0]))
                self.frames_processed = 1
        for lo in range(0, len(x), PIECE_SAMPLES):
            rows = self.features.push(x[lo : lo + PIECE_SAMPLES])
            if combing and len(rows.features):
                gains, strengths, vad = self.session.step(rows.features)
                vads.append(vad)
                self.last_vad = float(vad[-1])
            for i, (period, spec) in enumerate(zip(rows.periods.tolist(), rows.spectra)):
                t = self.frames_processed
                self.frames_processed += 1
                self._frame_queue.append((period, spec))
                if combing:
                    end = (t + 1) * HOP - start  # frame t's end in x
                    self.comb.push(x[fed:end])
                    fed = end
                if len(self._frame_queue) <= LOOKAHEAD_FRAMES:
                    continue  # still filling the look-ahead delay line
                due_period, out_spec = self._frame_queue.popleft()
                if combing:
                    if due_period and float(np.max(strengths[i])) > 1e-6:
                        combed = self.comb.filter_window(due_period)
                        comb_spec = np.fft.rfft(combed * VORBIS_WINDOW)
                    else:
                        comb_spec = out_spec
                    out_spec = apply_per_band(out_spec, comb_spec, gains[i], strengths[i])
                out[(t - first) * HOP : (t - first + 1) * HOP] = self.ola.push(out_spec)
        if combing and fed < len(x):
            self.comb.push(x[fed:])  # the input past the last frame's end
        self.vad_block = vads[0] if len(vads) == 1 else np.concatenate(vads) if vads else None
        return out

    def flush(self) -> np.ndarray:
        """Pad with silence until every buffered input sample is emitted."""
        pad = -self._received % HOP + self.DELAY_SAMPLES
        return self.process(np.zeros(pad))


def enhance_audio(audio: np.ndarray, weights: EnhancerWeights | None = None,
                  embedding: np.ndarray | None = None) -> np.ndarray:
    """Process a whole buffer; output is delay-compensated and equal length."""
    return run_whole(StreamingEnhancer(weights, embedding), audio)[0]


def replay_controls(audio: np.ndarray, gains: np.ndarray,
                    strengths: np.ndarray) -> np.ndarray:
    """enhance_audio with known [T, 32] controls (see ControlReplay) for a model.

    Used by the oracle-mask harnesses, where the controls come from ground truth.
    """
    engine = StreamingEnhancer()
    engine.session = ControlReplay(gains, strengths)
    return run_whole(engine, audio)[0]


def run_whole(engine: StreamingEnhancer, audio: np.ndarray):
    """A fresh engine's delay-compensated output on a whole buffer, and the
    [T] VAD of extract_features(audio)'s T rows (None without a session).

    The VAD is read before the flush, whose padding rows are not the input's.
    """
    x = np.asarray(audio, dtype=np.float64)
    out = engine.process(x)
    vad = engine.vad_block
    if vad is None and engine.session is not None:
        vad = np.zeros(0)  # the input completed no row
    out = np.concatenate([out, engine.flush()])
    delay = engine.DELAY_SAMPLES
    return out[delay : delay + len(x)], vad
