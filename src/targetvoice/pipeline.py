"""The streaming enhancement engine: features -> model -> comb -> resynthesis.

Per 10 ms hop of input the engine pushes one hop into its FeatureStream,
which returns a one-row Frames record; the model steps on the row's
features, and the row's pitch period and analysis spectrum wait in a
three-frame queue. Each step's gains and pitch-filter strengths apply to
the frame three hops behind it — the model has consumed features up to
frame t+3 before the output for frame t is synthesized, which realizes the
30 ms look-ahead as a delay line at the feature/output boundary. The model
sees exactly the rows of extract_features(); the straddle frame in front
of them (see StreamingEnhancer) is synthesis-only.

Stream timing: process() returns 480 output samples per 480 input samples
with a fixed 1920-sample (40 ms) delay — 10 ms from the synthesis overlap
plus the 30 ms look-ahead. enhance_audio() trims that delay so the output
file aligns sample-for-sample with its input.

Without a model (identity mode: gains 1, strengths 0) the engine is an
exact pass-through reconstructor; oracle evaluation replays known controls
through it (replay_controls).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from targetvoice.comb import CombState, OverlapAddSynthesizer, apply_per_band
from targetvoice.enhancer import EnhancerNet, EnhancerSession
from targetvoice.frontend import (
    HOP,
    LOOKAHEAD_FRAMES,
    N_BANDS,
    VORBIS_WINDOW,
    ErbFilterbank,
    FeatureStream,
    check_filterbank,
)


class ControlReplay:
    """Known per-frame controls in the model session's place.

    Row t of the [T, 32] gains and strengths belongs to frame t of
    extract_features on the engine's input. Like the model, step t supplies
    frame t - LOOKAHEAD_FRAMES's controls; the straddle frame and the tail
    frames take the nearest row. There is no VAD.
    """

    def __init__(self, gains: np.ndarray, strengths: np.ndarray):
        self._gains = np.asarray(gains, dtype=np.float64)
        self._strengths = np.asarray(strengths, dtype=np.float64)
        if (self._gains.shape[1:] != (N_BANDS,) or not len(self._gains)
                or self._strengths.shape != self._gains.shape):
            raise ValueError(f"gains {self._gains.shape} and strengths "
                             f"{self._strengths.shape} must both be [T, {N_BANDS}], T >= 1")
        self._steps = 0

    def step(self, feature_vector: np.ndarray) -> float:
        t = min(max(self._steps - LOOKAHEAD_FRAMES, 0), len(self._gains) - 1)
        self._steps += 1
        self.gains, self.strengths = self._gains[t], self._strengths[t]
        return 0.0


class StreamingEnhancer:
    """One real-time enhancement session (single stream, single thread).

    The engine prepends one hop of silence to its internal timeline so the
    first synthesis window straddles the stream start and reconstruction
    is exact from the first sample; that frame gets no model step. Model
    weights are shared, read-only; every mutable buffer lives in this
    object. `session` supplies the per-frame controls: an EnhancerSession,
    a ControlReplay, or None (identity). Only a hop processed while
    `session` is set enters the comb ring, which only the controls read: a
    session set mid-stream combs against silence for the samples before
    it until the ring has refilled, nine hops later. `fb` is only checked
    (frontend.check_filterbank); it stays while the benchmark passes one.
    """

    DELAY_SAMPLES = (LOOKAHEAD_FRAMES + 1) * HOP  # 40 ms stream delay

    def __init__(self, net: EnhancerNet | None = None,
                 embedding: np.ndarray | None = None,
                 fb: ErbFilterbank | None = None):
        check_filterbank(fb)
        if net is not None:
            if embedding is None:
                raise ValueError("a model needs a speaker embedding")
            self.session = EnhancerSession(net, np.asarray(embedding, dtype=np.float32))
        else:
            self.session = None

        self.features = FeatureStream()
        self.features.push(np.zeros(HOP))  # timeline padding
        self.comb = CombState()
        self.ola = OverlapAddSynthesizer()
        # pitch period (0 when unvoiced) and analysis spectrum row of each
        # frame awaiting its look-ahead output
        self._frame_queue: deque[tuple[int, np.ndarray]] = deque()
        self._hop_buffer = np.zeros(0)
        self.frames_processed = 0
        self.last_vad = 0.0

    # -- internals ----------------------------------------------------------

    def _process_one_hop(self, hop: np.ndarray) -> np.ndarray | None:
        """Push one hop, completing frame t, through the model; synthesize frame t-3.

        When feature frame t completes, the comb ring's current window is
        exactly frame t-3, whose analysis spectrum waits at the head of the
        queue — the model step that just consumed frame t supplies that
        older frame's gains and strengths.
        """
        if self.session is not None:
            self.comb.push(hop)
        # past the straddle push, every hop completes exactly one frame
        frame = self.features.push(hop)
        self.frames_processed += 1
        self._frame_queue.append((int(frame.periods[0]), frame.spectra[0]))
        if self.frames_processed == 1:
            # the straddle frame: the model's frame 0 is the next one, whose
            # log-energy delta reads 0 as in extract_features
            self.features.restart_delta()
            return None
        if self.session is not None:
            self.last_vad = float(self.session.step(frame.features[0]))
        if len(self._frame_queue) <= LOOKAHEAD_FRAMES:
            return None  # still filling the look-ahead delay line

        period, spec = self._frame_queue.popleft()
        if self.session is None:
            out_spec = spec
        else:
            gains, strengths = self.session.gains, self.session.strengths
            if period and float(np.max(strengths)) > 1e-6:
                combed = self.comb.filter_window(period)
                comb_spec = np.fft.rfft(combed * VORBIS_WINDOW)
            else:
                comb_spec = spec
            out_spec = apply_per_band(spec, comb_spec, gains, strengths)
        return self.ola.push(out_spec)

    # -- public api ----------------------------------------------------------

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Feed arbitrary-length audio; returns the ready output samples.

        Output lags input by exactly DELAY_SAMPLES; one hop in, one hop out.
        """
        # Hops are views of the caller's array, widened one at a time; only
        # the remainder of fewer than HOP samples is kept between calls.
        x = np.asarray(samples).ravel()
        held = len(self._hop_buffer)
        n_hops = (held + len(x)) // HOP
        out = np.empty(n_hops * HOP)
        for i in range(n_hops):
            start = i * HOP - held  # negative only for a hop that completes the remainder
            if start < 0:
                hop = np.concatenate([self._hop_buffer, x[:start + HOP]])
            else:
                hop = np.asarray(x[start:start + HOP], dtype=np.float64)
            emitted = self._process_one_hop(hop)
            out[i * HOP:(i + 1) * HOP] = 0.0 if emitted is None else emitted
        if n_hops == 0:
            self._hop_buffer = np.concatenate([self._hop_buffer, x])
        else:
            self._hop_buffer = x[n_hops * HOP - held:].astype(np.float64)
        return out

    def flush(self) -> np.ndarray:
        """Pad with silence until every buffered input sample is emitted."""
        remainder = len(self._hop_buffer)
        pad = (HOP - remainder) % HOP + self.DELAY_SAMPLES
        return self.process(np.zeros(pad))


def enhance_audio(audio: np.ndarray, net: EnhancerNet | None = None,
                  embedding: np.ndarray | None = None) -> np.ndarray:
    """Process a whole buffer; output is delay-compensated and equal length."""
    return _run_whole(StreamingEnhancer(net, embedding), audio)


def replay_controls(audio: np.ndarray, gains: np.ndarray,
                    strengths: np.ndarray) -> np.ndarray:
    """enhance_audio with known [T, 32] controls (see ControlReplay) for a model.

    Used by the oracle-mask harnesses, where the controls come from ground truth.
    """
    engine = StreamingEnhancer()
    engine.session = ControlReplay(gains, strengths)
    return _run_whole(engine, audio)


def _run_whole(engine: StreamingEnhancer, audio: np.ndarray) -> np.ndarray:
    x = np.asarray(audio, dtype=np.float64)
    out = np.concatenate([engine.process(x), engine.flush()])
    return out[engine.DELAY_SAMPLES : engine.DELAY_SAMPLES + len(x)]
