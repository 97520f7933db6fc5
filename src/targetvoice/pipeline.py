"""The streaming enhancement engine: features -> model -> comb -> resynthesis.

Per 10 ms hop of input the engine extracts one feature frame, advances the
enhancer one step, and applies that step's gains and pitch-filter
strengths to the frame three hops behind it — the model has consumed
features up to frame t+3 before the output for frame t is synthesized,
which realizes the 30 ms look-ahead as a delay line at the feature/output
boundary.

Stream timing: process() returns 480 output samples per 480 input samples
with a fixed 1920-sample (40 ms) delay — 10 ms from the synthesis overlap
plus the 30 ms look-ahead. enhance_audio() trims that delay so the output
file aligns sample-for-sample with its input.

Without a model (identity mode: gains 1, strengths 0) the engine is an
exact pass-through reconstructor.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from targetvoice.comb import CombState, OverlapAddSynthesizer, apply_per_band
from targetvoice.enhancer import EnhancerNet, EnhancerSession
from targetvoice.frontend import (
    HOP,
    LOOKAHEAD_FRAMES,
    WINDOW,
    ErbFilterbank,
    FeatureStream,
    FrameFeatures,
    design_erb_filterbank,
    vorbis_window,
)

_WINDOW = vorbis_window(WINDOW)


class StreamingEnhancer:
    """One real-time enhancement session (single stream, single thread).

    The engine prepends one hop of silence to its internal timeline so the
    first synthesis window straddles the stream start and reconstruction
    is exact from the first sample. Model weights are shared, read-only;
    every mutable buffer lives in this object.
    """

    DELAY_SAMPLES = (LOOKAHEAD_FRAMES + 1) * HOP  # 40 ms stream delay

    def __init__(self, net: EnhancerNet | None = None,
                 embedding: np.ndarray | None = None,
                 fb: ErbFilterbank | None = None):
        self.fb = fb if fb is not None else design_erb_filterbank()
        if net is not None:
            if embedding is None:
                raise ValueError("a model needs a speaker embedding")
            self.session = EnhancerSession(net, np.asarray(embedding, dtype=np.float32))
        else:
            self.session = None

        self.features = FeatureStream(self.fb)
        self.features.push(np.zeros(HOP))  # timeline padding
        self.comb = CombState()
        self.ola = OverlapAddSynthesizer()
        # features and analysis spectra of the frames awaiting their
        # look-ahead outputs
        self._frame_queue: deque[tuple[FrameFeatures, np.ndarray]] = deque()
        self._hop_buffer = np.zeros(0)
        self.frames_processed = 0
        self.last_vad = 0.0

    # -- internals ----------------------------------------------------------

    def _advance_frame(self, feats: FrameFeatures,
                       spec: np.ndarray) -> np.ndarray | None:
        """Run one feature frame through the model; synthesize frame t-3.

        When feature frame t completes, the comb ring's current window is
        exactly frame t-3, whose analysis spectrum waits at the head of the
        queue — the model step that just consumed frame t supplies that
        older frame's gains and strengths.
        """
        self.frames_processed += 1
        if self.session is not None:
            self.last_vad = float(self.session.step(feats.vector.astype(np.float32)))
            gains = self.session.gains.astype(np.float64)
            strengths = self.session.strengths.astype(np.float64)
        else:
            gains = None
            strengths = None

        self._frame_queue.append((feats, spec))
        if len(self._frame_queue) <= LOOKAHEAD_FRAMES:
            return None  # still filling the look-ahead delay line

        past, spec = self._frame_queue.popleft()
        if gains is None:
            out_spec = spec
        else:
            period = past.pitch.period
            if period is not None and float(np.max(strengths)) > 1e-6:
                combed = self.comb.filter_window(period)
                comb_spec = np.fft.rfft(combed * _WINDOW)
            else:
                comb_spec = spec
            out_spec = apply_per_band(spec, comb_spec, gains, strengths, self.fb)
        return self.ola.push(out_spec)

    def _process_one_hop(self, hop: np.ndarray) -> np.ndarray:
        self.comb.push(hop)
        spectra: list[np.ndarray] = []
        frames = self.features.push(hop, spectra)
        emitted = np.zeros(HOP)
        for feats, spec in zip(frames, spectra):
            out = self._advance_frame(feats, spec)
            if out is not None:
                emitted = out
        return emitted

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
            out[i * HOP:(i + 1) * HOP] = self._process_one_hop(hop)
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
                  embedding: np.ndarray | None = None,
                  fb: ErbFilterbank | None = None) -> np.ndarray:
    """Process a whole buffer; output is delay-compensated and equal length."""
    x = np.asarray(audio, dtype=np.float64)
    engine = StreamingEnhancer(net, embedding, fb)
    out = np.concatenate([engine.process(x), engine.flush()])
    return out[StreamingEnhancer.DELAY_SAMPLES : StreamingEnhancer.DELAY_SAMPLES + len(x)]


def apply_band_controls(audio: np.ndarray, gains: np.ndarray,
                        strengths: np.ndarray, periods: np.ndarray,
                        fb: ErbFilterbank | None = None) -> np.ndarray:
    """Offline per-frame band processing with known controls.

    gains/strengths/periods are indexed by the frames of extract_features
    on the same audio (frame t at samples [t*480, t*480+960)); used by the
    oracle-mask harnesses where the controls come from ground truth rather
    than a model. Output aligns with the input and has the same length.
    """
    from targetvoice.comb import COMB_MAX_LEAD, comb_filter_window
    from targetvoice.frontend import PITCH_MAX_LAG

    fb = fb if fb is not None else design_erb_filterbank()
    x = np.asarray(audio, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    strengths = np.asarray(strengths, dtype=np.float64)
    periods = np.asarray(periods)
    n_frames = gains.shape[0]

    left = 2 * PITCH_MAX_LAG
    padded = np.concatenate([
        np.zeros(left + HOP), x, np.zeros(WINDOW + COMB_MAX_LEAD + 2 * HOP)
    ])
    ola = OverlapAddSynthesizer()
    hops = []
    # straddle frame at the start plus enough tail frames to cover the input
    total_frames = int(np.ceil(len(x) / HOP)) + 2
    for s in range(total_frames):
        start = left + s * HOP
        window = padded[start : start + WINDOW]
        spec = np.fft.rfft(window * _WINDOW)
        t = min(max(s - 1, 0), n_frames - 1)  # frame s covers input frame s-1
        period = int(periods[t]) if periods[t] > 0 else None
        if period is not None and strengths[t].max() > 1e-6:
            combed = comb_filter_window(padded, start, period)
            comb_spec = np.fft.rfft(combed * _WINDOW)
        else:
            comb_spec = spec
        hops.append(ola.push(apply_per_band(spec, comb_spec, gains[t],
                                            strengths[t], fb)))
    y = np.concatenate(hops)
    # hop s of y covers padded [s*480, (s+1)*480): input starts at hop 1
    return y[HOP : HOP + len(x)]
