"""The one-frame frontend and overlap-add as written before they were fused.

Kept as the oracle that `FeatureStream`, `estimate_pitch`,
`assemble_features`, `OverlapAddSynthesizer` and `augment` must match byte
for byte, one frame per object (`stack_frames` turns its output into a
record): the pitch search transforms the history and the window apart and
gathers the correlation and the lag energies by index arrays, the
voiced-frame coherence transforms the lagged window on its own and sums
each band product separately, the overlap-add copies its tail, the
augmentation frames and resynthesizes in a loop, and every step allocates
its results.
"""

from typing import NamedTuple

import numpy as np

from targetvoice import frontend as fe
from targetvoice import synth as sy

_LAGS = np.arange(fe.PITCH_MIN_LAG, fe.PITCH_MAX_LAG + 1)
_CORR_INDEX = 2 * fe.PITCH_CORR_WINDOW - 1 - _LAGS
_LAG_END = fe.PITCH_HISTORY - _LAGS
_LAG_START = fe.PITCH_CORR_WINDOW - _LAGS
_WINDOW = fe.vorbis_window()


def reference_estimate_pitch(history: np.ndarray) -> fe.PitchEstimate:
    x = np.asarray(history, dtype=np.float64)
    if x.ndim != 1 or len(x) < fe.PITCH_HISTORY:
        raise ValueError(f"need at least {fe.PITCH_HISTORY} samples of history")
    x = x[-fe.PITCH_HISTORY:]
    cur = x[fe.PITCH_CORR_WINDOW:]

    cur_energy = float(np.dot(cur, cur))
    if cur_energy < 1e-20:
        return fe.PitchEstimate(None, 0.0)

    prod = (np.fft.rfft(x, fe.PITCH_FFT_SIZE)
            * np.fft.rfft(cur[::-1], fe.PITCH_FFT_SIZE))
    c = np.fft.irfft(prod, fe.PITCH_FFT_SIZE)[_CORR_INDEX]
    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    lag_energy = sq[_LAG_END] - sq[_LAG_START]
    denom = np.sqrt(cur_energy * lag_energy)
    # the lags read x[:PITCH_HISTORY - PITCH_MIN_LAG]; a lag window with at
    # most LAG_ENERGY_FLOOR of their energy reads r = 0
    audible = lag_energy > fe.LAG_ENERGY_FLOOR * sq[fe.PITCH_HISTORY - fe.PITCH_MIN_LAG]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where((denom > 1e-20) & audible, c / denom, 0.0)
    r = np.clip(r, -1.0, 1.0)

    peak = float(r.max())
    if not peak >= fe.VOICING_THRESHOLD:
        return fe.PitchEstimate(None, 0.0)

    is_peak = np.empty(len(r), dtype=bool)
    is_peak[0] = r[0] >= r[1]
    is_peak[-1] = r[-1] >= r[-2]
    is_peak[1:-1] = (r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:])
    candidates = np.flatnonzero(is_peak & (r >= fe.OCTAVE_PREFERENCE * peak))
    idx = int(candidates[0]) if len(candidates) else int(np.argmax(r))
    return fe.PitchEstimate(int(_LAGS[idx]), float(r[idx]))


class ReferenceFrame(NamedTuple):
    vector: np.ndarray  # the frame's 68 float32 features
    pitch: fe.PitchEstimate


def stack_frames(frames, spectra) -> fe.Frames:
    """The reference's frames and spectra as one record, as FeatureStream returns."""
    return fe.Frames(
        np.array([f.vector for f in frames], dtype=np.float32).reshape(-1, fe.FEATURE_DIM),
        np.array([f.pitch.period or 0 for f in frames], dtype=np.int64),
        np.array(spectra, dtype=np.complex128).reshape(-1, fe.N_BINS))


def reference_assemble_features(energies, coherences, pitch, prev_log_energy):
    band_mag = np.log10(np.maximum(energies, 0.0) + fe.ENERGY_FLOOR)
    log_energy = float(np.log10(float(np.sum(energies)) + fe.ENERGY_FLOOR))
    if pitch.voiced:
        norm_period = ((pitch.period - fe.PITCH_MIN_LAG)
                       / (fe.PITCH_MAX_LAG - fe.PITCH_MIN_LAG))
    else:
        norm_period = 0.0
    delta = 0.0 if prev_log_energy is None else log_energy - prev_log_energy
    general = np.array([norm_period, pitch.correlation, log_energy, delta])
    vector = np.concatenate([band_mag.astype(np.float32), coherences.astype(np.float32),
                             general.astype(np.float32)])
    return ReferenceFrame(vector, pitch)


class ReferenceFeatureStream:
    """The streaming frontend computed one frame at a time by the reference code.

    It keeps the received stream from FRAME_CONTEXT samples before the next
    frame's start (zero-primed, as FeatureStream is) and shares no code with
    FeatureStream's framing or kernel.
    """

    def __init__(self):
        self._history = np.zeros(fe.FRAME_CONTEXT)
        self._prev_log_energy = None

    def push(self, samples, spectra=None):
        chunk = np.asarray(samples, dtype=np.float64).ravel()
        self._history = np.concatenate([self._history, chunk])
        frames = []
        while len(self._history) >= fe.FRAME_CONTEXT + fe.WINDOW:
            frames.append(self._frame(self._history[: fe.FRAME_CONTEXT + fe.WINDOW], spectra))
            self._history = self._history[fe.HOP:]
        return frames

    def _frame(self, context, spectra):
        """The frame ending at the end of its FRAME_CONTEXT + WINDOW samples."""
        end = len(context)
        frame = context[end - fe.WINDOW : end]
        spec = np.fft.rfft(frame * _WINDOW)
        if spectra is not None:
            spectra.append(spec)
        energies = fe.band_energies(spec)
        pitch = reference_estimate_pitch(context[end - fe.PITCH_HISTORY : end])
        if pitch.voiced:
            start = end - fe.WINDOW - pitch.period
            delayed = context[start : start + fe.WINDOW]
            spec_d = np.fft.rfft(delayed * _WINDOW)
            coh = fe.coherence_from_spectra(spec, spec_d, energies)
        else:
            coh = np.zeros(fe.N_BANDS)
        feats = reference_assemble_features(energies, coh, pitch,
                                            self._prev_log_energy)
        self._prev_log_energy = float(feats.vector[-2])
        return feats


class ReferenceOverlapAdd:
    """Overlap-add on freshly allocated frames."""

    def __init__(self):
        self._tail = np.zeros(fe.HOP)

    def push(self, spectrum):
        frame = np.fft.irfft(spectrum, n=fe.WINDOW) * _WINDOW
        out = self._tail + frame[: fe.HOP]
        self._tail = frame[fe.HOP :].copy()
        return out


def reference_augment(audio, aug):
    """augment for an active spec, one frame at a time through ReferenceOverlapAdd."""
    x = np.asarray(audio, dtype=np.float64)
    h = sy._augment_response(aug)
    padded = np.concatenate([np.zeros(fe.HOP), x, np.zeros(fe.WINDOW + fe.HOP)])
    ola = ReferenceOverlapAdd()
    hops = [ola.push(np.fft.rfft(padded[start : start + fe.WINDOW] * _WINDOW) * h)
            for start in range(0, len(padded) - fe.WINDOW + 1, fe.HOP)]
    return np.concatenate(hops)[fe.HOP : fe.HOP + len(x)]


class _StackedReferenceStream(ReferenceFeatureStream):
    """The reference frontend behind FeatureStream's push: one record per push."""

    def push(self, samples):
        spectra = []
        return stack_frames(super().push(samples, spectra), spectra)


def use_reference_paths(engine):
    """Give a freshly built StreamingEnhancer the unfused frontend and overlap-add."""
    engine.features = _StackedReferenceStream()
    engine.ola = ReferenceOverlapAdd()
    return engine
