"""Perceptual band frontend: framing, ERB filterbank, pitch, 68-dim features.

A 48 kHz stream is cut into 20 ms analysis windows hopping every 10 ms.
Each frame yields 68 features: 32 log-compressed band energies on a
triangular ERB-rate filterbank, 32 per-band pitch coherences, and 4
general features (normalized pitch period, pitch correlation, frame
log-energy, log-energy delta).

The analysis/synthesis window is the squared-sine (Vorbis) window, which
satisfies the Princen-Bradley condition at 50% overlap so the identity
pipeline reconstructs its input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 48000
HOP = 480            # 10 ms
WINDOW = 960         # 20 ms
N_BINS = WINDOW // 2 + 1
N_BANDS = 32
FEATURE_DIM = 68
LOOKAHEAD_FRAMES = 3

PITCH_MIN_LAG = 96   # 500 Hz
PITCH_MAX_LAG = 768  # 62.5 Hz
PITCH_CORR_WINDOW = 768
PITCH_HISTORY = PITCH_MAX_LAG + PITCH_CORR_WINDOW
# full linear correlation of the history with the current window spans
# PITCH_HISTORY + PITCH_CORR_WINDOW - 1 lags; 2304 = 2^8 * 3^2 is that plus
# one, already a fast FFT size, so the circular product never wraps
PITCH_FFT_SIZE = PITCH_HISTORY + PITCH_CORR_WINDOW
_PITCH_LAGS = np.arange(PITCH_MIN_LAG, PITCH_MAX_LAG + 1)
# c[k] = sum_n x[k+n] * cur[n] sits at k + 767 of the product of x with the
# reversed window, and r(tau) reads k = 768 - tau
_PITCH_CORR_INDEX = 2 * PITCH_CORR_WINDOW - 1 - _PITCH_LAGS
_LAG_END = PITCH_HISTORY - _PITCH_LAGS
_LAG_START = PITCH_CORR_WINDOW - _PITCH_LAGS
VOICING_THRESHOLD = 0.3
OCTAVE_PREFERENCE = 0.85

ENERGY_FLOOR = 1e-9
LOG_FLOOR = float(np.log10(ENERGY_FLOOR))

# context a frame needs behind its own start: the coherence comparison
# window reaches back one maximum pitch lag before the frame
FRAME_CONTEXT = PITCH_MAX_LAG

# frames computed together when one push completes several; bounds the
# block temporaries (under 2 MB at 32) whatever the length of the push
BLOCK_FRAMES = 32


class ConfigurationError(ValueError):
    """Raised when a filterbank layout cannot be realized."""


@dataclass(frozen=True)
class PitchEstimate:
    """Pitch period in samples (None when unvoiced) and its correlation."""

    period: int | None
    correlation: float

    @property
    def voiced(self) -> bool:
        return self.period is not None


@dataclass(frozen=True)
class ErbFilterbank:
    """Triangular band weights forming a partition of unity over bins."""

    weights: np.ndarray       # [n_bands, n_bins]
    band_centers: np.ndarray  # Hz, strictly increasing

    @property
    def n_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]


def hz_to_erb_rate(hz):
    """Glasberg & Moore ERB-rate scale."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(hz, dtype=np.float64))


def erb_rate_to_hz(erb):
    return (np.power(10.0, np.asarray(erb, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def design_erb_filterbank(n_bins: int = N_BINS,
                          sample_rate: int = SAMPLE_RATE) -> ErbFilterbank:
    """Build the 32-band triangular filterbank on the ERB-rate scale.

    Band centers sit at uniform steps on the ERB-rate scale from DC to
    Nyquist; each spectrum bin is split between its two surrounding bands
    by linear interpolation, so the band weights sum to exactly 1 at every
    bin and each band's profile is triangular.

    Raises
    ------
    ConfigurationError
        If n_bins < 64 or too coarse to give every band a dedicated bin
        (a bin where that band holds the largest weight).
    """
    if sample_rate != SAMPLE_RATE:
        raise ConfigurationError(f"sample_rate must be {SAMPLE_RATE}")
    if n_bins < 64:
        raise ConfigurationError(f"n_bins must be >= 64, got {n_bins}")

    nyquist = sample_rate / 2.0
    erb_top = hz_to_erb_rate(nyquist)
    centers = erb_rate_to_hz(np.linspace(0.0, erb_top, N_BANDS))
    centers[0] = 0.0
    centers[-1] = nyquist

    freqs = np.linspace(0.0, nyquist, n_bins)
    weights = np.zeros((N_BANDS, n_bins), dtype=np.float64)
    # each bin's frequency lies between two adjacent centers; split linearly
    upper = np.searchsorted(centers, freqs, side="left").clip(1, N_BANDS - 1)
    lower = upper - 1
    span = centers[upper] - centers[lower]
    frac = (freqs - centers[lower]) / span
    cols = np.arange(n_bins)
    weights[lower, cols] += 1.0 - frac
    weights[upper, cols] += frac

    dedicated = np.argmax(weights, axis=0)
    missing = sorted(set(range(N_BANDS)) - set(dedicated.tolist()))
    if missing:
        raise ConfigurationError(
            f"n_bins={n_bins} leaves bands {missing} without a dedicated bin"
        )
    return ErbFilterbank(weights=weights, band_centers=centers)


def vorbis_window(length: int = WINDOW) -> np.ndarray:
    """Squared-sine window; w[n]^2 + w[n + L/2]^2 == 1 (Princen-Bradley)."""
    n = np.arange(length)
    inner = np.sin(np.pi * (n + 0.5) / length)
    return np.sin(0.5 * np.pi * inner * inner)


_ANALYSIS_WINDOW = vorbis_window(WINDOW)


def analyze_frame(window_samples: np.ndarray) -> np.ndarray:
    """Window a 960-sample frame and return its 481 complex bins."""
    x = np.asarray(window_samples, dtype=np.float64)
    if x.shape != (WINDOW,):
        raise ValueError(f"expected exactly {WINDOW} samples, got {x.shape}")
    return np.fft.rfft(x * _ANALYSIS_WINDOW)


def _band_sums(fb: ErbFilterbank, values: np.ndarray) -> np.ndarray:
    # a stacked matrix-vector product per row: bit for bit the same sums
    # for one spectrum or a block, where a [k, 481] @ [481, 32] gemm is not
    return np.matmul(fb.weights, values[..., None])[..., 0]


def band_energies(spectrum: np.ndarray, fb: ErbFilterbank) -> np.ndarray:
    """Per-band energy: E[b] = sum_bin weights[b, bin] * |X[bin]|^2.

    `spectrum` is one spectrum or a stack of them along leading axes.
    """
    if spectrum.shape[-1] != fb.n_bins:
        raise ValueError(
            f"spectrum has {spectrum.shape[-1]} bins, filterbank expects {fb.n_bins}"
        )
    power = (spectrum.real * spectrum.real) + (spectrum.imag * spectrum.imag)
    return _band_sums(fb, power)


def estimate_pitch(history: np.ndarray) -> PitchEstimate:
    """Search lags 96..768 for the pitch period by normalized autocorrelation.

    The last 768 samples are correlated against lagged copies; the returned
    lag is the smallest local maximum of r(tau) whose correlation reaches
    85% of the global peak, which suppresses octave errors toward multiples
    of the true period. A peak below 0.3 is treated as unvoiced.
    """
    x = np.asarray(history, dtype=np.float64)
    if x.ndim != 1 or len(x) < PITCH_HISTORY:
        raise ValueError(f"need at least {PITCH_HISTORY} samples of history")
    x = x[-PITCH_HISTORY:]
    cur = x[PITCH_CORR_WINDOW:]

    cur_energy = float(np.dot(cur, cur))
    if cur_energy < 1e-20:
        return PitchEstimate(None, 0.0)

    prod = np.fft.rfft(x, PITCH_FFT_SIZE) * np.fft.rfft(cur[::-1], PITCH_FFT_SIZE)
    c = np.fft.irfft(prod, PITCH_FFT_SIZE)[_PITCH_CORR_INDEX]
    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    lag_energy = sq[_LAG_END] - sq[_LAG_START]
    denom = np.sqrt(cur_energy * lag_energy)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 1e-20, c / denom, 0.0)
    r = np.clip(r, -1.0, 1.0)

    peak = float(r.max())
    if not peak >= VOICING_THRESHOLD:  # NaN from non-finite input is unvoiced
        return PitchEstimate(None, 0.0)

    is_peak = np.empty(len(r), dtype=bool)
    is_peak[0] = r[0] >= r[1]
    is_peak[-1] = r[-1] >= r[-2]
    is_peak[1:-1] = (r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:])
    candidates = np.flatnonzero(is_peak & (r >= OCTAVE_PREFERENCE * peak))
    idx = int(candidates[0]) if len(candidates) else int(np.argmax(r))
    return PitchEstimate(int(_PITCH_LAGS[idx]), float(r[idx]))


def estimate_pitch_block(histories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """estimate_pitch over the rows of a [k, 1536] array, bit for bit.

    Returns each row's period in samples (0 when unvoiced) and its
    correlation (0.0 when unvoiced).
    """
    x = np.asarray(histories, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != PITCH_HISTORY:
        raise ValueError(f"need rows of exactly {PITCH_HISTORY} samples, got {x.shape}")
    cur = x[:, PITCH_CORR_WINDOW:]
    cur_energy = (cur[:, None, :] @ cur[:, :, None])[:, 0, 0]  # equals np.dot

    prod = np.fft.rfft(x, PITCH_FFT_SIZE)
    prod *= np.fft.rfft(cur[:, ::-1], PITCH_FFT_SIZE)
    c = np.fft.irfft(prod, PITCH_FFT_SIZE)[:, _PITCH_CORR_INDEX]
    del prod
    sq = np.zeros((len(x), PITCH_HISTORY + 1))
    np.cumsum(x * x, axis=1, out=sq[:, 1:])
    lag_energy = sq[:, _LAG_END] - sq[:, _LAG_START]
    del sq
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.sqrt(cur_energy[:, None] * lag_energy)
        r = np.where(denom > 1e-20, c / denom, 0.0)
    np.clip(r, -1.0, 1.0, out=r)

    peak = r.max(axis=1)
    voiced = (cur_energy >= 1e-20) & (peak >= VOICING_THRESHOLD)
    is_peak = np.ones(r.shape, dtype=bool)
    is_peak[:, 1:] = r[:, 1:] >= r[:, :-1]
    is_peak[:, :-1] &= r[:, :-1] >= r[:, 1:]
    # a voiced row's global maximum is a candidate, so argmax finds one
    idx = np.argmax(is_peak & (r >= OCTAVE_PREFERENCE * peak[:, None]), axis=1)
    periods = np.where(voiced, _PITCH_LAGS[idx], 0)
    correlations = np.where(voiced, r[np.arange(len(r)), idx], 0.0)
    return periods, correlations


def pitch_coherence(window_samples: np.ndarray, delayed_samples: np.ndarray,
                    fb: ErbFilterbank) -> np.ndarray:
    """Per-band normalized correlation between a frame and its pitch-lagged copy.

    Both frames are analysis-windowed and transformed; coherence in band b is
    the band-weighted real cross-spectrum normalized by the band energies,
    clamped to [0, 1]. Bands without energy read 0.
    """
    spec = analyze_frame(window_samples)
    spec_d = analyze_frame(delayed_samples)
    return coherence_from_spectra(spec, spec_d, fb)


def coherence_from_spectra(spec: np.ndarray, spec_delayed: np.ndarray,
                           fb: ErbFilterbank,
                           e_cur: np.ndarray | None = None) -> np.ndarray:
    """Coherence of two spectra; `e_cur` is band_energies(spec) if known."""
    cross = spec.real * spec_delayed.real + spec.imag * spec_delayed.imag
    if e_cur is None:
        e_cur = band_energies(spec, fb)
    e_del = band_energies(spec_delayed, fb)
    num = _band_sums(fb, cross)
    denom = np.sqrt(e_cur * e_del)
    with np.errstate(invalid="ignore", divide="ignore"):
        coh = np.where(denom > 1e-20, num / denom, 0.0)
    return np.clip(coh, 0.0, 1.0)


@dataclass(frozen=True)
class FrameFeatures:
    """One frame's 68-dim feature vector plus the pitch estimate behind it.

    band_mag:        32 log10-compressed band energies (floor -9)
    pitch_coherence: 32 values in [0, 1]
    general:         [normalized period, pitch correlation,
                      frame log-energy, log-energy delta]
    """

    band_mag: np.ndarray
    pitch_coherence: np.ndarray
    general: np.ndarray
    pitch: PitchEstimate

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.band_mag, self.pitch_coherence, self.general])

    @property
    def log_energy(self) -> float:
        return float(self.general[2])


def assemble_features(energies: np.ndarray, coherences: np.ndarray,
                      pitch: PitchEstimate,
                      prev_log_energy: float | None) -> FrameFeatures:
    """Compress energies and pack the 68-dim frame vector."""
    band_mag = np.log10(np.maximum(energies, 0.0) + ENERGY_FLOOR)
    log_energy = float(np.log10(float(np.sum(energies)) + ENERGY_FLOOR))
    if pitch.voiced:
        norm_period = (pitch.period - PITCH_MIN_LAG) / (PITCH_MAX_LAG - PITCH_MIN_LAG)
    else:
        norm_period = 0.0
    delta = 0.0 if prev_log_energy is None else log_energy - prev_log_energy
    general = np.array([norm_period, pitch.correlation, log_energy, delta])
    return FrameFeatures(
        band_mag=band_mag.astype(np.float32),
        pitch_coherence=coherences.astype(np.float32),
        general=general.astype(np.float32),
        pitch=pitch,
    )


class FeatureStream:
    """Streaming feature extractor for one audio session.

    Frame t covers input samples [t*480, t*480 + 960); its features are
    returned from push() the moment that window is complete.  Missing
    history at stream start is treated as silence, so chunking never
    changes the output: pushing a file sample-by-sample produces
    bit-identical features to one big push.

    The 30 ms look-ahead is not a feature-side delay: the enhancer engine
    consumes features up to frame t+3 before finalizing its output for
    frame t (a 3-frame delay line at the feature/output boundary).

    Not thread-safe; use one FeatureStream per stream, one thread at a time.
    The filterbank is immutable and may be shared between sessions.
    """

    def __init__(self, fb: ErbFilterbank | None = None):
        self.fb = fb if fb is not None else design_erb_filterbank()
        # context behind the frame start, zero-primed
        self._history = np.zeros(FRAME_CONTEXT + WINDOW, dtype=np.float64)
        self._filled = FRAME_CONTEXT  # fill position inside the history buffer
        self._pending = np.zeros(0, dtype=np.float64)
        self._total = 0          # samples received
        self._absorbed = 0       # samples moved from pending into history
        self._next_frame = 0     # next frame index to emit
        self._prev_log_energy: float | None = None

    def push(self, samples: np.ndarray,
             spectra: list[np.ndarray] | None = None) -> list[FrameFeatures]:
        """Feed samples; return every frame whose window is now complete.

        When `spectra` is given, each returned frame's analysis spectrum
        (rfft of the windowed frame, 481 bins) is appended to it in order.
        A push that completes several frames computes them in blocks of
        BLOCK_FRAMES, with the same results as one frame at a time.
        """
        chunk = np.asarray(samples).ravel()
        if chunk.dtype != np.float32:  # float32 widens exactly where it is read
            chunk = chunk.astype(np.float64, copy=False)
        if len(self._pending):
            self._pending = np.concatenate([self._pending, chunk])
        else:
            self._pending = chunk
        self._total += len(chunk)

        due = max(0, (self._total - WINDOW) // HOP + 1 - self._next_frame)
        out: list[FrameFeatures] = []
        if due == 1:
            self._absorb(self._next_frame * HOP + WINDOW - self._absorbed)
            out.append(self._emit_frame(spectra))
            self._next_frame += 1
        elif due > 1:
            buf = np.empty(FRAME_CONTEXT + (min(due, BLOCK_FRAMES) - 1) * HOP + WINDOW)
            while due > 0:
                count = min(due, BLOCK_FRAMES)
                out.extend(self._emit_block(buf, count, spectra))
                due -= count
        # what is left may view the caller's array: hold a copy, not the array
        self._pending = self._pending.copy()
        return out

    def _absorb(self, n: int) -> None:
        take, self._pending = self._pending[:n], self._pending[n:]
        if len(take) != n:
            raise AssertionError("internal framing accounting is wrong")
        room = len(self._history) - self._filled
        if n > room:
            shift = n - room
            self._history[:-shift] = self._history[shift:]
            self._filled -= shift
        self._history[self._filled : self._filled + n] = take
        self._filled += n
        self._absorbed += n

    def _emit_frame(self, spectra: list[np.ndarray] | None) -> FrameFeatures:
        end = self._filled
        frame = self._history[end - WINDOW : end]
        spec = np.fft.rfft(frame * _ANALYSIS_WINDOW)
        if spectra is not None:
            spectra.append(spec)
        energies = band_energies(spec, self.fb)
        pitch = estimate_pitch(self._history[end - PITCH_HISTORY : end])
        if pitch.voiced:
            start = end - WINDOW - pitch.period
            delayed = self._history[start : start + WINDOW]
            spec_d = np.fft.rfft(delayed * _ANALYSIS_WINDOW)
            coh = coherence_from_spectra(spec, spec_d, self.fb, energies)
        else:
            coh = np.zeros(N_BANDS)
        feats = assemble_features(energies, coh, pitch, self._prev_log_energy)
        self._prev_log_energy = feats.log_energy
        return feats

    def _emit_block(self, buf: np.ndarray, count: int,
                    spectra: list[np.ndarray] | None) -> list[FrameFeatures]:
        """The next `count` frames at once, bit for bit as _emit_frame."""
        # buf holds the stream from FRAME_CONTEXT before the first frame's
        # start to the last frame's end
        end = self._next_frame * HOP + (count - 1) * HOP + WINDOW
        buf = buf[: FRAME_CONTEXT + (count - 1) * HOP + WINDOW]
        kept = len(buf) - (end - self._absorbed)
        buf[:kept] = self._history[self._filled - kept : self._filled]
        buf[kept:] = self._pending[: end - self._absorbed]
        self._pending = self._pending[end - self._absorbed :]
        self._history[:] = buf[-len(self._history) :]
        self._filled = len(self._history)
        self._absorbed = end
        self._next_frame += count

        windows = sliding_window_view(buf, WINDOW)
        spec = np.fft.rfft(windows[FRAME_CONTEXT::HOP] * _ANALYSIS_WINDOW)
        if spectra is not None:
            spectra.extend(spec)
        energies = band_energies(spec, self.fb)
        histories = sliding_window_view(buf, PITCH_HISTORY)
        periods, correlations = estimate_pitch_block(
            histories[FRAME_CONTEXT + WINDOW - PITCH_HISTORY :: HOP])
        voiced = np.flatnonzero(periods)
        coh = np.zeros((count, N_BANDS))
        if len(voiced):
            starts = FRAME_CONTEXT + voiced * HOP - periods[voiced]
            spec_d = np.fft.rfft(windows[starts] * _ANALYSIS_WINDOW)
            coh[voiced] = coherence_from_spectra(spec[voiced], spec_d, self.fb,
                                                 energies[voiced])
        return self._assemble_block(energies, coh, periods, correlations)

    def _assemble_block(self, energies: np.ndarray, coh: np.ndarray,
                        periods: np.ndarray,
                        correlations: np.ndarray) -> list[FrameFeatures]:
        """assemble_features over a block, carrying the log-energy delta."""
        band_mag = np.log10(np.maximum(energies, 0.0) + ENERGY_FLOOR)
        log_energy = np.log10(energies.sum(axis=1) + ENERGY_FLOOR)
        # each delta subtracts the previous frame's stored (float32) energy
        previous = log_energy.astype(np.float32).astype(np.float64)
        delta = np.empty_like(log_energy)
        delta[1:] = log_energy[1:] - previous[:-1]
        delta[0] = (0.0 if self._prev_log_energy is None
                    else log_energy[0] - self._prev_log_energy)
        norm_period = np.where(periods > 0, (periods - PITCH_MIN_LAG)
                               / (PITCH_MAX_LAG - PITCH_MIN_LAG), 0.0)
        general = np.stack([norm_period, correlations, log_energy, delta], axis=1)
        band_mag = band_mag.astype(np.float32)
        coh = coh.astype(np.float32)
        general = general.astype(np.float32)
        self._prev_log_energy = float(general[-1, 2])
        return [
            FrameFeatures(band_mag=band_mag[t], pitch_coherence=coh[t], general=general[t],
                          pitch=PitchEstimate(p, r) if p else PitchEstimate(None, 0.0))
            for t, (p, r) in enumerate(zip(periods.tolist(), correlations.tolist()))
        ]


def extract_features(audio: np.ndarray,
                     fb: ErbFilterbank | None = None) -> list[FrameFeatures]:
    """Whole-file feature extraction; identical to streaming the same samples."""
    return FeatureStream(fb).push(np.asarray(audio))


def feature_matrix(frames: list[FrameFeatures]) -> np.ndarray:
    """Stack frame features into a [T, 68] float32 matrix."""
    if not frames:
        return np.zeros((0, FEATURE_DIM), dtype=np.float32)
    return np.stack([f.vector for f in frames]).astype(np.float32)


def frame_periods(frames: list[FrameFeatures]) -> np.ndarray:
    """Per-frame pitch period in samples, 0 where unvoiced."""
    return np.array([f.pitch.period or 0 for f in frames], dtype=np.int32)
