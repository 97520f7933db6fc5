"""Pitch comb filtering, per-band gain/strength application, resynthesis.

The comb filter averages five pitch-period-spaced copies of the signal
(taps 0.125/0.25/0.25/0.25/0.125 over lags -2P..+2P), which passes
period-periodic signals unchanged while attenuating inter-harmonic noise.
Band gains and pitch-filter strengths are interpolated from 32 band values
to spectrum bins with the same triangular weights used by the analysis
filterbank, the strength blends the plain and combed spectra per bin, and
the gain scales the blend. Overlap-add with the shared squared-sine window
makes the identity configuration (gains 1, strengths 0) an exact
reconstructor.
"""

from __future__ import annotations

import numpy as np

from targetvoice.frontend import (
    DEFAULT_FILTERBANK,
    HOP,
    LOOKAHEAD_FRAMES,
    N_BINS,
    PITCH_MAX_LAG,
    VORBIS_WINDOW,
    WINDOW,
)

COMB_TAPS = np.array([0.125, 0.25, 0.25, 0.25, 0.125])
# forward taps may only reach into the buffered look-ahead: LOOKAHEAD_FRAMES
# hops past the end of the current window
COMB_MAX_LEAD = LOOKAHEAD_FRAMES * HOP

# the filterbank weights bin by band, [481, 32], for bands_to_bins
_BAND_TO_BIN = np.ascontiguousarray(DEFAULT_FILTERBANK.weights.T)
_BAND_TO_BIN.flags.writeable = False


def comb_filter_window(context: np.ndarray, window_start: int,
                       period: int) -> np.ndarray:
    """Comb one 960-sample window inside its surrounding context.

    The context must extend 2*768 samples behind the window and 3 hops
    (the look-ahead budget) past it. k=+2 would look two periods ahead;
    with long periods that exceeds the budget, so it falls back to the +1
    lag. Only voiced frames are combed, so the period is always present.
    """
    if not PITCH_MAX_LAG // 8 <= period <= PITCH_MAX_LAG:
        raise ValueError(f"period {period} outside supported range")
    if window_start < 2 * period or window_start + WINDOW + COMB_MAX_LEAD > len(context):
        raise ValueError("context too short for the comb taps")
    lead2 = 2 * period if 2 * period <= COMB_MAX_LEAD else period
    offsets = (-2 * period, -period, 0, period, lead2)
    out = np.zeros(WINDOW)
    for weight, off in zip(COMB_TAPS, offsets):
        out += weight * context[window_start + off : window_start + off + WINDOW]
    return out


class CombState:
    """Ring of past and look-ahead samples for one stream's comb filter.

    Holds 2*768 samples behind the current analysis window and 3 hops ahead
    of it, which is every sample the five taps can touch. push() advances
    the window by the samples it is given; filter_window() combs the window
    at the current pitch period.
    """

    def __init__(self) -> None:
        self._past = 2 * PITCH_MAX_LAG
        self._buf = np.zeros(self._past + WINDOW + COMB_MAX_LEAD)

    def push(self, samples: np.ndarray) -> None:
        """Advance by len(samples), at most the ring's length: shift and append."""
        x = np.asarray(samples, dtype=np.float64)
        n = len(x)
        if x.ndim != 1 or not 0 < n <= len(self._buf):
            raise ValueError(f"expected 1 to {len(self._buf)} samples, got {x.shape}")
        self._buf[:-n] = self._buf[n:]
        self._buf[-n:] = x

    def filter_window(self, period: int) -> np.ndarray:
        """Comb-filter the current window at a voiced frame's period."""
        return comb_filter_window(self._buf, self._past, period)


def bands_to_bins(values: np.ndarray) -> np.ndarray:
    """Interpolate 32 per-band values to per-bin values (triangular weights).

    Stacked matrix-vector products give the same bytes under every BLAS
    kernel; a values @ weights product does not.
    """
    return np.matmul(_BAND_TO_BIN, values[..., None])[..., 0]


def apply_per_band(noisy_spectrum: np.ndarray, comb_spectrum: np.ndarray,
                   gains: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """Blend plain and combed spectra per bin, then apply the band gains.

    out[bin] = g[bin] * ((1 - r[bin]) * X_noisy[bin] + r[bin] * X_comb[bin])
    with g, r interpolated from band values. gains all 1 with strengths all
    0 returns the noisy spectrum unchanged.
    """
    if noisy_spectrum.shape != comb_spectrum.shape:
        raise ValueError("spectra must come from the same frame")
    r = bands_to_bins(np.asarray(strengths, dtype=np.float64))
    g = bands_to_bins(np.asarray(gains, dtype=np.float64))
    return g * ((1.0 - r) * noisy_spectrum + r * comb_spectrum)


class OverlapAddSynthesizer:
    """Streaming inverse transform: k spectra in, k*480 samples out.

    Applies the synthesis window and overlap-adds; with the shared
    squared-sine analysis/synthesis pair every sample position is covered
    by w^2 from two consecutive frames summing to one, so an unmodified
    spectrum stream reconstructs the input exactly. A [k, 481] block gives
    the same bytes as k one-row pushes.
    """

    def __init__(self) -> None:
        self._tail = np.zeros(HOP)

    def push(self, spectra: np.ndarray) -> np.ndarray:
        if spectra.shape[-1] != N_BINS:
            raise ValueError(f"expected {N_BINS} bins per spectrum, got {spectra.shape}")
        frames = np.fft.irfft(spectra, n=WINDOW)
        frames *= VORBIS_WINDOW
        # [k, 2, 480]: each frame's first half returns with the previous
        # frame's second half added; the last second half is the next tail
        halves = frames.reshape(-1, 2, HOP)
        halves[0, 0] += self._tail
        if len(halves) > 1:  # the engine's one-row push skips an empty add
            halves[1:, 0] += halves[:-1, 1]
        self._tail = halves[-1, 1]
        return halves[:, 0].ravel()
