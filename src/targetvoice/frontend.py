"""Perceptual band frontend: framing, ERB filterbank, pitch, 68-dim features.

A 48 kHz stream is cut into 20 ms analysis windows hopping every 10 ms.
Each frame yields 68 features: 32 log-compressed band energies on a
triangular ERB-rate filterbank, 32 per-band pitch coherences, and 4
general features (normalized pitch period, pitch correlation, frame
log-energy, log-energy delta).

Frames are rows: FeatureStream.push and extract_features return one
read-only Frames record per call, whose fields hold each completed frame's
features, pitch period and analysis spectrum as one row of an array per
field.

The analysis/synthesis window is the squared-sine (Vorbis) window, which
satisfies the Princen-Bradley condition at 50% overlap so the identity
pipeline reconstructs its input exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from targetvoice.audio import SAMPLE_RATE

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
# the lagged windows read only the first PITCH_HISTORY - PITCH_MIN_LAG = 1440
# samples of the history; transformed at that size (2^5 * 3^2 * 5, a fast FFT
# size), their product with the reversed window wraps only onto indices
# 0..766, below the indices 1535 - tau = 767..1439 that the lags read
PITCH_FFT_SIZE = PITCH_HISTORY - PITCH_MIN_LAG
_N_PITCH_LAGS = PITCH_MAX_LAG - PITCH_MIN_LAG + 1


def _lag_slice(offset: int) -> slice:
    """Reads a[offset - tau] for tau = PITCH_MIN_LAG..PITCH_MAX_LAG, in lag order."""
    stop = offset - PITCH_MAX_LAG - 1
    return slice(offset - PITCH_MIN_LAG, stop if stop >= 0 else None, -1)


# c[k] = sum_n x[k+n] * cur[n] sits at k + 767 of the product of x with the
# reversed window, and r(tau) reads k = 768 - tau
_PITCH_CORR = _lag_slice(2 * PITCH_CORR_WINDOW - 1)
# the lagged window x[768 - tau : 1536 - tau] has energy sq[_LAG_END] -
# sq[_LAG_START] in the running sum of squares sq (sq[0] = 0)
_LAG_END = _lag_slice(PITCH_HISTORY)
_LAG_START = _lag_slice(PITCH_CORR_WINDOW)
# a lag whose window energy is at most this share of the energy of the
# samples the lags read has r = 0 (see _PitchSearch)
LAG_ENERGY_FLOOR = 1e-12
VOICING_THRESHOLD = 0.3
OCTAVE_PREFERENCE = 0.85

ENERGY_FLOOR = 1e-9

# context a frame needs behind its own start: the coherence comparison
# window reaches back one maximum pitch lag before the frame
FRAME_CONTEXT = PITCH_MAX_LAG

# the most frames computed together when one push completes several; bounds
# a stream's scratch (3.3 MiB at 32) whatever the length of the push
BLOCK_FRAMES = 32


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

    weights: np.ndarray       # [N_BANDS, N_BINS]
    band_centers: np.ndarray  # Hz, strictly increasing


def hz_to_erb_rate(hz):
    """Glasberg & Moore ERB-rate scale."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(hz, dtype=np.float64))


def erb_rate_to_hz(erb):
    return (np.power(10.0, np.asarray(erb, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def design_erb_filterbank() -> ErbFilterbank:
    """Build the 32-band triangular filterbank on the ERB-rate scale.

    Band centers sit at uniform steps on the ERB-rate scale from DC to
    Nyquist; each of the 481 spectrum bins is split between its two
    surrounding bands by linear interpolation, so the band weights sum to
    exactly 1 at every bin and each band's profile is triangular.
    """
    nyquist = SAMPLE_RATE / 2.0
    erb_top = hz_to_erb_rate(nyquist)
    centers = erb_rate_to_hz(np.linspace(0.0, erb_top, N_BANDS))
    centers[0] = 0.0
    centers[-1] = nyquist

    freqs = np.linspace(0.0, nyquist, N_BINS)
    weights = np.zeros((N_BANDS, N_BINS), dtype=np.float64)
    # each bin's frequency lies between two adjacent centers; split linearly
    upper = np.searchsorted(centers, freqs, side="left").clip(1, N_BANDS - 1)
    lower = upper - 1
    span = centers[upper] - centers[lower]
    frac = (freqs - centers[lower]) / span
    cols = np.arange(N_BINS)
    weights[lower, cols] += 1.0 - frac
    weights[upper, cols] += frac
    weights.flags.writeable = False
    centers.flags.writeable = False
    return ErbFilterbank(weights=weights, band_centers=centers)


# the one band layout: every band sum, coherence and per-band control reads it
DEFAULT_FILTERBANK = design_erb_filterbank()


def check_filterbank(fb: ErbFilterbank | None) -> None:
    """Raise ValueError unless `fb` is None or equals DEFAULT_FILTERBANK."""
    default = DEFAULT_FILTERBANK
    if fb is not None and not (np.array_equal(fb.weights, default.weights)
                               and np.array_equal(fb.band_centers, default.band_centers)):
        raise ValueError("the band layout is fixed: pass None or DEFAULT_FILTERBANK")


def vorbis_window() -> np.ndarray:
    """Squared-sine window of 960 samples; w[n]^2 + w[n + 480]^2 == 1 (Princen-Bradley)."""
    n = np.arange(WINDOW)
    inner = np.sin(np.pi * (n + 0.5) / WINDOW)
    return np.sin(0.5 * np.pi * inner * inner)


# the analysis and synthesis window of every frame
VORBIS_WINDOW = vorbis_window()
VORBIS_WINDOW.flags.writeable = False


def frame_spectra(x: np.ndarray) -> np.ndarray:
    """The [T, 481] windowed spectra of frames x[t*480 : t*480 + 960] (FeatureStream's grid)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < WINDOW:
        raise ValueError(f"expected at least {WINDOW} samples, got {x.shape}")
    return np.fft.rfft(sliding_window_view(x, WINDOW)[::HOP] * VORBIS_WINDOW)


def _band_sums(values: np.ndarray) -> np.ndarray:
    # a stacked matrix-vector product per row: bit for bit the same sums
    # for one spectrum or a block, where a [k, 481] @ [481, 32] gemm is not
    return np.matmul(DEFAULT_FILTERBANK.weights, values[..., None])[..., 0]


def band_energies(spectrum: np.ndarray) -> np.ndarray:
    """Per-band energy: E[b] = sum_bin weights[b, bin] * |X[bin]|^2.

    `spectrum` is one spectrum or a stack of them along leading axes.
    """
    if spectrum.shape[-1] != N_BINS:
        raise ValueError(f"spectrum has {spectrum.shape[-1]} bins, expected {N_BINS}")
    power = (spectrum.real * spectrum.real) + (spectrum.imag * spectrum.imag)
    return _band_sums(power)


class _PitchSearch:
    """The pitch search of k frames on buffers allocated once (see estimate_pitch).

    Row i of the [rows, 2, 1440] transform input holds the first 1440
    samples of history i and its reversed current window, whose zero tail
    is never written, so one rfft gives both transforms. One instance per
    stream, sized to the most rows it is called with.
    """

    def __init__(self, rows: int = 1) -> None:
        self._pair = np.zeros((rows, 2, PITCH_FFT_SIZE))
        self._cur = np.empty((rows, PITCH_CORR_WINDOW))
        self._squares = np.empty((rows, PITCH_FFT_SIZE))
        sq = np.zeros((rows, PITCH_FFT_SIZE + 1))  # running sums of squares
        # the lag energies, then the denominators of r(tau), then each lag's
        # bound in the peak test
        self._denom = np.empty((rows, _N_PITCH_LAGS))
        # r(tau) between two -inf guards, so that each lag's neighbours are
        # one slice away
        guarded = np.full((rows, _N_PITCH_LAGS + 2), -np.inf)
        self._keep = np.empty((rows, _N_PITCH_LAGS), dtype=bool)
        self._audible = np.empty((rows, _N_PITCH_LAGS), dtype=bool)
        # the views each call reads and writes, taken once
        self._x = self._pair[:, 0]
        self._reversed = self._pair[:, 1, :PITCH_CORR_WINDOW]
        self._sums = sq[:, 1:]
        self._total = sq[:, -1:]  # the energy of every sample a lag reads
        self._lag_end, self._lag_start = sq[:, _LAG_END], sq[:, _LAG_START]
        self._r = guarded[:, 1:-1]
        self._left, self._right = guarded[:, :-2], guarded[:, 2:]

    def __call__(self, histories: np.ndarray) -> tuple[list[int], list[float]]:
        """The pitch of each row of a [k, PITCH_HISTORY] float64 array.

        Returns each row's period in samples (0 when unvoiced) and its
        correlation (0.0 when unvoiced).
        """
        k = len(histories)
        x, cur = self._x[:k], self._cur[:k]
        x[:] = histories[:, :PITCH_FFT_SIZE]
        cur[:] = histories[:, PITCH_CORR_WINDOW:]
        cur_energy = np.matmul(cur[:, None, :], cur[:, :, None])[:, 0]  # np.dot per row, [k, 1]
        self._reversed[:k] = cur[:, ::-1]
        spec = np.fft.rfft(self._pair[:k])
        spec[:, 0] *= spec[:, 1]
        c = np.fft.irfft(spec[:, 0], PITCH_FFT_SIZE)[:, _PITCH_CORR]
        np.add.accumulate(np.multiply(x, x, out=self._squares[:k]), axis=1, out=self._sums[:k])
        denom, keep, audible, r = self._denom[:k], self._keep[:k], self._audible[:k], self._r[:k]
        np.subtract(self._lag_end[:k], self._lag_start[:k], out=denom)
        # a lag window with at most 1e-12 of the energy the lags read holds
        # little but round-off of the running sum, and its correlation
        # little but round-off of the transform: such a lag reads r = 0
        np.greater(denom, LAG_ENERGY_FLOOR * self._total[:k], out=audible)
        denom *= cur_energy
        np.sqrt(denom, out=denom)  # a product of sums of squares: never negative
        # r is 0 where the denominator is at most 1e-20 or NaN
        r.fill(0.0)
        np.greater(denom, 1e-20, out=keep)
        np.divide(c, denom, out=r, where=np.logical_and(keep, audible, out=keep))
        # the lower clip at -1 cannot change a peak that reaches the threshold
        np.minimum(r, 1.0, out=r)

        peak = np.maximum.reduce(r, axis=1, keepdims=True)
        # the first local maximum within OCTAVE_PREFERENCE of the peak: r at
        # least both neighbours and the threshold (a NaN among them fails the
        # comparison, as it fails each test on its own); a voiced row's global
        # maximum is one, so argmax finds a candidate
        bound = denom
        np.maximum(self._left[:k], self._right[:k], out=bound)
        np.maximum(bound, OCTAVE_PREFERENCE * peak, out=bound)
        idx = np.greater_equal(r, bound, out=keep).argmax(axis=1)

        # one decision per row, in Python numbers: a silent window, or a NaN
        # peak from non-finite input, is unvoiced
        periods, correlations = [], []
        for row, (i, p, e) in enumerate(zip(idx.tolist(), peak[:, 0].tolist(),
                                            cur_energy[:, 0].tolist())):
            voiced = p >= VOICING_THRESHOLD and e >= 1e-20
            periods.append(PITCH_MIN_LAG + i if voiced else 0)
            correlations.append(float(r[row, i]) if voiced else 0.0)
        return periods, correlations


def estimate_pitch(history: np.ndarray) -> PitchEstimate:
    """Search lags 96..768 for the pitch period by normalized autocorrelation.

    The last 768 samples are correlated against lagged copies; the returned
    lag is the smallest local maximum of r(tau) whose correlation reaches
    85% of the global peak, which suppresses octave errors toward multiples
    of the true period. A peak below 0.3 is treated as unvoiced. A lag whose
    window holds at most LAG_ENERGY_FLOOR of the energy of the samples the
    lags read scores 0, so the silence before an onset cannot look voiced.
    """
    x = np.asarray(history, dtype=np.float64)
    if x.ndim != 1 or len(x) < PITCH_HISTORY:
        raise ValueError(f"need at least {PITCH_HISTORY} samples of history")
    (period,), (correlation,) = _PitchSearch()(x[None, -PITCH_HISTORY:])
    return PitchEstimate(period or None, correlation)


def coherence_from_spectra(spec: np.ndarray, spec_delayed: np.ndarray,
                           e_cur: np.ndarray | None = None) -> np.ndarray:
    """Per-band normalized correlation between a frame and its pitch-lagged copy.

    Coherence in band b is the band-weighted real cross-spectrum of the two
    spectra normalized by their band energies, clamped to [0, 1]; bands
    without energy read 0. `e_cur` is band_energies(spec) if known.
    """
    cross = spec.real * spec_delayed.real + spec.imag * spec_delayed.imag
    if e_cur is None:
        e_cur = band_energies(spec)
    e_del = band_energies(spec_delayed)
    return _coherence(_band_sums(cross), e_cur, e_del, np.empty(e_del.shape))


def _coherence(num: np.ndarray, e_cur: np.ndarray, e_del: np.ndarray,
               out: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Band cross sums over sqrt(e_cur * e_del), clamped to [0, 1]; 0 without energy.

    Writes `out` and returns it; overwrites `e_del` with the denominators.
    `keep` is optional boolean scratch of the same shape.
    """
    denom = np.sqrt(np.multiply(e_cur, e_del, out=e_del), out=e_del)
    out.fill(0.0)
    np.divide(num, denom, out=out, where=np.greater(denom, 1e-20, out=keep))
    return out.clip(0.0, 1.0, out=out)


@dataclass(frozen=True, slots=True)
class FrameFeatures:
    """One row of a Frames record: its feature row and its pitch estimate.

    Iterating a record yields these, for the benchmark's voiced share
    (bench/inputs.py), which reads `pitch.voiced`; until the benchmark reads
    `Frames.periods` instead. Everything else reads the record's fields.
    """

    vector: np.ndarray
    pitch: PitchEstimate


@dataclass(frozen=True)
class Frames:
    """The frames of one push or of one file, one read-only row each.

    features: [k, 68] float32; per row 32 log10-compressed band energies
              (floor -9), 32 pitch coherences in [0, 1], and the general
              features [normalized period, pitch correlation (0 when
              unvoiced), frame log-energy, log-energy delta]
    periods:  [k] int64 pitch periods in samples, 0 when unvoiced
    spectra:  [k, 481] complex128 analysis spectra (rfft of the windowed
              frame)
    """

    features: np.ndarray
    periods: np.ndarray
    spectra: np.ndarray

    def __iter__(self) -> Iterator[FrameFeatures]:
        for vector, period in zip(self.features, self.periods.tolist()):
            yield FrameFeatures(vector, PitchEstimate(period or None, float(vector[_CORRELATION])))


def _read_only(frames: Frames) -> Frames:
    for field in (frames.features, frames.periods, frames.spectra):
        field.flags.writeable = False
    return frames


# the record of a push that completes no frame, shared by every such push
NO_FRAMES = _read_only(Frames(np.empty((0, FEATURE_DIM), dtype=np.float32),
                              np.empty(0, dtype=np.int64), np.empty((0, N_BINS), dtype=complex)))


# the columns of a frame block (see assemble_features): the frame energy,
# then the 68 features in order; the first 33 are log-compressed together
_BLOCK_WIDTH = 1 + FEATURE_DIM
_BANDS = slice(1, 1 + N_BANDS)
_COHERENCES = slice(1 + N_BANDS, 1 + 2 * N_BANDS)
_CORRELATION = 2 * N_BANDS + 1  # the pitch correlation's feature column


def assemble_features(block: np.ndarray, periods: list[int], correlations: list[float],
                      prev_log_energy: float | None) -> np.ndarray:
    """Compress k frames' energies and complete their 68 feature columns.

    `block` is a [k, 69] float64 array holding per frame its summed band
    energy, its 32 band energies clipped at 0 and its 32 coherences (the
    column slices 0, _BANDS and _COHERENCES); the rest of each row is
    written here, and columns 1-68, returned as a view, are the frames'
    features. `periods` are in samples (0 when unvoiced). Each frame's
    log-energy delta subtracts the previous frame's log energy as a float32
    feature holds it; the first frame's subtracts `prev_log_energy`, or
    reads 0 when that is None.
    """
    levels = block[:, : 1 + N_BANDS]
    levels += ENERGY_FLOOR
    np.log10(levels, out=levels)
    # the four general features are a few scalars per frame
    general = []
    previous = prev_log_energy
    log_energy = block[:, 0]
    stored = log_energy.astype(np.float32).tolist()  # as the features hold them
    for p, r, e, e32 in zip(periods, correlations, log_energy.tolist(), stored):
        norm = (p - PITCH_MIN_LAG) / (PITCH_MAX_LAG - PITCH_MIN_LAG) if p else 0.0
        general.append((norm, r, e, 0.0 if previous is None else e - previous))
        previous = e32
    block[:, -4:] = general
    return block[:, 1:]


class FeatureStream:
    """Streaming feature extractor for one audio session.

    Frame t covers input samples [t*480, t*480 + 960); its row is returned
    from push() the moment that window is complete.  Missing history at
    stream start is treated as silence, so chunking never changes the
    output: pushing a file sample-by-sample produces bit-identical rows to
    one big push.

    The 30 ms look-ahead is not a feature-side delay: the enhancer engine
    consumes features up to frame t+3 before finalizing its output for
    frame t (a 3-frame delay line at the feature/output boundary).

    Not thread-safe; use one FeatureStream per stream, one thread at a time.
    """

    def __init__(self) -> None:
        # the framing buffer: FRAME_CONTEXT samples before the next frame's
        # start, zero-primed, then every sample received since
        self._buf = np.zeros(FRAME_CONTEXT)
        self._fill = FRAME_CONTEXT
        self._reserve(1)
        self._prev_log_energy: float | None = None

    def _reserve(self, rows: int) -> None:
        """Size the framing buffer and the kernel scratch to `rows` frames."""
        self._capacity = FRAME_CONTEXT + (rows - 1) * HOP + WINDOW
        # the buffer ends in one window of zeros that framing never writes:
        # an unvoiced frame's pitch-lagged copy, which gives it zero coherence
        buf = np.zeros(self._capacity + WINDOW)
        buf[: self._fill] = self._buf[: self._fill]
        self._buf = buf
        # every window of the buffer, and each frame's pitch history, as views
        self._windows = sliding_window_view(buf, WINDOW)
        self._frame_starts = list(range(FRAME_CONTEXT, FRAME_CONTEXT + rows * HOP, HOP))
        self._histories = sliding_window_view(buf, PITCH_HISTORY)[
            FRAME_CONTEXT + WINDOW - PITCH_HISTORY :: HOP][:rows]
        # the pitch search; the frames and their pitch-lagged copies windowed
        # for one transform; and the interleaved products that give both
        # powers and the cross spectra
        self._pitch = _PitchSearch(rows)
        self._windowed = np.empty((2 * rows, WINDOW))
        self._products = np.empty((3 * rows, 2 * N_BINS))
        # the frames' energies, coherences and features (see assemble_features)
        self._block = np.empty((rows, _BLOCK_WIDTH))
        self._keep = np.empty((rows, N_BANDS), dtype=bool)
        self._rows = rows

    def push(self, samples: np.ndarray) -> Frames:
        """Feed samples; return the frames whose windows are now complete.

        The frames are computed up to BLOCK_FRAMES at a time, with the same
        results as one frame at a time, into one record for the push; a
        push that completes no frame returns NO_FRAMES.
        """
        chunk = np.asarray(samples).ravel()
        n = len(chunk)
        due = max((self._fill + n - FRAME_CONTEXT - WINDOW) // HOP + 1, 0)
        if not due:  # the samples fit in the buffer before the next frame's end
            self._buf[self._fill : self._fill + n] = chunk
            self._fill += n
            return NO_FRAMES
        if min(due, BLOCK_FRAMES) > self._rows:
            self._reserve(min(due, BLOCK_FRAMES))
        out = Frames(np.empty((due, FEATURE_DIM), dtype=np.float32),
                     np.empty(due, dtype=np.int64), np.empty((due, N_BINS), dtype=complex))
        done = pos = 0
        while True:
            take = min(n - pos, self._capacity - self._fill)
            self._buf[self._fill : self._fill + take] = chunk[pos : pos + take]
            self._fill += take
            pos += take
            k = (self._fill - FRAME_CONTEXT - WINDOW) // HOP + 1
            if k > 0:
                self._emit(k, out, done)
                done += k
                used = k * HOP
                self._buf[: self._fill - used] = self._buf[used : self._fill]
                self._fill -= used
            if pos == n:  # otherwise the buffer filled up and the frames made room
                return _read_only(out)

    def _emit(self, k: int, out: Frames, at: int) -> None:
        """Write the first k frames of the framing buffer to rows at.. of `out`."""
        rows = slice(at, at + k)
        block = self._block[:k]
        periods, correlations = self._pitch(self._histories[:k])
        out.periods[rows] = periods
        # rows 0..k-1 the frames, rows k..2k-1 their pitch-lagged copies (an
        # unvoiced frame's is the zero window at the end of the buffer)
        frame_starts = self._frame_starts[:k]
        lag_starts = [start - period if period else self._capacity
                      for start, period in zip(frame_starts, periods)]
        windowed = self._windowed[: 2 * k]
        # (an index array: numpy gathers with it faster than with a list)
        np.multiply(self._windows[np.array(frame_starts + lag_starts)], VORBIS_WINDOW,
                    out=windowed)
        spec = np.fft.rfft(windowed)
        out.spectra[rows] = spec[:k]
        # interleaved re*re, im*im products whose pairs sum to each row's
        # power and, in the last k rows, to the cross spectra Re(X conj Xd)
        flat = spec.view(np.float64)
        products = self._products[: 3 * k]
        np.multiply(flat, flat, out=products[: 2 * k])
        np.multiply(flat[:k], flat[k:], out=products[2 * k :])
        sums = _band_sums(products[:, 0::2] + products[:, 1::2])
        energies = sums[:k]
        np.add.reduce(energies, axis=1, out=block[:, 0])
        np.maximum(energies, 0.0, out=block[:, _BANDS])
        _coherence(sums[2 * k :], energies, sums[k : 2 * k], block[:, _COHERENCES],
                   self._keep[:k])
        features = out.features[rows]
        features[:] = assemble_features(block, periods, correlations, self._prev_log_energy)
        self._prev_log_energy = float(features[-1, -2])


def extract_features(audio: np.ndarray, fb: ErbFilterbank | None = None) -> Frames:
    """Whole-file feature extraction; identical to streaming the same samples.

    `fb` is only checked (check_filterbank); it stays while the benchmark passes one.
    """
    check_filterbank(fb)
    return FeatureStream().push(np.asarray(audio))


def feature_matrix(frames: Frames) -> np.ndarray:
    """The record's [T, 68] float32 features; kept while the benchmark calls it."""
    return frames.features
