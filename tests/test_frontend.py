"""DSP frontend: filterbank, transform, pitch, coherence, 68-dim features."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from targetvoice import frontend as fe
from targetvoice.synth import synth_speaker
from tests.conftest import concat_frames, sawtooth, tone
from tests.unfused_reference import (
    ReferenceFeatureStream,
    reference_estimate_pitch,
    stack_frames,
)

# ---------------------------------------------------------------------------
# ERB filterbank
# ---------------------------------------------------------------------------


class TestFilterbank:
    def test_partition_of_unity(self, fb):
        sums = fb.weights.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_band_count(self, fb):
        assert fb.weights.shape == (32, 481)

    def test_dc_anchored_in_band_zero(self, fb):
        assert fb.weights[0, 0] == pytest.approx(1.0)
        assert np.all(fb.weights[1:, 0] == 0.0)

    def test_centers_match_independent_erb_formula(self, fb):
        # independent oracle: uniform steps on the ERB-rate scale computed
        # from ERB(f) = 24.7 * (4.37 f / 1000 + 1) integrated in closed form
        def erb_rate(f):
            return 21.4 * np.log10(1.0 + 0.00437 * f)

        top = erb_rate(24000.0)
        expected = (10.0 ** (np.linspace(0.0, top, 32) / 21.4) - 1.0) / 0.00437
        np.testing.assert_allclose(fb.band_centers, expected, rtol=1e-9, atol=1e-6)

    def test_centers_increasing_widths_nondecreasing(self, fb):
        centers = fb.band_centers
        assert np.all(np.diff(centers) > 0)
        widths = centers[2:] - centers[:-2]  # triangular support extents
        assert np.all(np.diff(widths) > -1e-9)

    def test_triangular_unimodal_profiles(self, fb):
        for b in range(32):
            w = fb.weights[b]
            peak = int(np.argmax(w))
            assert np.all(np.diff(w[: peak + 1]) >= -1e-12)
            assert np.all(np.diff(w[peak:]) <= 1e-12)

    def test_at_most_two_bands_per_bin(self, fb):
        assert np.all((fb.weights > 0).sum(axis=0) <= 2)

    def test_every_band_has_a_dedicated_bin(self):
        # a bin where that band holds the largest weight
        dedicated = np.argmax(fe.DEFAULT_FILTERBANK.weights, axis=0)
        assert set(dedicated.tolist()) == set(range(32))


# ---------------------------------------------------------------------------
# Frame transform
# ---------------------------------------------------------------------------


class TestAnalyzeFrame:
    def test_zero_in_zero_out(self):
        spec = fe.frame_spectra(np.zeros(960))[0]
        assert spec.shape == (481,)
        assert np.all(spec == 0)

    def test_1khz_peak_bin(self):
        spec = fe.frame_spectra(tone(1000.0, 0.02, 1.0)[:960])[0]
        assert np.argmax(np.abs(spec)) == 20  # 1000 * 960 / 48000

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(960)
        spec = fe.frame_spectra(x)[0]
        mag2 = np.abs(spec) ** 2
        freq_energy = (mag2[0] + 2 * mag2[1:-1].sum() + mag2[-1]) / 960
        time_energy = np.sum((x * fe.vorbis_window()) ** 2)
        assert freq_energy == pytest.approx(time_energy, rel=1e-4)

    def test_linear(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 960))
        lhs = fe.frame_spectra(2.0 * a + 3.0 * b)[0]
        rhs = 2.0 * fe.frame_spectra(a)[0] + 3.0 * fe.frame_spectra(b)[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="960"):
            fe.frame_spectra(np.zeros(480))

    def test_princen_bradley_window(self):
        w = fe.vorbis_window()
        np.testing.assert_allclose(w[:480] ** 2 + w[480:] ** 2, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Band energies
# ---------------------------------------------------------------------------


class TestBandEnergies:
    def test_zero_spectrum(self):
        assert np.all(fe.band_energies(np.zeros(481, dtype=complex)) == 0)

    def test_flat_spectrum_sums_to_bin_count(self):
        flat = np.ones(481, dtype=complex)
        energies = fe.band_energies(flat)
        assert energies.sum() == pytest.approx(481.0, abs=1e-6)
        assert np.all(energies >= 0)

    def test_tone_at_band_center_is_local(self):
        center_band = 11
        freq = fe.DEFAULT_FILTERBANK.band_centers[center_band]
        spec = fe.frame_spectra(tone(freq, 0.02, 1.0)[:960])[0]
        energies = fe.band_energies(spec)
        local = energies[center_band - 1 : center_band + 2].sum()
        assert local >= 0.9 * energies.sum()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            fe.band_energies(np.zeros(100, dtype=complex))


# ---------------------------------------------------------------------------
# Pitch estimation
# ---------------------------------------------------------------------------


class TestEstimatePitch:
    def test_sawtooth_100hz(self):
        est = fe.estimate_pitch(sawtooth(100.0, 2000))
        assert est.period == pytest.approx(480, abs=1)
        assert est.correlation > 0.9

    def test_silence_unvoiced(self):
        est = fe.estimate_pitch(np.zeros(1600))
        assert est.period is None
        assert est.correlation == 0.0

    def test_white_noise_rarely_correlated(self):
        confident = sum(
            fe.estimate_pitch(np.random.default_rng(k).standard_normal(1600)).correlation >= 0.5
            for k in range(100)
        )
        assert confident <= 5

    @pytest.mark.parametrize("f0", np.geomspace(62.5, 500.0, 20))
    def test_period_within_one_sample(self, f0):
        t = np.arange(4000) / 48000.0
        x = (np.sin(2 * np.pi * f0 * t)
             + 0.4 * np.sin(2 * np.pi * 2 * f0 * t + 0.7)
             + 0.2 * np.sin(2 * np.pi * 3 * f0 * t + 1.1))
        est = fe.estimate_pitch(x[-1536:])
        assert est.period is not None
        assert abs(est.period - 48000.0 / f0) <= 1.0

    def test_octave_suppression_prefers_fundamental(self):
        # 500 Hz: lags 96, 192, ... all correlate perfectly; want 96
        est = fe.estimate_pitch(tone(500.0, 0.05, 1.0)[-1536:])
        assert est.period == 96

    def test_short_history_rejected(self):
        with pytest.raises(ValueError, match="1536"):
            fe.estimate_pitch(np.zeros(1000))

    def test_dc_input_finite(self):
        est = fe.estimate_pitch(np.ones(1536))
        assert est.period is not None
        assert np.isfinite(est.correlation)

    @pytest.mark.parametrize("sample", [np.inf, 1e300], ids=["inf", "1e300"])
    def test_non_finite_correlation_unvoiced(self, sample):
        # a 150 Hz square wave whose square overflows at one sample gives a
        # NaN correlation peak, which must not read as voiced
        x = np.sign(np.sin(2 * np.pi * 150 * np.arange(1536) / 48000))
        x[1000] = sample
        with np.errstate(all="ignore"):
            assert fe.estimate_pitch(x) == fe.PitchEstimate(None, 0.0)


def _guarded_reference_pitch(history: np.ndarray, correlate) -> fe.PitchEstimate:
    """The pitch search with c(tau) = correlate(x, cur, lags) taken outside the kernel."""
    x = np.asarray(history, dtype=np.float64)[-fe.PITCH_HISTORY:]
    cur = x[fe.PITCH_CORR_WINDOW:]
    cur_energy = float(np.dot(cur, cur))
    if cur_energy < 1e-20:
        return fe.PitchEstimate(None, 0.0)
    lags = np.arange(fe.PITCH_MIN_LAG, fe.PITCH_MAX_LAG + 1)
    c = correlate(x, cur, lags)
    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    lag_energy = sq[fe.PITCH_HISTORY - lags] - sq[fe.PITCH_CORR_WINDOW - lags]
    # the onset guard: a lag window with at most LAG_ENERGY_FLOOR of the
    # energy of every sample the lags read has r = 0
    audible = lag_energy > fe.LAG_ENERGY_FLOOR * sq[fe.PITCH_HISTORY - fe.PITCH_MIN_LAG]
    denom = np.sqrt(cur_energy * lag_energy)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(np.where((denom > 1e-20) & audible, c / denom, 0.0), -1.0, 1.0)
    peak = float(r.max())
    if peak < fe.VOICING_THRESHOLD:
        return fe.PitchEstimate(None, 0.0)
    is_peak = np.empty(len(r), dtype=bool)
    is_peak[0] = r[0] >= r[1]
    is_peak[-1] = r[-1] >= r[-2]
    is_peak[1:-1] = (r[1:-1] >= r[:-2]) & (r[1:-1] >= r[2:])
    candidates = np.flatnonzero(is_peak & (r >= fe.OCTAVE_PREFERENCE * peak))
    idx = int(candidates[0]) if len(candidates) else int(np.argmax(r))
    return fe.PitchEstimate(int(lags[idx]), float(r[idx]))


def _scipy_reference_pitch(history: np.ndarray) -> fe.PitchEstimate:
    """The guarded search with the correlation taken by scipy.signal.correlate (2304 points)."""
    from scipy.signal import correlate

    return _guarded_reference_pitch(
        history,
        lambda x, cur, lags: correlate(x, cur, mode="valid", method="fft")[fe.PITCH_CORR_WINDOW - lags])


def _direct_reference_pitch(history: np.ndarray) -> fe.PitchEstimate:
    """The guarded search with each lag's correlation taken by np.dot."""
    return _guarded_reference_pitch(
        history,
        lambda x, cur, lags: np.array([np.dot(x[fe.PITCH_CORR_WINDOW - lag : fe.PITCH_HISTORY - lag], cur)
                                       for lag in lags]))


def _assert_same_pitch(got: fe.PitchEstimate, want: fe.PitchEstimate, what: str) -> None:
    """The same period, and a correlation within 1e-12 of the reference's."""
    assert got.period == want.period, what
    assert abs(got.correlation - want.correlation) <= 1e-12, what


def _pitch_corpus(rng: np.random.Generator):
    """2100 histories: noise, pulse trains, sawtooths, silence, near threshold."""
    n = fe.PITCH_HISTORY
    t = np.arange(n)
    for amp in np.geomspace(1e-4, 1e2, 500):
        yield amp * rng.standard_normal(n)
    for kind in ("pulse", "sawtooth"):
        for f0 in np.geomspace(62.5, 500.0, 500):
            phase = (t * f0 / fe.SAMPLE_RATE + rng.uniform()) % 1.0
            clean = (phase < f0 / fe.SAMPLE_RATE) * 1.0 if kind == "pulse" else 2.0 * phase - 1.0
            noisy = clean + rng.uniform(0.0, 1.5) * np.std(clean) * rng.standard_normal(n)
            yield 10.0 ** rng.uniform(-4, 2) * noisy
    for _ in range(50):
        yield np.zeros(n)
    # periodic plus white noise at the power ratio that puts the
    # correlation peak near the 0.3 voicing threshold
    for _ in range(550):
        f0 = rng.uniform(62.5, 500.0)
        clean = np.sin(2 * np.pi * f0 * t / fe.SAMPLE_RATE + rng.uniform(0, 2 * np.pi))
        rho = rng.uniform(0.2, 0.4)
        sigma = np.sqrt(0.5 * (1.0 - rho) / rho)
        yield clean + sigma * rng.standard_normal(n)


class TestPitchCorrelationPath:
    def test_fft_size_is_the_span_the_lags_read(self):
        from scipy.fft import next_fast_len

        span = fe.PITCH_HISTORY - fe.PITCH_MIN_LAG
        assert fe.PITCH_FFT_SIZE == span == next_fast_len(span, real=True) == 1440

    @pytest.mark.parametrize("rows", [1, fe.BLOCK_FRAMES])
    def test_correlations_match_direct_sums(self, rows):
        # r(tau) at every lag, read from the kernel's buffer, against
        # np.dot(x[768 - tau : 1536 - tau], cur) / (|lag window| |cur|)
        rng = np.random.default_rng(7)
        lags = np.arange(fe.PITCH_MIN_LAG, fe.PITCH_MAX_LAG + 1)
        search = fe._PitchSearch(rows)
        for _ in range(64 // rows):
            histories = 10.0 ** rng.uniform(-4, 2, (rows, 1)) * rng.standard_normal((rows, fe.PITCH_HISTORY))
            search(histories)
            for x, r in zip(histories, search._r[:rows]):
                cur = x[fe.PITCH_CORR_WINDOW:]
                windows = [x[fe.PITCH_CORR_WINDOW - lag : fe.PITCH_HISTORY - lag] for lag in lags]
                direct = np.array([np.dot(w, cur) / np.sqrt(np.dot(w, w) * np.dot(cur, cur))
                                   for w in windows])
                assert np.max(np.abs(r - direct)) <= 1e-12

    def test_silent_lags_at_an_onset_stay_out_of_the_search(self):
        # 1e-17-level noise, then a loud 200 Hz onset: every lag from
        # 1536 - onset up reads a window of noise alone, whose correlation
        # with the loud window is transform round-off over almost nothing
        rng = np.random.default_rng(3)
        lags = np.arange(fe.PITCH_MIN_LAG, fe.PITCH_MAX_LAG + 1)
        for onset in (800, 900, 1000, 1100):
            x = 1e-17 * rng.standard_normal(fe.PITCH_HISTORY)
            t = np.arange(fe.PITCH_HISTORY - onset) / fe.SAMPLE_RATE
            x[onset:] = (0.5 * np.sign(np.sin(2 * np.pi * 200 * t + 0.3))
                         + 0.3 * np.sin(2 * np.pi * 400 * t))
            search = fe._PitchSearch()
            (period,), (correlation,) = search(x[None])
            silent = search._r[0, lags >= fe.PITCH_HISTORY - onset]
            assert len(silent) > 0 and np.all(silent < 1.0), f"onset {onset}"
            _assert_same_pitch(fe.PitchEstimate(period or None, correlation),
                               _direct_reference_pitch(x), f"onset {onset}")
            assert period == 240

    def test_matches_scipy_correlate_exactly(self):
        voiced = near_threshold = 0
        histories = list(_pitch_corpus(np.random.default_rng(2024)))
        assert len(histories) >= 2000
        for k, history in enumerate(histories):
            got = fe.estimate_pitch(history)
            _assert_same_pitch(got, _scipy_reference_pitch(history), f"history {k}")
            voiced += got.voiced
            near_threshold += got.voiced and got.correlation < 0.35
        # the corpus reaches both sides of the voicing decision
        assert 500 <= voiced <= len(histories) - 500
        assert near_threshold >= 20

    def test_block_kernel_matches_scipy_correlate_exactly(self):
        histories = np.stack(list(_pitch_corpus(np.random.default_rng(2024))))
        search = fe._PitchSearch(fe.BLOCK_FRAMES)
        for start in range(0, len(histories), fe.BLOCK_FRAMES):
            block = histories[start : start + fe.BLOCK_FRAMES]
            for k, got in enumerate(_row_estimates(search, block)):
                _assert_same_pitch(got, _scipy_reference_pitch(block[k]), f"history {start + k}")


def _row_estimates(search, histories: np.ndarray) -> list[fe.PitchEstimate]:
    periods, correlations = search(histories)
    return [fe.PitchEstimate(period or None, corr) for period, corr in zip(periods, correlations)]


class TestFusedPitchSearch:
    def test_matches_unfused_reference_on_corpus(self):
        search = fe._PitchSearch()  # one instance: its one-row scratch serves every history
        for k, history in enumerate(_pitch_corpus(np.random.default_rng(2024))):
            want = reference_estimate_pitch(history)
            assert fe.estimate_pitch(history) == want, f"history {k}"
            assert _row_estimates(search, history[None]) == [want], f"history {k}"


def test_streaming_imports_leave_scipy_signal_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "import targetvoice, targetvoice.pipeline, targetvoice.enhancer, "
            "targetvoice.embedder, targetvoice.weights_io, targetvoice.comb\n"
            "print('scipy.signal' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Pitch coherence
# ---------------------------------------------------------------------------


def pitch_coherence(window, delayed):
    return fe.coherence_from_spectra(fe.frame_spectra(window)[0],
                                     fe.frame_spectra(delayed)[0])


class TestPitchCoherence:
    def test_periodic_signal_full_coherence(self):
        period = 480
        n = np.arange(4000)
        sig = np.sin(2 * np.pi * n / period) + 0.5 * np.sin(2 * np.pi * 3 * n / period)
        window = sig[2000:2960]
        delayed = sig[2000 - period : 2960 - period]
        coh = pitch_coherence(window, delayed)
        energies = fe.band_energies(fe.frame_spectra(window)[0])
        voiced = energies > 1e-3 * energies.max()
        assert np.all(coh[voiced] > 0.95)

    def test_white_noise_low_coherence(self):
        means = []
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(4000)
            coh = pitch_coherence(x[2000:2960], x[1520:2480])
            means.append(coh.mean())
        assert np.mean(means) < 0.4

    def test_range_clamped(self):
        rng = np.random.default_rng(5)
        coh = pitch_coherence(rng.standard_normal(960), rng.standard_normal(960))
        assert np.all(coh >= 0.0)
        assert np.all(coh <= 1.0)


# ---------------------------------------------------------------------------
# Feature assembly
# ---------------------------------------------------------------------------


# the feature columns: 32 band magnitudes, 32 coherences, 4 general features
BAND_MAG, COHERENCE, GENERAL = slice(0, 32), slice(32, 64), slice(64, 68)


class TestAssembleFeatures:
    def test_dimensionality_is_68(self):
        frames = fe.extract_features(np.random.default_rng(0).standard_normal(9600))
        n = (9600 - 960) // 480 + 1
        assert frames.features.shape == (n, 68)
        assert frames.periods.shape == (n,)
        assert frames.spectra.shape == (n, 481)

    def test_vector_is_the_frames_read_only_row(self):
        frames = fe.extract_features(np.random.default_rng(1).standard_normal(4800))
        for field, dtype in ((frames.features, np.float32), (frames.periods, np.int64),
                             (frames.spectra, np.complex128)):
            assert field.dtype == dtype and not field.flags.writeable
        with pytest.raises(ValueError):
            frames.features[0, 0] = 0.0
        # iteration (the benchmark's per-frame view) yields rows, not copies
        for t, f in enumerate(frames):
            assert np.shares_memory(f.vector, frames.features[t])

    def test_silent_frame_at_floor(self):
        f = fe.extract_features(np.zeros(4800)).features[0]
        np.testing.assert_allclose(f[BAND_MAG], fe.LOG_FLOOR, atol=1e-6)
        assert np.all(f[COHERENCE] == 0)
        assert f[GENERAL][0] == 0.0

    def test_amplitude_doubling_shifts_log_by_constant(self):
        rng = np.random.default_rng(8)
        x = 0.2 * rng.standard_normal(9600)
        lo = fe.extract_features(x).features[6, BAND_MAG]
        hi = fe.extract_features(2.0 * x).features[6, BAND_MAG]
        shift = hi.astype(np.float64) - lo.astype(np.float64)
        np.testing.assert_allclose(shift, np.log10(4.0), atol=1e-5)

    def test_normalized_period_range(self):
        frames = fe.extract_features(sawtooth(100.0, 48000))
        norm = frames.features[frames.periods > 0, GENERAL][:, 0]
        assert len(norm)
        assert np.all((0.0 <= norm) & (norm <= 1.0))
        # 100 Hz -> period 480 -> (480-96)/672
        assert norm[5] == pytest.approx((480 - 96) / 672, abs=0.01)

    @pytest.mark.parametrize("signal", [
        np.ones(9600),
        np.sign(np.sin(2 * np.pi * 97 * np.arange(9600) / 48000)),
        0.7 + 0.3 * np.sign(np.sin(2 * np.pi * 233 * np.arange(9600) / 48000)),
    ], ids=["dc", "square", "square_with_offset"])
    def test_features_finite_for_hostile_inputs(self, signal):
        assert np.all(np.isfinite(fe.extract_features(signal).features))


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


def _square_150hz(n: int) -> np.ndarray:
    return np.sign(np.sin(2 * np.pi * 150 * np.arange(n) / 48000))


def _with_samples(x: np.ndarray, at: int, values) -> np.ndarray:
    x = x.copy()
    x[at : at + len(values)] = values
    return x


def _speech_like(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 3 * np.arange(n) / 48000)
    return envelope * (0.5 * sawtooth(140.0, n) + 0.1 * rng.standard_normal(n))


STREAM_SIGNALS = {
    "noise": lambda: (0.3 * np.random.default_rng(11).standard_normal(14400)).astype(np.float32),
    "nan_burst": lambda: _with_samples(_square_150hz(24000), 12000, [np.nan] * 10),
    "inf": lambda: _with_samples(_square_150hz(24000), 12000, [np.inf, 0.0, -np.inf]),
    "1e300": lambda: _with_samples(_square_150hz(24000), 12000, [1e300]),
    "1e6": lambda: _with_samples(_square_150hz(24000), 12000, [1e6, -1e6]),
    "dc": lambda: np.ones(14400),
    "silence_in_speech": lambda: np.concatenate(
        [_speech_like(24000, 1), np.zeros(96000), _speech_like(24000, 2)]),
}


def _frame_bytes(frames: fe.Frames) -> list[bytes]:
    # each row's features, period and spectrum; bytes, not ==: NaN features
    # never compare equal
    return [b"".join(row) for row in zip(
        map(bytes, frames.features), map(bytes, frames.periods), map(bytes, frames.spectra))]


class TestFeatureStream:
    # the bare chunk ids are the white-noise signal
    @pytest.mark.parametrize("signal, chunk", [
        pytest.param(signal, chunk, id=str(chunk) if signal == "noise" else f"{signal}-{chunk}")
        for signal in STREAM_SIGNALS for chunk in (1, 7, 480, 1000, 9600)
    ])
    def test_streaming_equals_batch_bit_exact(self, signal, chunk):
        audio = STREAM_SIGNALS[signal]()
        with np.errstate(all="ignore"):
            ref = fe.extract_features(audio)
            got = _stream_record(fe.FeatureStream(), audio, chunk)
        assert len(got.features) == len(ref.features) == (len(audio) - 960) // 480 + 1
        assert _frame_bytes(got) == _frame_bytes(ref)

    def test_whole_file_memory_bounded(self):
        # one 30 s push holds its frames' outputs and bounded block
        # temporaries, not whole-file float64 copies of the input
        rng = np.random.default_rng(3)
        audio = (0.5 * sawtooth(120.0, 30 * 48000)
                 + 0.1 * rng.standard_normal(30 * 48000)).astype(np.float32)
        tracemalloc.start()
        try:
            frames = fe.extract_features(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(frames.features) == 2999
        outputs = sum(field.nbytes for field in (frames.features, frames.periods,
                                                  frames.spectra))
        assert peak < outputs + audio.size * 8 + 2 * 2 ** 20

    def test_emission_timing(self):
        # frame t emerges exactly when its window (t*480 + 960) is buffered
        stream = fe.FeatureStream()
        audio = 0.1 * np.random.default_rng(0).standard_normal(4800)
        emitted = []
        for i, sample in enumerate(audio):
            emitted.extend([i + 1] * len(stream.push(np.array([sample])).features))
        expected = [t * 480 + 960 for t in range(len(emitted))]
        assert emitted == expected

    def test_pushes_completing_no_frame_share_one_read_only_record(self):
        stream = fe.FeatureStream()
        audio = 0.1 * np.random.default_rng(1).standard_normal(960)
        first, second = stream.push(audio[:100]), stream.push(audio[100:200])
        assert first is second is fe.NO_FRAMES
        for field in (first.features, first.periods, first.spectra):
            assert len(field) == 0 and not field.flags.writeable
        # the samples are kept: the frame they start is the batch frame
        assert _frame_bytes(stream.push(audio[200:])) == _frame_bytes(fe.extract_features(audio))

    def test_push_hands_out_each_frames_analysis_spectrum(self):
        audio = 0.3 * np.random.default_rng(5).standard_normal(4800)
        stream = fe.FeatureStream()
        spectra = np.concatenate([stream.push(audio[:1000]).spectra,
                                  stream.push(audio[1000:]).spectra])
        assert spectra.shape == (9, 481)
        assert spectra.tobytes() == fe.frame_spectra(audio).tobytes()

    def test_frame_count_matches_length(self):
        frames = fe.extract_features(np.zeros(48000))
        assert len(frames.features) == (48000 - 960) // 480 + 1

    def test_feature_matrix_shape(self):
        frames = fe.extract_features(np.zeros(9600))
        mat = fe.feature_matrix(frames)
        assert mat.shape == (len(frames.periods), 68)
        assert mat.dtype == np.float32


# ---------------------------------------------------------------------------
# The row kernel against the unfused one-frame reference
# ---------------------------------------------------------------------------


def _speech(seconds: float, seed: int) -> np.ndarray:
    audio = synth_speaker(seed, seconds).samples.astype(np.float64)
    return audio + 0.01 * np.random.default_rng(seed).standard_normal(len(audio))


ORACLE_SIGNALS = {
    "speech": lambda: _speech(1.0, 5),
    "nan_then_clean": lambda: _with_samples(_speech(1.0, 6), 9000, [np.nan] * 10),
    "1e6": lambda: 1e6 * _speech(1.0, 7),
    "long_silence": lambda: np.concatenate(
        [_speech(1.0, 8)[:12000], np.zeros(48000), _speech(1.0, 9)[:12000]]),
    "dc": lambda: np.ones(24000),
    "silence_mix": lambda: _silence_mix(13),
}


def _silence_mix(seed: int) -> np.ndarray:
    # digital silence of assorted lengths and offsets: whole silent pushes
    # at one frame and at 32, silent rows inside a block, a NaN just before
    # silence, and a stretch of -0.0
    x = _speech(2.0, seed)
    x[4000:4500] = 0.0        # shorter than a window
    x[9000:30000] = 0.0       # 40-odd silent windows
    x[29990] = np.nan         # inside the context of the first frames after
    x[40000:52000] = -0.0
    x[60000:78000] = 0.0
    return x


def _stream_record(stream, audio: np.ndarray, chunk: int) -> fe.Frames:
    """One record of `audio` pushed in chunks; the reference's frames stacked."""
    if isinstance(stream, ReferenceFeatureStream):
        spectra = []
        frames = [f for i in range(0, len(audio), chunk)
                  for f in stream.push(audio[i : i + chunk], spectra)]
        return stack_frames(frames, spectra)
    return concat_frames([stream.push(audio[i : i + chunk])
                          for i in range(0, len(audio), chunk)])


class TestFusedFramePath:
    # 24000-sample pushes complete 32 frames and then 18 at once
    @pytest.mark.parametrize("chunk", [1, 480, 733, 24000])
    @pytest.mark.parametrize("signal", list(ORACLE_SIGNALS))
    def test_byte_identical_to_unfused_reference(self, signal, chunk):
        audio = ORACLE_SIGNALS[signal]()
        with np.errstate(all="ignore"):
            frames = _stream_record(fe.FeatureStream(), audio, chunk)
            ref = _stream_record(ReferenceFeatureStream(), audio, chunk)
        assert len(frames.features) == (len(audio) - 960) // 480 + 1
        assert frames.periods.tolist() == ref.periods.tolist()
        assert _frame_bytes(frames) == _frame_bytes(ref)
        if signal != "dc":
            assert np.any(frames.periods)  # the coherence path runs

    def test_scratch_holds_no_poison(self):
        # a NaN reaches every scratch buffer of the kernel; once it has left
        # the history the stream agrees with one that never saw it. Pushes
        # of one frame on one-row scratch; then, on scratch that a first
        # 33-frame push sized to 32 rows, pushes of 1, of 20, and of 40
        # (32 + 8) frames
        for chunk, primed in ((480, False), (480, True), (9600, True), (19200, True)):
            burst = _with_samples(_speech(1.0, 10)[:9600], 4800, [np.nan] * 10)
            clean = _speech(1.0, 11)
            poisoned, fresh = fe.FeatureStream(), fe.FeatureStream()
            if primed:
                assert len(poisoned.push(_speech(1.0, 13)[: 34 * 480]).features) == 33
            with np.errstate(all="ignore"):
                before = _stream_record(poisoned, burst, chunk)
            after = _stream_record(poisoned, clean, chunk)
            want = _stream_record(fresh, clean, chunk)
            assert not np.all(np.isfinite(before.features))
            # after[0] straddles the two signals, so after[j + 1] is fresh
            # frame j; from fresh frame 2 on a frame's 1728-sample context
            # lies inside `clean`
            assert len(after.features) == len(want.features) + 1
            assert _frame_bytes(after)[3:] == _frame_bytes(want)[2:], (chunk, primed)

    def test_block_pushes_match_hop_by_hop(self):
        # pushes that complete 1, 2, 31, 32, 33 and 65 frames, a NaN burst
        # inside the 32-frame push, then clean audio in blocks again
        audio = _with_samples(_speech(2.0, 12), 45 * 480 + 100, [np.nan] * 10)
        sizes = [960] + [k * 480 for k in (2, 31, 32, 33, 65, 1, 32)]
        cuts = np.cumsum(sizes)
        assert cuts[-1] <= len(audio)
        with np.errstate(all="ignore"):
            blocks = fe.FeatureStream()
            records = []
            for push, chunk in enumerate(np.split(audio[: cuts[-1]], cuts[:-1])):
                records.append(blocks.push(chunk))
                assert len(records[-1].features) == [1, 2, 31, 32, 33, 65, 1, 32][push]
            frames = concat_frames(records)
            ref = _stream_record(fe.FeatureStream(), audio[: cuts[-1]], 480)
        assert not np.all(np.isfinite(frames.features))
        assert np.all(np.isfinite(frames.features[-40:]))  # clean again
        assert _frame_bytes(frames) == _frame_bytes(ref)
