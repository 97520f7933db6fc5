"""DSP frontend: filterbank, transform, pitch, coherence, 68-dim features."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from targetvoice import frontend as fe
from tests.conftest import sawtooth, tone

# ---------------------------------------------------------------------------
# ERB filterbank
# ---------------------------------------------------------------------------


class TestFilterbank:
    def test_partition_of_unity(self, fb):
        sums = fb.weights.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_band_count(self, fb):
        assert fb.n_bands == 32
        assert fb.n_bins == 481

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

    def test_too_few_bins_rejected(self):
        with pytest.raises(fe.ConfigurationError):
            fe.design_erb_filterbank(n_bins=32)
        with pytest.raises(fe.ConfigurationError, match="dedicated"):
            fe.design_erb_filterbank(n_bins=64)

    def test_wrong_rate_rejected(self):
        with pytest.raises(fe.ConfigurationError):
            fe.design_erb_filterbank(sample_rate=44100)


# ---------------------------------------------------------------------------
# Frame transform
# ---------------------------------------------------------------------------


class TestAnalyzeFrame:
    def test_zero_in_zero_out(self):
        spec = fe.analyze_frame(np.zeros(960))
        assert spec.shape == (481,)
        assert np.all(spec == 0)

    def test_1khz_peak_bin(self):
        spec = fe.analyze_frame(tone(1000.0, 0.02, 1.0)[:960])
        assert np.argmax(np.abs(spec)) == 20  # 1000 * 960 / 48000

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(960)
        spec = fe.analyze_frame(x)
        mag2 = np.abs(spec) ** 2
        freq_energy = (mag2[0] + 2 * mag2[1:-1].sum() + mag2[-1]) / 960
        time_energy = np.sum((x * fe.vorbis_window()) ** 2)
        assert freq_energy == pytest.approx(time_energy, rel=1e-4)

    def test_linear(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 960))
        lhs = fe.analyze_frame(2.0 * a + 3.0 * b)
        rhs = 2.0 * fe.analyze_frame(a) + 3.0 * fe.analyze_frame(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="960"):
            fe.analyze_frame(np.zeros(480))

    def test_princen_bradley_window(self):
        w = fe.vorbis_window()
        np.testing.assert_allclose(w[:480] ** 2 + w[480:] ** 2, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Band energies
# ---------------------------------------------------------------------------


class TestBandEnergies:
    def test_zero_spectrum(self, fb):
        assert np.all(fe.band_energies(np.zeros(481, dtype=complex), fb) == 0)

    def test_flat_spectrum_sums_to_bin_count(self, fb):
        flat = np.ones(481, dtype=complex)
        energies = fe.band_energies(flat, fb)
        assert energies.sum() == pytest.approx(481.0, abs=1e-6)
        assert np.all(energies >= 0)

    def test_tone_at_band_center_is_local(self, fb):
        center_band = 11
        freq = fb.band_centers[center_band]
        spec = fe.analyze_frame(tone(freq, 0.02, 1.0)[:960])
        energies = fe.band_energies(spec, fb)
        local = energies[center_band - 1 : center_band + 2].sum()
        assert local >= 0.9 * energies.sum()

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(ValueError, match="bins"):
            fe.band_energies(np.zeros(100, dtype=complex), fb)


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


def _scipy_reference_pitch(history: np.ndarray) -> fe.PitchEstimate:
    """The pitch search with the correlation taken by scipy.signal.correlate."""
    from scipy.signal import correlate

    x = np.asarray(history, dtype=np.float64)[-fe.PITCH_HISTORY:]
    cur = x[fe.PITCH_CORR_WINDOW:]
    cur_energy = float(np.dot(cur, cur))
    if cur_energy < 1e-20:
        return fe.PitchEstimate(None, 0.0)
    c = correlate(x, cur, mode="valid", method="fft")
    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    lags = np.arange(fe.PITCH_MIN_LAG, fe.PITCH_MAX_LAG + 1)
    denom = np.sqrt(cur_energy * (sq[fe.PITCH_HISTORY - lags] - sq[fe.PITCH_CORR_WINDOW - lags]))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(np.where(denom > 1e-20, c[fe.PITCH_CORR_WINDOW - lags] / denom, 0.0),
                    -1.0, 1.0)
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
    def test_fft_size_is_scipys_fast_length(self):
        from scipy.fft import next_fast_len

        full = fe.PITCH_HISTORY + fe.PITCH_CORR_WINDOW - 1
        assert fe.PITCH_FFT_SIZE == next_fast_len(full, real=True) == 2304

    def test_matches_scipy_correlate_exactly(self):
        voiced = near_threshold = 0
        histories = list(_pitch_corpus(np.random.default_rng(2024)))
        assert len(histories) >= 2000
        for k, history in enumerate(histories):
            got = fe.estimate_pitch(history)
            assert got == _scipy_reference_pitch(history), f"history {k}"
            voiced += got.voiced
            near_threshold += got.voiced and got.correlation < 0.35
        # the corpus reaches both sides of the voicing decision
        assert 500 <= voiced <= len(histories) - 500
        assert near_threshold >= 20

    def test_block_kernel_matches_scipy_correlate_exactly(self):
        histories = np.stack(list(_pitch_corpus(np.random.default_rng(2024))))
        for start in range(0, len(histories), fe.BLOCK_FRAMES):
            block = histories[start : start + fe.BLOCK_FRAMES]
            periods, correlations = fe.estimate_pitch_block(block)
            for k, (period, corr) in enumerate(zip(periods.tolist(), correlations.tolist())):
                got = fe.PitchEstimate(period or None, corr)
                assert got == _scipy_reference_pitch(block[k]), f"history {start + k}"


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


class TestPitchCoherence:
    def test_periodic_signal_full_coherence(self, fb):
        period = 480
        n = np.arange(4000)
        sig = np.sin(2 * np.pi * n / period) + 0.5 * np.sin(2 * np.pi * 3 * n / period)
        window = sig[2000:2960]
        delayed = sig[2000 - period : 2960 - period]
        coh = fe.pitch_coherence(window, delayed, fb)
        energies = fe.band_energies(fe.analyze_frame(window), fb)
        voiced = energies > 1e-3 * energies.max()
        assert np.all(coh[voiced] > 0.95)

    def test_white_noise_low_coherence(self, fb):
        means = []
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(4000)
            coh = fe.pitch_coherence(x[2000:2960], x[1520:2480], fb)
            means.append(coh.mean())
        assert np.mean(means) < 0.4

    def test_range_clamped(self, fb):
        rng = np.random.default_rng(5)
        coh = fe.pitch_coherence(rng.standard_normal(960), rng.standard_normal(960), fb)
        assert np.all(coh >= 0.0)
        assert np.all(coh <= 1.0)


# ---------------------------------------------------------------------------
# Feature assembly
# ---------------------------------------------------------------------------


class TestAssembleFeatures:
    def test_dimensionality_is_68(self, fb):
        frames = fe.extract_features(np.random.default_rng(0).standard_normal(9600))
        assert frames
        for f in frames:
            assert f.vector.shape == (68,)
            assert f.band_mag.shape == (32,)
            assert f.pitch_coherence.shape == (32,)
            assert f.general.shape == (4,)

    def test_silent_frame_at_floor(self):
        frames = fe.extract_features(np.zeros(4800))
        f = frames[0]
        np.testing.assert_allclose(f.band_mag, fe.LOG_FLOOR, atol=1e-6)
        assert np.all(f.pitch_coherence == 0)
        assert f.general[0] == 0.0

    def test_amplitude_doubling_shifts_log_by_constant(self, fb):
        rng = np.random.default_rng(8)
        x = 0.2 * rng.standard_normal(9600)
        lo = fe.extract_features(x)[6]
        hi = fe.extract_features(2.0 * x)[6]
        shift = hi.band_mag.astype(np.float64) - lo.band_mag.astype(np.float64)
        np.testing.assert_allclose(shift, np.log10(4.0), atol=1e-5)

    def test_normalized_period_range(self):
        frames = fe.extract_features(sawtooth(100.0, 48000))
        voiced = [f for f in frames if f.pitch.voiced]
        assert voiced
        for f in voiced:
            assert 0.0 <= f.general[0] <= 1.0
        # 100 Hz -> period 480 -> (480-96)/672
        assert voiced[5].general[0] == pytest.approx((480 - 96) / 672, abs=0.01)

    @pytest.mark.parametrize("signal", [
        np.ones(9600),
        np.sign(np.sin(2 * np.pi * 97 * np.arange(9600) / 48000)),
        0.7 + 0.3 * np.sign(np.sin(2 * np.pi * 233 * np.arange(9600) / 48000)),
    ], ids=["dc", "square", "square_with_offset"])
    def test_features_finite_for_hostile_inputs(self, signal):
        for f in fe.extract_features(signal):
            assert np.all(np.isfinite(f.vector))


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


def _frame_bytes(frames) -> list[bytes]:
    # bytes, not ==: NaN features never compare equal
    return [f.vector.tobytes() + np.array([f.pitch.period or 0, f.pitch.correlation]).tobytes()
            for f in frames]


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
            stream = fe.FeatureStream()
            got = []
            for i in range(0, len(audio), chunk):
                got.extend(stream.push(audio[i : i + chunk]))
        assert len(got) == len(ref) == (len(audio) - 960) // 480 + 1
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
        assert len(frames) == 2999
        assert peak < 2 * audio.size * 8 + 2 * 2 ** 20

    def test_emission_timing(self):
        # frame t emerges exactly when its window (t*480 + 960) is buffered
        stream = fe.FeatureStream()
        audio = 0.1 * np.random.default_rng(0).standard_normal(4800)
        emitted = []
        for i, sample in enumerate(audio):
            frames = stream.push(np.array([sample]))
            for _ in frames:
                emitted.append(i + 1)
        expected = [t * 480 + 960 for t in range(len(emitted))]
        assert emitted == expected

    def test_push_hands_out_each_frames_analysis_spectrum(self):
        audio = 0.3 * np.random.default_rng(5).standard_normal(4800)
        stream = fe.FeatureStream()
        spectra = []
        frames = stream.push(audio[:1000], spectra) + stream.push(audio[1000:], spectra)
        assert len(spectra) == len(frames) == 9
        for t, spec in enumerate(spectra):
            expected = fe.analyze_frame(audio[t * 480 : t * 480 + 960])
            assert spec.tobytes() == expected.tobytes()

    def test_frame_count_matches_length(self):
        frames = fe.extract_features(np.zeros(48000))
        assert len(frames) == (48000 - 960) // 480 + 1

    def test_feature_matrix_shape(self):
        frames = fe.extract_features(np.zeros(9600))
        mat = fe.feature_matrix(frames)
        assert mat.shape == (len(frames), 68)
        assert mat.dtype == np.float32
