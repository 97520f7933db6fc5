"""Comb filter, per-band application, and overlap-add synthesis."""

import numpy as np
import pytest

from targetvoice import comb as cb
from targetvoice import frontend as fe
from tests.conftest import sawtooth


def primed_state(signal: np.ndarray, hops: int = 20) -> cb.CombState:
    state = cb.CombState()
    for i in range(hops):
        state.push(signal[i * 480 : (i + 1) * 480])
    return state


def current_window(signal: np.ndarray, hops: int = 20) -> np.ndarray:
    """The pushed samples in primed_state's analysis window: the last 960
    before the look-ahead."""
    end = hops * 480 - cb.COMB_MAX_LEAD
    return signal[end - 960 : end]


# ---------------------------------------------------------------------------
# Comb filter
# ---------------------------------------------------------------------------


class TestCombFilter:
    def test_periodic_input_unchanged(self):
        period = 480
        n = np.arange(20000)
        sig = np.sin(2 * np.pi * n / period) + 0.3 * np.sin(2 * np.pi * 5 * n / period + 1.0)
        state = primed_state(sig)
        window = current_window(sig)
        filtered = state.filter_window(period)
        np.testing.assert_allclose(filtered, window, atol=1e-6)

    def test_absent_period_passthrough(self):
        sig = np.random.default_rng(1).standard_normal(20000)
        state = primed_state(sig)
        window = current_window(sig)
        np.testing.assert_array_equal(state.filter_window(None), window)

    def test_white_noise_energy_ratio(self):
        # uncorrelated-shift oracle: E[y^2]/E[x^2] = sum of squared taps
        expected = float(np.sum(cb.COMB_TAPS ** 2))
        ratios = []
        for seed in range(20):
            sig = np.random.default_rng(100 + seed).standard_normal(20000)
            state = primed_state(sig)
            y = state.filter_window(480)
            x = current_window(sig)
            ratios.append(np.sum(y ** 2) / np.sum(x ** 2))
        assert np.mean(ratios) == pytest.approx(expected, rel=0.15)

    def test_taps_sum_to_one(self):
        assert cb.COMB_TAPS.sum() == pytest.approx(1.0)

    def test_long_period_fallback_still_exact_on_periodic(self):
        # period > 720: the +2 tap falls back to +1 yet periodic signals pass
        period = 744
        sig = np.sin(2 * np.pi * np.arange(24000) / period)
        state = primed_state(sig, hops=24)
        window = current_window(sig, hops=24)
        np.testing.assert_allclose(state.filter_window(period), window, atol=1e-6)

    def test_linear_at_fixed_period(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 20000))
        ya = primed_state(a).filter_window(300)
        yb = primed_state(b).filter_window(300)
        yab = primed_state(2 * a + 3 * b).filter_window(300)
        np.testing.assert_allclose(yab, 2 * ya + 3 * yb, atol=1e-9)

    def test_out_of_range_period_rejected(self):
        state = primed_state(np.random.default_rng(5).standard_normal(20000))
        with pytest.raises(ValueError, match="range"):
            state.filter_window(3000)


# ---------------------------------------------------------------------------
# Per-band application
# ---------------------------------------------------------------------------


class TestApplyPerBand:
    def test_identity_controls(self, fb):
        rng = np.random.default_rng(0)
        spec = fe.analyze_frame(rng.standard_normal(960))
        out = cb.apply_per_band(spec, 0.5 * spec, np.ones(32), np.zeros(32), fb)
        np.testing.assert_array_equal(out, spec)

    def test_zero_gains_silence(self, fb):
        rng = np.random.default_rng(1)
        spec = fe.analyze_frame(rng.standard_normal(960))
        out = cb.apply_per_band(spec, spec, np.zeros(32), np.zeros(32), fb)
        assert np.all(out == 0)

    def test_full_strength_selects_comb_spectrum(self, fb):
        rng = np.random.default_rng(2)
        spec = fe.analyze_frame(rng.standard_normal(960))
        comb_spec = fe.analyze_frame(rng.standard_normal(960))
        out = cb.apply_per_band(spec, comb_spec, np.ones(32), np.ones(32), fb)
        np.testing.assert_allclose(out, comb_spec, atol=1e-12)

    def test_comb_blend_raises_band_coherence(self, fb):
        # periodic + noise through full-strength comb blending: coherence
        # measured by the frontend must rise in every voiced band
        from targetvoice.pipeline import replay_controls

        clean = sawtooth(100.0, 48000)
        noisy = clean + 1.0 * np.random.default_rng(7).standard_normal(48000)
        def coherences(x):
            return fe.extract_features(x, fb).features[10 : n - 10, 32:64]

        n = len(fe.extract_features(noisy, fb).features)
        out = replay_controls(noisy, np.ones((n, 32)), np.ones((n, 32)), fb)
        before, after, clean_coh = coherences(noisy), coherences(out), coherences(clean)
        voiced_bands = clean_coh.mean(axis=0) > 0.5
        assert voiced_bands.any()
        assert np.all(after.mean(axis=0)[voiced_bands]
                      > before.mean(axis=0)[voiced_bands])

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(ValueError, match="same frame"):
            cb.apply_per_band(np.zeros(481, complex), np.zeros(480, complex),
                              np.ones(32), np.zeros(32), fb)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


class TestSynthesize:
    def test_zero_spectra_zero_output(self):
        out = cb.synthesize([np.zeros(481, complex)] * 5)
        assert out.shape == (5 * 480,)
        assert np.all(out == 0)

    def test_round_trip_identity_after_first_hop(self):
        rng = np.random.default_rng(1)
        x = 0.3 * rng.standard_normal(48000)
        n_frames = (len(x) - 960) // 480 + 1
        spectra = [fe.analyze_frame(x[t * 480 : t * 480 + 960]) for t in range(n_frames)]
        y = cb.synthesize(spectra)
        np.testing.assert_allclose(y[480:], x[480 : len(y)], atol=1e-12)

    def test_bounded_output_energy(self, fb):
        # gains <= 1: frame output energy can't exceed max(inputs) + eps
        rng = np.random.default_rng(9)
        x = rng.standard_normal(960)
        c = rng.standard_normal(960)
        spec, comb_spec = fe.analyze_frame(x), fe.analyze_frame(c)
        gains = rng.uniform(0, 1, 32)
        strengths = rng.uniform(0, 1, 32)
        out = cb.apply_per_band(spec, comb_spec, gains, strengths, fb)
        e_out = np.sum(np.abs(out) ** 2)
        e_in = max(np.sum(np.abs(spec) ** 2), np.sum(np.abs(comb_spec) ** 2))
        assert e_out <= (1 + 1e-3) * e_in

    def test_band_gain_monotonicity(self, fb):
        rng = np.random.default_rng(10)
        spec = fe.analyze_frame(rng.standard_normal(960))
        gains = np.ones(32)
        base = cb.apply_per_band(spec, spec, gains, np.zeros(32), fb)
        for band in [0, 7, 19, 31]:
            lowered = gains.copy()
            lowered[band] = 0.3
            out = cb.apply_per_band(spec, spec, lowered, np.zeros(32), fb)
            e_base = fe.band_energies(base, fb)[band]
            e_low = fe.band_energies(out, fb)[band]
            assert e_low <= e_base + 1e-12
