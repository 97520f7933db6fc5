"""Mixture synthesis: ratios, augmentation, synthetic speakers, determinism."""

import numpy as np
import pytest

from targetvoice import synth as sy
from targetvoice.audio import AudioBuffer
from targetvoice.enhancer import compute_target_gains, vad_labels_from_energy
from targetvoice.frontend import extract_features
from tests.unfused_reference import reference_augment


def reference_place_pulses(increments, phase, env, out):
    """synth_speaker's glottal pulses one sample at a time."""
    for i in range(len(increments)):
        phase += increments[i]
        if phase >= 1.0:
            phase -= 1.0
            out[i] = env[i]
    return phase


def speaker_base_f0(speaker_seed):
    """The seeded talker's base F0 in Hz (the first draw synth_speaker makes)."""
    rng = np.random.default_rng(np.random.SeedSequence([917, int(speaker_seed)]))
    return 90.0 * (280.0 / 90.0) ** rng.uniform()


def energy(x):
    return float(np.sum(np.asarray(x, dtype=np.float64) ** 2))


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


class TestMixAtRatio:
    def test_zero_db_equal_energy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4800)
        b = rng.standard_normal(4800)
        b *= np.sqrt(energy(a) / energy(b))
        _, scale = sy.mix_at_ratio(a, b, 0.0)
        assert scale == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("ratio_db", [-5.0, 0.0, 10.0, 35.0])
    def test_achieved_ratio_within_hundredth_db(self, ratio_db):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(9600)
        b = rng.standard_normal(9600)
        _, scale = sy.mix_at_ratio(a, b, ratio_db)
        achieved = 10.0 * np.log10(energy(a) / energy(scale * b))
        assert achieved == pytest.approx(ratio_db, abs=0.01)

    def test_silent_signal_rejected(self):
        with pytest.raises(sy.MixtureError, match="silent"):
            sy.mix_at_ratio(np.zeros(100), np.ones(100), 0.0)
        with pytest.raises(sy.MixtureError, match="silent"):
            sy.mix_at_ratio(np.ones(100), np.zeros(100), 0.0)


@pytest.fixture(scope="module")
def components():
    return (AudioBuffer(sy.synth_speaker(1, 2.0).samples),
            AudioBuffer(sy.synth_speaker(2, 2.0).samples),
            sy.synth_noise(3, 2.0))


class TestMakeMixture:
    def test_mixture_is_exact_component_sum(self, components):
        target, interf, noise = components
        spec = sy.MixtureSpec(snr_db=10.0, sir_db=5.0, seed=7)
        ex = sy.make_mixture(spec, target, interf, noise)
        total = ex.clean_target.samples + ex.interferer.samples + ex.noise.samples
        np.testing.assert_array_equal(ex.mixture.samples, total)

    def test_achieved_ratios_from_stored_components(self, components):
        target, interf, noise = components
        spec = sy.MixtureSpec(snr_db=7.0, sir_db=3.0, seed=7)
        ex = sy.make_mixture(spec, target, interf, noise)
        snr = 10 * np.log10(energy(ex.clean_target.samples) / energy(ex.noise.samples))
        sir = 10 * np.log10(energy(ex.clean_target.samples) / energy(ex.interferer.samples))
        assert snr == pytest.approx(7.0, abs=0.01)
        assert sir == pytest.approx(3.0, abs=0.01)

    def test_interferer_omitted(self, components):
        target, _, noise = components
        spec = sy.MixtureSpec(snr_db=10.0, sir_db=None, seed=1)
        ex = sy.make_mixture(spec, target, None, noise)
        assert ex.interferer is None
        np.testing.assert_array_equal(
            ex.mixture.samples, ex.clean_target.samples + ex.noise.samples
        )

    def test_deterministic(self, components):
        target, interf, noise = components
        spec = sy.MixtureSpec(snr_db=4.0, sir_db=2.0, seed=42)
        a = sy.make_mixture(spec, target, interf, noise)
        b = sy.make_mixture(spec, target, interf, noise)
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)
        np.testing.assert_array_equal(a.targets.gains, b.targets.gains)

    @pytest.mark.parametrize("with_interferer", [True, False])
    def test_components_are_make_mixtures(self, components, with_interferer):
        # mix writes mix_components' arrays; training reads make_mixture's
        target, interf, noise = components
        interf = interf if with_interferer else None
        spec = sy.MixtureSpec(snr_db=6.0, sir_db=4.0 if with_interferer else None, seed=9,
                              augment=sy.AugmentSpec(lowpass_hz=8000.0, tilt_db_per_octave=-2.0))
        ex = sy.make_mixture(spec, target, interf, noise)
        mixture, t32, i32, n32 = sy.mix_components(spec, target, interf, noise)
        for got, want in [(mixture, ex.mixture), (t32, ex.clean_target), (n32, ex.noise)]:
            assert got.dtype == np.float32
            assert got.tobytes() == want.samples.tobytes()
        if with_interferer:
            assert i32.tobytes() == ex.interferer.samples.tobytes()
        else:
            assert i32 is None and ex.interferer is None

    def test_supervision_shapes_and_ranges(self, components):
        target, interf, noise = components
        ex = sy.make_mixture(sy.MixtureSpec(0.0, 5.0, 1), target, interf, noise)
        t = ex.targets
        assert t.gains.shape == t.strengths.shape
        assert t.gains.shape[1] == 32
        assert np.all((t.gains >= 0) & (t.gains <= 1))
        assert np.all((t.strengths >= 0) & (t.strengths <= 1))
        assert set(np.unique(t.vad)) <= {0.0, 1.0}
        # the mixture's features, as the supervision computed them
        want = extract_features(ex.mixture.samples).features
        assert t.features.tobytes() == want.tobytes() and len(t.features) == len(t.vad)

    @pytest.mark.parametrize("spec", [
        sy.MixtureSpec(0.0, 5.0, 1),
        sy.MixtureSpec(-5.0, None, 2),
        sy.MixtureSpec(20.0, -3.0, 3, sy.AugmentSpec(lowpass_hz=4000.0, tilt_db_per_octave=-4.0)),
    ])
    def test_supervision_matches_per_frame_loop(self, components, spec):
        target, interf, noise = components
        ex = sy.make_mixture(spec, target, None if spec.sir_db is None else interf, noise)
        clean = extract_features(ex.clean_target.samples).features
        mix = extract_features(ex.mixture.samples).features
        n = min(len(clean), len(mix))
        gains, strengths, log_e = np.zeros((n, 32)), np.zeros((n, 32)), np.zeros(n)
        for i in range(n):
            clean_e = 10.0 ** clean[i, :32].astype(np.float64)
            mix_e = 10.0 ** mix[i, :32].astype(np.float64)
            gains[i] = compute_target_gains(clean_e, mix_e)
            strengths[i] = clean[i, 32:64]
            log_e[i] = float(clean[i, -2])
        t = ex.targets
        assert t.gains.tobytes() == gains.tobytes()
        assert t.strengths.tobytes() == strengths.tobytes()
        assert t.vad.tobytes() == vad_labels_from_energy(log_e).tobytes()

    def test_nonfinite_spec_rejected(self):
        with pytest.raises(sy.MixtureError, match="finite"):
            sy.MixtureSpec(snr_db=float("nan"), sir_db=0.0, seed=0)

    @pytest.mark.parametrize("length", [0, 1, 959])
    def test_sources_shorter_than_a_window_rejected(self, components, length):
        target, interf, noise = (AudioBuffer(c.samples[:length]) for c in components)
        with pytest.raises(sy.MixtureError, match="analysis window"):
            sy.make_mixture(sy.MixtureSpec(10.0, 5.0, 1), target, interf, noise)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


class TestAugment:
    def test_inactive_pass_through(self):
        x = np.random.default_rng(0).standard_normal(9600)
        np.testing.assert_array_equal(sy.augment(x, sy.AugmentSpec()), x)

    def test_wide_open_preserves_speech_band_energy(self):
        x = sy.speech_shaped_noise(0, 1.0).samples.astype(np.float64)
        y = sy.augment(x, sy.AugmentSpec(lowpass_hz=20000.0, tilt_db_per_octave=0.0))
        assert energy(y) >= 0.99 * energy(x)

    def test_3khz_cutoff_kills_8khz_tone(self):
        t = np.arange(48000) / 48000.0
        x = np.sin(2 * np.pi * 8000.0 * t)
        y = sy.augment(x, sy.AugmentSpec(lowpass_hz=3000.0))
        attenuation_db = 10 * np.log10(energy(x[960:-960]) / energy(y[960:-960]))
        assert attenuation_db > 30.0

    def test_tilt_two_tone_probe(self):
        t = np.arange(48000) / 48000.0
        x1 = np.sin(2 * np.pi * 1000.0 * t)
        x4 = np.sin(2 * np.pi * 4000.0 * t)
        aug = sy.AugmentSpec(tilt_db_per_octave=-3.0)
        drop1 = 10 * np.log10(energy(x1[960:-960]) / energy(sy.augment(x1, aug)[960:-960]))
        drop4 = 10 * np.log10(energy(x4[960:-960]) / energy(sy.augment(x4, aug)[960:-960]))
        # 4 kHz sits two octaves above the 1 kHz reference
        assert drop4 - drop1 == pytest.approx(6.0, abs=0.5)

    def test_cutoff_out_of_range_rejected(self):
        with pytest.raises(sy.MixtureError, match="cutoff"):
            sy.augment(np.ones(4800), sy.AugmentSpec(lowpass_hz=1000.0))

    @pytest.mark.parametrize("tilt", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_tilt_rejected(self, tilt):
        with pytest.raises(sy.MixtureError, match="tilt"):
            sy.augment(np.ones(4800), sy.AugmentSpec(tilt_db_per_octave=tilt))

    @pytest.mark.parametrize("aug", [
        sy.AugmentSpec(lowpass_hz=4000.0, tilt_db_per_octave=-4.0),
        sy.AugmentSpec(lowpass_hz=12345.0),
        sy.AugmentSpec(tilt_db_per_octave=1.5),
    ])
    def test_matches_per_frame_reference(self, aug):
        x = sy.synth_speaker(5, 1.0).samples.astype(np.float64)
        for n in (0, 1, 479, 480, 959, 960, 961, 4801, len(x)):
            assert sy.augment(x[:n], aug).tobytes() == reference_augment(x[:n], aug).tobytes()

    def test_length_preserved(self):
        x = np.random.default_rng(1).standard_normal(10007)
        y = sy.augment(x, sy.AugmentSpec(lowpass_hz=8000.0))
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))


# ---------------------------------------------------------------------------
# synthetic speakers
# ---------------------------------------------------------------------------


class TestSynthSpeaker:
    def test_deterministic(self):
        a = sy.synth_speaker(5, 2.0)
        b = sy.synth_speaker(5, 2.0)
        np.testing.assert_array_equal(a.samples, b.samples)

    # the toy-speaker seeds (ToySpeakers seeds 0 and 1), the seeds of
    # the other tests, and random ones
    PULSE_SEEDS = sorted({*range(8), *range(1000, 1008), *range(20, 30), 3, 9, 11, 917,
                          12345, *np.random.default_rng(19).integers(0, 2 ** 31, 4).tolist()})

    @pytest.mark.parametrize("seed", PULSE_SEEDS)
    def test_pulses_match_per_sample_loop(self, seed, monkeypatch):
        fast = sy.synth_speaker(seed, 3.0).samples
        monkeypatch.setattr(sy, "_place_pulses", reference_place_pulses)
        assert fast.tobytes() == sy.synth_speaker(seed, 3.0).samples.tobytes()

    def test_pulse_segments_match_per_sample_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            increments = rng.uniform(60.0, 400.0, n) / 48000.0
            phase = float(rng.uniform())
            env = rng.uniform(0.1, 1.0, n)
            got, want = np.zeros(n), np.zeros(n)
            got_phase = sy._place_pulses(increments, phase, env, got)
            want_phase = reference_place_pulses(increments, phase, env, want)
            assert got.tobytes() == want.tobytes() and got_phase == want_phase

    def test_pitch_tracker_recovers_base_f0(self):
        for seed in [0, 3, 9]:
            base = speaker_base_f0(seed)
            audio = sy.synth_speaker(seed, 8.0).samples.astype(np.float64)
            frames = extract_features(audio)
            confident = (frames.periods > 0) & (frames.features[:, 65] > 0.7)
            estimates = 48000.0 / frames.periods[confident]
            assert len(estimates), f"no confident voiced frames for seed {seed}"
            median_f0 = float(np.median(estimates))
            assert median_f0 == pytest.approx(base, rel=0.05)

    def test_distinct_seeds_distinct_spectra(self):
        def long_term_log_spectrum(x):
            spec = np.abs(np.fft.rfft(x.astype(np.float64)))
            return np.log10(spec + 1e-9)

        a = sy.synth_speaker(1, 4.0).samples
        b = sy.synth_speaker(2, 4.0).samples
        a1, a2 = a[: len(a) // 2], a[len(a) // 2 :]
        d_cross = np.mean((long_term_log_spectrum(a1) - long_term_log_spectrum(b[: len(a1)])) ** 2)
        d_self = np.mean((long_term_log_spectrum(a1) - long_term_log_spectrum(a2)) ** 2)
        assert d_cross > d_self

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="1 s"):
            sy.synth_speaker(0, 0.5)

    def test_has_pauses_for_vad(self):
        audio = sy.synth_speaker(4, 10.0).samples
        log_e = extract_features(audio).features[:, -2].astype(np.float64)
        from targetvoice.enhancer import vad_labels_from_energy

        labels = vad_labels_from_energy(log_e)
        assert 0.05 < labels.mean() < 0.98


# ---------------------------------------------------------------------------
# presets & manifest
# ---------------------------------------------------------------------------


class TestPresets:
    def test_eval_preset_ranges(self):
        specs = sy.evaluation_specs(200, seed=0, augmented=False)
        snrs = np.array([s.snr_db for s in specs])
        sirs = np.array([s.sir_db for s in specs])
        assert snrs.min() >= 3.0 and snrs.max() <= 15.0
        assert sirs.min() >= 3.0 and sirs.max() <= 15.0
        # actually spans the range rather than collapsing
        assert snrs.std() > 1.0

    def test_training_preset_ranges(self):
        specs = sy.training_specs(200, seed=0, augmented=True)
        snrs = np.array([s.snr_db for s in specs])
        sirs = np.array([s.sir_db for s in specs])
        assert snrs.min() >= -5.0 and snrs.max() <= 35.0
        assert sirs.min() >= -5.0 and sirs.max() <= 10.0
        cutoffs = np.array([s.augment.lowpass_hz for s in specs])
        assert cutoffs.min() >= 3000.0 and cutoffs.max() <= 20000.0

    def test_specs_deterministic(self):
        a = sy.evaluation_specs(10, seed=3, augmented=False)
        b = sy.evaluation_specs(10, seed=3, augmented=False)
        assert a == b

    def test_manifest_roundtrip(self, tmp_path):
        spec = sy.MixtureSpec(5.0, 8.0, 123)
        row = sy.manifest_row({"mixture": "m.wav", "target": "t.wav",
                               "noise": "n.wav"}, spec)
        path = tmp_path / "manifest.jsonl"
        path.write_text(row + "\n")
        rows = sy.read_manifest(path)
        assert rows[0]["snr_db"] == 5.0
        assert rows[0]["sir_db"] == 8.0
        assert rows[0]["seed"] == 123


class TestOracleMaskUpperBound:
    def test_oracle_gains_beat_mixture_at_0db(self):
        # apply ideal ratio masks: >= 5 dB SI-SNR improvement at 0 dB SNR
        from targetvoice.metrics import si_snr
        from targetvoice.pipeline import replay_controls

        target = AudioBuffer(sy.synth_speaker(11, 3.0).samples)
        noise = sy.synth_noise(13, 3.0)
        ex = sy.make_mixture(sy.MixtureSpec(0.0, None, 5), target, None, noise)
        mix = ex.mixture.samples.astype(np.float64)
        out = replay_controls(mix, ex.targets.gains, ex.targets.strengths)
        ref = ex.clean_target.samples.astype(np.float64)
        gain = si_snr(out, ref) - si_snr(mix, ref)
        assert gain >= 5.0
