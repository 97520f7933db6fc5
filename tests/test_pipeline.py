"""Streaming engine: identity reconstruction, latency, look-ahead wiring."""

import numpy as np
import pytest

from targetvoice import enhancer as en
from targetvoice import synth as sy
from targetvoice.frontend import extract_features, frame_periods
from targetvoice.metrics import si_snr
from targetvoice.pipeline import StreamingEnhancer, apply_band_controls, enhance_audio
from tests.conftest import tone


@pytest.fixture(scope="module")
def toy_model():
    net, _ = en.build_model(en.EnhancerConfig.preset("toy"), seed=1)
    rng = np.random.default_rng(0)
    emb = rng.standard_normal(16)
    return net, emb / np.linalg.norm(emb)


class TestIdentityReconstruction:
    def test_tone_exact(self):
        x = tone(440.0, 1.0)
        y = enhance_audio(x)
        assert len(y) == len(x)
        assert si_snr(y, x) >= 40.0

    def test_speech_shaped_noise_exact(self):
        x = sy.speech_shaped_noise(3, 2.0).samples.astype(np.float64)
        y = enhance_audio(x)
        assert si_snr(y, x) >= 40.0

    def test_non_hop_aligned_length(self):
        x = 0.3 * np.random.default_rng(1).standard_normal(48000 + 137)
        y = enhance_audio(x)
        assert len(y) == len(x)
        assert si_snr(y, x) >= 40.0


class TestStreamTiming:
    def test_one_hop_in_one_hop_out(self):
        engine = StreamingEnhancer()
        x = 0.2 * np.random.default_rng(2).standard_normal(4800)
        for i in range(10):
            out = engine.process(x[i * 480 : (i + 1) * 480])
            assert out.shape == (480,)

    def test_fixed_stream_delay(self):
        engine = StreamingEnhancer()
        x = 0.2 * np.random.default_rng(3).standard_normal(48000)
        stream = engine.process(x)
        delay = StreamingEnhancer.DELAY_SAMPLES
        assert delay == 1920  # 30 ms look-ahead + 10 ms synthesis overlap
        np.testing.assert_allclose(stream[delay:], x[: len(stream) - delay],
                                   atol=1e-9)
        np.testing.assert_allclose(stream[:delay], 0.0, atol=1e-12)

    def test_sub_hop_chunks_buffered(self):
        engine = StreamingEnhancer()
        x = 0.2 * np.random.default_rng(4).standard_normal(2400)
        collected = [engine.process(x[i : i + 100]) for i in range(0, 2400, 100)]
        total = sum(len(c) for c in collected)
        assert total == 2400

    def test_flush_completes_output(self):
        engine = StreamingEnhancer()
        x = 0.2 * np.random.default_rng(5).standard_normal(7000)
        a = engine.process(x)
        b = engine.flush()
        y = np.concatenate([a, b])[1920 : 1920 + len(x)]
        assert si_snr(y, x) >= 40.0


class TestLookahead:
    def test_lookahead_real_and_bounded(self, toy_model):
        # the delay line counts in hops: an input change inside hop m can
        # reach output no earlier than hop m - 4 (the 40 ms budget, causal
        # bound) and must reach output before the change itself (the model
        # really consumes its future frames)
        net, emb = toy_model
        rng = np.random.default_rng(6)
        x = 0.3 * rng.standard_normal(48000)
        base = enhance_audio(x, net, emb)

        p = 20000
        perturbed = x.copy()
        perturbed[p] += 1.0
        out = enhance_audio(perturbed, net, emb)
        bound = (p // 480 - StreamingEnhancer.DELAY_SAMPLES // 480) * 480
        np.testing.assert_allclose(out[:bound], base[:bound], atol=1e-10)
        assert not np.allclose(out[bound:p], base[bound:p], atol=1e-10)

    def test_engine_matches_batch_forward_vad(self, toy_model):
        net, emb = toy_model
        x = sy.synth_speaker(7, 2.0).samples.astype(np.float64)
        engine = StreamingEnhancer(net, emb)
        engine.process(x)
        assert 0.0 <= engine.last_vad <= 1.0
        # one hop of internal padding: one feature frame per pushed hop
        assert engine.frames_processed == len(x) // 480


class TestModelPath:
    def test_output_finite_and_same_length(self, toy_model):
        net, emb = toy_model
        x = sy.synth_speaker(8, 1.5).samples.astype(np.float64)
        y = enhance_audio(x, net, emb)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))

    def test_missing_embedding_rejected(self, toy_model):
        net, _ = toy_model
        with pytest.raises(ValueError, match="embedding"):
            StreamingEnhancer(net, None)

    def test_zero_gain_model_silences(self, toy_model):
        net, emb = toy_model
        silencer, _ = en.build_model(en.EnhancerConfig.preset("toy"), seed=2)
        for p in silencer.params().values():
            p[...] = 0.0
        silencer.head_gains.b[...] = -60.0  # sigmoid -> 0
        silencer.head_strengths.b[...] = -60.0
        x = 0.3 * np.random.default_rng(9).standard_normal(24000)
        y = enhance_audio(x, silencer, emb)
        assert float(np.max(np.abs(y))) < 1e-6


class TestApplyBandControls:
    def test_identity_controls_reconstruct(self, fb):
        x = 0.3 * np.random.default_rng(10).standard_normal(24000)
        frames = extract_features(x, fb)
        n = len(frames)
        y = apply_band_controls(x, np.ones((n, 32)), np.zeros((n, 32)),
                                np.zeros(n, dtype=int), fb)
        assert y.shape == x.shape
        assert si_snr(y, x) >= 40.0

    def test_zero_gains_silence(self, fb):
        x = 0.3 * np.random.default_rng(11).standard_normal(24000)
        frames = extract_features(x, fb)
        n = len(frames)
        y = apply_band_controls(x, np.zeros((n, 32)), np.zeros((n, 32)),
                                np.zeros(n, dtype=int), fb)
        assert float(np.max(np.abs(y))) < 1e-9

    def test_streaming_engine_agrees_with_offline_oracle_path(self, fb):
        # identity path: both implementations must reconstruct identically
        x = 0.3 * np.random.default_rng(12).standard_normal(24000)
        frames = extract_features(x, fb)
        n = len(frames)
        offline = apply_band_controls(x, np.ones((n, 32)), np.zeros((n, 32)),
                                      frame_periods(frames), fb)
        streaming = enhance_audio(x, None, None, fb)
        np.testing.assert_allclose(offline, streaming, atol=1e-9)


class TestSharedWeights:
    @pytest.mark.filterwarnings("ignore:Use of fft convolution")  # the NaN stream
    def test_interleaved_streams_match_solo_runs(self, toy_model):
        net, _ = toy_model
        rng = np.random.default_rng(13)
        embs = rng.standard_normal((4, 16))
        embs /= np.linalg.norm(embs, axis=-1, keepdims=True)
        n_hops = 60
        clips = [tone(110.0 * (k + 2), n_hops * 480 / 48000)
                 + 0.1 * rng.standard_normal(n_hops * 480) for k in range(4)]
        clips[3][n_hops * 480 // 2] = np.nan
        engines = [StreamingEnhancer(net, e) for e in embs]
        assert all(e.session.weights is engines[0].session.weights for e in engines)
        outs = [[] for _ in engines]
        for h in range(n_hops):
            for k, eng in enumerate(engines):
                outs[k].append(eng.process(clips[k][h * 480 : (h + 1) * 480]))
        for k in range(3):
            solo = StreamingEnhancer(net, embs[k]).process(clips[k])
            assert np.all(np.isfinite(solo))
            np.testing.assert_array_equal(np.concatenate(outs[k]), solo)
