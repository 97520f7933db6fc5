"""Streaming engine: identity reconstruction, latency, look-ahead wiring."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from targetvoice import enhancer as en
from targetvoice import synth as sy
from targetvoice.audio import AudioBuffer
from targetvoice.comb import (
    COMB_MAX_LEAD,
    OverlapAddSynthesizer,
    apply_per_band,
    comb_filter_window,
)
from targetvoice.frontend import (
    DEFAULT_FILTERBANK,
    HOP,
    PITCH_MAX_LAG,
    WINDOW,
    ErbFilterbank,
    FeatureStream,
    design_erb_filterbank,
    extract_features,
    vorbis_window,
)
from targetvoice.metrics import si_snr
from targetvoice.pipeline import (
    PIECE_SAMPLES,
    ControlReplay,
    StreamingEnhancer,
    enhance_audio,
    replay_controls,
)
from tests.conftest import tone
from tests.digest import digests
from tests.unfused_reference import ReferenceFeatureStream, use_reference_paths


def apply_band_controls(audio, gains, strengths, periods):
    """Offline reference for replay_controls: its own framing, comb and overlap-add.

    gains/strengths/periods are indexed by the frames of extract_features
    on the same audio (frame t at samples [t*480, t*480+960)). The straddle
    frame before frame 0 and the tail frames after the last one borrow the
    nearest frame's controls and pitch period. Output aligns with the input
    and has the same length.
    """
    window_fn = vorbis_window()
    x = np.asarray(audio, dtype=np.float64)
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
        spec = np.fft.rfft(window * window_fn)
        t = min(max(s - 1, 0), n_frames - 1)  # frame s covers input frame s-1
        period = int(periods[t]) if periods[t] > 0 else None
        if period is not None and strengths[t].max() > 1e-6:
            combed = comb_filter_window(padded, start, period)
            comb_spec = np.fft.rfft(combed * window_fn)
        else:
            comb_spec = spec
        hops.append(ola.push(apply_per_band(spec, comb_spec, gains[t],
                                            strengths[t])))
    y = np.concatenate(hops)
    # hop s of y covers padded [s*480, (s+1)*480): input starts at hop 1
    return y[HOP : HOP + len(x)]


@pytest.fixture(scope="module")
def toy_model():
    weights = en.EnhancerNet(en.EnhancerConfig.preset("toy"), seed=1).float32_weights()
    rng = np.random.default_rng(0)
    emb = rng.standard_normal(16)
    return weights, emb / np.linalg.norm(emb)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_chunking_byte_identical(self, toy_model, dtype):
        # identity, replayed controls and the model, each whole and in
        # chunks down to one sample and up past one FeatureStream piece, on
        # voiced input so that the comb ring is read
        net, emb = toy_model
        x = (sy.synth_speaker(9, 1.0).samples[:12000]
             + 0.05 * np.random.default_rng(9).standard_normal(12000)).astype(dtype)
        periods = extract_features(x).periods
        assert np.count_nonzero(periods) > 5
        n = len(periods)
        gains, strengths = np.random.default_rng(8).uniform(0.0, 1.0, (2, n, 32))

        def build(mode):
            if mode == "model":
                return StreamingEnhancer(net, emb)
            engine = StreamingEnhancer()
            if mode == "replay":
                engine.session = ControlReplay(gains, strengths)
            return engine

        rng = np.random.default_rng(10)
        chunkings = ([1] * 700 + [8300], [479, 481, 960, 1, PIECE_SAMPLES + 1],
                     rng.integers(1, 1500, size=40))
        for mode in ("identity", "replay", "model"):
            whole = build(mode)
            expected = np.concatenate([whole.process(x), whole.flush()])
            for sizes in chunkings:
                engine = build(mode)
                bounds = np.minimum(np.cumsum(np.concatenate([[0], sizes])), len(x))
                parts = [engine.process(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
                parts.append(engine.process(x[bounds[-1]:]))
                parts.append(engine.flush())
                assert np.concatenate(parts).tobytes() == expected.tobytes(), mode
                assert (engine.frames_processed, engine.last_vad) == (
                    whole.frames_processed, whole.last_vad), mode

    def test_whole_file_process_holds_no_input_copies(self):
        import tracemalloc

        x = (0.2 * np.random.default_rng(11).standard_normal(8 * 48000)).astype(np.float32)
        engine = StreamingEnhancer()
        engine.process(x[:480])  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            out = engine.process(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == len(x)
        assert peak <= 2 * x.size * 8 + (1 << 20)

    @pytest.mark.parametrize("mode", ["identity", "model"])
    def test_mutating_returned_hops_leaves_later_output(self, toy_model, mode):
        model = toy_model if mode == "model" else ()
        x = sy.synth_speaker(6, 1.0).samples[: 40 * HOP].astype(np.float64)
        scribbled, clean = StreamingEnhancer(*model), StreamingEnhancer(*model)
        for chunk in (HOP, 3 * HOP, 733):
            for i in range(0, len(x), chunk):
                got = scribbled.process(x[i : i + chunk])
                want = clean.process(x[i : i + chunk])
                assert got.tobytes() == want.tobytes()
                got[:] = np.nan

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
        # the model sees exactly the frames of extract_features: after hop h
        # its newest step is batch frame h-1 (hop 0 completes only the
        # synthesis-only straddle frame), from frame 0 on
        net, emb = toy_model
        x = sy.synth_speaker(7, 2.0).samples.astype(np.float64)
        ref = net.forward(extract_features(x).features, emb)
        engine = StreamingEnhancer(net, emb)
        n_hops = len(x) // 480
        got = ([], [], [])
        for h in range(n_hops):
            engine.process(x[h * 480 : (h + 1) * 480])
            if h > 0:
                for out, val in zip(got, (engine.session.gains,
                                          engine.session.strengths, engine.last_vad)):
                    out.append(np.copy(val))
        assert len(got[0]) == len(ref[0])
        for out, val in zip(got, ref):
            np.testing.assert_allclose(np.array(out), val, rtol=0, atol=1e-6)
        # one hop of internal padding: one engine frame per pushed hop
        assert engine.frames_processed == n_hops


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
        silencer = en.EnhancerNet(en.EnhancerConfig.preset("toy"), seed=2)
        for p in silencer.params().values():
            p[...] = 0.0
        silencer.head_gains.b[...] = -60.0  # sigmoid -> 0
        silencer.head_strengths.b[...] = -60.0
        x = 0.3 * np.random.default_rng(9).standard_normal(24000)
        y = enhance_audio(x, silencer.float32_weights(), emb)
        assert float(np.max(np.abs(y))) < 1e-6

    def test_session_set_mid_stream_fills_the_comb_ring_from_then_on(self):
        # Only hops processed while controls are set enter the comb ring: a
        # session assigned after n hops combs against silence for earlier
        # samples, and once the ring has refilled (ceil(len/HOP) hops, plus
        # one for the overlap-add tail) the output is that of an engine
        # that had the same controls all along.
        x = sy.synth_speaker(26, 1.0).samples.astype(np.float64)
        hops, n = len(x) // HOP, 20
        gains, strengths = np.random.default_rng(7).uniform(0.0, 1.0, (2, hops, 32))
        late, early = StreamingEnhancer(), StreamingEnhancer()
        # the late session's step s is the early one's step s + n - 1 (the
        # first frame, the straddle frame, takes no step)
        early.session = ControlReplay(np.concatenate([gains[: n - 1], gains]),
                                      np.concatenate([strengths[: n - 1], strengths]))
        refill = -(-len(late.comb._buf) // HOP) + 1
        got, want = [], []
        for i in range(hops):
            if i == n:
                assert not late.comb._buf.any()  # never pushed
                late.session = ControlReplay(gains, strengths)
            got.append(late.process(x[i * HOP : (i + 1) * HOP]).tobytes())
            want.append(early.process(x[i * HOP : (i + 1) * HOP]).tobytes())
        assert got[n : n + refill] != want[n : n + refill]
        assert got[n + refill :] == want[n + refill :]


class TestApplyBandControls:
    def test_identity_controls_reconstruct(self):
        x = 0.3 * np.random.default_rng(10).standard_normal(24000)
        n = len(extract_features(x).features)
        y = replay_controls(x, np.ones((n, 32)), np.zeros((n, 32)))
        assert y.shape == x.shape
        assert si_snr(y, x) >= 40.0

    def test_zero_gains_silence(self):
        x = 0.3 * np.random.default_rng(11).standard_normal(24000)
        n = len(extract_features(x).features)
        y = replay_controls(x, np.zeros((n, 32)), np.zeros((n, 32)))
        assert float(np.max(np.abs(y))) < 1e-9

    @pytest.mark.parametrize("shapes", [((0, 32), (0, 32)), ((5, 32), (3, 32)),
                                        ((5, 32), (5, 31))],
                             ids=["no_rows", "rows_differ", "31_bands"])
    def test_malformed_controls_rejected_up_front(self, shapes):
        x = 0.3 * np.random.default_rng(12).standard_normal(4800)
        gains, strengths = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match=r"\[T, 32\]"):
            replay_controls(x, gains, strengths)

    @staticmethod
    def _differing_hops(seed, strength_scale):
        rng = np.random.default_rng(seed)
        x = (sy.synth_speaker(seed, 1.0).samples.astype(np.float64)
             + 0.05 * rng.standard_normal(48000))
        periods = extract_features(x).periods
        n = len(periods)
        gains = rng.uniform(0.0, 1.0, (n, 32))
        strengths = strength_scale * rng.uniform(0.0, 1.0, (n, 32))
        engine = replay_controls(x, gains, strengths)
        ref = apply_band_controls(x, gains, strengths, periods)
        assert np.any(periods)  # voiced: the comb path runs
        assert engine.shape == ref.shape == x.shape
        return [h for h in range(len(x) // HOP)
                if engine[h * HOP : (h + 1) * HOP].tobytes()
                != ref[h * HOP : (h + 1) * HOP].tobytes()]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_replay_matches_reference_zero_strengths(self, seed):
        assert self._differing_hops(seed, 0.0) == []

    @pytest.mark.parametrize("seed", [11, 12])
    def test_replay_matches_reference_with_strengths(self, seed):
        # the reference combs the straddle and tail windows at a neighbouring
        # frame's pitch period, the engine at the pitch it measured on them:
        # only the first and the last output hop may differ
        assert set(self._differing_hops(seed, 1.0)) <= {0, 48000 // HOP - 1}


class TestSharedWeights:
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
        assert all(e.session.weights is net.arrays for e in engines)
        outs = [[] for _ in engines]
        for h in range(n_hops):
            for k, eng in enumerate(engines):
                outs[k].append(eng.process(clips[k][h * 480 : (h + 1) * 480]))
        for k in range(3):
            solo = StreamingEnhancer(net, embs[k]).process(clips[k])
            assert np.all(np.isfinite(solo))
            np.testing.assert_array_equal(np.concatenate(outs[k]), solo)

    def test_engines_without_filterbank_share_one(self, toy_model):
        # no engine keeps a filterbank of its own, passed or not: every one
        # reads the one read-only DEFAULT_FILTERBANK
        net, emb = toy_model
        engines = [StreamingEnhancer(), StreamingEnhancer(net, emb, design_erb_filterbank())]
        for eng in engines:
            for owner in (eng, eng.features):
                assert not any(isinstance(v, ErbFilterbank) for v in vars(owner).values())
        with pytest.raises(ValueError):
            DEFAULT_FILTERBANK.weights[0, 0] = 0.5

    @pytest.mark.parametrize("mode", ["identity", "model"])
    def test_interleaved_engines_keep_their_own_scratch(self, toy_model, mode):
        # two engines stepped hop by hop, one fed a NaN, each give exactly
        # the bytes they give alone
        net, emb = toy_model
        model = (net, emb) if mode == "model" else ()
        n_hops = 100
        clips = [sy.synth_speaker(seed, 1.0).samples[: n_hops * HOP].astype(np.float64)
                 for seed in (3, 4)]
        clips[1][n_hops * HOP // 3] = np.nan
        engines = [StreamingEnhancer(*model) for _ in clips]
        outs = [[], []]
        with np.errstate(all="ignore"):
            for h in range(n_hops):
                for k, eng in enumerate(engines):
                    outs[k].append(eng.process(clips[k][h * HOP : (h + 1) * HOP]))
            solos = [StreamingEnhancer(*model).process(clip) for clip in clips]
        assert np.all(np.isfinite(solos[0]))
        assert not np.all(np.isfinite(solos[1]))
        for k in range(2):
            assert np.concatenate(outs[k]).tobytes() == solos[k].tobytes()


def _speech_with_nan(seed: int) -> np.ndarray:
    x = sy.synth_speaker(seed, 1.0).samples.astype(np.float64)
    x += 0.01 * np.random.default_rng(seed).standard_normal(len(x))
    x[30000:30010] = np.nan
    return x


class TestUnfusedReference:
    """The engine matches the unfused frontend and overlap-add byte for byte."""

    @staticmethod
    def _run(engine, x, chunk):
        outs = [engine.process(x[i : i + chunk]) for i in range(0, len(x), chunk)]
        return np.concatenate(outs + [engine.flush()]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 480, 733])
    @pytest.mark.parametrize("mode", ["identity", "replay", "model"])
    def test_engine_output_byte_identical(self, toy_model, mode, chunk):
        net, emb = toy_model
        x = sy.synth_speaker(21, 1.0).samples.astype(np.float64)
        if chunk == 1:
            x = x[:24000]
        n = len(extract_features(x).features)
        rng = np.random.default_rng(4)
        gains, strengths = rng.uniform(0.0, 1.0, (2, n, 32))

        def build():
            if mode == "model":
                return StreamingEnhancer(net, emb)
            engine = StreamingEnhancer()
            if mode == "replay":
                engine.session = ControlReplay(gains, strengths)
            return engine

        got = self._run(build(), x, chunk)
        assert got == self._run(use_reference_paths(build()), x, chunk)

    @pytest.mark.parametrize("signal", ["tone", "noise"])
    def test_straddle_frame_matches_reference(self, signal):
        # the engine's first frame, a hop of zeros then the first input hop,
        # is the reference frontend's frame over those 960 samples, however
        # the first hop arrives; it heads the look-ahead queue until the
        # fourth frame completes
        x = tone(220.0, 0.1) if signal == "tone" else (
            0.3 * np.random.default_rng(14).standard_normal(4800))
        spectra = []
        (want,) = ReferenceFeatureStream().push(
            np.concatenate([np.zeros(HOP), x[:HOP]]), spectra)
        assert (want.pitch.period is not None) == (signal == "tone")
        for sizes in ([HOP], [100, 379, 1], [1919]):
            engine = StreamingEnhancer()
            for a, b in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
                engine.process(x[a:b])
            period, spectrum = engine._frame_queue[0]
            assert period == (want.pitch.period or 0)
            assert spectrum.tobytes() == spectra[0].tobytes()

    @pytest.mark.parametrize("mode", ["identity", "model"])
    def test_nan_stream_byte_identical(self, toy_model, mode):
        net, emb = toy_model
        model = (net, emb) if mode == "model" else ()
        x = _speech_with_nan(22)
        with np.errstate(all="ignore"):
            got = self._run(StreamingEnhancer(*model), x, HOP)
            want = self._run(use_reference_paths(StreamingEnhancer(*model)), x, HOP)
        assert got == want


def test_ordinary_streams_raise_no_warnings(toy_model):
    # speech, a NaN burst and digital silence, with every warning an error
    speech = sy.synth_speaker(24, 1.0).samples.astype(np.float64)
    signals = [speech, _speech_with_nan(25), np.zeros(24000),
               np.concatenate([speech[:12000], np.zeros(12000), speech[12000:]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in signals:
            stream = FeatureStream()
            for i in range(0, len(x), HOP):
                stream.push(x[i : i + HOP])
            extract_features(x)
            for model in ((), toy_model):
                engine = StreamingEnhancer(*model)
                for i in range(0, len(x), 733):
                    engine.process(x[i : i + 733])
                engine.flush()


# the three entry points that still take a filterbank, each as audio -> bytes
def _features(x, *fb):
    record = extract_features(x, *fb)
    return b"".join(field.tobytes() for field in (record.features, record.periods,
                                                   record.spectra))


def _engine(x, *fb):
    engine = StreamingEnhancer(None, None, *fb)
    return np.concatenate([engine.process(x), engine.flush()]).tobytes()


def _mixture(x, *fb):
    example = sy.make_mixture(sy.MixtureSpec(5.0, None, 1), AudioBuffer(x.astype(np.float32)),
                              None, sy.synth_noise(2, 1.0), *fb)
    targets = example.targets
    return b"".join(a.tobytes() for a in (example.mixture.samples, targets.features,
                                          targets.gains, targets.strengths, targets.vad))


@pytest.mark.parametrize("entry", [_features, _engine, _mixture])
class TestFilterbankArgument:
    """The filterbank the benchmark passes is checked against DEFAULT_FILTERBANK, then unused."""

    @pytest.fixture(scope="class")
    def speech(self):
        return sy.synth_speaker(26, 1.0).samples.astype(np.float64)

    def test_an_equal_filterbank_changes_nothing(self, entry, speech):
        assert entry(speech, design_erb_filterbank()) == entry(speech)

    @pytest.mark.parametrize("other", [
        ErbFilterbank(2.0 * DEFAULT_FILTERBANK.weights, DEFAULT_FILTERBANK.band_centers),
        ErbFilterbank(DEFAULT_FILTERBANK.weights, DEFAULT_FILTERBANK.band_centers + 1.0),
    ], ids=["weights_doubled", "centers_moved"])
    def test_another_filterbank_rejected(self, entry, speech, other):
        with pytest.raises(ValueError, match="band layout"):
            entry(speech, other)


def test_model_free_outputs_byte_identical_across_blas_kernels():
    # OpenBLAS picks its kernels by CPU unless OPENBLAS_CORETYPE names them;
    # the model-free digest groups must give the same bytes under each
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                      env.get("PYTHONPATH")]))
    groups = ["features", "periods", "spectra", "identity", "replay"]
    runs = {core: subprocess.Popen([sys.executable, os.path.join(root, "tests", "digest.py"),
                                    *groups], env=env | {"OPENBLAS_CORETYPE": core},
                                   stdout=subprocess.PIPE, text=True)
            for core in ("Haswell", "Prescott")}
    default = "".join(f"{name:<10} {value}\n" for name, value in digests(groups).items())
    for core, run in runs.items():
        assert run.communicate()[0] == default and run.returncode == 0, core
