"""Evaluation metrics: SI-SNR, EER, VAD scores, reports."""

import json

import numpy as np
import pytest

from targetvoice import metrics as mt
from targetvoice import synth as sy
from tests.unfused_reference import reference_eer


class TestSiSnr:
    def test_perfect_match_hits_cap(self):
        x = np.random.default_rng(0).standard_normal(4800)
        assert mt.si_snr(x, x) == 60.0

    def test_scale_invariant(self):
        x = np.random.default_rng(1).standard_normal(4800)
        assert mt.si_snr(2.0 * x, x) == 60.0
        noisy = x + 0.1 * np.random.default_rng(2).standard_normal(4800)
        assert mt.si_snr(3.0 * noisy, x) == pytest.approx(mt.si_snr(noisy, x), rel=1e-9)

    def test_equal_energy_orthogonal_noise_is_zero_db(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4800)
        n = rng.standard_normal(4800)
        n -= (np.dot(n, x) / np.dot(x, x)) * x
        n *= np.sqrt(np.dot(x, x) / np.dot(n, n))
        assert mt.si_snr(x + n, x) == pytest.approx(0.0, abs=0.1)

    def test_silent_reference_rejected(self):
        with pytest.raises(mt.MetricError, match="silent"):
            mt.si_snr(np.ones(100), np.zeros(100))

    def test_length_mismatch_rejected(self):
        with pytest.raises(mt.MetricError, match="length"):
            mt.si_snr(np.ones(10), np.ones(11))

    def test_eval_scores_an_output_one_hop_late_below_it_in_place(self, tmp_path, monkeypatch):
        # eval scores the engine's output as it is: the same identity output
        # one hop late must lose, where a lag search would score both alike
        from targetvoice import pipeline
        from targetvoice.audio import AudioBuffer, write_wav
        from targetvoice.cli import EXIT_OK, main
        from targetvoice.embedder import EmbedderConfig, EmbedderNet, embedder_entries
        from targetvoice.frontend import HOP
        from targetvoice.weights_io import save_weights

        target = 0.5 * sy.synth_speaker(11, 2.0).samples
        interf = 0.5 * sy.synth_speaker(12, 2.0).samples
        row = {}
        for name, x in (("mixture", target + interf), ("target", target), ("interferer", interf)):
            row[name] = str(tmp_path / f"{name}.wav")
            write_wav(row[name], AudioBuffer(x.astype(np.float32)))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(row) + "\n")
        embedder = tmp_path / "embedder.ppnw"
        save_weights(embedder, "embedder", embedder_entries(EmbedderNet(EmbedderConfig.toy(), seed=0)))

        def score():
            out = tmp_path / "report.jsonl"
            assert main(["eval", "--manifest", str(manifest), "--embedder", str(embedder),
                         "--mode", "identity", "--out", str(out)]) == EXIT_OK
            return json.loads(out.read_text().splitlines()[0])["si_snr_out"]

        in_place = score()
        real = pipeline.enhance_audio
        monkeypatch.setattr(pipeline, "enhance_audio",
                            lambda audio: np.concatenate([np.zeros(HOP), real(audio)[:-HOP]]))
        assert score() < in_place - 10.0


class TestEer:
    def test_perfectly_separated(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert mt.eer(scores, labels) == 0.0

    def test_four_point_tie_interpolates_quarter(self):
        # brute-force oracle: sweep thresholds at score midpoints and
        # interpolate the crossing of the step functions by hand
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        labels = np.array([True, True, False, False])

        def rates(t):
            far = np.mean(scores[~labels] >= t)
            frr = np.mean(scores[labels] < t)
            return far, frr

        points = [rates(t) for t in [1.0, 0.7, 0.5, 0.3, 0.0]]
        crossing = None
        for (f0, r0), (f1, r1) in zip(points, points[1:]):
            if (f0 - r0) < 0 <= (f1 - r1):
                alpha = (r0 - f0) / ((f1 - f0) - (r1 - r0))
                crossing = f0 + alpha * (f1 - f0)
                break
        assert crossing == pytest.approx(0.25)
        assert mt.eer(scores, labels) == pytest.approx(crossing)

    def test_coin_flip_near_half(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0, 1, 10000)
        labels = rng.uniform(0, 1, 10000) > 0.5
        assert mt.eer(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal(500)
        labels = rng.uniform(0, 1, 500) > 0.4
        base = mt.eer(scores, labels)
        for transform in (np.tanh, lambda s: np.exp(0.5 * s), lambda s: 3 * s - 7):
            assert mt.eer(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(mt.MetricError, match="both"):
            mt.eer(np.array([0.5, 0.2]), np.array([True, True]))

    def test_bit_equal_to_the_threshold_loop(self):
        # scores rounded to a coarse grid, so most sets hold ties, some
        # across the two classes
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 80))
            labels = rng.uniform(0, 1, n) < rng.uniform(0.1, 0.9)
            labels[:2] = [True, False]
            scores = np.round(rng.standard_normal(n) + 0.8 * labels, int(rng.integers(0, 3)))
            assert mt.eer(scores, labels) == reference_eer(scores, labels), seed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_gives_nan(self, bad):
        scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        labels = np.array([True, True, True, False, False, False])
        scores[4] = bad
        assert np.isnan(mt.eer(scores, labels))
        assert np.isnan(mt.eer(np.full(6, np.nan), labels))


class TestVadAccuracy:
    def test_exact_match(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        acc, precision, recall = mt.vad_accuracy(labels, labels)
        assert acc == 1.0 and precision == 1.0 and recall == 1.0

    def test_all_half_with_tie_break_active(self):
        labels = np.array([1, 1, 0, 0, 1], dtype=float)
        acc, _, recall = mt.vad_accuracy(np.full(5, 0.5), labels)
        assert acc == pytest.approx(labels.mean())
        assert recall == 1.0

    def test_random_predictions_near_half(self):
        rng = np.random.default_rng(9)
        pred = rng.uniform(0, 1, 10000)
        labels = (rng.uniform(0, 1, 10000) > 0.5).astype(float)
        acc, _, _ = mt.vad_accuracy(pred, labels)
        assert acc == pytest.approx(0.5, abs=0.02)

    def test_length_mismatch(self):
        with pytest.raises(mt.MetricError, match="mismatch"):
            mt.vad_accuracy(np.ones(5), np.ones(6))


class TestBenchmark:
    def test_frames_scale_with_duration(self):
        a = mt.benchmark_stream(None, None, duration_s=1.0)
        b = mt.benchmark_stream(None, None, duration_s=2.0)
        assert a.frames_processed == 100
        assert b.frames_processed == 200

    def test_identity_engine_is_realtime(self):
        report = mt.benchmark_stream(None, None, duration_s=2.0)
        assert report.realtime_factor > 1.0
        assert report.cpu_fraction == pytest.approx(1.0 / report.realtime_factor)

    def test_toy_model_comfortably_realtime(self):
        # measured baseline ~18x on the reference box (see README); assert a
        # floor with headroom for slower CI machines
        from targetvoice.enhancer import EnhancerConfig, EnhancerNet

        weights = EnhancerNet(EnhancerConfig.preset("toy"), seed=0).float32_weights()
        emb = np.random.default_rng(0).standard_normal(16)
        emb /= np.linalg.norm(emb)
        report = mt.benchmark_stream(weights, emb, duration_s=2.0)
        assert report.realtime_factor > 8.0


class TestReports:
    def test_report_roundtrip_with_median_summary(self, tmp_path):
        rows = [
            {"index": 0, "si_snr_in": 1.0, "si_snr_out": 5.0, "cos_target": 0.9},
            {"index": 1, "si_snr_in": 2.0, "si_snr_out": 7.0, "cos_target": 0.8},
            {"index": 2, "si_snr_in": 3.0, "si_snr_out": 9.0, "cos_target": 0.7},
        ]
        path = tmp_path / "report.jsonl"
        summary = mt.write_report(path, rows)
        *back_rows, back_summary = map(json.loads, path.read_text().splitlines())
        assert back_rows == rows
        assert back_summary["median_si_snr_out"] == 7.0
        assert "median_index" not in back_summary
        assert summary == back_summary

    def test_identical_rows_identical_bytes(self, tmp_path):
        rows = [{"index": 0, "value": 1.25}]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        mt.write_report(p1, rows)
        mt.write_report(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
