"""Evaluation metrics: SI-SNR, EER, VAD scores, alignment, reports."""

import numpy as np
import pytest

from targetvoice import metrics as mt


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


class TestAlignment:
    @pytest.mark.parametrize("delay", [0, 480, 1920, 2400])
    def test_recovers_known_delay(self, delay):
        ref = np.random.default_rng(4).standard_normal(48000)
        est = np.concatenate([np.zeros(delay), ref])[:48000]
        assert mt.si_snr_aligned(est, ref) == 60.0

    def test_negative_delay(self):
        ref = np.random.default_rng(5).standard_normal(48000)
        est = np.concatenate([ref[1000:], np.zeros(1000)])
        assert mt.si_snr_aligned(est, ref) == 60.0


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
        a = mt.benchmark_stream(duration_s=1.0)
        b = mt.benchmark_stream(duration_s=2.0)
        assert a.frames_processed == 100
        assert b.frames_processed == 200

    def test_identity_engine_is_realtime(self):
        report = mt.benchmark_stream(duration_s=2.0)
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
        back_rows, back_summary = mt.read_report(path)
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
