"""Enhancer model: presets, heads, supervision targets, losses."""

import numpy as np
import pytest

from targetvoice import enhancer as en
from targetvoice.neural import Adam
from targetvoice.weights_io import WeightsFormatError, pack_weights, unpack_weights
from tests.conftest import finite_difference_params


@pytest.fixture(scope="module")
def tiny_cfg():
    return en.EnhancerConfig(gru_units=32, n_gru_layers=2, dense_units=16,
                             conv_channels=24, embedding_dim=8)


@pytest.fixture(scope="module")
def tiny_net(tiny_cfg):
    return en.build_model(tiny_cfg, seed=3)[0]


def unit_embeddings(n, dim, seed=0):
    e = np.random.default_rng(seed).standard_normal((n, dim))
    return e / np.linalg.norm(e, axis=-1, keepdims=True)


class TestBuildModel:
    def test_ppn512_parameter_budget(self):
        _, count = en.build_model(en.EnhancerConfig.preset("ppn512"))
        assert 8.5e6 * 0.8 <= count <= 8.5e6 * 1.2

    def test_ppn1024_parameter_budget(self):
        _, count = en.build_model(en.EnhancerConfig.preset("ppn1024"))
        assert 26.5e6 * 0.8 <= count <= 26.5e6 * 1.2

    def test_toy_count_matches_hand_sum(self, tiny_cfg):
        _, count = en.build_model(tiny_cfg)
        d, c, n, e = 16, 24, 32, 8
        hand = (68 * d + d) + (d * 5 * c + c) + (c * 3 * c + c)
        hand += 3 * ((c + e) * n + n * n + n)      # gru 1
        hand += 3 * (n * n + n * n + n)            # gru 2
        hand += (n * 32 + 32) + ((n + 32) * 32 + 32) + (n + 1)
        assert count == hand

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            en.EnhancerConfig.preset("ppn9000")

    def test_config_text_roundtrip(self):
        cfg = en.EnhancerConfig.preset("toy")
        assert en.EnhancerConfig.from_text(cfg.to_text()) == cfg

    def test_config_text_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            en.EnhancerConfig.from_text("bogus = 7\n")


class TestForward:
    def test_outputs_in_unit_interval(self, tiny_net):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((2, 15, 68))
        gains, strengths, vad = tiny_net.forward(feats, unit_embeddings(2, 8))
        for out in (gains, strengths, vad):
            assert np.all(out >= 0.0)
            assert np.all(out <= 1.0)
        assert gains.shape == (2, 15, 32)
        assert vad.shape == (2, 15)

    def test_zero_weights_give_half(self, tiny_cfg):
        net, _ = en.build_model(tiny_cfg, seed=0)
        for p in net.params().values():
            p[...] = 0.0
        gains, strengths, vad = net.forward(
            np.random.default_rng(1).standard_normal((10, 68)),
            unit_embeddings(1, 8)[0],
        )
        assert np.all(gains == 0.5)
        assert np.all(strengths == 0.5)
        assert np.all(vad == 0.5)

    def test_causal_in_time(self, tiny_net):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((1, 20, 68))
        emb = unit_embeddings(1, 8)
        g0, s0, v0 = tiny_net.forward(feats, emb)
        perturbed = feats.copy()
        perturbed[0, 12] += 1.0
        g1, s1, v1 = tiny_net.forward(perturbed, emb)
        np.testing.assert_array_equal(g0[0, :12], g1[0, :12])
        np.testing.assert_array_equal(v0[0, :12], v1[0, :12])
        assert not np.allclose(g0[0, 12:], g1[0, 12:])

    def test_embedding_changes_outputs(self, tiny_net):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((18, 68))
        e1, e2 = unit_embeddings(2, 8, seed=9)
        g1, _, _ = tiny_net.forward(feats, e1)
        g2, _, _ = tiny_net.forward(feats, e2)
        assert np.abs(g1 - g2).sum() > 0.0

    def test_wrong_embedding_dim(self, tiny_net):
        with pytest.raises(ValueError, match="dim"):
            tiny_net.forward(np.zeros((10, 68)), np.zeros(5))


class TestTargets:
    def test_equal_energies_unit_gain(self):
        e = np.random.default_rng(0).uniform(0.1, 2.0, 32)
        np.testing.assert_allclose(en.compute_target_gains(e, e), 1.0)

    def test_silent_clean_zero_gain(self):
        noisy = np.random.default_rng(1).uniform(0.1, 2.0, 32)
        np.testing.assert_allclose(en.compute_target_gains(np.zeros(32), noisy), 0.0)

    def test_quarter_energy_half_gain(self):
        clean = np.ones(32)
        np.testing.assert_allclose(
            en.compute_target_gains(clean, 4.0 * clean), 0.5
        )

    def test_gain_capped_at_one(self):
        clean = np.full(32, 9.0)
        np.testing.assert_allclose(en.compute_target_gains(clean, np.ones(32)), 1.0)

    def test_vad_labels_gate(self):
        log_e = np.array([0.0, -3.0, -4.5, -1.0])  # peak 0, gate at -4.0
        np.testing.assert_array_equal(
            en.vad_labels_from_energy(log_e), [1.0, 1.0, 0.0, 1.0]
        )


class TestLosses:
    def test_exact_match_zero(self):
        g = np.random.default_rng(0).uniform(0.0, 1.0, (5, 32))
        r = np.random.default_rng(1).uniform(0.0, 1.0, (5, 32))
        loss, dg, dr = en.gain_strength_loss(g, r, g, r)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_band_full_miss_contributes_one(self):
        loss, _, _ = en.gain_strength_loss(
            np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1))
        )
        assert loss == pytest.approx(1.0, rel=1e-4)

    def test_vad_half_is_ln2(self):
        loss, _ = en.vad_loss(np.full(20, 0.5), np.ones(20))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_vad_match_near_zero(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        loss, _ = en.vad_loss(labels, labels)
        assert loss <= 1e-6

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g, r = rng.uniform(0.01, 0.99, (2, 4, 32))
            tg, tr = rng.uniform(0, 1, (2, 4, 32))
            loss, _, _ = en.gain_strength_loss(g, r, tg, tr)
            assert loss >= 0.0

    def test_gain_strength_gradients(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.05, 0.95, (3, 32))
        r = rng.uniform(0.05, 0.95, (3, 32))
        tg = rng.uniform(0, 1, (3, 32))
        tr = rng.uniform(0, 1, (3, 32))
        loss, dg, dr = en.gain_strength_loss(g, r, tg, tr)
        h = 1e-6
        worst = 0.0
        for idx in [(0, 3), (1, 17), (2, 31)]:
            for arr, grad in ((g, dg), (r, dr)):
                up, down = arr.copy(), arr.copy()
                up[idx] += h
                down[idx] -= h
                if arr is g:
                    lu = en.gain_strength_loss(up, r, tg, tr)[0]
                    ld = en.gain_strength_loss(down, r, tg, tr)[0]
                else:
                    lu = en.gain_strength_loss(g, up, tg, tr)[0]
                    ld = en.gain_strength_loss(g, down, tg, tr)[0]
                numeric = (lu - ld) / (2 * h)
                rel = abs(numeric - grad[idx]) / max(abs(numeric), abs(grad[idx]), 1e-9)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_vad_gradients(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 16)
        y = (rng.uniform(0, 1, 16) > 0.5).astype(float)
        loss, dp = en.vad_loss(p, y)
        h = 1e-6
        for i in [0, 7, 15]:
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            numeric = (en.vad_loss(up, y)[0] - en.vad_loss(down, y)[0]) / (2 * h)
            assert abs(numeric - dp[i]) / max(abs(numeric), 1e-9) < 1e-4


class TestFullModelGradient:
    def test_composed_backward_matches_finite_differences(self, tiny_cfg):
        net, _ = en.build_model(tiny_cfg, seed=5)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((2, 9, 68))
        emb = unit_embeddings(2, 8, seed=7)
        tg = rng.uniform(0, 1, (2, 9, 32))
        tr = rng.uniform(0, 1, (2, 9, 32))
        tv = (rng.uniform(0, 1, (2, 9)) > 0.5).astype(float)

        def loss():
            g, s, v = net.forward(feats, emb)
            l1, _, _ = en.gain_strength_loss(g, s, tg, tr)
            l2, _ = en.vad_loss(v, tv)
            return l1 + l2

        net.zero_grads()
        g, s, v = net.forward(feats, emb)
        l1, dg, dr = en.gain_strength_loss(g, s, tg, tr)
        l2, dv = en.vad_loss(v, tv)
        net.backward(dg, dr, dv)
        grads = {k: v.copy() for k, v in net.grads().items()}
        worst = finite_difference_params(loss, net.params(), grads,
                                         np.random.default_rng(8),
                                         samples_per_param=4)
        assert worst < 1e-4


class TestToyTraining:
    def test_all_ones_targets_drive_gains_up(self):
        cfg = en.EnhancerConfig(gru_units=16, n_gru_layers=2, dense_units=12,
                                conv_channels=12, embedding_dim=4)
        rng = np.random.default_rng(0)
        emb = unit_embeddings(1, 4)[0]
        dataset = [{
            "features": 0.3 * np.random.default_rng(k).standard_normal((40, 68)),
            "embedding": emb,
            "gains": np.ones((40, 32)),
            "strengths": np.ones((40, 32)),
            "vad": np.ones(40),
        } for k in range(4)]
        config = en.EnhancerTrainConfig(steps=500, batch_size=4, model=cfg, lr=5e-3)
        net, losses = en.train_enhancer_toy(dataset, config)
        gains, _, _ = net.forward(dataset[0]["features"], emb)
        assert gains.mean() > 0.95
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            en.train_enhancer_toy([], en.EnhancerTrainConfig(steps=1))


class TestSessionAndSerialization:
    def test_streaming_session_matches_batch(self, tiny_net):
        rng = np.random.default_rng(9)
        feats = (0.4 * rng.standard_normal((25, 68))).astype(np.float64)
        emb = unit_embeddings(1, 8, seed=11)[0]
        gains, strengths, vad = tiny_net.forward(feats, emb)
        session = en.EnhancerSession(tiny_net, emb.astype(np.float32))
        for t in range(25):
            v = session.step(feats[t].astype(np.float32))
            np.testing.assert_allclose(session.gains, gains[t], atol=1e-5)
            np.testing.assert_allclose(session.strengths, strengths[t], atol=1e-5)
            assert v == pytest.approx(vad[t], abs=1e-5)

    def test_weight_roundtrip(self, tiny_net):
        blob = pack_weights("enhancer", en.enhancer_entries(tiny_net))
        _, entries = unpack_weights(blob)
        restored = en.enhancer_from_entries(entries)
        assert restored.config == tiny_net.config
        feats = np.random.default_rng(12).standard_normal((10, 68))
        emb = unit_embeddings(1, 8, seed=13)[0]
        g1, _, v1 = tiny_net.forward(feats, emb)
        g2, _, v2 = restored.forward(feats, emb)
        np.testing.assert_allclose(g1, g2, atol=1e-6)

    @pytest.mark.parametrize("units", [-1, 0, 2 ** 31])
    def test_bad_meta_rejected_before_allocation(self, tiny_net, units):
        entries = [(name, kind, np.array([float(units)]) if name == "meta.gru_units" else arr)
                   for name, kind, arr in en.enhancer_entries(tiny_net)]
        _, stored = unpack_weights(pack_weights("enhancer", entries))
        with pytest.raises(WeightsFormatError):
            en.enhancer_from_entries(stored)


def float32_arrays(session):
    for value in vars(session.weights).values():
        yield from value if isinstance(value, tuple) else (value,)


class TestSharedWeights:
    def test_sessions_share_read_only_weights(self, tiny_cfg):
        net = en.build_model(tiny_cfg, seed=4)[0]
        e1, e2 = unit_embeddings(2, 8, seed=14).astype(np.float32)
        s1, s2 = en.EnhancerSession(net, e1), en.EnhancerSession(net, e2)
        pairs = list(zip(float32_arrays(s1), float32_arrays(s2)))
        assert len(pairs) == 12 + 3 * tiny_cfg.n_gru_layers
        for a, b in pairs:
            assert np.shares_memory(a, b)
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s1.weights.gru_wh[0][0, 0] = 1.0
        # the embedding term lives in each session's own GRU 1 bias
        assert not np.shares_memory(s1._gru_b[0], s2._gru_b[0])
        assert not np.array_equal(s1._gru_b[0], s2._gru_b[0])
        assert not np.shares_memory(s1._h[0], s2._h[0])

    def test_later_session_sees_params_update(self, tiny_cfg):
        net = en.build_model(tiny_cfg, seed=6)[0]
        rng = np.random.default_rng(15)
        feats = 0.4 * rng.standard_normal((2, 12, 68))
        emb = unit_embeddings(2, 8, seed=16)
        first = en.EnhancerSession(net, emb[0].astype(np.float32))
        with pytest.raises(ValueError, match="read-only"):
            net.grus[0].Wh[0, 0] = 1.0  # bypasses params() while a session exists
        opt = Adam(net.params(), lr=1e-2)
        net.zero_grads()
        g, s, v = net.forward(feats, emb)
        net.backward(np.ones_like(g), np.ones_like(s), np.ones_like(v))
        opt.step(net.grads())

        second = en.EnhancerSession(net, emb[0].astype(np.float32))
        assert second.weights is not first.weights
        assert not np.array_equal(second.weights.w_dense, first.weights.w_dense)
        gains, strengths, vad = net.forward(feats[0], emb[0])
        for t in range(12):
            v_t = second.step(feats[0, t].astype(np.float32))
            np.testing.assert_allclose(second.gains, gains[t], atol=1e-5)
            np.testing.assert_allclose(second.strengths, strengths[t], atol=1e-5)
            assert v_t == pytest.approx(vad[t], abs=1e-5)
        with pytest.raises(ValueError, match="read-only"):
            net.head_gains.b[0] = 0.0
