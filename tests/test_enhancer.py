"""Enhancer model: presets, heads, supervision targets, losses."""


import numpy as np
import pytest

from targetvoice import enhancer as en
from targetvoice.neural import Adam
from targetvoice.pipeline import StreamingEnhancer
from targetvoice.weights_io import WeightsFormatError, pack_weights, unpack_weights
from tests.conftest import finite_difference_params, param_count
from tests.unfused_reference import ReferenceSession


@pytest.fixture(scope="module")
def tiny_cfg():
    return en.EnhancerConfig(gru_units=32, n_gru_layers=2, dense_units=16,
                             conv_channels=24, embedding_dim=8)


@pytest.fixture(scope="module")
def tiny_net(tiny_cfg):
    return en.EnhancerNet(tiny_cfg, seed=3)


def unit_embeddings(n, dim, seed=0):
    e = np.random.default_rng(seed).standard_normal((n, dim))
    return e / np.linalg.norm(e, axis=-1, keepdims=True)


class TestBuildModel:
    def test_ppn512_parameter_budget(self):
        count = param_count(en.EnhancerConfig.preset("ppn512"))
        assert 8.5e6 * 0.8 <= count <= 8.5e6 * 1.2

    def test_ppn1024_parameter_budget(self):
        count = param_count(en.EnhancerConfig.preset("ppn1024"))
        assert 26.5e6 * 0.8 <= count <= 26.5e6 * 1.2

    def test_toy_count_matches_hand_sum(self, tiny_cfg):
        count = param_count(tiny_cfg)
        d, c, n, e = 16, 24, 32, 8
        hand = (68 * d + d) + (d * 5 * c + c) + (c * 3 * c + c)
        hand += 3 * ((c + e) * n + n * n + n)      # gru 1
        hand += 3 * (n * n + n * n + n)            # gru 2
        hand += (n * 32 + 32) + ((n + 32) * 32 + 32) + (n + 1)
        assert count == hand

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            en.EnhancerConfig.preset("ppn9000")

    @pytest.mark.parametrize("preset", ["toy", "ppn512", "ppn1024"])
    def test_param_shapes_list_the_built_params(self, preset):
        # the loaders check a file against param_shapes before building
        cfg = en.EnhancerConfig.preset(preset)
        built = [(name, p.shape) for name, p in en.EnhancerNet(cfg, seed=0).params().items()]
        assert en.EnhancerNet.param_shapes(cfg) == built

    def test_backward_before_forward(self, tiny_cfg):
        net = en.EnhancerNet(tiny_cfg, seed=0)
        d = np.zeros((1, 4, 32))
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(d, d, np.zeros((1, 4)))


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
        net = en.EnhancerNet(tiny_cfg, seed=0)
        for p in net.params().values():
            p[...] = 0.0
        gains, strengths, vad = net.forward(
            np.random.default_rng(1).standard_normal((1, 10, 68)),
            unit_embeddings(1, 8),
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
        feats = rng.standard_normal((1, 18, 68))
        e1, e2 = unit_embeddings(2, 8, seed=9)
        g1, _, _ = tiny_net.forward(feats, e1[None])
        g2, _, _ = tiny_net.forward(feats, e2[None])
        assert np.abs(g1 - g2).sum() > 0.0

    def test_wrong_embedding_dim(self, tiny_net):
        with pytest.raises(ValueError, match="dim"):
            tiny_net.forward(np.zeros((1, 10, 68)), np.zeros((1, 5)))


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
        net = en.EnhancerNet(tiny_cfg, seed=5)
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
        config = en.EnhancerTrainConfig(steps=1000, batch_size=4, model=cfg)
        net, losses = en.train_enhancer_toy(dataset, config)
        gains, _, _ = net.forward(dataset[0]["features"][None], emb[None])
        assert gains.mean() > 0.95
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            en.train_enhancer_toy([], en.EnhancerTrainConfig(steps=1))


class TestSessionAndSerialization:
    def test_streaming_session_matches_batch(self, tiny_net):
        rng = np.random.default_rng(9)
        feats = (0.4 * rng.standard_normal((25, 68))).astype(np.float64)
        emb = unit_embeddings(1, 8, seed=11)
        ref = tiny_net.forward(feats[None], emb)
        session = en.EnhancerSession(tiny_net.float32_weights(), emb[0])
        got = session.step(feats.astype(np.float32))
        for out, want in zip(got, ref):
            np.testing.assert_allclose(out, want[0], atol=1e-5)
        np.testing.assert_array_equal(session.gains, got[0][-1])
        np.testing.assert_array_equal(session.strengths, got[1][-1])

    @pytest.mark.parametrize("preset", ["toy", "ppn512"])
    def test_preset_session_matches_batch(self, preset):
        # full-width conv and GRU layers, 300 frames, float32 rounding only
        net = en.EnhancerNet(en.EnhancerConfig.preset(preset), seed=8)
        rng = np.random.default_rng(10)
        feats = 0.5 * rng.standard_normal((300, 68))
        emb = unit_embeddings(1, net.config.embedding_dim, seed=12)
        want = net.forward(feats[None], emb)
        session = en.EnhancerSession(net.float32_weights(), emb[0])
        got = session.step(feats.astype(np.float32))
        for out, ref in zip(got, want):
            np.testing.assert_allclose(out, ref[0], rtol=0, atol=1e-6)

    def test_weight_roundtrip(self, tiny_net):
        blob = pack_weights("enhancer", en.enhancer_entries(tiny_net))
        _, entries = unpack_weights(blob)
        restored = en.enhancer_from_entries(entries)
        assert restored.config == tiny_net.config
        feats = np.random.default_rng(12).standard_normal((1, 10, 68))
        emb = unit_embeddings(1, 8, seed=13)
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


class TestSharedWeights:
    def test_sessions_share_read_only_weights(self, tiny_cfg):
        net = en.EnhancerNet(tiny_cfg, seed=4)
        weights = net.float32_weights()
        e1, e2 = unit_embeddings(2, 8, seed=14).astype(np.float32)
        s1, s2 = en.EnhancerSession(weights, e1), en.EnhancerSession(weights, e2)
        assert s1.weights is s2.weights is weights.arrays
        # each narrowing of the net is a copy of its own
        assert net.float32_weights().arrays is not weights.arrays
        names = [name for name, _ in en.EnhancerNet.param_shapes(tiny_cfg)]
        assert list(s1.weights) == names
        assert len(names) == 12 + 3 * tiny_cfg.n_gru_layers
        for arr in s1.weights.values():
            assert arr.dtype == np.float32
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s1.weights["en_gru1.Wh"][0, 0] = 1.0
        with pytest.raises(TypeError):
            s1.weights["en_gru1.Wh"] = np.zeros((1, 1), dtype=np.float32)
        # the embedding term lives in each session's own GRU 1 bias
        assert not np.shares_memory(s1._gru1_b, s2._gru1_b)
        assert not np.array_equal(s1._gru1_b, s2._gru1_b)
        assert not np.shares_memory(s1._h[0], s2._h[0])

    def test_later_session_sees_params_update(self, tiny_cfg):
        net = en.EnhancerNet(tiny_cfg, seed=6)
        rng = np.random.default_rng(15)
        feats = 0.4 * rng.standard_normal((2, 12, 68))
        emb = unit_embeddings(2, 8, seed=16)
        first = en.EnhancerSession(net.float32_weights(), emb[0])
        before = {name: arr.copy() for name, arr in first.weights.items()}
        opt = Adam(net.params())
        net.zero_grads()
        g, s, v = net.forward(feats, emb)
        net.backward(np.ones_like(g), np.ones_like(s), np.ones_like(v))
        opt.step(net.grads())

        second = en.EnhancerSession(net.float32_weights(), emb[0])
        assert not np.array_equal(second.weights["en_dense_in.W"],
                                  first.weights["en_dense_in.W"])
        want = net.forward(feats, emb)
        for got, ref in zip(second.step(feats[0].astype(np.float32)), want):
            np.testing.assert_allclose(got, ref[0], atol=1e-5)
        # the first session keeps the weights it was made with
        for name, arr in first.weights.items():
            assert arr.tobytes() == before[name].tobytes()


class TestBlockStep:
    @pytest.mark.parametrize("preset", ["toy", "ppn512"])
    def test_any_split_gives_the_per_frame_bytes(self, preset):
        # one block, splits of 1, of 7 and of random sizes, and the frame-at-
        # a-time reference: the same float32 bytes of every control
        net = en.EnhancerNet(en.EnhancerConfig.preset(preset), seed=9)
        weights = net.float32_weights()
        emb = unit_embeddings(1, net.config.embedding_dim, seed=22)[0]
        rng = np.random.default_rng(23)
        n = 50
        feats = (0.5 * rng.standard_normal((n, 68))).astype(np.float32)

        def blocks(sizes):
            session = en.EnhancerSession(weights, emb)
            bounds = np.cumsum([0, *sizes])
            steps = [session.step(feats[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
            return [np.concatenate(out).tobytes() for out in zip(*steps)]

        reference = ReferenceSession(weights, emb)
        want = [np.array(out).tobytes()
                for out in zip(*(reference.step_frame(f) for f in feats))]
        cuts = np.sort(rng.choice(np.arange(1, n), size=8, replace=False))
        for sizes in ([n], [1] * n, [7] * (n // 7) + [n % 7], np.diff([0, *cuts, n])):
            assert blocks(sizes) == want


def save_and_load(net):
    """The blob `net` saves to, its entries, and the weights loaded from them."""
    blob = pack_weights("enhancer", en.enhancer_entries(net))
    entries = unpack_weights(blob)[1]
    return blob, entries, en.enhancer_from_entries(entries)


def widened(entries, name):
    return entries[name][1].astype(np.float64)


def run_engine(net, emb, x, bounds):
    """Output samples and per-chunk controls of one engine fed x in chunks."""
    engine = StreamingEnhancer(net, emb)
    out, controls = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        out.append(engine.process(x[a:b]))
        controls += [engine.session.gains.copy(), engine.session.strengths.copy(),
                     np.float64(engine.last_vad)]
    out.append(engine.flush())
    return np.concatenate(out).tobytes(), b"".join(c.tobytes() for c in controls)


class TestLoadedNet:
    """Loaded weights run sessions on the file's own float32 arrays; forward()
    widens them into a float64 net on each call."""

    def test_engine_matches_saved_net_under_any_chunking(self, tiny_cfg, monkeypatch):
        net = en.EnhancerNet(tiny_cfg, seed=7)
        _, _, loaded = save_and_load(net)
        emb = unit_embeddings(1, 8, seed=17)[0]
        rng = np.random.default_rng(18)
        x = 0.3 * rng.standard_normal(12000)
        bounds = np.minimum(np.cumsum([0, *rng.integers(1, 1500, size=30)]), len(x))
        want = run_engine(net.float32_weights(), emb, x, bounds)

        def no_master(*args):
            raise AssertionError("the float64 parameters were built")

        # streaming and counting build no float64 net
        monkeypatch.setattr(en.EnhancerNet, "_build", no_master)
        assert run_engine(loaded, emb, x, bounds) == want
        assert (sum(arr.size for arr in loaded.arrays.values())
                == sum(p.size for p in net.params().values()))

    def test_sessions_adopt_the_entry_arrays(self, tiny_net):
        _, entries, loaded = save_and_load(tiny_net)
        session = en.EnhancerSession(loaded, unit_embeddings(1, 8)[0].astype(np.float32))
        assert session.weights is loaded.arrays
        assert list(loaded.arrays) == [name for name, _ in en.EnhancerNet.param_shapes(loaded.config)]
        for name, arr in loaded.arrays.items():
            assert arr is entries[name][1]
            assert not arr.flags.writeable

    def test_forward_equals_net_built_from_widened_entries(self, tiny_net):
        _, entries, loaded = save_and_load(tiny_net)
        ref = en.EnhancerNet(tiny_net.config, seed=0)
        for name, p in ref.params().items():
            p[...] = widened(entries, name)
        feats = np.random.default_rng(19).standard_normal((2, 14, 68))
        emb = unit_embeddings(2, 8, seed=20)
        for got, want in zip(loaded.forward(feats, emb), ref.forward(feats, emb)):
            assert got.tobytes() == want.tobytes()

    def test_loading_allocates_no_weight_copy(self):
        # ppn512-shaped entries: loading plus the first session may allocate
        # session state and the embedding fold, not a copy of the weights
        import tracemalloc

        cfg = en.EnhancerConfig.preset("ppn512")
        entries = {f"meta.{key}": ("scalar", np.array([float(val)], dtype=np.float32))
                   for key, val in vars(cfg).items()}
        for name, shape in en.EnhancerNet.param_shapes(cfg):
            entries[name] = ("dense", np.zeros(shape, dtype=np.float32))
        payload = sum(arr.nbytes for _, arr in entries.values())
        emb = unit_embeddings(1, cfg.embedding_dim)[0].astype(np.float32)
        tracemalloc.start()
        try:
            en.EnhancerSession(en.enhancer_from_entries(entries), emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * payload + (2 << 20)
