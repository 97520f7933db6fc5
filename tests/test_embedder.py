"""Speaker embedder: normalization, GE2E closed forms, gradients."""

import numpy as np
import pytest

from targetvoice import embedder as em
from targetvoice.weights_io import WeightsFormatError, pack_weights, unpack_weights
from tests.conftest import finite_difference_params


@pytest.fixture(scope="module")
def toy_net():
    return em.EmbedderNet(em.EmbedderConfig.toy(), seed=0)


def random_features(seed, frames=70):
    return 0.3 * np.random.default_rng(seed).standard_normal((frames, 68))


class TestEmbedUtterance:
    def test_unit_norm(self, toy_net):
        emb = em.embed_utterance(toy_net, random_features(0))
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self, toy_net):
        a = em.embed_utterance(toy_net, random_features(1))
        b = em.embed_utterance(toy_net, random_features(1))
        np.testing.assert_array_equal(a, b)
        assert float(np.dot(a, b)) == pytest.approx(1.0, abs=1e-9)

    def test_too_short_rejected(self, toy_net):
        with pytest.raises(ValueError, match="too short"):
            em.embed_utterance(toy_net, random_features(2, frames=49))

    def test_wrong_width_rejected(self, toy_net):
        with pytest.raises(ValueError, match="68"):
            em.embed_utterance(toy_net, np.zeros((60, 32)))

    def test_enrollment_averages_crops(self, toy_net):
        feats = random_features(3, frames=1300)
        emb = em.enroll_embedding(toy_net, feats, crop_frames=599)
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)
        e1 = em.embed_utterance(toy_net, feats[:599])
        e2 = em.embed_utterance(toy_net, feats[599:1198])
        mean = (e1 + e2) / 2
        np.testing.assert_allclose(emb, mean / np.linalg.norm(mean), atol=1e-9)


class TestGe2eLoss:
    def test_identical_embeddings_uniform_softmax(self):
        n_spk, n_utt, dim = 5, 3, 8
        one = np.random.default_rng(0).standard_normal(dim)
        one /= np.linalg.norm(one)
        emb = np.tile(one, (n_spk, n_utt, 1))
        loss, _, _, _ = em.ge2e_loss(emb, 10.0, -5.0)
        assert loss == pytest.approx(n_spk * n_utt * np.log(n_spk), rel=1e-9)

    def test_orthogonal_clusters_vanishing_loss(self):
        n_spk, n_utt = 4, 3
        emb = np.zeros((n_spk, n_utt, 8))
        for j in range(n_spk):
            emb[j, :, j] = 1.0
        loss, _, _, _ = em.ge2e_loss(emb, 50.0, 0.0)
        assert loss < 1e-6

    def test_speaker_permutation_invariance(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((5, 3, 8))
        emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
        base, _, _, _ = em.ge2e_loss(emb, 10.0, -5.0)
        perm = np.random.default_rng(2).permutation(5)
        permuted, _, _, _ = em.ge2e_loss(emb[perm], 10.0, -5.0)
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            emb = np.random.default_rng(seed).standard_normal((3, 3, 6))
            emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
            loss, _, _, _ = em.ge2e_loss(emb, 10.0, -5.0)
            assert loss >= 0.0

    def test_single_speaker_rejected(self):
        with pytest.raises(ValueError, match="N >= 2"):
            em.ge2e_loss(np.zeros((1, 3, 4)), 10.0, -5.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        emb = rng.standard_normal((3, 3, 6))
        emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
        w0, b0 = 7.0, -3.0
        loss, d_emb, dw, db = em.ge2e_loss(emb, w0, b0)
        h = 1e-6
        worst = 0.0
        for idx in [(0, 0, 1), (1, 2, 3), (2, 1, 0), (0, 2, 5)]:
            up, down = emb.copy(), emb.copy()
            up[idx] += h
            down[idx] -= h
            numeric = (em.ge2e_loss(up, w0, b0)[0] - em.ge2e_loss(down, w0, b0)[0]) / (2 * h)
            rel = abs(numeric - d_emb[idx]) / max(abs(numeric), abs(d_emb[idx]), 1e-9)
            worst = max(worst, rel)
        numeric_w = (em.ge2e_loss(emb, w0 + h, b0)[0] - em.ge2e_loss(emb, w0 - h, b0)[0]) / (2 * h)
        worst = max(worst, abs(numeric_w - dw) / max(abs(numeric_w), 1e-9))
        assert worst < 1e-4
        # softmax similarities are shift-invariant, so b carries no gradient
        assert db == pytest.approx(0.0, abs=1e-9)


class TestEmbedderBackward:
    def test_full_network_plus_ge2e_gradient(self, toy_net):
        net = em.EmbedderNet(em.EmbedderConfig(conv_channels=6, gru_units=5,
                                               embedding_dim=4), seed=1)
        rng = np.random.default_rng(5)
        feats = 0.3 * rng.standard_normal((2 * 2, 12, 68))

        def loss():
            emb = net.forward_batch(feats).reshape(2, 2, -1)
            return em.ge2e_loss(emb, 8.0, -4.0)[0]

        net.zero_grads()
        emb = net.forward_batch(feats).reshape(2, 2, -1)
        value, d_emb, _, _ = em.ge2e_loss(emb, 8.0, -4.0)
        net.backward_batch(d_emb.reshape(4, -1))
        grads = {k: v.copy() for k, v in net.grads().items()}
        worst = finite_difference_params(loss, net.params(), grads,
                                         np.random.default_rng(6),
                                         samples_per_param=4)
        assert worst < 1e-4


class TestSerialization:
    def test_roundtrip_preserves_embeddings(self, toy_net):
        blob = pack_weights("embedder", em.embedder_entries(toy_net))
        _, entries = unpack_weights(blob)
        restored = em.embedder_from_entries(entries)
        feats = random_features(7)
        a = em.embed_utterance(toy_net, feats)
        b = em.embed_utterance(restored, feats)
        # float32 storage rounds the weights; embeddings stay overwhelmingly aligned
        assert float(np.dot(a, b)) > 1.0 - 1e-5

    @pytest.mark.parametrize("units", [-1, 0, 2 ** 31])
    def test_bad_meta_rejected_before_allocation(self, toy_net, units):
        entries = [(name, kind, np.array([float(units)]) if name == "meta.gru_units" else arr)
                   for name, kind, arr in em.embedder_entries(toy_net)]
        _, stored = unpack_weights(pack_weights("embedder", entries))
        with pytest.raises(WeightsFormatError):
            em.embedder_from_entries(stored)

    def test_dataset_minimums_enforced(self):
        tiny = {0: [random_features(0)] * 4, 1: [random_features(1)] * 4}
        with pytest.raises(ValueError, match="4 speakers"):
            em.train_embedder(tiny, tiny, em.EmbedderTrainConfig(steps=1))
