"""Neural runtime: layer forwards against naive oracles, exact gradients."""

from types import SimpleNamespace

import numpy as np
import pytest

from targetvoice import neural as nn
from tests.conftest import finite_difference_params


def layer_loss(layer, x, probe):
    """Scalar loss sum(forward(x) * probe) for gradient checking."""
    return float(np.sum(layer.forward(x) * probe))


def check_layer_gradients(layer, x, seed=0):
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(layer.forward(x).shape)
    layer.zero_grads()
    y = layer.forward(x)
    dx = layer.backward(probe)
    grads = {k: v.copy() for k, v in layer.grads().items()}
    worst = finite_difference_params(
        lambda: layer_loss(layer, x, probe), layer.params(), grads, rng
    )
    # input gradient via finite differences too
    flat = x.ravel()
    for i in rng.choice(x.size, size=10, replace=False):
        orig = flat[i]
        flat[i] = orig + 1e-5
        up = layer_loss(layer, x, probe)
        flat[i] = orig - 1e-5
        down = layer_loss(layer, x, probe)
        flat[i] = orig
        numeric = (up - down) / 2e-5
        rel = abs(numeric - dx.ravel()[i]) / max(abs(numeric), abs(dx.ravel()[i]), 1e-8)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Net
# ---------------------------------------------------------------------------


CFG4 = SimpleNamespace(units=4)


class TwoLayerNet(nn.Net):
    def _build(self):
        n = self.config.units
        self.conv = nn.CausalConv1d(3, n, 2, "tanh", "c")
        self.gru = nn.GRU(n, n, "g")
        self.layers = [self.conv, self.gru]


class TestNet:
    def test_from_arrays_copies_the_arrays_bit_for_bit(self):
        rng = np.random.default_rng(1)
        source = {name: rng.standard_normal(p.shape)
                  for name, p in TwoLayerNet(CFG4, seed=0).params().items()}
        net = TwoLayerNet.from_arrays(CFG4, source)
        assert list(net.params()) == list(source)
        for name, p in net.params().items():
            assert p.dtype == np.float64
            assert p.tobytes() == source[name].tobytes()
            assert not np.shares_memory(p, source[name])

    def test_from_arrays_widens_float32(self):
        source = {name: p.astype(np.float32)
                  for name, p in TwoLayerNet(CFG4, seed=2).params().items()}
        for name, p in TwoLayerNet.from_arrays(CFG4, source).params().items():
            assert p.tobytes() == source[name].astype(np.float64).tobytes()

    def test_draws_each_layer_in_order_from_the_seed(self):
        rng = np.random.default_rng(3)
        layers = [nn.CausalConv1d(3, 4, 2, "tanh", "c").draw(rng),
                  nn.GRU(4, 4, "g").draw(rng)]
        drawn = nn.collect_params(layers)
        net = TwoLayerNet(CFG4, seed=3)
        assert list(net.params()) == list(drawn)
        for name, p in net.params().items():
            assert p.tobytes() == drawn[name].tobytes()
        assert not net.conv.b.any() and not net.gru.b.any()

    def test_param_shapes_list_the_layout_without_arrays(self):
        net = TwoLayerNet(CFG4, seed=0)
        assert TwoLayerNet.param_shapes(CFG4) == [
            (name, p.shape) for name, p in net.params().items()]
        declared = nn.GRU(4, 4, "g")
        assert declared.shapes() == {"g.Wx": (4, 12), "g.Wh": (4, 12), "g.b": (12,)}
        assert not hasattr(declared, "Wx")

    def test_params_grads_and_entries_follow_the_layers(self):
        net = TwoLayerNet(CFG4, seed=0)
        names = ["c.W", "c.b", "g.Wx", "g.Wh", "g.b"]
        assert list(net.params()) == list(net.grads()) == names
        assert (sum(p.size for p in net.params().values())
                == (2 * 3 * 4 + 4) + (4 * 12 + 4 * 12 + 12))
        net.grads()["g.Wh"][...] = 1.0
        net.zero_grads()
        assert not net.gru.dWh.any()
        entries = net.entries(["units"])
        assert [(name, kind) for name, kind, _ in entries] == [
            ("meta.units", "scalar"), ("c.W", "conv1d"), ("c.b", "conv1d"),
            ("g.Wx", "gru"), ("g.Wh", "gru"), ("g.b", "gru")]
        assert entries[0][2].tolist() == [4.0]
        assert entries[4][2] is net.gru.Wh


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------


class TestDense:
    def test_identity_weights(self):
        layer = nn.Dense(4, 4, "linear", "dense").draw(np.random.default_rng(0))
        layer.W[...] = np.eye(4)
        layer.b[...] = 0
        x = np.random.default_rng(1).standard_normal((3, 4))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_sigmoid_at_zero(self):
        layer = nn.Dense(4, 2, "sigmoid", "dense").draw(np.random.default_rng(0))
        layer.b[...] = 0
        assert np.all(layer.forward(np.zeros((1, 4))) == 0.5)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        layer = nn.Dense(5, 3, "tanh", "dense").draw(rng)
        x = rng.standard_normal((4, 5))
        y = layer.forward(x)
        expected = np.empty((4, 3))
        for t in range(4):
            for j in range(3):
                acc = layer.b[j]
                for i in range(5):
                    acc += x[t, i] * layer.W[i, j]
                expected[t, j] = np.tanh(acc)
        np.testing.assert_allclose(y, expected, atol=1e-6)

    def test_zero_upstream_gradient_zero_param_grads(self):
        rng = np.random.default_rng(11)
        for layer in (nn.Dense(4, 3, "tanh", "dense").draw(rng),
                      nn.CausalConv1d(4, 3, 3, "tanh", "conv").draw(rng),
                      nn.GRU(4, 3, "gru").draw(rng)):
            x = rng.standard_normal((2, 5, 4))
            layer.zero_grads()
            y = layer.forward(x)
            dx = layer.backward(np.zeros_like(y))
            assert np.all(dx == 0)
            for g in layer.grads().values():
                assert np.all(g == 0)

    def test_linear_gradient_is_outer_product(self):
        rng = np.random.default_rng(3)
        layer = nn.Dense(4, 3, "linear", "dense").draw(rng)
        x = rng.standard_normal((1, 4))
        dy = rng.standard_normal((1, 3))
        layer.zero_grads()
        layer.forward(x)
        layer.backward(dy)
        np.testing.assert_allclose(layer.dW, np.outer(x[0], dy[0]), atol=1e-12)

    @pytest.mark.parametrize("activation", ["linear", "tanh", "sigmoid"])
    def test_gradients(self, activation):
        rng = np.random.default_rng(5)
        layer = nn.Dense(6, 4, activation, "dense").draw(rng)
        x = rng.standard_normal((2, 7, 6))
        assert check_layer_gradients(layer, x) < 1e-4

    def test_shape_mismatch(self):
        layer = nn.Dense(4, 2, "linear", "dense").draw(np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((3, 5)))

    def test_backward_before_forward(self):
        layer = nn.Dense(4, 2, "linear", "dense").draw(np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Causal conv
# ---------------------------------------------------------------------------


class TestCausalConv1d:
    def test_kernel1_identity(self):
        layer = nn.CausalConv1d(3, 3, 1, "linear", "conv").draw(np.random.default_rng(0))
        layer.W[0] = np.eye(3)
        layer.b[...] = 0
        x = np.random.default_rng(1).standard_normal((2, 6, 3))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-12)

    def test_impulse_reveals_taps(self):
        rng = np.random.default_rng(2)
        layer = nn.CausalConv1d(1, 1, 4, "linear", "conv").draw(rng)
        layer.b[...] = 0
        x = np.zeros((1, 10, 1))
        x[0, 3, 0] = 1.0
        y = layer.forward(x)[0, :, 0]
        expected = np.zeros(10)
        expected[3:7] = layer.W[:, 0, 0]
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_direct_convolution_oracle(self):
        rng = np.random.default_rng(3)
        layer = nn.CausalConv1d(2, 3, 3, "tanh", "conv").draw(rng)
        x = rng.standard_normal((1, 8, 2))
        y = layer.forward(x)
        for t in range(8):
            acc = layer.b.copy()
            for k in range(3):
                if t - k >= 0:
                    acc = acc + x[0, t - k] @ layer.W[k]
            np.testing.assert_allclose(y[0, t], np.tanh(acc), atol=1e-10)

    def test_causality(self):
        rng = np.random.default_rng(4)
        layer = nn.CausalConv1d(3, 3, 3, "tanh", "conv").draw(rng)
        x = rng.standard_normal((1, 10, 3))
        perturbed = x.copy()
        perturbed[0, 6] += 1.0
        y0, y1 = layer.forward(x), layer.forward(perturbed)
        np.testing.assert_array_equal(y0[0, :6], y1[0, :6])
        assert not np.allclose(y0[0, 6:], y1[0, 6:])

    def test_preserves_time_length(self):
        layer = nn.CausalConv1d(3, 5, 5, "tanh", "conv").draw(np.random.default_rng(0))
        assert layer.forward(np.zeros((2, 17, 3))).shape == (2, 17, 5)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        layer = nn.CausalConv1d(4, 3, 3, "tanh", "conv").draw(rng)
        x = rng.standard_normal((2, 9, 4))
        assert check_layer_gradients(layer, x) < 1e-4


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


class TestGRU:
    def test_zero_weights_zero_state(self):
        layer = nn.GRU(3, 4, "gru").draw(np.random.default_rng(0))
        for p in layer.params().values():
            p[...] = 0.0
        y = layer.forward(np.random.default_rng(1).standard_normal((1, 5, 3)))
        assert np.all(y == 0)

    def test_closed_update_gate_keeps_state(self):
        layer = nn.GRU(3, 4, "gru").draw(np.random.default_rng(2))
        # input channel 0 alone drives the update gate: open at 1, closed at 0
        layer.Wx[:, :4] = 0.0
        layer.Wx[0, :4] = 120.0
        layer.Wh[:, :4] = 0.0
        layer.b[:4] = -60.0
        x = np.random.default_rng(4).standard_normal((1, 2, 3))
        x[0, :, 0] = [1.0, 0.0]
        h = layer.forward(x)[0]
        assert np.all(np.abs(h[0]) > 1e-3)
        np.testing.assert_allclose(h[1], h[0], atol=1e-6)

    def test_scalar_loop_oracle(self):
        # two steps from the zero state: the second runs on a nonzero state
        rng = np.random.default_rng(5)
        layer = nn.GRU(3, 2, "gru").draw(rng)
        layer.b[...] = 0.5 * rng.standard_normal(layer.b.shape)
        xs = rng.standard_normal((2, 3))
        got = layer.forward(xs[None])[0]

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        n = 2
        h = np.zeros(n)
        for t, x_t in enumerate(xs):
            expected = np.empty(n)
            for j in range(n):
                gz = layer.b[j] + sum(x_t[i] * layer.Wx[i, j] for i in range(3)) \
                    + sum(h[i] * layer.Wh[i, j] for i in range(2))
                gr = layer.b[n + j] + sum(x_t[i] * layer.Wx[i, n + j] for i in range(3)) \
                    + sum(h[i] * layer.Wh[i, n + j] for i in range(2))
                z, r = sigmoid(gz), sigmoid(gr)
                gn = layer.b[2 * n + j] + sum(x_t[i] * layer.Wx[i, 2 * n + j]
                                              for i in range(3)) \
                    + r * sum(h[i] * layer.Wh[i, 2 * n + j] for i in range(2))
                expected[j] = (1 - z) * h[j] + z * np.tanh(gn)
            np.testing.assert_allclose(got[t], expected, atol=1e-6)
            h = expected
        assert np.all(h != 0)

    def test_state_bounded_over_many_random_steps(self):
        rng = np.random.default_rng(7)
        layer = nn.GRU(8, 8, "gru").draw(rng)
        states = layer.forward(rng.standard_normal((1, 100_000, 8)) * 3.0)
        assert float(np.max(np.abs(states))) <= 1.0
        assert np.all(np.isfinite(states))

    def test_gradients(self):
        rng = np.random.default_rng(8)
        layer = nn.GRU(5, 4, "gru").draw(rng)
        x = rng.standard_normal((2, 6, 5))
        assert check_layer_gradients(layer, x) < 1e-4

    def test_composed_stack_gradients(self):
        rng = np.random.default_rng(9)
        conv = nn.CausalConv1d(4, 5, 3, "tanh", "c").draw(rng)
        gru = nn.GRU(5, 4, "g").draw(rng)
        dense = nn.Dense(4, 2, "sigmoid", "d").draw(rng)
        layers = [conv, gru, dense]
        x = rng.standard_normal((2, 6, 4))
        probe = rng.standard_normal((2, 6, 2))

        def loss():
            h = x
            for layer in layers:
                h = layer.forward(h)
            return float(np.sum(h * probe))

        for layer in layers:
            layer.zero_grads()
        value = loss()
        d = probe
        for layer in reversed(layers):
            d = layer.backward(d)
        grads = {}
        params = {}
        for layer in layers:
            grads.update({k: v.copy() for k, v in layer.grads().items()})
            params.update(layer.params())
        worst = finite_difference_params(loss, params, grads,
                                         np.random.default_rng(10))
        assert worst < 1e-4


class StepwiseGRU:
    """Reference: the per-step GRU recurrence with per-step gradient GEMMs.

    Reads and accumulates into a live GRU's parameters and gradients, so
    its results compare directly with the sequence-level kernels.
    """

    def __init__(self, layer: nn.GRU):
        self.layer = layer

    def forward(self, x):
        g = self.layer
        batch, steps, _ = x.shape
        n = g.n_units
        h = np.zeros((batch, n))
        gx_all = x @ g.Wx + g.b
        h_seq = np.empty((batch, steps, n))
        cache = []
        for t in range(steps):
            gh = h @ g.Wh
            gx = gx_all[:, t, :]
            z = 1.0 / (1.0 + np.exp(-(gx[:, :n] + gh[:, :n])))
            r = 1.0 / (1.0 + np.exp(-(gx[:, n:2 * n] + gh[:, n:2 * n])))
            ghn = gh[:, 2 * n:]
            cand = np.tanh(gx[:, 2 * n:] + r * ghn)
            h_new = (1.0 - z) * h + z * cand
            cache.append((h, z, r, cand, ghn))
            h = h_new
            h_seq[:, t, :] = h
        self._cache = (x, cache)
        return h_seq

    def backward(self, dh_seq):
        g = self.layer
        x, cache = self._cache
        batch, steps, _ = x.shape
        n = g.n_units
        dx = np.zeros_like(x)
        dgx = np.empty((batch, 3 * n))
        dgh = np.empty((batch, 3 * n))
        dh_carry = np.zeros((batch, n))
        for t in range(steps - 1, -1, -1):
            h_prev, z, r, cand, ghn = cache[t]
            dh = dh_seq[:, t, :] + dh_carry
            dn = dh * z
            dz = dh * (cand - h_prev)
            dh_prev = dh * (1.0 - z)

            dn_pre = dn * (1.0 - cand * cand)
            dr = dn_pre * ghn
            dz_pre = dz * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)

            dgx[:, :n] = dz_pre
            dgx[:, n:2 * n] = dr_pre
            dgx[:, 2 * n:] = dn_pre
            dgh[:, :n] = dz_pre
            dgh[:, n:2 * n] = dr_pre
            dgh[:, 2 * n:] = dn_pre * r
            g.dWx += x[:, t, :].T @ dgx
            g.dWh += h_prev.T @ dgh
            g.db += dgx.sum(axis=0)
            dx[:, t, :] = dgx @ g.Wx.T
            dh_carry = dh_prev + dgh @ g.Wh.T
        return dx


def run_both(layer, x, dy, passes=1):
    """Forward and `passes` backwards through the layer, then the oracle."""
    results = []
    for impl in (layer, StepwiseGRU(layer)):
        layer.zero_grads()
        y = impl.forward(x)
        for _ in range(passes):
            dx = impl.backward(dy)
        results.append((y, dx, {k: v.copy() for k, v in layer.grads().items()}))
    return results


def assert_rel_close(got, want, rel):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


def check_against_oracle(layer, x, dy):
    (y, dx, grads), (y_ref, dx_ref, grads_ref) = run_both(layer, x, dy)
    assert y.shape == y_ref.shape and dx.shape == dx_ref.shape == x.shape
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
    assert_rel_close(dx, dx_ref, 1e-10)
    for key in grads_ref:
        assert_rel_close(grads[key], grads_ref[key], 1e-10)


class TestGRUSequenceKernels:
    """The sequence-level forward/backward against the per-step oracle.

    Forward writes the state update as h + z (n - h); backward regroups
    the per-step factors and sums the gradients over the whole sequence
    in one GEMM. Outputs agree to 1e-12 absolute, gradients to a relative
    1e-10 of their largest entry.
    """

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("steps", [1, 2, 50])
    def test_matches_stepwise_oracle(self, batch, steps):
        rng = np.random.default_rng(100 * batch + steps)
        layer = nn.GRU(5, 6, "gru").draw(rng)
        layer.b[...] = 0.3 * rng.standard_normal(layer.b.shape)
        x = rng.standard_normal((batch, steps, 5))
        dy = rng.standard_normal((batch, steps, 6))
        check_against_oracle(layer, x, dy)

    def test_two_backwards_accumulate(self):
        rng = np.random.default_rng(9)
        layer = nn.GRU(4, 3, "gru").draw(rng)
        x = rng.standard_normal((2, 11, 4))
        dy = rng.standard_normal((2, 11, 3))
        (_, dx, grads), (_, dx_ref, grads_ref) = run_both(layer, x, dy, passes=2)
        (_, dx_once, grads_once), _ = run_both(layer, x, dy)
        np.testing.assert_array_equal(dx, dx_once)
        for key in grads_ref:
            assert_rel_close(grads[key], grads_ref[key], 1e-10)
            assert_rel_close(grads[key], 2.0 * grads_once[key], 1e-12)

    def test_output_does_not_alias_cache(self):
        rng = np.random.default_rng(10)
        layer = nn.GRU(3, 4, "gru").draw(rng)
        x = rng.standard_normal((1, 5, 3))
        dy = rng.standard_normal((1, 5, 4))
        layer.zero_grads()
        y = layer.forward(x)
        dx = layer.backward(dy).copy()
        y[...] = 0.0
        layer.zero_grads()
        np.testing.assert_array_equal(layer.backward(dy), dx)

    def test_shape_mismatch(self):
        layer = nn.GRU(4, 3, "gru").draw(np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((2, 5, 6)))

    def test_backward_before_forward(self):
        layer = nn.GRU(4, 3, "gru").draw(np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((2, 5, 3)))


# ---------------------------------------------------------------------------
# Adam, determinism
# ---------------------------------------------------------------------------


class TestAdam:
    def test_descends_quadratic(self):
        p = {"w": np.array([5.0, -3.0])}
        opt = nn.Adam(p)
        for _ in range(8000):
            opt.step({"w": 2.0 * p["w"]})
        np.testing.assert_allclose(p["w"], 0.0, atol=1e-2)

    def test_clips_global_norm(self):
        p = {"w": np.zeros(4)}
        opt = nn.Adam(p)
        norm = opt.step({"w": np.full(4, 100.0)})
        assert norm == pytest.approx(200.0)
        assert np.all(np.isfinite(p["w"]))

    def test_deterministic_initialization(self):
        a = nn.GRU(6, 5, "gru").draw(np.random.default_rng(42))
        b = nn.GRU(6, 5, "gru").draw(np.random.default_rng(42))
        for pa, pb in zip(a.params().values(), b.params().values()):
            np.testing.assert_array_equal(pa, pb)

    def test_duplicate_param_names_rejected(self):
        rng = np.random.default_rng(0)
        layers = [nn.Dense(2, 2, "linear", "same").draw(rng),
                  nn.Dense(2, 2, "linear", "same").draw(rng)]
        with pytest.raises(ValueError, match="duplicate"):
            nn.collect_params(layers)
