"""Shared fixtures and the finite-difference gradient oracle."""

import numpy as np
import pytest

from targetvoice.frontend import Frames, design_erb_filterbank


@pytest.fixture(scope="session")
def fb():
    return design_erb_filterbank()


def tone(freq_hz: float, duration_s: float, amplitude: float = 0.5) -> np.ndarray:
    t = np.arange(int(duration_s * 48000)) / 48000.0
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def sawtooth(freq_hz: float, n_samples: int) -> np.ndarray:
    phase = np.arange(n_samples) * freq_hz / 48000.0
    return 2.0 * (phase % 1.0) - 1.0


def concat_frames(records) -> Frames:
    """The records of consecutive pushes as one record."""
    return Frames(*(np.concatenate([getattr(r, name) for r in records])
                    for name in ("features", "periods", "correlations", "spectra")))


def finite_difference_params(loss_fn, params: dict, grads: dict,
                             rng: np.random.Generator, samples_per_param: int = 6,
                             h: float = 1e-5) -> float:
    """Worst relative error between analytic grads and central differences.

    loss_fn() must recompute the scalar loss from the current parameter
    values; grads holds the analytic gradients taken before perturbation.
    Runs in float64 as the layers do.
    """
    worst = 0.0
    for key, p in params.items():
        flat = p.ravel()
        gflat = grads[key].ravel()
        count = min(samples_per_param, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            rel = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
    return worst
