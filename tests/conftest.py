"""Shared fixtures, the finite-difference gradient oracle and the BLAS core name."""

import ctypes
import glob
import os

import numpy as np
import pytest

from targetvoice.frontend import Frames, design_erb_filterbank


@pytest.fixture(scope="session")
def fb():
    return design_erb_filterbank()


def blas_core() -> str:
    """The OpenBLAS core (kernel set) numpy's bundled library runs, or "unknown".

    Trained weights and model output follow the kernel, so verdict lines
    name it. Only numpy wheels bundle the library this looks for.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def tone(freq_hz: float, duration_s: float, amplitude: float = 0.5) -> np.ndarray:
    t = np.arange(int(duration_s * 48000)) / 48000.0
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def sawtooth(freq_hz: float, n_samples: int) -> np.ndarray:
    phase = np.arange(n_samples) * freq_hz / 48000.0
    return 2.0 * (phase % 1.0) - 1.0


def concat_frames(records) -> Frames:
    """The records of consecutive pushes as one record."""
    return Frames(*(np.concatenate([getattr(r, name) for r in records])
                    for name in ("features", "periods", "spectra")))


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
