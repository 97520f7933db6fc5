"""Synthetic speakers, SNR/SIR mixing, augmentation, dataset builders.

Mixtures pair a target talker with an interfering talker and background
noise at controlled signal-to-interference and signal-to-noise ratios,
optionally through the augmentation stack (random low-pass cutoff between
3 and 20 kHz plus a spectral tilt simulating microphone responses). Every
generator is a pure function of its seed, so datasets are bit-reproducible.

Synthetic "speakers" stand in for corpora at desk scale: a glottal-pulse
train with a speaker-specific F0 base and vibrato drives a 3-formant
resonator, alternating voiced / unvoiced / silent segments, so different
seeds produce distinct pitch ranges and long-term spectra.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
import json

import numpy as np

from targetvoice.audio import SAMPLE_RATE, AudioBuffer
from targetvoice.comb import OverlapAddSynthesizer
from targetvoice.enhancer import compute_target_gains, vad_labels_from_energy
from targetvoice.frontend import (
    HOP,
    N_BANDS,
    N_BINS,
    WINDOW,
    ErbFilterbank,
    extract_features,
    frame_spectra,
)

LOWPASS_MIN_HZ = 3000.0
LOWPASS_MAX_HZ = 20000.0
TILT_REF_HZ = 1000.0
TILT_FLOOR_HZ = 50.0

# seconds of each toy speaker's train, held-out and enrollment regions
TOY_TRAIN_S = 60.0
TOY_HELDOUT_S = 20.0
TOY_ENROLL_S = 8.0
# seconds of each embedder crop and of each toy mixture
CROP_S = 6.0
# embedder crops per speaker from its train and its held-out region
TRAIN_CROPS = 16
HELDOUT_CROPS = 4
TOY_MIXTURE_S = 3.0
# a random slice quieter than this RMS is redrawn, up to SLICE_TRIES times
SLICE_MIN_RMS = 0.02
SLICE_TRIES = 20
MIXTURE_TALKERS = 2  # distinct talkers in a mixture: a target and an interferer


class MixtureError(ValueError):
    """Raised for silent components or malformed mixing requests."""


# ---------------------------------------------------------------------------
# Ratio mixing
# ---------------------------------------------------------------------------


def mix_at_ratio(signal: np.ndarray, other: np.ndarray, ratio_db: float):
    """Scale `other` so signal-to-other energy ratio equals ratio_db.

    Returns (signal + scale * other, scale); the achieved ratio is exact up
    to float rounding (well inside 0.01 dB).
    """
    signal = np.asarray(signal, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if signal.shape != other.shape:
        raise MixtureError(f"length mismatch: {signal.shape} vs {other.shape}")
    e_signal = float(np.sum(signal * signal))
    e_other = float(np.sum(other * other))
    if e_signal <= 0.0:
        raise MixtureError("signal is silent; ratio undefined")
    if e_other <= 0.0:
        raise MixtureError("other component is silent; ratio undefined")
    scale = float(np.sqrt(e_signal / (e_other * 10.0 ** (ratio_db / 10.0))))
    return signal + scale * other, scale


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentSpec:
    lowpass_hz: float | None = None
    tilt_db_per_octave: float | None = None

    @property
    def active(self) -> bool:
        return self.lowpass_hz is not None or self.tilt_db_per_octave is not None


def _augment_response(aug: AugmentSpec) -> np.ndarray:
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, N_BINS)
    h = np.ones(N_BINS)
    if aug.lowpass_hz is not None:
        if not LOWPASS_MIN_HZ <= aug.lowpass_hz <= LOWPASS_MAX_HZ:
            raise MixtureError(
                f"low-pass cutoff {aug.lowpass_hz} outside "
                f"[{LOWPASS_MIN_HZ}, {LOWPASS_MAX_HZ}] Hz"
            )
        # 4th-order Butterworth magnitude, applied zero-phase
        h *= 1.0 / np.sqrt(1.0 + (freqs / aug.lowpass_hz) ** 8)
    if aug.tilt_db_per_octave is not None:
        if not np.isfinite(aug.tilt_db_per_octave):
            raise MixtureError(f"tilt {aug.tilt_db_per_octave} dB/octave is not finite")
        octaves = np.log2(np.maximum(freqs, TILT_FLOOR_HZ) / TILT_REF_HZ)
        h *= 10.0 ** (aug.tilt_db_per_octave * octaves / 20.0)
    return h


def augment(audio: np.ndarray, aug: AugmentSpec) -> np.ndarray:
    """Apply the low-pass + tilt magnitude response frame by frame.

    The signal runs through the analysis/synthesis chain with the response
    multiplied onto each frame spectrum, so the shaping matches what the
    enhancement pipeline itself would apply; output length equals input.
    """
    x = np.asarray(audio, dtype=np.float64)
    if not aug.active:
        return x.copy()
    h = _augment_response(aug)
    padded = np.concatenate([np.zeros(HOP), x, np.zeros(WINDOW + HOP)])
    y = OverlapAddSynthesizer().push(frame_spectra(padded) * h)
    return y[HOP : HOP + len(x)]


# ---------------------------------------------------------------------------
# Synthetic speakers and noise
# ---------------------------------------------------------------------------


def _resonator_coeffs(freq: float, bandwidth: float):
    r = np.exp(-np.pi * bandwidth / SAMPLE_RATE)
    theta = 2.0 * np.pi * freq / SAMPLE_RATE
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    b = [1.0 - r]
    return b, a


def _place_pulses(increments: np.ndarray, phase: float, env: np.ndarray,
                  out: np.ndarray) -> float:
    """Glottal pulses of one voiced stretch; returns the phase carried past it.

    Sample i adds increments[i] to the phase in [0, 1); where the phase
    reaches 1 it drops by 1 and out[i] = env[i]. One running sum per
    period, from the carried phase, makes the per-sample loop's adds in
    its order, so pulses and phase keep the loop's bytes.
    """
    span = int(1.0 / increments.min()) + 2  # samples past one period
    i = 0
    while i < len(increments):
        acc = np.add.accumulate(np.concatenate(([phase], increments[i : i + span])))
        j = int(np.argmax(acc >= 1.0))  # 0 when no sum reaches 1, as acc[0] < 1
        if j:
            out[i + j - 1] = env[i + j - 1]
            phase, i = float(acc[j]) - 1.0, i + j
        else:
            phase, i = float(acc[-1]), i + span
    return phase


def synth_speaker(speaker_seed: int, duration: float) -> AudioBuffer:
    """Deterministic synthetic talker audio for desk-scale training.

    The speaker's base F0 (90-280 Hz), vibrato, three formant resonances,
    and segment rhythm all derive from the seed; the waveform alternates
    amplitude-modulated voiced stretches, soft unvoiced noise, and pauses.
    """
    from scipy.signal import lfilter  # a slow import that only talker synthesis needs

    if duration < 1.0:
        raise ValueError("duration must be at least 1 s")
    rng = np.random.default_rng(np.random.SeedSequence([917, int(speaker_seed)]))
    n = int(round(duration * SAMPLE_RATE))

    base_f0 = 90.0 * (280.0 / 90.0) ** rng.uniform()
    vib_rate = rng.uniform(4.0, 7.0)
    vib_depth = rng.uniform(0.01, 0.025)
    formants = [
        (rng.uniform(300.0, 900.0), rng.uniform(60.0, 120.0)),
        (rng.uniform(1000.0, 2200.0), rng.uniform(90.0, 180.0)),
        (rng.uniform(2400.0, 3400.0), rng.uniform(120.0, 250.0)),
    ]

    # segment plan: voiced / unvoiced / silence
    excitation = np.zeros(n)
    voiced_mask = np.zeros(n, dtype=bool)
    pos = 0
    phase = 0.0
    t_axis = np.arange(n) / SAMPLE_RATE
    f0_track = base_f0 * (1.0 + vib_depth * np.sin(2 * np.pi * vib_rate * t_axis))
    while pos < n:
        kind = rng.choice(3, p=[0.62, 0.18, 0.20])
        if kind == 0:  # voiced
            length = int(rng.uniform(0.15, 0.40) * SAMPLE_RATE)
            end = min(pos + length, n)
            env = 0.55 + 0.45 * np.sin(
                np.linspace(0.15, np.pi - 0.15, end - pos)
            )
            phase = _place_pulses(f0_track[pos:end] / SAMPLE_RATE, phase, env,
                                  excitation[pos:end])
            voiced_mask[pos:end] = True
            pos = end
        elif kind == 1:  # unvoiced
            length = int(rng.uniform(0.06, 0.15) * SAMPLE_RATE)
            end = min(pos + length, n)
            excitation[pos:end] = 0.02 * rng.standard_normal(end - pos)
            pos = end
        else:  # silence
            length = int(rng.uniform(0.10, 0.30) * SAMPLE_RATE)
            pos = min(pos + length, n)

    signal = excitation
    for freq, bandwidth in formants:
        b, a = _resonator_coeffs(freq, bandwidth)
        signal = lfilter(b, a, signal)
    peak = float(np.max(np.abs(signal)))
    if peak > 0:
        signal = 0.5 * signal / peak
    return AudioBuffer(signal.astype(np.float32))


def _shaped_noise(salt: int, seed: int, duration: float, response) -> AudioBuffer:
    """Seeded white noise filtered by response(rng, bin_hz), scaled to a 0.3 peak."""
    rng = np.random.default_rng(np.random.SeedSequence([salt, int(seed)]))
    n = int(round(duration * SAMPLE_RATE))
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, len(spec))
    noise = np.fft.irfft(spec * response(rng, freqs), n=n)
    noise *= 0.3 / max(float(np.max(np.abs(noise))), 1e-12)
    return AudioBuffer(noise.astype(np.float32))


def synth_noise(seed: int, duration: float) -> AudioBuffer:
    """Seeded background noise with a random spectral slope."""
    def response(rng, freqs):
        slope_db_oct = rng.uniform(-9.0, -3.0)
        return 10.0 ** (slope_db_oct * np.log2(np.maximum(freqs, 80.0) / 80.0) / 20.0)
    return _shaped_noise(431, seed, duration, response)


def speech_shaped_noise(seed: int, duration: float) -> AudioBuffer:
    """Noise with a speech-like long-term spectrum (flat low, -9 dB/oct above)."""
    return _shaped_noise(733, seed, duration, lambda rng, freqs: 1.0 / (
        1.0 + (np.maximum(freqs, 1.0) / 500.0) ** 1.5))


# ---------------------------------------------------------------------------
# Mixture synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec:
    snr_db: float
    sir_db: float | None  # None: no interferer
    seed: int
    augment: AugmentSpec = AugmentSpec()

    def __post_init__(self) -> None:
        if not np.isfinite(self.snr_db):
            raise MixtureError("snr_db must be finite")
        if self.sir_db is not None and not np.isfinite(self.sir_db):
            raise MixtureError("sir_db must be finite (or None to omit)")


@dataclass
class SupervisionTargets:
    gains: np.ndarray      # [T, 32] ideal ratio masks
    strengths: np.ndarray  # [T, 32] clean-frame pitch coherence
    vad: np.ndarray        # [T] target-active labels {0, 1}
    features: np.ndarray   # [T, 68] the mixture's feature matrix


@dataclass
class MixtureExample:
    mixture: AudioBuffer
    clean_target: AudioBuffer
    interferer: AudioBuffer | None
    noise: AudioBuffer
    targets: SupervisionTargets


def mix_components(spec: MixtureSpec, target: AudioBuffer,
                   interferer: AudioBuffer | None, noise: AudioBuffer):
    """Mix target + interferer + noise at the requested SIR/SNR.

    Interferer and noise are scaled against the (unscaled) target, then the
    augmentation response — when active — is applied identically to every
    component. Returns float32 (mixture, target, interferer, noise), with
    the mixture the sample-exact sum of the other three, so the [0,1] gain
    targets stay attainable; interferer is None when none was given.
    """
    t = np.asarray(target.samples, dtype=np.float64)
    n = np.asarray(noise.samples, dtype=np.float64)
    length = min(len(t), len(n))
    if interferer is not None:
        i = np.asarray(interferer.samples, dtype=np.float64)
        length = min(length, len(i))
    if length < WINDOW:
        raise MixtureError(f"{length} samples is shorter than one {WINDOW}-sample analysis window")
    t = t[:length]
    n = n[:length]

    if interferer is not None:
        if spec.sir_db is None:
            raise MixtureError("interferer given but sir_db is None")
        _, i_scale = mix_at_ratio(t, i[:length], spec.sir_db)
        i_scaled = i_scale * i[:length]
    else:
        i_scaled = None
    _, n_scale = mix_at_ratio(t, n, spec.snr_db)
    n_scaled = n_scale * n

    if spec.augment.active:
        t = augment(t, spec.augment)
        n_scaled = augment(n_scaled, spec.augment)
        if i_scaled is not None:
            i_scaled = augment(i_scaled, spec.augment)

    # sum at storage precision so mixture == stored components, bit for bit
    t32 = t.astype(np.float32)
    n32 = n_scaled.astype(np.float32)
    i32 = None if i_scaled is None else i_scaled.astype(np.float32)
    mixture = t32 + n32 if i32 is None else t32 + i32 + n32
    return mixture, t32, i32, n32


def make_mixture(spec: MixtureSpec, target: AudioBuffer,
                 interferer: AudioBuffer | None, noise: AudioBuffer,
                 fb: ErbFilterbank | None = None) -> MixtureExample:
    """mix_components' mixture and components, with supervision targets.

    The targets come from the stored clean target vs. the mixture.
    `fb` is only checked, by extract_features; it stays while the benchmark passes one.
    """
    mixture, t32, i32, n32 = mix_components(spec, target, interferer, noise)
    targets = compute_supervision(extract_features(t32, fb).features,
                                  extract_features(mixture, fb).features)
    return MixtureExample(
        mixture=AudioBuffer(mixture),
        clean_target=AudioBuffer(t32),
        interferer=None if i32 is None else AudioBuffer(i32),
        noise=AudioBuffer(n32),
        targets=targets,
    )


def compute_supervision(clean: np.ndarray, mixture: np.ndarray) -> SupervisionTargets:
    """Frame-aligned training targets from the clean target's and the mixture's features.

    Both are [T, 68] feature matrices (Frames.features) of the stored
    components, with the same number of frames.
    """
    # columns: 32 log10 band energies, 32 coherences, then the general features
    clean_e = 10.0 ** clean[:, :N_BANDS].astype(np.float64)
    mix_e = 10.0 ** mixture[:, :N_BANDS].astype(np.float64)
    return SupervisionTargets(
        gains=compute_target_gains(clean_e, mix_e),
        strengths=clean[:, N_BANDS : 2 * N_BANDS].astype(np.float64),
        vad=vad_labels_from_energy(clean[:, -2]),
        features=mixture,
    )


# ---------------------------------------------------------------------------
# Dataset presets
# ---------------------------------------------------------------------------


def evaluation_specs(n: int, seed: int, augmented: bool) -> list[MixtureSpec]:
    """Evaluation preset: SIR and SNR uniform over [3, 15] dB."""
    return _preset_specs(n, seed, 271, (3.0, 15.0), (3.0, 15.0), augmented)


def training_specs(n: int, seed: int, augmented: bool) -> list[MixtureSpec]:
    """Training preset: SNR in [-5, 35] dB, SIR in [-5, 10] dB."""
    return _preset_specs(n, seed, 272, (-5.0, 35.0), (-5.0, 10.0), augmented)


def _preset_specs(n: int, seed: int, salt: int, snr_db: tuple[float, float],
                  sir_db: tuple[float, float], augmented: bool) -> list[MixtureSpec]:
    """n specs with SNR and SIR uniform over the given (low, high) dB ranges."""
    rng = np.random.default_rng(np.random.SeedSequence([salt, int(seed)]))
    specs = []
    for _ in range(n):
        aug = AugmentSpec()
        if augmented:
            aug = AugmentSpec(
                lowpass_hz=float(rng.uniform(LOWPASS_MIN_HZ, LOWPASS_MAX_HZ)),
                tilt_db_per_octave=float(rng.uniform(-6.0, 2.0)),
            )
        specs.append(MixtureSpec(
            snr_db=float(rng.uniform(*snr_db)),
            sir_db=float(rng.uniform(*sir_db)),
            seed=int(rng.integers(2 ** 31)),
            augment=aug,
        ))
    return specs


# ---------------------------------------------------------------------------
# Manifest I/O (line-delimited JSON)
# ---------------------------------------------------------------------------


def manifest_row(paths: dict, spec: MixtureSpec) -> str:
    """One manifest line: the sources' paths by role, and the spec that mixed them."""
    aug = spec.augment
    return json.dumps({**paths, "snr_db": spec.snr_db, "sir_db": spec.sir_db, "seed": spec.seed,
                       "lowpass_hz": aug.lowpass_hz, "tilt_db_per_octave": aug.tilt_db_per_octave},
                      sort_keys=True)


def read_manifest(path) -> list[dict]:
    """The JSON object on each non-blank line; ValueError names a row that is not one."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    rows = []
    for idx, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            rows.append(None)
        if not isinstance(rows[-1], dict):
            raise ValueError(f"manifest row {idx} is not a JSON object")
    return rows


# ---------------------------------------------------------------------------
# Toy corpus (desk-scale stand-in for real speech datasets)
# ---------------------------------------------------------------------------


@dataclass
class ToySpeaker:
    speaker_id: int
    train_audio: np.ndarray    # source for training crops / mixtures
    heldout_audio: np.ndarray  # disjoint, for evaluation mixtures
    enroll_audio: np.ndarray   # disjoint, for enrollment embeddings


class ToySpeakers(Sequence):
    """Speakers 0..n-1 of the toy corpus, each synthesized when first read.

    Speaker k is a function of (seed, k) alone, so a caller that draws a
    few speakers pays for those only.
    """

    def __init__(self, n_speakers: int, seed: int):
        self._seed = seed
        self._built: list[ToySpeaker | None] = [None] * n_speakers

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k: int) -> ToySpeaker:
        k = range(len(self._built))[k]  # IndexError past either end, as for a list
        if self._built[k] is None:
            x = synth_speaker(self._seed * 1000 + k,
                              TOY_TRAIN_S + TOY_HELDOUT_S + TOY_ENROLL_S).samples
            a = int(TOY_TRAIN_S * SAMPLE_RATE)
            b = a + int(TOY_HELDOUT_S * SAMPLE_RATE)
            self._built[k] = ToySpeaker(
                speaker_id=k,
                train_audio=x[:a],
                heldout_audio=x[a:b],
                enroll_audio=x[b:],
            )
        return self._built[k]


def embedder_crop_sets(speakers: Sequence[ToySpeaker]):
    """Equal-length feature crops per speaker for GE2E training + EER eval.

    Up to TRAIN_CROPS crops tile the speaker's train region, half a crop
    apart; up to HELDOUT_CROPS come from the disjoint held-out region.
    """
    crop_n = int(CROP_S * SAMPLE_RATE)
    train_set: dict[int, list[np.ndarray]] = {}
    heldout_set: dict[int, list[np.ndarray]] = {}
    for spk in speakers:
        feats = extract_features(spk.train_audio).features
        hfeats = extract_features(spk.heldout_audio).features
        crop_t = (crop_n - WINDOW) // HOP + 1
        train_set[spk.speaker_id] = [
            feats[i * crop_t // 2 : i * crop_t // 2 + crop_t]
            for i in range(TRAIN_CROPS)
            if i * crop_t // 2 + crop_t <= len(feats)
        ]
        heldout_set[spk.speaker_id] = [
            hfeats[i * crop_t // 2 : i * crop_t // 2 + crop_t]
            for i in range(HELDOUT_CROPS)
            if i * crop_t // 2 + crop_t <= len(hfeats)
        ]
    return train_set, heldout_set


def enrollment_embeddings(speakers: Sequence[ToySpeaker], embedder_net) -> dict[int, np.ndarray]:
    """Per-speaker embeddings from the enrollment region (disjoint audio)."""
    from targetvoice.embedder import enroll_embedding

    return {
        spk.speaker_id: enroll_embedding(
            embedder_net,
            extract_features(spk.enroll_audio).features,
        )
        for spk in speakers
    }


def _random_slice(rng: np.random.Generator, audio: np.ndarray, n: int) -> np.ndarray:
    """A random n-sample slice, retrying away from mostly-silent stretches."""
    if len(audio) < n:
        raise MixtureError("speaker region shorter than requested duration")
    best, best_rms = None, -1.0
    for _ in range(SLICE_TRIES):
        start = int(rng.integers(0, len(audio) - n + 1))
        cut = audio[start : start + n]
        rms = float(np.sqrt(np.mean(cut.astype(np.float64) ** 2)))
        if rms >= SLICE_MIN_RMS:
            return cut
        if rms > best_rms:
            best, best_rms = cut, rms
    return best


def draw_sources(rng: np.random.Generator, speakers: Sequence[ToySpeaker],
                 region: str, duration_s: float):
    """Draw the sources of one mixture from the talkers' `region` audio.

    `region` names a ToySpeaker field ("train_audio" or "heldout_audio").
    Returns (a, b, target, interferer, noise): an ordered pair of distinct
    talker indices, a slice of each one's region and seeded noise, all
    AudioBuffers of duration_s, drawn from `rng` in that order.
    """
    a, b = rng.choice(len(speakers), size=MIXTURE_TALKERS, replace=False)
    n = int(duration_s * SAMPLE_RATE)
    target = _random_slice(rng, getattr(speakers[a], region), n)
    interf = _random_slice(rng, getattr(speakers[b], region), n)
    noise = synth_noise(int(rng.integers(2 ** 31)), duration_s)
    return a, b, AudioBuffer(target), AudioBuffer(interf), noise


def toy_enhancer_dataset(speakers: Sequence[ToySpeaker], embedder_net,
                         n_mixtures: int, seed: int):
    """Training examples for the toy enhancer.

    Each example mixes an ordered speaker pair (both orders occur, so the
    net cannot ignore its conditioning) with background noise at the
    training SNR/SIR recipe, and carries the mixture features, the target
    speaker's enrollment embedding, and the supervision targets.

    Returns (dataset, embeddings) where embeddings maps speaker id to its
    enrollment vector.
    """
    embeddings = enrollment_embeddings(speakers, embedder_net)
    rng = np.random.default_rng(np.random.SeedSequence([551, int(seed)]))
    specs = training_specs(n_mixtures, seed, augmented=False)

    dataset = []
    for spec in specs:
        a, _, target, interf, noise = draw_sources(rng, speakers, "train_audio",
                                                   TOY_MIXTURE_S)
        try:
            example = make_mixture(spec, target, interf, noise)
        except MixtureError:
            continue  # silent slice (rare); skip
        targets = example.targets
        dataset.append({
            "features": targets.features.astype(np.float64),
            "embedding": embeddings[speakers[a].speaker_id],
            "gains": targets.gains,
            "strengths": targets.strengths,
            "vad": targets.vad,
        })
    if not dataset:
        raise MixtureError("no usable training mixtures were generated")
    return dataset, embeddings
