"""SHA-256 digests of the package's deterministic outputs, one per named group.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/digest.py [GROUP ...]

It prints one `<group> <sha256>` line per group, every group when none is
named. Two trees that print the same line for a group give the same bytes
for everything the group covers, so a refactor that must keep outputs
byte-identical is checked by running this on both trees. Every array is
hashed with its dtype and shape.

Groups:
    features, periods, spectra  extract_features on a two-talker clip with
                                noise, and FeatureStream pushes of it in
                                the engine groups' chunkings; clean, with
                                NaN bursts and with a NaN in the first hop
    identity, replay, toy,      engine output without a model, with
    ppn512                      replayed controls, with a toy net (in memory
                                and loaded) and with a loaded ppn512 net:
                                whole-file and in chunks of 1 (the first
                                0.5 s), 480, 733 and random sizes; clean,
                                with NaN bursts and with a NaN in the first
                                hop; plus frames_processed and last_vad
    forward                     forward() of the loaded toy and ppn512 nets
    weights                     pack_weights bytes of seeded, untrained toy
                                EnhancerNet and EmbedderNet: their draws,
                                entry order and meta encoding
    mixture, augment, speaker   make_mixture, augment and synth_speaker /
                                synth_noise outputs
    dataset                     toy_enhancer_dataset's examples and
                                enrollment embeddings
    cli_mix, cli_train          the files of `mix --augment`; of 3-step
                                `train-embedder` and `train-enhancer` and of
                                `enroll` with that embedder

features, periods, identity, replay and weights give the same bytes under
every OpenBLAS kernel (tests/test_digest.py pins them); the other model and
training groups follow the kernel.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from targetvoice import synth as sy
from targetvoice.audio import write_wav
from targetvoice.cli import main
from targetvoice.embedder import EmbedderConfig, EmbedderNet, embedder_entries
from targetvoice.enhancer import (
    EnhancerConfig,
    EnhancerNet,
    enhancer_entries,
    enhancer_from_entries,
)
from targetvoice.frontend import HOP, N_BANDS, FeatureStream, Frames, extract_features
from targetvoice.pipeline import ControlReplay, StreamingEnhancer
from targetvoice.weights_io import pack_weights, unpack_weights

SR = 48000
CLIP_S = 2.0
# where the NaN bursts of five samples start, in samples
NAN_BURSTS = (int(0.7 * SR), int(1.3 * SR))
NAN_FIRST_HOP = 100


def _feed(h, *items) -> None:
    for item in items:
        if isinstance(item, (bytes, str)):
            h.update(item.encode() if isinstance(item, str) else item)
        else:
            arr = np.asarray(item)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())


@functools.cache
def clips() -> dict[str, np.ndarray]:
    """The clean clip and its two NaN variants, read-only float64."""
    clean = (sy.synth_speaker(21, CLIP_S).samples.astype(np.float64)
             + 0.5 * sy.synth_speaker(22, CLIP_S).samples.astype(np.float64)
             + 0.05 * sy.synth_noise(4, CLIP_S).samples.astype(np.float64))
    bursts = clean.copy()
    for at in NAN_BURSTS:
        bursts[at : at + 5] = np.nan
    first = clean.copy()
    first[NAN_FIRST_HOP] = np.nan
    out = {"clean": clean, "nan_bursts": bursts, "nan_first_hop": first}
    for x in out.values():
        x.flags.writeable = False  # shared by every group through the cache
    return out


def chunkings(n: int) -> dict[str, np.ndarray]:
    """Push boundaries: whole, 1 (first 0.5 s, then the rest), 480, 733, random."""
    cuts = np.cumsum(np.random.default_rng(5).integers(1, 2000, size=n))
    return {"whole": np.array([0, n]),
            "1": np.append(np.arange(0, SR // 2 + 1), n),
            "480": np.append(np.arange(0, n, 480), n),
            "733": np.append(np.arange(0, n, 733), n),
            "random": np.concatenate([[0], cuts[cuts < n], [n]])}


def _engine_runs(h, make_engine) -> None:
    for clip_name, x in clips().items():
        for chunk_name, bounds in chunkings(len(x)).items():
            engine = make_engine()
            outs = [engine.process(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
            outs.append(engine.flush())
            _feed(h, clip_name, chunk_name, np.concatenate(outs),
                  np.int64(engine.frames_processed), np.float64(engine.last_vad))


def _unit(dim: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(dim)
    return v / np.linalg.norm(v)


def _loaded(net):
    return enhancer_from_entries(unpack_weights(pack_weights("enhancer", enhancer_entries(net)))[1])


def toy_net():
    return EnhancerNet(EnhancerConfig.preset("toy"), seed=1)


def ppn512_net():
    return EnhancerNet(EnhancerConfig.preset("ppn512"), seed=0)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


@functools.cache
def _records() -> list:
    """(clip, chunking, record) of extract_features, and of FeatureStream
    pushes in every chunking but whole, on each clip."""
    out = []
    for clip_name, x in clips().items():
        out.append((clip_name, "whole", extract_features(x)))
        for chunk_name, bounds in list(chunkings(len(x)).items())[1:]:
            stream = FeatureStream()
            pushes = [stream.push(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
            out.append((clip_name, chunk_name, Frames(*(
                np.concatenate([getattr(r, f) for r in pushes])
                for f in ("features", "periods", "spectra")))))
    return out


def _frontend(h, field: str) -> None:
    for clip_name, chunk_name, record in _records():
        _feed(h, clip_name, chunk_name, getattr(record, field))


def group_identity(h) -> None:
    _engine_runs(h, StreamingEnhancer)


def group_replay(h) -> None:
    n_frames = int(CLIP_S * SR) // HOP
    gains, strengths = np.random.default_rng(3).uniform(0.0, 1.0, (2, n_frames, N_BANDS))

    def make():
        engine = StreamingEnhancer()
        engine.session = ControlReplay(gains, strengths)
        return engine
    _engine_runs(h, make)


def group_toy(h) -> None:
    net = toy_net()
    emb = _unit(net.config.embedding_dim, 6)
    for model in (net.float32_weights(), _loaded(net)):
        _engine_runs(h, lambda: StreamingEnhancer(model, emb))


def group_ppn512(h) -> None:
    loaded = _loaded(ppn512_net())
    emb = _unit(loaded.config.embedding_dim, 7)
    _engine_runs(h, lambda: StreamingEnhancer(loaded, emb))


def group_forward(h) -> None:
    x = clips()["clean"]
    feats = extract_features(x).features
    for net in (toy_net(), ppn512_net()):
        loaded = _loaded(net)
        dim = loaded.config.embedding_dim
        embs = np.stack([_unit(dim, 8), _unit(dim, 9)])
        _feed(h, *(out[0] for out in loaded.forward(feats[None], embs[:1])))
        _feed(h, *loaded.forward(np.stack([feats, feats[::-1]]), embs))


def group_weights(h) -> None:
    embedder = EmbedderNet(EmbedderConfig.toy(), seed=0)
    _feed(h, bytes(pack_weights("enhancer", enhancer_entries(toy_net()))),
          bytes(pack_weights("embedder", embedder_entries(embedder))))


def group_mixture(h) -> None:
    target, interferer = sy.synth_speaker(31, 1.5), sy.synth_speaker(32, 1.5)
    noise = sy.synth_noise(33, 1.5)
    for spec in (sy.MixtureSpec(5.0, 0.0, 7),
                 sy.MixtureSpec(10.0, None, 8),
                 sy.MixtureSpec(0.0, 5.0, 9, sy.AugmentSpec(8000.0, -3.0))):
        ex = sy.make_mixture(spec, target, None if spec.sir_db is None else interferer, noise)
        parts = [ex.mixture, ex.clean_target, ex.noise, ex.interferer]
        _feed(h, *(p.samples for p in parts if p is not None), ex.targets.gains,
              ex.targets.strengths, ex.targets.vad, ex.targets.features)


def group_augment(h) -> None:
    x = clips()["clean"]
    for aug in (sy.AugmentSpec(6000.0, None), sy.AugmentSpec(None, -2.0),
                sy.AugmentSpec(12000.0, 1.5), sy.AugmentSpec()):
        _feed(h, sy.augment(x, aug))


def group_speaker(h) -> None:
    for seed in (0, 3, 21, 1000):
        _feed(h, sy.synth_speaker(seed, 1.0).samples)
    _feed(h, sy.synth_noise(4, 1.0).samples, sy.speech_shaped_noise(4, 1.0).samples)


def group_dataset(h) -> None:
    speakers = sy.ToySpeakers(3, 0)
    net = EmbedderNet(EmbedderConfig.toy(), seed=0)
    dataset, embeddings = sy.toy_enhancer_dataset(speakers, net, n_mixtures=4, seed=0)
    for example in dataset:
        _feed(h, *(example[k] for k in sorted(example)))
    for speaker_id in sorted(embeddings):
        _feed(h, str(speaker_id), embeddings[speaker_id])


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"targetvoice {' '.join(argv)} exited {rc}")


def _files(h, root: str) -> None:
    """Every file under `root` in name order, with `root` masked in its bytes."""
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            _feed(h, name, fh.read().replace(root.encode(), b"<dir>"))


def group_cli_mix(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _run_cli(["mix", "--out-dir", tmp, "--n", "2", "--augment", "--seed", "5",
                  "--duration", "1.5"])
        _files(h, tmp)


def group_cli_train(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        se, enh = os.path.join(tmp, "se.ppnw"), os.path.join(tmp, "enh.ppnw")
        wav = os.path.join(tmp, "enroll.wav")
        write_wav(wav, sy.synth_speaker(3, 6.5))
        _run_cli(["train-embedder", "--out", se, "--steps", "3", "--speakers", "4"])
        _run_cli(["train-enhancer", "--embedder", se, "--out", enh, "--steps", "3",
                  "--speakers", "4", "--mixtures", "8"])
        _run_cli(["enroll", wav, "--weights", se, "--out", os.path.join(tmp, "spk.ppnw")])
        _files(h, tmp)


GROUPS = {
    "features": lambda h: _frontend(h, "features"),
    "periods": lambda h: _frontend(h, "periods"),
    "spectra": lambda h: _frontend(h, "spectra"),
    "identity": group_identity,
    "replay": group_replay,
    "toy": group_toy,
    "ppn512": group_ppn512,
    "forward": group_forward,
    "weights": group_weights,
    "mixture": group_mixture,
    "augment": group_augment,
    "speaker": group_speaker,
    "dataset": group_dataset,
    "cli_mix": group_cli_mix,
    "cli_train": group_cli_train,
}


def digests(names) -> dict[str, str]:
    """Group name -> SHA-256 hex digest, for each of `names`."""
    out = {}
    for name in names:
        h = hashlib.sha256()
        GROUPS[name](h)
        out[name] = h.hexdigest()
    return out


if __name__ == "__main__":
    names = sys.argv[1:] or list(GROUPS)
    unknown = [n for n in names if n not in GROUPS]
    if unknown:
        sys.exit(f"unknown group(s) {unknown}; choose from {list(GROUPS)}")
    for name in names:
        print(f"{name:<10} {digests([name])[name]}", flush=True)
