"""Input generator for the streaming benchmark.

Writes every input one workload run needs into a directory, as a pure
function of the workload name and seed:

- ``stream_<k>.npy``: float32 mixtures of a toy talker, an interfering toy
  talker and background noise (``targetvoice.synth``) at a fixed SIR and
  SNR, one per stream.
- ``emb_<k>.ppnw``: a seeded unit speaker embedding per model stream.
- ``ppn512.ppnw``, ``toy_enhancer.ppnw``, ``toy_embedder.ppnw``: seeded
  weights, so that set-up loads them through ``weights_io``.
- ``enroll_<k>.npy``: clean 8 s talkers for enrollment.
- ``toy_train.npz``: a fixed batch of toy training examples with their
  supervision targets.
- ``manifest.json``: what the files hold, including where a stream carries
  an injected non-finite sample.

The generator is untimed; the workload process reads only these files.

    python3 bench/inputs.py --workload stream_ppn512 --seed 3 --out /tmp/in
    python3 bench/inputs.py --workload multistream_ppn512 --seed 3 --out /tmp/in --describe

``--describe`` also prints each clip's make-up and voiced-frame share.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from targetvoice import embedder, enhancer, frontend, synth, weights_io  # noqa: E402
from targetvoice.audio import SAMPLE_RATE  # noqa: E402

WORKLOADS = ("stream_identity", "stream_ppn512", "multistream_ppn512", "offline_toy")

STREAM_SECONDS = 5.0     # one round: a 5 s call per stream
SIR_DB = 0.0             # target against interfering talker
SNR_DB = 10.0            # target against background noise
ENROLL_SECONDS = 8.0
N_ENROLL = 3
TRAIN_EXAMPLES = 4       # one fixed batch: batch size equals dataset size
TRAIN_SECONDS = 3.0
MULTISTREAM_N = 4
FAULT_STREAM = MULTISTREAM_N - 1
FAULT_SECONDS = 4.5      # the single NaN sample sits 4.5 s into each call
FAULT_OFFSET = 17        # sample offset of the NaN inside its hop

# SeedSequence tags keep every draw independent of the others
_TAG_STREAM, _TAG_FIXED, _TAG_WEIGHTS, _TAG_ENROLL, _TAG_TRAIN = 7101, 7102, 7103, 7104, 7105


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def mixture(rng: np.random.Generator, seconds: float) -> tuple[np.ndarray, dict]:
    """Talker + interfering talker + noise at SIR_DB / SNR_DB, float32."""
    seeds = {"target": _seed_from(rng), "interferer": _seed_from(rng),
             "noise": _seed_from(rng)}
    target = synth.synth_speaker(seeds["target"], seconds).samples.astype(np.float64)
    interf = synth.synth_speaker(seeds["interferer"], seconds).samples.astype(np.float64)
    noise = synth.synth_noise(seeds["noise"], seconds).samples.astype(np.float64)
    _, i_scale = synth.mix_at_ratio(target, interf, SIR_DB)
    _, n_scale = synth.mix_at_ratio(target, noise, SNR_DB)
    mix = target + i_scale * interf + n_scale * noise
    return mix.astype(np.float32), seeds


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def toy_training_batch(seed: int, fb) -> dict[str, np.ndarray]:
    """TRAIN_EXAMPLES mixtures with features, targets and toy embeddings."""
    rng = _rng(_TAG_TRAIN, seed)
    dim = enhancer.EnhancerConfig.preset("toy").embedding_dim
    cols: dict[str, list] = {k: [] for k in ("features", "embedding", "gains",
                                             "strengths", "vad")}
    for _ in range(TRAIN_EXAMPLES):
        spec = synth.MixtureSpec(snr_db=SNR_DB, sir_db=SIR_DB, seed=_seed_from(rng))
        example = synth.make_mixture(
            spec,
            synth.synth_speaker(_seed_from(rng), TRAIN_SECONDS),
            synth.synth_speaker(_seed_from(rng), TRAIN_SECONDS),
            synth.synth_noise(_seed_from(rng), TRAIN_SECONDS),
            fb=fb,
        )
        feats = frontend.feature_matrix(frontend.extract_features(example.mixture.samples, fb))
        t = min(len(feats), len(example.targets.vad))
        cols["features"].append(feats[:t].astype(np.float64))
        cols["embedding"].append(unit_vector(rng, dim))
        cols["gains"].append(example.targets.gains[:t])
        cols["strengths"].append(example.targets.strengths[:t])
        cols["vad"].append(example.targets.vad[:t])
    return {k: np.stack(v) for k, v in cols.items()}


def stream_plan(workload: str) -> list[dict]:
    """The streams of a workload: audio, embedding and any injected fault."""
    if workload == "stream_identity":
        return [{"model": None}]
    if workload == "stream_ppn512":
        return [{"model": "ppn512"}]
    if workload == "multistream_ppn512":
        streams = [{"model": "ppn512"} for _ in range(MULTISTREAM_N)]
        # the poisoned stream's audio does not depend on the seed, so the
        # hops it fails are the same in every run
        fault_sample = int(FAULT_SECONDS * SAMPLE_RATE) + FAULT_OFFSET
        streams[FAULT_STREAM].update(fixed=True, fault_sample=fault_sample)
        return streams
    if workload == "offline_toy":
        # the reference stream runs the toy enhancer on the enrolled speaker
        return [{"model": "toy", "embedding": "enrolled"}]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into `out` and return its manifest."""
    os.makedirs(out, exist_ok=True)
    fb = frontend.design_erb_filterbank()
    manifest: dict = {"workload": workload, "seed": seed, "sir_db": SIR_DB,
                      "snr_db": SNR_DB, "stream_seconds": STREAM_SECONDS,
                      "streams": []}
    wrng = _rng(_TAG_WEIGHTS, seed)

    plan = stream_plan(workload)
    models = {s["model"] for s in plan} - {None}
    if "ppn512" in models:
        net = enhancer.EnhancerNet(enhancer.EnhancerConfig.preset("ppn512"),
                                   seed=_seed_from(wrng))
        weights_io.save_weights(os.path.join(out, "ppn512.ppnw"), "enhancer",
                                enhancer.enhancer_entries(net))
        del net
    toy_net = enhancer.EnhancerNet(enhancer.EnhancerConfig.preset("toy"),
                                   seed=_seed_from(wrng))
    weights_io.save_weights(os.path.join(out, "toy_enhancer.ppnw"), "enhancer",
                            enhancer.enhancer_entries(toy_net))
    se_net = embedder.EmbedderNet(embedder.EmbedderConfig.toy(), seed=_seed_from(wrng))
    weights_io.save_weights(os.path.join(out, "toy_embedder.ppnw"), "embedder",
                            embedder.embedder_entries(se_net))
    manifest["train_model_seed"] = _seed_from(wrng)

    srng = _rng(_TAG_STREAM, seed)
    for k, stream in enumerate(plan):
        rng = _rng(_TAG_FIXED, k) if stream.get("fixed") else srng
        audio, seeds = mixture(rng, STREAM_SECONDS)
        entry = {"audio": f"stream_{k}.npy", "model": stream["model"],
                 "sources": seeds, "fixed": bool(stream.get("fixed")),
                 "fault_sample": stream.get("fault_sample")}
        if entry["fault_sample"] is not None:
            audio[entry["fault_sample"]] = np.nan
        np.save(os.path.join(out, entry["audio"]), audio)
        if stream["model"] == "ppn512":
            dim = enhancer.EnhancerConfig.preset("ppn512").embedding_dim
            entry["embedding"] = f"emb_{k}.ppnw"
            weights_io.save_embedding(os.path.join(out, entry["embedding"]),
                                      unit_vector(rng, dim))
        else:
            entry["embedding"] = stream.get("embedding")
        manifest["streams"].append(entry)

    erng = _rng(_TAG_ENROLL, seed)
    manifest["enroll"] = []
    for k in range(N_ENROLL):
        name = f"enroll_{k}.npy"
        talker = _seed_from(erng)
        np.save(os.path.join(out, name), synth.synth_speaker(talker, ENROLL_SECONDS).samples)
        manifest["enroll"].append({"audio": name, "talker": talker})

    np.savez(os.path.join(out, "toy_train.npz"), **toy_training_batch(seed, fb))
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def voiced_share(audio: np.ndarray, fb) -> float:
    frames = frontend.extract_features(np.nan_to_num(audio.astype(np.float64)), fb)
    return float(np.mean([f.pitch.voiced for f in frames]))


def describe(workload: str, seed: int, out: str) -> None:
    """Print the make-up and voiced share of every generated clip."""
    manifest = generate(workload, seed, out)
    fb = frontend.design_erb_filterbank()
    for k, s in enumerate(manifest["streams"]):
        audio = np.load(os.path.join(out, s["audio"]))
        print(f"{workload} seed {seed} stream {k}: model {s['model']}, "
              f"fixed {s['fixed']}, fault sample {s['fault_sample']}, "
              f"voiced share {voiced_share(audio, fb):.3f}")
    for e in manifest["enroll"]:
        audio = np.load(os.path.join(out, e["audio"]))
        print(f"{workload} seed {seed} {e['audio']}: clean talker {e['talker']}, "
              f"voiced share {voiced_share(audio, fb):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--describe", action="store_true",
                        help="also print each clip's voiced-frame share")
    args = parser.parse_args(argv)
    if args.describe:
        describe(args.workload, args.seed, args.out)
    else:
        generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
