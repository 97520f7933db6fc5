"""Command-line surface wiring the modules into reproducible workflows.

Every command is a pure function of its arguments (`--seed` among them for
the commands that draw random numbers), writes a resolved-config sidecar
next to its main output, and never mutates its inputs. Exit codes: 0
success, 2 usage error (argparse exits with it on its own), 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from targetvoice import __version__
from targetvoice.audio import AudioBuffer, AudioFormatError, SAMPLE_RATE, read_wav, write_wav
from targetvoice.frontend import HOP
from targetvoice.weights_io import (
    WeightsFormatError,
    load_embedding,
    load_weights,
    save_embedding,
    save_weights,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4

MIN_ENROLL_S = 3.0


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


def _write_sidecar(out_path: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    sidecar = out_path + ".config"
    with open(sidecar, "w") as fh:
        for key, val in resolved.items():
            fh.write(f"{key} = {val}\n")


def _check_speakers(count: int, minimum: int, need: str) -> None:
    if count < minimum:  # checked before any speaker is built
        raise DataError(f"--speakers {count}: {need}")


def _load_embedder(path):
    from targetvoice.embedder import embedder_from_entries

    _, entries = load_weights(path, expect_kind="embedder")
    return embedder_from_entries(entries)


def _load_enhancer(path):
    from targetvoice.enhancer import enhancer_from_entries

    _, entries = load_weights(path, expect_kind="enhancer")
    return enhancer_from_entries(entries)


# ---------------------------------------------------------------------------
# enroll
# ---------------------------------------------------------------------------


def cmd_enroll(args) -> int:
    from targetvoice.embedder import enroll_embedding
    from targetvoice.frontend import extract_features

    audio = read_wav(args.audio)
    if audio.duration < MIN_ENROLL_S:
        raise DataError(
            f"enrollment too short: {audio.duration:.2f} s, need >= {MIN_ENROLL_S} s"
        )
    net = _load_embedder(args.weights)
    emb = enroll_embedding(net, extract_features(audio.samples).features)
    if not np.all(np.isfinite(emb)):
        raise NumericError("embedding contains non-finite values")
    save_embedding(args.out, emb)
    _write_sidecar(args.out, args)
    print(f"embedding dim = {len(emb)}")
    print(f"embedding norm = {float(np.linalg.norm(emb)):.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------


def cmd_enhance(args) -> int:
    from targetvoice.pipeline import enhance_audio

    audio = read_wav(args.mixture)
    if args.identity:
        net, emb = None, None
    else:
        if not args.weights or not args.embedding:
            raise DataError("enhance needs --weights and --embedding "
                            "(or --identity for the debug pass-through)")
        net = _load_enhancer(args.weights)
        emb = load_embedding(args.embedding)
    start = time.perf_counter()
    out = enhance_audio(audio.samples, net, emb)
    elapsed = time.perf_counter() - start
    if not np.all(np.isfinite(out)):
        raise NumericError("enhanced audio contains non-finite samples")
    write_wav(args.out, AudioBuffer(out.astype(np.float32)))
    _write_sidecar(args.out, args)
    rtf = audio.duration / max(elapsed, 1e-9)
    print(f"processed {audio.duration:.2f} s in {elapsed:.2f} s "
          f"(realtime factor {rtf:.2f})")
    print(f"wrote {args.out} ({len(out)} samples)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def cmd_mix(args) -> int:
    from targetvoice.synth import (
        MIXTURE_TALKERS,
        TOY_HELDOUT_S,
        TOY_TRAIN_S,
        ToySpeakers,
        draw_sources,
        evaluation_specs,
        manifest_row,
        mix_components,
        training_specs,
    )
    from targetvoice.frontend import WINDOW

    if args.preset == "eval":
        make_specs, region, region_name, region_s = (evaluation_specs, "heldout_audio",
                                                     "held-out", TOY_HELDOUT_S)
    else:
        make_specs, region, region_name, region_s = (training_specs, "train_audio",
                                                     "train", TOY_TRAIN_S)
    if not (np.isfinite(args.duration) and args.duration <= region_s):
        raise DataError(f"--duration {args.duration} s is not a length within the "
                        f"{region_s:g} s {region_name} region {args.preset} mixtures "
                        f"are cut from")
    if args.duration < WINDOW / SAMPLE_RATE:
        raise DataError(f"--duration {args.duration} s is shorter than one "
                        f"{WINDOW / SAMPLE_RATE} s analysis window")
    _check_speakers(args.speakers, MIXTURE_TALKERS, "a mixture needs two distinct talkers")
    os.makedirs(args.out_dir, exist_ok=True)
    speakers = ToySpeakers(args.speakers, args.seed)
    specs = make_specs(args.n, args.seed, augmented=args.augment)
    rng = np.random.default_rng(np.random.SeedSequence([973, args.seed]))

    manifest_path = os.path.join(args.out_dir, "manifest.jsonl")
    rows = []
    for k, spec in enumerate(specs):
        a, _, target, interf, noise = draw_sources(rng, speakers, region, args.duration)
        mixture, target, interf, noise = mix_components(spec, target, interf, noise)
        enroll = AudioBuffer(speakers[a].enroll_audio[: 6 * SAMPLE_RATE])
        paths = {}  # manifest key -> written file
        for key, stem, audio in (("mixture", "mix", mixture), ("target", "target", target),
                                 ("interferer", "interferer", interf), ("noise", "noise", noise),
                                 ("enrollment", "enroll", enroll)):
            paths[key] = os.path.join(args.out_dir, f"{stem}_{k:04d}.wav")
            write_wav(paths[key], audio)
        rows.append(manifest_row(paths, spec))
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_sidecar(manifest_path, args)
    print(f"wrote {len(rows)} mixtures to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train_embedder(args) -> int:
    from targetvoice import embedder
    from targetvoice.synth import ToySpeakers, embedder_crop_sets

    _check_speakers(args.speakers, embedder.MIN_SPEAKERS,
                    f"embedder training needs >= {embedder.MIN_SPEAKERS} speakers")
    speakers = ToySpeakers(args.speakers, args.seed)
    train_set, heldout_set = embedder_crop_sets(speakers)
    config = embedder.EmbedderTrainConfig(steps=args.steps, seed=args.seed)
    net, history, _ = embedder.train_embedder(train_set, heldout_set, config, log=print)
    final_eer = history[-1][1]
    if not np.isfinite(final_eer):
        raise NumericError("EER is not finite")
    save_weights(args.out, "embedder", embedder.embedder_entries(net))
    _write_sidecar(args.out, args)
    print(f"final EER = {final_eer:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train_enhancer(args) -> int:
    from targetvoice.enhancer import (
        EnhancerConfig,
        EnhancerTrainConfig,
        enhancer_entries,
        train_enhancer_toy,
    )
    from targetvoice.synth import MIXTURE_TALKERS, ToySpeakers, toy_enhancer_dataset

    _check_speakers(args.speakers, MIXTURE_TALKERS, "a mixture needs two distinct talkers")
    embedder_net = _load_embedder(args.embedder)
    model = EnhancerConfig.preset(args.preset)
    if model.embedding_dim != embedder_net.config.embedding_dim:
        raise DataError(
            f"preset {args.preset} expects embedding dim {model.embedding_dim}, "
            f"embedder produces {embedder_net.config.embedding_dim}"
        )
    speakers = ToySpeakers(args.speakers, args.seed)
    dataset, _ = toy_enhancer_dataset(speakers, embedder_net,
                                      n_mixtures=args.mixtures, seed=args.seed)
    config = EnhancerTrainConfig(steps=args.steps, seed=args.seed, model=model,
                                 model_seed=args.seed)
    net, losses = train_enhancer_toy(dataset, config, log=print)
    if not np.isfinite(losses[-1]):
        raise NumericError("training loss diverged")
    save_weights(args.out, "enhancer", enhancer_entries(net))
    _write_sidecar(args.out, args)
    print(f"final loss = {float(np.mean(losses[-50:])):.4f} "
          f"(initial {float(np.mean(losses[:10])):.4f})")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    from targetvoice.embedder import MIN_EMBED_FRAMES, enroll_embedding
    from targetvoice.enhancer import lookahead_slices, vad_labels_from_energy
    from targetvoice.frontend import HOP, WINDOW, extract_features
    from targetvoice.metrics import cosine_probe, si_snr, vad_accuracy, write_report
    from targetvoice.pipeline import StreamingEnhancer, enhance_audio, replay_controls, run_whole
    from targetvoice.synth import compute_supervision, read_manifest

    if args.mode == "model" and not args.enhancer:
        raise DataError("--mode model needs --enhancer weights")
    embedder_net = _load_embedder(args.embedder)
    enhancer = None
    if args.mode == "model":
        enhancer = _load_enhancer(args.enhancer)
        if enhancer.config.embedding_dim != embedder_net.config.embedding_dim:
            raise DataError(
                f"enhancer expects embedding dim {enhancer.config.embedding_dim}, "
                f"embedder produces {embedder_net.config.embedding_dim}"
            )
    # the fewest samples that give the embedder its MIN_EMBED_FRAMES frames
    min_len = WINDOW + (MIN_EMBED_FRAMES - 1) * HOP
    keys = ("mixture", "target", "interferer") + (("enrollment",) if args.mode == "model" else ())
    rows = []
    for idx, row in enumerate(read_manifest(args.manifest)):
        if missing := [key for key in keys if not isinstance(row.get(key), str)]:
            raise DataError(f"manifest row {idx}: no path string for {', '.join(missing)}")
        mixture, target, interf = (read_wav(row[key]).samples.astype(np.float64)
                                   for key in keys[:3])
        if not min_len <= len(mixture) == len(target) == len(interf):
            raise DataError(f"manifest row {idx}: mixture, target and interferer take "
                            f"{len(mixture)}, {len(target)}, {len(interf)} samples; they must "
                            f"be equal and at least the {min_len} the embedder probes")
        if args.mode == "model":  # enroll's rule, which also gives the embedder its frames
            enroll = read_wav(row["enrollment"])
            if enroll.duration < MIN_ENROLL_S:
                raise DataError(f"manifest row {idx}: the enrollment takes "
                                f"{enroll.duration:.2f} s; enroll needs >= {MIN_ENROLL_S} s")
        target_feats = extract_features(target).features

        vad_acc = None
        if args.mode == "oracle":
            targets = compute_supervision(target_feats, extract_features(mixture).features)
            out = replay_controls(mixture, targets.gains, targets.strengths)
        elif args.mode == "model":
            emb = enroll_embedding(embedder_net, extract_features(enroll.samples).features)
            out, vad = run_whole(StreamingEnhancer(enhancer, emb), mixture)
            labels = vad_labels_from_energy(target_feats[:, -2])
            out_t, lab_t = lookahead_slices(len(vad), len(labels))
            acc, _, _ = vad_accuracy(vad[out_t], labels[lab_t])
            vad_acc = float(acc)
        else:  # identity
            out = enhance_audio(mixture)

        probe = cosine_probe(extract_features(out).features, target_feats,
                             extract_features(interf).features, embedder_net)
        entry = {
            "index": idx,
            "si_snr_in": si_snr(mixture, target),
            "si_snr_out": si_snr(out, target),
            "cos_target": probe.cos_target,
            "cos_interf": probe.cos_interference,
        }
        if vad_acc is not None:
            entry["vad_acc"] = vad_acc
        rows.append(entry)
    summary = write_report(args.out, rows)
    _write_sidecar(args.out, args)
    for key, val in sorted(summary.items()):
        if key != "summary":
            print(f"{key} = {val:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    from targetvoice.enhancer import EnhancerConfig, EnhancerNet
    from targetvoice.metrics import benchmark_stream

    if args.preset == "identity":
        net, emb = None, None
    else:
        config = EnhancerConfig.preset(args.preset)
        net = EnhancerNet(config, seed=args.seed).float32_weights()
        rng = np.random.default_rng(args.seed)
        emb = rng.standard_normal(config.embedding_dim)
        emb /= np.linalg.norm(emb)
    report = benchmark_stream(net, emb, duration_s=args.duration)
    print(report.summary(), end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.summary())
        _write_sidecar(args.out, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low, cast):
    """An argparse type: the text as `cast`, a finite number no less than `low`."""
    def at_least(text: str):
        value = cast(text)
        if not low <= value < float("inf"):  # False for NaN too
            raise argparse.ArgumentTypeError(f"{text} is not a finite number >= {low:g}")
        return value
    return at_least


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetvoice",
        description="Real-time target-voice enhancement toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enroll", help="compute a speaker embedding from audio")
    p.add_argument("audio")
    p.add_argument("--weights", required=True, help="embedder weight file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("enhance", help="extract the enrolled speaker from a mixture")
    p.add_argument("mixture")
    p.add_argument("--embedding")
    p.add_argument("--weights", help="enhancer weight file")
    p.add_argument("--identity", action="store_true",
                   help="debug: bypass the model (gains 1, strengths 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("mix", help="synthesize an evaluation/training mixture set")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=_at_least(1, int), default=50)
    p.add_argument("--preset", choices=["eval", "train"], default="eval")
    p.add_argument("--duration", type=float, default=4.0)
    p.add_argument("--speakers", type=int, default=8)
    p.add_argument("--augment", action="store_true")
    common(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train-embedder", help="train the toy speaker embedder")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_at_least(1, int), default=200)
    p.add_argument("--speakers", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_train_embedder)

    p = sub.add_parser("train-enhancer", help="train the toy enhancer")
    p.add_argument("--embedder", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_at_least(1, int), default=1000)
    p.add_argument("--mixtures", type=_at_least(1, int), default=96)
    p.add_argument("--speakers", type=int, default=8)
    p.add_argument("--preset", choices=["toy", "ppn512", "ppn1024"], default="toy")
    common(p)
    p.set_defaults(func=cmd_train_enhancer)

    p = sub.add_parser("eval", help="score mixtures from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embedder", required=True)
    p.add_argument("--enhancer")
    p.add_argument("--mode", choices=["identity", "oracle", "model"],
                   default="oracle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="real-time factor benchmark")
    p.add_argument("--preset", choices=["identity", "toy", "ppn512", "ppn1024"],
                   default="ppn512")
    # at least one hop, so the timed stretch holds a frame
    p.add_argument("--duration", type=_at_least(HOP / SAMPLE_RATE, float), default=10.0)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AudioFormatError, WeightsFormatError, DataError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
