"""Command-line workflows: exit codes, sidecars, determinism."""

import json
import os
import sys
import wave

import numpy as np
import pytest

from targetvoice.audio import AudioBuffer, read_wav, write_wav
from targetvoice.cli import EXIT_DATA, EXIT_OK, main
from targetvoice.embedder import EmbedderConfig, EmbedderNet, embedder_entries
from targetvoice.enhancer import EnhancerConfig, EnhancerNet, enhancer_entries
from targetvoice.synth import synth_speaker
from targetvoice.weights_io import load_embedding, save_weights


def patch_everywhere(monkeypatch, real, replacement):
    """Replace `real` in every loaded targetvoice module that binds it."""
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "targetvoice"
                and getattr(module, real.__name__, None) is real):
            monkeypatch.setattr(module, real.__name__, replacement)


@pytest.fixture(scope="module")
def embedder_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "embedder.ppnw"
    net = EmbedderNet(EmbedderConfig.toy(), seed=0)
    save_weights(path, "embedder", embedder_entries(net))
    return str(path)


@pytest.fixture(scope="module")
def enhancer_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "enhancer.ppnw"
    net = EnhancerNet(EnhancerConfig.preset("toy"), seed=0)
    save_weights(path, "enhancer", enhancer_entries(net))
    return str(path)


@pytest.fixture(scope="module")
def enroll_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "enroll.wav"
    write_wav(path, synth_speaker(3, 6.5))
    return str(path)


@pytest.fixture(scope="module")
def mix_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixes")
    rc = main(["mix", "--out-dir", str(out), "--n", "2", "--seed", "7",
               "--duration", "3.0"])
    assert rc == EXIT_OK
    return str(out)


class TestEnroll:
    def test_writes_unit_norm_embedding(self, tmp_path, embedder_weights, enroll_wav):
        out = tmp_path / "emb.ppnw"
        rc = main(["enroll", enroll_wav, "--weights", embedder_weights,
                   "--out", str(out)])
        assert rc == EXIT_OK
        emb = load_embedding(out)
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)
        assert os.path.exists(str(out) + ".config")

    def test_short_audio_exits_3(self, tmp_path, embedder_weights):
        short = tmp_path / "short.wav"
        write_wav(short, AudioBuffer(np.zeros(48000, dtype=np.float32)))
        out = tmp_path / "emb.ppnw"
        rc = main(["enroll", str(short), "--weights", embedder_weights,
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, embedder_weights, enroll_wav):
        a, b = tmp_path / "a.ppnw", tmp_path / "b.ppnw"
        main(["enroll", enroll_wav, "--weights", embedder_weights, "--out", str(a)])
        main(["enroll", enroll_wav, "--weights", embedder_weights, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exits_3(self, tmp_path, embedder_weights):
        rc = main(["enroll", str(tmp_path / "nope.wav"),
                   "--weights", embedder_weights,
                   "--out", str(tmp_path / "emb.ppnw")])
        assert rc == EXIT_DATA


class TestEnhance:
    def test_identity_reconstructs(self, tmp_path, mix_dir):
        out = tmp_path / "out.wav"
        mix_path = os.path.join(mix_dir, "mix_0000.wav")
        rc = main(["enhance", mix_path, "--identity", "--out", str(out)])
        assert rc == EXIT_OK
        original = read_wav(mix_path).samples
        enhanced = read_wav(out).samples
        assert len(enhanced) == len(original)
        from targetvoice.metrics import si_snr

        assert si_snr(enhanced.astype(np.float64),
                      original.astype(np.float64)) >= 40.0

    def test_model_path_runs(self, tmp_path, mix_dir, embedder_weights,
                             enhancer_weights, enroll_wav):
        emb_path = tmp_path / "emb.ppnw"
        main(["enroll", enroll_wav, "--weights", embedder_weights,
              "--out", str(emb_path)])
        out = tmp_path / "out.wav"
        rc = main(["enhance", os.path.join(mix_dir, "mix_0000.wav"),
                   "--embedding", str(emb_path),
                   "--weights", enhancer_weights, "--out", str(out)])
        assert rc == EXIT_OK
        assert out.exists()

    def test_model_path_builds_no_float64_weights(self, tmp_path, mix_dir, embedder_weights,
                                                 enhancer_weights, enroll_wav, monkeypatch):
        emb_path = tmp_path / "emb.ppnw"
        main(["enroll", enroll_wav, "--weights", embedder_weights,
              "--out", str(emb_path)])

        def no_master(*args):
            raise AssertionError("enhance built the float64 parameters")

        monkeypatch.setattr(EnhancerNet, "_build", no_master)
        rc = main(["enhance", os.path.join(mix_dir, "mix_0000.wav"),
                   "--embedding", str(emb_path),
                   "--weights", enhancer_weights, "--out", str(tmp_path / "out.wav")])
        assert rc == EXIT_OK

    def test_wrong_dim_embedding_no_partial_output(self, tmp_path, mix_dir,
                                                   enhancer_weights):
        from targetvoice.weights_io import save_embedding

        bad = tmp_path / "bad.ppnw"
        vec = np.ones(64) / 8.0
        save_embedding(bad, vec)
        out = tmp_path / "never.wav"
        rc = main(["enhance", os.path.join(mix_dir, "mix_0000.wav"),
                   "--embedding", str(bad), "--weights", enhancer_weights,
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_wrong_sample_rate_file_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(44100)
            fh.writeframes(np.zeros(44100, dtype="<i2").tobytes())
        out = tmp_path / "x.wav"
        rc = main(["enhance", str(path), "--identity", "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()


class TestMix:
    def test_outputs_and_manifest(self, mix_dir):
        rows = [json.loads(line) for line in
                open(os.path.join(mix_dir, "manifest.jsonl")) if line.strip()]
        assert len(rows) == 2
        for row in rows:
            for key in ("mixture", "target", "interferer", "noise", "enrollment"):
                assert os.path.exists(row[key])
            assert 3.0 <= row["snr_db"] <= 15.0
            assert 3.0 <= row["sir_db"] <= 15.0

    def test_manifest_snr_verifiable_from_components(self, mix_dir):
        # re-measure the achieved ratios from written files
        for line in open(os.path.join(mix_dir, "manifest.jsonl")):
            if not line.strip():
                continue
            row = json.loads(line)
            target = read_wav(row["target"]).samples.astype(np.float64)
            noise = read_wav(row["noise"]).samples.astype(np.float64)
            interf = read_wav(row["interferer"]).samples.astype(np.float64)
            snr = 10 * np.log10(np.sum(target ** 2) / np.sum(noise ** 2))
            sir = 10 * np.log10(np.sum(target ** 2) / np.sum(interf ** 2))
            assert snr == pytest.approx(row["snr_db"], abs=0.01)
            assert sir == pytest.approx(row["sir_db"], abs=0.01)

    def test_duration_shorter_than_a_window_exits_3(self, tmp_path, capsys):
        out = tmp_path / "mix"
        rc = main(["mix", "--out-dir", str(out), "--n", "1", "--duration", "0.01"])
        assert rc == EXIT_DATA
        assert "shorter than one 0.02 s analysis window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--duration", "inf"], "within the 60 s speaker regions"),
        (["--duration", "nan"], "within the 60 s speaker regions"),
        (["--duration", "60.5"], "within the 60 s speaker regions"),
        (["--speakers", "1"], "a mixture needs two distinct talkers"),
        (["--speakers", "0"], "a mixture needs two distinct talkers"),
    ], ids=["inf", "nan", "past_region", "one_speaker", "no_speaker"])
    def test_impossible_request_exits_3_before_building_speakers(
            self, tmp_path, capsys, monkeypatch, args, message):
        from targetvoice import synth

        def no_speakers(*_, **__):
            raise AssertionError("speakers built for a request that cannot be met")

        monkeypatch.setattr(synth, "ToySpeakers", no_speakers)
        out = tmp_path / "mix"
        rc = main(["mix", "--out-dir", str(out), "--n", "1"] + args)
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mix_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["mix", "--out-dir", str(out), "--n", "1", "--seed", "3",
                       "--duration", "2.0"])
            assert rc == EXIT_OK
        wav_a = (a / "mix_0000.wav").read_bytes()
        wav_b = (b / "mix_0000.wav").read_bytes()
        assert wav_a == wav_b

    def test_mix_featurizes_nothing(self, tmp_path, monkeypatch):
        # mix writes audio only, so it computes no supervision targets
        from targetvoice import frontend

        seen = []
        real = frontend.extract_features

        def counting(audio, *args):
            seen.append(len(audio))
            return real(audio, *args)

        patch_everywhere(monkeypatch, real, counting)
        rc = main(["mix", "--out-dir", str(tmp_path), "--n", "2", "--seed", "3",
                   "--duration", "1.0", "--speakers", "2", "--augment"])
        assert rc == EXIT_OK
        assert seen == []
        assert len(list(tmp_path.glob("mix_*.wav"))) == 2


class TestEval:
    def test_oracle_eval_report(self, tmp_path, mix_dir, embedder_weights):
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--mode", "oracle",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = [json.loads(l) for l in open(out) if l.strip()]
        rows = [r for r in lines if not r.get("summary")]
        summary = [r for r in lines if r.get("summary")][0]
        assert len(rows) == 2
        for row in rows:
            assert {"si_snr_in", "si_snr_out", "cos_target", "cos_interf"} <= set(row)
        assert "median_si_snr_out" in summary
        # oracle masks recover SI-SNR on these easy mixtures
        assert summary["median_si_snr_out"] > summary["median_si_snr_in"]

    def test_model_eval_scores_vad(self, tmp_path, mix_dir, embedder_weights,
                                   enhancer_weights):
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", enhancer_weights,
                   "--mode", "model", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [r for r in map(json.loads, open(out)) if not r.get("summary")]
        assert len(rows) == 2
        assert all(0.0 <= row["vad_acc"] <= 1.0 for row in rows)

    @pytest.mark.parametrize("mode, calls", [("identity", 6), ("oracle", 8), ("model", 10)])
    def test_eval_featurizes_each_signal_once(self, tmp_path, mix_dir, embedder_weights,
                                              enhancer_weights, monkeypatch, mode, calls):
        # extract_features calls, counted through every targetvoice module
        # that binds it; the engine frames its input in its own stream.
        # Per row: the output, the target and the interferer, for the probe;
        # the mixture, for the oracle and model supervision, which reuses the
        # target's features; the enrollment, for the model
        from targetvoice import frontend

        seen = []
        real = frontend.extract_features

        def counting(audio, *args):
            seen.append(len(audio))
            return real(audio, *args)

        patch_everywhere(monkeypatch, real, counting)
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", enhancer_weights,
                   "--mode", mode, "--out", str(tmp_path / "report.jsonl")])
        assert rc == EXIT_OK
        assert len(seen) == calls

    def test_model_mode_without_enhancer_exits_3_before_reading_audio(
            self, tmp_path, mix_dir, embedder_weights, monkeypatch, capsys):
        from targetvoice import audio, frontend

        seen = []

        def refuse(path_or_audio, *args):
            seen.append(path_or_audio)
            raise AssertionError("eval read or featurized audio before checking --enhancer")

        patch_everywhere(monkeypatch, audio.read_wav, refuse)
        patch_everywhere(monkeypatch, frontend.extract_features, refuse)
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--mode", "model", "--out", str(out)])
        assert rc == EXIT_DATA
        assert "--mode model needs --enhancer weights" in capsys.readouterr().err
        assert seen == []
        assert not out.exists()

    def test_model_mode_embedding_size_mismatch_exits_3_before_reading_audio(
            self, tmp_path, mix_dir, embedder_weights, monkeypatch, capsys):
        from targetvoice import audio, frontend

        enhancer = tmp_path / "enhancer8.ppnw"
        cfg = EnhancerConfig(gru_units=8, n_gru_layers=1, dense_units=8, conv_channels=8,
                             embedding_dim=8)
        save_weights(enhancer, "enhancer", enhancer_entries(EnhancerNet(cfg)))
        seen = []

        def refuse(path_or_audio, *args):
            seen.append(path_or_audio)
            raise AssertionError("eval read or featurized audio before checking sizes")

        patch_everywhere(monkeypatch, audio.read_wav, refuse)
        patch_everywhere(monkeypatch, frontend.extract_features, refuse)
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", str(enhancer),
                   "--mode", "model", "--out", str(out)])
        assert rc == EXIT_DATA
        assert "expects embedding dim 8, embedder produces 16" in capsys.readouterr().err
        assert seen == []
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["identity", "oracle"])
    def test_modes_without_a_model_never_load_the_enhancer(
            self, tmp_path, mix_dir, embedder_weights, monkeypatch, mode):
        from targetvoice import cli

        def refuse(path):
            raise AssertionError(f"{mode} mode loaded the enhancer {path}")

        monkeypatch.setattr(cli, "_load_enhancer", refuse)
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", str(tmp_path / "none.ppnw"),
                   "--mode", mode, "--out", str(tmp_path / "report.jsonl")])
        assert rc == EXIT_OK

    def test_eval_deterministic(self, tmp_path, mix_dir, embedder_weights):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                  "--embedder", embedder_weights, "--mode", "identity",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_identity_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        rc = main(["bench", "--preset", "identity", "--duration", "1.0",
                   "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "realtime_factor" in text
        assert float(dict(
            line.split(" = ") for line in text.strip().splitlines()
        )["realtime_factor"]) > 1.0


class TestTraining:
    def test_train_commands_chain(self, tmp_path, capsys):
        # short smoke runs; the full-budget training lives in the acceptance
        # suite, here we check the workflow wiring and report format
        emb_w = tmp_path / "se.ppnw"
        rc = main(["train-embedder", "--out", str(emb_w), "--steps", "30",
                   "--speakers", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert emb_w.exists()
        assert "final EER" in out

        enh_w = tmp_path / "enh.ppnw"
        rc = main(["train-enhancer", "--embedder", str(emb_w),
                   "--out", str(enh_w), "--steps", "15", "--mixtures", "6",
                   "--speakers", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert enh_w.exists()
        assert "final loss" in out
        from targetvoice.enhancer import enhancer_from_entries
        from targetvoice.weights_io import load_weights

        net = enhancer_from_entries(load_weights(enh_w, "enhancer")[1])
        assert net.config.gru_units == 64


    def test_embedding_size_mismatch_exits_3_before_building_speakers(
            self, tmp_path, capsys, monkeypatch, embedder_weights):
        from targetvoice import synth

        def no_speakers(*_, **__):
            raise AssertionError("speakers built for a request that cannot be met")

        monkeypatch.setattr(synth, "ToySpeakers", no_speakers)
        out = tmp_path / "enh.ppnw"
        rc = main(["train-enhancer", "--embedder", embedder_weights,
                   "--out", str(out), "--preset", "ppn512"])
        assert rc == EXIT_DATA
        assert "expects embedding dim 128, embedder produces 16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-embedder", "--steps", "0"],
        ["train-enhancer", "--embedder", "se.ppnw", "--steps", "0"],
        ["train-enhancer", "--embedder", "se.ppnw", "--mixtures", "0"],
    ], ids=["embedder_steps", "enhancer_steps", "enhancer_mixtures"])
    def test_nothing_to_train_exits_2_before_building_speakers(
            self, tmp_path, monkeypatch, argv):
        from targetvoice import synth

        def no_speakers(*_, **__):
            raise AssertionError("speakers built for a request that cannot be met")

        monkeypatch.setattr(synth, "ToySpeakers", no_speakers)
        out = tmp_path / "out.ppnw"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--speakers", "4"])
        assert exc.value.code == 2
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["enroll", "x.wav", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["enroll", "x.wav", "--weights", "w.ppnw", "--out", "e.ppnw"],
        ["enhance", "x.wav", "--identity", "--out", "y.wav"],
        ["eval", "--manifest", "m.jsonl", "--embedder", "w.ppnw", "--out", "r.jsonl"],
    ])
    def test_seed_only_on_commands_that_draw_random_numbers(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
