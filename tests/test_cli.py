"""Command-line workflows: exit codes, sidecars, determinism."""

import json
import os
import sys
import wave

import numpy as np
import pytest

from targetvoice.audio import AudioBuffer, read_wav, write_wav
from targetvoice.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
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

        # a net is drawn or filled; loading lists its layout, which builds none
        monkeypatch.setattr(EnhancerNet, "__init__", no_master)
        monkeypatch.setattr(EnhancerNet, "from_arrays", no_master)
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
        (["--duration", "inf"], "within the 20 s held-out region eval mixtures"),
        (["--duration", "nan"], "within the 20 s held-out region eval mixtures"),
        (["--duration", "20.5"], "within the 20 s held-out region eval mixtures"),
        (["--preset", "train", "--duration", "60.5"],
         "within the 60 s train region train mixtures"),
        (["--speakers", "1"], "a mixture needs two distinct talkers"),
        (["--speakers", "0"], "a mixture needs two distinct talkers"),
    ], ids=["inf", "nan", "past_region", "past_train_region", "one_speaker", "no_speaker"])
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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_mixtures_exits_2_before_any_work(self, tmp_path, monkeypatch, n):
        from targetvoice import synth

        def no_speakers(*_, **__):
            raise AssertionError("speakers built for a request that cannot be met")

        monkeypatch.setattr(synth, "ToySpeakers", no_speakers)
        out = tmp_path / "mix"
        with pytest.raises(SystemExit) as exc:
            main(["mix", "--out-dir", str(out), "--n", n])
        assert exc.value.code == 2
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

    @pytest.mark.parametrize("preset, region", [("eval", "heldout_audio"),
                                                ("train", "train_audio")])
    def test_each_preset_cuts_its_own_region(self, tmp_path, monkeypatch, preset, region):
        # eval mixtures come from audio that no training run sees
        from targetvoice import synth

        seen = []
        real = synth.draw_sources

        def recording(rng, speakers, source, duration_s):
            seen.append(source)
            return real(rng, speakers, source, duration_s)

        monkeypatch.setattr(synth, "draw_sources", recording)
        rc = main(["mix", "--out-dir", str(tmp_path), "--n", "2", "--preset", preset,
                   "--duration", "1.0", "--speakers", "2"])
        assert rc == EXIT_OK
        assert seen == [region, region]

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

    def test_model_eval_builds_no_float64_weights(self, tmp_path, mix_dir, embedder_weights,
                                                  enhancer_weights, monkeypatch):
        # the VAD comes from the float32 session the engine runs
        def no_master(*args):
            raise AssertionError("eval built the float64 parameters")

        monkeypatch.setattr(EnhancerNet, "__init__", no_master)
        monkeypatch.setattr(EnhancerNet, "from_arrays", no_master)
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", enhancer_weights,
                   "--mode", "model", "--out", str(tmp_path / "report.jsonl")])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("mode, calls", [("identity", 6), ("oracle", 8), ("model", 8)])
    def test_eval_featurizes_each_signal_once(self, tmp_path, mix_dir, embedder_weights,
                                              enhancer_weights, monkeypatch, mode, calls):
        # extract_features calls, counted through every targetvoice module
        # that binds it; the engine frames its input in its own stream.
        # Per row: the output, the target and the interferer, for the probe;
        # the mixture, for the oracle supervision, which reuses the target's
        # features; the enrollment, for the model, whose VAD labels come from
        # the target's features and whose VAD comes from the engine's run
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

    def test_model_eval_runs_one_session_per_mixture(self, tmp_path, mix_dir, embedder_weights,
                                                     enhancer_weights, monkeypatch):
        # the VAD scored is the one the engine's run gave with its audio
        from targetvoice import enhancer

        built = []

        class CountingSession(enhancer.EnhancerSession):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        patch_everywhere(monkeypatch, enhancer.EnhancerSession, CountingSession)
        rc = main(["eval", "--manifest", os.path.join(mix_dir, "manifest.jsonl"),
                   "--embedder", embedder_weights, "--enhancer", enhancer_weights,
                   "--mode", "model", "--out", str(tmp_path / "report.jsonl")])
        assert rc == EXIT_OK
        assert len(built) == 2

    @pytest.mark.parametrize("defect, message", [
        ("target", "manifest row 1: mixture, target and interferer take 144000, 143999, "
                   "144000 samples"),
        ("short", "manifest row 1: mixture, target and interferer take 959, 959, 959 samples"),
        # one window, but 49 frames: the embedder probe needs 50
        ("probe", "manifest row 1: mixture, target and interferer take 24000, 24000, 24000 "
                  "samples; they must be equal and at least the 24480"),
    ], ids=["target", "short", "probe"])
    def test_malformed_row_exits_3_naming_the_row(self, tmp_path, mix_dir, embedder_weights,
                                                  capsys, defect, message):
        rows = [json.loads(line) for line in open(os.path.join(mix_dir, "manifest.jsonl"))]
        bad = dict(rows[0])
        for key in ("mixture", "target", "interferer"):
            samples = read_wav(bad[key]).samples
            if defect in ("short", "probe"):
                samples = samples[: {"short": 959, "probe": 24000}[defect]]
            elif key == defect:
                samples = samples[:-1]
            bad[key] = str(tmp_path / f"{key}.wav")
            write_wav(bad[key], AudioBuffer(samples))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(rows[0]) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", str(manifest), "--embedder", embedder_weights,
                   "--mode", "identity", "--out", str(out)])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, line, message", [
        ("identity", lambda row: json.dumps({k: v for k, v in row.items() if k != "interferer"}),
         ": no path string for interferer"),
        ("identity", lambda row: json.dumps({**row, "mixture": None}),
         ": no path string for mixture"),
        ("identity", lambda row: json.dumps({**row, "target": 3}), ": no path string for target"),
        ("model", lambda row: json.dumps({k: v for k, v in row.items() if k != "enrollment"}),
         ": no path string for enrollment"),
        ("identity", lambda row: "[1, 2]", " is not a JSON object"),
        ("identity", lambda row: '{"mixture": ', " is not a JSON object"),
    ], ids=["no_interferer", "null_mixture", "number_target", "no_enrollment", "array",
            "not_json"])
    def test_row_without_its_paths_exits_3_naming_the_row(
            self, tmp_path, mix_dir, embedder_weights, enhancer_weights, capsys,
            mode, line, message):
        first, second = open(os.path.join(mix_dir, "manifest.jsonl")).read().splitlines()
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(first + "\n" + line(json.loads(second)) + "\n")
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--manifest", str(manifest), "--embedder", embedder_weights,
                   "--enhancer", enhancer_weights, "--mode", mode, "--out", str(out)])
        assert rc == EXIT_DATA
        assert f"manifest row 1{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_short_enrollment_exits_3_naming_the_row_before_any_model_runs(
            self, tmp_path, mix_dir, embedder_weights, enhancer_weights, monkeypatch, capsys):
        from targetvoice import embedder, enhancer

        def refuse(*args):
            raise AssertionError("a model ran on a row with a short enrollment")

        patch_everywhere(monkeypatch, embedder.enroll_embedding, refuse)
        patch_everywhere(monkeypatch, enhancer.EnhancerSession, refuse)
        row = json.loads(open(os.path.join(mix_dir, "manifest.jsonl")).readline())
        row["enrollment"] = str(tmp_path / "enroll.wav")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(row) + "\n")
        out = tmp_path / "report.jsonl"
        # 24000 samples are under the 50 frames the embedder needs; 2 s of
        # speech gives it those frames but is under enroll's 3 s
        for samples, seconds in ((np.zeros(24000, dtype=np.float32), "0.50"),
                                 (synth_speaker(3, 2.0).samples, "2.00")):
            write_wav(row["enrollment"], AudioBuffer(samples))
            rc = main(["eval", "--manifest", str(manifest), "--embedder", embedder_weights,
                       "--enhancer", enhancer_weights, "--mode", "model", "--out", str(out)])
            assert rc == EXIT_DATA
            assert (f"manifest row 0: the enrollment takes {seconds} s; enroll needs >= 3.0 s"
                    in capsys.readouterr().err)
            assert not out.exists()

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
        save_weights(enhancer, "enhancer", enhancer_entries(EnhancerNet(cfg, seed=0)))
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
    # 0.0099 s is positive, but the timed stretch would hold no frame
    @pytest.mark.parametrize("duration", ["0", "-1", "inf", "nan", "ten", "0.0099"])
    def test_duration_must_be_finite_and_at_least_one_hop(self, tmp_path, capsys, duration):
        out = tmp_path / "bench.txt"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--preset", "identity", "--duration", duration, "--out", str(out)])
        assert exc.value.code == 2
        assert "--duration" in capsys.readouterr().err
        assert not out.exists()

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

    def test_diverged_embedder_exits_4(self, tmp_path, capsys, monkeypatch):
        # NaN embeddings give a NaN EER, which the command refuses to report
        from targetvoice import embedder, synth

        crops = {spk: [np.zeros((8, 68))] * 4 for spk in range(4)}
        monkeypatch.setattr(synth, "embedder_crop_sets", lambda speakers: (crops, crops))
        real = embedder.EmbedderNet.forward_batch
        monkeypatch.setattr(embedder.EmbedderNet, "forward_batch",
                            lambda net, feats: np.full_like(real(net, feats), np.nan))
        out = tmp_path / "se.ppnw"
        rc = main(["train-embedder", "--out", str(out), "--steps", "1", "--speakers", "4"])
        assert rc == EXIT_NUMERIC
        assert "EER is not finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, message", [
        (["train-embedder", "--speakers", "3"], "embedder training needs >= 4 speakers"),
        (["train-enhancer", "--embedder", "se.ppnw", "--speakers", "1"],
         "a mixture needs two distinct talkers"),
    ], ids=["embedder", "enhancer"])
    def test_too_few_speakers_exits_3_before_building_speakers(
            self, tmp_path, capsys, monkeypatch, argv, message):
        from targetvoice import synth

        def no_speakers(*_, **__):
            raise AssertionError("speakers built for a request that cannot be met")

        monkeypatch.setattr(synth, "ToySpeakers", no_speakers)
        out = tmp_path / "out.ppnw"
        rc = main(argv + ["--out", str(out)])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
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
