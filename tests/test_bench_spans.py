"""The benchmark's span targets name attributes the program still has."""

import importlib.util
from pathlib import Path

import numpy as np

from targetvoice import frontend
from targetvoice.synth import synth_speaker

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_target_exists():
    # Tracer.install reads vars(owner)[attr], so a renamed or removed target
    # would make `bench/run.py --trace 1` raise KeyError
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{span} ({attr})" for owner, attr, span, _ in spans.TARGETS
               if attr not in vars(owner)]
    assert not missing


# The benchmark also reads the frontend through two calls that stand in for
# the record's fields until it reads them itself: feature_matrix(record)
# (bench/worker.py, bench/inputs.py) and per-frame iteration with
# `f.pitch.voiced` (bench/inputs.py, voiced_share).


def _speech_record():
    x = synth_speaker(3, 1.0).samples.astype(np.float64)
    return x, frontend.extract_features(x, frontend.design_erb_filterbank())


def test_feature_matrix_is_the_records_features():
    x, record = _speech_record()
    mat = frontend.feature_matrix(record)
    assert mat is record.features
    assert mat.shape == ((len(x) - frontend.WINDOW) // frontend.HOP + 1, 68)
    assert mat.dtype == np.float32
    stream = frontend.FeatureStream()
    streamed = np.concatenate([stream.push(x[i : i + 733]).features
                               for i in range(0, len(x), 733)])
    assert mat.tobytes() == streamed.tobytes()


def test_iterating_a_record_gives_each_frames_voicing():
    _, record = _speech_record()
    voiced = [f.pitch.voiced for f in record]
    assert voiced == (record.periods > 0).tolist()
    assert any(voiced) and not all(voiced)
