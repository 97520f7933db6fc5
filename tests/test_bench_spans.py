"""The benchmark's span targets name attributes the program still has."""

import importlib.util
from pathlib import Path

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
