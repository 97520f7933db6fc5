"""Timing spans around the program's public functions, from outside it.

A `Tracer` replaces selected functions and methods of the targetvoice
modules with wrappers that record one span per call: name, start, end,
parent span and the stream/hop the benchmark was driving. Spans stay in
memory until `write` saves them. `install` and `uninstall` swap the
wrappers in and out, so untraced code runs the original functions.

A span's self time is its duration minus the durations of its direct
children; the self times of a tree therefore sum to its root's duration.
"""

from __future__ import annotations

import collections
import functools
import time

import numpy as np

from targetvoice import comb, embedder, enhancer, frontend, neural, pipeline, weights_io


def _voiced(estimate) -> bool:
    return estimate.voiced


# (owner, attribute, span name, result flag). Module-level functions are
# patched in the module whose globals the caller looks them up in.
TARGETS = (
    (pipeline.StreamingEnhancer, "__init__", "pipeline.session_init", None),
    (pipeline.StreamingEnhancer, "process", "pipeline.process", None),
    (frontend.FeatureStream, "push", "frontend.push", None),
    (frontend, "estimate_pitch", "frontend.estimate_pitch", _voiced),
    (frontend, "coherence_from_spectra", "frontend.coherence_from_spectra", None),
    (frontend, "band_energies", "frontend.band_energies", None),
    (frontend, "assemble_features", "frontend.assemble_features", None),
    (frontend, "extract_features", "frontend.extract_features", None),
    (comb.CombState, "push", "comb.push", None),
    (comb.CombState, "filter_window", "comb.filter_window", None),
    (pipeline, "apply_per_band", "comb.apply_per_band", None),
    (comb.OverlapAddSynthesizer, "push", "comb.ola_push", None),
    (enhancer.EnhancerSession, "step", "enhancer.step", None),
    (enhancer.EnhancerNet, "forward", "enhancer.forward", None),
    (enhancer.EnhancerNet, "backward", "enhancer.backward", None),
    (enhancer, "gain_strength_loss", "enhancer.losses", None),
    (enhancer, "vad_loss", "enhancer.losses", None),
    (enhancer, "enhancer_from_entries", "enhancer.from_entries", None),
    (neural.GRU, "forward", "neural.gru.forward", None),
    (neural.GRU, "backward", "neural.gru.backward", None),
    (neural.CausalConv1d, "forward", "neural.conv.forward", None),
    (neural.CausalConv1d, "backward", "neural.conv.backward", None),
    (neural.Dense, "forward", "neural.dense.forward", None),
    (neural.Dense, "backward", "neural.dense.backward", None),
    (neural.Adam, "step", "neural.adam.step", None),
    (embedder.EmbedderNet, "forward_batch", "embedder.forward_batch", None),
    (embedder, "enroll_embedding", "embedder.enroll_embedding", None),
    (weights_io, "load_weights", "weights_io.load_weights", None),
)


class Tracer:
    """In-memory span recorder; one per workload process, single thread."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stream: list[int] = []
        self.hop: list[int] = []
        self.flag: list[int] = []
        self.stream_id = -1
        self.hop_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.stream.append(self.stream_id)
        self.hop.append(self.hop_id)
        self.flag.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.name[idx]} closed out of order")

    def _wrap(self, fn, name: str, flag):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if flag is not None:
                    tracer.flag[idx] = int(flag(result))
                return result
            finally:
                tracer.close(idx)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, flag in TARGETS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, flag))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Columns plus derived duration, self time and root index."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        root = np.arange(len(parent))
        for i in np.flatnonzero(has_parent):  # parents precede children
            root[i] = root[parent[i]]
        return {"name": np.array(self.name, dtype=object), "start": start, "end": end,
                "parent": parent, "dur": dur, "self": dur - child, "root": root,
                "stream": np.array(self.stream), "hop": np.array(self.hop),
                "flag": np.array(self.flag)}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,stream,hop,flag\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.stream, self.hop, self.flag):
                fh.write(",".join(map(str, row)) + "\n")


def check_nesting(cols: dict[str, np.ndarray]) -> list[str]:
    """Children inside their parents; each tree's self times sum to its root."""
    problems = []
    parent = cols["parent"]
    inner = parent >= 0
    if np.any(cols["start"][inner] < cols["start"][parent[inner]]) or \
            np.any(cols["end"][inner] > cols["end"][parent[inner]]):
        problems.append("a span lies outside its parent")
    if np.any(cols["self"] < 0):
        problems.append("a span has negative self time")
    tree_self = np.zeros_like(cols["dur"])
    np.add.at(tree_self, cols["root"], cols["self"])
    roots = ~inner
    if not np.array_equal(tree_self[roots], cols["dur"][roots]):
        problems.append("self times of a tree do not sum to its root span")
    return problems


def layer_totals(cols: dict[str, np.ndarray], roots: np.ndarray) -> dict[str, dict]:
    """Per span name under the given roots: calls, self ns, inclusive ns, flags.

    Names with no span under the roots read as all zeros.
    """
    under = np.isin(cols["root"], roots)
    out: dict[str, dict] = collections.defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "dur_ns": 0, "flags": 0})
    for name in set(cols["name"][under]):
        sel = under & (cols["name"] == name)
        out[name] = {"calls": int(sel.sum()), "self_ns": int(cols["self"][sel].sum()),
                     "dur_ns": int(cols["dur"][sel].sum()),
                     "flags": int(cols["flag"][sel].sum())}
    return out
