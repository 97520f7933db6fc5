"""One workload process of the streaming benchmark.

Run by bench/run.py, once per set-up probe and once for the measured run,
so that set-up time and peak memory belong to this process alone:

    python3 bench/worker.py --workload W --inputs DIR --t0-ns NS \
        --result OUT.json [--setup-only] [--seconds S] [--trace 0|1]

`--t0-ns` is the parent's CLOCK_MONOTONIC reading just before it started
this process; set-up time runs from there until the first operation can
start. The process drives only public API of targetvoice and checks every
output it gets; see bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from targetvoice import embedder, enhancer, frontend, pipeline, weights_io  # noqa: E402

import refspeed  # noqa: E402
import spans  # noqa: E402

HOP = frontend.HOP
HOP_S = HOP / frontend.SAMPLE_RATE
TAIL_BEYOND = 10           # the printed tail percentile has this many ticks beyond it
WARMUP_FRAMES = 200        # model frames before the batch-model comparison: the
                           # engine's extra leading straddle frame leaves a transient
                           # that at seed 43 (toy) is still 1.06e-5 at frame 100
CONTROL_TOL = 1e-5         # |engine - float64 batch model| on gains/strengths/VAD
IDENTITY_MIN_SNR_DB = 40.0
UNIT_NORM_TOL = 1e-6
MAIN_TRAIN_STEPS = 20      # offline_toy: one training run per round
SIDE_TRAIN_STEPS = 8       # streaming workloads' reference operations: three training
SIDE_ENROLL_REPEATS = 4    # runs of 8 steps, and each enrollment clip enrolled four times
SPEED_BLOCK = 25           # ticks between two reference-speed readings
SPEED_REPEATS = {"compute": 8, "ppn512": 2}   # kernel runs per reading between ticks
OP_REPEATS = 10            # kernel runs per reading around an offline operation
ENROLL_SAMPLE_S = 0.025    # reference-speed readings during an enrollment, untraced
SETUP_REPEATS = 20         # kernel runs per reading after set-up

STREAM_LAYERS = ("pipeline.process", "frontend.push", "frontend.estimate_pitch",
                 "frontend.coherence_from_spectra", "frontend.band_energies",
                 "frontend.assemble_features", "enhancer.step", "comb.push",
                 "comb.filter_window", "comb.apply_per_band", "comb.ola_push")
CALL_COUNTED = STREAM_LAYERS[1:]
SETUP_LAYERS = ("weights_io.load_weights", "enhancer.from_entries")
ENROLL_LAYERS = ("frontend.extract_features", "embedder.forward_batch")
TRAIN_SELF_LAYERS = ("enhancer.forward", "enhancer.backward")
TRAIN_LAYERS = ("neural.gru.forward", "neural.gru.backward", "neural.conv.forward",
                "neural.conv.backward", "neural.dense.forward", "neural.dense.backward",
                "enhancer.losses", "neural.adam.step")


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workload_peak_rss_mb(state: dict, speed) -> float:
    """Peak RSS without the reference kernels' inputs.

    Those are allocated after set-up and stay resident, so any later peak
    holds them exactly once.
    """
    return max(state["peak_setup_mb"], peak_rss_mb() - speed.resident_mb)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_build = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_build,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


class Inputs:
    """The generated input directory of one run."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(os.path.join(path, "manifest.json")) as fh:
            self.manifest = json.load(fh)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def audio(self, name: str) -> np.ndarray:
        return np.load(self.file(name)).astype(np.float64)

    def training_batch(self) -> list[dict]:
        with np.load(self.file("toy_train.npz")) as z:
            cols = {k: z[k] for k in z.files}
        return [{k: v[i] for k, v in cols.items()} for i in range(len(cols["features"]))]


# ---------------------------------------------------------------------------
# Set-up: weights through weights_io, then sessions
# ---------------------------------------------------------------------------


def load_enhancer(path: str):
    _, entries = weights_io.load_weights(path, expect_kind="enhancer")
    return enhancer.enhancer_from_entries(entries)


def load_embedder(path: str):
    _, entries = weights_io.load_weights(path, expect_kind="embedder")
    return embedder.embedder_from_entries(entries)


def release_free_heap() -> None:
    """Return freed heap pages to the system, so RSS deltas show new memory."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def build_sessions(net, embeddings, fb, trim: bool) -> tuple[list, float]:
    """One StreamingEnhancer per embedding, and the RSS each one added.

    Without `trim`, sessions may reuse heap pages freed while loading the
    weights and the RSS delta under-reads; set-up time is not measured then.
    """
    if trim:
        release_free_heap()
    before = rss_mb()
    engines = [pipeline.StreamingEnhancer(net, emb, fb) for emb in embeddings]
    return engines, (rss_mb() - before) / len(embeddings)


def setup(workload: str, inputs: Inputs, t0_ns: int, tracer) -> dict:
    """Everything before the first operation; imports ran at module load."""
    root = tracer.open("bench.setup") if tracer else -1
    fb = frontend.design_erb_filterbank()
    state: dict = {"fb": fb}
    if workload == "offline_toy":
        state["embedder"] = load_embedder(inputs.file("toy_embedder.ppnw"))
        state["net"] = load_enhancer(inputs.file("toy_enhancer.ppnw"))
    else:
        streams = inputs.manifest["streams"]
        net = load_enhancer(inputs.file("ppn512.ppnw")) if streams[0]["model"] else None
        embeddings = [weights_io.load_embedding(inputs.file(s["embedding"])) if net else None
                      for s in streams]
        engines, session_rss = build_sessions(net, embeddings, fb, trim=tracer is not None)
        state.update(net=net, embeddings=embeddings, engines=engines,
                     session_rss_mb=session_rss)
    if tracer:
        tracer.close(root)
    state["setup_s"] = (time.monotonic_ns() - t0_ns) / 1e9
    return state


# ---------------------------------------------------------------------------
# Streaming: closed loop, every stream advanced one hop per tick
# ---------------------------------------------------------------------------


class StreamPhase:
    """Runs whole rounds (one fresh 5 s call per stream) and checks them."""

    def __init__(self, clips, embeddings, faults, net, fb, speed, kind: str) -> None:
        self.clips = clips
        self.embeddings = embeddings
        self.faults = faults            # first faulty hop per stream, or None
        self.net = net
        self.fb = fb
        self.speed = speed              # refspeed.Kernels
        self.kind = kind                # which kernel tracks this workload's hops
        self.n_streams = len(clips)
        self.n_hops = len(clips[0]) // HOP
        self.hops = [[c[h * HOP:(h + 1) * HOP] for h in range(self.n_hops)] for c in clips]
        self.ticks_ns: list[np.ndarray] = []
        self.scales: list[np.ndarray] = []
        self.traced: list[np.ndarray] = []
        self.disturbed: list[np.ndarray] = []
        self.ok: list[np.ndarray] = []
        self.controls: list[dict] = []
        self.problems: list[str] = []
        self.max_control_diff: float | None = None

    def new_engines(self) -> list:
        return [pipeline.StreamingEnhancer(self.net, emb, self.fb) for emb in self.embeddings]

    def run(self, engines, seconds: float, tracer=None, between=None) -> None:
        """Whole rounds until `seconds` have passed.

        With a tracer, odd ticks run traced and even ticks untraced, so the
        two halves see the same audio and machine state. `between` is
        called after every tick, outside its timing; when it ran something,
        the next tick starts on caches it evicted and is left out of the
        hop figures.
        """
        begin = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - begin < seconds:
            if rnd > 0:
                engines = None               # release the finished calls first
                engines = self.new_engines()
            self.play_round(engines, tracer, between)
            rnd += 1
        if tracer is not None:
            tracer.install()

    def play_round(self, engines, tracer=None, between=None) -> None:
        """One call per stream, every stream advanced one hop per tick.

        Every SPEED_BLOCK ticks, and before the first, the reference kernel
        is timed; each tick is scaled by the mean reference speed at the two
        ends of its block. The tick after a reading is left out like one
        after any other operation between ticks.
        """
        n_s, n_h = self.n_streams, self.n_hops
        readings = [self.speed.scale(self.kind, SPEED_REPEATS[self.kind])]
        ticks = np.zeros(n_h, dtype=np.int64)
        traced = np.zeros(n_h, dtype=bool)
        if tracer is not None:
            traced[1::2] = True
        disturbed = np.zeros(n_h, dtype=bool)
        ok = np.zeros((n_s, n_h), dtype=bool)
        out = np.zeros((n_s, n_h * HOP))
        ctl = {"gains": np.zeros((n_s, n_h, frontend.N_BANDS), dtype=np.float32),
               "strengths": np.zeros((n_s, n_h, frontend.N_BANDS), dtype=np.float32),
               "vad": np.zeros((n_s, n_h)), "frames": np.zeros((n_s, n_h), dtype=np.int64)}
        res = [None] * n_s
        for h in range(n_h):
            traced[h] &= not disturbed[h]        # keep disturbed ticks out of the spans too
            if traced[h]:
                tracer.install()
                root = tracer.open("bench.tick")
                tracer.hop_id = h
            elif tracer is not None:
                tracer.uninstall()
            t = time.perf_counter_ns()
            for k in range(n_s):
                if traced[h]:
                    tracer.stream_id = k
                try:
                    res[k] = engines[k].process(self.hops[k][h])
                except Exception as exc:  # a raising hop is a failed operation
                    res[k] = exc
            ticks[h] = time.perf_counter_ns() - t
            if traced[h]:
                tracer.close(root)
                tracer.stream_id = tracer.hop_id = -1
            for k, eng in enumerate(engines):
                y = res[k]
                ok[k, h] = (isinstance(y, np.ndarray) and y.shape == (HOP,)
                            and bool(np.isfinite(y).all()))
                if ok[k, h]:
                    out[k, h * HOP:(h + 1) * HOP] = y
                if eng.session is not None:
                    ctl["gains"][k, h] = eng.session.gains
                    ctl["strengths"][k, h] = eng.session.strengths
                    ctl["vad"][k, h] = eng.last_vad
                ctl["frames"][k, h] = eng.frames_processed
            ran = False
            if (h + 1) % SPEED_BLOCK == 0 or h + 1 == n_h:
                readings.append(self.speed.scale(self.kind, SPEED_REPEATS[self.kind]))
                ran = True
            if between is not None and between():
                ran = True
            if ran and h + 1 < n_h:
                disturbed[h + 1] = True
        readings = np.array(readings)
        self.scales.append(((readings[:-1] + readings[1:]) / 2)[np.arange(n_h) // SPEED_BLOCK])
        self.ticks_ns.append(ticks)
        self.traced.append(traced)
        self.disturbed.append(disturbed)
        self.ok.append(ok)
        self.controls.append(ctl)
        if self.net is None:
            self._check_identity(out, ok)

    def _check_identity(self, out: np.ndarray, ok: np.ndarray) -> None:
        """Delay-compensated output must reconstruct the input itself."""
        delay = pipeline.StreamingEnhancer.DELAY_SAMPLES
        for k, clip in enumerate(self.clips):
            if not ok[k].all():
                continue  # counted as failed hops
            ref = clip[: len(clip) - delay]
            err = out[k, delay:] - ref
            snr = 10 * np.log10(np.dot(ref, ref) / max(float(np.dot(err, err)), 1e-300))
            if snr < IDENTITY_MIN_SNR_DB:
                self.problems.append(f"identity stream {k}: reconstruction {snr:.1f} dB")

    # -- accounting and checks -------------------------------------------------

    def failures(self) -> tuple[int, int, int]:
        """(attempted, failed, failed outside the injected fault)."""
        ok = np.stack(self.ok)                       # [rounds, streams, hops]
        expected = np.zeros(ok.shape[1:], dtype=bool)
        for k, fault in enumerate(self.faults):
            if fault is not None:
                expected[k, fault:] = True
        failed = ~ok
        return ok.size, int(failed.sum()), int((failed & ~expected).sum())

    def check_controls(self) -> None:
        """Engine controls against the float64 batch model on the same samples."""
        if self.net is None:
            return
        ok = np.stack(self.ok)
        gains = np.stack([c["gains"] for c in self.controls])
        strengths = np.stack([c["strengths"] for c in self.controls])
        vad = np.stack([c["vad"] for c in self.controls])
        frames = np.stack([c["frames"] for c in self.controls])
        for name, arr in (("gains", gains), ("strengths", strengths), ("VAD", vad)):
            vals = arr[ok]
            if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
                self.problems.append(f"{name} outside [0, 1] on a finite hop")

        pushed = (np.arange(self.n_hops) + 1) * HOP
        batch_frames = np.maximum((pushed - frontend.WINDOW) // HOP + 1, 0)
        lead = frames - batch_frames                 # 1 while the engine feeds a straddle frame
        if np.any((lead < 0) | (lead > 1)):
            self.problems.append("engine frame count does not follow the batch frames")
        with np.errstate(all="ignore"):
            feats = np.stack([frontend.feature_matrix(frontend.extract_features(c, self.fb))
                              for c in self.clips])
            ref_g, ref_s, ref_v = self.net.forward(feats, np.stack(self.embeddings))
        idx = batch_frames - 1                       # newest batch frame after each hop
        valid = idx >= WARMUP_FRAMES
        worst = 0.0
        for k, fault in enumerate(self.faults):
            hops = valid.copy()
            if fault is not None:
                hops[fault:] = False                 # after the fault the reference is poisoned
            frames_k = idx[hops]
            sel = ok[:, k, hops]
            for eng, ref in ((gains[:, k, hops], ref_g[k, frames_k]),
                             (strengths[:, k, hops], ref_s[k, frames_k]),
                             (vad[:, k, hops, None], ref_v[k, frames_k, None])):
                diff = np.abs(eng[sel] - np.broadcast_to(ref, eng.shape)[sel])
                if diff.size:
                    worst = max(worst, float(diff.max()))
        self.max_control_diff = worst
        if not worst <= CONTROL_TOL:
            self.problems.append(f"controls differ from the batch model by {worst:.3g} "
                                 f"(tolerance {CONTROL_TOL:g})")

    def ticks_us(self, traced: bool, reference: bool = False) -> np.ndarray:
        """Wall tick times, or with `reference` their times at reference speed."""
        ticks = np.concatenate(self.ticks_ns) / 1e3
        if reference:
            ticks = ticks * np.concatenate(self.scales) ** refspeed.FOLLOW["hop"]
        keep = (np.concatenate(self.traced) == traced) & ~np.concatenate(self.disturbed)
        return ticks[keep]

    def end_to_end(self) -> dict:
        """Tick statistics of the untraced ticks at reference speed.

        The tail metric is p90. The highest percentile with TAIL_BEYOND
        ticks beyond it, printed with the run's other information, is set on
        the machine these figures come from by bursts of host slowness rather
        than by the program (see README).
        """
        ticks = self.ticks_us(traced=False, reference=True)
        wall = self.ticks_us(traced=False)
        return {"hop_us_p50": float(np.percentile(ticks, 50)),
                "hop_us_p90": float(np.percentile(ticks, 90)),
                "rtf": self.n_streams * len(ticks) * HOP_S / (ticks.sum() / 1e6),
                "hop_samples": int(len(ticks)),
                "hop_tail": tail(ticks),
                "wall_hop_us_p50": float(np.percentile(wall, 50)),
                "wall_rtf": self.n_streams * len(wall) * HOP_S / (wall.sum() / 1e6)}


def tail(ticks: np.ndarray) -> dict:
    """The highest percentile with TAIL_BEYOND ticks beyond it, and its value."""
    pct = 100.0 * (1.0 - TAIL_BEYOND / len(ticks))
    return {"percentile": pct, "us": float(np.percentile(ticks, pct))} if pct > 50 else {}


def stream_phase_from(inputs: Inputs, net, embeddings, fb, speed) -> StreamPhase:
    clips, faults = [], []
    for s in inputs.manifest["streams"]:
        clips.append(inputs.audio(s["audio"]))
        faults.append(None if s["fault_sample"] is None else s["fault_sample"] // HOP)
    return StreamPhase(clips, embeddings, faults, net, fb, speed, tick_kernel(inputs))


# ---------------------------------------------------------------------------
# Offline: whole-file enrollment and toy training steps
# ---------------------------------------------------------------------------


class OfflinePhase:
    """Enrollments and training runs with per-operation times and checks."""

    def __init__(self, se_net, clips, dataset, model_seed: int, fb, speed) -> None:
        self.se_net = se_net
        self.clips = clips
        self.dataset = dataset
        self.model_seed = model_seed
        self.fb = fb
        self.speed = speed
        self.enroll_ns: list[int] = []
        self.enroll_scale: list[float] = []
        self.step_ns: list[int] = []
        self.step_scale: list[float] = []
        self.embeddings: list[np.ndarray] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def enroll(self, clip: np.ndarray, tracer=None) -> np.ndarray | None:
        """One timed enrollment; untraced, the reference speed is read during it."""
        before = self.speed.time_us("compute", OP_REPEATS)
        root = tracer.open("bench.enroll") if tracer else -1
        sampler = refspeed.Sampler(self.speed, "compute", ENROLL_SAMPLE_S, active=tracer is None)
        t = time.perf_counter_ns()
        with sampler:
            try:
                feats = frontend.feature_matrix(frontend.extract_features(clip, self.fb))
                emb = embedder.enroll_embedding(self.se_net, feats)
            except Exception as exc:  # a raising enrollment is a failed operation
                emb = None
                self.problems.append(f"enrollment raised {exc!r}")
        dt = time.perf_counter_ns() - t - sampler.spent_ns
        if tracer:
            tracer.close(root)
        after = self.speed.time_us("compute", OP_REPEATS)
        self.attempted += 1
        if emb is None or not np.all(np.isfinite(emb)):
            self.failed += 1
            return None
        self.enroll_ns.append(dt)
        self.enroll_scale.append(self.speed.scale_of("compute", sampler.times_us + [before, after]))
        norm = float(np.linalg.norm(emb))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            self.problems.append(f"enrollment embedding norm {norm:.9f}")
        self.embeddings.append(emb)
        return emb

    def train(self, steps: int, tracer=None) -> None:
        """One toy training run on the fixed batch; steps timed by its log hook.

        The hook also reads the reference speed, outside the step times.
        """
        marks: list[int] = []
        resumed: list[int] = []
        scales: list[float] = []
        roots: list[int] = []
        if tracer:
            roots.append(tracer.open("bench.train_first"))  # includes net construction

        def log(_message: str) -> None:
            marks.append(time.perf_counter_ns())
            if tracer:
                tracer.close(roots[-1])
            scales.append(self.speed.scale("compute", OP_REPEATS))
            if tracer:
                roots.append(tracer.open("bench.train_step"))
            resumed.append(time.perf_counter_ns())

        cfg = enhancer.EnhancerTrainConfig(steps=steps, batch_size=len(self.dataset),
                                           log_every=1, seed=0, model_seed=self.model_seed)
        try:
            _, losses = enhancer.train_enhancer_toy(self.dataset, cfg, log=log)
        except Exception as exc:  # every step of a raising run counts as failed
            losses = None
            self.problems.append(f"training raised {exc!r}")
        if tracer:
            tracer.name[roots[-1]] = "bench.train_tail"     # return only, no step
            tracer.close(roots[-1])
        self.attempted += steps
        if losses is None or len(losses) != steps:
            self.failed += steps
            return
        finite = np.isfinite(losses)
        self.failed += int((~finite).sum())
        self.step_ns.extend(int(d) for d in np.subtract(marks[1:], resumed[:-1]))
        self.step_scale.extend((a + b) / 2 for a, b in zip(scales[:-1], scales[1:]))
        if finite.all() and not losses[-1] < losses[0]:
            self.problems.append(f"loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")

    def end_to_end(self) -> dict:
        """Median enrollment and step times at reference speed."""
        enroll = np.multiply(self.enroll_ns, np.power(self.enroll_scale,
                                                     refspeed.FOLLOW["enroll"]))
        steps = np.multiply(self.step_ns, np.power(self.step_scale,
                                                   refspeed.FOLLOW["train_step"]))
        return {"enroll_ms": float(np.median(enroll)) / 1e6,
                "train_step_ms": float(np.median(steps)) / 1e6,
                "wall_enroll_ms": float(np.median(self.enroll_ns)) / 1e6,
                "wall_train_step_ms": float(np.median(self.step_ns)) / 1e6,
                "enroll_samples": len(self.enroll_ns),
                "train_step_samples": len(self.step_ns)}


class ReferenceSchedule:
    """Runs a list of operations spread evenly over a run's `seconds`.

    The machine's speed drifts over seconds; spreading the operations over
    the whole run lets them see the same conditions as the ticks around them.
    """

    def __init__(self, ops: list, seconds: float, tracer=None) -> None:
        self.ops = ops
        self.seconds = seconds
        self.tracer = tracer
        self.done = 0
        self.begin = time.perf_counter()

    def run_due(self) -> bool:
        """Run the operations now due; True if any ran."""
        ran = False
        while self.done < len(self.ops) and (time.perf_counter() - self.begin >=
                                             (self.done + 0.5) * self.seconds / len(self.ops)):
            self._run_next()
            ran = True
        return ran

    def finish(self) -> None:
        while self.done < len(self.ops):
            self._run_next()

    def _run_next(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
        self.ops[self.done]()
        self.done += 1


class CallSchedule:
    """Runs operations at even hop intervals of one call (a `between` hook)."""

    def __init__(self, ops: list, n_hops: int, tracer=None) -> None:
        self.ops = ops
        self.due = [(i + 1) * n_hops // (len(ops) + 1) for i in range(len(ops))]
        self.tracer = tracer
        self.hop = 0

    def __call__(self) -> bool:
        self.hop += 1
        if not self.due or self.hop < self.due[0]:
            return False
        self.due.pop(0)
        if self.tracer is not None:
            self.tracer.install()
        self.ops.pop(0)()
        return True


def reference_ops(offline: "OfflinePhase", tracer) -> list:
    """Each enrollment clip four times, with a short training run after every fourth."""
    ops = []
    for i, clip in enumerate(offline.clips * SIDE_ENROLL_REPEATS):
        ops.append(functools.partial(offline.enroll, clip, tracer))
        if i % 4 == 3:
            ops.append(functools.partial(offline.train, SIDE_TRAIN_STEPS, tracer))
    return ops


def offline_phase_from(inputs: Inputs, se_net, fb, speed) -> OfflinePhase:
    clips = [inputs.audio(e["audio"]) for e in inputs.manifest["enroll"]]
    return OfflinePhase(se_net, clips, inputs.training_batch(),
                        inputs.manifest["train_model_seed"], fb, speed)


def tick_kernel(inputs: Inputs) -> str:
    """The reference kernel that tracks the workload's hops."""
    return "ppn512" if inputs.manifest["streams"][0]["model"] == "ppn512" else "compute"


# ---------------------------------------------------------------------------
# Per-layer figures from the traced run
# ---------------------------------------------------------------------------


def per_layer(tracer, state: dict, streams: StreamPhase,
              overhead_us: float) -> tuple[dict, list[str]]:
    cols = tracer.arrays()
    problems = spans.check_nesting(cols)
    name, parent = cols["name"], cols["parent"]

    def roots(kind: str) -> np.ndarray:
        return np.flatnonzero((parent < 0) & (name == kind))

    m: dict[str, float] = {}
    ticks = roots("bench.tick")
    per_hop = max(len(ticks) * streams.n_streams, 1)
    layers = spans.layer_totals(cols, ticks)
    for layer in STREAM_LAYERS:
        m[f"{layer}.self_us"] = layers[layer]["self_ns"] / 1e3 / per_hop
        if layer in CALL_COUNTED:
            m[f"{layer}.calls"] = layers[layer]["calls"] / per_hop
    pitch = layers["frontend.estimate_pitch"]
    m["frontend.voiced_share"] = pitch["flags"] / max(pitch["calls"], 1)

    setup_layers = spans.layer_totals(cols, roots("bench.setup"))
    for layer in SETUP_LAYERS:
        m[f"{layer}.ms"] = setup_layers[layer]["dur_ns"] / 1e6
    inits = cols["dur"][name == "pipeline.session_init"]
    m["pipeline.session_init.ms"] = float(inits.mean()) / 1e6 if inits.size else 0.0
    m["pipeline.session_rss_mb"] = float(state.get("session_rss_mb", 0.0))

    enrolls = roots("bench.enroll")
    enroll_layers = spans.layer_totals(cols, enrolls)
    for layer in ENROLL_LAYERS:
        m[f"{layer}.ms"] = enroll_layers[layer]["dur_ns"] / 1e6 / max(len(enrolls), 1)
    steps = roots("bench.train_step")
    train_layers = spans.layer_totals(cols, steps)
    for layer in TRAIN_SELF_LAYERS:
        m[f"{layer}.self_ms"] = train_layers[layer]["self_ns"] / 1e6 / max(len(steps), 1)
    for layer in TRAIN_LAYERS:
        m[f"{layer}.ms"] = train_layers[layer]["dur_ns"] / 1e6 / max(len(steps), 1)
    m["trace.overhead_us"] = overhead_us
    return m, problems


def overhead(streams: StreamPhase) -> float:
    """Traced minus untraced median tick, per stream."""
    traced, plain = streams.ticks_us(traced=True), streams.ticks_us(traced=False)
    return float(np.median(traced) - np.median(plain)) / streams.n_streams


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_workload(args, inputs: Inputs, state: dict, tracer, speed) -> dict:
    """Whole rounds of the workload for --seconds.

    A streaming round is one 5 s call per stream. Between the ticks of
    streaming workloads run a few reference enrollments and short training
    runs, so that every run reports every end-to-end metric; they do not
    count towards attempted/failed, and any failure in them fails the run's
    checks. An offline_toy round enrolls the first clip, then plays a 5 s
    toy-model call conditioned on that speaker, with the other enrollments
    and one training run spread between its ticks.
    """
    fb = state["fb"]
    problems = []
    if args.workload == "offline_toy":
        offline = offline_phase_from(inputs, state["embedder"], fb, speed)
        streams = stream_phase_from(inputs, state["net"], [None], fb, speed)
        begin = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - begin < args.seconds:
            if tracer is not None:
                tracer.install()
            speaker = offline.enroll(offline.clips[0], tracer)
            if speaker is None:
                raise RuntimeError("enrollment failed; no speaker to stream")
            streams.embeddings = [speaker]
            ops = [functools.partial(offline.enroll, clip, tracer) for clip in offline.clips[1:]]
            ops.append(functools.partial(offline.train, MAIN_TRAIN_STEPS, tracer))
            streams.play_round(streams.new_engines(), tracer,
                               between=CallSchedule(ops, streams.n_hops, tracer))
            rounds += 1
        peak = workload_peak_rss_mb(state, speed)
        s_attempted, s_failed, _ = streams.failures()
        attempted = offline.attempted + s_attempted
        failed = unexpected = offline.failed + s_failed
    else:
        streams = stream_phase_from(inputs, state["net"], state["embeddings"], fb, speed)
        offline = offline_phase_from(inputs, load_embedder(inputs.file("toy_embedder.ppnw")),
                                     fb, speed)
        schedule = ReferenceSchedule(reference_ops(offline, tracer), args.seconds, tracer)
        streams.run(state.pop("engines"), args.seconds, tracer, between=schedule.run_due)
        schedule.finish()
        rounds = len(streams.ticks_ns)
        peak = workload_peak_rss_mb(state, speed)
        attempted, failed, unexpected = streams.failures()
        if offline.failed:
            problems.append("the reference enrollments or training failed")
    if tracer is not None:
        tracer.uninstall()                          # the checks below run untraced
    if unexpected:
        problems.append(f"{unexpected} operations failed outside the injected fault")
    streams.check_controls()
    problems += streams.problems + offline.problems

    info = {"rounds": rounds, "max_control_diff": streams.max_control_diff}
    if tracer is None:
        e2e = {**streams.end_to_end(), **offline.end_to_end()}
        metrics = {"setup_s": state["setup_s"], "peak_rss_mb": peak}
        for key in ("hop_samples", "hop_tail", "enroll_samples", "train_step_samples"):
            info[key] = e2e.pop(key)
        info["wall"] = {key[5:]: e2e.pop(key) for key in list(e2e) if key.startswith("wall_")}
        info["wall"]["setup_s"] = state["setup_wall_s"]
        metrics.update(e2e)
    else:
        metrics, trace_problems = per_layer(tracer, state, streams, overhead(streams))
        problems += trace_problems
        spans_path = os.path.join(HERE, "_out", f"spans-{args.workload}-seed{args.seed}.csv")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
        info.update(spans=len(tracer.name),
                    spans_file=os.path.relpath(spans_path, os.path.dirname(HERE)))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = Inputs(args.inputs)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = setup(args.workload, inputs, args.t0_ns, tracer)
    state["peak_setup_mb"] = peak_rss_mb()
    speed = refspeed.Kernels(ppn512=not args.setup_only and tick_kernel(inputs) == "ppn512")
    state["setup_wall_s"] = state["setup_s"]
    state["setup_s"] *= speed.scale("compute", SETUP_REPEATS) ** refspeed.FOLLOW["setup"]
    if args.setup_only:
        result = {"setup_s": state["setup_s"], "setup_wall_s": state["setup_wall_s"]}
    else:
        result = run_workload(args, inputs, state, tracer, speed)
        result["env"] = environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
