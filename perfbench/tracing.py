"""In-memory spans around the calls that bicmb_pc.sim_engine makes.

Spans are recorded from the benchmark's side only: each traced name is
replaced by a wrapper for the duration of a ``Tracer.patched`` block and
restored afterwards.  A name the program no longer has is recorded as
absent; its time then falls into the self time of the enclosing span.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import math
import time
import tracemalloc

# span name -> per-layer metric that receives the span's self time
SELF_METRIC = {
    "sim_engine.run_ber_point": "sim_engine.self_s",
    "channel_model.assemble_channel": "channel_model.assemble_s",
    "numpy.linalg.svd": "channel_model.svd_s",
    "fec.conv_encode": "fec.conv_encode_s",
    "fec.map_bits": "fec.map_bits_s",
    "pstbc.encode_batch": "pstbc.encode_batch_s",
    "detector.exhaustive": "detector.exhaustive_s",
    "detector.sphere": "detector.sphere_s",
    "fec.viterbi_decode_batch": "fec.viterbi_s",
    "sim_engine.wait": "sim_engine.wait_s",
    "sim_engine.write_csv": "sim_engine.write_csv_s",
    "cli.main": "cli.sweep_s",
}

_DETECTOR_TARGETS = (
    ("bicmb_pc.sim_engine", "_FramePipeline._metrics_batched"),
    ("bicmb_pc.sim_engine", "MetricEngine.bit_metrics"),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when any part is gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def _replaced(targets, make, absent):
    """Replace each (module, path) by make(original, (module, path))."""
    saved = []
    try:
        for module, path in targets:
            found = _resolve(module, path)
            if found is None:
                absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, make(original, (module, path)))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _svd_flops(a) -> int:
    """Computed: singular values only, complex m x n (m >= n).

    Golub-Kahan bidiagonalization costs 4mn^2 - 4n^3/3 real flops; a
    complex multiply-add is four real ones.
    """
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = max(shape[-2:]), min(shape[-2:])
    return math.prod(shape[:-2]) * round(4 * (4 * m * n * n - 4 * n ** 3 / 3))


class Tracer:
    """Spans as [name, start, end, parent index] plus exact counters."""

    def __init__(self, order: int, dim: int, n_states: int):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cands_per_group = order ** dim
        self._n_states = n_states

    def wrap(self, fn, name, count=None):
        """fn recorded as a span; name may be a function of the call args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [label, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result
        return traced

    # counters, computed from call shapes -------------------------------

    def _count_groups(self, n_groups: int, exhaustive: bool):
        self.counts["detector.groups"] += n_groups
        self.counts["detector.candidates"] += n_groups * self._cands_per_group
        if exhaustive:
            dist = n_groups * self._cands_per_group * 8
            self.counts["detector.dist_bytes"] = max(
                self.counts["detector.dist_bytes"], dist)

    def _count_batched(self, args, _result):
        groups = args[2]
        self._count_groups(groups.shape[0] * groups.shape[1], True)

    def _count_bit_metrics(self, args, _result):
        self._count_groups(len(args[1]), _is_exhaustive(args[0]))

    def _count_viterbi(self, args, _result):
        n_frames, two_t = args[0].shape[:2]
        self.counts["fec.viterbi_acs_ops"] += n_frames * (two_t // 2) * self._n_states
        self.counts["sim_engine.frames_computed"] += n_frames
        self.counts["sim_engine.batches_submitted"] += 1

    def _count_point(self, _args, result):
        self.counts["sim_engine.frames_absorbed"] += result.frames

    def _count_channel(self, _args, _result):
        self.counts["channel_model.channels_drawn"] += 1

    def _count_svd(self, args, _result):
        self.counts["channel_model.svd_flops"] += _svd_flops(args[0])

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced name that the program still has."""
        sim = "bicmb_pc.sim_engine"
        table = {
            (sim, "run_ber_point"): ("sim_engine.run_ber_point", self._count_point),
            (sim, "assemble_channel"): ("channel_model.assemble_channel",
                                        self._count_channel),
            ("numpy.linalg", "svd"): ("numpy.linalg.svd", self._count_svd),
            (sim, "conv_encode"): ("fec.conv_encode", None),
            (sim, "QamConstellation.map_bits"): ("fec.map_bits", None),
            (sim, "encode_batch"): ("pstbc.encode_batch", None),
            (sim, "_FramePipeline._metrics_batched"): ("detector.exhaustive",
                                                       self._count_batched),
            (sim, "MetricEngine.bit_metrics"): (_detector_span,
                                                self._count_bit_metrics),
            (sim, "viterbi_decode_batch"): ("fec.viterbi_decode_batch",
                                            self._count_viterbi),
            ("bicmb_pc.cli", "write_csv"): ("sim_engine.write_csv", None),
        }

        def make(original, target):
            name, count = table[target]
            return self.wrap(original, name, count)

        with _replaced(table, make, self.absent):
            yield

    # aggregation -------------------------------------------------------

    def self_times(self, lo: int, hi: int) -> dict:
        """Per-metric self time of spans[lo:hi]: duration minus children."""
        child = collections.defaultdict(float)
        durations = {}
        for i in range(lo, hi):
            name, start, end, parent = self.spans[i]
            durations[i] = end - start
            if parent >= lo:
                child[parent] += end - start
        totals = collections.defaultdict(float)
        for i, dur in durations.items():
            metric = SELF_METRIC.get(self.spans[i][0])
            if metric is not None:
                totals[metric] += dur - child[i]
        return totals

    def root_time(self, lo: int, hi: int) -> float:
        return sum(end - start for _, start, end, parent in self.spans[lo:hi]
                   if parent < lo)


def _is_exhaustive(engine) -> bool:
    return getattr(engine, "mode", "exhaustive") != "sphere"


def _detector_span(args) -> str:
    return "detector.exhaustive" if _is_exhaustive(args[0]) else "detector.sphere"


def pool_class(base, records, tracer: Tracer | None = None):
    """ProcessPoolExecutor subclass that timestamps every submitted batch.

    records receives (submit-to-result seconds, future) per batch.  With a
    tracer it also counts pool starts and submits and records the time the
    caller blocks in Future.result as sim_engine.wait spans.
    """
    class BenchPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if tracer is not None:
                tracer.counts["sim_engine.pool_starts"] += 1

        def submit(self, fn, /, *args, **kwargs):
            sent = time.perf_counter()
            fut = super().submit(fn, *args, **kwargs)
            fut.add_done_callback(
                lambda f: records.append((time.perf_counter() - sent, f)))
            if tracer is not None:
                tracer.counts["sim_engine.batches_submitted"] += 1
                fut.result = tracer.wrap(fut.result, "sim_engine.wait")
            return fut
    return BenchPool


@contextlib.contextmanager
def pool_hook(records, tracer: Tracer | None = None, absent=None):
    """Swap sim_engine.ProcessPoolExecutor for pool_class while active."""
    def make(original, _target):
        return pool_class(original, records, tracer)

    with _replaced([("bicmb_pc.sim_engine", "ProcessPoolExecutor")], make,
                   absent if absent is not None else []):
        yield


def detector_peak_alloc_mb(run_once) -> float:
    """Largest tracemalloc peak over the detector calls of run_once()."""
    peaks = []

    def make(original, _target):
        @functools.wraps(original)
        def probe(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return probe

    with _replaced(_DETECTOR_TARGETS, make, []):
        tracemalloc.start()
        try:
            run_once()
        finally:
            tracemalloc.stop()
    return max(peaks, default=0) / 2 ** 20
