"""Benchmark of the bicmb-pc link simulator.

    python3 perfbench/run.py --workload golden-d2-16qam --seed 0 --seconds 20 --trace 0

Runs the simulator from the checkout's src/ through its public calls
(run_ber_point, cli.main) on one workload, checks every result, and prints
one JSON object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Metric names and units
come from BENCHMARK.json; perfbench/README.md defines them.
"""
import os

# One BLAS thread per process, set before numpy loads; pool workers inherit it.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (perfbench/ is sys.path[0])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0          # the seed whose results reference.json holds
SETUP_REPS = 12           # fewest fresh interpreters timed for setup_s
PROBE_BUILDS = 5          # pipeline constructions timed in the traced run
NOISELESS_FRAMES = 2
BAND_SIGMAS = 6           # BER band on other seeds, in reference std devs
BAND_FRAMES = 2           # plus this many frames with every info bit wrong
TAIL_BEYOND = 10          # samples required beyond the tail percentile


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str             # file in perfbench/configs
    snr_db: float           # operating point (sweep: noiseless pass and probe)
    point_batches: int = 0  # batch calls per fixed-frame point
    sweep_args: tuple = ()  # `bicmb-pc sweep` arguments; empty = fixed frames


WORKLOADS = {
    "golden-d2-16qam": Workload("golden-d2-16qam.cfg", 24.0, point_batches=8),
    "wide-d2-qpsk": Workload("wide-d2-qpsk.cfg", 9.0, point_batches=8),
    "sweep-d3-16qam-2w": Workload(
        "sweep-d3-16qam-2w.cfg", 24.0,
        sweep_args=("--snr-min", "24", "--snr-max", "27", "--snr-step", "1",
                    "--workers", "2")),
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bicmb_pc import cli, sim_engine
config = cli.load_config(sys.argv[2], int(sys.argv[3]))
build = getattr(sim_engine, "_FramePipeline", None)
if build is not None:
    build(config)
print(time.perf_counter() - t0)
"""


# --- the program under test ------------------------------------------------

@dataclasses.dataclass
class Program:
    cli: object
    sim: object
    n_states: int


def load_program() -> Program:
    """Import bicmb_pc from SRC; exit non-zero when it is not there."""
    package = SRC / "bicmb_pc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no bicmb_pc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bicmb_pc
    from bicmb_pc import cli, fec, sim_engine
    if Path(bicmb_pc.__file__).resolve().parent != package:
        raise SystemExit(f"error: bicmb_pc imported from {bicmb_pc.__file__}")
    code = getattr(fec, "DEFAULT_CODE", None)
    return Program(cli=cli, sim=sim_engine,
                   n_states=getattr(code, "n_states", 64))


def make_pipeline(prog: Program, config):
    build = getattr(prog.sim, "_FramePipeline", None)
    return build(config) if build is not None else None


def sweep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def fixed_point(prog, wl, config, pipe, point, check, latencies):
    """Batch calls point*point_batches ... ; returns (seconds, frames).

    Batch call i is run_ber_point over frames [0, batch_frames) of SNR
    index i, so every call draws fresh frames through the public API.
    """
    frames = 0
    start = time.perf_counter()
    first = point * wl.point_batches
    for index in range(first, first + wl.point_batches):
        t0 = time.perf_counter()
        try:
            res = prog.sim.run_ber_point(config, wl.snr_db, snr_index=index,
                                         pipeline=pipe)
        except Exception as exc:  # counted as a failed operation
            check.op(False, f"batch {index}: {exc!r}")
        else:
            frames += res.frames
            check.batch(index, res)
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, frames


def sweep_rep(prog, wl, cfg_path, seed, rep, tracer=None):
    """One `bicmb-pc sweep` through cli.main; (seconds, rc, csv bytes, rows)."""
    out = OUT / f"sweep-{os.getpid()}.csv"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out),
            *wl.sweep_args, "--seed", str(sweep_seed(seed, rep))]
    main = prog.cli.main if tracer is None else tracer.wrap(prog.cli.main, "cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception as exc:  # counted as failed points
        rc = repr(exc)
    seconds = time.perf_counter() - start
    try:
        data = out.read_bytes()
        _, rows = prog.sim.read_csv(out)
    except (OSError, ValueError, KeyError):
        data, rows = b"", []
    finally:
        out.unlink(missing_ok=True)
    return seconds, rc, data, rows


def noiseless_pass(prog, wl, config, check):
    """A few frames without noise must decode with zero errors."""
    small = dataclasses.replace(config, batch_frames=NOISELESS_FRAMES,
                                max_frames=NOISELESS_FRAMES,
                                target_bit_errors=10 ** 9)
    try:
        res = prog.sim.run_ber_point(small, wl.snr_db, noiseless=True)
    except Exception as exc:  # counted as a failed operation
        check.op(False, f"noiseless pass: {exc!r}")
        return
    check.op(res.bit_errors == 0 and res.frames == NOISELESS_FRAMES,
             f"noiseless pass: {res.frames} frames, {res.bit_errors} errors")


# --- correctness ----------------------------------------------------------

def ber_band(parts, frame_bits) -> tuple[float, float]:
    """(expected bit errors, allowed deviation) for pooled point indices.

    parts holds (bits, n_ops, reference ops) per point index.  The count
    may differ from the reference rate by BAND_SIGMAS standard deviations,
    built from the reference's per-operation spread, plus BAND_FRAMES
    frames of frame_bits errors each: errors cluster in deep-fade frames,
    so one bad frame at high SNR can carry hundreds of errors the reference
    never saw.  That allowance does not grow with the run, so a change that
    raises the BER by a sizeable factor fails.
    """
    expected = var = 0.0
    for bits, n_ops, ref_ops in parts:
        rate = sum(e for _, e in ref_ops) / sum(b for b, _ in ref_ops)
        expected += rate * bits
        var += n_ops * statistics.fmean([(e - rate * b) ** 2 for b, e in ref_ops])
    return expected, BAND_SIGMAS * math.sqrt(var) + BAND_FRAMES * frame_bits


class Checker:
    """Counts operations and failures against reference.json.

    On the default seed each batch call and each sweep CSV must equal the
    recorded one; on any seed the pooled BER of each point index, and on
    the sweep of all of them together, must fall in a band around the
    reference BER.
    """

    def __init__(self, reference: dict, seed: int, frame_bits: int):
        self.ref = reference
        self.frame_bits = frame_bits
        self.exact = seed == DEFAULT_SEED
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.bands: dict[str, dict] = {}
        self._tally = collections.defaultdict(lambda: [0, 0, 0])  # bits, errors, ops

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def _add(self, key, bits, errors):
        t = self._tally[key]
        t[0] += bits
        t[1] += errors
        t[2] += 1

    def batch(self, index, res):
        self._add(0, res.info_bits, res.bit_errors)
        ref = self.ref["batches"]
        got = [res.info_bits, res.bit_errors]
        self.op(not (self.exact and index < len(ref)) or got == ref[index],
                f"batch {index}: got {got}")

    def sweep(self, rep, rc, data, rows):
        ref_rows = self.ref["points"][0]
        if rc != 0 or len(rows) != len(ref_rows):
            for _ in ref_rows:
                self.op(False, f"sweep {rep}: exit {rc}, {len(rows)} rows")
            return
        exact = self.exact and rep < len(self.ref["sha256"])
        same_csv = not exact or hashlib.sha256(data).hexdigest() == self.ref["sha256"][rep]
        for i, row in enumerate(rows):
            self._add(i, row.info_bits, row.bit_errors)
            got = [row.frames, row.info_bits, row.bit_errors]
            self.op(same_csv and (not exact or got == self.ref["points"][rep][i]),
                    f"sweep {rep} point {i}: got {got}, csv equal {same_csv}")

    def finish(self):
        if "batches" in self.ref:
            ref_ops = {0: self.ref["batches"]}
        else:
            ref_ops = {i: [rep[i][1:] for rep in self.ref["points"]]
                       for i in range(len(self.ref["points"][0]))}
        groups = {str(key): [key] for key in sorted(self._tally)}
        if len(groups) > 1:
            groups["all"] = sorted(self._tally)
        for name, keys in groups.items():
            errors = sum(self._tally[k][1] for k in keys)
            expected, slack = ber_band(
                [(self._tally[k][0], self._tally[k][2], ref_ops[k]) for k in keys],
                self.frame_bits)
            self.bands[name] = {"errors": errors, "expected": expected, "slack": slack}
            self.op(abs(errors - expected) <= slack,
                    f"ber band {name}: {errors} errors, expected {expected:.0f} "
                    f"+- {slack:.0f}")


# --- environment ----------------------------------------------------------

def blas_threads():
    """Threads the bundled OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in PIN_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# --- measurement ----------------------------------------------------------

def measure_setup(cfg_path: Path, seed: int, reps: int) -> list[float]:
    """Seconds of import + config load + pipeline in `reps` fresh interpreters."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path), str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it.

    With n samples that is the order statistic with exactly TAIL_BEYOND
    above it, percentile 100 (n - TAIL_BEYOND) / n; below 2 TAIL_BEYOND + 1
    samples the tail falls back to the median.
    """
    ms = sorted(1000.0 * s for s in seconds)
    n = len(ms)
    median = statistics.median(ms)
    if n > 2 * TAIL_BEYOND:
        tail, pct = ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = median, 50.0
    return {"p50": median, "tail": tail, "tail_percentile": pct, "samples": n,
            "beyond_tail": sum(x > tail for x in ms)}


def repeat_within(seconds: float, step) -> float:
    """Call step(0), step(1), ... while the next call should end in time.

    Always makes one call; stops when the elapsed time plus the median call
    so far would pass `seconds`, so a run never overshoots by a whole call.
    Returns the elapsed wall time.
    """
    start = time.perf_counter()
    durations = []
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
    return time.perf_counter() - start


def run_untraced(prog, wl, config, cfg_path, seed, seconds, check):
    """Whole points within `seconds`, each followed by one setup_s sample.

    Spreading the set-up samples over the run lets their median see the
    same host speed as the points.
    """
    latencies, point_times, frames, setups = [], [], [], []
    if wl.sweep_args:
        records = []

        def step(rep):
            with tracing.pool_hook(records):
                secs, rc, data, rows = sweep_rep(prog, wl, cfg_path, seed, rep)
            check.sweep(rep, rc, data, rows)
            point_times.append(secs)
            frames.append(sum(r.frames for r in rows))
            setups.extend(measure_setup(cfg_path, seed, 1))

        wall = repeat_within(seconds, step)
        # batch latency: submit to result of each pool batch; whole sweeps
        # if the program no longer runs one
        latencies = [lat for lat, _ in records] or point_times
    else:
        pipe = make_pipeline(prog, config)

        def step(point):
            secs, got = fixed_point(prog, wl, config, pipe, point, check, latencies)
            point_times.append(secs)
            frames.append(got)
            setups.extend(measure_setup(cfg_path, seed, 1))

        wall = repeat_within(seconds, step)
    setups.extend(measure_setup(cfg_path, seed, SETUP_REPS - len(setups)))
    lat = latency_summary(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ms_per_frame": 1000.0 * sum(point_times) / max(sum(frames), 1),
        "batch_ms_p50": lat["p50"],
        "batch_ms_tail": lat["tail"],
        "sweep_s": statistics.median(point_times),
    }
    detail = {"latency": lat, "point_seconds": point_times, "frames": sum(frames),
              "wall_s": wall, "setup_seconds": setups}
    return metrics, detail


def run_traced(prog, wl, config, cfg_path, seed, seconds, check):
    """Pairs of untraced and traced runs of the same point (or sweep).

    Per-layer values are per point (F frames, or one whole sweep), mean
    over the traced points.
    """
    tracer = tracing.Tracer(config.constellation_order, config.dim, prog.n_states)
    pipe = None if wl.sweep_args else make_pipeline(prog, config)
    per_point, plain_s, traced_s, frames_per_point = [], [], [], []

    def one(point, traced):
        if wl.sweep_args:
            records = []
            hooks = contextlib.ExitStack()
            if traced:
                hooks.enter_context(tracer.patched())
            hooks.enter_context(tracing.pool_hook(records, tracer if traced else None,
                                                  tracer.absent))
            with hooks:
                secs, rc, data, rows = sweep_rep(prog, wl, cfg_path, seed, point,
                                                 tracer if traced else None)
            check.sweep(point, rc, data, rows)
            computed = sum(f.result()[0] // config.n_info for _, f in records
                           if f.exception() is None)
            return secs, sum(r.frames for r in rows), computed
        if traced:
            with tracer.patched():
                secs, got = fixed_point(prog, wl, config, pipe, point, check, [])
        else:
            secs, got = fixed_point(prog, wl, config, pipe, point, check, [])
        return secs, got, 0

    def pair(point):
        for traced in ((False, True) if point % 2 == 0 else (True, False)):
            lo = len(tracer.spans)
            tracer.counts.clear()
            secs, frames, pool_frames = one(point, traced)
            if not traced:
                plain_s.append(secs)
                continue
            hi = len(tracer.spans)
            values = dict(tracer.self_times(lo, hi))
            values.update(tracer.counts)
            values["sim_engine.frames_computed"] = (
                values.get("sim_engine.frames_computed", 0) + pool_frames)
            values["trace.point_s"] = tracer.root_time(lo, hi)
            per_point.append(values)
            traced_s.append(secs)
            frames_per_point.append(frames)

    repeat_within(seconds, pair)
    # the spans against the separately measured wall time of the same points
    coverage = sum(v["trace.point_s"] for v in per_point) / sum(traced_s)

    # the mean keeps the identity: self times sum to trace.point_s
    layer = collections.defaultdict(float)
    for name in set().union(*per_point):
        layer[name] = statistics.fmean(v.get(name, 0) for v in per_point)
    # redraws are counted in-process only, so the sweep reports none
    drawn = layer["channel_model.channels_drawn"]
    computed = layer["sim_engine.frames_computed"]
    layer["channel_model.resamples"] = max(0, drawn - computed) if drawn else 0
    layer["sim_engine.useful_frac"] = (
        layer["sim_engine.frames_absorbed"] / computed if computed else 1.0)

    builds = []
    for _ in range(PROBE_BUILDS):
        t0 = time.perf_counter()
        make_pipeline(prog, config)
        builds.append(time.perf_counter() - t0)
    layer["sim_engine.pipeline_build_s"] = statistics.median(builds)

    probe_cfg = dataclasses.replace(config, max_frames=config.batch_frames)
    probe_pipe = make_pipeline(prog, probe_cfg)
    try:
        layer["detector.peak_alloc_mb"] = tracing.detector_peak_alloc_mb(
            lambda: prog.sim.run_ber_point(probe_cfg, wl.snr_db, pipeline=probe_pipe))
    except Exception as exc:  # counted as a failed operation
        check.op(False, f"tracemalloc probe: {exc!r}")

    frames = statistics.median(frames_per_point)
    layer["trace.overhead_ms_per_frame"] = (
        1000.0 * (statistics.median(traced_s) - statistics.median(plain_s))
        / max(frames, 1))
    absent = sorted(set(tracer.absent))
    layer["trace.absent_spans"] = len(absent)
    layer["trace.coverage"] = coverage

    spans_file = OUT / f"spans-{wl.config[:-4]}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    detail = {"per_point": per_point, "untraced_point_s": plain_s,
              "traced_point_s": traced_s, "absent": absent,
              "spans_file": str(spans_file.relative_to(ROOT))}
    return layer, detail


# --- entry point ----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prog = load_program()
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    cfg_path = HERE / "configs" / wl.config
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    config = prog.cli.load_config(str(cfg_path), args.seed)
    check = Checker(reference, args.seed, config.n_info)
    noiseless_pass(prog, wl, config, check)
    run = run_traced if args.trace else run_untraced
    metrics, detail = run(prog, wl, config, cfg_path, args.seed, args.seconds, check)
    check.finish()
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["failed_frac"] = check.failed / check.attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:  # layers a workload does not reach did no work
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = environment(args.seed)
    detail.update(env=env, notes=check.notes, ber_band=check.bands,
                  workload=args.workload, trace=args.trace, result=result)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print("# env " + json.dumps(env))
    if not args.trace:
        lat = detail["latency"]
        print(f"# batch_ms_tail is p{lat['tail_percentile']:.1f} of {lat['samples']} "
              f"batch calls ({lat['beyond_tail']} beyond)")
    for note in check.notes[:20]:
        print(f"# failed: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
