"""Monte Carlo link simulation over block-fading distributed-subarray channels.

One frame = one channel realization carrying a whole interleaved coded
block.  Frames are reproducible in isolation: frame k of SNR point i uses
np.random.default_rng([master_seed, 1, i, k]), so results are identical
for any worker count or batch schedule.  Points stop at a batch boundary
once the bit-error or frame budget is reached.

Batches run on a runner: the in-process _FramePipeline, or a _PoolRunner
whose pool workers each keep one _FramePipeline per config.  _open_runner
is the one place that chooses.  One scheduler, _run_points, serves
run_ber_point (one point) and run_sweep (the grid, on one runner): it keeps
one batch per worker unfinished, runs the batches known to be needed
first, across points, and absorbs each point's batches in frame order.

SVD beamforming reduces each channel H to the D strongest subchannels:
W^H (H F Z + N) = diag(lam) Z + W^H N, and W^H N stays CN(0, n0) white
because W has orthonormal columns, so frames are simulated in that reduced
form.  The singular values come from each channel's P x P path core
(channel_model.path_core), one batched SVD per batch; no dense H is built.
A block's channels come from one draw_paths call and its noise from one
cn_noise call; each frame's generator still makes its own draws in order.
Noise follows n0 = total_tx / snr.  A channel whose weakest used singular
value is numerically zero is redrawn from the same frame stream.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import signal
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

from .channel_model import ArrayGeometry, _check_beta, _check_paths, draw_paths, path_core
from .detector import MetricEngine, Workspace
from .fec import (N_TAIL, QamConstellation, bits_per_symbol, conv_encode, interleaver,
                  viterbi_decode_batch)
from .pstbc import SUPPORTED_DIMS, build_params, encode_batch, group_decompose

_RESAMPLE_CAP = 1000
_BLOCK_FRAMES = 64          # frames simulated at once; bounds a batch's memory
# A block's working set grows by 26-48 bytes per coded bit of each frame
# (tracemalloc peak of a fresh pipeline's first 64-frame batch, from 1024
# to 16384 info bits, D = 2 to peeled D = 4 16-QAM); at 128 bytes a 1 GiB
# block budget admits 65536 info bits.
_BLOCK_BYTES = 1 << 30
_BYTES_PER_CODED_BIT = 128
_MAX_INFO_BITS = _BLOCK_BYTES // (_BLOCK_FRAMES * 2 * _BYTES_PER_CODED_BIT)
_DEGENERATE_REL_TOL = 1e-12
# A pool starts all its workers at once and keeps one batch per worker in
# flight, so the count is capped; past the CPU count nothing is gained.
MAX_WORKERS = 64


def is_degenerate(lam: np.ndarray):
    """True where the weakest stream is numerically dead; lam rows may stack."""
    lam = np.asarray(lam)
    return lam[..., -1] <= _DEGENERATE_REL_TOL * lam[..., 0]


def noise_variance(total_tx: int, snr_db: float) -> float:
    """n0 = total_tx / 10^(snr_db / 10); snr_db = inf gives 0 (noiseless)."""
    if total_tx < 1:
        raise ValueError("total_tx must be positive")
    if np.isnan(float(snr_db)):
        raise ValueError(f"SNR {snr_db} dB is not a number")
    try:
        return total_tx / (10.0 ** (float(snr_db) / 10.0))
    except ArithmeticError:     # 10 ** (snr/10) overflowed, or underflowed to zero
        raise ValueError(f"SNR {snr_db} dB is out of floating-point range") from None


def cn_noise(rngs, shape: tuple, n0: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian, variance n0 per entry.

    One (*shape) draw per generator, stacked to (len(rngs), *shape); each
    generator fills its own slab of (real, imaginary) pairs through a float
    view of the result, and the scaling runs once, in place, for the stack.
    """
    if not 0 <= n0 < np.inf:    # also rejects NaN
        raise ValueError(f"n0 must be finite and nonnegative, got {n0}")
    noise = np.empty((len(rngs), *shape), dtype=complex)
    pairs = noise.view(float).reshape(*noise.shape, 2)
    for rng, slab in zip(rngs, pairs):
        rng.standard_normal(out=slab)
    pairs *= np.sqrt(n0 / 2.0)
    return noise


def _grid(values) -> tuple:
    """Hashable nested-tuple copy of a validated (l_r, l_t) grid."""
    return tuple(map(tuple, np.asarray(values).tolist()))


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated link; hashable and serializable."""

    n_t: int = 16
    n_r: int = 8
    l_t: int = 2
    l_r: int = 2
    dim: int = 2
    beta: tuple = ((0.01, 0.01), (0.01, 0.01))
    n_paths: tuple = ((2, 2), (2, 2))
    constellation_order: int = 16
    nominal_info_bits: int = 1024
    master_seed: int = 0
    spacing: float = 0.5
    batch_frames: int = 64
    max_frames: int = 20000
    target_bit_errors: int = 200

    def __post_init__(self):
        if self.dim not in SUPPORTED_DIMS:
            raise ValueError(f"dim must be one of {SUPPORTED_DIMS}")
        geom = self.geometry  # validates antenna counts and spacing
        if self.dim > min(geom.total_tx, geom.total_rx):
            raise ValueError("dim exceeds the antenna dimensions")
        b = _check_beta(self.beta, geom)
        p = _check_paths(self.n_paths, geom)
        object.__setattr__(self, "beta", _grid(self.beta))
        object.__setattr__(self, "n_paths", _grid(p))
        if b.sum() == 0:
            raise ValueError("beta must have a positive sum")
        if self.dim > int(p[b > 0].sum()):
            raise ValueError("channel rank cannot support this many streams")
        # n_info also rejects unsupported constellation orders (fec.bits_per_symbol)
        if self.n_info < 1:
            raise ValueError("nominal_info_bits too small for one codeword")
        if self.nominal_info_bits > _MAX_INFO_BITS:
            raise ValueError(
                f"nominal_info_bits = {self.nominal_info_bits} exceeds the ceiling of "
                f"{_MAX_INFO_BITS}, which keeps one {_BLOCK_FRAMES}-frame block "
                f"within {_BLOCK_BYTES >> 20} MiB")
        for name in ("batch_frames", "max_frames", "target_bit_errors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(n_t=self.n_t, n_r=self.n_r, l_t=self.l_t,
                             l_r=self.l_r, spacing=self.spacing)

    @property
    def n_info(self) -> int:
        """Largest info length <= nominal filling whole codewords with tail."""
        step = bits_per_symbol(self.constellation_order) * self.dim ** 2 // 2
        usable = (self.nominal_info_bits + N_TAIL) // step * step
        return usable - N_TAIL

    @property
    def n_coded(self) -> int:
        return 2 * (self.n_info + N_TAIL)

    @property
    def n_symbols(self) -> int:
        return self.n_coded // bits_per_symbol(self.constellation_order)

    @property
    def n_codewords(self) -> int:
        return self.n_symbols // self.dim ** 2

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def config_hash(config: SystemConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PointResult:
    snr_db: float
    frames: int
    info_bits: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits if self.info_bits else 0.0


class _FramePipeline:
    """Per-config precomputed state shared by every frame."""

    workers = 1     # a runner: batches run one at a time, inside submit

    def __init__(self, config: SystemConfig):
        self.config = config
        self.params = build_params(config.dim)
        self.constellation = QamConstellation(config.constellation_order)
        self.geom = config.geometry
        self.perm, self.deint_rows = interleaver(config.n_coded, config.master_seed)
        self.beta = np.asarray(config.beta, dtype=float)
        self.paths = np.asarray(config.n_paths)
        self.work = Workspace()     # the detector's buffers, reused by every block

    def submit(self, *batch) -> Future:
        """Run the batch now; returns its completed future of (info_bits, errors)."""
        future = Future()
        try:
            future.set_result(self.run_batch(*batch))
        except Exception as exc:    # raised where the scheduler absorbs the batch
            future.set_exception(exc)
        return future

    def close(self):
        """Nothing to release: batches run in this process."""

    def run_batch(self, snr_db: float, snr_index: int, frame_start: int, n_frames: int):
        """Simulate frames [frame_start, frame_start + n_frames).

        Returns (info_bits_total, bit_errors_total).  snr_db = inf is noiseless.
        Frames are independent and run in blocks of at most _BLOCK_FRAMES,
        so memory stays bounded for any batch size.
        """
        n0 = noise_variance(self.geom.total_tx, snr_db)
        stop = frame_start + n_frames
        errors = sum(self._run_block(n0, snr_index, start, min(_BLOCK_FRAMES, stop - start))
                     for start in range(frame_start, stop, _BLOCK_FRAMES))
        return n_frames * self.config.n_info, errors

    def _run_block(self, n0: float, snr_index: int, frame_start: int, n_frames: int) -> int:
        """Bit errors of frames [frame_start, frame_start + n_frames) at noise n0.

        Each stage's arrays are dropped once the next stage has them, and the
        detector reuses the pipeline's workspace, so a block's working set
        stays small and is not paged in afresh for every block.  Mapping
        draws no random numbers, so symbols are mapped after the channel draw
        without moving any frame's stream.
        """
        cfg = self.config
        d, n_info, n_codewords = cfg.dim, cfg.n_info, cfg.n_codewords
        rngs = [np.random.default_rng([cfg.master_seed, 1, snr_index, frame_start + i])
                for i in range(n_frames)]

        info = np.stack([r.integers(0, 2, n_info) for r in rngs]).astype(np.uint8)
        lam = self._singular_values(rngs)
        x = self.constellation.map_bits(
            conv_encode(np.pad(info, ((0, 0), (0, N_TAIL))))[:, self.perm])
        y = encode_batch(self.params, x.reshape(n_frames, n_codewords, d, d))
        del x
        y *= lam[:, None, :, None]
        y += cn_noise(rngs, y.shape[1:], n0)
        groups = group_decompose(y, self.params).reshape(n_frames, n_codewords * d, d)
        del y

        engine = MetricEngine(self.params, self.constellation, lam)
        # gamma rows (group, position, bit slot) run in interleaved coded-bit
        # order; the decoder reads coded bit k from row deint_rows[k] in place
        gamma = engine.bit_metrics(groups, self.work).reshape(n_frames, -1, 2)
        del groups
        decoded = viterbi_decode_batch(gamma, self.deint_rows)
        return int((decoded != info).sum())

    def _singular_values(self, rngs) -> np.ndarray:
        """The d strongest singular values of each frame's channel, (frames, d).

        Each pass draws the pending frames (all of them at first) in one
        draw_paths call, each channel from its frame's own stream, and keeps
        the degenerate ones; the path factors are freed on return.
        """
        d = self.config.dim
        lam, pending = np.empty((len(rngs), d)), np.arange(len(rngs))
        for _ in range(_RESAMPLE_CAP + 1):
            factors = draw_paths([rngs[i] for i in pending], self.geom, self.beta, self.paths)
            cores = path_core(*factors)
            lam[pending] = np.linalg.svd(cores, compute_uv=False)[:, :d]
            pending = pending[is_degenerate(lam[pending])]
            if not pending.size:
                return lam
        raise ValueError(
            f"channel rank starved: {_RESAMPLE_CAP} redraws gave fewer "
            f"than {d} usable streams; check beta, n_paths and spacing")


def _batch_worker(config: SystemConfig, *batch):
    return _worker_pipeline(config).run_batch(*batch)


@functools.lru_cache(maxsize=1)
def _worker_pipeline(config: SystemConfig) -> _FramePipeline:
    """The pipeline a pool worker keeps across every batch of its config."""
    return _FramePipeline(config)


def _ignore_sigint():
    """Pool worker start-up: Ctrl-C is the parent's to handle, which shuts the pool down."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class _PoolRunner:
    """Batches on a process pool; same submit/close interface as _FramePipeline."""

    def __init__(self, config: SystemConfig, workers: int):
        self.config, self.workers = config, workers
        self.pool = ProcessPoolExecutor(max_workers=workers, initializer=_ignore_sigint)

    def submit(self, *batch) -> Future:
        return self.pool.submit(_batch_worker, self.config, *batch)

    def close(self):
        self.pool.shutdown(cancel_futures=True)


def _check_workers(workers: int) -> None:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be from 1 to {MAX_WORKERS}, got {workers}")


def _open_runner(config: SystemConfig, workers: int):
    """The one place that picks in-process or pooled batches."""
    return _FramePipeline(config) if workers == 1 else _PoolRunner(config, workers)


def _run_points(runner, points, noiseless: bool = False):
    """Yield the PointResult of each (snr_db, snr_index) point, in order.

    While there is work, runner.workers batches are unfinished, dropped ones
    still running included.  A point's next batch is needed when the point
    is unfinished and none of its batches is in flight (so every first batch
    is); the lowest such point is served first.  Only when no batch is
    needed does the lowest unfinished point with a batch left under its cap
    get a speculative one; batch k exists while k * batch_frames <
    max_frames.  Each point absorbs its batches in frame order and checks
    the stop rule on cumulative counts, so the results are those of a
    serial run for any worker count or completion order; batches past a
    stop are dropped.  A failed batch raises where it would be absorbed
    once every earlier point has been yielded, the (point, frame) order in
    which a serial run meets it.  Dropped batches are awaited at the end.
    """
    cfg = runner.config
    size, bit_cap = cfg.batch_frames, cfg.max_frames * cfg.n_info
    n = len(points)
    sent = [0] * n                      # batches submitted per point
    pending = [[] for _ in points]      # futures not yet absorbed, in frame order
    bits, errors, done = [0] * n, [0] * n, [False] * n
    running, first = set(), 0           # first: the lowest unfinished point

    def pick():
        unfinished = [i for i in range(first, n) if not done[i]]
        needed = [i for i in unfinished if not pending[i]]
        spare = [i for i in unfinished if sent[i] * size < cfg.max_frames]
        return (needed or spare or [None])[0]

    while first < n:
        while len(running) < runner.workers and (i := pick()) is not None:
            snr = float("inf") if noiseless else points[i][0]   # noise_variance(., inf) == 0
            future = runner.submit(snr, points[i][1], sent[i] * size, size)
            pending[i].append(future)
            sent[i] += 1
            running.add(future)
        running = wait(running, return_when=FIRST_COMPLETED).not_done
        for i in range(first, n):
            while not done[i] and pending[i] and pending[i][0].done():
                if i > first and pending[i][0].exception() is not None:
                    break
                nfo, err = pending[i].pop(0).result()
                bits[i], errors[i] = bits[i] + nfo, errors[i] + err
                done[i] = errors[i] >= cfg.target_bit_errors or bits[i] >= bit_cap
            while first < n and done[first]:
                yield PointResult(snr_db=points[first][0], frames=bits[first] // cfg.n_info,
                                  info_bits=bits[first], bit_errors=errors[first])
                first += 1
    wait(running)


def run_ber_point(config: SystemConfig, snr_db: float, snr_index: int = 0,
                  workers: int = 1, noiseless: bool = False,
                  pipeline: _FramePipeline | _PoolRunner | None = None) -> PointResult:
    """Run batches of one point until the error or frame budget is met.

    The stop rule is evaluated on cumulative counts in frame order, so the
    result is byte-identical for any worker count (see _run_points).
    pipeline is a runner for this config from _open_runner (a
    _FramePipeline or a _PoolRunner), which sets how many batches run at
    once; without one, a runner for `workers` is opened here and closed
    before returning.
    """
    _check_workers(workers)
    runner = (contextlib.nullcontext(pipeline) if pipeline is not None
              else contextlib.closing(_open_runner(config, workers)))
    with runner as run:
        if run.config != config:
            raise ValueError("pipeline was built for a different config")
        (result,) = _run_points(run, [(snr_db, snr_index)], noiseless)
    return result


def run_sweep(config: SystemConfig, snr_grid, workers: int = 1) -> list[PointResult]:
    """Every point of the grid on one runner (so at most one pool), scheduled together."""
    grid = [float(s) for s in np.atleast_1d(np.asarray(snr_grid, dtype=float))]
    if not grid:
        raise ValueError("empty SNR grid")
    _check_workers(workers)
    with contextlib.closing(_open_runner(config, workers)) as runner:
        return list(_run_points(runner, [(s, i) for i, s in enumerate(grid)]))


_CSV_COLUMNS = ("snr_db", "frames", "info_bits", "bit_errors")


def write_csv(path, results: list[PointResult], cfg_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow([*_CSV_COLUMNS, "ber"])
        for r in results:
            writer.writerow([f"{r.snr_db:.6f}", r.frames, r.info_bits,
                             r.bit_errors, f"{r.ber:.10e}"])


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 raise a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_csv(path):
    """Returns (config_hash or None, list of PointResult)."""
    lines = read_lines(path)
    first = lines[0].strip() if lines else ""
    stored = first.split("=", 1)[1] if first.startswith("# config_hash=") else None
    reader = csv.DictReader(lines if stored is None else lines[1:],
                            restval="")                 # short rows fail to parse
    missing = [col for col in _CSV_COLUMNS if col not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path}: missing CSV columns {', '.join(missing)}")
    rows = list(reader)
    results = []
    for i, row in enumerate(rows, 1):
        try:
            results.append(_parse_row(row))
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from None
    return stored, results


def _parse_row(row) -> PointResult:
    res = PointResult(snr_db=float(row["snr_db"]), frames=int(row["frames"]),
                      info_bits=int(row["info_bits"]), bit_errors=int(row["bit_errors"]))
    if not np.isfinite(res.snr_db):
        raise ValueError("snr_db must be finite")
    for name in ("frames", "info_bits", "bit_errors"):
        if getattr(res, name) < 0:
            raise ValueError(f"{name} must be nonnegative")
    if res.bit_errors > res.info_bits:
        raise ValueError("bit_errors exceeds info_bits")
    return res
