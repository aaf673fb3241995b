import collections
import dataclasses
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
from concurrent.futures import FIRST_COMPLETED, Future
from fractions import Fraction

import numpy as np
import pytest

from bicmb_pc import channel_model, cli, sim_engine
from bicmb_pc.detector import MetricEngine
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params, encode_batch, group_decompose
from bicmb_pc.sim_engine import (
    PointResult,
    SystemConfig,
    config_hash,
    read_csv,
    run_ber_point,
    run_sweep,
    write_csv,
)

SMALL = SystemConfig(nominal_info_bits=128, batch_frames=8, max_frames=16,
                     target_bit_errors=50)


def test_effective_info_bits_per_dim():
    assert SystemConfig(dim=2).n_info == 1018
    assert SystemConfig(dim=3).n_info == 1020
    assert SystemConfig(dim=4).n_info == 1018
    assert SystemConfig(dim=6, n_t=16, n_r=8).n_info == 1002
    qpsk = SystemConfig(dim=2, constellation_order=4)
    assert qpsk.n_info == 1022
    assert qpsk.n_symbols == qpsk.n_codewords * 4
    # (dim, order) -> (n_info, n_symbols, n_codewords)
    for (dim, order), sizes in {(2, 4): (1022, 1028, 257), (2, 16): (1018, 512, 128),
                                (3, 4): (1020, 1026, 114), (3, 16): (1020, 513, 57),
                                (4, 4): (1018, 1024, 64), (6, 16): (1002, 504, 14)}.items():
        cfg = SystemConfig(dim=dim, n_t=16, n_r=8, constellation_order=order)
        assert (cfg.n_info, cfg.n_symbols, cfg.n_codewords) == sizes


def test_frame_partitions_are_consistent():
    for cfg in (SystemConfig(dim=2), SystemConfig(dim=3), SMALL):
        assert cfg.n_coded == 2 * (cfg.n_info + 6)
        bps = QamConstellation(cfg.constellation_order).bits_per_symbol
        assert cfg.n_coded % bps == 0
        assert cfg.n_symbols % cfg.dim ** 2 == 0
        assert cfg.n_codewords >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(dim=5)
    with pytest.raises(ValueError):
        SystemConfig(dim=6, n_t=1, n_r=1, l_t=2, l_r=2)
    with pytest.raises(ValueError):
        SystemConfig(beta=((1.0,),))
    with pytest.raises(ValueError):
        SystemConfig(beta=((0.0, 0.0), (0.0, 0.0)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SystemConfig(beta=((bad, 0.01), (0.01, 0.01)))
    for bad in (((2.5, 2), (2, 2)), 2.5):
        with pytest.raises(ValueError):
            SystemConfig(n_paths=bad)
    with pytest.raises(ValueError):
        SystemConfig(constellation_order=64)
    with pytest.raises(ValueError):
        SystemConfig(nominal_info_bits=1)
    with pytest.raises(ValueError):
        # rank starved: one single-path block cannot carry two streams
        SystemConfig(beta=((1.0, 0.0), (0.0, 0.0)), n_paths=((1, 2), (2, 2)))
    # the channel's own faults are reported before dim is checked against it
    with pytest.raises(ValueError, match="beta entries must be nonnegative"):
        SystemConfig(dim=6, n_t=1, n_r=1, beta=((-1.0, 0.01), (0.01, 0.01)))
    # a point stops only at a batch boundary, so a batch past the cap is refused
    for batch, cap in ((3, 2), (10 ** 40, 2)):
        with pytest.raises(ValueError, match=f"batch_frames = {batch} exceeds max_frames = {cap}"):
            SystemConfig(batch_frames=batch, max_frames=cap)


def test_scalar_n_paths_broadcast():
    cfg = SystemConfig(n_paths=2)
    assert cfg.n_paths == ((2, 2), (2, 2))


def test_config_builds_its_channel_once():
    cfg = SystemConfig(beta=np.full((2, 2), 0.01), n_paths=np.int64(3))
    channel = cfg.channel
    assert channel is cfg.channel
    assert (channel.beta, channel.n_paths) == (cfg.beta, cfg.n_paths) == (
        ((0.01, 0.01), (0.01, 0.01)), ((3, 3), (3, 3)))
    assert (channel.total_tx, channel.total_rx) == (32, 16)
    # a pool worker gets the built channel with the config
    assert pickle.loads(pickle.dumps(cfg)).__dict__["channel"] == channel


def test_config_hash_tracks_content():
    a = config_hash(SystemConfig())
    b = config_hash(SystemConfig())
    c = config_hash(SystemConfig(master_seed=1))
    assert a == b
    assert a != c
    assert len(a) == 64
    # a beta of Fractions hashes as the floats a config file gives
    assert config_hash(SystemConfig(beta=((Fraction(1, 100),) * 2,) * 2)) == a


def test_batched_metrics_match_metric_engine():
    """One batched detector call equals per-frame calls.

    The D=3, 4 and 6 cases split into chunks across groups or frames.
    """
    rng = np.random.default_rng(11)
    for dim, order, n_groups in ((2, 16, SMALL.n_codewords * 2), (3, 16, 150),
                                 (4, 16, 4), (6, 4, 40)):
        params = build_params(dim)
        c = QamConstellation(order)
        lam = np.sort(rng.uniform(0.5, 3.0, (3, dim)), axis=1)[:, ::-1]
        groups = rng.standard_normal((3, n_groups, dim)) \
            + 1j * rng.standard_normal((3, n_groups, dim))
        batched = MetricEngine(params, c).bit_metrics(lam, groups)
        per_frame = MetricEngine(params, c)
        for i in range(3):
            ref = per_frame.bit_metrics(lam[i:i + 1], groups[i:i + 1])[0]
            assert np.allclose(batched[i], ref, atol=1e-12)
            assert np.allclose(batched[i, :, 0, 0, :].min(axis=-1),
                               ref[:, 0, 0, :].min(axis=-1), atol=1e-12)


@pytest.mark.parametrize("dim,order", [(2, 16), (3, 16), (4, 16), (6, 4)])
def test_metric_rows_follow_mapped_bit_order(dim, order):
    # run_batch hands gamma.reshape(frames, -1, 2) to the deinterleaver:
    # row k must be the metric pair of mapped coded bit k
    rng = np.random.default_rng(40 + dim)
    params = build_params(dim)
    c = QamConstellation(order)
    n_frames, n_codewords = 3, 2
    bits = rng.integers(0, 2, (n_frames, n_codewords * dim * dim * c.bits_per_symbol))
    x = c.map_bits(bits).reshape(n_frames, n_codewords, dim, dim)
    lam = np.sort(rng.uniform(0.5, 3.0, (n_frames, dim)), axis=1)[:, ::-1]
    y = lam[:, None, :, None] * encode_batch(params, x)
    groups = group_decompose(y, params).reshape(n_frames, n_codewords * dim, dim)
    gamma = MetricEngine(params, c).bit_metrics(lam, groups)
    assert np.array_equal(gamma.reshape(n_frames, -1, 2).argmin(-1), bits)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_noiseless_loopback_is_error_free(dim):
    cfg = SystemConfig(dim=dim, nominal_info_bits=144, batch_frames=2,
                       max_frames=4, target_bit_errors=1)
    res = run_ber_point(cfg, snr_db=0.0, noiseless=True)
    assert res.snr_db == 0.0
    assert res.bit_errors == 0
    assert res.frames == 4
    assert res.ber == 0.0


@pytest.mark.parametrize("dim,order,snr_db,counts", [
    (2, 16, 21.0, (24, 6000, 150)),
    (3, 16, 23.0, (32, 7872, 115)),
    (2, 4, 16.0, (32, 8128, 102)),
    (4, 16, 24.0, (24, 6000, 121)),
])
def test_seed_zero_counts_are_pinned(dim, order, snr_db, counts):
    """Exact (frames, info_bits, bit_errors) on seed 0.

    Any change to bit generation, coding, mapping, channel draws, noise,
    detection or decoding that moves a single bit shows up here.
    """
    cfg = SystemConfig(dim=dim, constellation_order=order, nominal_info_bits=256,
                       batch_frames=8, max_frames=32, target_bit_errors=100)
    res = run_ber_point(cfg, snr_db)
    assert (res.frames, res.info_bits, res.bit_errors) == counts


def test_noisy_point_reports_counts():
    res = run_ber_point(SMALL, snr_db=5.0)
    assert res.frames in (8, 16)
    assert res.info_bits == res.frames * SMALL.n_info
    assert 0 <= res.bit_errors <= res.info_bits
    assert res.ber == res.bit_errors / res.info_bits


def test_runs_are_deterministic():
    a = run_ber_point(SMALL, snr_db=6.0)
    b = run_ber_point(SMALL, snr_db=6.0)
    assert (a.frames, a.info_bits, a.bit_errors) == (b.frames, b.info_bits, b.bit_errors)
    other = SystemConfig(nominal_info_bits=128, batch_frames=8, max_frames=16,
                         target_bit_errors=50, master_seed=9)
    c = run_ber_point(other, snr_db=6.0)
    assert (a.bit_errors, a.frames) != (c.bit_errors, c.frames) or a.bit_errors != c.bit_errors


def test_worker_count_does_not_change_results(monkeypatch):
    # SMALL has two 8-frame batches under its cap, so three workers run at
    # most two batches of it and nothing is dropped unless the budget stops it
    counts = set()
    for workers in (1, 2, 3):
        (res,) = run_sweep(SMALL, [6.0], workers=workers)
        counts.add((res.frames, res.info_bits, res.bit_errors))
    assert len(counts) == 1
    # the budget is met in the first batch: the speculative batches that run
    # beside it (two, or more when they finish before it) are dropped
    submitted = []

    class SpyPool(sim_engine.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[-2])
            return super().submit(fn, *args)

    monkeypatch.setattr(sim_engine, "ProcessPoolExecutor", SpyPool)
    eager = SystemConfig(nominal_info_bits=128, batch_frames=4, max_frames=400,
                         target_bit_errors=5)
    serial = run_ber_point(eager, snr_db=-20.0)
    assert run_sweep(eager, [-20.0], workers=3) == [serial]
    assert serial.frames == 4
    assert len(submitted) >= 3
    assert sorted(submitted) == list(range(0, 4 * len(submitted), 4))
    assert not multiprocessing.active_children()


def fake_batch(cfg, snr_index, frame_start, n_frames, failing=()):
    """A fixed (info_bits, errors) per (snr_index, frame_start); raises for `failing` ones."""
    if (snr_index, frame_start) in failing:
        raise ValueError(f"batch ({snr_index}, {frame_start}) failed")
    errors = int(np.random.default_rng([snr_index, frame_start]).integers(0, 9))
    return n_frames * cfg.n_info, errors


def serial_points(cfg, points, failing=()):
    """The stop rule run one batch at a time, in (point, frame) order."""
    results = []
    for snr_db, index in points:
        bits = errors = start = 0
        while errors < cfg.target_bit_errors and bits < cfg.max_frames * cfg.n_info:
            nfo, err = fake_batch(cfg, index, start, cfg.batch_frames, failing)
            bits, errors, start = bits + nfo, errors + err, start + cfg.batch_frames
        results.append(PointResult(snr_db, bits // cfg.n_info, bits, errors))
    return results


class FakeRunner:
    """A runner whose batches complete only when the patched wait completes them.

    check(runner, snr_index, frame_start) runs before each submit.
    """

    def __init__(self, config, workers, check=None, failing=()):
        self.config, self.workers = config, workers
        self.check, self.failing = check, failing
        self.futures = []       # (snr_index, frame_start, future), in submission order

    def submit(self, snr_db, snr_index, frame_start, n_frames):
        if self.check is not None:
            self.check(self, snr_index, frame_start)
        future = Future()
        future.batch, future.seq = (snr_index, frame_start, n_frames), len(self.futures)
        self.futures.append((snr_index, frame_start, future))
        return future

    def complete(self, future):
        try:
            future.set_result(fake_batch(self.config, *future.batch, self.failing))
        except ValueError as exc:
            future.set_exception(exc)


def completing_wait(runner, choose):
    """Stand-in for concurrent.futures.wait: completes choose(pending) itself.

    pending is the unfinished futures in submission order; waiting for all
    of them completes them all.
    """
    done_and_not_done = collections.namedtuple("DoneAndNotDone", "done not_done")

    def wait(fs, timeout=None, return_when="ALL_COMPLETED"):
        pending = sorted((f for f in fs if not f.done()), key=lambda f: f.seq)
        if pending:
            for f in choose(pending) if return_when == FIRST_COMPLETED else pending:
                runner.complete(f)
        return done_and_not_done({f for f in fs if f.done()},
                                 {f for f in fs if not f.done()})
    return wait


def run_fake(monkeypatch, runner, points, choose):
    monkeypatch.setattr(sim_engine, "wait", completing_wait(runner, choose))
    return list(sim_engine._run_points(runner, points))


def reverse_order(pending):
    return pending[-1:]


def shuffled_order(seed):
    rng = np.random.default_rng(seed)
    return lambda pending: rng.permutation(pending)[:rng.integers(1, len(pending) + 1)]


# (batch_frames, max_frames, target_bit_errors): points that stop on the
# error budget, points that stop on the cap, and a cap that is not a
# multiple of the batch size, where the last batch runs past it
SCHEDULES = [(4, 400, 12), (4, 12, 10 ** 6), (4, 10, 9)]
GRID = [(float(s), i) for i, s in enumerate(range(0, 12, 2))]


@pytest.mark.parametrize("batch_frames,max_frames,target", SCHEDULES)
def test_scheduler_matches_serial_for_any_completion_order(monkeypatch, batch_frames,
                                                           max_frames, target):
    cfg = dataclasses.replace(SMALL, batch_frames=batch_frames, max_frames=max_frames,
                              target_bit_errors=target)
    expected = serial_points(cfg, GRID)
    if target < 10 ** 6:
        assert any(r.bit_errors >= target for r in expected)
    if max_frames < 400:
        capped = -(-max_frames // batch_frames) * batch_frames
        assert any(r.frames == capped for r in expected)
    for workers in (1, 2, 3, 5):
        for choose in (reverse_order, shuffled_order(1), shuffled_order(2)):
            runner = FakeRunner(cfg, workers)
            assert run_fake(monkeypatch, runner, GRID, choose) == expected
            assert all(f.done() for _, _, f in runner.futures)


def test_scheduler_raises_in_serial_order(monkeypatch):
    # point 1 fails on its second batch and point 3 on its first; the
    # reverse order completes point 3's failure first
    cfg = dataclasses.replace(SMALL, batch_frames=4, max_frames=12,
                              target_bit_errors=10 ** 6)
    failing = {(1, 4), (3, 0)}
    with pytest.raises(ValueError, match=r"batch \(1, 4\) failed"):
        serial_points(cfg, GRID, failing)
    for workers in (1, 2, 4):
        runner = FakeRunner(cfg, workers, failing=failing)
        points = sim_engine._run_points(runner, GRID)
        monkeypatch.setattr(sim_engine, "wait", completing_wait(runner, reverse_order))
        assert next(points) == serial_points(cfg, GRID[:1])[0]
        with pytest.raises(ValueError, match=r"batch \(1, 4\) failed"):
            next(points)


@pytest.mark.parametrize("batch_frames,max_frames,target", SCHEDULES)
def test_scheduler_serves_needed_batches_first(monkeypatch, batch_frames, max_frames, target):
    """At most `workers` unfinished, nothing past a cap, no speculation while a batch is needed."""
    cfg = dataclasses.replace(SMALL, batch_frames=batch_frames, max_frames=max_frames,
                              target_bit_errors=target)
    final = {index: r.frames for (_, index), r in zip(GRID, serial_points(cfg, GRID))}
    speculative = []

    def check(runner, snr_index, frame_start):
        in_flight = {i for i, _, f in runner.futures if not f.done()}
        completed = {(i, start) for i, start, f in runner.futures if f.done()}
        finished = {i for i in final
                    if all((i, start) in completed for start in range(0, final[i], batch_frames))}
        needed = [i for _, i in GRID if i not in finished and i not in in_flight]
        assert sum(not f.done() for _, _, f in runner.futures) < runner.workers
        assert frame_start < max_frames
        assert snr_index not in finished
        assert frame_start == batch_frames * sum(i == snr_index for i, _, _ in runner.futures)
        if needed:
            assert snr_index == needed[0]
        else:
            speculative.append((snr_index, frame_start))

    for workers in (2, 3, 5):
        for choose in (reverse_order, shuffled_order(workers)):
            runner = FakeRunner(cfg, workers, check)
            run_fake(monkeypatch, runner, GRID, choose)
    assert speculative


def test_sweep_opens_one_pool(monkeypatch):
    opened = []

    class SpyPool(sim_engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(sim_engine, "ProcessPoolExecutor", SpyPool)
    pooled = run_sweep(SMALL, [4.0, 6.0, 8.0], workers=2)
    assert len(opened) == 1
    serial = run_sweep(SMALL, [4.0, 6.0, 8.0])
    assert len(opened) == 1
    assert pooled == serial


def test_pool_workers_leave_ctrl_c_to_the_parent():
    # a terminal's Ctrl-C reaches the whole process group: workers ignore
    # it and run on until the parent shuts the pool down, printing nothing
    runner = sim_engine._PoolRunner(SMALL, 2)
    try:
        assert runner.pool.submit(signal.getsignal, signal.SIGINT).result() == signal.SIG_IGN
    finally:
        runner.close()
    assert not multiprocessing.active_children()


def test_pool_workers_take_sigterm_by_default():
    # a handler the parent holds when the workers fork (the CLI's, during a
    # sweep) must not reach them, or terminating a worker would not end it
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        runner = sim_engine._PoolRunner(SMALL, 2)
        try:
            assert runner.pool.submit(signal.getsignal, signal.SIGTERM).result() \
                == signal.SIG_DFL
        finally:
            runner.close()
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert not multiprocessing.active_children()


def test_pool_workers_still_starting_are_killed_quietly(monkeypatch, capfd):
    # a worker killed before _worker_signals resets SIGTERM still holds the
    # CLI's handler; a SIGTERM would raise in its initializer and print a
    # traceback, where SIGKILL ends it with no handler run
    start = sim_engine._worker_signals

    def slow_start():
        time.sleep(0.5)
        start()

    monkeypatch.setattr(sim_engine, "_worker_signals", slow_start)
    previous = signal.signal(signal.SIGTERM, cli._terminate)
    try:
        runner = sim_engine._PoolRunner(SMALL, 2)
        runner.submit(6.0, 0, 0, 1)
        processes = list(runner.pool._processes.values())
        runner.close()
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(processes) == 2
    assert [p.exitcode for p in processes] == [-signal.SIGKILL] * 2
    assert capfd.readouterr().err == ""
    assert not multiprocessing.active_children()


def test_closed_pool_leaves_no_child():
    # close() returns only once every worker is reaped; were a second thread
    # to race the executor's own reaper, a worker would stay listed now and then
    for _ in range(50):
        runner = sim_engine._PoolRunner(SMALL, 2)
        try:
            assert runner.pool.submit(os.getpid).result() != os.getpid()
        finally:
            runner.close()
        assert not multiprocessing.active_children()


def test_worker_counts_above_the_cap_start_no_pool(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was built")

    monkeypatch.setattr(sim_engine, "ProcessPoolExecutor", NoPool)
    too_many = sim_engine.MAX_WORKERS + 1
    for bad in (0, too_many, 100000):
        with pytest.raises(ValueError, match="workers must be from 1 to 64"):
            run_sweep(SMALL, [6.0], workers=bad)
    # the cap itself is admitted: the sweep goes on to build its pool
    with pytest.raises(AssertionError, match="pool was built"):
        run_sweep(SMALL, [6.0], workers=sim_engine.MAX_WORKERS)


def test_decoder_reads_the_detectors_store_in_place(monkeypatch):
    stores, decoded_from = [], []
    bit_metrics = MetricEngine.bit_metrics
    viterbi = sim_engine.viterbi_decode_batch

    def store_spy(self, *args):
        stores.append(bit_metrics(self, *args))
        return stores[-1]

    def viterbi_spy(metrics, *args):
        decoded_from.append(metrics)
        return viterbi(metrics, *args)

    monkeypatch.setattr(MetricEngine, "bit_metrics", store_spy)
    monkeypatch.setattr(sim_engine, "viterbi_decode_batch", viterbi_spy)
    sim_engine._FramePipeline(SMALL).run_batch(6.0, 0, 0, 8)
    assert decoded_from[0].shape == (8, SMALL.n_coded, 2)
    assert np.shares_memory(decoded_from[0], stores[0])


def test_worker_builds_one_pipeline_per_config(monkeypatch):
    expected = sim_engine._FramePipeline(SMALL).run_batch(6.0, 0, 8, 8)
    built = []

    class SpyPipeline(sim_engine._FramePipeline):
        def __init__(self, config):
            super().__init__(config)
            built.append(config)

    monkeypatch.setattr(sim_engine, "_FramePipeline", SpyPipeline)
    sim_engine._worker_pipeline.cache_clear()
    try:
        sim_engine._batch_worker(SMALL, 6.0, 0, 0, 8)
        second = sim_engine._batch_worker(SMALL, 6.0, 0, 8, 8)
    finally:
        sim_engine._worker_pipeline.cache_clear()
    assert built == [SMALL]
    assert second == expected


def test_pipeline_for_another_config_is_rejected():
    # a larger n_info would otherwise be counted as more frames per batch
    wide = dataclasses.replace(SMALL, nominal_info_bits=1024)
    with pytest.raises(ValueError, match="different config"):
        run_ber_point(SMALL, snr_db=6.0, pipeline=sim_engine._FramePipeline(wide))


def test_stop_rules():
    # noiseless -> zero errors -> runs to the frame cap
    cfg = SystemConfig(nominal_info_bits=128, batch_frames=4, max_frames=8,
                       target_bit_errors=1)
    res = run_ber_point(cfg, snr_db=0.0, noiseless=True)
    assert res.frames == 8
    # very low SNR -> error budget met in the first batch
    eager = SystemConfig(nominal_info_bits=128, batch_frames=4, max_frames=400,
                         target_bit_errors=5)
    res2 = run_ber_point(eager, snr_db=-20.0)
    assert res2.frames == 4
    assert res2.bit_errors >= 5


def test_nan_snr_is_rejected_by_name():
    with pytest.raises(ValueError, match="SNR nan dB"):
        run_ber_point(SMALL, float("nan"))
    assert sim_engine.noise_variance(32, float("inf")) == 0.0


def test_forced_redraws_are_pinned(monkeypatch):
    """Redrawn channels come from each frame's own stream, pinned on seed 0.

    A value-only degeneracy rule flags about a quarter of the draws, so
    some frames are redrawn more than once; the counts also pin the noise
    and detection that follow the redraws.  The spy sits on the per-frame
    draw inside the batched draw_paths.
    """
    drawn_by = []
    draw_frame = channel_model._draw_frame

    def spy(rng, *args):
        drawn_by.append(rng)
        return draw_frame(rng, *args)

    monkeypatch.setattr(sim_engine, "is_degenerate", lambda lam: lam[..., -1] < 1.0)
    monkeypatch.setattr(channel_model, "_draw_frame", spy)
    cfg = SystemConfig(nominal_info_bits=128, batch_frames=8, max_frames=16,
                       target_bit_errors=10 ** 6)
    res = run_ber_point(cfg, snr_db=16.0)
    assert (res.frames, res.info_bits, res.bit_errors) == (16, 1952, 385)
    per_frame = collections.Counter(map(id, drawn_by))      # drawn_by keeps each rng alive
    assert sorted(per_frame.values()) == [1] * 13 + [2, 2, 4]


def test_sweep_and_csv_round_trip(tmp_path):
    results = run_sweep(SMALL, [4.0, 8.0])
    assert [r.snr_db for r in results] == [4.0, 8.0]
    h = config_hash(SMALL)
    path = tmp_path / "sweep.csv"
    write_csv(path, results, h)
    stored, loaded = read_csv(path)
    assert stored == h
    for got, ref in zip(loaded, results):
        assert (got.snr_db, got.frames, got.info_bits, got.bit_errors) == \
            (ref.snr_db, ref.frames, ref.info_bits, ref.bit_errors)
    # byte-identical on rewrite
    path2 = tmp_path / "sweep2.csv"
    write_csv(path2, results, h)
    assert path.read_bytes() == path2.read_bytes()
    with pytest.raises(ValueError):
        run_sweep(SMALL, [])


def awgn_uncoded_ber(seed, snr_symbol_db, n_symbols, order=16):
    """Gray-labeled hard-decision QAM over scalar AWGN, for calibration."""
    c = QamConstellation(order)
    rng = np.random.default_rng([seed, 2])
    bps = c.bits_per_symbol
    bits = rng.integers(0, 2, n_symbols * bps).astype(np.uint8)
    n0 = 10.0 ** (-snr_symbol_db / 10.0)
    noise = np.sqrt(n0 / 2.0) * (rng.standard_normal(n_symbols)
                                 + 1j * rng.standard_normal(n_symbols))
    received = c.map_bits(bits) + noise
    labels = np.empty(n_symbols, dtype=np.int64)
    for lo in range(0, n_symbols, 262_144):
        block = received[lo:lo + 262_144]
        labels[lo:lo + block.size] = np.abs(block[:, None] - c.points).argmin(axis=1)
    shifts = np.arange(bps - 1, -1, -1)
    got = ((labels[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return float((got != bits).mean())


def test_awgn_calibration_quick():
    # 16-QAM Gray closed form at gamma_s = 14 dB
    from math import erfc, sqrt

    def qfunc(x):
        return 0.5 * erfc(x / sqrt(2.0))

    snr_db = 14.0
    g = 10 ** (snr_db / 10)
    u = sqrt(g / 5.0)
    ref = 0.25 * (3 * qfunc(u) + 2 * qfunc(3 * u) - qfunc(5 * u))
    sim = awgn_uncoded_ber(seed=3, snr_symbol_db=snr_db, n_symbols=400_000)
    assert sim == pytest.approx(ref, rel=0.05)


def test_point_result_ber_property():
    r = PointResult(snr_db=10.0, frames=2, info_bits=1000, bit_errors=5)
    assert r.ber == 0.005


def test_frame_ceiling_is_checked_at_config_time():
    ceiling = sim_engine._MAX_INFO_BITS
    assert SystemConfig(nominal_info_bits=ceiling).n_info <= ceiling
    for bad in (ceiling + 1, 10_000_000_000_000):
        with pytest.raises(ValueError, match=f"nominal_info_bits = {bad} exceeds"):
            SystemConfig(nominal_info_bits=bad)


def test_channel_draw_ceiling_is_checked_at_config_time():
    ceiling = sim_engine._MAX_PATH_ENTRIES
    # (16384 tx + 16384 rx antennas) x 8 paths sits on the ceiling
    assert SystemConfig(n_t=8192, n_r=8192).channel.total_tx * 2 * 8 == ceiling
    wide = SystemConfig(n_t=64, n_r=64, constellation_order=4)
    assert (wide.channel.total_tx + wide.channel.total_rx) * 8 * 100 < ceiling
    for n_t, n_r, entries in ((8193, 8192, 262160), (2 ** 20, 2 ** 20, 33554432)):
        with pytest.raises(ValueError, match=f"n_t = {n_t}, n_r = {n_r} and n_paths "
                           f"\\(8 paths in all\\) give {entries} steering entries"):
            SystemConfig(n_t=n_t, n_r=n_r)
    with pytest.raises(ValueError, match="16777222 paths in all"):
        SystemConfig(n_paths=((2 ** 24, 2), (2, 2)))


def test_pipeline_reuses_its_detector_workspace(monkeypatch):
    """Two batches on one pipeline run on its one detector's buffers and match fresh pipelines."""
    calls = []
    original = MetricEngine.bit_metrics

    def spy(self, lam, groups):
        gamma = original(self, lam, groups)
        calls.append((self, gamma, dict(self._work._buffers)))
        return gamma

    monkeypatch.setattr(MetricEngine, "bit_metrics", spy)
    pipe = sim_engine._FramePipeline(SMALL)
    counts = [pipe.run_batch(6.0, 0, start, 8) for start in (0, 8)]
    (engine_a, gamma_a, held_a), (engine_b, gamma_b, held_b) = calls
    assert engine_a is engine_b is pipe.detector
    assert np.shares_memory(gamma_a, gamma_b)
    assert held_a.keys() == held_b.keys()
    assert all(held_b[name] is buf for name, buf in held_a.items())
    assert counts == [sim_engine._FramePipeline(SMALL).run_batch(6.0, 0, start, 8)
                      for start in (0, 8)]


def test_large_batch_equals_its_blocks():
    pipe = sim_engine._FramePipeline(SMALL)
    whole = pipe.run_batch(6.0, 0, 0, 1024)
    blocks = [pipe.run_batch(6.0, 0, start, 64) for start in range(0, 1024, 64)]
    assert whole == tuple(map(sum, zip(*blocks)))


def test_batch_memory_does_not_grow_with_frames():
    pipe = sim_engine._FramePipeline(SMALL)
    pipe.run_batch(6.0, 0, 0, 1)                # build the cached tables
    peaks = []
    for n_frames in (64, 1024):
        tracemalloc.start()
        try:
            pipe.run_batch(6.0, 0, 0, n_frames)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]
