import contextlib
import ctypes
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bicmb_pc import cli, pstbc, sim_engine
from bicmb_pc.analysis import pep_bound, zeta_min
from bicmb_pc.cli import load_config, main
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params
from bicmb_pc.sim_engine import SystemConfig, config_hash, read_csv

BASE_CONFIG = """
# small link for exercising the command line
n_t = 16
n_r = 8
l_t = 2
l_r = 2
dim = 2
beta = 0.01 0.01; 0.01 0.01
n_paths = 2 2; 2 2
nominal_info_bits = 128
batch_frames = 4
max_frames = 8
target_bit_errors = 20
master_seed = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(BASE_CONFIG)
    return path


def test_load_config_round_trips_fields(config_file):
    cfg = load_config(str(config_file))
    assert cfg == SystemConfig(nominal_info_bits=128, batch_frames=4,
                               max_frames=8, target_bit_errors=20, master_seed=3)
    assert cfg.beta == ((0.01, 0.01), (0.01, 0.01))
    assert cfg.n_paths == ((2, 2), (2, 2))


def test_load_config_seed_override(config_file):
    cfg = load_config(str(config_file), seed_override=99)
    assert cfg.master_seed == 99


def test_load_config_uneven_grid(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text(BASE_CONFIG.replace("n_paths = 2 2; 2 2", "n_paths = 6 2; 3 1"))
    cfg = load_config(str(path))
    assert cfg.n_paths == ((6, 2), (3, 1))


def test_ragged_grid_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "ragged.cfg"
    path.write_text(BASE_CONFIG.replace("beta = 0.01 0.01; 0.01 0.01",
                                        "beta = 0.01; 0.01 0.01"))
    line = BASE_CONFIG.splitlines().index("beta = 0.01 0.01; 0.01 0.01") + 1
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {path}:{line}: beta row 1 has 1 entries, expected 2\n"
    path.write_text(BASE_CONFIG + "n_paths = 2 2; ; 2 2\n")
    with pytest.raises(ValueError, match=r"ragged.cfg:\d+: n_paths row 2 is empty"):
        load_config(str(path))


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ValueError):
        load_config(str(path))
    path.write_text("dim\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_sweep_writes_csv(config_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    rc = main(["sweep", "--config", str(config_file), "--out", str(out),
               "--snr-min", "4", "--snr-max", "8", "--snr-step", "4"])
    assert rc == 0
    stored, rows = read_csv(out)
    assert stored == config_hash(load_config(str(config_file)))
    assert [r.snr_db for r in rows] == [4.0, 8.0]
    assert all(r.frames > 0 for r in rows)
    assert "wrote" in capsys.readouterr().out


def test_sweep_deterministic_across_worker_flag(config_file, tmp_path):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(["sweep", "--config", str(config_file), "--out", str(out1),
                 "--snr-min", "5", "--snr-max", "6", "--snr-step", "1",
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out2),
                 "--snr-min", "5", "--snr-max", "6", "--snr-step", "1",
                 "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_bad_grid(config_file, tmp_path):
    rc = main(["sweep", "--config", str(config_file),
               "--out", str(tmp_path / "x.csv"),
               "--snr-min", "5", "--snr-max", "4", "--snr-step", "1"])
    assert rc == 1


def test_sweep_rejects_non_finite_snr_flags(config_file, tmp_path, capsys):
    base = {"--snr-min": "4", "--snr-max": "8", "--snr-step": "1"}
    for flag in base:
        for bad in ("inf", "-inf", "nan"):
            flags = [f"{k}={v}" for k, v in dict(base, **{flag: bad}).items()]
            rc = main(["sweep", "--config", str(config_file),
                       "--out", str(tmp_path / "x.csv"), *flags])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {flag} must be finite\n"
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
               "--snr-min=-1e308", "--snr-max=1e308"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --snr-step is too small for the SNR range\n"
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_an_oversized_snr_grid(config_file, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("an SNR grid was built or swept")

    monkeypatch.setattr(cli.np, "arange", no_work)
    monkeypatch.setattr(cli, "run_sweep", no_work)
    for snr_max, step, points in (("1000", "1", 1001), ("100", "1e-7", 1_000_000_001)):
        rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
                   "--snr-min", "0", "--snr-max", snr_max, "--snr-step", step])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: the SNR grid has {points} points; at most 1000 are allowed\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_sweep_rejects_out_of_range_snr(config_file, tmp_path, capsys, snr):
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
               "--snr-min", snr, "--snr-max", snr])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"SNR {float(snr)} dB" in err


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch ran")


@pytest.mark.parametrize("out", ["nodir/x.csv", "."])
def test_out_is_checked_before_any_batch(config_file, tmp_path, capsys, monkeypatch, out):
    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", _no_batch)
    path = f"{tmp_path}/{out}"
    rc = main(["sweep", "--config", str(config_file), "--out", path,
               "--snr-min", "4", "--snr-max", "16", "--snr-step", "4"])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: --out {path} is not a file in an existing directory\n"


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                 "(80000000000000,) and data type uint8"),
     "error: Unable to allocate 72.8 TiB for an array with shape "
     "(80000000000000,) and data type uint8\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_out_of_memory_is_a_one_line_error(config_file, tmp_path, capsys,
                                           monkeypatch, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_sweep", exhausted)
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "4", "--snr-max", "4"])
    assert rc == 1
    assert capsys.readouterr().err == line
    assert not (tmp_path / "x.csv").exists()


def test_oversized_frame_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    path = tmp_path / "huge.cfg"
    path.write_text(BASE_CONFIG.replace("nominal_info_bits = 128",
                                        "nominal_info_bits = 10000000000000"))
    with pytest.raises(ValueError, match="nominal_info_bits"):
        load_config(str(path))

    def no_work(*args, **kwargs):
        raise AssertionError("Monte Carlo work started")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "4", "--snr-max", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nominal_info_bits = 10000000000000 exceeds")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_analyze_reports_diversity(config_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    main(["sweep", "--config", str(config_file), "--out", str(out),
          "--snr-min", "4", "--snr-max", "40", "--snr-step", "18"])
    capsys.readouterr()
    rc = main(["analyze", str(out), "--config", str(config_file)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kappa (diversity order): 8\n" in text
    assert "theta (gamma scale):     1/200\n" in text
    assert "zeta_min" in text
    cfg = load_config(str(config_file))
    _, rows = read_csv(out)
    expected = pep_bound([r.snr_db for r in rows], 8, 0.005,
                         zeta_min(build_params(2), QamConstellation(16)),
                         2, cfg.channel.total_tx, cfg.l_t)
    lines = [ln for ln in text.splitlines() if "pep bound" in ln]
    assert len(lines) == len(rows) == 3
    # the grid spans both sides of the 0.5 line: 4 and 22 dB are vacuous
    assert (expected >= 0.5).tolist() == [True, True, False]
    for line, r, bound in zip(lines, rows, expected):
        assert f"snr {r.snr_db:6.2f} dB" in line
        assert f"ber {r.ber:.4e}" in line
        value, vacuous = line.split("pep bound")[1], "(vacuous)" in line
        assert vacuous == (bound >= 0.5)
        assert float(value.replace("(vacuous)", "")) == pytest.approx(bound, rel=1e-4)


def test_analyze_has_no_exact_ratios_flag(config_file, tmp_path, capsys):
    # kappa is always exact, so the flag that asked for it is gone: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "res.csv"), "--config", str(config_file),
              "--exact-ratios"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact-ratios" in capsys.readouterr().err


@pytest.mark.parametrize("beta,n_paths,kappa", [
    ("1e-320 1e-320; 1e-320 1e-320", "2 2; 2 2", "8"),     # b^2 / L underflows a float
    ("1e200 0; 0 0", "2 2; 2 2", "2"),                      # b^2 overflows a float
    ("5e-324 5e-324; 5e-324 5e-324", "6 6; 6 6", "24"),    # theta underflows a float
], ids=["tiny-beta", "huge-beta", "tiny-theta"])
def test_analyze_accepts_every_beta_that_sweep_accepts(tmp_path, capsys, beta, n_paths, kappa):
    path = tmp_path / "edge.cfg"
    path.write_text(BASE_CONFIG.replace("beta = 0.01 0.01; 0.01 0.01", f"beta = {beta}")
                    .replace("n_paths = 2 2; 2 2", f"n_paths = {n_paths}"))
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--snr-min", "4", "--snr-max", "22", "--snr-step", "18"]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"kappa (diversity order): {kappa}\n" in captured.out
    bounds = [line for line in captured.out.splitlines() if "pep bound" in line]
    assert len(bounds) == 2
    # the tiny gains leave every point far from the high-SNR regime
    assert all(line.endswith("(vacuous)") for line in bounds) == (beta != "1e200 0; 0 0")


def test_analyze_refuses_hash_mismatch(config_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    main(["sweep", "--config", str(config_file), "--out", str(out),
          "--snr-min", "5", "--snr-max", "5", "--snr-step", "1"])
    other = tmp_path / "other.cfg"
    other.write_text(BASE_CONFIG.replace("master_seed = 3", "master_seed = 4"))
    capsys.readouterr()
    assert main(["analyze", str(out), "--config", str(other)]) == 1
    assert "mismatch" in capsys.readouterr().err
    assert main(["analyze", str(out), "--config", str(other), "--force"]) == 0


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"ok   code parameters (d={d})" for d in (2, 3, 4, 6)),
        "ok   free distance = 10",
        *(f"ok   noiseless link loopback (d={d}, {k}-QAM)" for d in (2, 3, 4, 6) for k in (4, 16)),
        "all checks passed",
    ]


def test_selftest_catches_a_broken_d3_link(monkeypatch, capsys):
    # the D=3 receiver reads its layers with the wrap weights left on
    decompose = sim_engine.group_decompose

    def unweighted(y, params):
        if params.dim != 3:
            return decompose(y, params)
        return y[..., np.arange(3), params.cols]

    monkeypatch.setattr(sim_engine, "group_decompose", unweighted)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("FAIL")] == [
        "FAIL noiseless link loopback (d=3, 4-QAM)",
        "FAIL noiseless link loopback (d=3, 16-QAM)",
    ]
    assert captured.err == "2 check(s) failed\n"


def test_selftest_reports_a_failed_code_build(monkeypatch, capsys):
    # a generator that build_params itself rejects is one FAIL line, not a traceback
    golden = pstbc._golden_generator
    monkeypatch.setattr(pstbc, "_golden_generator", lambda: 1.001 * golden())
    pstbc.build_params.cache_clear()
    try:
        rc = main(["selftest"])
    finally:
        monkeypatch.undo()
        pstbc.build_params.cache_clear()
    out = capsys.readouterr().out
    assert rc == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL code parameters (d=2): generator for D=2 is not unitary")


def test_missing_config_is_reported(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "x.csv"),
               "--snr-min", "1", "--snr-max", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CONFIG.encode() + b"# r\xe9seau\xff\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "1", "--snr-max", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")
    assert not (tmp_path / "x.csv").exists()


def test_binary_csv_names_its_file(config_file, tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe\x00\x01" * 8)
    rc = main(["analyze", str(path), "--config", str(config_file), "--force"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")


# coincident antennas: every draw is rank one, so two streams never fit
STARVED_CONFIG = ("n_t = 4\nn_r = 4\nl_t = 1\nl_r = 1\ndim = 2\nbeta = 1.0\n"
                  "n_paths = 4\nspacing = 1e-15\nnominal_info_bits = 64\n"
                  "batch_frames = 1\nmax_frames = 1\n")


def test_rank_starved_channel_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "starved.cfg"
    path.write_text(STARVED_CONFIG)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    for name in ("beta", "n_paths", "spacing"):
        assert name in err
    assert not (tmp_path / "x.csv").exists()


def test_rank_starved_pooled_sweep_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "starved.cfg"
    path.write_text(STARVED_CONFIG)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "11", "--workers", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "channel rank starved" in err
    assert not (tmp_path / "x.csv").exists()
    assert not multiprocessing.active_children()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched pipeline")
def test_dead_pool_worker_is_a_one_line_error(config_file, tmp_path, capsys, monkeypatch):
    run_batch = sim_engine._FramePipeline.run_batch

    def dies_at_second_point(self, snr_db, snr_index, *batch):
        if snr_index == 1:
            os._exit(9)
        return run_batch(self, snr_db, snr_index, *batch)

    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", dies_at_second_point)
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--config", str(config_file), "--out", str(out),
               "--snr-min", "4", "--snr-max", "8", "--workers", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "terminated abruptly" in err
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_during_sweep_is_one_line(config_file, tmp_path, capsys, monkeypatch, workers):
    if workers == "1":      # Ctrl-C while the second point runs in this process
        run_batch = sim_engine._FramePipeline.run_batch

        def interrupted(self, snr_db, snr_index, *batch):
            if snr_index == 1:
                raise KeyboardInterrupt
            return run_batch(self, snr_db, snr_index, *batch)

        monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", interrupted)
    else:                   # Ctrl-C while waiting on the pool, batches in flight
        wait, calls = sim_engine.wait, []

        def interrupted(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return wait(*args, **kwargs)

        monkeypatch.setattr(sim_engine, "wait", interrupted)
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--config", str(config_file), "--out", str(out),
               "--snr-min", "4", "--snr-max", "8", "--workers", workers])
    assert rc == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched pipeline")
def test_ctrl_c_stops_running_pool_batches(config_file, tmp_path, capsys, monkeypatch):
    # workers ignore SIGINT, so a real Ctrl-C must not wait out the batches
    # they are running
    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch",
                        lambda self, *batch: time.sleep(30))
    out = tmp_path / "x.csv"
    timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
    start = time.monotonic()
    timer.start()
    try:
        rc = main(["sweep", "--config", str(config_file), "--out", str(out),
                   "--snr-min", "4", "--snr-max", "8", "--workers", "2"])
    finally:
        timer.cancel()
    assert rc == 130
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()
    assert not multiprocessing.active_children()


SPLIT_CONFIG = BASE_CONFIG.replace("batch_frames = 4", "batch_frames = 64") \
    .replace("max_frames = 8", "max_frames = 64")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="helpers must inherit the patched pipeline")
def test_dead_helper_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    run_share = sim_engine._FramePipeline._run_share

    def helpers_die(self, n0, snr_index, frame_start, n_frames):
        if frame_start > 0:         # the second share, the helper's
            os._exit(9)
        return run_share(self, n0, snr_index, frame_start, n_frames)

    monkeypatch.setattr(sim_engine._FramePipeline, "_run_share", helpers_die)
    monkeypatch.setattr(sim_engine, "_CPUS", 2)
    cfg, out = tmp_path / "split.cfg", tmp_path / "x.csv"
    cfg.write_text(SPLIT_CONFIG)
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--snr-min", "4", "--snr-max", "8"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "terminated abruptly while running frames 32 to 63 of SNR point 0" in err
    assert not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="helpers must inherit the patched pipeline")
def test_ctrl_c_during_a_split_batch_stops_its_helpers(tmp_path, capsys, monkeypatch):
    # helpers ignore SIGINT; the parent, waiting for their shares, must not wait them out
    run_share = sim_engine._FramePipeline._run_share

    def helpers_stall(self, n0, snr_index, frame_start, n_frames):
        if frame_start > 0:
            time.sleep(30)
        return run_share(self, n0, snr_index, frame_start, n_frames)

    monkeypatch.setattr(sim_engine._FramePipeline, "_run_share", helpers_stall)
    monkeypatch.setattr(sim_engine, "_CPUS", 2)
    cfg, out = tmp_path / "split.cfg", tmp_path / "x.csv"
    cfg.write_text(SPLIT_CONFIG)
    timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
    start = time.monotonic()
    timer.start()
    try:
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--snr-min", "4", "--snr-max", "8"])
    finally:
        timer.cancel()
    assert rc == 130
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()
    assert not multiprocessing.active_children()


def _proc_state_and_parent(pid: int):
    """(state, ppid) from /proc/<pid>/stat, or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]    # the name may hold spaces
    return state, int(ppid)


def _live_children(pid: int) -> list[int]:
    kids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        info = _proc_state_and_parent(int(entry))
        if info is not None and info[1] == pid and info[0] != "Z":
            kids.append(int(entry))
    return kids


def _child_env(**extra) -> dict:
    """os.environ for a `python -m bicmb_pc.cli` child that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


@contextlib.contextmanager
def _subreaper():
    """While active, orphaned descendants are re-parented to this process, which can reap them."""
    prctl, set_child_subreaper = ctypes.CDLL(None).prctl, 36
    prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
    prctl(set_child_subreaper, 1, 0, 0, 0)
    try:
        yield
    finally:
        prctl(set_child_subreaper, 0, 0, 0, 0)


@pytest.mark.skipif(sys.platform != "linux" or multiprocessing.get_start_method() != "fork",
                    reason="reads /proc, and pool workers must fork")
def test_sigterm_stops_a_pooled_sweep(tmp_path):
    # a D=3 16-QAM sweep that would run for minutes on two workers
    cfg = tmp_path / "long.cfg"
    cfg.write_text("dim = 3\nmax_frames = 20000\ntarget_bit_errors = 1000000000\n")
    workers = []
    with _subreaper(), subprocess.Popen(
            [sys.executable, "-m", "bicmb_pc.cli", "sweep", "--config", str(cfg),
             "--out", str(tmp_path / "x.csv"), "--snr-min", "24", "--snr-max", "27",
             "--workers", "2"],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True) as proc:
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _live_children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 143
            left = [pid for pid in workers
                    if (_proc_state_and_parent(pid) or ("Z",))[0] != "Z"]
            assert not left
            assert proc.stderr.read() == "terminated\n"     # no worker holds the pipe now
            assert not (tmp_path / "x.csv").exists()
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid in workers:     # a worker the sweep left behind, re-parented here
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


ORPHANING_SCRIPT = """
import os, signal
from bicmb_pc import sim_engine
sim_engine._CPUS = 2
pipe = sim_engine._FramePipeline(sim_engine.SystemConfig(nominal_info_bits=128))
pipe.run_batch(6.0, 0, 0, 64)
print(pipe._helpers[0].process.pid, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(sys.platform != "linux" or multiprocessing.get_start_method() != "fork",
                    reason="uses a Linux child subreaper, and helpers must fork")
def test_helpers_end_when_their_parent_is_killed():
    # SIGKILL runs no clean-up in the parent; a helper waiting for its next
    # share must see its pipe close and end, not wait forever
    with _subreaper():
        proc = subprocess.run([sys.executable, "-c", ORPHANING_SCRIPT], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        helper = int(proc.stdout)
        deadline = time.monotonic() + 10
        try:
            while os.waitpid(helper, os.WNOHANG) == (0, 0):
                assert time.monotonic() < deadline, "the helper outlived its parent"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(helper, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(helper, 0)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["selftest", "sweep"])
def test_closed_stdout_exits_141_quietly(config_file, tmp_path, command, unbuffered):
    # the reader end is closed before the child starts, as `| true` may do
    argv = {"selftest": ["selftest"],
            "sweep": ["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
                      "--snr-min", "4", "--snr-max", "5"]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env(PYTHONUNBUFFERED=unbuffered)     # empty is unset to Python
    try:
        proc = subprocess.run([sys.executable, "-m", "bicmb_pc.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
    if command == "sweep":      # the CSV is written before anything is printed
        assert [r.snr_db for r in read_csv(tmp_path / "x.csv")[1]] == [4.0, 5.0]


def test_sigterm_handler_is_restored_after_main(config_file, tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
                 "--snr-min", "4", "--snr-max", "4"]) == 0
    assert signal.getsignal(signal.SIGTERM) == before


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config"])
    assert exc.value.code == 2


def test_workers_below_one_is_a_usage_error(config_file, tmp_path, capsys):
    for bad in ("0", "-2", "abc", "2.5"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_file),
                  "--out", str(tmp_path / "x.csv"),
                  "--snr-min", "1", "--snr-max", "1", "--workers", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--workers: expected an integer from 1 to 64, got '{bad}'" in err
    assert not (tmp_path / "x.csv").exists()


def test_workers_above_the_cap_is_a_usage_error(config_file, tmp_path, capsys, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was built")

    monkeypatch.setattr(sim_engine, "ProcessPoolExecutor", NoPool)
    for bad in ("65", "100000"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_file),
                  "--out", str(tmp_path / "x.csv"),
                  "--snr-min", "1", "--snr-max", "1", "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_read_csv_names_missing_columns(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("# config_hash=abc\nsnr_db,frames,ber\n1.0,4,0.0\n")
    with pytest.raises(ValueError, match="info_bits, bit_errors"):
        read_csv(path)
    path.write_text("snr_db,frames,info_bits,bit_errors\n1.0,4\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_analyze_rejects_garbage_csv(config_file, tmp_path, capsys):
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("lorem ipsum\n1 2 3\n")
    rc = main(["analyze", str(garbage), "--config", str(config_file), "--force"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "snr_db" in err


@pytest.mark.parametrize("row,problem", [
    ("nan,4,100,3", "snr_db must be finite"),
    ("inf,4,100,3", "snr_db must be finite"),
    ("-1e308,4,100,3", "snr_db must be between -3082.5 and 3082.5 dB"),
    ("5.0,-4,100,3", "frames must be nonnegative"),
    ("5.0,4,-100,3", "info_bits must be nonnegative"),
    ("5.0,4,100,-3", "bit_errors must be nonnegative"),
    ("5.0,4,100,500", "bit_errors exceeds info_bits"),
])
def test_analyze_rejects_bad_csv_row(config_file, tmp_path, capsys, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"snr_db,frames,info_bits,bit_errors\n4.0,4,100,10\n{row}\n")
    rc = main(["analyze", str(path), "--config", str(config_file), "--force"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: data row 2: {problem}\n"


def test_analyze_single_snr_has_no_slope(config_file, tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("snr_db,frames,info_bits,bit_errors\n4.0,4,100,10\n4.0,4,100,12\n")
    rc = main(["analyze", str(path), "--config", str(config_file), "--force"])
    assert rc == 0
    assert "empirical slope:         need positive BER at two or more distinct SNRs" \
        in capsys.readouterr().out


def test_analyze_rejects_non_finite_beta(tmp_path, capsys):
    for beta in ("nan 0.01; 0.01 0.01", "nan nan; nan nan", "inf 0.01; 0.01 0.01"):
        path = tmp_path / "nan.cfg"
        path.write_text(BASE_CONFIG.replace("beta = 0.01 0.01; 0.01 0.01",
                                            f"beta = {beta}"))
        rc = main(["analyze", str(tmp_path / "unused.csv"), "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: beta entries must be finite\n"


def test_sweep_rejects_non_finite_spacing(tmp_path, capsys):
    path = tmp_path / "far.cfg"
    path.write_text(BASE_CONFIG + "spacing = inf\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: spacing must be positive and finite\n"
    assert not (tmp_path / "x.csv").exists()


CEILING_CONFIG = "nominal_info_bits = 128\nbatch_frames = 2\nmax_frames = 2\n"


@pytest.mark.parametrize("line, snr, problem", [
    ("beta = 1e305 1e305; 1e305 1e305", "20",
     "beta gives a mean channel power of 5.12e+307, above the ceiling of 1e+300"),
    ("beta = 1e306 1e306; 1e306 1e306", "20",
     "beta gives a mean channel power of inf, above the ceiling of 1e+300"),
    ("beta = 1e307 1e307; 1e307 1e307", "20",
     "beta gives a mean channel power of inf, above the ceiling of 1e+300"),
    ("spacing = 1e307", "20", "spacing = 1e+307 gives a steering phase span of inf rad, "
     "above the ceiling of 1e+300"),
    ("", "-3060", "SNR -3060.0 dB gives noise variance 3.2e+307, above the ceiling of 1e+300"),
], ids=["beta-1e305", "beta-1e306", "beta-1e307", "spacing-1e307", "snr-minus-3060"])
def test_values_past_the_numeric_ceiling_are_rejected_before_any_batch(
        tmp_path, capsys, monkeypatch, line, snr, problem):
    path = tmp_path / "huge.cfg"
    path.write_text(CEILING_CONFIG + line + "\n")
    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", _no_batch)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", snr, "--snr-max", snr])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("config, problem", [
    (CEILING_CONFIG.replace("batch_frames = 2", f"batch_frames = {10 ** 40}"),
     f"batch_frames = {10 ** 40} exceeds max_frames = 2"),
    (CEILING_CONFIG + "n_t = 1048576\nn_r = 1048576\n",
     "n_t = 1048576, n_r = 1048576 and n_paths (8 paths in all) give 33554432 steering "
     "entries per frame, above the ceiling of 262144, which keeps one 64-frame block's "
     "channel draw within 512 MiB"),
    # numpy holds 2**63 + 5 as uint64, which an int64 grid wrapped to a negative count
    (CEILING_CONFIG + "n_paths = {0} {0}; {0} {0}\n".format(2 ** 63 + 5),
     f"n_paths entries must be at most {2 ** 63 - 1}"),
    # four blocks of 2**62 paths summed to 0 in int64, which read as too few for the streams
    (CEILING_CONFIG + "n_paths = {0} {0}; {0} {0}\n".format(2 ** 62),
     f"n_t = 16, n_r = 8 and n_paths ({2 ** 64} paths in all) give {48 * 2 ** 64} steering "
     "entries per frame, above the ceiling of 262144, which keeps one 64-frame block's "
     "channel draw within 512 MiB"),
], ids=["batch-past-cap", "antennas-2-20", "paths-2-63-plus-5", "paths-2-62"])
def test_unbounded_work_is_rejected_before_any_batch(tmp_path, capsys, monkeypatch,
                                                     config, problem):
    # none may reach a batch: a batch past the cap would never end, 2**20 antennas would
    # not fit in memory, and a wrapped path count fails inside the channel draw
    path = tmp_path / "huge.cfg"
    path.write_text(config)
    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", _no_batch)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "20", "--snr-max", "20"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("line, snr", [
    ("beta = 1.9e297 1.9e297; 1.9e297 1.9e297", "20"),    # power 9.7e299
    ("spacing = 1e298", "20"),                            # span 9.4e299 rad
    ("", "-2984.9"),                                      # n0 9.8e299
], ids=["beta", "spacing", "snr"])
def test_values_just_under_the_numeric_ceiling_run_clean(tmp_path, capsys, line, snr):
    # pyproject turns any RuntimeWarning into an error
    path = tmp_path / "large.cfg"
    path.write_text(CEILING_CONFIG + line + "\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", snr, "--snr-max", snr])
    assert rc == 0, capsys.readouterr().err
    (row,) = read_csv(tmp_path / "x.csv")[1]
    assert row.frames == 2 and 0 <= row.bit_errors <= row.info_bits


def test_bad_scalar_value_names_file_line_and_key(config_file, tmp_path, capsys):
    path = tmp_path / "float.cfg"
    path.write_text(BASE_CONFIG.replace("n_t = 16", "n_t = 16.0"))
    line = BASE_CONFIG.splitlines().index("n_t = 16") + 1
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {path}:{line}: n_t must be an integer, got '16.0'\n"


@pytest.mark.parametrize("line,bad,problem", [
    ("n_paths = 2 2; 2 2", "n_paths = 2.5 2; 2 2", "n_paths must be an integer, got '2.5'"),
    ("beta = 0.01 0.01; 0.01 0.01", "beta = 0.01 0.01; 0.01 x", "beta must be a number, got 'x'"),
])
def test_bad_grid_entry_reads_like_a_scalar_error(tmp_path, capsys, line, bad, problem):
    path = tmp_path / "grid.cfg"
    path.write_text(BASE_CONFIG.replace(line, bad))
    ln = BASE_CONFIG.splitlines().index(line) + 1
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}:{ln}: {problem}\n"


def test_repeated_key_names_both_lines(config_file, tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text(BASE_CONFIG + "n_t = 4\n")
    first = BASE_CONFIG.splitlines().index("n_t = 16") + 1
    second = len(BASE_CONFIG.splitlines()) + 1
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {path}:{second}: n_t already set on line {first}\n"
    assert not (tmp_path / "x.csv").exists()


def test_negative_seed_is_rejected_by_name(config_file, tmp_path, capsys):
    for cfg_text, flags in ((BASE_CONFIG, ["--seed", "-1"]),
                            (BASE_CONFIG.replace("master_seed = 3", "master_seed = -1"), [])):
        path = tmp_path / "seed.cfg"
        path.write_text(cfg_text)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
                   "--snr-min", "10", "--snr-max", "10", *flags])
        assert rc == 1
        assert capsys.readouterr().err == "error: master_seed must be nonnegative\n"
    with pytest.raises(ValueError, match="master_seed must be nonnegative"):
        SystemConfig(master_seed=-1)


@pytest.mark.parametrize("line,single,problem", [
    ("n_paths = 2 2; 2 2", "n_paths = 2",
     "n_paths must be scalar or shaped (2, 2), got shape (1, 1)"),
    ("beta = 0.01 0.01; 0.01 0.01", "beta = 0.01",
     "beta must have shape (2, 2), got shape (1, 1)"),
])
def test_one_entry_grid_names_the_shape_it_got(tmp_path, capsys, line, single, problem):
    # a config file reads every grid key as rows, so one number is a 1x1 grid
    path = tmp_path / "single.cfg"
    path.write_text(BASE_CONFIG.replace(line, single))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv"),
               "--snr-min", "10", "--snr-max", "10"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "x.csv").exists()
