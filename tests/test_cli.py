import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from bicmb_pc import cli, sim_engine
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


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_sweep_rejects_out_of_range_snr(config_file, tmp_path, capsys, snr):
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
               "--snr-min", snr, "--snr-max", snr])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"SNR {float(snr)} dB" in err


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
    rc = main(["analyze", str(out), "--config", str(config_file),
               "--exact-ratios"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kappa (diversity order): 8" in text
    assert "zeta_min" in text
    cfg = load_config(str(config_file))
    _, rows = read_csv(out)
    expected = pep_bound([r.snr_db for r in rows], 8, 0.005,
                         zeta_min(build_params(2), QamConstellation(16)),
                         2, cfg.geometry.total_tx, cfg.l_t)
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
    assert "all checks passed" in capsys.readouterr().out


def test_selftest_corruption_hook_fails(monkeypatch, capsys):
    # negative control: a perturbed D=2 generator must trip the checks
    def perturbed(d):
        params = build_params(d)
        if d != 2:
            return params
        g = params.generator.copy()
        g[0, 0] *= 1.001
        return dataclasses.replace(params, generator=g)

    monkeypatch.setattr(cli, "build_params", perturbed)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL generator unitary (d=2)" in out
    assert "FAIL codeword energy preserved (d=2)" in out


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


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config"])
    assert exc.value.code == 2


def test_workers_below_one_is_a_usage_error(config_file, tmp_path, capsys):
    for bad in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_file),
                  "--out", str(tmp_path / "x.csv"),
                  "--snr-min", "1", "--snr-max", "1", "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
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
