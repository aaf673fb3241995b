"""Command line front end: BER sweeps, curve analysis, self checks.

Config files are flat key = value lines matching SystemConfig fields.
Grids (beta, n_paths) use semicolon-separated rows, e.g.

    beta = 0.01 0.01; 0.01 0.01
    n_paths = 6 2; 3 1

Exit codes: 0 success, 1 failed checks, bad inputs or a sweep worker that
died, 2 usage errors, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader (as SIGPIPE would), 143 terminated (SIGTERM).  A SIGTERM unwinds a
run as Ctrl-C does, so a sweep's pool is shut down.  A sweep writes its CSV
before it prints, so a closed stdout does not lose it.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from concurrent.futures import BrokenExecutor

import numpy as np

from .analysis import empirical_slope, pep_bound, welch_satterthwaite, zeta_min
from .fec import QamConstellation, free_distance
from .pstbc import SUPPORTED_DIMS, build_params
from .sim_engine import (
    MAX_WORKERS,
    SystemConfig,
    _check_workers,
    config_hash,
    read_csv,
    read_lines,
    run_ber_point,
    run_sweep,
    write_csv,
)

# each key's kind is its default's: int, float, or a grid of the default's entries
_DEFAULTS = SystemConfig().to_dict()
# SNR points per sweep: the grid is built whole, and each point keeps its
# own counters, before the first batch runs
MAX_SNR_POINTS = 1000


def _convert(text: str, kind: type):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"must be {'an integer' if kind is int else 'a number'}, "
                         f"got '{text}'") from None


def _parse_grid(text: str, kind: type):
    rows = []
    for i, chunk in enumerate(text.split(";"), 1):
        parts = chunk.split()
        if not parts:
            raise ValueError(f"row {i} is empty")
        rows.append(tuple(_convert(p, kind) for p in parts))
    width = max(map(len, rows))
    for i, row in enumerate(rows, 1):
        if len(row) < width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
    return tuple(rows)


def _parse_value(key: str, text: str):
    default = _DEFAULTS[key]
    if isinstance(default, tuple):
        return _parse_grid(text, type(default[0][0]))
    return _convert(text, type(default))


def load_config(path: str, seed_override: int | None = None) -> SystemConfig:
    values, set_on = {}, {}
    for ln, raw in enumerate(read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{ln}: unknown key '{key}'")
        try:
            value = _parse_value(key, val)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {key} {exc}") from None
        if key in set_on:
            raise ValueError(f"{path}:{ln}: {key} already set on line {set_on[key]}")
        values[key], set_on[key] = value, ln
    if seed_override is not None:
        values["master_seed"] = seed_override
    return SystemConfig(**values)


def _worker_count(text: str) -> int:
    """--workers as sim_engine's worker-count rule admits it; anything else is a usage error."""
    try:
        workers = int(text)
        _check_workers(workers)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer from 1 to {MAX_WORKERS}, got {text!r}") from None
    return workers


def _snr_grid(args) -> np.ndarray:
    for flag in ("snr_min", "snr_max", "snr_step"):
        if not np.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite")
    if args.snr_step <= 0:
        raise ValueError("--snr-step must be positive")
    if args.snr_max < args.snr_min:
        raise ValueError("--snr-max must be >= --snr-min")
    steps = (args.snr_max - args.snr_min) / args.snr_step
    if not np.isfinite(steps):
        raise ValueError("--snr-step is too small for the SNR range")
    n = int(round(steps)) + 1
    if n > MAX_SNR_POINTS:
        raise ValueError(f"the SNR grid has {n} points; at most {MAX_SNR_POINTS} are allowed")
    grid = args.snr_min + args.snr_step * np.arange(n)
    return grid[grid <= args.snr_max + 1e-9]


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args.seed)
    grid = _snr_grid(args)
    # a sweep can run for hours, so a CSV path that cannot be written fails first
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out} is not a file in an existing directory")
    results = run_sweep(config, grid, workers=args.workers)
    write_csv(args.out, results, config_hash(config))
    for r in results:
        print(f"snr {r.snr_db:6.2f} dB  frames {r.frames:6d}  "
              f"errors {r.bit_errors:6d}  ber {r.ber:.4e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    config = load_config(args.config)
    stored, results = read_csv(args.results)
    expected = config_hash(config)
    if stored != expected and not args.force:
        print(f"config hash mismatch: csv has {stored}, config gives {expected}",
              file=sys.stderr)
        print("pass --force to analyze anyway", file=sys.stderr)
        return 1
    kappa, theta = welch_satterthwaite(config.channel)
    zeta = zeta_min(build_params(config.dim), QamConstellation(config.constellation_order))
    print(f"kappa (diversity order): {kappa}")
    print(f"theta (gamma scale):     {theta}")
    print(f"zeta_min:                {zeta:.6g}")
    snr = np.array([r.snr_db for r in results])
    ber = np.array([r.ber for r in results])
    bound = pep_bound(snr, kappa, theta, zeta, config.dim,
                      config.channel.total_tx, config.l_t)
    for r, pep in zip(results, bound):
        # a bound of 0.5 or more says nothing about a probability of error
        mark = "  (vacuous)" if pep >= 0.5 else ""
        print(f"snr {r.snr_db:6.2f} dB  ber {r.ber:.4e}  pep bound {pep:.4e}{mark}")
    try:
        slope = empirical_slope(snr, ber)
    except ValueError as exc:
        print(f"empirical slope:         {exc}")
    else:
        print(f"empirical slope:         {slope:.3f} (per 10 dB)")
        print(f"slope / kappa:           {slope / float(kappa):.3f}")
    return 0


def _cmd_selftest(args) -> int:
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    built = []
    for d in SUPPORTED_DIMS:
        try:    # build_params asserts the generator, shift and layout identities
            build_params(d)
        except AssertionError as exc:
            check(f"code parameters (d={d}): {exc}", False)
        else:
            check(f"code parameters (d={d})", True)
            built.append(d)

    check("free distance = 10", free_distance() == 10)

    # each code that builds, through the encoder, the detector and the decoder
    for d in built:
        for order in (4, 16):
            cfg = SystemConfig(dim=d, constellation_order=order, nominal_info_bits=128,
                               batch_frames=2, max_frames=2, target_bit_errors=1)
            check(f"noiseless link loopback (d={d}, {order}-QAM)",
                  run_ber_point(cfg, 0.0, noiseless=True).bit_errors == 0)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicmb-pc",
        description="BER sweeps and diversity analysis for coded multiple "
                    "beamforming with perfect space-time codes")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo BER sweep")
    sweep.add_argument("--config", required=True, help="flat key=value config file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--snr-min", type=float, required=True)
    sweep.add_argument("--snr-max", type=float, required=True)
    sweep.add_argument("--snr-step", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=None,
                       help="override master_seed from the config")
    sweep.add_argument("--workers", type=_worker_count, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    analyze = sub.add_parser("analyze", help="diversity report for a sweep CSV")
    analyze.add_argument("results", help="CSV produced by sweep")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--force", action="store_true",
                         help="analyze even if the config hash mismatches")
    analyze.set_defaults(func=_cmd_analyze)

    selftest = sub.add_parser("selftest", help="fast invariant checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread; like KeyboardInterrupt, no except Exception takes it."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the main thread may set a handler; it is restored for in-process callers
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        status = args.func(args)
        sys.stdout.flush()          # so a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:         # the reader closed stdout early, as `| head` does
        # what is left in the buffer goes to /dev/null at exit, with no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:   # any pool is shut down by then
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:         # so it is here
        print("terminated", file=sys.stderr)
        return 143
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
