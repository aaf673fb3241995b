"""Command line front end: BER sweeps, curve analysis, self checks.

Config files are flat key = value lines matching SystemConfig fields.
Grids (beta, n_paths) use semicolon-separated rows, e.g.

    beta = 0.01 0.01; 0.01 0.01
    n_paths = 6 2; 3 1

Exit codes: 0 success, 1 failed checks, bad inputs or a sweep worker that
died, 2 usage errors, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from fractions import Fraction

import numpy as np

from .analysis import empirical_slope, pep_bound, welch_satterthwaite, zeta_min
from .detector import MetricEngine
from .fec import (N_TAIL, QamConstellation, conv_encode, free_distance, interleaver,
                  viterbi_decode_batch)
from .pstbc import SUPPORTED_DIMS, build_params, encode_batch, group_decompose
from .sim_engine import (
    MAX_WORKERS,
    SystemConfig,
    config_hash,
    read_csv,
    read_lines,
    run_ber_point,
    run_sweep,
    write_csv,
)

# each key's kind is its default's: int, float, or a grid of the default's entries
_DEFAULTS = SystemConfig().to_dict()


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
    if not 1 <= int(text) <= MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"must be from 1 to {MAX_WORKERS}, got {text}")
    return int(text)


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
    grid = args.snr_min + args.snr_step * np.arange(n)
    return grid[grid <= args.snr_max + 1e-9]


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args.seed)
    grid = _snr_grid(args)
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
    if args.exact_ratios:
        beta = [[Fraction(str(b)) for b in row] for row in config.beta]
    else:
        beta = np.asarray(config.beta, dtype=float)
    kappa, theta = welch_satterthwaite(beta, np.asarray(config.n_paths))
    params = build_params(config.dim)
    zeta = zeta_min(params, QamConstellation(config.constellation_order))
    print(f"kappa (diversity order): {kappa}")
    print(f"theta (gamma scale):     {theta}")
    print(f"zeta_min:                {zeta:.6g}")
    snr = np.array([r.snr_db for r in results])
    ber = np.array([r.ber for r in results])
    bound = pep_bound(snr, kappa, theta, zeta, config.dim,
                      config.geometry.total_tx, config.l_t)
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


def _selftest_checks():
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(0)
    params_by_dim = {d: build_params(d) for d in SUPPORTED_DIMS}
    for d, params in params_by_dim.items():
        gg = params.generator @ params.generator.conj().T
        check(f"generator unitary (d={d})", np.abs(gg - np.eye(d)).max() < 1e-12)
        ed = np.linalg.matrix_power(params.shift, d)
        check(f"shift identity (d={d})", np.abs(ed - params.g * np.eye(d)).max() < 1e-12)
        x = rng.standard_normal((20, d, d)) + 1j * rng.standard_normal((20, d, d))
        z = encode_batch(params, x)
        worst = np.abs(np.linalg.norm(z, axis=(1, 2))
                       - np.linalg.norm(x, axis=(1, 2))).max()
        check(f"codeword energy preserved (d={d})", worst < 1e-10)

    check("free distance = 10", free_distance() == 10)

    perm, inverse = interleaver(256, seed=7)
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    check("interleaver round trip", np.array_equal(bits[perm][inverse], bits))

    info = rng.integers(0, 2, 58).astype(np.uint8)
    coded = conv_encode(np.concatenate([info, np.zeros(N_TAIL, dtype=np.uint8)]))
    metrics = np.zeros((1, coded.size, 2))
    metrics[0, np.arange(coded.size), 1 - coded] = 1.0
    check("viterbi clean loopback",
          np.array_equal(viterbi_decode_batch(metrics)[0], info))

    c = QamConstellation(16)
    check("constellation unit energy",
          abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12)

    params = params_by_dim[2]
    lam = np.array([2.0, 1.0])
    labels = rng.integers(0, 16, (2, 2))
    x = c.points[labels]
    z = encode_batch(params, x)
    groups = group_decompose(lam[:, None] * z, params)
    gamma = MetricEngine(params, c, lam).bit_metrics(groups)
    hit = all(gamma[v, m, j, c.label_bits[labels[v, m], j]] < 1e-12
              for v in range(2) for m in range(2) for j in range(4))
    umin = gamma[:, 0, 0, :].min(axis=-1)
    check("noiseless group metrics vanish", hit and np.allclose(umin, 0, atol=1e-12))

    cfg = SystemConfig(nominal_info_bits=128, batch_frames=2, max_frames=2,
                       target_bit_errors=1)
    res = run_ber_point(cfg, snr_db=0.0, noiseless=True)
    check("noiseless link loopback", res.bit_errors == 0)
    return failures


def _cmd_selftest(args) -> int:
    failures = _selftest_checks()
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
    analyze.add_argument("--exact-ratios", action="store_true",
                         help="treat beta as integer ratios for exact kappa")
    analyze.set_defaults(func=_cmd_analyze)

    selftest = sub.add_parser("selftest", help="fast invariant checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:   # any pool is shut down by then
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
