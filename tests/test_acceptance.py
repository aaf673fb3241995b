"""End-to-end acceptance checks for the distributed-subarray BICMB-PC stack.

Each test prints one line pairing the measured quantity with its bound, so
a `pytest -v -s` run doubles as a results table.  The three Monte Carlo
sweep checks share one base BER curve and are marked slow; deselect them
with `-m 'not slow'` for a quick pass.
"""
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from bicmb_pc.analysis import empirical_slope, welch_satterthwaite
from bicmb_pc.channel_model import ChannelModel
from bicmb_pc.detector import MetricEngine
from bicmb_pc.fec import QamConstellation, free_distance
from bicmb_pc.pstbc import build_params, encode_batch, group_decompose
from bicmb_pc.sim_engine import (
    SystemConfig,
    config_hash,
    noise_variance,
    run_ber_point,
    run_sweep,
    write_csv,
)
from oracles import assemble_channel, snr_at_ber, theta_samples

# Shared Monte Carlo budget for the slow sweep checks.  The stop rule and
# the per-frame seeding make every curve below reproducible bit for bit, for
# any worker count, so the sweeps run on two workers to save wall time.
SWEEP_BUDGET = dict(target_bit_errors=150, max_frames=12000)
BASE_GRID = [22.0, 23.0, 24.0, 25.0, 26.0, 27.0]
SLOPE_WINDOW = (1e-5, 3e-2)


def window_slope(results, window=SLOPE_WINDOW):
    """Log-log slope fitted over the waterfall portion of a BER curve."""
    snr = np.array([r.snr_db for r in results])
    ber = np.array([r.ber for r in results])
    keep = (ber >= window[0]) & (ber <= window[1])
    return empirical_slope(snr[keep], ber[keep])


@pytest.fixture(scope="module")
def base_sweep():
    """Uniform-profile curve reused by the three sweep criteria."""
    return run_sweep(SystemConfig(**SWEEP_BUDGET), BASE_GRID, workers=2)


def test_criterion_01_diversity_order_exact():
    one = Fraction(1, 100)
    uniform = dict(n_t=16, n_r=8, l_t=2, l_r=2, beta=((0.01, 0.01), (0.01, 0.01)))
    kappa_u, theta_u = welch_satterthwaite(ChannelModel(**uniform, n_paths=((2, 2), (2, 2))))
    kappa_n, _ = welch_satterthwaite(ChannelModel(**uniform, n_paths=((6, 2), (3, 1))))
    assert isinstance(kappa_u, Fraction) and isinstance(kappa_n, Fraction)
    assert kappa_u == Fraction(8)
    assert kappa_n == Fraction(8)
    assert theta_u == one / 2
    print(f"criterion 01 PASS: kappa uniform={kappa_u}, kappa [6,2;3,1]={kappa_n} "
          "(both exactly 8)")


def test_criterion_02_code_identities():
    rng = np.random.default_rng(42)
    worst_unit = worst_shift = worst_energy = 0.0
    for dim in (2, 3, 4, 6):
        p = build_params(dim)
        eye = np.eye(dim)
        worst_unit = max(worst_unit, np.abs(
            p.generator @ p.generator.conj().T - eye).max())
        worst_shift = max(worst_shift, np.abs(
            np.linalg.matrix_power(p.shift, dim) - p.g * eye).max())
        x = rng.standard_normal((1000, dim, dim, 2)) @ np.array([1.0, 1.0j])
        z = encode_batch(p, x)
        ex = (np.abs(x) ** 2).reshape(1000, -1).sum(axis=1)
        ez = (np.abs(z) ** 2).reshape(1000, -1).sum(axis=1)
        worst_energy = max(worst_energy, (np.abs(ez - ex) / ex).max())
    assert worst_unit < 1e-12
    assert worst_shift < 1e-12
    assert worst_energy < 1e-10
    print(f"criterion 02 PASS: unitarity {worst_unit:.2e} < 1e-12, "
          f"shift identity {worst_shift:.2e} < 1e-12, "
          f"energy drift {worst_energy:.2e} < 1e-10")


def test_criterion_03_detector_oracle_equivalence():
    params = build_params(2)
    const = QamConstellation(16)
    engine = MetricEngine(params, const)
    d, k, bps = 2, 16, 4
    labels = np.indices((k,) * d ** 2).reshape(d ** 2, -1).T   # (65536, 4)
    x_all = const.points[labels].reshape(-1, d, d)
    z_all = encode_batch(params, x_all)                        # (65536, 2, 2)

    channel = ChannelModel(n_t=8, n_r=4, l_t=2, l_r=2, beta=np.full((2, 2), 0.01), n_paths=2)
    n0 = noise_variance(channel.total_tx, 10.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        h = assemble_channel(rng, channel)
        lam = np.linalg.svd(h, compute_uv=False)[:d]
        z_true = z_all[rng.integers(0, len(z_all))]
        noise = rng.standard_normal((d, d, 2)) @ np.array([1.0, 1.0j])
        y = lam[:, None] * z_true + np.sqrt(n0 / 2.0) * noise

        dists = (np.abs(y[None] - lam[None, :, None] * z_all) ** 2).sum(axis=(1, 2))
        gamma = engine.bit_metrics(lam[None], group_decompose(y, params)[None])[0]
        umin = gamma[:, 0, 0, :].min(axis=-1)
        other = umin.sum() - umin
        for v in range(d):
            col = labels[:, v * d:(v + 1) * d]
            for m in range(d):
                per_label = np.full(k, np.inf)
                np.minimum.at(per_label, col[:, m], dists)
                for j in range(bps):
                    for b in (0, 1):
                        brute = per_label[const.subset_indices[j, b]].min()
                        recon = gamma[v, m, j, b] + other[v]
                        worst = max(worst, abs(brute - recon))
    assert worst < 1e-10
    print(f"criterion 03 PASS: group+QR vs full enumeration over 16^4 codewords, "
          f"max abs deviation {worst:.2e} < 1e-10 across 100 noisy instances")


@pytest.mark.parametrize("dim,n_t,n_r", [(2, 16, 8), (3, 16, 8), (4, 8, 8)])
def test_criterion_04_noiseless_loopback(dim, n_t, n_r):
    cfg = SystemConfig(dim=dim, n_t=n_t, n_r=n_r, batch_frames=25,
                       max_frames=100, target_bit_errors=1)
    res = run_ber_point(cfg, snr_db=0.0, noiseless=True)
    assert res.frames == 100
    assert res.bit_errors == 0
    print(f"criterion 04 PASS: D={dim} noiseless BER = 0 over {res.frames} frames "
          f"({res.info_bits} info bits)")


def test_criterion_05_free_distance():
    d_free = free_distance()
    assert d_free == 10
    print(f"criterion 05 PASS: free distance of (133,171) = {d_free}")


def test_criterion_06_gamma_shape_statistics():
    channel = ChannelModel(n_t=64, n_r=64, l_t=2, l_r=2, beta=np.full((2, 2), 0.01), n_paths=2)
    rng = np.random.default_rng(2026)
    samples = theta_samples(rng, channel, 5000)
    scaled = samples / (channel.n_t * channel.n_r)
    kappa, theta = welch_satterthwaite(channel)
    assert kappa == 8.0
    result = stats.kstest(scaled, "gamma", args=(float(kappa), 0.0, float(theta)))
    assert result.pvalue >= 0.01
    print(f"criterion 06 PASS: KS p-value {result.pvalue:.3f} >= 0.01 for 5000 "
          f"samples vs Gamma({float(kappa):.0f}, {float(theta):.4f})")


@pytest.mark.slow
def test_criterion_07_slope_across_path_profiles(base_sweep):
    uneven = run_sweep(SystemConfig(n_paths=((6, 2), (3, 1)), **SWEEP_BUDGET),
                       BASE_GRID, workers=2)
    s_uniform = window_slope(base_sweep)
    s_uneven = window_slope(uneven)
    rel = abs(s_uniform - s_uneven) / max(s_uniform, s_uneven)
    assert rel <= 0.20
    print(f"criterion 07 PASS: slope uniform L=2 {s_uniform:.2f} vs "
          f"L=[6,2;3,1] {s_uneven:.2f}, rel diff {rel:.3f} <= 0.20")


@pytest.mark.slow
def test_criterion_08_resource_doubling_shift(base_sweep):
    doubled = run_sweep(SystemConfig(n_t=32, n_r=16, **SWEEP_BUDGET),
                        [19.0, 20.0, 21.0, 22.0, 23.0, 24.0], workers=2)
    snr_base = snr_at_ber([r.snr_db for r in base_sweep],
                          [r.ber for r in base_sweep], 1e-3)
    snr_dbl = snr_at_ber([r.snr_db for r in doubled],
                         [r.ber for r in doubled], 1e-3)
    shift = snr_base - snr_dbl
    s_base = window_slope(base_sweep)
    s_dbl = window_slope(doubled)
    rel = abs(s_base - s_dbl) / s_base
    assert 3.0 - 0.7 <= shift <= 3.0 + 0.7
    assert rel <= 0.20
    print(f"criterion 08 PASS: doubling both array sizes shifts SNR@1e-3 by "
          f"{shift:.2f} dB (3.0 +/- 0.7), slope {s_base:.2f} -> {s_dbl:.2f} "
          f"(rel diff {rel:.3f} <= 0.20)")


@pytest.mark.slow
def test_criterion_09_beta_invariant_slope(base_sweep):
    s_mid = window_slope(base_sweep)          # beta = -20 dB
    slopes = {-20.0: s_mid}
    grids = {-15.0: [17.0, 18.0, 19.0, 20.0, 21.0, 22.0],
             -25.0: [27.0, 28.0, 29.0, 30.0, 31.0, 32.0]}
    for level_db, grid in grids.items():
        b = 10.0 ** (level_db / 10.0)
        res = run_sweep(SystemConfig(beta=((b, b), (b, b)), **SWEEP_BUDGET), grid,
                        workers=2)
        slopes[level_db] = window_slope(res)
    worst = max(abs(s - s_mid) / s_mid for s in slopes.values())
    assert worst <= 0.20
    text = ", ".join(f"{lvl:.0f} dB: {s:.2f}" for lvl, s in sorted(slopes.items()))
    print(f"criterion 09 PASS: slopes ({text}), max rel diff {worst:.3f} <= 0.20")


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = SystemConfig(nominal_info_bits=256, batch_frames=8, max_frames=16,
                       target_bit_errors=50)
    grid = [18.0, 20.0]
    paths = []
    for workers in (1, 2):
        res = run_sweep(cfg, grid, workers=workers)
        out = tmp_path / f"w{workers}.csv"
        write_csv(out, res, config_hash(cfg))
        paths.append(out)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    print(f"criterion 10 PASS: worker counts 1 and 2 produced byte-identical "
          f"CSVs ({len(a)} bytes)")
