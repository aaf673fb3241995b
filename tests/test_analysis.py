import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bicmb_pc.analysis import empirical_slope, pep_bound, welch_satterthwaite, zeta_min
from bicmb_pc.channel_model import ChannelModel
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params
from oracles import snr_at_ber


def ws(beta, n_paths):
    """welch_satterthwaite of a 16 x 8 antenna model with these grids."""
    l_r, l_t = np.shape(beta)
    return welch_satterthwaite(ChannelModel(n_t=16, n_r=8, l_t=l_t, l_r=l_r, beta=beta,
                                            n_paths=n_paths))


def test_uniform_profile_exact_kappa():
    kappa, theta = ws([[1, 1], [1, 1]], [[2, 2], [2, 2]])
    assert isinstance(kappa, Fraction)
    assert kappa == Fraction(8)
    assert theta == Fraction(1, 2)
    # each float beta counts as the decimal it prints as
    kappa, theta = ws(0.01 * np.ones((2, 2)), 2)
    assert isinstance(kappa, Fraction) and isinstance(theta, Fraction)
    assert (kappa, theta) == (8, Fraction(1, 200))


def test_uneven_paths_same_kappa():
    # 1/6 + 1/2 + 1/3 + 1/1 = 2, so kappa again (4b)^2 / (2 b^2) = 8
    kappa, theta = ws([[1, 1], [1, 1]], [[6, 2], [3, 1]])
    assert kappa == Fraction(8)


def test_kappa_theta_product_is_total_gain():
    beta = [[Fraction(3, 100), Fraction(1, 100)], [Fraction(2, 100), Fraction(4, 100)]]
    kappa, theta = ws(beta, [[2, 3], [1, 4]])
    assert kappa * theta == sum(sum(row) for row in beta)
    # beta past float range when squared, or below it once divided, stays exact
    for b in (1e200, 1e-320, 5e-324):
        kappa, theta = ws([[b, b], [b, 0.0]], [[2, 3], [1, 4]])
        assert kappa * theta == 3 * Fraction(str(b))


def test_kappa_bounded_by_total_paths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        beta = rng.integers(1, 20, shape)
        paths = rng.integers(1, 6, shape)
        kappa, _ = ws(beta, paths)
        assert kappa <= int(paths.sum())
    # equality when beta proportional to the path counts
    kappa, _ = ws([[4, 2], [6, 2]], [[2, 1], [3, 1]])
    assert kappa == 7


def pairwise_zeta_min(params, constellation):
    """Reference zeta_min: every pair of grid points, every row."""
    d = params.dim
    proj = params.generator @ constellation.grid(d)        # (d, K^d)
    best = np.inf
    n = proj.shape[1]
    chunk = 512
    zero_pairs = 0
    for lo in range(0, n, chunk):
        block = proj[:, lo:lo + chunk]
        diffs = np.abs(proj[:, :, None] - block[:, None, :]) ** 2
        nz = diffs > 1e-14
        zero_pairs += int((~nz).sum())
        if nz.any():
            best = min(best, float(diffs[nz].min()))
    assert zero_pairs == d * n          # only self-pairs coincide
    return best


def test_zeta_min_qpsk_matches_direct_enumeration():
    params = build_params(2)
    c = QamConstellation(4)
    vecs = [c.points[[i, j]] for i in range(4) for j in range(4)]
    ref = np.inf
    for a in vecs:
        for b in vecs:
            if np.array_equal(a, b):
                continue
            for u in range(2):
                val = abs(params.generator[u] @ (a - b)) ** 2
                ref = min(ref, val)
    assert zeta_min(params, c) == pytest.approx(ref, rel=1e-12)
    assert ref > 1e-3


@pytest.mark.parametrize("d,order", [(2, 4), (2, 16), (3, 4), (3, 16), (4, 4), (6, 4)])
def test_zeta_min_matches_pairwise_oracle(d, order):
    params = build_params(d)
    c = QamConstellation(order)
    assert zeta_min(params, c) == pytest.approx(pairwise_zeta_min(params, c), rel=1e-9)


def test_zeta_min_pinned_d4_16qam():
    assert zeta_min(build_params(4), QamConstellation(16)) == \
        pytest.approx(1.4320011886e-06, rel=1e-6)


def test_zeta_min_d6_16qam_exact_in_bounded_memory():
    tracemalloc.start()
    try:
        z = zeta_min(build_params(6), QamConstellation(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z == pytest.approx(1.4204444891e-10, rel=1e-6)
    assert peak < 64e6


def test_zeta_min_16qam_positive_and_deterministic():
    params = build_params(2)
    c = QamConstellation(16)
    z1 = zeta_min(params, c)
    z2 = zeta_min(params, c)
    assert z1 == z2
    assert 0 < z1 < 1


def test_zeta_min_rejects_colliding_lattice_rows():
    # an identity generator maps distinct symbol vectors onto the same row
    # value, which must be reported even under python -O
    params = dataclasses.replace(build_params(2), generator=np.eye(2))
    with pytest.raises(RuntimeError, match="coincide"):
        zeta_min(params, QamConstellation(4))


def test_pep_bound_slope_is_kappa():
    snr = np.array([30.0, 40.0])
    vals = pep_bound(snr, kappa=8.0, theta=0.005, zeta=0.1, dim=2, total_tx=32, l_t=2)
    decades = np.log10(vals[0] / vals[1])
    assert decades == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        pep_bound(snr, kappa=-1, theta=0.005, zeta=0.1, dim=2, total_tx=32, l_t=2)


def test_pep_bound_reads_its_limits_past_float_range():
    # the linear SNR or the bound overflows here; pyproject makes any warning an error
    vals = pep_bound(np.array([3082.0, 1e308, -3060.0, -1e308]), kappa=8.0, theta=0.005,
                     zeta=0.1, dim=2, total_tx=32, l_t=2)
    assert vals.tolist() == [0.0, 0.0, np.inf, np.inf]
    # a positive theta that rounds to 0.0 reads the vacuous limit
    theta = Fraction(5, 6 * 10 ** 324)
    vals = pep_bound(np.array([30.0, 3082.0]), kappa=8, theta=theta, zeta=0.1, dim=2,
                     total_tx=32, l_t=2)
    assert vals.tolist() == [np.inf, np.inf]
    # such a theta against an SNR that overflows is not 0 * inf: the SNR dominates
    vals = pep_bound(np.array([1e308]), 8, Fraction(1, 10 ** 400), 0.1, 2, 32, 2)
    assert vals.tolist() == [0.0]


@pytest.mark.parametrize("name", ["kappa", "theta", "zeta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pep_bound_rejects_non_finite_inputs(name, bad):
    args = dict(kappa=8.0, theta=0.005, zeta=0.1)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        pep_bound(np.array([30.0]), dim=2, total_tx=32, l_t=2, **args)


def test_empirical_slope_recovers_power_law():
    snr_db = np.linspace(20, 40, 9)
    ber = 3.0 * (10 ** (snr_db / 10.0)) ** -8
    assert empirical_slope(snr_db, ber) == pytest.approx(8.0, abs=1e-9)


def test_empirical_slope_ignores_zero_points():
    snr_db = np.array([10.0, 20.0, 30.0])
    ber = np.array([1e-2, 1e-4, 0.0])
    assert empirical_slope(snr_db, ber) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        empirical_slope(np.array([10.0, 20.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("name", ["snr_db", "ber"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_empirical_slope_rejects_non_finite_inputs(name, bad):
    args = dict(snr_db=np.array([10.0, 20.0, 30.0]), ber=np.array([1e-2, 1e-4, 1e-6]))
    args[name][1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        empirical_slope(**args)


def test_empirical_slope_rejects_snrs_past_float_range():
    # np.polyfit's sums overflowed here; the bound is the one read_csv applies
    with pytest.raises(ValueError, match="snr_db must be between -3082.5 and 3082.5 dB"):
        empirical_slope([1e200, 2e200], [0.1, 0.01])
    assert empirical_slope([-3082.5, 3082.5], [0.1, 0.01]) == pytest.approx(1 / 616.5)


def test_empirical_slope_needs_two_distinct_snrs():
    with pytest.raises(ValueError, match="distinct"):
        empirical_slope(np.array([10.0, 10.0, 20.0]), np.array([1e-2, 2e-2, 0.0]))


def test_snr_at_ber_interpolates():
    snr_db = np.array([10.0, 12.0, 14.0])
    ber = np.array([1e-2, 1e-3, 1e-4])
    assert snr_at_ber(snr_db, ber, 1e-3) == pytest.approx(12.0)
    assert snr_at_ber(snr_db, ber, 10 ** -3.5) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        snr_at_ber(snr_db, ber, 1e-9)
