import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bicmb_pc.analysis import (
    DiversityReport,
    diversity_report,
    empirical_slope,
    pep_bound,
    snr_at_ber,
    welch_satterthwaite,
    zeta_min,
)
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params


def test_uniform_profile_exact_kappa():
    kappa, theta = welch_satterthwaite([[1, 1], [1, 1]], 2)
    assert isinstance(kappa, Fraction)
    assert kappa == Fraction(8)
    assert theta == Fraction(1, 2)


def test_uneven_paths_same_kappa():
    # 1/6 + 1/2 + 1/3 + 1/1 = 2, so kappa again (4b)^2 / (2 b^2) = 8
    kappa, theta = welch_satterthwaite([[1, 1], [1, 1]], [[6, 2], [3, 1]])
    assert kappa == Fraction(8)


def test_kappa_theta_product_is_total_gain():
    beta = [[Fraction(3, 100), Fraction(1, 100)], [Fraction(2, 100), Fraction(4, 100)]]
    kappa, theta = welch_satterthwaite(beta, [[2, 3], [1, 4]])
    assert kappa * theta == sum(sum(row) for row in beta)


def test_float_inputs_give_floats():
    kappa, theta = welch_satterthwaite(0.01 * np.ones((2, 2)), 2)
    assert isinstance(kappa, float)
    assert kappa == pytest.approx(8.0, abs=1e-12)
    assert theta == pytest.approx(0.005, abs=1e-15)


def test_kappa_bounded_by_total_paths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        shape = (rng.integers(1, 4), rng.integers(1, 4))
        beta = rng.integers(1, 20, shape)
        paths = rng.integers(1, 6, shape)
        kappa, _ = welch_satterthwaite(beta, paths)
        assert kappa <= int(paths.sum())
    # equality when beta proportional to the path counts
    kappa, _ = welch_satterthwaite([[4, 2], [6, 2]], [[2, 1], [3, 1]])
    assert kappa == 7


def test_welch_satterthwaite_validation():
    with pytest.raises(ValueError):
        welch_satterthwaite([1, 1], 2)
    with pytest.raises(ValueError):
        welch_satterthwaite([[1, 1]], [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        welch_satterthwaite([[1, -1]], 2)
    with pytest.raises(ValueError):
        welch_satterthwaite([[0, 0]], 2)
    with pytest.raises(ValueError):
        welch_satterthwaite([[1, 1]], [[0, 1]])


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


def test_zeta_min_16qam_positive_and_deterministic():
    params = build_params(2)
    c = QamConstellation(16)
    z1 = zeta_min(params, c)
    z2 = zeta_min(params, c)
    assert z1 == z2
    assert 0 < z1 < 1


def test_zeta_min_rejects_colliding_lattice_rows():
    # an identity generator maps distinct symbol vectors onto the same row
    # value, which the exact branch must report even under python -O
    params = dataclasses.replace(build_params(2), generator=np.eye(2))
    with pytest.raises(RuntimeError, match="coincide"):
        zeta_min(params, QamConstellation(4))


def test_zeta_min_sampled_upper_bounds_exact():
    params = build_params(3)
    c = QamConstellation(16)
    exact = zeta_min(params, c)           # 4096-point grid, exact path
    sampled = zeta_min(params, c, n_samples=50_000, seed=1)
    assert sampled >= exact - 1e-12
    assert sampled < 10 * exact + 1.0


def test_pep_bound_slope_is_kappa():
    snr = np.array([30.0, 40.0])
    vals = pep_bound(snr, kappa=8.0, theta=0.005, zeta=0.1, dim=2, total_tx=32, l_t=2)
    decades = np.log10(vals[0] / vals[1])
    assert decades == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        pep_bound(snr, kappa=-1, theta=0.005, zeta=0.1, dim=2, total_tx=32, l_t=2)


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


def test_snr_at_ber_interpolates():
    snr_db = np.array([10.0, 12.0, 14.0])
    ber = np.array([1e-2, 1e-3, 1e-4])
    assert snr_at_ber(snr_db, ber, 1e-3) == pytest.approx(12.0)
    assert snr_at_ber(snr_db, ber, 10 ** -3.5) == pytest.approx(13.0)
    with pytest.raises(ValueError):
        snr_at_ber(snr_db, ber, 1e-9)


def test_diversity_report_assembly():
    params = build_params(2)
    rep = diversity_report([[1, 1], [1, 1]], 2, params, QamConstellation(16),
                           total_tx=32, l_t=2)
    assert isinstance(rep, DiversityReport)
    assert rep.kappa == pytest.approx(8.0)
    assert rep.pep(40.0) < rep.pep(30.0)
