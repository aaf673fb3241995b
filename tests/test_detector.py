import itertools
import tracemalloc

import numpy as np
import pytest

from bicmb_pc import detector
from bicmb_pc.detector import (
    MetricEngine,
    group_columns,
    group_decompose,
    qr_reduce,
    sphere_metrics,
)
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params, encode_batch
from bicmb_pc.sim_engine import SystemConfig


def brute_metrics(y_group, m_mat, constellation):
    """Reference subset minima by direct enumeration, no QR involved."""
    d = m_mat.shape[0]
    bps = constellation.bits_per_symbol
    gamma = np.full((d, bps, 2), np.inf)
    umin = np.inf
    for combo in itertools.product(range(constellation.order), repeat=d):
        x = constellation.points[list(combo)]
        cost = np.sum(np.abs(y_group - m_mat @ x) ** 2)
        umin = min(umin, cost)
        for m in range(d):
            for j in range(bps):
                b = constellation.qam_bit_label(combo[m], j)
                gamma[m, j, b] = min(gamma[m, j, b], cost)
    return gamma, umin


def random_lam(rng, d):
    lam = np.sort(rng.uniform(0.5, 3.0, d))[::-1]
    return lam


def random_symbols(rng, c, d):
    labels = rng.integers(0, c.order, d)
    return c.points[labels], labels


def test_group_columns_pattern():
    cols = group_columns(3)
    assert cols.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_group_decompose_recovers_layers(d):
    rng = np.random.default_rng(d)
    params = build_params(d)
    c = QamConstellation(16)
    x = np.stack([random_symbols(rng, c, d)[0] for _ in range(d)])
    z = encode_batch(params, x)
    lam = random_lam(rng, d)
    groups = group_decompose(lam[:, None] * z, params)
    for v in range(d):
        expected = lam * (params.generator @ x[v])
        assert np.allclose(groups[v], expected, atol=1e-12)


def test_group_decompose_batch_matches_single():
    params = build_params(2)
    rng = np.random.default_rng(8)
    ys = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    batch = group_decompose(ys, params)
    for i in range(5):
        assert np.array_equal(batch[i], group_decompose(ys[i], params))


def test_group_decompose_validates_shape():
    params = build_params(2)
    with pytest.raises(ValueError):
        group_decompose(np.zeros((3, 3)), params)


def test_qr_reduce_properties():
    rng = np.random.default_rng(4)
    for shape in ((5, 5), (4, 3, 3)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q, r = qr_reduce(m)
        eye = np.eye(shape[-1])
        assert np.allclose(q @ r, m, atol=1e-12)
        assert np.allclose(r, np.triu(r), atol=1e-14)
        assert np.allclose(q.conj().swapaxes(-1, -2) @ q, eye, atol=1e-12)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.allclose(diag.imag, 0.0, atol=1e-13)
        assert (diag.real >= 0).all()


@pytest.mark.parametrize("order,d,n_trials",
                         [(4, 2, 25), (16, 2, 10), (16, 3, 2), (4, 4, 2)])
def test_exhaustive_metrics_match_brute_force(order, d, n_trials):
    """The LORD metrics equal full K^d enumeration without QR."""
    rng = np.random.default_rng(100 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    for _ in range(n_trials):
        lam = random_lam(rng, d)
        m_mat = lam[:, None] * params.generator
        x, _ = random_symbols(rng, c, d)
        noise = 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        y = m_mat @ x + noise
        got = MetricEngine(params, c, lam).bit_metrics(y[None])
        ref_gamma, ref_umin = brute_metrics(y, m_mat, c)
        assert np.allclose(got.gamma[0], ref_gamma, atol=1e-10)
        assert got.umin[0] == pytest.approx(ref_umin, abs=1e-10)


@pytest.mark.parametrize("order,d", [(16, 4), (4, 6)])
def test_sphere_matches_exhaustive(order, d):
    """The sphere search gives the same minima as LORD."""
    rng = np.random.default_rng(10 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    lam = random_lam(rng, d)
    m_mat = lam[:, None] * params.generator
    groups = []
    for _ in range(3):
        x, _ = random_symbols(rng, c, d)
        noise = 0.4 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        groups.append(m_mat @ x + noise)
    groups = np.stack(groups)
    lord = MetricEngine(params, c, lam).bit_metrics(groups)
    q, r = qr_reduce(m_mat)
    sphere = sphere_metrics(groups @ q.conj(), r, c)
    assert np.allclose(sphere, lord.gamma, atol=1e-9)
    assert np.allclose(sphere[:, 0, 0, :].min(axis=1), lord.umin, atol=1e-9)


def test_sphere_search_only_above_lord_grid_limit(monkeypatch):
    calls = []

    def spy(qobs, r, constellation):
        calls.append(qobs.shape)
        return np.zeros(qobs.shape + (constellation.bits_per_symbol, 2))

    monkeypatch.setattr(detector, "sphere_metrics", spy)
    for d, order in ((4, 16), (6, 4)):           # K^(d-1) = 4096, 1024
        MetricEngine(build_params(d), QamConstellation(order),
                     np.ones(d)).bit_metrics(np.zeros((2, d)))
    assert calls == []
    MetricEngine(build_params(6), QamConstellation(16),
                 np.ones((3, 6))).bit_metrics(np.zeros((3, 2, 6)))
    assert calls == [(2, 6)] * 3


def test_detector_memory_is_bounded():
    """One 32-frame D=3 16-QAM batch stays within a fixed allocation ceiling."""
    cfg = SystemConfig(dim=3)
    n_groups = cfg.n_codewords * cfg.dim
    rng = np.random.default_rng(9)
    lam = np.sort(rng.uniform(0.5, 3.0, (32, 3)), axis=1)[:, ::-1]
    groups = rng.standard_normal((32, n_groups, 3)) \
        + 1j * rng.standard_normal((32, n_groups, 3))
    engine = MetricEngine(build_params(3), QamConstellation(16), lam)
    tracemalloc.start()
    try:
        engine.bit_metrics(groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_noiseless_metrics_vanish_at_true_bits(d):
    rng = np.random.default_rng(200 + d)
    params = build_params(d)
    c = QamConstellation(16)
    lam = random_lam(rng, d)
    x = np.empty((d, d), dtype=complex)
    labels = np.empty((d, d), dtype=int)
    for v in range(d):
        x[v], labels[v] = random_symbols(rng, c, d)
    z = encode_batch(params, x)
    groups = group_decompose(lam[:, None] * z, params)
    engine = MetricEngine(params, c, lam)
    out = engine.bit_metrics(groups)
    assert np.allclose(out.umin, 0.0, atol=1e-18)
    for v in range(d):
        for m in range(d):
            for j in range(c.bits_per_symbol):
                b = c.qam_bit_label(int(labels[v, m]), j)
                assert out.gamma[v, m, j, b] == pytest.approx(0.0, abs=1e-18)
                assert out.gamma[v, m, j, 1 - b] > 1e-4


def test_umin_is_overall_minimum():
    rng = np.random.default_rng(55)
    params = build_params(2)
    c = QamConstellation(16)
    lam = random_lam(rng, 2)
    y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    out = MetricEngine(params, c, lam).bit_metrics(y)
    assert np.allclose(out.umin, out.gamma.min(axis=(1, 2, 3)), atol=1e-12)
    assert np.allclose(out.gamma.min(axis=3).max(axis=(1, 2)), out.umin, atol=1e-12)


def test_degenerate_singular_value_still_exact():
    rng = np.random.default_rng(77)
    params = build_params(2)
    c = QamConstellation(16)
    lam = np.array([1.47, 0.0])
    m_mat = lam[:, None] * params.generator
    x, _ = random_symbols(rng, c, 2)
    y = m_mat @ x + 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    out = MetricEngine(params, c, lam).bit_metrics(y[None])
    ref_gamma, ref_umin = brute_metrics(y, m_mat, c)
    assert np.allclose(out.gamma[0], ref_gamma, atol=1e-10)


def test_engine_validation():
    params = build_params(2)
    c = QamConstellation(16)
    with pytest.raises(ValueError):
        MetricEngine(params, c, np.ones(3))
    with pytest.raises(ValueError):
        MetricEngine(params, c, np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        MetricEngine(params, c, np.ones((2, 2, 2)))
    engine = MetricEngine(params, c, np.ones(2))
    with pytest.raises(ValueError):
        engine.bit_metrics(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        engine.bit_metrics(np.zeros((3, 4, 2)))
    batched = MetricEngine(params, c, np.ones((3, 2)))
    with pytest.raises(ValueError):
        batched.bit_metrics(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        batched.bit_metrics(np.zeros((2, 4, 2)))
    assert batched.bit_metrics(np.zeros((3, 0, 2))).gamma.shape == (3, 0, 2, 4, 2)
