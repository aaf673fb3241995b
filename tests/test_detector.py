import itertools
import tracemalloc

import numpy as np
import pytest

from bicmb_pc import detector
from bicmb_pc.detector import MetricEngine, qr_reduce
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import _layout, build_params, encode_batch, group_decompose
from bicmb_pc.sim_engine import SystemConfig


def umin(gamma):
    """Overall minimum cost per group: the best subset of any one bit."""
    return gamma[..., 0, 0, :].min(axis=-1)


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
                b = constellation.label_bits[combo[m], j]
                gamma[m, j, b] = min(gamma[m, j, b], cost)
    return gamma, umin


def sphere_metrics(qobs, r, constellation):
    """Oracle subset minima by Schnorr-Euchner searches: qobs (n, d), r (d, d).

    One unconstrained search per group finds the best labels; each bit's
    complement then gets its own search, seeded by the best single-symbol
    substitution.
    """
    c = constellation
    n, d = qobs.shape
    bps = c.bits_per_symbol
    diag_images = r.diagonal()[:, None] * c.points[None, :]
    gamma = np.empty((n, d, bps, 2))
    full = np.arange(c.order)
    for g in range(n):
        q = qobs[g]
        best, labels = _search(q, r, diag_images, c.points, [full] * d, np.inf)
        for m in range(d):
            for j in range(bps):
                hit = c.label_bits[labels[m], j]
                gamma[g, m, j, hit] = best
                subset = c.subset_indices[j, 1 - hit]
                x = c.points[labels]
                seed = np.inf
                for lab in subset:
                    x[m] = c.points[lab]
                    seed = min(seed, float((np.abs(q - r @ x) ** 2).sum()))
                cands = [full] * d
                cands[m] = subset
                gamma[g, m, j, 1 - hit] = _search(q, r, diag_images, c.points,
                                                  cands, seed)[0]
    return gamma


def _search(q, r, diag_images, points, cand_labels, seed):
    """Depth-first sphere search; returns (min cost, label assignment).

    seed is an achievable upper bound (or inf); equal-cost paths are
    pruned, so the returned labels are only valid when the result
    improves on the seed.
    """
    d = r.shape[0]
    best = float(seed)
    best_labels = np.full(d, -1, dtype=np.int64)
    cur = np.zeros(d, dtype=np.int64)
    partial = np.zeros(d, dtype=complex)

    def descend(level, acc):
        nonlocal best
        labs = cand_labels[level]
        costs = np.abs((q[level] - partial[level]) - diag_images[level, labs]) ** 2
        for t in np.argsort(costs):
            total = acc + costs[t]
            if total >= best:
                return
            cur[level] = labs[t]
            if level == 0:
                best = total
                best_labels[:] = cur
            else:
                delta = r[:level, level] * points[labs[t]]
                partial[:level] += delta
                descend(level - 1, total)
                partial[:level] -= delta

    descend(d - 1, 0.0)
    return best, best_labels


def noisy_groups(rng, params, c, lam, n, sigma):
    """n observations lam * G x + noise of one frame, shape (n, d)."""
    d = params.dim
    x = c.points[rng.integers(0, c.order, (n, d))]
    noise = sigma * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return x @ (lam[:, None] * params.generator).T + noise


def random_lam(rng, d):
    lam = np.sort(rng.uniform(0.5, 3.0, d))[::-1]
    return lam


def random_symbols(rng, c, d):
    labels = rng.integers(0, c.order, d)
    return c.points[labels], labels


def test_group_columns_pattern():
    # columns group_decompose gathers layer v from, one row per layer
    cols, _ = _layout(3, build_params(3).g)
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
        assert np.allclose(got[0], ref_gamma, atol=1e-10)
        assert umin(got)[0] == pytest.approx(ref_umin, abs=1e-10)


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
    assert np.allclose(sphere, lord, atol=1e-9)
    assert np.allclose(umin(sphere), umin(lord), atol=1e-9)


@pytest.mark.parametrize("order,d", [(16, 3), (4, 4)])
@pytest.mark.parametrize("limit", [16, 4])
def test_peeled_metrics_match_brute_force(monkeypatch, order, d, limit):
    """With the chunk lowered to the grid limit, peeling one or two layers stays exact."""
    monkeypatch.setattr(detector, "_CHUNK_PAIRS", limit)
    rng = np.random.default_rng(300 + 10 * d + limit)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d), random_lam(rng, d)])
    lam[1, -1] = 0.0                       # a zero singular value leaves a layer flat
    groups = np.stack([noisy_groups(rng, params, c, lam[f], 4, s)
                       for f, s in enumerate((0.3, 1.0))])
    got = MetricEngine(params, c, lam).bit_metrics(groups)
    for f in range(2):
        for g in range(4):
            ref_gamma, ref_umin = brute_metrics(groups[f, g],
                                                lam[f][:, None] * params.generator, c)
            assert np.allclose(got[f, g], ref_gamma, atol=1e-10)
            assert umin(got)[f, g] == pytest.approx(ref_umin, abs=1e-10)


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_peeled_d6_16qam_matches_sphere_oracle(sigma):
    rng = np.random.default_rng(600 + int(100 * sigma))
    params = build_params(6)
    c = QamConstellation(16)
    lam = random_lam(rng, 6)
    groups = noisy_groups(rng, params, c, lam, 2, sigma)
    got = MetricEngine(params, c, lam).bit_metrics(groups)
    q, r = qr_reduce(lam[:, None] * params.generator)
    oracle = sphere_metrics(groups @ q.conj(), r, c)
    assert np.allclose(got, oracle, atol=1e-10)


@pytest.mark.parametrize("d,order", [(2, 16), (3, 16), (4, 4), (4, 16), (6, 4)])
def test_lord_axis_orders_agree(monkeypatch, d, order):
    """Candidates ahead of the (frame, group) pairs or behind them: same bits."""
    rng = np.random.default_rng(400 + 10 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d) for _ in range(3)])
    lam[2, -1] = 0.0
    groups = np.stack([noisy_groups(rng, params, c, lam[f], 5, 0.5) for f in range(3)])
    engine = MetricEngine(params, c, lam)

    def metrics(lead_max):
        monkeypatch.setattr(detector, "_LEAD_MAX", lead_max)
        return engine.bit_metrics(groups)

    assert np.array_equal(metrics(0), metrics(c.order ** (d - 1)))


@pytest.mark.parametrize("d,order", [(2, 16), (3, 16), (4, 16), (6, 4)])
def test_lord_ragged_chunks_are_exact(monkeypatch, d, order):
    """A short last chunk of frames or of groups gives the default chunking's bits."""
    rng = np.random.default_rng(500 + 10 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d) for _ in range(5)])
    groups = np.stack([noisy_groups(rng, params, c, row, 7, 0.5) for row in lam])
    engine = MetricEngine(params, c, lam)
    whole = engine.bit_metrics(groups)
    n_cand = order ** (d - 1)
    # 2 of the 5 frames per chunk, then 3 of the 7 groups; both chunks hold
    # the whole grid, so nothing is peeled
    for pairs in (2 * 7 * n_cand, 3 * n_cand):
        monkeypatch.setattr(detector, "_CHUNK_PAIRS", pairs)
        assert np.array_equal(engine.bit_metrics(groups), whole)


def test_peeling_only_above_lord_grid_limit(monkeypatch):
    calls = []
    peeled = detector._peeled

    def spy(q, r, peel, c):
        calls.append((q.shape, peel))
        return peeled(q, r, peel, c)

    monkeypatch.setattr(detector, "_peeled", spy)
    for d, order in ((4, 16), (6, 4)):           # K^(d-1) = 4096, 1024
        MetricEngine(build_params(d), QamConstellation(order),
                     np.ones(d)).bit_metrics(np.zeros((2, d)))
    assert calls == []
    MetricEngine(build_params(6), QamConstellation(16),
                 np.ones((3, 6))).bit_metrics(np.zeros((3, 2, 6)))
    assert calls == [((2, 6), 2)] * 3            # 16^4 > _CHUNK_PAIRS >= 16^3


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


def test_peeled_detector_memory_is_bounded():
    """A multi-frame D=6 16-QAM call (peeled path) stays within the same ceiling."""
    rng = np.random.default_rng(10)
    params = build_params(6)
    c = QamConstellation(16)
    lam = np.stack([random_lam(rng, 6) for _ in range(2)])
    groups = np.stack([noisy_groups(rng, params, c, row, 3, 0.2) for row in lam])
    engine = MetricEngine(params, c, lam)
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
    gamma = engine.bit_metrics(groups)
    assert np.allclose(umin(gamma), 0.0, atol=1e-18)
    for v in range(d):
        for m in range(d):
            for j in range(c.bits_per_symbol):
                b = c.label_bits[labels[v, m], j]
                assert gamma[v, m, j, b] == pytest.approx(0.0, abs=1e-18)
                assert gamma[v, m, j, 1 - b] > 1e-4


def test_umin_is_overall_minimum():
    rng = np.random.default_rng(55)
    params = build_params(2)
    c = QamConstellation(16)
    lam = random_lam(rng, 2)
    y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    gamma = MetricEngine(params, c, lam).bit_metrics(y)
    assert np.allclose(umin(gamma), gamma.min(axis=(1, 2, 3)), atol=1e-12)
    assert np.allclose(gamma.min(axis=3).max(axis=(1, 2)), umin(gamma), atol=1e-12)


def test_degenerate_singular_value_still_exact():
    rng = np.random.default_rng(77)
    params = build_params(2)
    c = QamConstellation(16)
    lam = np.array([1.47, 0.0])
    m_mat = lam[:, None] * params.generator
    x, _ = random_symbols(rng, c, 2)
    y = m_mat @ x + 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    gamma = MetricEngine(params, c, lam).bit_metrics(y[None])
    ref_gamma, ref_umin = brute_metrics(y, m_mat, c)
    assert np.allclose(gamma[0], ref_gamma, atol=1e-10)


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
    assert batched.bit_metrics(np.zeros((3, 0, 2))).shape == (3, 0, 2, 4, 2)
