import itertools
import tracemalloc

import numpy as np
import pytest

from bicmb_pc import detector
from bicmb_pc.detector import MetricEngine, qr_reduce
from bicmb_pc.fec import QamConstellation
from bicmb_pc.pstbc import build_params, encode_batch, group_decompose
from bicmb_pc.sim_engine import SystemConfig
from oracles import lord_grid_reference


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


def frame_metrics(params, c, lam, groups):
    """Metrics of one frame: lam (d,), groups (n, d), through a fresh engine."""
    return MetricEngine(params, c).bit_metrics(lam[None], groups[None])[0]


def test_group_columns_pattern():
    # columns group_decompose gathers layer v from, one row per layer
    assert build_params(3).cols.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


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
        got = frame_metrics(params, c, lam, y[None])
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
    lord = frame_metrics(params, c, lam, groups)
    q, r = qr_reduce(m_mat)
    sphere = sphere_metrics(groups @ q.conj(), r, c)
    assert np.allclose(sphere, lord, atol=1e-9)
    assert np.allclose(umin(sphere), umin(lord), atol=1e-9)


@pytest.mark.parametrize("order,d", [(16, 3), (4, 4)])
@pytest.mark.parametrize("limit", [16, 4])
def test_peeled_metrics_match_brute_force(monkeypatch, order, d, limit):
    """With the grid limit and the chunk lowered, peeling one or two layers stays exact."""
    monkeypatch.setattr(detector, "_GRID_MAX", limit)
    monkeypatch.setattr(detector, "_CHUNK_PAIRS", limit)
    depths = []
    peeled = detector._peeled

    def spy(q, r, peel, c, work, out):
        depths.append(peel)
        peeled(q, r, peel, c, work, out)

    monkeypatch.setattr(detector, "_peeled", spy)
    rng = np.random.default_rng(300 + 10 * d + limit)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d), random_lam(rng, d)])
    lam[1, -1] = 0.0                       # a zero singular value leaves a layer flat
    groups = np.stack([noisy_groups(rng, params, c, lam[f], 4, s)
                       for f, s in enumerate((0.3, 1.0))])
    got = MetricEngine(params, c).bit_metrics(lam, groups)
    for f in range(2):
        for g in range(4):
            ref_gamma, ref_umin = brute_metrics(groups[f, g],
                                                lam[f][:, None] * params.generator, c)
            assert np.allclose(got[f, g], ref_gamma, atol=1e-10)
            assert umin(got)[f, g] == pytest.approx(ref_umin, abs=1e-10)
    # K^(d-1) is 256 or 64: a limit of 16 peels one layer, a limit of 4 two
    assert depths and set(depths) == {1 if limit == 16 else 2}


def test_shared_workspace_keeps_peeled_metrics_exact():
    """Peeled D=4 and D=6 16-QAM calls, a second call on the D=4 engine's
    buffers included, match the oracle frame by frame, so the grid's output
    store and the peeled output never share a slot."""
    engines = {}
    c = QamConstellation(16)
    rng = np.random.default_rng(700)
    for d in (4, 2, 6, 4):
        params = build_params(d)
        engine = engines.setdefault(d, MetricEngine(params, c))
        lam = np.stack([random_lam(rng, d) for _ in range(2)])
        groups = np.stack([noisy_groups(rng, params, c, row, 2, 0.3) for row in lam])
        got = engine.bit_metrics(lam, groups)
        for f in range(2):
            q, r = qr_reduce(lam[f][:, None] * params.generator)
            assert np.allclose(got[f], sphere_metrics(groups[f] @ q.conj(), r, c), atol=1e-10)


def test_peeled_leaf_grids_reuse_the_engines_workspace(monkeypatch):
    """Two D=4 16-QAM calls on one engine run every leaf grid in its
    workspace, and the second call's leaves land in the buffers the first
    call left."""
    leaves = []
    grid = detector._lord_grid

    def spy(qobs, r, c, work):
        out = grid(qobs, r, c, work)
        leaves.append((work, out))
        return out

    monkeypatch.setattr(detector, "_lord_grid", spy)
    monkeypatch.setattr(detector, "_CHUNK_PAIRS", 4 * 16)     # 4 groups per leaf
    rng = np.random.default_rng(720)
    params, c = build_params(4), QamConstellation(16)
    lam = np.stack([random_lam(rng, 4) for _ in range(2)])
    groups = np.stack([noisy_groups(rng, params, c, row, 8, 0.3) for row in lam])
    engine = MetricEngine(params, c)
    first = engine.bit_metrics(lam, groups).copy()
    n_first = len(leaves)
    assert n_first == 4                          # 2 frames x 2 chunks of groups
    assert np.array_equal(engine.bit_metrics(lam, groups), first)
    assert len(leaves) == 2 * n_first
    assert all(w is engine._work for w, _ in leaves)
    last = leaves[n_first - 1][1]
    assert all(np.shares_memory(out, last) for _, out in leaves[n_first:])


@pytest.mark.parametrize("d", [2, 4])
def test_results_are_overwritten_only_by_their_engine(d):
    """A result holds until its engine's next call, which writes over it;
    two engines share no buffers, on the grid (D=2) or peeled (D=4) path."""
    rng = np.random.default_rng(710 + d)
    params, c = build_params(d), QamConstellation(16)
    lam = random_lam(rng, d)[None]
    batches = [noisy_groups(rng, params, c, lam[0], 5, 0.3)[None] for _ in range(2)]
    one, other = MetricEngine(params, c), MetricEngine(params, c)
    first = one.bit_metrics(lam, batches[0])
    kept = first.copy()
    second = other.bit_metrics(lam, batches[1])
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    again = one.bit_metrics(lam, batches[1])
    assert np.shares_memory(first, again)
    assert np.array_equal(first, second) and not np.array_equal(first, kept)


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_peeled_d6_16qam_matches_sphere_oracle(sigma):
    rng = np.random.default_rng(600 + int(100 * sigma))
    params = build_params(6)
    c = QamConstellation(16)
    lam = random_lam(rng, 6)
    groups = noisy_groups(rng, params, c, lam, 2, sigma)
    got = frame_metrics(params, c, lam, groups)
    q, r = qr_reduce(lam[:, None] * params.generator)
    oracle = sphere_metrics(groups @ q.conj(), r, c)
    assert np.allclose(got, oracle, atol=1e-10)


@pytest.mark.parametrize("d,order", [(2, 16), (3, 16), (4, 4), (6, 4)])
def test_lord_ragged_chunks_are_exact(monkeypatch, d, order):
    """A short last chunk of frames or of groups gives the default chunking's bits."""
    rng = np.random.default_rng(500 + 10 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d) for _ in range(5)])
    groups = np.stack([noisy_groups(rng, params, c, row, 7, 0.5) for row in lam])
    engine = MetricEngine(params, c)
    whole = engine.bit_metrics(lam, groups).copy()
    n_cand = order ** (d - 1)
    # 2 of the 5 frames per chunk, then 3 of the 7 groups; every grid here
    # is within _GRID_MAX, so nothing is peeled
    for pairs in (2 * 7 * n_cand, 3 * n_cand):
        monkeypatch.setattr(detector, "_CHUNK_PAIRS", pairs)
        assert np.array_equal(engine.bit_metrics(lam, groups), whole)


@pytest.mark.parametrize("d,order", [(2, 16), (2, 4), (3, 16), (3, 4), (4, 4), (6, 4)])
@pytest.mark.parametrize("pairs", [detector._CHUNK_PAIRS, 100, 512])
def test_factored_grid_is_bit_identical(monkeypatch, d, order, pairs):
    """Rows on their distinct candidates give the full-grid reference's metrics
    bit for bit, in default and ragged chunks and with a zero singular value."""
    monkeypatch.setattr(detector, "_CHUNK_PAIRS", pairs)
    rng = np.random.default_rng(800 + 10 * d + order)
    params = build_params(d)
    c = QamConstellation(order)
    lam = np.stack([random_lam(rng, d) for _ in range(3)])
    lam[1, -1] = 0.0
    groups = np.stack([noisy_groups(rng, params, c, row, 7, 0.5) for row in lam])
    q, r = qr_reduce(lam[..., :, None] * params.generator)
    qobs = groups @ q.conj()
    work = detector.Workspace()
    detector._lord_grid(qobs[::-1], r[::-1], c, work)      # leaves its buffers dirty
    got = detector._lord_grid(qobs, r, c, work)
    assert np.array_equal(got, lord_grid_reference(qobs, r, c, detector.Workspace()))


@pytest.mark.parametrize("limit,leaf", [(16, 2), (4, 1)])
def test_peeled_leaf_grids_are_bit_identical(monkeypatch, limit, leaf):
    """D=3 16-QAM peeled to a two- or one-layer leaf: every leaf grid equals
    the full-grid reference bit for bit, also on buffers earlier leaves used."""
    monkeypatch.setattr(detector, "_GRID_MAX", limit)
    layers = []
    grid = detector._lord_grid

    def spy(qobs, r, c, work):
        out = grid(qobs, r, c, work)
        assert np.array_equal(out, lord_grid_reference(qobs, r, c, detector.Workspace()))
        layers.append(qobs.shape[-1])
        return out

    monkeypatch.setattr(detector, "_lord_grid", spy)
    rng = np.random.default_rng(820 + limit)
    params, c = build_params(3), QamConstellation(16)
    lam = np.stack([random_lam(rng, 3), random_lam(rng, 3)])
    lam[1, -1] = 0.0
    groups = np.stack([noisy_groups(rng, params, c, row, 5, 0.5) for row in lam])
    engine = MetricEngine(params, c)
    engine.bit_metrics(lam, groups)
    engine.bit_metrics(lam, groups[::-1, ::-1])
    assert layers and set(layers) == {leaf}


def test_peeling_only_above_lord_grid_limit(monkeypatch):
    calls = []
    peeled = detector._peeled

    def spy(q, r, peel, c, work, out):
        calls.append((q.shape, peel))
        peeled(q, r, peel, c, work, out)

    monkeypatch.setattr(detector, "_peeled", spy)
    MetricEngine(build_params(6), QamConstellation(4)).bit_metrics(
        np.ones((1, 6)), np.zeros((1, 2, 6)))
    assert calls == []                           # 4^5 = _GRID_MAX
    MetricEngine(build_params(4), QamConstellation(16)).bit_metrics(
        np.ones((1, 4)), np.zeros((1, 2, 4)))
    assert calls == [((2, 4), 1)]                # 16^3 > _GRID_MAX >= 16^2
    calls.clear()
    MetricEngine(build_params(6), QamConstellation(16)).bit_metrics(
        np.ones((3, 6)), np.zeros((3, 2, 6)))
    assert calls == [((2, 6), 3)] * 3            # 16^3 > _GRID_MAX >= 16^2


def test_detector_memory_is_bounded():
    """One 32-frame D=3 16-QAM batch stays within a fixed allocation ceiling."""
    cfg = SystemConfig(dim=3)
    n_groups = cfg.n_codewords * cfg.dim
    rng = np.random.default_rng(9)
    lam = np.sort(rng.uniform(0.5, 3.0, (32, 3)), axis=1)[:, ::-1]
    groups = rng.standard_normal((32, n_groups, 3)) \
        + 1j * rng.standard_normal((32, n_groups, 3))
    engine = MetricEngine(build_params(3), QamConstellation(16))
    tracemalloc.start()
    try:
        engine.bit_metrics(lam, groups)
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
    engine = MetricEngine(params, c)
    tracemalloc.start()
    try:
        engine.bit_metrics(lam, groups)
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
    gamma = frame_metrics(params, c, lam, groups)
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
    gamma = frame_metrics(params, c, lam, y)
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
    gamma = frame_metrics(params, c, lam, y[None])
    ref_gamma, ref_umin = brute_metrics(y, m_mat, c)
    assert np.allclose(gamma[0], ref_gamma, atol=1e-10)


def test_engine_validation():
    engine = MetricEngine(build_params(2), QamConstellation(16))
    assert engine.bit_metrics(np.ones((3, 2)), np.zeros((3, 0, 2))).shape == (3, 0, 2, 4, 2)
