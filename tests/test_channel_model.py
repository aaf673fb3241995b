import numpy as np
import pytest

from bicmb_pc import channel_model
from bicmb_pc.channel_model import ArrayGeometry, array_response, draw_paths, path_core
from oracles import assemble_channel, draw_block_reference, theta_samples

GEOM = ArrayGeometry(n_t=16, n_r=8, l_t=2, l_r=2)
ONE_BLOCK = ArrayGeometry(n_t=16, n_r=8, l_t=1, l_r=1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(n_t=0, n_r=8, l_t=2, l_r=2)
    with pytest.raises(ValueError):
        ArrayGeometry(n_t=8, n_r=8, l_t=2, l_r=2, spacing=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry(n_t=8, n_r=8, l_t=2, l_r=2, spacing=bad)
    assert GEOM.total_tx == 32
    assert GEOM.total_rx == 16


def test_array_response_unit_norm():
    for n in (1, 4, 9):
        v = array_response(n, 0.7)
        assert v.shape == (n,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_array_response_phase_progression():
    v = array_response(8, 0.3, spacing=0.5)
    expected = np.exp(2j * np.pi * 0.5 * 3 * np.sin(0.3)) / np.sqrt(8)
    assert v[3] == pytest.approx(expected, abs=1e-12)
    assert np.allclose(array_response(8, 0.0), np.ones(8) / np.sqrt(8))


def test_array_response_vector_angles():
    angles = np.array([0.1, 1.2, 4.0])
    block = array_response(6, angles)
    assert block.shape == (3, 6)
    for i, a in enumerate(angles):
        assert np.allclose(block[i], array_response(6, a))


def test_single_path_block_is_rank_one():
    rng = np.random.default_rng(2)
    h = assemble_channel(rng, ONE_BLOCK, [[1.0]], n_paths=1)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-10 * s[0]
    assert h.shape == (8, 16)


def test_block_mean_energy():
    # E||H_ij||^2 = n_t * n_r regardless of path count
    rng = np.random.default_rng(7)
    norms = [np.linalg.norm(assemble_channel(rng, ONE_BLOCK, [[1.0]], 2)) ** 2
             for _ in range(2000)]
    assert np.mean(norms) / (ONE_BLOCK.n_t * ONE_BLOCK.n_r) == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 6, 17])
def test_block_draw_matches_one_call_per_quantity(n_paths):
    """Two generator calls per block give the four-call draw's values and
    leave the stream where it left it."""
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for got, want in zip(channel_model._draw_block(rng, n_paths),
                             draw_block_reference(ref, n_paths)):
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_assemble_respects_beta_zeros():
    rng = np.random.default_rng(3)
    beta = [[1.0, 0.0], [0.0, 0.0]]
    h = assemble_channel(rng, GEOM, beta, n_paths=2)
    assert np.abs(h[:8, :16]).max() > 0
    assert np.abs(h[:8, 16:]).max() == 0
    assert np.abs(h[8:, :]).max() == 0


def test_assemble_scales_with_sqrt_beta():
    h1 = assemble_channel(np.random.default_rng(9), GEOM, np.ones((2, 2)), 2)
    h4 = assemble_channel(np.random.default_rng(9), GEOM, 4.0 * np.ones((2, 2)), 2)
    assert np.allclose(h4, 2.0 * h1)


def test_assemble_validates_beta():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        assemble_channel(rng, GEOM, np.ones((2, 3)), 2)
    with pytest.raises(ValueError):
        assemble_channel(rng, GEOM, -np.ones((2, 2)), 2)
    with pytest.raises(ValueError):
        assemble_channel(rng, ONE_BLOCK, [[1.0]], 0)


def test_theta_matches_assembled_norm():
    beta = np.array([[0.012, 0.004], [0.006, 0.002]])
    th = theta_samples(np.random.default_rng(17), GEOM, beta, 2, n_samples=3)
    rng = np.random.default_rng(17)
    for s in range(3):
        h = assemble_channel(rng, GEOM, beta, 2)
        assert th[s] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-10)


def test_theta_mean():
    beta = 0.01 * np.ones((2, 2))
    th = theta_samples(np.random.default_rng(23), GEOM, beta, 2, 4000)
    expected = beta.sum() * GEOM.n_t * GEOM.n_r
    assert th.mean() == pytest.approx(expected, rel=0.05)
    assert (th > 0).all()


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("geom,beta,paths", [
    (GEOM, 0.01 * np.ones((2, 2)), 2),
    (ArrayGeometry(n_t=64, n_r=64, l_t=2, l_r=2), np.ones((2, 2)), 2),
    (GEOM, np.ones((2, 2)), np.array([[6, 2], [3, 1]])),
    (GEOM, np.array([[1.0, 0.0], [0.5, 2.0]]), 3),
    (ArrayGeometry(n_t=8, n_r=2, l_t=2, l_r=2), np.ones((2, 2)), 3),  # P > total_rx
])
def test_path_core_matches_dense(geom, beta, paths):
    rngs = [np.random.default_rng(s) for s in range(20)]
    factors = draw_paths(rngs, geom, beta, paths)
    cores = path_core(*factors)             # one stacked call
    for s, (a_r, gain, a_t) in enumerate(zip(*factors)):
        h = assemble_channel(np.random.default_rng(s), geom, beta, paths)
        assert np.array_equal(h, (a_r * gain) @ a_t.conj().T)
        core = path_core(a_r, gain, a_t)
        assert core.shape[-2:] == (min(geom.total_rx, gain.size),
                                   min(geom.total_tx, gain.size))
        assert np.allclose(cores[s], core, rtol=0, atol=1e-12 * np.abs(core).max())
        s_core = np.linalg.svd(core, compute_uv=False)
        s_dense = np.linalg.svd(h, compute_uv=False)
        assert _relative_gap(s_core, s_dense[:s_core.size]) < 1e-12
        assert s_dense[s_core.size:].max(initial=0.0) < 1e-12 * s_dense[0]
        assert _relative_gap(np.linalg.norm(core) ** 2, np.linalg.norm(h) ** 2) < 1e-12


@pytest.mark.parametrize("geom,beta,paths", [
    (GEOM, 0.01 * np.ones((2, 2)), 2),
    (ArrayGeometry(n_t=64, n_r=64, l_t=2, l_r=2), np.ones((2, 2)), 2),
    (GEOM, np.ones((2, 2)), np.array([[6, 2], [3, 1]])),
    (GEOM, np.array([[1.0, 0.0], [0.5, 2.0]]), 3),
])
def test_batched_paths_match_per_frame(geom, beta, paths):
    """One batched draw gives exactly the factors of one-generator draws."""
    seeds = [[0, 1, 2, k] for k in range(7)]
    batched = draw_paths([np.random.default_rng(s) for s in seeds], geom, beta, paths)
    assert [f.shape[0] for f in batched] == [len(seeds)] * 3
    for k, s in enumerate(seeds):
        single = draw_paths([np.random.default_rng(s)], geom, beta, paths)
        for got, want in zip(batched, single):
            assert np.array_equal(got[k], want[0])
    with pytest.raises(ValueError, match="generator"):
        draw_paths([], geom, beta, paths)


def test_svd_diagonalizes_channel():
    # the core's singular values are the stream gains W^H H F of the dense H
    (a_r,), (gain,), (a_t,) = draw_paths([np.random.default_rng(31)], GEOM,
                                         0.01 * np.ones((2, 2)), 2)
    h = (a_r * gain) @ a_t.conj().T
    lam = np.linalg.svd(path_core(a_r, gain, a_t), compute_uv=False)[:4]
    u, _, vh = np.linalg.svd(h)
    w, f = u[:, :4], vh[:4].conj().T
    assert np.allclose(w.conj().T @ h @ f, np.diag(lam), atol=1e-10)
    assert (np.diff(lam) <= 1e-12).all()


def test_per_block_path_grids():
    rng = np.random.default_rng(51)
    paths = np.array([[6, 2], [3, 1]])
    h = assemble_channel(rng, GEOM, np.ones((2, 2)), paths)
    assert h.shape == (16, 32)
    # block (1, 1) has a single path, so it is rank one
    s = np.linalg.svd(h[8:, 16:], compute_uv=False)
    assert s[1] < 1e-10 * s[0]
    th = theta_samples(np.random.default_rng(52), GEOM, np.ones((2, 2)), paths, 2)
    rng2 = np.random.default_rng(52)
    h2 = assemble_channel(rng2, GEOM, np.ones((2, 2)), paths)
    assert th[0] == pytest.approx(np.linalg.norm(h2) ** 2, rel=1e-10)
    with pytest.raises(ValueError):
        assemble_channel(rng, GEOM, np.ones((2, 2)), np.array([[2, 2]]))
    with pytest.raises(ValueError):
        assemble_channel(rng, GEOM, np.ones((2, 2)), np.array([[2.5, 2], [1, 1]]))
