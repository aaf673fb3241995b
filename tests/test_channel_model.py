import numpy as np
import pytest

from bicmb_pc import channel_model
from bicmb_pc.channel_model import ChannelModel, array_response, draw_paths, path_core
from oracles import assemble_channel, draw_block_reference, theta_samples

GEOM = dict(n_t=16, n_r=8, l_t=2, l_r=2)
WIDE = dict(n_t=64, n_r=64, l_t=2, l_r=2)


def model(beta, n_paths, geom=GEOM):
    return ChannelModel(**geom, beta=beta, n_paths=n_paths)


def one_block(n_paths):
    return ChannelModel(n_t=16, n_r=8, l_t=1, l_r=1, beta=((1.0,),), n_paths=n_paths)


def test_geometry_validation():
    with pytest.raises(ValueError):
        model(np.ones((2, 2)), 2, dict(GEOM, n_t=0))
    with pytest.raises(ValueError):
        model(np.ones((2, 2)), 2, dict(GEOM, spacing=0.0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            model(np.ones((2, 2)), 2, dict(GEOM, spacing=bad))
    channel = model(np.ones((2, 2)), 2)
    assert channel.total_tx == 32
    assert channel.total_rx == 16


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
    h = assemble_channel(rng, one_block(1))
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-10 * s[0]
    assert h.shape == (8, 16)


def test_block_mean_energy():
    # E||H_ij||^2 = n_t * n_r regardless of path count
    rng = np.random.default_rng(7)
    norms = [np.linalg.norm(assemble_channel(rng, one_block(2))) ** 2 for _ in range(2000)]
    assert np.mean(norms) / (16 * 8) == pytest.approx(1.0, rel=0.05)


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
    h = assemble_channel(rng, model(beta, 2))
    assert np.abs(h[:8, :16]).max() > 0
    assert np.abs(h[:8, 16:]).max() == 0
    assert np.abs(h[8:, :]).max() == 0


def test_assemble_scales_with_sqrt_beta():
    h1 = assemble_channel(np.random.default_rng(9), model(np.ones((2, 2)), 2))
    h4 = assemble_channel(np.random.default_rng(9), model(4.0 * np.ones((2, 2)), 2))
    assert np.allclose(h4, 2.0 * h1)


def test_assemble_validates_beta():
    # the model checks beta and the path counts once, before any channel is drawn
    for beta in (np.ones((2, 3)), np.ones(2), 1.0):     # wrong shape, a 1-d grid, a scalar
        with pytest.raises(ValueError, match="beta must have shape \\(2, 2\\)"):
            model(beta, 2)
    for beta in (-np.ones((2, 2)), [[1.0, -1.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="nonnegative"):
            model(beta, 2)
    with pytest.raises(ValueError, match="positive sum"):
        model(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="positive integers"):
        one_block(0)
    with pytest.raises(ValueError, match="positive integers"):
        model(np.ones((2, 2)), [[0, 1], [1, 1]])


def test_theta_matches_assembled_norm():
    beta = np.array([[0.012, 0.004], [0.006, 0.002]])
    channel = model(beta, 2)
    th = theta_samples(np.random.default_rng(17), channel, n_samples=3)
    rng = np.random.default_rng(17)
    for s in range(3):
        h = assemble_channel(rng, channel)
        assert th[s] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-10)


def test_theta_mean():
    beta = 0.01 * np.ones((2, 2))
    th = theta_samples(np.random.default_rng(23), model(beta, 2), 4000)
    expected = beta.sum() * 16 * 8
    assert th.mean() == pytest.approx(expected, rel=0.05)
    assert (th > 0).all()


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("geom,beta,paths", [
    (GEOM, 0.01 * np.ones((2, 2)), 2),
    (WIDE, np.ones((2, 2)), 2),
    (GEOM, np.ones((2, 2)), np.array([[6, 2], [3, 1]])),
    (GEOM, np.array([[1.0, 0.0], [0.5, 2.0]]), 3),
    (dict(n_t=8, n_r=2, l_t=2, l_r=2), np.ones((2, 2)), 3),  # P > total_rx
])
def test_path_core_matches_dense(geom, beta, paths):
    channel = model(beta, paths, geom)
    rngs = [np.random.default_rng(s) for s in range(20)]
    factors = draw_paths(rngs, channel)
    cores = path_core(*factors)             # one stacked call
    for s, (a_r, gain, a_t) in enumerate(zip(*factors)):
        h = assemble_channel(np.random.default_rng(s), channel)
        assert np.array_equal(h, (a_r * gain) @ a_t.conj().T)
        core = path_core(a_r, gain, a_t)
        assert core.shape[-2:] == (min(channel.total_rx, gain.size),
                                   min(channel.total_tx, gain.size))
        assert np.allclose(cores[s], core, rtol=0, atol=1e-12 * np.abs(core).max())
        s_core = np.linalg.svd(core, compute_uv=False)
        s_dense = np.linalg.svd(h, compute_uv=False)
        assert _relative_gap(s_core, s_dense[:s_core.size]) < 1e-12
        assert s_dense[s_core.size:].max(initial=0.0) < 1e-12 * s_dense[0]
        assert _relative_gap(np.linalg.norm(core) ** 2, np.linalg.norm(h) ** 2) < 1e-12


@pytest.mark.parametrize("geom,beta,paths", [
    (GEOM, 0.01 * np.ones((2, 2)), 2),
    (WIDE, np.ones((2, 2)), 2),
    (GEOM, np.ones((2, 2)), np.array([[6, 2], [3, 1]])),
    (GEOM, np.array([[1.0, 0.0], [0.5, 2.0]]), 3),
])
def test_batched_paths_match_per_frame(geom, beta, paths):
    """One batched draw gives exactly the factors of one-generator draws."""
    channel = model(beta, paths, geom)
    seeds = [[0, 1, 2, k] for k in range(7)]
    batched = draw_paths([np.random.default_rng(s) for s in seeds], channel)
    assert [f.shape[0] for f in batched] == [len(seeds)] * 3
    for k, s in enumerate(seeds):
        single = draw_paths([np.random.default_rng(s)], channel)
        for got, want in zip(batched, single):
            assert np.array_equal(got[k], want[0])
    with pytest.raises(ValueError, match="generator"):
        draw_paths([], channel)


def test_svd_diagonalizes_channel():
    # the core's singular values are the stream gains W^H H F of the dense H
    (a_r,), (gain,), (a_t,) = draw_paths([np.random.default_rng(31)],
                                         model(0.01 * np.ones((2, 2)), 2))
    h = (a_r * gain) @ a_t.conj().T
    lam = np.linalg.svd(path_core(a_r, gain, a_t), compute_uv=False)[:4]
    u, _, vh = np.linalg.svd(h)
    w, f = u[:, :4], vh[:4].conj().T
    assert np.allclose(w.conj().T @ h @ f, np.diag(lam), atol=1e-10)
    assert (np.diff(lam) <= 1e-12).all()


def test_per_block_path_grids():
    rng = np.random.default_rng(51)
    channel = model(np.ones((2, 2)), np.array([[6, 2], [3, 1]]))
    h = assemble_channel(rng, channel)
    assert h.shape == (16, 32)
    # block (1, 1) has a single path, so it is rank one
    s = np.linalg.svd(h[8:, 16:], compute_uv=False)
    assert s[1] < 1e-10 * s[0]
    th = theta_samples(np.random.default_rng(52), channel, 2)
    h2 = assemble_channel(np.random.default_rng(52), channel)
    assert th[0] == pytest.approx(np.linalg.norm(h2) ** 2, rel=1e-10)
    # a grid whose shape is not the model's, a 1-d grid, a fractional count
    for paths in (np.array([[2, 2]]), [2, 2], np.array([[2.5, 2], [1, 1]])):
        with pytest.raises(ValueError, match="n_paths must be|positive integers"):
            model(np.ones((2, 2)), paths)
