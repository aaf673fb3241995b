"""SVD beamforming reduces the link to diag(lam) Z + white noise.

The simulator only ever runs that reduced model, so these checks build the
full model from the dense channel's numpy SVD and compare.
"""
import numpy as np
import pytest

from bicmb_pc.channel_model import ChannelModel
from bicmb_pc.pstbc import build_params, encode_batch
from bicmb_pc.sim_engine import cn_noise, is_degenerate, noise_variance
from oracles import assemble_channel, cn_noise_reference

CHANNEL = ChannelModel(n_t=16, n_r=8, l_t=2, l_r=2, beta=0.01 * np.ones((2, 2)), n_paths=2)


def _channel(seed=5):
    return assemble_channel(np.random.default_rng(seed), CHANNEL)


def _beamformers(h, d):
    """(lam, F, W): leading d singular values, right and left vectors."""
    u, s, vh = np.linalg.svd(h)
    return s[:d], vh[:d].conj().T, u[:, :d]


def _codeword(d, seed=1):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    return encode_batch(build_params(d), x)


def test_noise_variance_convention():
    assert noise_variance(32, 0.0) == pytest.approx(32.0)
    assert noise_variance(32, 10.0) == pytest.approx(3.2)
    assert noise_variance(16, 20.0) == pytest.approx(0.16)


def test_cn_noise_statistics():
    rng = np.random.default_rng(11)
    (x,) = cn_noise([rng], (200_000,), 0.5)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(0.5, rel=0.02)
    assert np.mean(x).real == pytest.approx(0.0, abs=0.01)
    assert np.mean(x**2) == pytest.approx(0.0, abs=0.01)  # circular symmetry


@pytest.mark.parametrize("shape", [(), (7,), (5, 2), (3, 4, 2)])
@pytest.mark.parametrize("n0", [0.0, 0.3, 2.5])
def test_cn_noise_matches_reference(shape, n0):
    """The in-place draw equals re + 1j im of the same draws, element for element."""
    seeds = (21, 22, 23)
    got = cn_noise([np.random.default_rng(s) for s in seeds], shape, n0)
    ref = cn_noise_reference([np.random.default_rng(s) for s in seeds], shape, n0)
    assert got.shape == ref.shape == (len(seeds), *shape)
    assert np.array_equal(got, ref)


def test_cn_noise_stacks_per_generator_draws():
    stacked = cn_noise([np.random.default_rng(s) for s in (3, 4)], (5, 2), 0.8)
    assert stacked.shape == (2, 5, 2)
    for row, s in zip(stacked, (3, 4)):
        assert np.array_equal(row, cn_noise([np.random.default_rng(s)], (5, 2), 0.8)[0])


def test_full_model_matches_reduced_model():
    h = _channel()
    lam, f, w = _beamformers(h, 2)
    z = _codeword(2, seed=3)
    # noiseless: W^H H F Z is exactly diag(lam) Z
    assert np.allclose(w.conj().T @ h @ f @ z, lam[:, None] * z, atol=1e-8)
    # same injected noise image: W^H (H F Z + N) = diag(lam) Z + W^H N
    (noise,) = cn_noise([np.random.default_rng(42)], (h.shape[0], 2), 0.3)
    lhs = w.conj().T @ (h @ f @ z + noise)
    rhs = lam[:, None] * z + w.conj().T @ noise
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_combined_noise_stays_white():
    h = _channel(seed=9)
    _, _, w = _beamformers(h, 2)
    n0 = 0.7
    samples = cn_noise([np.random.default_rng(13)], (20_000, h.shape[0]), n0)[0] @ w.conj()
    cov = samples.conj().T @ samples / samples.shape[0]
    assert np.allclose(cov, n0 * np.eye(2), atol=0.03)


def test_degeneracy_flag():
    assert is_degenerate(np.array([1.0, 1e-15]))
    assert not is_degenerate(np.array([1.0, 0.2]))
    assert is_degenerate(np.array([0.0, 0.0]))
