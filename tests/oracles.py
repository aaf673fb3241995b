"""Test-side references: the dense channel, channel-power draws, BER crossing,
a frame-at-a-time convolutional encoder, a layer-at-a-time codeword encoder
and complex noise built from parts.

The package never forms the dense channel or samples the channel power on
its own; these helpers exist so tests can check the path-core shortcuts
and read SNR shifts off simulated curves.  conv_encode_reference derives
its taps from GENERATORS on its own, so it checks the package's shared
tap table rather than reading it.
"""
import numpy as np

from bicmb_pc.channel_model import ArrayGeometry, draw_paths, path_core
from bicmb_pc.fec import GENERATORS, K
from bicmb_pc.pstbc import PerfectCodeParams


def conv_encode_reference(bits) -> np.ndarray:
    """One frame (1-d 0/1 bits) encoded by np.convolve per generator."""
    b = np.asarray(bits).astype(np.uint8)
    out = np.empty(2 * b.size, dtype=np.uint8)
    for which, gen in enumerate(GENERATORS):
        taps = ((gen >> np.arange(K - 1, -1, -1)) & 1).astype(np.uint8)
        out[which::2] = np.convolve(b, taps)[: b.size] % 2
    return out


def encode_batch_reference(params: PerfectCodeParams, x) -> np.ndarray:
    """Codewords of input stacks x (..., D, D), placed one layer at a time.

    Layer v's weighted rotated vector goes to row u, column params.cols[v, u]
    of a zeroed matrix, one indexed assignment per layer.
    """
    d = params.dim
    rotated = (x.reshape(-1, d) @ params.generator.T).reshape(x.shape)
    rows = np.arange(d)
    z = np.zeros_like(x)
    for v in range(d):
        z[..., rows, params.cols[v]] = rotated[..., v, :] * params.weights[v]
    return z


def cn_noise_reference(rngs, shape: tuple, n0: float) -> np.ndarray:
    """Complex noise as real and imaginary parts joined after the draw.

    Each generator fills a (*shape, 2) float slab, and the stack is scaled
    by sqrt(n0 / 2) as re + 1j im, with no view of a complex array.
    """
    re = np.empty((len(rngs), *shape, 2))
    for rng, slab in zip(rngs, re):
        rng.standard_normal(out=slab)
    return np.sqrt(n0 / 2.0) * (re[..., 0] + 1j * re[..., 1])


def assemble_channel(rng: np.random.Generator, geom: ArrayGeometry, beta,
                     n_paths) -> np.ndarray:
    """Dense stacked (total_rx, total_tx) channel of draw_paths' factors."""
    (a_r,), (gain,), (a_t,) = draw_paths([rng], geom, beta, n_paths)
    return (a_r * gain) @ a_t.conj().T


def theta_samples(rng: np.random.Generator, geom: ArrayGeometry, beta,
                  n_paths, n_samples: int) -> np.ndarray:
    """Draws of the squared Frobenius norm sum_ij beta_ij ||H_ij||^2.

    Each is the squared norm of the path core, so large arrays cost no
    more than small ones.  Draw order matches assemble_channel, so with a
    shared seed sample 0 equals the norm of the assembled matrix.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return np.array([np.linalg.norm(path_core(*draw_paths([rng], geom, beta, n_paths))) ** 2
                     for _ in range(n_samples)])


def snr_at_ber(snr_db, ber, target: float) -> float:
    """SNR where log-interpolated BER first crosses the target (descending)."""
    s = np.asarray(snr_db, dtype=float)
    b = np.asarray(ber, dtype=float)
    if target <= 0:
        raise ValueError("target must be positive")
    for i in range(len(s) - 1):
        b0, b1 = b[i], b[i + 1]
        if b0 >= target > b1 and b1 > 0:
            t = (np.log10(target) - np.log10(b0)) / (np.log10(b1) - np.log10(b0))
            return float(s[i] + t * (s[i + 1] - s[i]))
    raise ValueError("BER curve does not cross the target on the grid")
