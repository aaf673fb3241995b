"""Test-side references: the dense channel, channel-power draws, BER crossing,
a frame-at-a-time convolutional encoder, a layer-at-a-time codeword encoder,
complex noise built from parts, path parameters drawn four calls per block
and the LORD grid with every residual row on the full candidate grid.

The package never forms the dense channel or samples the channel power on
its own; these helpers exist so tests can check the path-core shortcuts
and read SNR shifts off simulated curves.  conv_encode_reference derives
its taps from GENERATORS on its own, so it checks the package's shared
tap table rather than reading it.
"""
import numpy as np

from bicmb_pc import detector
from bicmb_pc.channel_model import ChannelModel, draw_paths, path_core
from bicmb_pc.detector import Workspace
from bicmb_pc.fec import GENERATORS, K, QamConstellation
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


def draw_block_reference(rng: np.random.Generator, n_paths: int):
    """One block's (aoa, aod, alpha) drawn one generator call per quantity:
    AoA, AoD, then the gains' real and imaginary parts."""
    aoa = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    aod = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    alpha = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)) / np.sqrt(2.0)
    return aoa, aod, alpha


def assemble_channel(rng: np.random.Generator, channel: ChannelModel) -> np.ndarray:
    """Dense stacked (total_rx, total_tx) channel of draw_paths' factors."""
    (a_r,), (gain,), (a_t,) = draw_paths([rng], channel)
    return (a_r * gain) @ a_t.conj().T


def theta_samples(rng: np.random.Generator, channel: ChannelModel,
                  n_samples: int) -> np.ndarray:
    """Draws of the squared Frobenius norm sum_ij beta_ij ||H_ij||^2.

    Each is the squared norm of the path core, so large arrays cost no
    more than small ones.  Draw order matches assemble_channel, so with a
    shared seed sample 0 equals the norm of the assembled matrix.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return np.array([np.linalg.norm(path_core(*draw_paths([rng], channel))) ** 2
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


def lord_grid_reference(qobs: np.ndarray, r: np.ndarray, c: QamConstellation,
                        work: Workspace) -> np.ndarray:
    """detector._lord_grid with every residual row on the full K^(d-1) grid.

    Rows 2..d are formed by broadcast subtraction over all candidates and
    summed with rows.sum(axis=0), which adds them in row order; the
    package's grid must give these metrics bit for bit.  Chunks follow
    detector._CHUNK_PAIRS as it stands at call time.
    """
    n_frames, n, d = qobs.shape
    k, bps = c.order, c.bits_per_symbol
    rest = c.grid(d - 1)                # x_2..x_d candidates
    n_cand = rest.shape[1]
    n_levels = c.levels.size
    levels = c.levels[:, None, None, None]

    gamma = work.take("gamma", (n_frames, n, d, bps, 2))
    frame_step = max(1, detector._CHUNK_PAIRS // max(1, n * n_cand))
    group_step = max(1, min(n, detector._CHUNK_PAIRS // n_cand))

    for f0 in range(0, n_frames, frame_step):
        rf = r[f0:f0 + frame_step]
        images = (rf[:, :, 1:] @ rest).transpose(1, 2, 0)[..., None]    # (d, cand, f, 1)
        im_re = np.ascontiguousarray(images.real)
        im_im = np.ascontiguousarray(images.imag)
        r11_levels = rf[None, :, 0, 0, None].real * levels
        # real and imaginary parts apart, (d, f, n) each: the costs below are
        # sums of per-component squares, as the complex arithmetic gives them
        qf = np.moveaxis(qobs[f0:f0 + frame_step], -1, 0)
        q_re, q_im = np.ascontiguousarray(qf.real), np.ascontiguousarray(qf.imag)
        for g0 in range(0, n, group_step):
            chunk = np.s_[:, None, :, g0:g0 + group_step]
            shape = np.broadcast_shapes(q_re[chunk].shape, im_re.shape)[1:]
            re = np.subtract(q_re[chunk], im_re, out=work.take("re", (d,) + shape))
            im = np.subtract(q_im[chunk], im_im, out=work.take("im", (d,) + shape))
            # row 1: r11^2 (t - x_1)^2 splits into a cost per I and per Q level,
            # and its minima overwrite row 1 once the distances are taken
            dist_i = np.subtract(re[0], r11_levels, out=work.take("dist_i", (n_levels,) + shape))
            np.square(dist_i, out=dist_i)
            dist_q = np.subtract(im[0], r11_levels, out=work.take("dist_q", (n_levels,) + shape))
            np.square(dist_q, out=dist_q)
            min_i, min_q = dist_i.min(axis=0, out=re[0]), dist_q.min(axis=0, out=im[0])
            rows = np.square(re[1:], out=re[1:])                 # rows 2..d
            np.add(rows, np.square(im[1:], out=im[1:]), out=rows)
            tail = rows.sum(axis=0, out=work.take("tail", shape))
            tail_i = np.add(tail, min_i, out=min_i)
            tail_q = np.add(tail, min_q, out=tail)
            # level tables (layer, axis, level, f, g): the best cost with that
            # layer's I (or Q) level fixed; x_1's come straight from the grid
            tables = np.empty((d, 2, n_levels) + shape[1:])
            np.add(tail_q, dist_i, out=dist_i).min(axis=1, out=tables[0, 0])
            np.add(tail_i, dist_q, out=dist_q).min(axis=1, out=tables[0, 1])
            best = np.add(tail_i, min_q, out=tail_i)
            best = best.reshape((d - 1) * (k,) + shape[1:])      # x_2..x_d, f, g
            for m in range(1, d):
                others = tuple(a for a in range(d - 1) if a != m - 1)
                label = best.min(axis=others)[c.by_level]
                label = label.reshape((n_levels, n_levels) + label.shape[1:])
                label.min(axis=1, out=tables[m, 0])
                label.min(axis=0, out=tables[m, 1])
            # a Gray bit fixes half the levels of its own axis
            out = np.moveaxis(gamma[f0:f0 + frame_step, g0:g0 + group_step], (2, 3, 4), (0, 1, 2))
            tables[:, c.bit_axis[:, None, None], c.level_subsets].min(axis=3, out=out)
    return gamma
