"""Per-group bit metric computation for layered space-time codewords.

pstbc.group_decompose splits a received codeword Y = diag(lam) Z + N
into d independent groups, one per layer, each with the same linear model

    y_v = diag(lam) G x_v + noise,

so a single QR factorization of diag(lam) G serves the whole frame.  Bit
metrics are exact max-log subset minima of |Q^H y - R x|^2.  R has a real
nonnegative diagonal, so with x_2..x_d fixed the cost of x_1 is
r11^2 |t - x_1|^2, separable into I and Q terms.  The layered orthogonal
lattice detector (LORD) thus enumerates only the K^(d-1) candidates for
x_2..x_d and slices x_1 per axis, in chunks of a fixed number of (group,
candidate) pairs so memory stays bounded for any batch.  Where the grid
has more than 1024 candidates (d = 4 and d = 6 with 16-QAM), the top layers
are enumerated first and only prefixes within an achievable cost of their
group are kept (the clipping radius of Studer & Bolcskei, JSAC 2008), so
the same grid code finishes each surviving prefix and the minima stay exact.
"""
from __future__ import annotations

import math

import numpy as np

from .fec import QamConstellation
from .pstbc import PerfectCodeParams


# (group, candidate) pairs per LORD chunk; bounds the detector's memory, and
# at 1 << 14 a D = 2 or 3 16-QAM chunk's buffers (1.6-1.9 MiB) fit a 2 MiB L2
_CHUNK_PAIRS = 1 << 14
# candidates per LORD grid; top layers are peeled until the grid fits, so a
# chunk keeps at least _CHUNK_PAIRS // _GRID_MAX (frame, group) pairs per slab
_GRID_MAX = 1024
# relative slack on the pruning radius, so rounding never drops a minimizer
_SLACK = 1e-9


def qr_reduce(m: np.ndarray):
    """Stacked QR of (..., d, d); R gets a real nonnegative diagonal (zeros kept)."""
    q, r = np.linalg.qr(np.asarray(m))
    pivot = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(pivot)
    rot = np.where(mag > 0, pivot.conj() / np.where(mag > 0, mag, 1.0), 1.0)
    return q * rot.conj()[..., None, :], r * rot[..., :, None]


class Workspace:
    """Named float buffers that outlive a call, so repeated calls fault no fresh pages in.

    take(name, shape) returns the leading elements of the named buffer as
    an array of that shape, laid out as a fresh array would be; a buffer
    grows when a request outsizes it.  A view stays valid until its name is
    taken again, so two arrays in use at once need two names.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


class MetricEngine:
    """Exact per-group bit metrics for diag(lam) G models.

    lam is (d,) for one frame or (frames, d) for a batch; bit_metrics then
    takes groups shaped (n, d) or (frames, n, d) to match.  Every (d, K)
    goes through the one exact lord_metrics.
    """

    def __init__(self, params: PerfectCodeParams, constellation: QamConstellation,
                 lam: np.ndarray):
        lam = np.asarray(lam, dtype=float)
        d = params.dim
        if lam.ndim not in (1, 2) or lam.shape[-1] != d:
            raise ValueError(f"lam must have shape ({d},) or (frames, {d})")
        if (lam < 0).any():
            raise ValueError("singular values must be nonnegative")
        self.params = params
        self.constellation = constellation
        self.lam = lam
        self.dim = d
        q, r = qr_reduce(lam[..., :, None] * params.generator)
        self._q_conj = q.conj()
        self._r = r

    def bit_metrics(self, groups: np.ndarray, work: Workspace | None = None) -> np.ndarray:
        """groups: (n, d) or (frames, n, d) weight-corrected observations.

        Returns gamma[..., g, m, j, b], the min residual for group g with
        bit j of symbol m equal to b.  gamma lives in work, so the next call
        on the same workspace overwrites it; without one, a fresh workspace
        is used and the caller owns the result.
        """
        work = Workspace() if work is None else work
        g = np.asarray(groups)
        frames = self.lam.shape[:-1]
        if g.ndim != len(frames) + 2 or g.shape[:len(frames)] != frames \
                or g.shape[-1] != self.dim:
            raise ValueError(f"groups must be {frames + ('n', self.dim)}")
        r = self._r.reshape(-1, self.dim, self.dim)
        qobs = (g @ self._q_conj).reshape((len(r),) + g.shape[-2:])    # Q^H y per group
        gamma = lord_metrics(qobs, r, self.constellation, work)
        return gamma.reshape(g.shape[:-1] + gamma.shape[-3:])


def lord_metrics(qobs: np.ndarray, r: np.ndarray, constellation: QamConstellation,
                 work: Workspace) -> np.ndarray:
    """Exact subset minima: qobs (frames, n, d), r (frames, d, d) -> gamma in work.

    While the grid K^(d-1-peel) has more than _GRID_MAX candidates one more
    top layer is peeled; the peeled path runs frame by frame on chunks of
    groups, each leaf grid on work's grid buffers, which the "peeled" store
    does not share.
    """
    c = constellation
    n_frames, n, d = qobs.shape
    peel = 0
    while c.order ** (d - 1 - peel) > _GRID_MAX:
        peel += 1
    if not peel:
        return _lord_grid(qobs, r, c, work)
    gamma = work.take("peeled", (n_frames, n, d, c.bits_per_symbol, 2))
    step = max(1, _CHUNK_PAIRS // c.order ** peel)
    for f in range(n_frames):
        for g0 in range(0, n, step):
            gamma[f, g0:g0 + step] = _peeled(qobs[f, g0:g0 + step], r[f], peel, c, work)
    return gamma


def _achievable_bound(q: np.ndarray, r: np.ndarray, c: QamConstellation) -> np.ndarray:
    """Per group of q (n, d), an achievable cost no subset minimum exceeds.

    From the SIC (Babai) point, subset (m, j, b) is bounded by its best
    single-symbol substitution at m; the bound is the max over (m, j, b).
    """
    d = q.shape[-1]
    x = np.zeros(q.shape, dtype=complex)
    for m in range(d - 1, -1, -1):
        z = q[:, m] - x[:, m + 1:] @ r[m, m + 1:]
        x[:, m] = c.points[np.abs(z[:, None] - r[m, m] * c.points).argmin(axis=-1)]
    e = q - x @ r.T
    delta = c.points - x[..., None]                   # (n, d, K): x_m -> label
    cost = (np.abs(e[:, None, None] - delta[..., None] * r.T[:, None]) ** 2).sum(axis=-1)
    return cost[..., c.subset_indices].min(axis=-1).max(axis=(1, 2, 3))


def _peeled(q: np.ndarray, r: np.ndarray, peel: int, c: QamConstellation,
            work: Workspace) -> np.ndarray:
    """Subset minima of one frame's groups q (n, d) with `peel` top layers peeled.

    Prefixes x_(d-peel+1)..x_d whose partial cost tops the group's
    achievable bound can hold no subset minimum and are dropped; the LORD
    grid solves the rest, and minima fold back to groups by segment
    reduction over the group-ordered survivors.
    """
    n, d = q.shape
    bound = _achievable_bound(q, r, c)
    budget = bound + _SLACK * (bound + (np.abs(q) ** 2).sum(axis=-1))
    grp, off, sub = np.arange(n), np.zeros(n), q
    labels = np.zeros((n, 0), dtype=np.int64)         # peeled labels, layer order
    for level in range(d - 1, d - 1 - peel, -1):
        cost = off[:, None] + np.abs(sub[:, level, None] - r[level, level] * c.points) ** 2
        keep, lab = np.nonzero(cost <= budget[grp, None])
        grp, off = grp[keep], cost[keep, lab]
        labels = np.column_stack([lab, labels[keep]])
        sub = sub[keep, :level] - c.points[lab, None] * r[:level, level]
    top = d - peel
    leaf = _lord_grid(sub[None], r[None, :top, :top], c, work)[0]
    leaf = leaf + off[:, None, None, None]
    best = leaf[:, 0, 0].min(axis=-1)[:, None, None, None]
    peeled = np.where(c.label_bits[labels][..., None] == (0, 1), best, np.inf)
    starts = np.searchsorted(grp, np.arange(n))
    return np.concatenate([np.minimum.reduceat(leaf, starts),
                           np.minimum.reduceat(peeled, starts)], axis=1)


def _lord_grid(qobs: np.ndarray, r: np.ndarray, c: QamConstellation,
               work: Workspace) -> np.ndarray:
    """LORD over the full K^(d-1) grid of x_2..x_d, per chunk of (frame, group) pairs.

    Chunk arrays are (row or level, candidate, frame, group), with the
    chunk's (frame, group) pairs last and contiguous, so every reduction adds
    or compares whole slabs; lord_metrics keeps the grid at most _GRID_MAX
    candidates, so the slabs stay long.

    The row differences and level distances of a chunk, every
    per-candidate array derived from them and gamma itself are taken from
    work: arrays made fresh for each chunk are handed back to the OS when
    freed and page-faulted in again by the next chunk, which at D = 3 cost
    a fifth of the frame in system time.  A chunk writes into contiguous
    leading views of the workspace, so a short last chunk has the layout
    of a fresh array and the same minima.
    """
    n_frames, n, d = qobs.shape
    k, bps = c.order, c.bits_per_symbol
    rest = c.grid(d - 1)                # x_2..x_d candidates
    n_cand = rest.shape[1]
    n_levels = c.levels.size
    levels = c.levels[:, None, None, None]

    gamma = work.take("gamma", (n_frames, n, d, bps, 2))
    frame_step = max(1, _CHUNK_PAIRS // max(1, n * n_cand))
    group_step = max(1, min(n, _CHUNK_PAIRS // n_cand))

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
