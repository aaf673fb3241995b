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
candidate) pairs so memory stays bounded for any batch.  Row m of the
residual depends on x_m..x_d only, so it is computed on its K^(d-m+1)
distinct candidates and broadcast into the running sum of rows, row by
row: the metrics are the same floating-point sums as over the full grid.
Where the grid has more than 1024 candidates (d = 4 and d = 6 with
16-QAM), the top layers are enumerated first and only prefixes within an
achievable cost of their group are kept (the clipping radius of Studer &
Bolcskei, JSAC 2008), so the same grid code finishes each surviving prefix
and the minima stay exact.

A MetricEngine is built once per code and constellation and owns the
workspace its chunks and output live in; each bit_metrics call takes a
batch's singular values, so its QR runs there too.
"""
from __future__ import annotations

import math

import numpy as np

from .fec import QamConstellation
from .pstbc import PerfectCodeParams


# (group, candidate) pairs per LORD chunk; bounds the detector's memory, and
# at 1 << 14 a D = 2 or 3 16-QAM chunk's buffers (1.4 MiB) fit a 2 MiB L2
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
    """Exact per-group bit metrics for diag(lam) G models, on buffers it owns.

    One engine serves every batch of its code and constellation; its
    workspace holds the chunks' buffers and the output metrics, so the
    pages are reused from batch to batch.  While the grid K^(d-1-peel) has
    more than _GRID_MAX candidates one more top layer is peeled; the peeled
    path runs frame by frame on chunks of groups, each leaf grid on the
    grid's buffers, which the "peeled" store does not share.
    """

    def __init__(self, params: PerfectCodeParams, constellation: QamConstellation):
        self.params = params
        self.constellation = constellation
        self._work = Workspace()

    def bit_metrics(self, lam: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """lam (frames, d) singular values, groups (frames, n, d) weight-corrected observations.

        lam is nonnegative, as an SVD returns it.  Returns gamma[f, g, m, j, b],
        the min residual for group g of frame f with bit j of symbol m equal
        to b.  gamma lives in the engine's workspace, so this engine's next
        call overwrites it.
        """
        lam, g = np.asarray(lam, dtype=float), np.asarray(groups)
        c, d, work = self.constellation, self.params.dim, self._work
        q, r = qr_reduce(lam[:, :, None] * self.params.generator)
        qobs = g @ q.conj()                                 # Q^H y per group
        peel = 0
        while c.order ** (d - 1 - peel) > _GRID_MAX:
            peel += 1
        if not peel:
            return _lord_grid(qobs, r, c, work)
        n_frames, n = g.shape[:2]
        gamma = work.take("peeled", (n_frames, n, d, c.bits_per_symbol, 2))
        step = max(1, _CHUNK_PAIRS // c.order ** peel)
        for f in range(n_frames):
            for g0 in range(0, n, step):
                _peeled(qobs[f, g0:g0 + step], r[f], peel, c, work, gamma[f, g0:g0 + step])
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
    # moving x_m moves the residual by delta r[:, m]; a layer at a time keeps
    # each temporary a d-th of the whole (n, d, K, d) table
    cost = np.stack([(np.abs(e[:, None] - delta[:, m, :, None] * r[:, m]) ** 2).sum(axis=-1)
                     for m in range(d)], axis=1)
    return cost[..., c.subset_indices].min(axis=-1).max(axis=(1, 2, 3))


def _peeled(q: np.ndarray, r: np.ndarray, peel: int, c: QamConstellation,
            work: Workspace, out: np.ndarray) -> None:
    """Subset minima of one frame's groups q (n, d), `peel` top layers peeled, into out.

    Prefixes x_(d-peel+1)..x_d whose partial cost tops the group's
    achievable bound can hold no subset minimum and are dropped; the LORD
    grid solves the rest in work, the prefix costs are added there in
    place, and minima fold back to groups by segment reduction over the
    group-ordered survivors, straight into out.
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
    np.add(leaf, off[:, None, None, None], out=leaf)
    best = leaf[:, 0, 0].min(axis=-1)[:, None, None, None]
    peeled = np.where(c.label_bits[labels][..., None] == (0, 1), best, np.inf)
    starts = np.searchsorted(grp, np.arange(n))
    np.minimum.reduceat(leaf, starts, out=out[:, :top])
    np.minimum.reduceat(peeled, starts, out=out[:, top:])


def _residual(lhs: np.ndarray, q: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (candidate, frame, group) = q (frame, group) - image, as lhs @ [q; 1].

    lhs (frame, candidate, 2) rows are [1, -image]; rhs (frame, 2, group)
    is scratch whose second row holds ones.  Both products are exact, so
    the one rounded sum is the subtraction's, bit for bit, and BLAS runs it
    in long loops where a broadcast would loop over each candidate's few
    pairs.
    """
    np.copyto(rhs[:, 0], q)
    np.matmul(lhs, rhs, out=out.transpose(1, 0, 2))
    return out


def _lord_grid(qobs: np.ndarray, r: np.ndarray, c: QamConstellation,
               work: Workspace) -> np.ndarray:
    """LORD over the K^(d-1) grid of x_2..x_d, per chunk of (frame, group) pairs.

    Chunk arrays are (candidate, frame, group), with the chunk's (frame,
    group) pairs last and contiguous, so every reduction adds or compares
    whole slabs; MetricEngine.bit_metrics keeps the grid at most _GRID_MAX
    candidates, so the slabs stay long.

    Row m of the residual depends on x_m..x_d only.  The grid varies x_d
    fastest, so row m >= 3 takes K^(d-m+1) distinct values, those of the
    leading candidates, and repeats them with that period: it is computed
    there and broadcast-added into the tail, row after row.  Each tail
    entry is then the same IEEE sum, added in the same order, as one over
    rows computed on the full grid.  Only rows 1 and 2 span the grid.

    The residuals, level distances, tail and gamma itself are taken from
    work: arrays made fresh for each chunk are handed back to the OS when
    freed and page-faulted in again by the next chunk, which at D = 3 cost
    a fifth of the frame in system time.  A chunk holds three full-grid
    buffers (row 1's real and imaginary parts, the tail) besides the level
    distances, which also serve as scratch before and after they are used.
    A chunk writes into contiguous leading views of the workspace, so a
    short last chunk has the layout of a fresh array and the same minima.
    """
    n_frames, n, d = qobs.shape
    k, bps = c.order, c.bits_per_symbol
    rest = c.grid(d - 1)                # x_2..x_d candidates
    n_cand = rest.shape[1]
    n_levels = c.levels.size
    levels = c.levels[:, None, None, None]

    gamma = work.take("gamma", (n_frames, n, d, bps, 2))
    gamma_tables = np.moveaxis(gamma, (2, 3, 4), (0, 1, 2))    # (d, bit, b, frame, group)
    frame_step = max(1, _CHUNK_PAIRS // max(1, n * n_cand))
    group_step = max(1, min(n, _CHUNK_PAIRS // n_cand))

    for f0 in range(0, n_frames, frame_step):
        rf = r[f0:f0 + frame_step]
        frames = len(rf)
        # the left factors of every residual, [1, -image] per row, axis
        # (real, imaginary), frame and candidate
        images = rf[:, :, 1:] @ rest
        lhs = work.take("lhs", (d, 2, frames, n_cand, 2))
        lhs[..., 0] = 1.0
        np.negative(np.moveaxis(images.real, 1, 0), out=lhs[:, 0, ..., 1])
        np.negative(np.moveaxis(images.imag, 1, 0), out=lhs[:, 1, ..., 1])
        qf = np.moveaxis(qobs[f0:f0 + frames], -1, 0)            # (row, frame, group)
        r11_levels = rf[:, 0, 0, None].real * levels
        for g0 in range(0, n, group_step):
            groups = min(group_step, n - g0)
            pairs = (frames, groups)
            q_re, q_im = qf.real[..., g0:g0 + groups], qf.imag[..., g0:g0 + groups]
            rhs = work.take("rhs", (frames, 2, groups))
            rhs[:, 1] = 1.0
            # rows 2..d, each on its distinct candidates, summed in row order;
            # the level distances, filled only below, lend their buffers
            tail = work.take("tail", (n_cand,) + pairs)
            if d == 1:
                tail.fill(0.0)
            for m in range(1, d):
                n_rows = k ** (d - m)
                row = _residual(lhs[m, 0, :, :n_rows], q_re[m], rhs,
                                tail if m == 1 else work.take("dist_i", (n_rows,) + pairs))
                row_q = _residual(lhs[m, 1, :, :n_rows], q_im[m], rhs,
                                  work.take("dist_q", (n_rows,) + pairs))
                np.square(row, out=row)
                np.add(row, np.square(row_q, out=row_q), out=row)
                if m > 1:
                    periods = tail.reshape((-1,) + row.shape)
                    np.add(periods, row, out=periods)
            re = _residual(lhs[0, 0], q_re[0], rhs, work.take("re", (n_cand,) + pairs))
            im = _residual(lhs[0, 1], q_im[0], rhs, work.take("im", (n_cand,) + pairs))
            # row 1: r11^2 (t - x_1)^2 splits into a cost per I and per Q level,
            # and its minima overwrite row 1 once the distances are taken
            levels_shape = (n_levels, n_cand) + pairs
            dist_i = np.subtract(re, r11_levels, out=work.take("dist_i", levels_shape))
            np.square(dist_i, out=dist_i)
            dist_q = np.subtract(im, r11_levels, out=work.take("dist_q", levels_shape))
            np.square(dist_q, out=dist_q)
            min_i, min_q = dist_i.min(axis=0, out=re), dist_q.min(axis=0, out=im)
            tail_i = np.add(tail, min_i, out=min_i)
            tail_q = np.add(tail, min_q, out=tail)
            # level tables (layer, axis, level, f, g): the best cost with that
            # layer's I (or Q) level fixed; x_1's come straight from the grid
            tables = np.empty((d, 2, n_levels) + pairs)
            np.add(tail_q, dist_i, out=dist_i).min(axis=1, out=tables[0, 0])
            np.add(tail_i, dist_q, out=dist_q).min(axis=1, out=tables[0, 1])
            best = np.add(tail_i, min_q, out=tail_i)
            best = best.reshape((d - 1) * (k,) + pairs)          # x_2..x_d, f, g
            # per-label minima of x_2..x_d, in the level distances' buffers,
            # which are spent
            per_label = work.take("dist_i", (d - 1, k) + pairs)
            for m in range(1, d):
                best.min(axis=tuple(a for a in range(d - 1) if a != m - 1), out=per_label[m - 1])
            # every layer's label minima to (I level, Q level) in one gather
            label = np.take(per_label, c.by_level, axis=1,
                            out=work.take("dist_q", per_label.shape))
            label = label.reshape((d - 1, n_levels, n_levels) + pairs)
            label.min(axis=2, out=tables[1:, 0])
            label.min(axis=1, out=tables[1:, 1])
            # a Gray bit fixes half the levels of its own axis
            out = gamma_tables[..., f0:f0 + frames, g0:g0 + groups]
            tables[:, c.bit_axis[:, None, None], c.level_subsets].min(axis=3, out=out)
    return gamma
