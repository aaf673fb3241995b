"""Per-group bit metric computation for layered space-time codewords.

A received codeword Y = diag(lam) Z + N splits into d independent groups,
one per layer: entry (u, c) with c = (u + v - 1) mod d belongs to layer v
and carries (G x_v)[u] times the layer weight.  Unwinding the unitary
weight leaves every group with the same linear model

    y_v = diag(lam) G x_v + noise,

so a single QR factorization of diag(lam) G serves the whole frame.  Bit
metrics are exact max-log subset minima of |Q^H y - R x|^2.  R has a real
nonnegative diagonal, so with x_2..x_d fixed the cost of x_1 is
r11^2 |t - x_1|^2, separable into I and Q terms.  The layered orthogonal
lattice detector (LORD) thus enumerates only the K^(d-1) candidates for
x_2..x_d and slices x_1 per axis, in chunks of a fixed number of (group,
candidate) pairs so memory stays bounded for any batch.  Where K^(d-1)
exceeds 4096 (d = 6 with 16-QAM), Schnorr-Euchner depth-first sphere
searches give the same minima group by group.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fec import QamConstellation
from .pstbc import PerfectCodeParams, omega_matrix


def group_columns(dim: int) -> np.ndarray:
    """cols[v-1, u] = column index of layer v at receive row u."""
    u = np.arange(dim)
    v = np.arange(dim)
    return (u[None, :] + v[:, None]) % dim


def group_decompose(y: np.ndarray, params: PerfectCodeParams) -> np.ndarray:
    """Split codeword observation(s) into weight-corrected group vectors.

    y: (d, d) or (batch, d, d).  Returns matching (d, d) or (batch, d, d)
    with row v-1 holding conj(omega_v) * y[u, (u + v - 1) % d].
    """
    y = np.asarray(y)
    d = params.dim
    if y.shape[-2:] != (d, d):
        raise ValueError(f"observation trailing dims must be ({d}, {d})")
    cols = group_columns(d)
    weights = np.stack([omega_matrix(params, v + 1).diagonal() for v in range(d)])
    gathered = y[..., np.arange(d)[None, :], cols]
    return weights.conj() * gathered


# the sphere search runs where the LORD grid K^(d-1) exceeds this size
SPHERE_ABOVE = 4096
# (group, candidate) pairs per LORD chunk; bounds the detector's memory
_CHUNK_PAIRS = 1 << 15


def qr_reduce(m: np.ndarray):
    """Stacked QR of (..., d, d); R gets a real nonnegative diagonal (zeros kept)."""
    q, r = np.linalg.qr(np.asarray(m))
    pivot = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(pivot)
    rot = np.where(mag > 0, pivot.conj() / np.where(mag > 0, mag, 1.0), 1.0)
    return q * rot.conj()[..., None, :], r * rot[..., :, None]


@dataclass
class BitMetricSet:
    """gamma[..., g, m, j, b]: min residual for group g, symbol m, bit j = b."""

    gamma: np.ndarray
    umin: np.ndarray


class MetricEngine:
    """Exact per-group bit metrics for diag(lam) G models.

    lam is (d,) for one frame or (frames, d) for a batch; bit_metrics then
    takes groups shaped (n, d) or (frames, n, d) to match.  LORD runs
    unless K^(d-1) > SPHERE_ABOVE, where the sphere search does.
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

    def bit_metrics(self, groups: np.ndarray) -> BitMetricSet:
        """groups: (n, d) or (frames, n, d) weight-corrected observations."""
        g = np.asarray(groups)
        frames = self.lam.shape[:-1]
        if g.ndim != len(frames) + 2 or g.shape[:len(frames)] != frames \
                or g.shape[-1] != self.dim:
            raise ValueError(f"groups must be {frames + ('n', self.dim)}")
        r = self._r.reshape(-1, self.dim, self.dim)
        qobs = (g @ self._q_conj).reshape((len(r),) + g.shape[-2:])    # Q^H y per group
        c = self.constellation
        if c.order ** (self.dim - 1) > SPHERE_ABOVE:
            gamma = np.stack([sphere_metrics(qf, rf, c) for qf, rf in zip(qobs, r)])
        else:
            gamma = lord_metrics(qobs, r, c)
        gamma = gamma.reshape(g.shape[:-1] + gamma.shape[-3:])
        return BitMetricSet(gamma=gamma, umin=gamma[..., 0, 0, :].min(axis=-1))


def lord_metrics(qobs: np.ndarray, r: np.ndarray,
                 constellation: QamConstellation) -> np.ndarray:
    """LORD subset minima: qobs (frames, n, d), r (frames, d, d) -> gamma."""
    c = constellation
    n_frames, n, d = qobs.shape
    k, bps = c.order, c.bits_per_symbol
    rest = c.grid(d - 1)                # x_2..x_d candidates
    n_cand = rest.shape[1]
    levels = np.unique(c.points.real)
    # level index of each label's I and Q coordinate
    level_i = np.searchsorted(levels, c.points.real)
    level_q = np.searchsorted(levels, c.points.imag)
    levels = levels[:, None, None, None]
    # candidate grid axes to reduce over for each of x_2..x_d
    other_axes = [tuple(ax for ax in range(-(d - 1), 0) if ax != m - d)
                  for m in range(1, d)]

    gamma = np.empty((n_frames, n, d, bps, 2))
    frame_step = max(1, _CHUNK_PAIRS // max(1, n * n_cand))
    group_step = max(1, min(n, _CHUNK_PAIRS // n_cand))
    for f0 in range(0, n_frames, frame_step):
        rf = r[f0:f0 + frame_step]
        images = (rf[:, :, 1:] @ rest)[:, None]        # (f, 1, d, cand)
        r11 = rf[:, 0, 0].real[:, None, None]
        for g0 in range(0, n, group_step):
            q = qobs[f0:f0 + frame_step, g0:g0 + group_step]
            resid = q[..., 1:, None] - images[..., 1:, :]
            tail = (resid.real ** 2 + resid.imag ** 2).sum(axis=-2)   # rows 2..d
            a = q[..., :1] - images[..., 0, :]        # row 1 target for r11 x_1
            dist_i = (a.real - r11 * levels) ** 2     # (level, f, g, cand)
            dist_q = (a.imag - r11 * levels) ** 2
            min_i, min_q = dist_i.min(axis=0), dist_q.min(axis=0)
            # x_1 tables: best cost with x_1's I (or Q) level set by the label;
            # a Gray bit on one axis leaves the other axis free
            x1_i = np.moveaxis((tail + min_q + dist_i).min(axis=-1)[level_i], 0, -1)
            x1_q = np.moveaxis((tail + min_i + dist_q).min(axis=-1)[level_q], 0, -1)
            best = (tail + min_i + min_q).reshape(q.shape[:2] + (d - 1) * (k,))
            per_label = [None] + [best.min(axis=axes) for axes in other_axes]
            out = gamma[f0:f0 + frame_step, g0:g0 + group_step]
            for m in range(d):
                for j in range(bps):
                    table = per_label[m] if m else (x1_i if j < bps // 2 else x1_q)
                    for b in (0, 1):
                        out[..., m, j, b] = table[..., c.subset_indices[j, b]].min(axis=-1)
    return gamma


def sphere_metrics(qobs: np.ndarray, r: np.ndarray,
                   constellation: QamConstellation) -> np.ndarray:
    """Subset minima by Schnorr-Euchner searches: qobs (n, d), r (d, d) -> gamma.

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
                hit = c.qam_bit_label(int(labels[m]), j)
                gamma[g, m, j, hit] = best
                subset = c.subset_indices[j, 1 - hit]
                seed = _substitute_bound(q, r, c.points, labels, m, subset)
                cands = [full] * d
                cands[m] = subset
                val, _ = _search(q, r, diag_images, c.points, cands, seed)
                gamma[g, m, j, 1 - hit] = val
    return gamma


def _substitute_bound(q, r, points, labels, m, subset) -> float:
    """Achievable cost: best single-symbol substitution at position m."""
    x = points[labels.astype(int)]
    best = np.inf
    for lab in subset:
        x[m] = points[lab]
        cost = float((np.abs(q - r @ x) ** 2).sum())
        best = min(best, cost)
    return best


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

    def descend(level: int, acc: float):
        nonlocal best
        labs = cand_labels[level]
        images = diag_images[level, labs]
        costs = np.abs((q[level] - partial[level]) - images) ** 2
        order = np.argsort(costs)
        for t in order:
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
