"""Diversity-order analysis: moment matching, pairwise error bound, slopes.

The channel power Theta = sum_ij beta_ij ||H_ij||_F^2 is a weighted sum of
per-block Gamma variables; matching its first two moments gives the
Gamma(kappa, theta) surrogate whose shape kappa is the diversity order.
When beta and the path counts are integers or Fractions the moment match
is carried out in exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .fec import QamConstellation
from .pstbc import PerfectCodeParams


def _as_grid(values, like=None):
    arr = np.asarray(values, dtype=object)
    if arr.ndim == 0:
        if like is None:
            raise ValueError("scalar path count needs a beta grid for its shape")
        arr = np.full(np.asarray(like, dtype=object).shape, arr[()], dtype=object)
    return arr


def _exactable(arr) -> bool:
    return all(isinstance(v, (Integral, Fraction)) for v in arr.ravel())


def welch_satterthwaite(beta, n_paths):
    """Moment-matched Gamma shape and scale for the channel power.

    beta: (l_r, l_t) grid of large-scale gains.  n_paths: matching grid of
    per-block path counts, or a scalar applied to every block.  Returns
    (kappa, theta); exact Fractions when every input is an integer or
    Fraction, floats otherwise.
    """
    b = np.asarray(beta, dtype=object)
    if b.ndim != 2:
        raise ValueError("beta must be a 2-d grid")
    paths = _as_grid(n_paths, like=b)
    if paths.shape != b.shape:
        raise ValueError("n_paths grid must match beta shape")
    for p in paths.ravel():
        if not (isinstance(p, Integral) and p >= 1):
            raise ValueError("path counts must be positive integers")
    if any(v < 0 for v in b.ravel()):
        raise ValueError("beta entries must be nonnegative")
    exact = _exactable(b)
    conv = Fraction if exact else float
    total = sum(conv(v) for v in b.ravel())
    var = sum(conv(v) ** 2 / int(p) for v, p in zip(b.ravel(), paths.ravel()))
    if total <= 0 or var <= 0:
        raise ValueError("beta must contain positive entries")
    kappa = total * total / var
    theta = var / total
    return kappa, theta


def zeta_min(params: PerfectCodeParams, constellation: QamConstellation,
             n_samples: int = 200_000, seed: int = 0) -> float:
    """Smallest per-row squared projection distance of the rotated lattice.

    min over rows u and distinct symbol vectors x, x' of |g_u (x - x')|^2.
    Exact when the candidate grid is small (K^d <= 4096), a sampled
    estimate otherwise.
    """
    k = constellation.order
    d = params.dim
    g = params.generator
    if k ** d <= 4096:
        proj = g @ constellation.grid(d)        # (d, K^d)
        best = np.inf
        n = proj.shape[1]
        chunk = 512
        zero_pairs = 0
        for lo in range(0, n, chunk):
            block = proj[:, lo:lo + chunk]
            diffs = np.abs(proj[:, :, None] - block[:, None, :]) ** 2
            nz = diffs > 1e-14
            zero_pairs += int((~nz).sum())
            if nz.any():
                best = min(best, float(diffs[nz].min()))
        # only self-pairs may coincide: the generator rows have irrational
        # entry ratios, so distinct lattice points never collide per row
        if zero_pairs != d * n:
            raise RuntimeError("zeta_min: distinct lattice points coincide in a row")
        return best
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k, (n_samples, d))
    b = rng.integers(0, k, (n_samples, d))
    differ = (a != b).any(axis=1)
    a, b = a[differ], b[differ]
    delta = constellation.points[a] - constellation.points[b]
    proj = np.abs(delta @ g.T) ** 2
    proj = proj[proj > 1e-14]
    return float(proj.min())


def pep_bound(snr_db, kappa, theta, zeta, dim: int, total_tx: int, l_t: int):
    """High-SNR pairwise error bound 0.5 * (theta zeta d n_tx snr / (4 l_t))^-kappa."""
    for name, v in (("kappa", kappa), ("theta", theta), ("zeta", zeta)):
        if float(v) <= 0:
            raise ValueError(f"{name} must be positive")
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    arg = float(theta) * float(zeta) * dim * total_tx * snr / (4.0 * l_t)
    return 0.5 * arg ** (-float(kappa))


def empirical_slope(snr_db, ber) -> float:
    """Diversity order estimate: negated log10(BER) slope per SNR decade."""
    s = np.asarray(snr_db, dtype=float)
    b = np.asarray(ber, dtype=float)
    if s.shape != b.shape or s.ndim != 1:
        raise ValueError("snr_db and ber must be matching 1-d arrays")
    keep = b > 0
    if keep.sum() < 2:
        raise ValueError("need at least two positive BER points")
    x = s[keep] / 10.0
    slope = np.polyfit(x, np.log10(b[keep]), 1)[0]
    return float(-slope)


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


@dataclass(frozen=True)
class DiversityReport:
    kappa: float
    theta: float
    zeta: float
    dim: int
    total_tx: int
    l_t: int

    def pep(self, snr_db):
        return pep_bound(snr_db, self.kappa, self.theta, self.zeta,
                         self.dim, self.total_tx, self.l_t)


def diversity_report(beta, n_paths, params: PerfectCodeParams,
                     constellation: QamConstellation, total_tx: int,
                     l_t: int) -> DiversityReport:
    kappa, theta = welch_satterthwaite(beta, n_paths)
    return DiversityReport(kappa=float(kappa), theta=float(theta),
                           zeta=zeta_min(params, constellation),
                           dim=params.dim, total_tx=total_tx, l_t=l_t)
