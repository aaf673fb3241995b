"""Diversity-order analysis: moment matching, pairwise error bound, slopes.

The channel power Theta = sum_ij beta_ij ||H_ij||_F^2 is a weighted sum of
per-block Gamma variables; matching its first two moments gives the
Gamma(kappa, theta) surrogate whose shape kappa is the diversity order.
When beta and the path counts are integers or Fractions the moment match
is carried out in exact rational arithmetic.  zeta_min, the smallest
per-row distance of the rotated code lattice, is computed exactly for
every (D, K); with kappa and theta it sets the high-SNR pairwise error
bound that `bicmb-pc analyze` prints next to each measured BER point.
"""
from __future__ import annotations

from fractions import Fraction
from numbers import Integral

import numpy as np

from .fec import QamConstellation
from .pstbc import PerfectCodeParams


# the largest |snr_db| whose linear SNR and its inverse are finite floats;
# the simulator's noise variance refuses any SNR past it, so no sweep writes one
_SNR_DB_LIMIT = 10 * np.log10(np.finfo(float).max)


def check_snr_db(snr_db) -> None:
    """Refuse SNRs in dB that are not finite or whose linear value leaves float range."""
    s = np.asarray(snr_db, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("snr_db must be finite")
    if (np.abs(s) > _SNR_DB_LIMIT).any():
        raise ValueError(f"snr_db must be between -{_SNR_DB_LIMIT:.1f} and {_SNR_DB_LIMIT:.1f} dB")


def _exactable(arr) -> bool:
    return all(isinstance(v, (Integral, Fraction)) for v in arr.ravel())


def welch_satterthwaite(beta, n_paths):
    """Moment-matched Gamma shape and scale for the channel power.

    beta: (l_r, l_t) grid of large-scale gains.  n_paths: matching grid of
    per-block path counts.  Returns (kappa, theta); exact Fractions when
    every input is an integer or Fraction, floats otherwise.
    """
    b = np.asarray(beta, dtype=object)
    if b.ndim != 2:
        raise ValueError("beta must be a 2-d grid")
    paths = np.asarray(n_paths, dtype=object)
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


def _sum_set(terms) -> np.ndarray:
    """Every sum of one entry from each 1-d array in terms, flattened."""
    total = np.zeros(1, dtype=complex)
    for t in terms:
        total = (total[:, None] + t[None, :]).ravel()
    return total


def zeta_min(params: PerfectCodeParams, constellation: QamConstellation) -> float:
    """Smallest per-row squared projection distance of the rotated lattice.

    min over rows u and nonzero differences delta of |g_u . delta|^2, exact
    for every (D, K).  Each delta_m lies on the square difference grid
    h * {a + ib : |a|, |b| <= top} of the constellation's axis levels, h
    their spacing.  Per row the largest entry g_up is the pivot: for every
    choice of the other D - 1 differences the best delta_p is sliced per
    axis by rounding and clipping (the LORD step of Siti & Fitz, ICC 2006).
    delta -> i delta keeps the grid and |g_u . delta|, so only choices whose
    last nonzero entry has re > 0, im >= 0 are enumerated, in chunks.
    """
    chunk = 1 << 17
    top = len(constellation.levels) - 1
    axis = np.arange(-top, top + 1)
    diffs = (axis[:, None] + 1j * axis[None, :]).ravel()
    quadrant = diffs[(diffs.real > 0) & (diffs.imag >= 0)]
    best = np.inf
    for row in params.generator:
        p = int(np.argmax(np.abs(row)))
        w = -np.delete(row, p) / row[p]         # ideal delta_p = w . other deltas
        least = 1.0                             # other deltas all zero: |delta_p| >= h
        for last in range(len(w)):
            terms = [w[m] * diffs for m in range(last)] + [w[last] * quadrant]
            n_in, size = 0, 1
            while n_in < len(terms) and size * terms[n_in].size <= chunk:
                size *= terms[n_in].size
                n_in += 1
            inner, outer = _sum_set(terms[:n_in]), _sum_set(terms[n_in:])
            step = max(1, chunk // inner.size)
            for lo in range(0, outer.size, step):
                ideal = (outer[lo:lo + step, None] + inner[None, :]).ravel()
                rx = ideal.real - np.clip(np.rint(ideal.real), -top, top)
                ry = ideal.imag - np.clip(np.rint(ideal.imag), -top, top)
                least = min(least, float((rx * rx + ry * ry).min()))
        best = min(best, (2.0 / constellation.scale * abs(row[p])) ** 2 * least)
    # the generator rows have irrational entry ratios, so distinct lattice
    # points never collide per row
    if best <= 1e-14:
        raise RuntimeError("zeta_min: distinct lattice points coincide in a row")
    return float(best)


def pep_bound(snr_db, kappa, theta, zeta, dim: int, total_tx: int, l_t: int):
    """High-SNR pairwise error bound 0.5 * (theta zeta d n_tx snr / (4 l_t))^-kappa.

    Past floating-point range the bound reads its limits: 0 as the SNR grows
    and inf (vacuous) as it falls.
    """
    for name, v in (("kappa", kappa), ("theta", theta), ("zeta", zeta)):
        if not 0 < float(v) < np.inf:          # NaN fails both comparisons
            raise ValueError(f"{name} must be positive and finite, got {v}")
    with np.errstate(over="ignore", divide="ignore"):
        snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
        arg = float(theta) * float(zeta) * dim * total_tx * snr / (4.0 * l_t)
        return 0.5 * arg ** (-float(kappa))


def empirical_slope(snr_db, ber) -> float:
    """Diversity order estimate: negated log10(BER) slope per SNR decade."""
    s = np.asarray(snr_db, dtype=float)
    b = np.asarray(ber, dtype=float)
    if s.shape != b.shape or s.ndim != 1:
        raise ValueError("snr_db and ber must be matching 1-d arrays")
    check_snr_db(s)         # past its bound, polyfit's sums overflow
    if not np.isfinite(b).all():
        raise ValueError("ber must be finite")
    keep = b > 0
    if np.unique(s[keep]).size < 2:
        raise ValueError("need positive BER at two or more distinct SNRs")
    x = s[keep] / 10.0
    slope = np.polyfit(x, np.log10(b[keep]), 1)[0]
    return float(-slope)
