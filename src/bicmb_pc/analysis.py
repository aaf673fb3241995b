"""Diversity-order analysis: moment matching, pairwise error bound, slopes.

The channel power Theta = sum_ij beta_ij ||H_ij||_F^2 is a weighted sum of
per-block Gamma variables; matching its first two moments gives the
Gamma(kappa, theta) surrogate whose shape kappa is the diversity order.
The moment match is always carried out in exact rational arithmetic, each
beta read as the decimal it prints as, so no beta a ChannelModel accepts
overflows or underflows it.  zeta_min, the smallest
per-row distance of the rotated code lattice, is computed exactly for
every (D, K); with kappa and theta it sets the high-SNR pairwise error
bound that `bicmb-pc analyze` prints next to each measured BER point.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .channel_model import ChannelModel
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


def welch_satterthwaite(channel: ChannelModel):
    """Moment-matched Gamma shape and scale (kappa, theta) of the channel power.

    Both are exact Fractions: each beta entry b is read as Fraction(str(b)),
    so 0.01 is 1/100.  The channel model has checked beta and the path
    counts, and beta has a positive sum, so neither moment is zero.
    """
    beta = [Fraction(str(b)) for row in channel.beta for b in row]
    paths = [p for row in channel.n_paths for p in row]
    total = sum(beta)
    var = sum(b * b / p for b, p in zip(beta, paths))
    return total * total / var, var / total


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
    and inf (vacuous) as it falls, or as a positive theta rounds to 0.0.
    Where such a theta meets an SNR past float range, the exact argument
    decides.
    """
    for name, v in (("kappa", kappa), ("theta", theta), ("zeta", zeta)):
        if not 0 < v < np.inf:      # on the value itself; NaN fails both comparisons
            raise ValueError(f"{name} must be positive and finite, got {v}")
    # where a theta that rounds to 0.0 meets an overflowed SNR, arg is 0 * inf
    # (NaN); exact moves a factor 10**s from the SNR onto theta, which brings
    # both into float range
    t = Fraction(theta)
    s = (t.denominator.bit_length() - t.numerator.bit_length()) * 3 // 10
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        db = np.asarray(snr_db, dtype=float)
        arg = float(theta) * float(zeta) * dim * total_tx * 10.0 ** (db / 10.0) / (4.0 * l_t)
        exact = float(t * 10 ** s) * float(zeta) * dim * total_tx * 10.0 ** (db / 10.0 - s)
        return 0.5 * np.where(np.isnan(arg), exact / (4.0 * l_t), arg) ** (-float(kappa))


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
