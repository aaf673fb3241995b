"""Clustered mm-wave channel with distributed antenna subarrays.

Each transmit subarray j and receive subarray i sees its own sparse
multipath block H_ij built from n_paths planar-wave components with
uniform angles and CN(0,1) gains, scaled so E||H_ij||_F^2 = n_t * n_r.
Large-scale gains beta[i, j] weight the blocks of the stacked channel.

A ChannelModel holds the geometry, beta and the path-count grid, and is
the one place that checks them: the antenna counts and the steering span,
beta's shape, finiteness and sign, each path count, and the mean channel
power against NUMERIC_CEILING.  Everything that draws or analyzes a
channel takes a ChannelModel and checks none of this again.

A channel is kept as its path factors, H = a_r diag(gain) a_t^H with one
block-placed steering column per path, so rank(H) <= P = total paths.
path_core reduces those factors to a P x P core with the same nonzero
singular values and Frobenius norm as H, so the dense H is never formed.
draw_paths draws a stack of channels, one per generator: each generator
draws its own path parameters, and the steering vectors of the whole stack
are built and placed in one call per side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest steering phase span, mean channel power and noise variance a link
# may have: squared residuals of values this size, summed over a frame, stay
# finite with headroom below the float64 maximum of about 1.8e308.
NUMERIC_CEILING = 1e300


@dataclass(frozen=True)
class ChannelModel:
    """Subarray geometry, large-scale gains and path counts of the clustered channel.

    n_t, n_r antennas per transmit and receive subarray, l_t, l_r subarrays,
    spacing in wavelengths; beta an (l_r, l_t) grid of block gains, n_paths
    a scalar or an (l_r, l_t) grid of per-block path counts.  Everything the
    channel alone decides is checked once, here, and beta and n_paths are
    kept as (l_r, l_t) nested tuples, so the model is hashable.
    """

    n_t: int
    n_r: int
    l_t: int
    l_r: int
    beta: tuple
    n_paths: tuple
    spacing: float = 0.5

    def __post_init__(self):
        for name in ("n_t", "n_r", "l_t", "l_r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0 < self.spacing < np.inf:
            raise ValueError("spacing must be positive and finite")
        # as a Python float, an overflow reads inf instead of warning
        span = 2 * np.pi * float(self.spacing) * (max(self.n_t, self.n_r) - 1)
        if span > NUMERIC_CEILING:
            raise ValueError(f"spacing = {self.spacing:g} gives a steering phase span of "
                             f"{span:.3g} rad, above the ceiling of {NUMERIC_CEILING:g}")
        shape = (self.l_r, self.l_t)
        b = np.asarray(self.beta, dtype=float)
        if b.shape != shape:
            raise ValueError(f"beta must have shape {shape}, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("beta entries must be finite")
        if (b < 0).any():
            raise ValueError("beta entries must be nonnegative")
        p = np.asarray(self.n_paths)
        if p.ndim == 0:
            p = np.full(shape, p)
        if p.shape != shape:
            raise ValueError(f"n_paths must be scalar or shaped {shape}, got shape {p.shape}")
        if not np.issubdtype(p.dtype, np.integer) or (p < 1).any():
            raise ValueError("path counts must be positive integers")
        # numpy holds counts from 2**63 as uint64, which an int64 grid would wrap
        limit = np.iinfo(np.int64).max
        if (p > limit).any():
            raise ValueError(f"n_paths entries must be at most {limit}")
        power = sum(b.ravel().tolist()) * self.n_t * self.n_r     # as Python floats, inf on overflow
        if power == 0:
            raise ValueError("beta must have a positive sum")
        if power > NUMERIC_CEILING:
            raise ValueError(f"beta gives a mean channel power of {power:.3g}, "
                             f"above the ceiling of {NUMERIC_CEILING:g}")
        object.__setattr__(self, "beta", _grid(self.beta))
        object.__setattr__(self, "n_paths", _grid(p.astype(np.int64)))

    @property
    def total_tx(self) -> int:
        return self.n_t * self.l_t

    @property
    def total_rx(self) -> int:
        return self.n_r * self.l_r


def _grid(values) -> tuple:
    """Nested-tuple copy of a checked (l_r, l_t) grid, entries as Python numbers."""
    return tuple(map(tuple, np.asarray(values).tolist()))


def array_response(n: int, angle, spacing: float = 0.5) -> np.ndarray:
    """Unit-norm ULA steering vector(s) of n >= 1 elements; angle may be scalar or array.

    Element k carries phase 2*pi*spacing*k*sin(angle); output shape is
    angle.shape + (n,) for array input, (n,) for a scalar.
    """
    ang = np.asarray(angle, dtype=float)
    k = np.arange(n)
    phase = 2j * np.pi * spacing * np.multiply.outer(np.sin(ang), k)
    return np.exp(phase) / np.sqrt(n)


def _draw_block(rng: np.random.Generator, n_paths: int):
    """Per-block path parameters, fixed draw order: AoA, AoD, gain.

    One uniform call gives the AoAs then the AoDs, and one normal call the
    gains' real then imaginary parts: the same values, and the same stream
    position after, as one call per quantity.
    """
    aoa, aod = rng.uniform(0.0, 2.0 * np.pi, 2 * n_paths).reshape(2, n_paths)
    re, im = rng.standard_normal(2 * n_paths).reshape(2, n_paths)
    return aoa, aod, (re + 1j * im) / np.sqrt(2.0)


def _draw_frame(rng: np.random.Generator, counts: np.ndarray):
    """One channel's (aoa, aod, alpha), blocks of counts[i] paths drawn in order."""
    return tuple(map(np.concatenate, zip(*(_draw_block(rng, n) for n in counts))))


def _place(resp: np.ndarray, block: np.ndarray, total: int) -> np.ndarray:
    """(..., total, P) matrices with resp[..., p, :] in rows block[p]*n .. + n of column p."""
    *lead, n_p, n = resp.shape
    out = np.zeros((*lead, total, n_p), dtype=complex)
    out[..., block[:, None] * n + np.arange(n), np.arange(n_p)[:, None]] = resp
    return out


def draw_paths(rngs, channel: ChannelModel):
    """Stacked path factors (a_r, gain, a_t), one channel per generator in rngs.

    Channel f is H_f = a_r[f] diag(gain[f]) a_t[f]^H, with a_r (F, total_rx, P)
    and a_t (F, total_tx, P) holding unit-norm steering columns placed in
    their subarray's rows and gain[f, p] = sqrt(beta_ij n_t n_r / L_ij)
    alpha_p.  Each generator draws its own channel's blocks in row-major
    order, AoA, AoD and gain per block; the steering vectors of all
    channels are then built in one call per side.  The channel model was
    checked when it was built, so nothing is checked again here.
    """
    b = np.asarray(channel.beta, dtype=float).ravel()
    p = np.asarray(channel.n_paths).ravel()
    draws = [_draw_frame(rng, p) for rng in rngs]
    if not draws:
        raise ValueError("rngs must hold at least one generator")
    aoa, aod, alpha = map(np.stack, zip(*draws))        # (F, P) each
    rows, cols = np.divmod(np.repeat(np.arange(p.size), p), channel.l_t)
    gain = np.sqrt(np.repeat(b * (channel.n_t * channel.n_r) / p, p)) * alpha
    a_r = _place(array_response(channel.n_r, aoa, channel.spacing), rows, channel.total_rx)
    a_t = _place(array_response(channel.n_t, aod, channel.spacing), cols, channel.total_tx)
    return a_r, gain, a_t


def path_core(a_r: np.ndarray, gain: np.ndarray, a_t: np.ndarray) -> np.ndarray:
    """R_r diag(gain) R_t^H from thin QRs of the steering factors.

    Same nonzero singular values and Frobenius norm as a_r diag(gain) a_t^H,
    at most P x P.  Leading axes are a stack of channels.
    """
    r_r = np.linalg.qr(a_r, mode="r")
    r_t = np.linalg.qr(a_t, mode="r")
    return (r_r * gain[..., None, :]) @ np.swapaxes(r_t, -1, -2).conj()
