"""Perfect space-time block codes for 2, 3, 4 and 6 streams.

A codeword carries D input vectors x_1, ..., x_D (one D-vector of QAM
symbols each) on a D x D matrix

    Z = sum_v  diag(G x_v) E^(v-1)

where G is the unitary generator of the code and E is the twisted shift
matrix with ones on the superdiagonal and the unit g in the lower-left
corner.  E^D = g I, so the D layers occupy D disjoint twisted diagonals:
entry (u, c) of Z belongs to layer v = ((c - u) mod D) + 1 and equals
(G x_v)_u, times g when the diagonal wraps (c < u).

That placement is one table, built once per dimension with the rest of
PerfectCodeParams: row u of E^v has its single nonzero entry, 1 or g, in
column (u + v) mod D, held as params.cols and params.weights.  encode_batch
weights every layer and scatters all of them along it in one indexed
assignment, for one (D, D) block of input vectors or any stack (..., D, D)
of them.  group_decompose is its inverse at the receiver: it gathers the
layers of diag(lam) Z + N and removes the wrap weights, leaving
diag(lam) G x_v plus white noise per layer.

Generators: the Golden code for D = 2; for D = 3, 4, 6 the cyclotomic
constructions over Q(omega, 2cos(2pi/7)), Q(i, 2cos(2pi/15)) and
Q(omega, 2cos(2pi/28)), with a trace-orthonormal ideal basis reduced to
integer coefficient tables below.  Unitarity, E^D = g I and the layout
table are asserted when the parameters are built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUPPORTED_DIMS = (2, 3, 4, 6)

_OMEGA = np.exp(2j * np.pi / 3)

# Corner unit of the shift matrix per dimension.
_G_UNIT = {2: 1j, 3: _OMEGA, 4: 1j, 6: -_OMEGA}

# Cyclotomic generator data.  For dimension D: theta_k = 2cos(2pi k/m) over
# the listed conjugates k, base unit u (i or omega), normalization c, and
# one column per basis element given as (a, b) pairs meaning (a + b u) per
# power of theta.  Column l of the generator is sigma_k(col_l)/sqrt(c).
_CYCLOTOMIC = {
    3: dict(
        m=7, ks=(1, 2, 3), c=7, unit="omega",
        cols=[
            [(1, 1), (1, 0), (0, 0)],
            [(-1, -2), (1, 1), (1, 1)],
            [(-1, -2), (0, 0), (0, 1)],
        ],
    ),
    4: dict(
        m=15, ks=(1, 2, 4, 7), c=15, unit="i",
        cols=[
            [(1, -3), (0, 0), (0, 1), (0, 0)],
            [(0, 0), (1, -3), (0, 0), (0, 1)],
            [(-1, 1), (-3, 0), (1, 0), (1, 0)],
            [(0, -1), (-3, 4), (0, 0), (1, -1)],
        ],
    ),
    6: dict(
        m=28, ks=(1, 3, 5, 9, 11, 13), c=14, unit="omega",
        cols=[
            [(0, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
            [(-3, -1), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0)],
            [(0, 0), (3, 0), (0, 0), (-1, 0), (0, 0), (0, 0)],
            [(-4, 1), (0, 0), (5, 0), (0, 0), (-1, 0), (0, 0)],
            [(-3, -1), (0, 0), (4, 0), (0, 0), (-1, 0), (0, 0)],
            [(0, 0), (5, 0), (0, 0), (-5, 0), (0, 0), (1, 0)],
        ],
    ),
}


@dataclass(frozen=True, eq=False)
class PerfectCodeParams:
    """Static description of one code dimension.

    generator: unitary D x D matrix G applied to each input vector.
    shift: the twisted shift matrix E.
    cols, weights: the layout table; row u of E^v holds weights[v, u] at
    column cols[v, u].
    """

    dim: int
    g: complex
    generator: np.ndarray
    shift: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


def _golden_generator() -> np.ndarray:
    rho = (1 + np.sqrt(5)) / 2
    rho_c = (1 - np.sqrt(5)) / 2
    a = 1 + 1j * (1 - rho)
    a_c = 1 + 1j * (1 - rho_c)
    return np.array([[a, a * rho], [a_c, a_c * rho_c]]) / np.sqrt(5)


def _cyclotomic_generator(dim: int) -> np.ndarray:
    data = _CYCLOTOMIC[dim]
    theta = 2 * np.cos(2 * np.pi * np.asarray(data["ks"]) / data["m"])
    unit = 1j if data["unit"] == "i" else _OMEGA
    gen = np.zeros((dim, dim), dtype=complex)
    for l, col in enumerate(data["cols"]):
        vals = np.zeros(dim, dtype=complex)
        for j, (a, b) in enumerate(col):
            if a or b:
                vals += (a + b * unit) * theta ** j
        gen[:, l] = vals
    return gen / np.sqrt(data["c"])


def _shift_matrix(dim: int, g: complex) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        e[i, i + 1] = 1.0
    e[dim - 1, 0] = g
    return e


@lru_cache(maxsize=None)
def build_params(dim: int) -> PerfectCodeParams:
    """Build (and verify) the code parameters for one dimension."""
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported code dimension {dim}; pick from {SUPPORTED_DIMS}")
    g = _G_UNIT[dim]
    gen = _golden_generator() if dim == 2 else _cyclotomic_generator(dim)
    shift = _shift_matrix(dim, g)

    unit_err = np.abs(gen @ gen.conj().T - np.eye(dim)).max()
    if unit_err > 1e-12:
        raise AssertionError(f"generator for D={dim} is not unitary (err {unit_err:.2e})")
    shift_err = np.abs(np.linalg.matrix_power(shift, dim) - g * np.eye(dim)).max()
    if shift_err > 1e-12:
        raise AssertionError(f"shift matrix for D={dim} violates E^D = gI (err {shift_err:.2e})")

    total = np.arange(dim)[:, None] + np.arange(dim)
    cols = total % dim
    weights = np.where(total >= dim, g, 1.0 + 0j)
    for v in range(dim):
        table = np.zeros((dim, dim), dtype=complex)
        table[np.arange(dim), cols[v]] = weights[v]
        if np.abs(np.linalg.matrix_power(shift, v) - table).max() > 1e-12:
            raise AssertionError(f"layout table for D={dim} misplaces E^{v}")
    for arr in (gen, shift, cols, weights):
        arr.setflags(write=False)
    return PerfectCodeParams(dim=dim, g=g, generator=gen, shift=shift,
                             cols=cols, weights=weights)


def encode_batch(params: PerfectCodeParams, inputs: np.ndarray) -> np.ndarray:
    """Codeword matrices for one input block (D, D) or a stack (..., D, D).

    inputs[..., v - 1, :] is the D-vector x_v of each codeword, its entries
    finite.
    """
    x = np.asarray(inputs, dtype=complex)
    d = params.dim
    rotated = (x.reshape(-1, d) @ params.generator.T).reshape(x.shape)
    rotated *= params.weights
    # the D layers cover every entry once, so one scatter fills z
    z = np.empty_like(x)
    z[..., np.arange(d), params.cols] = rotated
    return z


def group_decompose(y: np.ndarray, params: PerfectCodeParams) -> np.ndarray:
    """Layers of codeword observation(s) y (..., D, D), wrap weights removed.

    Row v - 1 of the result holds conj(weight) * y[u, (u + v - 1) mod D]
    over u, the inverse of encode_batch's placement (|g| = 1).
    """
    return params.weights.conj() * np.asarray(y)[..., np.arange(params.dim), params.cols]
