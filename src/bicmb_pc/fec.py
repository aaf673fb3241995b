"""Rate-1/2 K=7 (133, 171) convolutional code, random bit interleaver, Gray QAM.

The decoder works on per-coded-bit metric pairs (gamma(bit=0), gamma(bit=1))
supplied by the detector, so any soft metric that is additive over coded
bits can drive it.  Frames are closed with tail zeros, the survivor path is
traced back from the all-zero state.
"""
from __future__ import annotations

from functools import lru_cache
import heapq

import numpy as np

# Feedforward rate-1/2 code, constraint length K = 7, octal tap masks 133, 171.
K = 7
GENERATORS = (0o133, 0o171)
N_STATES = 1 << (K - 1)
N_TAIL = K - 1      # zero bits that flush the register back to state 0


@lru_cache(maxsize=None)
def _tables():
    """next_state[s, b], out0[s, b], out1[s, b] plus predecessor gathers."""
    n = N_STATES
    states = np.arange(n, dtype=np.int64)
    nxt = np.zeros((n, 2), dtype=np.int64)
    out0 = np.zeros((n, 2), dtype=np.int64)
    out1 = np.zeros((n, 2), dtype=np.int64)
    for b in (0, 1):
        reg = (b << (K - 1)) | states          # current input in the MSB
        nxt[:, b] = reg >> 1
        for gen, out in zip(GENERATORS, (out0, out1)):
            acc = reg & gen
            # popcount parity
            par = np.zeros(n, dtype=np.int64)
            for i in range(K):
                par ^= (acc >> i) & 1
            out[:, b] = par
    # predecessors: state t is reached from 2*(t % (n/2)) and that + 1,
    # consuming input bit t >> (K - 2)
    t = states
    pred0 = 2 * (t & (n // 2 - 1))
    pred1 = pred0 + 1
    bsel = t >> (K - 2)
    return nxt, out0, out1, pred0, pred1, bsel


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode from the all-zero state; returns 2*len(bits) coded bits.

    Tail bits that flush the register are the caller's responsibility.
    """
    b = np.asarray(bits)
    if b.ndim != 1:
        raise ValueError("bits must be a 1-d array")
    if b.size and not np.isin(b, (0, 1)).all():
        raise ValueError("bits must be 0/1")
    b = b.astype(np.uint8)
    out = np.empty(2 * b.size, dtype=np.uint8)
    for which, gen in enumerate(GENERATORS):
        taps = ((gen >> np.arange(K - 1, -1, -1)) & 1).astype(np.uint8)
        out[which::2] = np.convolve(b, taps)[: b.size] % 2
    return out


def free_distance() -> int:
    """Minimum Hamming weight over nonzero paths leaving and rejoining state 0."""
    nxt, out0, out1, *_ = _tables()
    # forced divergence: input 1 from state 0
    start = nxt[0, 1]
    heap = [(int(out0[0, 1] + out1[0, 1]), int(start))]
    best_merge = np.inf
    seen = {}
    while heap:
        d, s = heapq.heappop(heap)
        if s in seen and seen[s] <= d:
            continue
        seen[s] = d
        for b in (0, 1):
            w = d + int(out0[s, b] + out1[s, b])
            t = int(nxt[s, b])
            if t == 0:
                best_merge = min(best_merge, w)
            elif t not in seen or seen[t] > w:
                heapq.heappush(heap, (w, t))
    return int(best_merge)


def viterbi_decode_batch(metrics: np.ndarray) -> np.ndarray:
    """Decode a batch of frames of per-coded-bit metric pairs.

    metrics: (n_frames, 2*T, 2) with metrics[f, k, v] the cost of coded bit
    k taking value v.  Paths start and end in state 0; ties prefer the
    lower predecessor state.  Returns (n_frames, T - N_TAIL) info bits.
    """
    m = np.asarray(metrics, dtype=float)
    if m.ndim != 3 or m.shape[2] != 2 or m.shape[1] % 2:
        raise ValueError("metrics must be shaped (n_frames, 2*T, 2)")
    n_frames, twot, _ = m.shape
    steps = twot // 2
    if steps <= N_TAIL:
        raise ValueError("frame shorter than the tail")
    _, out0, out1, pred0, pred1, bsel = _tables()
    n = N_STATES

    pm = np.full((n_frames, n), np.inf)
    pm[:, 0] = 0.0
    choice = np.zeros((steps, n_frames, n), dtype=bool)
    for t in range(steps):
        m0 = m[:, 2 * t, :]
        m1 = m[:, 2 * t + 1, :]
        bm = m0[:, out0] + m1[:, out1]               # (n_frames, n, 2)
        cand0 = pm[:, pred0] + bm[:, pred0, bsel]
        cand1 = pm[:, pred1] + bm[:, pred1, bsel]
        better1 = cand1 < cand0
        choice[t] = better1
        pm = np.where(better1, cand1, cand0)

    bits = np.zeros((n_frames, steps), dtype=np.uint8)
    state = np.zeros(n_frames, dtype=np.int64)
    rows = np.arange(n_frames)
    for t in range(steps - 1, -1, -1):
        bits[:, t] = (state >> (K - 2)).astype(np.uint8)
        took1 = choice[t, rows, state]
        state = np.where(took1, pred1[state], pred0[state])
    return bits[:, : steps - N_TAIL]


class Interleaver:
    """Seeded random permutation applied to coded bits (or metric rows)."""

    def __init__(self, n_bits: int, seed: int):
        if n_bits < 1:
            raise ValueError("n_bits must be positive")
        self.n_bits = n_bits
        self.seed = seed
        self.permutation = np.random.default_rng(seed).permutation(n_bits)
        self._inverse = np.argsort(self.permutation)

    def interleave(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.n_bits:
            raise ValueError(f"expected leading dimension {self.n_bits}, got {x.shape[0]}")
        return x[self.permutation]

    def deinterleave(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.n_bits:
            raise ValueError(f"expected leading dimension {self.n_bits}, got {x.shape[0]}")
        return x[self._inverse]


def _gray_to_binary(g: int) -> int:
    b = 0
    while g:
        b ^= g
        g >>= 1
    return b


class QamConstellation:
    """Square Gray-labeled QAM with unit average energy.

    Labels are integers read MSB-first; the first half of the bits selects
    the in-phase level, the second half the quadrature level.  Per axis the
    Gray sequence 00, 01, 11, 10 maps to levels -3, -1, +1, +3 (16-QAM).
    """

    def __init__(self, order: int = 16):
        if order not in (4, 16):
            raise ValueError("supported orders: 4, 16")
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        side = self.bits_per_symbol // 2
        n_axis = 1 << side
        amps = 2 * np.arange(n_axis) - (n_axis - 1)      # -3,-1,1,3 or -1,1
        pts = np.zeros(order, dtype=complex)
        for label in range(order):
            gi = label >> side
            gq = label & (n_axis - 1)
            pts[label] = amps[_gray_to_binary(gi)] + 1j * amps[_gray_to_binary(gq)]
        self.scale = float(np.sqrt(np.mean(np.abs(pts) ** 2)))
        self.points = pts / self.scale
        self.points.setflags(write=False)
        # subset_indices[j, b] = labels whose j-th bit (MSB-first) equals b
        self.subset_indices = np.zeros((self.bits_per_symbol, 2, order // 2), dtype=np.int64)
        labels = np.arange(order)
        for j in range(self.bits_per_symbol):
            bitval = (labels >> (self.bits_per_symbol - 1 - j)) & 1
            for b in (0, 1):
                self.subset_indices[j, b] = labels[bitval == b]
        self.subset_indices.setflags(write=False)

    def qam_map(self, bit_group: np.ndarray) -> complex:
        bits = np.asarray(bit_group).ravel()
        if bits.size != self.bits_per_symbol:
            raise ValueError(f"need {self.bits_per_symbol} bits per symbol")
        label = 0
        for b in bits:
            label = (label << 1) | int(b)
        return complex(self.points[label])

    def qam_bit_label(self, symbol_index: int, j: int) -> int:
        if not 0 <= symbol_index < self.order:
            raise ValueError("symbol index out of range")
        if not 0 <= j < self.bits_per_symbol:
            raise ValueError("bit position out of range")
        return (symbol_index >> (self.bits_per_symbol - 1 - j)) & 1

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized mapping of a bit stream to symbols (labels MSB-first)."""
        b = np.asarray(bits)
        if b.size % self.bits_per_symbol:
            raise ValueError("bit count must be a multiple of bits per symbol")
        groups = b.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        labels = groups @ weights
        return self.points[labels]

    def grid(self, n: int) -> np.ndarray:
        """All K^n symbol n-vectors as columns of an (n, K^n) array.

        The last row's label varies fastest (row-major label order).
        """
        return self.points[np.indices((self.order,) * n).reshape(n, -1)]
