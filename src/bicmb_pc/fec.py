"""Rate-1/2 K=7 (133, 171) convolutional code, random bit interleaver, Gray QAM.

The decoder works on per-coded-bit metric pairs (gamma(bit=0), gamma(bit=1))
supplied by the detector, so any soft metric that is additive over coded
bits can drive it.  Frames are closed with tail zeros, the survivor path is
traced back from the all-zero state.

GENERATORS become taps in one place, the (2, K) table _TAPS.  conv_encode
reads it to encode a whole (frames, bits) block with one shifted XOR per
nonzero tap, and _labels() reads it to label the trellis branches, so the
encoder and the decoder share one definition of the code.  That butterfly
label table is the one trellis table: the decoder runs on it, and
free_distance runs the same add-compare-select on its branch weights.

The trellis runs as butterflies with frames on the innermost axis: states
2j and 2j + 1 feed states j and 32 + j, so one step is one broadcast add,
one compare and one minimum over (2, 2, 32, n_frames) candidates.  Branch
metrics are built for a chunk of steps at a time from the 4 possible coded
pairs, gathering only that chunk's metric rows (in whatever row order the
caller stores them), and each step's 64 survivor decisions per frame are
packed into one uint64, packbits running along the last axis of a (steps,
frames, states) copy.  The traceback reads them with in-place shifts and
masks; the decision d_t of the survivor state at step t is the low bit of
its predecessor, which is the input of step t - 6, so u_(t-6) = d_t is
read off directly with no separate bit extraction.

There is no radix-4 (two steps per pass) trellis: the tie rule (lower
predecessor wins) needs the step-1 decisions on the pm + b1 sums, so two
fused steps would do the same adds and compares as two single ones.

The interleaver is one table, built once per frame length and seed:
interleaver(n_bits, seed) returns default_rng(seed).permutation(n_bits)
and its inverse, and the frame pipeline keeps the pair, permuting coded
bits by the first and decoding by the second.

QamConstellation is the one owner of the Gray labeling: it builds the label
bits, per-axis level indices, axis levels, bit-to-axis and per-bit level
subset tables once, and the detector and zeta_min read those tables.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Feedforward rate-1/2 code, constraint length K = 7, octal tap masks 133, 171.
K = 7
GENERATORS = (0o133, 0o171)
N_STATES = 1 << (K - 1)
N_TAIL = K - 1      # zero bits that flush the register back to state 0
_CHUNK = 8          # trellis steps whose branch metrics are built at once

# _TAPS[i, k] = 1 where coded output i sees the input bit from k steps back;
# the block encoder and the trellis labels both read it.
_TAPS = (np.array(GENERATORS)[:, None] >> np.arange(K - 1, -1, -1)) & 1
_TAPS.setflags(write=False)


@lru_cache(maxsize=None)
def _labels():
    """The butterfly label table, the one table of the trellis.

    New state h*32 + j is reached from states 2j and 2j + 1 on input bit h
    (the input enters the register's MSB, so register bit p is the input
    from K - 1 - p steps back).  lab[p, h, j] = 2*c0 + c1 is the coded pair
    (c0, c1), as a 2-bit label, on the branch from 2j + p to h*32 + j.
    """
    p, h, j = np.ogrid[:2, :2, :N_STATES // 2]
    reg = (h << (K - 1)) | (2 * j + p)                          # the branch's register
    window = (reg[..., None] >> np.arange(K - 1, -1, -1)) & 1   # input k steps back
    lab = (window @ _TAPS.T % 2) @ np.array([2, 1])
    lab.setflags(write=False)
    return lab


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode every row along the last axis from the all-zero state.

    bits (..., n) of 0/1 values gives (..., 2n) coded bits, the two outputs
    of each step adjacent.  Tail bits that flush the register are the
    caller's responsibility.
    """
    b = np.asarray(bits, dtype=np.uint8)
    n = b.shape[-1]
    out = np.zeros((2,) + b.shape, dtype=np.uint8)
    for i, k in zip(*np.nonzero(_TAPS[:, :n])):        # one shifted XOR per tap
        out[i, ..., k:] ^= b[..., :n - k]
    return np.stack(tuple(out), axis=-1).reshape(b.shape[:-1] + (2 * n,))


def free_distance() -> int:
    """Minimum Hamming weight over nonzero paths leaving and rejoining state 0.

    The decoder's add-compare-select on branch weights, starting on the
    branch that leaves state 0 on input 1.  State 0 keeps the best merge,
    since its self-loop weighs 0, and the search stops once no other metric
    is below it.  The code is not catastrophic, so every other metric grows.
    """
    lab = _labels()
    weight = (lab >> 1) + (lab & 1)         # Hamming weight of each branch's pair
    half = N_STATES // 2
    pm = np.full(N_STATES, np.inf)
    pm[half] = weight[0, 1, 0]              # the branch from 0 to 32 on input 1
    while (pm[1:] < pm[0]).any():           # pm[2j + p] read as [p, j], as the decoder does
        pm = (pm.reshape(half, 2).T[:, None] + weight).min(axis=0).ravel()
    return int(pm[0])


def viterbi_decode_batch(metrics: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Decode a batch of frames of per-coded-bit metric pairs.

    metrics: (n_frames, 2*T, 2) with T > N_TAIL and metrics[f, order[k], v]
    the cost of coded bit k taking value v; +inf forbids a value.  order is
    an integer permutation of the 2*T rows (None: the identity), so a caller
    holding metrics in another order, such as interleaved, passes its store
    and the row of each coded bit instead of a reordered copy; each chunk of
    steps gathers only its own rows.  Paths start and end in state 0; ties
    prefer the lower predecessor state.  Returns (n_frames, T - N_TAIL)
    info bits.

    A NaN or -inf metric raises a ValueError.  No input check rules one
    out, since it would come from a floating-point fault upstream, and the
    add-compare-select's np.minimum would otherwise carry a NaN into the
    survivors silently.
    """
    # np.take gathers fast only from a C-ordered array (a store already is)
    m = np.ascontiguousarray(metrics, dtype=float)
    n_frames, twot, _ = m.shape
    steps = twot // 2
    rows = np.arange(twot) if order is None else np.asarray(order)
    rows = rows.reshape(steps, 2)       # the rows of each step's two coded bits
    if not (m > -np.inf).all():
        raise ValueError("metrics must not be NaN or -inf")
    lab = _labels()
    half = N_STATES // 2

    # Frames innermost.  pm_pairs[p, 0, j] aliases pm[2j + p] (the two
    # predecessors of states j and 32 + j), pm_next[h, j] aliases pm[32h + j].
    pm = np.full((N_STATES, n_frames), np.inf)
    pm[0] = 0.0
    pm_pairs = pm.reshape(half, 2, n_frames).transpose(1, 0, 2)[:, None]
    pm_next = pm.reshape(2, half, n_frames)
    cand = np.empty((2, 2, half, n_frames))
    cand0, cand1 = cand
    choice = np.empty((_CHUNK, N_STATES, n_frames), dtype=bool)
    choice_hj = choice.reshape(_CHUNK, 2, half, n_frames)
    packed = np.empty((steps, n_frames), dtype="<u8")
    for t0 in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - t0)
        # bm4[t, c, f] = m[f, order[2t], c >> 1] + m[f, order[2t + 1], c & 1]
        pair = np.take(m, rows[t0:t0 + n], axis=1).transpose(1, 2, 3, 0)  # (step, bit, value, f)
        bm4 = (pair[:, 0, :, None] + pair[:, 1, None, :]).reshape(n, 4, n_frames)
        blk = bm4[:, lab]
        for t in range(n):
            np.add(pm_pairs, blk[t], out=cand)
            np.less(cand1, cand0, out=choice_hj[t])
            np.minimum(cand0, cand1, out=pm_next)
        # bit s of packed[t, f] is the decision of state s: pack the last
        # axis of a contiguous (steps, frames, states) copy
        states_last = np.ascontiguousarray(choice[:n].transpose(0, 2, 1))
        packed[t0:t0 + n] = np.packbits(states_last, axis=-1, bitorder="little") \
            .view("<u8")[..., 0]
        del blk     # free before the next chunk's gather

    # the survivor's decision d_t at step t is its predecessor's low bit,
    # the input of step t - N_TAIL: bits[t - N_TAIL] = d_t
    bits = np.empty((steps - N_TAIL, n_frames), dtype=np.uint64)
    state = np.zeros(n_frames, dtype=np.uint64)
    for t in range(steps - 1, N_TAIL - 1, -1):
        d_t = bits[t - N_TAIL]
        np.right_shift(packed[t], state, out=d_t)
        np.bitwise_and(d_t, 1, out=d_t)
        np.left_shift(state, 1, out=state)
        np.bitwise_or(state, d_t, out=state)
        np.bitwise_and(state, N_STATES - 1, out=state)
    return bits.T.astype(np.uint8)


def interleaver(n_bits: int, seed: int):
    """(permutation, inverse) of the seeded bit interleaver over n_bits coded bits.

    Slot i carries coded bit permutation[i], so coded bit k sits in slot
    inverse[k].
    """
    permutation = np.random.default_rng(seed).permutation(n_bits)
    return permutation, np.argsort(permutation)


def bits_per_symbol(order: int) -> int:
    """Bits carried by one symbol of a supported square QAM order (4 or 16)."""
    if order not in (4, 16):
        raise ValueError("supported orders: 4, 16")
    return int(order).bit_length() - 1


class QamConstellation:
    """Square Gray-labeled QAM with unit average energy.

    The one owner of the labeling.  Labels are integers read MSB-first; the
    first half of the bits selects the in-phase level, the second half the
    quadrature level.  Per axis the Gray sequence 00, 01, 11, 10 maps to
    levels -3, -1, +1, +3 (16-QAM).  Read-only tables:

    - label_bits[label, j]: bit j of the label, MSB first;
    - axis_level[a, label]: index into levels of the label's I (a = 0) or
      Q (a = 1) coordinate;
    - levels: the sorted per-axis amplitudes, the same on both axes;
    - bit_axis[j]: the axis bit j addresses;
    - subset_indices[j, b]: the labels whose bit j equals b, ascending;
    - by_level: the labels ordered by (I level, Q level), so a per-label
      table taken in this order reshapes to (levels, levels);
    - level_subsets[j, b]: the levels, on axis bit_axis[j], of the labels
      whose bit j equals b, ascending (half the levels of that axis).
    """

    def __init__(self, order: int = 16):
        bps = self.bits_per_symbol = bits_per_symbol(order)
        self.order = order
        side = bps // 2
        self.label_bits = (np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
        self.bit_axis = np.arange(bps) // side
        # Gray to binary per axis: each binary bit is the XOR of the Gray bits up to it
        binary = np.bitwise_xor.accumulate(self.label_bits.reshape(order, 2, side), axis=-1)
        self.axis_level = (binary @ (1 << np.arange(side - 1, -1, -1))).T
        amps = 2 * np.arange(1 << side) - ((1 << side) - 1)     # -3,-1,1,3 or -1,1
        pts = amps[self.axis_level[0]] + 1j * amps[self.axis_level[1]]
        self.scale = float(np.sqrt(np.mean(np.abs(pts) ** 2)))
        self.points = pts / self.scale
        self.levels = amps / self.scale
        # a stable sort of each bit column lists the bit-0 labels, then the bit-1 labels
        self.subset_indices = np.argsort(self.label_bits.T, axis=-1, kind="stable") \
            .reshape(bps, 2, order // 2)
        self.by_level = np.lexsort(self.axis_level[::-1])
        # one label per level of each bit's axis (the other axis at level 0),
        # sorted into bit-0 levels, then bit-1 levels, as subset_indices is
        grid = self.by_level.reshape(1 << side, 1 << side)
        level_labels = np.stack([grid[:, 0], grid[0]])[self.bit_axis]
        level_bits = np.take_along_axis(self.label_bits.T, level_labels, axis=1)
        self.level_subsets = np.argsort(level_bits, axis=-1, kind="stable") \
            .reshape(bps, 2, 1 << (side - 1))
        for table in (self.label_bits, self.bit_axis, self.axis_level, self.points,
                      self.levels, self.subset_indices, self.by_level, self.level_subsets):
            table.setflags(write=False)

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized mapping of a bit stream to symbols (labels MSB-first).

        The bit count is a multiple of bits_per_symbol.
        """
        groups = np.asarray(bits).reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        labels = groups @ weights
        return self.points[labels]

    def grid(self, n: int) -> np.ndarray:
        """All K^n symbol n-vectors as columns of an (n, K^n) array.

        The last row's label varies fastest (row-major label order).
        """
        return self.points[np.indices((self.order,) * n).reshape(n, self.order ** n)]
