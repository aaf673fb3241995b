import itertools
import tracemalloc

import numpy as np
import pytest

from bicmb_pc.fec import (
    K,
    N_STATES,
    N_TAIL,
    QamConstellation,
    bits_per_symbol,
    conv_encode,
    free_distance,
    interleaver,
    viterbi_decode_batch,
    _labels,
)
from oracles import conv_encode_reference


def _encode_frame(info_bits):
    padded = np.concatenate([info_bits, np.zeros(N_TAIL, dtype=np.uint8)])
    return conv_encode(padded)


def _decode(metrics):
    """One frame through the batch decoder."""
    return viterbi_decode_batch(metrics[None])[0]


def reference_trellis_outputs():
    """out0[s, b], out1[s, b]: the coded pair leaving state s on input b.

    Read off the reference encoder's last pair on each register history,
    so no table of the package's decoder is used.
    """
    reg = (np.arange(2) << (K - 1)) | np.arange(N_STATES)[:, None]     # reg[s, b]
    history = (reg[..., None] >> np.arange(K)) & 1       # oldest bit first
    last = np.array([[conv_encode_reference(h)[-2:] for h in row] for row in history])
    return last[..., 0], last[..., 1]


def reference_viterbi(metrics):
    """Per-step decoder on a (frames, states) layout: the bit-identity oracle.

    Gathers each state's two predecessors and branch metrics every step and
    keeps the full (steps, frames, states) decision array for the traceback.
    """
    out0, out1 = reference_trellis_outputs()
    n = N_STATES
    states = np.arange(n)
    pred0 = 2 * (states & (n // 2 - 1))
    pred1 = pred0 + 1
    bsel = states >> (K - 2)
    m = np.asarray(metrics, dtype=float)
    n_frames, twot, _ = m.shape
    steps = twot // 2

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


def _hard_metrics(coded, flips=None, rng=None):
    """Unit-cost metric pairs from (possibly corrupted) hard bits."""
    received = coded.copy()
    if flips is not None:
        received[flips] ^= 1
    m = np.zeros((coded.size, 2))
    m[np.arange(coded.size), 1 - received] = 1.0
    return m


def test_impulse_responses():
    out = conv_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    assert list(out[0::2]) == [1, 0, 1, 1, 0, 1, 1]
    assert list(out[1::2]) == [1, 1, 1, 1, 0, 0, 1]


def test_encode_zero_input():
    out = conv_encode(np.zeros(40, dtype=np.uint8))
    assert out.shape == (80,)
    assert not out.any()


def test_block_encoder_matches_reference():
    rng = np.random.default_rng(23)
    for shape in ((64, 1030), (3, 5, 40), (2, 4), (50,)):
        block = rng.integers(0, 2, shape)
        got = conv_encode(block)
        assert got.shape == shape[:-1] + (2 * shape[-1],) and got.dtype == np.uint8
        rows, ref_rows = got.reshape(-1, got.shape[-1]), block.reshape(-1, shape[-1])
        for row, bits in zip(rows, ref_rows):
            assert np.array_equal(row, conv_encode_reference(bits))


def test_trellis_outputs_are_the_encoders_last_pair():
    """Each butterfly label is the reference encoder's last pair on its register history."""
    out0, out1 = reference_trellis_outputs()
    pred = 2 * np.arange(N_STATES // 2)
    for p, h in itertools.product(range(2), range(2)):  # branches 2j + p -> 32h + j
        assert np.array_equal(_labels()[p, h], 2 * out0[pred + p, h] + out1[pred + p, h])


def test_encode_is_linear_over_gf2():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, 120).astype(np.uint8)
    b = rng.integers(0, 2, 120).astype(np.uint8)
    assert np.array_equal(conv_encode(a ^ b), conv_encode(a) ^ conv_encode(b))


def test_free_distance_is_ten():
    assert free_distance() == 10


def test_free_distance_is_the_lightest_short_terminated_codeword():
    # every input of up to 12 bits that starts with 1 and ends with the tail
    weights = []
    for free in range(6):
        words = (np.arange(1 << free)[:, None] >> np.arange(free)) & 1
        inputs = np.hstack([np.ones((words.shape[0], 1), dtype=np.int64), words,
                            np.zeros((words.shape[0], N_TAIL), dtype=np.int64)])
        weights.append(conv_encode(inputs).sum(axis=1).min())
    assert min(weights) == free_distance() == 10


def test_viterbi_recovers_clean_frames():
    rng = np.random.default_rng(3)
    for _ in range(5):
        info = rng.integers(0, 2, 200).astype(np.uint8)
        coded = _encode_frame(info)
        decoded = _decode(_hard_metrics(coded))
        assert np.array_equal(decoded, info)


def test_viterbi_corrects_sparse_errors():
    # d_free = 10, so four well-separated flips must be corrected
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, 300).astype(np.uint8)
    coded = _encode_frame(info)
    flips = np.array([10, 150, 320, 500])
    decoded = _decode(_hard_metrics(coded, flips=flips))
    assert np.array_equal(decoded, info)


def test_viterbi_all_tied_metrics_is_deterministic_zero_path():
    m = np.zeros((120, 2))
    d1 = _decode(m)
    d2 = _decode(m)
    assert np.array_equal(d1, d2)
    assert not d1.any()


def test_viterbi_matches_exhaustive_search():
    # every 9-bit info word, random soft metrics, compare achieved path cost
    rng = np.random.default_rng(7)
    n_info = 9
    words = ((np.arange(1 << n_info)[:, None] >> np.arange(n_info)) & 1).astype(np.uint8)
    codebook = np.stack([_encode_frame(w) for w in words])
    for _ in range(20):
        metrics = rng.uniform(0.0, 1.0, size=(2 * (n_info + 6), 2))
        costs = metrics[np.arange(codebook.shape[1]), codebook].sum(axis=1)
        best = costs.min()
        decoded = _decode(metrics)
        achieved = metrics[np.arange(codebook.shape[1]), _encode_frame(decoded)].sum()
        assert achieved == pytest.approx(best, abs=1e-9)


def test_viterbi_batch_matches_single():
    rng = np.random.default_rng(13)
    metrics = rng.uniform(size=(6, 2 * 80, 2))
    batch = viterbi_decode_batch(metrics)
    for f in range(6):
        assert np.array_equal(batch[f], _decode(metrics[f]))


@pytest.mark.parametrize("n_frames, steps, kind", [
    (4, 80, "soft"),
    (4, 80, "integer"),
    (4, 80, "inf"),
    (1, 43, "soft"),
    (1, 43, "integer"),
    (3, 43, "integer"),
    (3, 43, "inf"),
    (64, 1030, "soft"),
    (4, 80, "order"),
    (3, 43, "order"),
])
def test_viterbi_matches_reference(n_frames, steps, kind):
    # 43 and 1030 steps are not whole multiples of the branch-metric chunk
    rng = np.random.default_rng([17, n_frames, steps])
    if kind in ("integer", "order"):    # ties between survivors are frequent
        m = rng.integers(0, 3, size=(n_frames, 2 * steps, 2)).astype(float)
    else:
        m = rng.uniform(size=(n_frames, 2 * steps, 2))
    if kind in ("inf", "order"):        # forbidden values, some bits with both forbidden
        m[rng.uniform(size=m.shape) < 0.1] = np.inf
    if kind == "order":         # coded bit k is read from row order[k]
        order = rng.permutation(2 * steps)
        got, expected = viterbi_decode_batch(m, order), reference_viterbi(m[:, order])
    else:
        got, expected = viterbi_decode_batch(m), reference_viterbi(m)
    assert got.shape == (n_frames, steps - N_TAIL)
    assert np.array_equal(got, expected)


def test_viterbi_reads_rows_in_the_given_order():
    m = np.zeros((2, 40, 2))
    rows = np.arange(40)
    assert np.array_equal(viterbi_decode_batch(m, rows[::-1]), viterbi_decode_batch(m))


def test_viterbi_rejects_nan_and_minus_inf():
    for bad in (np.nan, -np.inf):
        m = np.zeros((1, 40, 2))
        m[0, 17, 1] = bad
        with pytest.raises(ValueError, match="NaN or -inf"):
            viterbi_decode_batch(m)
    m = np.zeros((1, 40, 2))
    m[0, 17, 1] = np.inf        # +inf is a legal forbidden-branch cost
    assert not viterbi_decode_batch(m).any()


def test_viterbi_memory_is_bounded():
    m = np.random.default_rng(19).uniform(size=(64, 2048, 2))
    viterbi_decode_batch(m[:1, :40])         # build the cached code tables
    tracemalloc.start()
    try:
        viterbi_decode_batch(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_interleaver_round_trip():
    perm, inverse = interleaver(512, seed=42)
    bits = np.random.default_rng(0).integers(0, 2, 512).astype(np.uint8)
    assert np.array_equal(bits[perm][inverse], bits)
    assert np.array_equal(bits[inverse][perm], bits)
    # whole metric rows travel together: coded bit k's row is row inverse[k]
    rows = np.arange(1024, dtype=float).reshape(512, 2)
    assert np.array_equal(rows[perm][inverse], rows)


def test_interleaver_deterministic_and_seed_dependent():
    perm, inverse = interleaver(256, seed=1)
    again, _ = interleaver(256, seed=1)
    other, _ = interleaver(256, seed=2)
    assert np.array_equal(perm, again)
    assert not np.array_equal(perm, other)
    # the rule the pinned counts rest on: the seeded generator's permutation
    assert np.array_equal(perm, np.random.default_rng(1).permutation(256))
    assert sorted(perm) == list(range(256))
    assert np.array_equal(inverse, np.argsort(perm))


def test_qam16_unit_energy_and_distinct_points():
    c = QamConstellation(16)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert len({(round(p.real, 9), round(p.imag, 9)) for p in c.points}) == 16


def test_qam16_gray_neighbors_differ_in_one_bit():
    c = QamConstellation(16)
    d_min = 2.0 / np.sqrt(10.0)
    for a in range(16):
        for b in range(a + 1, 16):
            if abs(c.points[a] - c.points[b]) < d_min * 1.001:
                assert bin(a ^ b).count("1") == 1


def qam_map(c, bit_group):
    """Scalar reference mapping of one symbol's bits (MSB first) to a point."""
    label = 0
    for b in np.asarray(bit_group).ravel():
        label = (label << 1) | int(b)
    return complex(c.points[label])


def test_qam16_axis_levels():
    c = QamConstellation(16)
    # first two bits set I, Gray order 00,01,11,10 over -3,-1,+1,+3
    s = np.sqrt(10.0)
    assert qam_map(c, [0, 0, 0, 0]).real * s == pytest.approx(-3)
    assert qam_map(c, [0, 1, 0, 0]).real * s == pytest.approx(-1)
    assert qam_map(c, [1, 1, 0, 0]).real * s == pytest.approx(+1)
    assert qam_map(c, [1, 0, 0, 0]).real * s == pytest.approx(+3)
    assert qam_map(c, [0, 0, 1, 0]).imag * s == pytest.approx(+3)
    assert qam_map(c, [0, 0, 1, 1]).imag * s == pytest.approx(+1)


def test_qam_bit_label_round_trip():
    c = QamConstellation(16)
    for label in range(16):
        assert qam_map(c, c.label_bits[label]) == pytest.approx(c.points[label])


@pytest.mark.parametrize("order", [4, 16])
def test_label_tables_agree_with_points(order):
    c = QamConstellation(order)
    bps = c.bits_per_symbol
    assert np.all(np.diff(c.levels) > 0)
    assert np.array_equal(c.levels[c.axis_level[0]], c.points.real)
    assert np.array_equal(c.levels[c.axis_level[1]], c.points.imag)
    assert c.bit_axis.tolist() == [0] * (bps // 2) + [1] * (bps // 2)
    for label in range(order):
        for j in range(bps):
            flipped = label ^ (1 << (bps - 1 - j))
            ax = c.bit_axis[j]
            # a bit moves its own axis's level and leaves the other axis alone
            assert c.axis_level[ax, flipped] != c.axis_level[ax, label]
            assert c.axis_level[1 - ax, flipped] == c.axis_level[1 - ax, label]
    n_levels = c.levels.size
    grid = c.axis_level[:, c.by_level].reshape(2, n_levels, n_levels)
    assert np.array_equal(grid[0], np.repeat(np.arange(n_levels)[:, None], n_levels, 1))
    assert np.array_equal(grid[1], grid[0].T)
    for j in range(bps):
        for b in (0, 1):
            levels = c.axis_level[c.bit_axis[j], c.subset_indices[j, b]]
            assert c.level_subsets[j, b].tolist() == sorted(set(levels.tolist()))
            assert c.level_subsets[j, b].size == n_levels // 2
    for table in (c.label_bits, c.axis_level, c.levels, c.bit_axis, c.points,
                  c.subset_indices, c.by_level, c.level_subsets):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_qam_subsets_partition_labels():
    c = QamConstellation(16)
    for j in range(4):
        s0 = set(c.subset_indices[j, 0].tolist())
        s1 = set(c.subset_indices[j, 1].tolist())
        assert len(s0) == len(s1) == 8
        assert s0 | s1 == set(range(16))
        assert not s0 & s1
        for label in s1:
            assert c.label_bits[label, j] == 1


def test_qam_map_bits_vectorized_matches_scalar():
    c = QamConstellation(16)
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2, 4 * 50)
    syms = c.map_bits(bits)
    for s in range(50):
        assert syms[s] == pytest.approx(qam_map(c, bits[4 * s : 4 * s + 4]))


def test_grid_lists_label_vectors_last_fastest():
    for order, n in ((4, 0), (4, 1), (4, 3), (16, 2)):
        c = QamConstellation(order)
        grid = c.grid(n)
        assert grid.shape == (n, order ** n)
        for col, labels in enumerate(itertools.product(range(order), repeat=n)):
            assert np.array_equal(grid[:, col], c.points[list(labels)])


def test_qpsk_supported():
    c = QamConstellation(4)
    assert c.bits_per_symbol == 2
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert qam_map(c, [0, 0]) == pytest.approx((-1 - 1j) / np.sqrt(2))
    assert qam_map(c, [1, 1]) == pytest.approx((1 + 1j) / np.sqrt(2))


def test_qam_rejects_unsupported_order():
    with pytest.raises(ValueError):
        QamConstellation(64)
    assert (bits_per_symbol(4), bits_per_symbol(16)) == (2, 4)
    for order in (2, 8, 64):
        with pytest.raises(ValueError):
            bits_per_symbol(order)
