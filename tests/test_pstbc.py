import numpy as np
import pytest

from bicmb_pc import pstbc
from oracles import encode_batch_reference


ALL_DIMS = pstbc.SUPPORTED_DIMS


def layer_of_entry(u, c, params):
    """Layer v (1-based) and wrap weight of codeword entry (u, c), 0-based.

    Entry (u, c) of Z equals weight * (G x_v)_u with weight = g on wrapped
    diagonals (c < u) and 1 otherwise.
    """
    return (c - u) % params.dim + 1, params.g if c < u else 1.0


@pytest.mark.parametrize("d", ALL_DIMS)
def test_generator_unitary(d):
    p = pstbc.build_params(d)
    err = np.abs(p.generator @ p.generator.conj().T - np.eye(d)).max()
    assert err < 1e-12


@pytest.mark.parametrize("d", ALL_DIMS)
def test_shift_matrix_structure(d):
    p = pstbc.build_params(d)
    e = p.shift
    for i in range(d - 1):
        assert e[i, i + 1] == 1.0
    assert e[d - 1, 0] == p.g
    assert np.count_nonzero(e) == d
    err = np.abs(np.linalg.matrix_power(e, d) - p.g * np.eye(d)).max()
    assert err < 1e-12


def test_corner_units():
    assert pstbc.build_params(2).g == 1j
    assert pstbc.build_params(4).g == 1j
    assert abs(pstbc.build_params(3).g - np.exp(2j * np.pi / 3)) < 1e-15
    assert abs(pstbc.build_params(6).g + np.exp(2j * np.pi / 3)) < 1e-15


def test_unsupported_dim():
    with pytest.raises(ValueError):
        pstbc.build_params(5)


def test_encode_zero_inputs():
    p = pstbc.build_params(2)
    z = pstbc.encode_batch(p, np.zeros((2, 2)))
    assert z.shape == (2, 2)
    assert np.all(z == 0)


def test_encode_single_vector_is_diagonal():
    p = pstbc.build_params(2)
    x1 = np.array([1 + 1j, -0.5 + 0.25j])
    inputs = np.vstack([x1, np.zeros(2)])
    z = pstbc.encode_batch(p, inputs)
    assert np.abs(z - np.diag(p.generator @ x1)).max() < 1e-14


@pytest.mark.parametrize("d", ALL_DIMS)
def test_entry_layer_rule_matches_matrix_sum(d):
    # closed-form position rule against the literal sum over shift powers
    rng = np.random.default_rng(1000 + d)
    p = pstbc.build_params(d)
    for _ in range(10):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z = pstbc.encode_batch(p, x)
        rotated = x @ p.generator.T
        for u in range(d):
            for c in range(d):
                v, w = layer_of_entry(u, c, p)
                assert abs(z[u, c] - w * rotated[v - 1, u]) < 1e-12


@pytest.mark.parametrize("d", ALL_DIMS)
def test_each_entry_in_exactly_one_layer(d):
    p = pstbc.build_params(d)
    seen = {}
    for u in range(d):
        for c in range(d):
            v, _ = layer_of_entry(u, c, p)
            seen.setdefault(v, []).append((u, c))
    assert sorted(seen) == list(range(1, d + 1))
    for v, cells in seen.items():
        assert len(cells) == d


@pytest.mark.parametrize("d", ALL_DIMS)
def test_energy_preservation(d):
    rng = np.random.default_rng(2000 + d)
    p = pstbc.build_params(d)
    for _ in range(50):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z = pstbc.encode_batch(p, x)
        assert abs(np.linalg.norm(z) ** 2 - np.linalg.norm(x) ** 2) < 1e-10


@pytest.mark.parametrize("d", ALL_DIMS)
def test_perturbing_one_vector_touches_d_entries(d):
    rng = np.random.default_rng(3000 + d)
    p = pstbc.build_params(d)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z0 = pstbc.encode_batch(p, x)
    v = rng.integers(d)
    x2 = x.copy()
    x2[v] += rng.normal(size=d) + 1j * rng.normal(size=d)
    z1 = pstbc.encode_batch(p, x2)
    changed = np.abs(z1 - z0) > 1e-12
    assert changed.sum() == d


def test_layout_table_is_the_nonzero_pattern_of_shift_powers():
    # row u of E^v holds one nonzero entry, weights[v, u] at column cols[v, u]
    for d in ALL_DIMS:
        p = pstbc.build_params(d)
        cols, weights = p.cols, p.weights
        for v in range(d):
            power = np.linalg.matrix_power(p.shift, v)
            rows, nonzero_cols = np.nonzero(power)
            assert rows.tolist() == list(range(d))
            assert np.array_equal(nonzero_cols, cols[v])
            assert np.abs(power[rows, nonzero_cols] - weights[v]).max() < 1e-15


def test_omega_matrix_identities():
    # Omega_v = diag(weights[v - 1]): identity for the first layer,
    # diag(1, g, ..., g) for the last
    for d in ALL_DIMS:
        p = pstbc.build_params(d)
        weights = p.weights
        assert np.array_equal(weights[0], np.ones(d))
        assert np.abs(weights[-1] - ([1.0] + [p.g] * (d - 1))).max() < 1e-15


@pytest.mark.parametrize("d", ALL_DIMS)
def test_layer_extraction_matches_omega_form(d):
    # rows of Lambda Z picked along twisted diagonals == Omega_v Lambda G x_v
    rng = np.random.default_rng(4000 + d)
    p = pstbc.build_params(d)
    lam = np.sort(rng.uniform(0.5, 3.0, size=d))[::-1]
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lz = np.diag(lam) @ pstbc.encode_batch(p, x)
    for v in range(1, d + 1):
        picked = np.array([lz[u, (u + v - 1) % d] for u in range(d)])
        # rows whose diagonal wraps past the last column pick up g
        wrap = np.where(np.arange(d) + v - 1 >= d, p.g, 1.0)
        expect = wrap * lam * (p.generator @ x[v - 1])
        assert np.abs(picked - expect).max() < 1e-12


def test_encode_batch_matches_single():
    # every block of a stack equals the literal sum_v diag(G x_v) E^(v-1)
    rng = np.random.default_rng(61)
    for d in (2, 3, 4):
        params = pstbc.build_params(d)
        x = rng.standard_normal((2, 5, d, d)) + 1j * rng.standard_normal((2, 5, d, d))
        batch = pstbc.encode_batch(params, x)
        assert batch.shape == x.shape
        for i, j in np.ndindex(2, 5):
            literal = sum(np.diag(params.generator @ x[i, j, v])
                          @ np.linalg.matrix_power(params.shift, v) for v in range(d))
            assert np.allclose(batch[i, j], literal, atol=1e-14)
            assert np.allclose(batch[i, j], pstbc.encode_batch(params, x[i, j]),
                               atol=1e-14)


def shift_power_encode(params, x):
    """Reference encoder: sum_v diag(G x_v) E^v with dense shift powers."""
    d = params.dim
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ params.shift)
    rotated = x @ params.generator.T
    z = np.zeros_like(x)
    for v in range(d):
        z += rotated[..., v, :, None] * powers[v]
    return z


@pytest.mark.parametrize("d", ALL_DIMS)
def test_encode_batch_is_bit_identical_to_per_layer_placement(d):
    rng = np.random.default_rng(80 + d)
    params = pstbc.build_params(d)
    x = rng.standard_normal((64, 30, d, d)) + 1j * rng.standard_normal((64, 30, d, d))
    assert np.array_equal(pstbc.encode_batch(params, x), encode_batch_reference(params, x))
    assert np.array_equal(pstbc.encode_batch(params, x[3, 4]),
                          encode_batch_reference(params, x[3, 4]))


@pytest.mark.parametrize("d", ALL_DIMS)
def test_encode_batch_is_bit_identical_to_shift_power_sum(d):
    rng = np.random.default_rng(70 + d)
    params = pstbc.build_params(d)
    x = rng.standard_normal((64, 30, d, d)) + 1j * rng.standard_normal((64, 30, d, d))
    assert np.array_equal(pstbc.encode_batch(params, x), shift_power_encode(params, x))
