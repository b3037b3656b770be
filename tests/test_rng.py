"""Block draws of `SplitMix64` against the scalar generator they replace.

The scalar stream (`uniform`, `normal`, `complex_normal`) and the random
pure states and unitaries that other tests draw live here, not in
`qfamily.rng`: no verb uses them.
"""

import math

import numpy as np
import pytest

from qfamily.rng import SplitMix64, random_density

DIMS = (1, 2, 3, 4, 5, 9, 16)


def uniform(rng: SplitMix64) -> float:
    """Uniform in [0, 1) with 53 bits of precision."""
    return (rng.next_u64() >> 11) * (1.0 / (1 << 53))


def normal(rng: SplitMix64) -> float:
    """Standard normal deviate via the polar method, one pair at a time:
    the scalar stream `SplitMix64.normals` reproduces."""
    if rng._spare is not None:
        value, rng._spare = rng._spare, None
        return value
    while True:
        u = 2.0 * uniform(rng) - 1.0
        v = 2.0 * uniform(rng) - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            factor = math.sqrt(-2.0 * math.log(s) / s)
            rng._spare = v * factor
            return u * factor


def complex_normal(rng: SplitMix64) -> complex:
    return complex(normal(rng), normal(rng))


def random_pure(rng: SplitMix64, dim: int) -> np.ndarray:
    """Haar-like random pure state vector (normalized complex Gaussian)."""
    v = rng.complex_matrix(1, dim)[0]
    return v / np.linalg.norm(v)


def random_unitary(rng: SplitMix64, dim: int) -> np.ndarray:
    """Random unitary from the QR decomposition of a complex Gaussian."""
    q, r = np.linalg.qr(rng.complex_matrix(dim, dim))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def scalar_complex_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """Reference: one `complex_normal` per entry, row-major."""
    out = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = complex_normal(rng)
    return out


def twin_generators(seed: int, pending_spare: bool) -> tuple[SplitMix64, SplitMix64]:
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    if pending_spare:
        normal(scalar)
        normal(block)
        assert block._spare is not None
    return scalar, block


def assert_same_stream(scalar: SplitMix64, block: SplitMix64, expected, got):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert block.state == scalar.state
    assert block._spare == scalar._spare


@pytest.mark.parametrize("pending_spare", [False, True], ids=["no-spare", "spare"])
def test_complex_matrix_reproduces_the_scalar_stream(pending_spare):
    for seed in range(300):
        for dim in DIMS:
            scalar, block = twin_generators(seed, pending_spare)
            expected = scalar_complex_matrix(scalar, dim, dim)
            assert_same_stream(scalar, block, expected, block.complex_matrix(dim, dim))


@pytest.mark.parametrize("pending_spare", [False, True], ids=["no-spare", "spare"])
def test_normals_of_any_count_reproduce_the_scalar_stream(pending_spare):
    for seed in range(40):
        for count in (0, 1, 2, 3, 7, 30, 31):
            scalar, block = twin_generators(seed, pending_spare)
            expected = [normal(scalar) for _ in range(count)]
            assert_same_stream(scalar, block, expected, block.normals(count))


def test_rectangular_matrix_and_later_draws_follow_the_scalar_stream():
    for seed in range(50):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        expected = scalar_complex_matrix(scalar, 3, 5)
        assert_same_stream(scalar, block, expected, block.complex_matrix(3, 5))
        assert [uniform(block), block.randint(2, 4), normal(block)] == [
            uniform(scalar), scalar.randint(2, 4), normal(scalar)]


def test_random_density_is_built_from_the_scalar_stream():
    for seed in range(20):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        g = scalar_complex_matrix(scalar, 4, 4)
        rho = g @ g.conj().T
        assert random_density(block, 4).tobytes() == (rho / np.trace(rho).real).tobytes()


@pytest.mark.parametrize("pending_spare", [False, True], ids=["no-spare", "spare"])
def test_random_pure_is_built_from_the_scalar_stream(pending_spare):
    for seed in range(100):
        for dim in DIMS:
            scalar, block = twin_generators(seed, pending_spare)
            v = np.array([complex_normal(scalar) for _ in range(dim)])
            assert_same_stream(scalar, block, v / np.linalg.norm(v), random_pure(block, dim))
