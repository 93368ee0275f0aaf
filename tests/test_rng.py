import math

import numpy as np
import pytest

from rtcdenoise import NoiseRng
from rtcdenoise.frame import ELEMENTWISE_PIXELS

MASK = (1 << 64) - 1


def splitmix64_reference(seed: int, n: int):
    """Pure-int transcription of the published splitmix64 algorithm."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_published_reference_vector():
    # first outputs of splitmix64 seeded with 0, widely published
    assert int(NoiseRng(0).raw(1)[0]) == 0xE220A8397B1DCDAF
    assert [int(v) for v in NoiseRng(0).raw(4)] == splitmix64_reference(0, 4)


@pytest.mark.parametrize("seed", [1, 42, 2**63, MASK])
def test_matches_reference_for_other_seeds(seed):
    assert [int(v) for v in NoiseRng(seed).raw(8)] == splitmix64_reference(seed, 8)


def test_stream_is_counter_based_and_stateless():
    rng = NoiseRng(7)
    first_three = rng.raw(3)
    rng2 = NoiseRng(7)
    a = rng2.raw(2)
    b = rng2.raw(1)
    assert list(first_three) == list(a) + list(b)
    # drawing did not disturb an independent instance
    assert list(NoiseRng(7).raw(3)) == list(first_three)


def test_uniforms_range_and_determinism():
    u = NoiseRng(3).uniforms(10_000)
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, NoiseRng(3).uniforms(10_000))


def test_uniforms_are_53_bit_fractions():
    raw = NoiseRng(99).raw(64)
    expected = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(NoiseRng(99).uniforms(64), expected)


def test_normals_match_box_muller_formula():
    rng = NoiseRng(11)
    n = 6
    u = NoiseRng(11).uniforms(2 * n)
    u1, u2 = u[:n], u[n:]
    expected = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    assert np.array_equal(rng.normals(n), expected)


def test_normal_runs_piece_together_normals():
    rng = NoiseRng(11, counter=3)
    runs = [rng.normal_run(10, c0, c1) for c0, c1 in ((0, 4), (4, 5), (5, 10))]
    assert rng.counter == 3
    assert np.array_equal(np.concatenate(runs), NoiseRng(11, counter=3).normals(10))


def test_normal_runs_equal_the_docstring_formula_across_chunk_seams():
    seed, counter, n = MASK - 4, 9, 3 * ELEMENTWISE_PIXELS

    def uniforms(draws):
        # mix64(s + (i + 1) * golden), all mod 2**64; its top 53 bits
        z = np.uint64(seed) + (draws + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    draws = np.arange(counter, counter + n, dtype=np.uint64)
    u1, u2 = uniforms(draws), uniforms(draws + np.uint64(n))
    expected = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    rng = NoiseRng(seed, counter)
    seam = ELEMENTWISE_PIXELS
    for c0, c1 in ((seam - 100, seam + 50), (seam + 50, 2 * seam + 1)):
        assert np.array_equal(rng.normal_run(n, c0, c1), expected[c0:c1])


def test_normals_moments():
    z = NoiseRng(5).normals(200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_derive_gives_decorrelated_reproducible_streams():
    base = NoiseRng(123)
    a_first = list(base.derive(1).raw(4))
    b_first = list(base.derive(2).raw(4))
    assert a_first != b_first
    # a fresh derivation of the same tag replays the same stream
    assert list(base.derive(1).raw(4)) == a_first
    # deriving does not consume from the parent
    assert list(base.raw(2)) == list(NoiseRng(123).raw(2))


def test_derive_nested_tags_distinct():
    base = NoiseRng(0)
    seen = {int(base.derive(i).derive(j).seed) for i in range(3) for j in range(3)}
    assert len(seen) == 9


def test_large_counts_and_zero():
    rng = NoiseRng(1)
    assert rng.uniforms(0).shape == (0,)
    assert rng.normals(0).shape == (0,)
    assert len(rng.raw(100_000)) == 100_000


def test_normals_finite():
    z = NoiseRng(8).normals(100_000)
    assert np.all(np.isfinite(z))
    assert math.isfinite(float(z.max()))
