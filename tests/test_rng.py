import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import rng


def test_streams_are_deterministic():
    a = rng.uniforms(12345, 64)
    b = rng.uniforms(12345, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng.uniforms(12346, 64))


def test_seed_zero_is_valid_and_nondegenerate():
    u = rng.uniforms(0, 1000)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert u.std() > 0.2


def test_per_seed_rows_match_scalar_streams():
    seeds = rng.trial_seeds(900, 5)
    rows = rng.uniforms_for_seeds(seeds, 7)
    for i, s in enumerate(seeds):
        assert np.array_equal(rows[i], rng.uniforms(int(s), 7))


def test_trial_seeds_offset_matches_slicing():
    # sharding contract: trials [o, o+k) of a run are seeds base+o .. base+o+k-1
    full = rng.trial_seeds(42, 10)
    shard = rng.trial_seeds(42, 4, offset=6)
    assert np.array_equal(full[6:], shard)


def test_uniform_chi_squared():
    # 16 equal bins at n=1e5; 37.697 is the 99.9% point of chi2(15)
    u = rng.uniforms(2024, 100_000)
    counts = np.bincount((u * 16).astype(int), minlength=16)
    expected = 100_000 / 16
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < 37.697


def test_normals_moments():
    z = rng.normals_for_seeds([77], 200_000)[0]
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normals_rows_are_independent_streams():
    z = rng.normals_for_seeds([5, 6], 4)
    assert z.shape == (2, 4)
    assert not np.allclose(z[0], z[1])
    assert np.array_equal(z[0], rng.normals_for_seeds([5], 4)[0])


def test_negative_and_huge_seeds_wrap():
    assert rng.uniform(-1) == rng.uniform((1 << 64) - 1)


# -- scalar form of the stream ---------------------------------------------------

_SEEDS = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(np.int64),
    st.integers(min_value=0, max_value=(1 << 64) - 1).map(np.uint64),
    st.sampled_from([0, -1, (1 << 64) - 3, (1 << 64) - 1, 1 << 64, -(1 << 64)]),
)


@settings(max_examples=500, deadline=None)
@given(_SEEDS)
def test_scalar_uniform_is_the_first_draw_of_the_stream(seed):
    assert rng.uniform(seed).hex() == float(rng.uniforms(int(seed), 1)[0]).hex()


def test_float_seeds_are_refused():
    for seed in (1.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            rng.uniform(seed)
