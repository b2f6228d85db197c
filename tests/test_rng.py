"""SplitMix64 reference behaviour and index sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim.rng import MASK64, SplitMix64, distinct_indices


def _reference_next(state: int) -> tuple[int, int]:
    """Independent state-passing transcription of the SplitMix64 recurrence."""
    state = (state + 0x9E3779B97F4A7C15) % 2**64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return state, z ^ (z >> 31)


# First output for seed 0 in every conforming implementation.
SEED0_FIRST_OUTPUT = 0xE220A8397B1DCDAF


def test_seed_initializes_state():
    assert SplitMix64(0).state == 0
    assert SplitMix64(42).state == 42
    assert SplitMix64(MASK64).state == MASK64


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SplitMix64(-1)


def test_seed0_first_output_matches_reference_constant():
    assert SplitMix64(0).next_u64() == SEED0_FIRST_OUTPUT


@pytest.mark.parametrize("seed", [0, 1, 42, 12345, MASK64])
def test_outputs_match_reference_implementation(seed):
    rng = SplitMix64(seed)
    state = seed
    for _ in range(100):
        state, expected = _reference_next(state)
        assert rng.next_u64() == expected


def test_same_seed_same_sequence():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


class _FixedOutput(SplitMix64):
    """Overrides the raw output to probe the uniform mapping edge cases."""

    def __init__(self, value):
        super().__init__(0)
        self._value = value

    def next_u64(self):
        return self._value


def test_uniform_mapping_edges():
    assert _FixedOutput(0).next_uniform() == 0.0
    top = _FixedOutput(MASK64).next_uniform()
    assert top == (2**53 - 1) * 2.0**-53
    assert top < 1.0


def test_first_uniform_seed0():
    expected = (SEED0_FIRST_OUTPUT >> 11) * 2.0**-53
    assert SplitMix64(0).next_uniform() == expected
    assert expected == 0.8833108082136426


def test_uniforms_stay_in_unit_interval():
    rng = SplitMix64(2024)
    for _ in range(10_000):
        u = rng.next_uniform()
        assert 0.0 <= u < 1.0


def test_uniform_mean_sanity():
    rng = SplitMix64(12345)
    n = 100_000
    mean = sum(rng.next_uniform() for _ in range(n)) / n
    assert abs(mean - 0.5) <= 0.01


def test_sample_full_draw_is_permutation():
    drawn = distinct_indices(5, SplitMix64(3).uniforms(5))
    assert sorted(drawn) == [0, 1, 2, 3, 4]


def test_sample_single_element():
    assert distinct_indices(1, SplitMix64(11).uniforms(1)) == [0]


def test_sample_golden_triple():
    # Frozen from the first run of the specified algorithm.
    assert distinct_indices(10, SplitMix64(7).uniforms(3)) == [3, 0, 9]


def test_sample_no_duplicates_exhaustive():
    rng = SplitMix64(99)
    for n in range(1, 101):
        for k in range(0, n + 1):
            drawn = distinct_indices(n, rng.uniforms(k))
            assert len(drawn) == k
            assert len(set(drawn)) == k
            assert all(0 <= idx < n for idx in drawn)


def test_sample_k_greater_than_n_rejected():
    with pytest.raises(ValueError):
        distinct_indices(3, SplitMix64(1).uniforms(4))


def test_sample_negative_arguments_rejected():
    with pytest.raises(ValueError):
        distinct_indices(-1, SplitMix64(1).uniforms(0))
    with pytest.raises(ValueError):
        distinct_indices(3, SplitMix64(1).uniforms(-1))


def _list_pop_sample(rng: SplitMix64, n: int, k: int) -> list[int]:
    """The original O(n) sampler: pop position int(u * len) from a candidate list."""
    candidates = list(range(n))
    return [candidates.pop(int(rng.next_uniform() * len(candidates))) for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, MASK64), n=st.integers(0, 300), data=st.data())
def test_sample_matches_list_pop_reference(seed, n, data):
    k = data.draw(st.integers(0, n))
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    assert distinct_indices(n, rng.uniforms(k)) == _list_pop_sample(reference, n, k)
    assert rng.state == reference.state


def test_sample_from_huge_population():
    drawn = distinct_indices(10**12, SplitMix64(5).uniforms(1000))
    assert len(set(drawn)) == 1000
    assert all(0 <= idx < 10**12 for idx in drawn)


_GAMMA = 0x9E3779B97F4A7C15

# Seeds a few gammas short of the 2**64 wrap, so the block's counters wrap
# mid-block, plus both ends of the state space.
WRAP_SEEDS = [(-m * _GAMMA + d) % 2**64 for m in (1, 2, 3) for d in (-1, 0, 1)] + [0, 42, MASK64]


@pytest.mark.parametrize("seed", WRAP_SEEDS)
@pytest.mark.parametrize("count", [0, 1, 5, 255, 256, 257])
def test_uniforms_block_equals_scalar_draws(seed, count):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    values = block.uniforms(count)
    assert isinstance(values, list)
    assert values == [scalar.next_uniform() for _ in range(count)]
    assert block.state == scalar.state
    assert block.next_u64() == scalar.next_u64()


def test_uniforms_negative_count_rejected():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.uniforms(-1)
    assert rng.state == 1
