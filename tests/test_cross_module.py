"""Cross-module consistency on long words, beyond the exhaustive ranges."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thuemorse import blocks, ktheory, trace, words

starts = st.integers(min_value=-3000, max_value=3000)
lengths = st.integers(min_value=2, max_value=220)


@given(starts, lengths)
@settings(max_examples=120, deadline=None)
def test_slice_decomposition_round_trip(start, length):
    w = words.tm_slice(start, start + length)
    n = blocks.choose_level(w)
    d = blocks.decompose(w, n)
    assert 2 <= len(d.blocks) <= 4
    assert blocks.recompose(d) == w
    c = blocks.complete_boundaries(d)
    assert 2 <= len(c.blocks) <= 6
    assert words.is_factor(blocks.recompose(c))


@given(starts, lengths)
@settings(max_examples=80, deadline=None)
def test_slice_trace_equals_k0_evaluation(start, length):
    w = words.tm_slice(start, start + length)
    assert ktheory.evaluate(ktheory.reduce_class(w)) == trace.trace_range(w)


@given(starts, lengths)
@settings(max_examples=60, deadline=None)
def test_slice_trace_is_block_pair_value(start, length):
    # every trace value is 1/(6 * 2^n) or 1/(3 * 2^n) for some n
    v = trace.trace_range(words.tm_slice(start, start + length))
    assert ktheory.is_dyadic_third(v)
    assert v.numerator == 1 or v == Fraction(1, 2)
    assert v.denominator % 3 == 0 or v == Fraction(1, 2)


def test_occurrence_parity_matches_grid_phase():
    # a factor with at least two full level-1 blocks occurs only at
    # positions whose parity matches its unique grid alignment
    for w in words.factors_of_length(9):
        d = blocks.decompose(w, 1)
        phase = len(d.gamma0)
        for i in words.occurrences(w, 0, 4096):
            assert (i + phase) % 2 == 0


def test_long_two_block_words():
    # deep block pairs keep the closed-form values
    for n in (5, 6, 7):
        same = words.block(1, n) + words.block(1, n)
        mixed = words.block(1, n) + words.block(0, n)
        assert trace.trace_range(same) == Fraction(1, 6 * 2 ** n)
        assert ktheory.evaluate(ktheory.reduce_class(mixed)) == Fraction(1, 3 * 2 ** n)
        assert blocks.choose_level(same) == n


def test_million_letter_factor():
    # the block route is O(|w|): a factor of 10^6 letters at a negative
    # offset gets its exact trace and K0 class in about a second
    w = words.tm_slice(-300001, 10 ** 6 - 300001)
    value = trace.trace_range(w)
    assert value == ktheory.evaluate(ktheory.reduce_class(w))
    assert value == Fraction(1, 3 * 2 ** 20)
    assert words._short_descent.cache_info().currsize <= words._short_descent.cache_info().maxsize
