from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thuemorse import blocks, ktheory, repwindow, trace, words
from thuemorse.errors import NotAFactorError, ResourceLimitError
from reference import letters, scan

SIXTH = Fraction(1, 6)
THIRD = Fraction(1, 3)


def test_length_three_values():
    for w in words.factors_of_length(3):
        assert trace.trace_range(w) == SIXTH


def test_length_one_two_values():
    assert trace.trace_range("0") == Fraction(1, 2)
    assert trace.trace_range("1") == Fraction(1, 2)
    assert trace.trace_range("00") == SIXTH
    assert trace.trace_range("11") == SIXTH
    assert trace.trace_range("01") == THIRD
    assert trace.trace_range("10") == THIRD


def test_long_word_collapses_to_block_pair_value():
    # the 22-letter word starting at position 10 completes to a pair of
    # level-3 blocks, value 1/(6 * 2^3)
    assert trace.trace_range(words.tm_slice(10, 32)) == Fraction(1, 48)


def test_peeling_example():
    assert trace.trace_range("0110") == SIXTH
    assert trace.trace_range("1001") == SIXTH
    assert trace.trace_range("0011") == Fraction(1, 12)


def test_not_a_factor():
    with pytest.raises(NotAFactorError):
        trace.trace_range("100100")


def test_family_examples():
    assert trace.trace_family(["00", "01"]) == Fraction(1, 2)
    assert trace.trace_family(["00", "10"]) == Fraction(1, 2)
    assert trace.trace_family(["0110"]) == trace.trace_range("0110")
    assert trace.trace_family(words.factors_of_length(4)) == 1


def test_family_validation():
    with pytest.raises(ValueError):
        trace.trace_family([])
    with pytest.raises(ValueError):
        trace.trace_family(["00", "00"])
    with pytest.raises(ValueError):
        trace.trace_family(["00", "010"])
    with pytest.raises(NotAFactorError):
        trace.trace_family(["000"])


def test_spanning_examples():
    assert trace.trace_spanning("01", "10", ["1001"]) == 0
    assert trace.trace_spanning("01", "01", ["1001"]) == SIXTH
    assert trace.trace_spanning("", "", ["00", "01", "10", "11"]) == 1
    # members without the suffix contribute nothing
    assert trace.trace_spanning("01", "01", ["1001", "0110"]) == SIXTH
    with pytest.raises(ValueError):
        trace.trace_spanning("01x", "01x", ["1001"])


def test_block_trace_examples():
    assert trace.block_trace(0, 0, 0) == SIXTH
    assert trace.block_trace(0, 1, 3) == Fraction(1, 24)
    for n in range(9):
        assert trace.block_trace(1, 0, n) == trace.block_trace(0, 1, n)
        assert trace.block_trace(1, 1, n) == trace.block_trace(0, 0, n)


def test_block_trace_matches_peeling():
    for n in range(9):
        for i in (0, 1):
            for j in (0, 1):
                w = words.block(i, n) + words.block(j, n)
                assert trace._peel(w) == trace.trace_range(w) == trace.block_trace(i, j, n)
        # same-letter pairs are strictly rarer than mixed pairs
        assert trace.block_trace(0, 0, n) < trace.block_trace(0, 1, n)


def _three_routes(w):
    """Block route, peeling definition and K0 evaluation of one factor."""
    return trace.trace_range(w), trace._peel(w), ktheory.evaluate(ktheory.reduce_class(w))


def test_block_route_matches_peeling_exhaustive():
    # every factor of <= 39 letters: 2332 words, block levels up to 4
    for L in range(1, 40):
        for w in words.factors_of_length(L):
            block, peel, k0 = _three_routes(w)
            assert block == peel == k0, w


@given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.integers(min_value=2, max_value=1500))
@settings(max_examples=40, deadline=None)
def test_block_route_matches_peeling_on_far_long_factors(start, length):
    w = letters(start, start + length)
    block, peel, k0 = _three_routes(w)
    assert block == peel == k0
    assert block.numerator == 1 and ktheory.is_dyadic_third(block)


def test_trace_cache_is_bounded():
    # more distinct words than either (c, n) memo may hold, and every level
    # up to 18 at several grid phases
    sweep = [(k, 40 + k % 50) for k in range(2 * 50 * 21)]
    sweep += [(k << max(n - 6, 0), 3 << n) for n in range(19) for k in (0, 5, 21, 42)]
    for lo, length in sweep:
        w = words.tm_slice(lo, lo + length)
        assert trace.trace_range(w) == ktheory.evaluate(ktheory.reduce_class(w))
    descent = words._short_descent.cache_info()
    assert descent.currsize <= descent.maxsize
    for memo in (trace._block_word_trace, ktheory._block_word_class):
        assert 19 <= memo.cache_info().currsize <= 50 * 21


def test_additivity_both_sides():
    for L in range(1, 13):
        for w in words.factors_of_length(L):
            v = trace.trace_range(w)
            right = sum(trace.trace_range(w + a) for a in "01" if words.is_factor(w + a))
            left = sum(trace.trace_range(a + w) for a in "01" if words.is_factor(a + w))
            assert v == right == left


def test_symmetry():
    for L in range(1, 13):
        for w in words.factors_of_length(L):
            v = trace.trace_range(w)
            assert v == trace.trace_range(w[::-1])
            assert v == trace.trace_range(words.complement(w))


def test_partition_of_unity_and_positivity():
    for L in range(1, 17):
        values = [trace.trace_range(w) for w in words.factors_of_length(L)]
        assert sum(values) == 1
        assert all(v > 0 for v in values)


def test_monotone_halving():
    for L in range(4, 13):
        for w in words.factors_of_length(L):
            tail = trace.trace_range(w[1:])
            assert trace.trace_range(w) in (tail, tail / 2)


def test_matrix_iterate_examples():
    assert trace.matrix_iterate(SIXTH, 0) == (SIXTH, THIRD)
    assert trace.matrix_iterate(SIXTH, 3) == (Fraction(1, 48), Fraction(1, 24))
    # direct substitution into the closed form; the first coordinate
    # vanishing is the positivity failure that rules out t = 1/4
    assert trace.matrix_iterate(Fraction(1, 4), 1) == (Fraction(0), Fraction(1, 4))


def test_matrix_iterate_closed_form_is_checked_deeply():
    for t in (Fraction(0), SIXTH, Fraction(1, 4), Fraction(1, 2)):
        x, y = t, Fraction(1, 2) - t
        for n in range(41):
            b1, b2 = trace.matrix_iterate(t, n)
            u = 3 * t - Fraction(1, 2)
            sign = (-1) ** n
            assert 3 * b1 == Fraction(1, 2) ** (n + 1) + u * sign
            assert 3 * b2 == Fraction(1, 2) ** n - u * sign
            # exact iteration of the inverse step matrix (-1/2 1/2; 1 0)
            assert (b1, b2) == (x, y)
            x, y = (y - x) / 2, x


def test_matrix_iterate_validation():
    with pytest.raises(ValueError):
        trace.matrix_iterate(Fraction(2, 3), 1)
    with pytest.raises(ValueError):
        trace.matrix_iterate(SIXTH, -1)
    with pytest.raises(ValueError):
        trace.block_trace(2, 0, 1)
    with pytest.raises(ValueError):
        trace.block_trace(0, 0, trace.MAX_BLOCK_TRACE_LEVEL + 1)
    with pytest.raises(ValueError):
        trace.uniqueness_interval(0)


def test_matrix_level_cap():
    cap = trace.MAX_MATRIX_LEVEL
    assert cap == 1 << 13
    assert trace.matrix_iterate(SIXTH, cap) == (Fraction(1, 6 * 2 ** cap), Fraction(1, 3 * 2 ** cap))
    assert trace.uniqueness_interval(cap)[0] < SIXTH < trace.uniqueness_interval(cap)[1]
    with pytest.raises(ResourceLimitError, match=f"n {cap + 1} exceeds {cap}"):
        trace.matrix_iterate(SIXTH, cap + 1)
    with pytest.raises(ResourceLimitError, match=f"N {cap + 1} exceeds {cap}"):
        trace.uniqueness_interval(cap + 1)


def test_matrix_t_size_cap():
    bits, top = trace.MAX_MATRIX_T_BITS, trace.MAX_MATRIX_LEVEL
    assert bits == 1 << 12
    q = (1 << bits) - 1
    # the values of every accepted (t, N) print within the int-to-str limit
    for t in (Fraction(1, q), Fraction((q - 1) // 2, q)):
        for n in (top - 1, top):
            for v in trace.matrix_iterate(t, n):
                assert abs(v.numerator) <= v.denominator and len(str(v.denominator)) <= 3700
    for t in (Fraction(1, q + 1), Fraction(1, int("7" * 4000))):
        with pytest.raises(ResourceLimitError,
                           match=f"denominator of t has {t.denominator.bit_length()} bits, "
                                 f"exceeds {bits}"):
            trace.matrix_iterate(t, top)


def test_uniqueness_interval_examples():
    lo, hi = trace.uniqueness_interval(1)
    assert lo < SIXTH < hi
    assert hi <= Fraction(1, 4)


def test_uniqueness_interval_nesting_and_width():
    prev = None
    for n in range(1, 31):
        lo, hi = trace.uniqueness_interval(n)
        assert lo < SIXTH < hi
        assert hi - lo <= Fraction(1, 2 ** n)
        if prev:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)
    # the endpoints themselves violate positivity at some level
    for t in trace.uniqueness_interval(6):
        values = [trace.matrix_iterate(t, n) for n in range(8)]
        assert any(b1 <= 0 or b2 <= 0 for b1, b2 in values)


def test_uniqueness_interval_matches_the_level_loop():
    # the loop over levels n <= N that the closed form replaces
    half = Fraction(1, 2)
    lo_u, hi_u = Fraction(-1), Fraction(1)
    for n in range(201):
        if n % 2 == 0:
            lo_u, hi_u = max(lo_u, -(half ** (n + 1))), min(hi_u, half ** n)
        else:
            lo_u, hi_u = max(lo_u, -(half ** n)), min(hi_u, half ** (n + 1))
        if n >= 1:
            assert trace.uniqueness_interval(n) == ((lo_u + half) / 3, (hi_u + half) / 3)


def test_uniqueness_interval_is_the_exact_positivity_set():
    # each coordinate of matrix_iterate(t, n) is linear in t, so its values
    # at t = 0 and t = 1/2 give the one root where its sign changes
    half = Fraction(1, 2)
    for N in range(1, 9):
        lo, hi = None, None
        for n in range(N + 1):
            for f0, f1 in zip(trace.matrix_iterate(0, n), trace.matrix_iterate(half, n)):
                slope = (f1 - f0) / half
                assert slope != 0
                root = -f0 / slope
                if slope > 0:
                    lo = root if lo is None else max(lo, root)
                else:
                    hi = root if hi is None else min(hi, root)
        assert trace.uniqueness_interval(N) == (lo, hi)


def test_frequency_examples():
    assert trace.frequency("0", 1 << 20) == Fraction(1, 2)
    assert abs(trace.frequency("01", 1 << 20) - THIRD) <= Fraction(1, 100)
    assert abs(trace.frequency("00", 1 << 20) - SIXTH) <= Fraction(1, 100)


def test_frequency_oracle_agreement():
    window = 1 << 18
    for L in range(1, 7):
        for w in words.factors_of_length(L):
            gap = abs(trace.trace_range(w) - trace.frequency(w, window))
            assert gap <= Fraction(1, 100)


@given(st.integers(min_value=0, max_value=(1 << 16) - 40),
       st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=30, deadline=None)
def test_counts_match_letter_by_letter_scan(oracle_prefix, start, length, data):
    w = oracle_prefix[start:start + length]
    N = data.draw(st.integers(min_value=length, max_value=len(oracle_prefix)))
    starts = scan(oracle_prefix[:N], w)
    assert words.occurrences(w, 0, N) == starts
    assert trace.frequency(w, N) == Fraction(len(starts), N - length + 1)
    W = data.draw(st.integers(min_value=4 * length, max_value=len(oracle_prefix)))
    # x[-W..W-1] by the mirror rule x[-i] = x[i-1]
    window = oracle_prefix[:W][::-1] + oracle_prefix[:W]
    assert repwindow.empirical_trace(w, W) == Fraction(len(scan(window, w)),
                                                       2 * W + 1 - length)
    # past the reference prefix, up to the largest window: the count of the
    # built window x[-W..W-1], complete since no two occurrences overlap
    W = data.draw(st.integers(min_value=len(oracle_prefix), max_value=1 << 20))
    assert repwindow.empirical_trace(w, W) == Fraction(words.tm_slice(-W, W).count(w),
                                                       2 * W + 1 - length)


def test_frequency_validation():
    with pytest.raises(ResourceLimitError):
        trace.frequency("0", (1 << 26) + 1)
    with pytest.raises(ValueError):
        trace.frequency("0110", 2)


def test_frequency_equals_the_count_in_the_prefix():
    N = 1 << 20
    prefix = words.tm_prefix(N)
    for L in range(1, 9):
        for w in words.factors_of_length(L):
            assert trace.frequency(w, N) == Fraction(prefix.count(w), N - len(w) + 1), w


def test_frequency_builds_no_prefix_and_keeps_its_memo_bounded(monkeypatch):
    empty = [words._short_blocks[0]] + [None] * words._SHORT_LEVEL
    monkeypatch.setattr(words, "_short_blocks", empty)
    assert abs(trace.frequency("0110", 1 << 26) - SIXTH) <= Fraction(1, 10 ** 4)
    assert sum(len(b) for b in words._short_blocks if b) <= 4096
    N = 1 << 20
    prefix = words.tm_prefix(N)
    long_words = {prefix[4099 * k:4099 * k + 4096] for k in range(200)}
    assert len(long_words) == 200
    for w in long_words:
        assert words._prefix_count(w, N) == prefix.count(w)
    memo = words._short_prefix_count.cache_info()
    assert memo.currsize <= memo.maxsize == 1 << 12
