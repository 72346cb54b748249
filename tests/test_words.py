import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thuemorse import words
from thuemorse.errors import NotAFactorError, ResourceLimitError
from conftest import peak_bytes
from reference import letters, scan

binary_words = st.text(alphabet="01", min_size=1, max_size=40)


def test_letter_examples():
    assert words.tm_letter(0) == 0
    assert words.tm_letter(3) == 0
    assert words.tm_letter(-1) == 0
    assert "".join(str(words.tm_letter(i)) for i in range(8)) == "01101001"


def test_letter_mirror_rule():
    for i in range(1, 300):
        assert words.tm_letter(-i) == words.tm_letter(i - 1)


def test_letter_matches_oracle(oracle_prefix):
    for i in range(2000):
        assert words.tm_letter(i) == int(oracle_prefix[i])


def test_slice_examples():
    assert words.tm_slice(0, 8) == "01101001"
    assert words.tm_slice(0, 1) == "0"
    assert words.tm_slice(-4, 0) == "0110"


def test_slice_matches_oracle(oracle_prefix):
    assert words.tm_slice(0, 4096) == oracle_prefix[:4096]
    # negative indices mirror the prefix
    for lo, hi in [(-5, 3), (-128, 0), (-1, 1), (-37, -11)]:
        expected = "".join(
            oracle_prefix[i] if i >= 0 else oracle_prefix[-i - 1]
            for i in range(lo, hi)
        )
        assert words.tm_slice(lo, hi) == expected


def test_slice_near_zero_matches_oracle(oracle_prefix):
    # every window start in [-300, 3000) at lengths 0, 1, 5 and 64
    window = oracle_prefix[:300][::-1] + oracle_prefix[:3064]
    for lo in range(-300, 3000):
        for n in (0, 1, 5, 64):
            assert words.tm_slice(lo, lo + n) == window[lo + 300:lo + 300 + n], (lo, n)


@given(st.integers(min_value=1 - (1 << 62), max_value=(1 << 62) - 1),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=300, deadline=None)
# windows that join the cached top-level blocks: far right, far left, across 0
@example((1 << 40) + 3, 4097)
@example((1 << 40) + 3, (3 << 13) + 5)
@example(-(1 << 40) - 3, 4097)
@example(-(1 << 40) - 3, (3 << 13) + 5)
@example(-4104, (3 << 13) + 5)
def test_slice_at_any_offset_matches_popcount_letters(lo, n):
    assert words.tm_slice(lo, lo + n) == letters(lo, lo + n)


def test_a_long_partial_block_is_matched_against_its_own_length():
    # top level 18, with partial blocks of 262 067 and 257 221 letters: each
    # is matched against that many letters of a block, not a whole block
    lo = (1 << 33) + 77
    w = words.tm_slice(lo, lo + 1043576)
    found, peak = peak_bytes(words.is_factor, w)
    assert found and peak <= 2.1 * len(w)


def test_far_slices_build_no_prefix():
    for lo in ((1 << 26) - 10, 1 << 40, -(1 << 40)):
        assert peak_bytes(words.tm_slice, lo, lo + 10)[1] < 64 * 1024, lo
    # a long window holds at most a few strings of about its own length
    for n in (1 << 16, (1 << 16) + 1, 3 << 15, (1 << 17) + 1):
        for lo in (0, 12345, (1 << 40) + 3, -(n // 2), -n - 99):
            assert peak_bytes(words.tm_slice, lo, lo + n)[1] <= 3 * n + 64 * 1024, (lo, n)
    # the table keeps both blocks of the levels k <= 12 only
    assert sum(len(b) for pair in words._short_blocks if pair for b in pair) <= 2 * ((1 << 13) - 1)


def test_slice_validation():
    with pytest.raises(ValueError):
        words.tm_slice(3, 1)
    with pytest.raises(ResourceLimitError):
        words.tm_slice(0, (1 << 26) + 1)
    with pytest.raises(ValueError):
        words.occurrences("0", 5, 3)
    with pytest.raises(ResourceLimitError):
        words.tm_prefix(words.MAX_SLICE + 1)
    with pytest.raises(ValueError):
        words.tm_prefix(-1)


def test_block_examples():
    assert words.block(0, 1) == "01"
    assert words.block(1, 3) == "10010110"
    assert words.block(0, 3) == "01101001"
    for n in range(10):
        assert len(words.block(0, n)) == 1 << n
        assert words.block(0, n) == words.tm_slice(0, 1 << n)
        assert words.block(1, n) == words.complement(words.block(0, n))


def test_block_validation(oracle_prefix):
    with pytest.raises(ValueError):
        words.block(2, 1)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        words.block(0, -1)
    # the top level, log2 MAX_WORD_LENGTH, holds 2**20 letters
    top = words.block(0, 20)
    assert len(top) == words.MAX_WORD_LENGTH and top.startswith(oracle_prefix)
    with pytest.raises(ResourceLimitError):
        words.block(0, 21)
    with pytest.raises(ResourceLimitError):
        words.block(0, 31)


def test_keane_examples():
    assert words.keane_product("01", "011") == "011010"
    assert words.keane_product("0110", "0") == "0110"
    assert words.keane_product("01", "01") == "0110"
    with pytest.raises(ValueError):
        words.keane_product("", "01")


def test_keane_iteration_builds_blocks():
    # folding 01 into itself n times gives the level-(n+1) block
    w = "01"
    for n in range(2, 8):
        w = words.keane_product(w, "01")
        assert w == words.block(0, n)


@given(binary_words, binary_words)
def test_keane_length(b, c):
    assert len(words.keane_product(b, c)) == len(b) * len(c)


def test_keane_output_cap():
    # the cap bounds the product, not only each factor
    assert words.MAX_WORD_LENGTH == 1024 * 1024
    assert len(words.keane_product("0" * 1024, "0" * 1024)) == words.MAX_WORD_LENGTH
    with pytest.raises(ResourceLimitError):
        words.keane_product("0" * 1025, "0" * 1024)
    with pytest.raises(ResourceLimitError):
        words.keane_product("0" * 4096, "0" * 4096)


@given(binary_words, st.integers(min_value=0, max_value=1))
def test_lift_matches_pairwise_definition(s, phase):
    pairs = [s[i:i + 2] for i in range(phase, len(s) - 1, 2)]
    expected = None if any(p in ("00", "11") for p in pairs) else "".join(p[0] for p in pairs)
    assert words.lift(s, phase) == expected


def test_transform_examples():
    assert words.transform("01101", "reverse") == "10110"
    assert words.transform("0110", "complement") == "1001"
    assert words.transform(words.block(0, 3), "reverse") == "10010110"
    with pytest.raises(ValueError):
        words.transform("01", "mirror")


@given(binary_words)
def test_transform_involutions(w):
    assert words.transform(words.transform(w, "reverse"), "reverse") == w
    assert words.transform(words.transform(w, "complement"), "complement") == w
    assert (words.transform(words.transform(w, "reverse"), "complement")
            == words.transform(words.transform(w, "complement"), "reverse"))


@given(binary_words, binary_words)
def test_reverse_antihomomorphism(a, b):
    rev = lambda u: words.transform(u, "reverse")
    assert rev(a + b) == rev(b) + rev(a)


def test_is_factor_examples():
    assert words.is_factor("0110")
    assert not words.is_factor("100100")
    assert not words.is_factor("1110")
    assert not words.is_factor("000")
    with pytest.raises(ValueError):
        words.is_factor("")
    with pytest.raises(ValueError):
        words.is_factor("01a")


def test_is_factor_exhaustive_vs_oracle(oracle_factors):
    # every binary word up to length 14 against the windows of the reference
    for L in range(1, 15):
        found = oracle_factors(L)
        for x in range(1 << L):
            w = format(x, f"0{L}b")
            assert words.is_factor(w) == (w in found), w


def test_require_factor():
    with pytest.raises(NotAFactorError):
        words.require_factor("100100")


def test_is_factor_on_mutated_long_factors(oracle_prefix):
    # single-letter mutations of genuine factors, checked against the
    # reference scan (any true factor of these lengths occurs well
    # within the reference window)
    for L in (20, 33, 48, 64):
        for w in words.factors_of_length(L)[::7]:
            assert words.is_factor(w)
            for pos in range(0, L, 5):
                mutated = w[:pos] + ("1" if w[pos] == "0" else "0") + w[pos + 1:]
                assert words.is_factor(mutated) == (mutated in oracle_prefix)


def test_short_word_cache_skips_long_words():
    memo = words._short_descent
    memo.cache_clear()
    short, long_word = words.tm_slice(77, 177), words.tm_slice(77, 78 + words.MAX_CACHED_LENGTH)
    assert words._descent(short) == words._descent(short) is not None
    assert words._descent(long_word) is not None
    # one miss and one hit for the short word, nothing for the long one
    assert memo.cache_info()[:2] == (1, 1) and memo.cache_info().currsize == 1


def test_is_factor_cache_is_bounded():
    cache = words._short_descent
    bound = cache.cache_info().maxsize
    for x in range(bound + 100):
        assert words.is_factor(words.tm_slice(x, x + 100 + x % 200))
    assert cache.cache_info().currsize <= bound


def test_word_length_cap():
    cap = words.MAX_WORD_LENGTH
    assert cap >= 10 ** 6
    assert words.is_factor("0" * cap) is False
    with pytest.raises(ResourceLimitError):
        words.is_factor("0" * (cap + 1))
    with pytest.raises(ResourceLimitError):
        words.require_factor("01" * (cap // 2) + "1")


def test_factors_of_length_counts(oracle_factors):
    # the factor complexity (Brlek 1989; de Luca & Varricchio 1989): p(1..3)
    # = 2, 4, 6, p(2n) = p(n) + p(n + 1) and p(2n + 1) = 2 p(n + 1) for n >= 2
    p = [0, 2, 4, 6]
    for L in range(4, words.MAX_FACTOR_LENGTH + 1):
        p.append(p[L // 2] + p[L // 2 + 1] if L % 2 == 0 else 2 * p[L // 2 + 1])
    assert [len(words.factors_of_length(L)) for L in range(1, len(p))] == p[1:]
    for L in range(1, 17):
        assert set(words.factors_of_length(L)) == oracle_factors(L)


def test_factors_of_length_examples():
    assert words.factors_of_length(2) == ["00", "01", "10", "11"]
    fac3 = words.factors_of_length(3)
    assert len(fac3) == 6 and "000" not in fac3 and "111" not in fac3
    assert len(words.factors_of_length(4)) == 10


def test_factors_sorted_and_window_insensitive():
    for L in (5, 12, 30, 48):
        got = words.factors_of_length(L)
        assert got == sorted(got)
        wide = words.tm_prefix(40 * L + 256)
        rescan = sorted({wide[i:i + L] for i in range(len(wide) - L + 1)})
        assert got == rescan


def test_factor_complexity_monotone():
    counts = [len(words.factors_of_length(L)) for L in range(1, 22)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    for L in range(1, 21):
        lower = set(words.factors_of_length(L))
        for w in words.factors_of_length(L + 1):
            assert w[:-1] in lower and w[1:] in lower


def test_reversal_complement_closure():
    fac = set(words._factors_upto(16))
    for w in fac:
        assert w[::-1] in fac
        assert words.complement(w) in fac


def test_overlap_freeness():
    for beta in words._factors_upto(8):
        for p in range(1, len(beta) + 1):
            assert not words.is_factor(beta + beta + beta[:p])


def test_occurrences_examples():
    alpha = "00101101001011001101001100101100"
    assert 9 in words.occurrences(alpha, 0, 64)
    assert words.occurrences("000", 0, 1 << 16) == []
    assert words.occurrences("0110", 0, 8) == [0]


def test_occurrences_two_sided(oracle_prefix):
    occ = words.occurrences("0110", -8, 8)
    assert occ == [-4, 0]
    for i in occ:
        assert words.tm_slice(i, i + 4) == "0110"
    lo = 1 << 30
    assert words.occurrences("0110", lo, lo + 100) == [
        lo + p for p in scan(letters(lo, lo + 100), "0110")]


def test_base_factor_window_is_safe(oracle_factors):
    # the membership base case: every factor of at most 8 letters
    assert words._base_factors() == {w for L in range(1, 9) for w in oracle_factors(L)}


def test_prefix_count_matches_letter_by_letter_scan(oracle_prefix):
    # every factor of <= 6 letters, and the first non-factor of each length
    # from 3 on (every word of one or two letters is a factor)
    cases = []
    for L in range(1, 7):
        found = words.factors_of_length(L)
        cases += found
        cases += [w for w in map("".join, itertools.product("01", repeat=L))
                  if w not in found][:1]
    assert len(cases) == 50 + 4
    for w in cases:
        starts = scan(oracle_prefix[:512], w)
        for n in range(513):
            # the starts p of a scan of oracle_prefix[:n] are those with p + |w| <= n
            expected = sum(p + len(w) <= n for p in starts)
            assert words._prefix_count(w, n) == expected, (w, n)
