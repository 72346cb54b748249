import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thuemorse import extensions, words
from thuemorse.errors import NotAFactorError, ResourceLimitError
from reference import complexity, letters


def test_examples():
    assert extensions.extension_set("0101", 2, 2) == ["10010110"]
    assert extensions.extension_set("0110", 0, 0) == ["0110"]
    assert extensions.extension_set("01", 1, 1) == ["0010", "0011", "1010", "1011"]


def test_one_sided_example():
    # extending 0101 two letters to the left is already forced
    assert extensions.extension_set("0101", 2, 0) == ["100101"]


def test_classify_examples():
    assert extensions.classify_extension_count("0") == 3
    assert extensions.classify_extension_count("1") == 3
    assert extensions.classify_extension_count("00") == 1
    assert extensions.classify_extension_count(words.block(0, 2) + words.block(1, 2)) == 4


def test_errors():
    with pytest.raises(NotAFactorError):
        extensions.extension_set("100100", 1, 1)
    with pytest.raises(ValueError):
        extensions.extension_set("01", -1, 0)
    with pytest.raises(ResourceLimitError):
        extensions.extension_set("01", 5000, 0)


def test_counts_lie_in_124():
    for w in words._factors_upto(12)[2:]:  # the factors of 2..12 letters
        assert extensions.classify_extension_count(w) in (1, 2, 4)


def test_count_four_families():
    # per block level: both two-block words and both four-block
    # alternations have count 4, and nothing else of those lengths does
    for n in range(4):
        b0, b1 = words.block(0, n), words.block(1, n)
        two = {b0 + b1, b1 + b0}
        four = {b0 + b1 + b1 + b0, b1 + b0 + b0 + b1}
        # the four-block words regroup into the two-block words one level up
        assert four == {words.block(0, n + 1) + words.block(1, n + 1),
                        words.block(1, n + 1) + words.block(0, n + 1)}
        hits2 = {w for w in words.factors_of_length(2 * 2 ** n)
                 if extensions.classify_extension_count(w) == 4}
        assert hits2 == two
        hits4 = {w for w in words.factors_of_length(4 * 2 ** n)
                 if extensions.classify_extension_count(w) == 4}
        assert hits4 == four


def test_partition_property():
    for w in ["01", "0110", "010", "1001"]:
        for m in (1, 2):
            for n in (1, 2):
                lefts = extensions.extension_set(w, m, 0)
                total = sum(len(extensions.extension_set(u, 0, n)) for u in lefts)
                assert total == len(extensions.extension_set(w, m, n))


def test_symmetry_under_reverse_and_complement():
    for w in words._factors_upto(12):
        c = extensions.classify_extension_count(w)
        assert c == extensions.classify_extension_count(w[::-1])
        assert c == extensions.classify_extension_count(words.complement(w))


def test_extension_sets_are_factor_scans(oracle_factors):
    # the windows of one text equal the brute scan of the reference prefix
    for w in ["01", "00", "010", "0110", "10010110"]:
        for m, n in [(1, 1), (2, 2), (0, 3), (3, 0)]:
            scan = sorted(u for u in oracle_factors(m + len(w) + n) if u[m:m + len(w)] == w)
            # the second ask is answered by the memo
            for _ in range(2):
                assert extensions.extension_set(w, m, n) == scan


def test_short_extension_sets_are_reference_scans(oracle_factors):
    # the windows of sigma^k(00110) against the reference scans, for every
    # factor of at most 20 letters and 0 <= m, n <= 3
    scans = {L: oracle_factors(L) for L in range(1, 27)}
    for m in range(4):
        for n in range(4):
            for L in range(1, 21):
                found = {}
                for u in scans[L + m + n]:
                    found.setdefault(u[m:m + L], []).append(u)
                for w in scans[L]:
                    assert extensions._extend(w, m, n) == sorted(found[w]), (w, m, n)


def test_a_repeat_returns_a_new_equal_list():
    first = extensions.extension_set("0110", 1, 1)
    second = extensions.extension_set("0110", 1, 1)
    assert second == first and second is not first
    second[0] = "x"
    assert extensions.extension_set("0110", 1, 1) == first
    assert first == ["001100", "001101", "101100", "101101"]


def test_a_repeated_call_makes_no_descent(count_calls):
    # a word no other test builds; the first call fills the memo
    w = words.tm_slice((1 << 42) + 31, (1 << 42) + 131)
    extensions._short_extension_set.cache_clear()
    first = extensions.extension_set(w, 1, 1)
    descents = count_calls(words, "_descent")
    assert extensions.extension_set(w, 1, 1) == first
    assert descents == []


def test_only_calls_with_a_short_worst_case_are_keys():
    # the worst case is 2**(m + n) words of |w| + m + n letters, at most
    # MAX_CACHED_LENGTH letters in all: |w| <= 1022 for (1, 1)
    memo = extensions._short_extension_set
    assert memo.cache_info().maxsize == 1 << 11
    memo.cache_clear()
    cap = words.MAX_CACHED_LENGTH
    at, past = words.tm_slice(5, 5 + 1022), words.tm_slice(5, 5 + 1023)
    for w, m, n in [(at, 1, 1), (past, 1, 1), (at, True, 1),
                    (words.tm_slice(0, cap), 0, 0), (words.tm_slice(0, cap - 1), 0, 1)]:
        assert extensions.extension_set(w, m, n) == extensions._extend(w, m, n)
    assert memo.cache_info().currsize == 2
    with pytest.raises(TypeError):
        extensions.extension_set(at, 1, 1.0)
    with pytest.raises(ResourceLimitError, match=f"extended length {10 ** 30 + 1} exceeds"):
        extensions.extension_set("0", 10 ** 30, 0)
    assert memo.cache_info().currsize == 2


@given(st.integers(min_value=-(1 << 60), max_value=1 << 60),
       st.integers(min_value=1, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_far_one_letter_extensions_are_the_neighbours_in_the_oracle(oracle_prefix, start, length):
    # A window of at most 2**k letters lies in two consecutive level-k
    # blocks, block(a, k) block(b, k) with ab a factor, and all four
    # two-letter words occur in the first 8 letters 01101001; so every
    # factor of at most 2**13 letters, a + w + b included, occurs in the
    # oracle's 2**16 letters, and its neighbours there are all of ext(w, 1, 1).
    w = letters(start, start + length)
    found, i = set(), oracle_prefix.find(w, 1)
    while 0 < i < len(oracle_prefix) - length:
        found.add(oracle_prefix[i - 1:i + length + 1])
        i = oracle_prefix.find(w, i + 1)
    assert extensions.extension_set(w, 1, 1) == sorted(found)


def test_a_first_extension_set_reads_one_descent_and_tests_no_candidate(count_calls):
    # the windows of one text read w's descent alone, for its check; testing
    # candidates a + w + b, or descending each word a one-letter step builds
    # (51 693 descents for ("0", 0, 256)), makes more calls
    cases = [(words.tm_slice(start, start + 200), 1, 1)
             for start in ((1 << 43) + 17, -(1 << 43) - 230)]
    cases += [("0", 0, 256), (cases[0][0], 3, 3)]
    for w, m, n in cases:
        extensions._short_extension_set.cache_clear()
        words._short_descent.cache_clear()
        descents, checks = count_calls(words, "_descent"), count_calls(words, "_check_word")
        tests = count_calls(words, "is_factor")
        found = extensions.extension_set(w, m, n)
        assert (descents, checks, tests) == ([w], [w], [])
        assert found == extensions._extend(w, m, n)
    # at the cap, the 4096-letter windows that begin with 0: half of all
    # p(4096) factors of that length, by complement
    assert len(extensions.extension_set("0", 0, 4095)) == 6143 == complexity(4096)[4096] // 2
