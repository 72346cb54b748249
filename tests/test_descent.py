"""The one descent per word against the two routes it replaced.

`_reference_is_factor` is the recursion that decided membership on
both grids, level by level, and `_reference_chain` the iterative lift
chain that tried both grids at every level; the signature completes the
chain's top by brute force, each partial block matched against both
blocks of its level.  The descent must give the same membership, chain
and signature on every word.  The overlap lemma backs the top check,
which alone decides membership: a block string of five or more letters
that lifts on both grids holds 01010 or 10101, so a factor's has a 00 or
11 that fixes its own grid.  The counting gates bound the letters that
`words.lift` reads by the algorithm: the level-k block string has at
most |w| / 2**k letters, so one descent reads fewer than 2 |w|.
"""

import itertools
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from thuemorse import blocks, extensions, ktheory, trace, words
from thuemorse.errors import (InvariantError, LevelError, NotAFactorError,
                              ResourceLimitError)
from reference import letters


@lru_cache(maxsize=None)
def _reference_is_factor(w: str) -> bool:
    if len(w) <= 8:
        return w in words._base_factors()
    return any(parent is not None and _reference_is_factor(parent)
               for parent in (words._parent_word(w, 0), words._parent_word(w, 1)))


def _reference_chain(w: str) -> tuple:
    chain = []
    c, off = w, 0
    while True:
        found = None
        for phase in (0, 1):
            if (len(c) - phase) // 2 < 2:
                continue
            up = words.lift(c, phase)
            if up is None:
                continue
            if found is not None:
                raise InvariantError(f"ambiguous level-{len(chain) + 1} grid for factor {w!r}")
            found = (up, off + (phase << len(chain)))
        if found is None:
            break
        chain.append(found)
        c, off = found
    if chain and not 2 <= len(c) <= 4:
        raise InvariantError(f"maximal regrouping of {w!r} left {len(c)} blocks")
    return tuple(chain)


def _reference_signature(w: str) -> tuple:
    chain = _reference_chain(w)
    if not chain:
        return 0, w
    n = len(chain)
    c, off = chain[-1]
    gamma0, gamma1 = w[:off], w[off + (len(c) << n):]
    if gamma0:
        c = [a for a in "01" if words.block(int(a), n).endswith(gamma0)][0] + c
    if gamma1:
        c += [a for a in "01" if words.block(int(a), n).startswith(gamma1)][0]
    return n, c


def _assert_matches_reference(w: str):
    found = words._descent(w)
    assert (found is not None) == _reference_is_factor(w), w
    if found is not None:
        assert found == (_reference_chain(w), _reference_signature(w)), w


def test_descent_matches_the_reference_routes_on_every_short_word():
    for L in range(1, 15):
        for x in range(1 << L):
            _assert_matches_reference(format(x, f"0{L}b"))


# offsets spread over every scale up to 2**60, on both sides of 0
far_offsets = st.builds(lambda e, j: (1 << e) + j if j & 1 else -(1 << e) - j,
                        st.integers(min_value=0, max_value=60),
                        st.integers(min_value=0, max_value=1 << 20))


@given(far_offsets,
       st.integers(min_value=9, max_value=3000),
       st.sampled_from(["factor", "flip", "delete", "overlap"]),
       st.integers(min_value=0, max_value=1 << 30),
       st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=150, deadline=None)
def test_descent_matches_the_reference_routes_on_mutated_far_factors(start, length, kind, r, s):
    w = letters(start, start + length)
    pos = r % length
    if kind == "flip":
        w = w[:pos] + words.complement(w[pos]) + w[pos + 1:]
    elif kind == "delete":
        w = w[:pos] + w[pos + 1:]
    elif kind == "overlap":
        # a block overlap B B B[0] written over part of the factor: the
        # sequence is overlap-free, so the word is not a factor
        b = words.block(s & 1, (s >> 1) % ((length - 1) // 2).bit_length())
        o = b + b + b[0]
        at = pos % (length - len(o) + 1)
        w = w[:at] + o + w[at + len(o):]
        assert words._descent(w) is None
    _assert_matches_reference(w)


def test_a_doubled_letter_fixes_the_grid():
    # a 00 or 11 at index i is a pair of the grid of phase i mod 2, so
    # that grid does not lift
    for L in range(2, 13):
        for c in map("".join, itertools.product("01", repeat=L)):
            for i in range(L - 1):
                if c[i] == c[i + 1]:
                    assert words.lift(c, i % 2) is None, (c, i)


def test_a_word_lifting_on_both_grids_holds_an_overlap():
    for L in range(5, 15):
        for c in map("".join, itertools.product("01", repeat=L)):
            if words.lift(c, 0) is not None and words.lift(c, 1) is not None:
                assert "01010" in c or "10101" in c, c


def _pipeline(w: str):
    words.is_factor(w)
    blocks.complete_boundaries(blocks.decompose(w, blocks.choose_level(w)))
    trace.trace_range(w)
    ktheory.reduce_class(w)


def test_a_fresh_factor_is_lifted_once(count_calls):
    lifted = count_calls(words, "lift")
    w = letters((1 << 47) + 919, (1 << 47) + 3919)  # a word no other test builds
    assert len(w) <= words.MAX_CACHED_LENGTH
    _pipeline(w)
    # one descent for the six calls, and complete_boundaries checks the
    # completed block word of at most six letters
    assert sum(map(len, lifted)) <= 2 * len(w) + 2 * 6
    # an alternating non-factor lifts |w| letters on phase 0, and its
    # parent of one repeated letter stops the next lift
    for bad in (w[:1000] + w[1000:1100] * 2 + w[1000] + w[1201:], "01" * 1500):
        lifted.clear()
        assert not words.is_factor(bad)
        assert sum(map(len, lifted)) < 2 * len(bad)


def test_an_uncached_factor_is_lifted_once_per_public_call(count_calls):
    lifted = count_calls(words, "lift")
    w = words.tm_slice(-(1 << 33) - 77, -(1 << 33) - 77 + words.MAX_WORD_LENGTH)
    assert len(w) > words.MAX_CACHED_LENGTH
    _pipeline(w)
    # five calls descend w; complete_boundaries only its block word
    assert sum(map(len, lifted)) <= 10 * len(w) + 2 * 6


def _five_queries(w: str):
    words.is_factor(w)
    blocks.decompose(w, blocks.choose_level(w))
    trace.trace_range(w)
    ktheory.reduce_class(w)


def test_a_cached_word_is_checked_once(count_calls):
    checked = count_calls(words, "_check_word")
    w = letters((1 << 46) + 6061, (1 << 46) + 6361)  # a word no other test builds
    assert len(w) <= words.MAX_CACHED_LENGTH
    _five_queries(w)
    # checked on the memo's miss; the four hits reuse that check
    assert checked == [w]
    long_word = words.tm_slice(1 << 45, (1 << 45) + words.MAX_CACHED_LENGTH + 1)
    _five_queries(long_word)
    assert checked[1:] == [long_word] * 5


class _Word(str):
    pass


_LONG_NON_FACTOR = "0" * 5000
_OVER_CAP = "0" * (words.MAX_WORD_LENGTH + 1)
_NOT_BINARY = "word must consist of '0'/'1' only: "
# inputs that every word query rejects, with the error each gives
_REJECTED = [
    ("", ValueError, "empty word not allowed here"),
    ("012", ValueError, _NOT_BINARY + "'012'"),
    ("٠١١٠", ValueError, _NOT_BINARY + "'٠١١٠'"),
    (5, TypeError, "word must be a string, got int"),
    (None, TypeError, "word must be a string, got NoneType"),
    (b"01", TypeError, "word must be a string, got bytes"),
    (["0", "1"], TypeError, "word must be a string, got list"),
    (_OVER_CAP, ResourceLimitError, f"word length {len(_OVER_CAP)} exceeds {words.MAX_WORD_LENGTH}"),
    (_LONG_NON_FACTOR, NotAFactorError,
     f"{_LONG_NON_FACTOR!r} does not occur in the Thue-Morse sequence"),
]
_QUERIES = {
    "is_factor": words.is_factor,
    "require_factor": words.require_factor,
    "choose_level": blocks.choose_level,
    "decompose0": lambda w: blocks.decompose(w, 0),
    "decompose1": lambda w: blocks.decompose(w, 1),
    "decompose-1": lambda w: blocks.decompose(w, -1),
    "trace_range": trace.trace_range,
    "reduce_class": ktheory.reduce_class,
    "extension_set": lambda w: extensions.extension_set(w, 1, 1),
}


def _outcome(query, w):
    try:
        return query(w)
    except Exception as exc:
        return type(exc), str(exc)


def test_rejected_words_raise_on_every_call_and_stay_out_of_the_memo():
    memos = (words._short_descent, extensions._short_extension_set)
    for memo in memos:
        memo.cache_clear()  # a full memo would hide a stored key
    for w, error, message in _REJECTED:
        for name, query in _QUERIES.items():
            expected = (error, message)
            if name == "is_factor" and error is NotAFactorError:
                expected = False
            for _ in range(2):
                sizes = [memo.cache_info().currsize for memo in memos]
                assert _outcome(query, w) == expected, (w, name)
                assert [memo.cache_info().currsize for memo in memos] == sizes, (w, name)


def test_edge_words_answer_the_same_on_a_repeated_call():
    long_factor = words.tm_slice(-(1 << 44), -(1 << 44) + 5000)
    expected = {
        ("0", "choose_level"): (LevelError, "words of length < 2 have no block decomposition"),
        ("0", "decompose-1"): (LevelError, "words of length < 2 have no block decomposition"),
        ("0110100", "decompose-1"): (ValueError, "level must be nonnegative"),
        (long_factor, "decompose-1"): (ValueError, "level must be nonnegative"),
        (long_factor, "extension_set"): (ResourceLimitError, "extended length 5002 exceeds 4096"),
    }
    memo, extension_memo = words._short_descent, extensions._short_extension_set
    extension_memo.cache_clear()
    for w in ("0", "0110100", long_factor):
        for name, query in _QUERIES.items():
            first = _outcome(query, w)
            assert first == _outcome(query, w), (w, name)
            if (w, name) in expected:
                assert first == expected[w, name]
    # "0" and "0110100" are keys; the over-bound call is not
    assert extension_memo.cache_info().currsize == 2
    # a str subclass is descended without entering the memo, and gets the
    # answers of its plain value (extension_set's candidates are plain strs)
    fresh = _Word(letters((1 << 43) + 99, (1 << 43) + 199))  # a word no other test builds
    queries = [query for name, query in _QUERIES.items() if name != "extension_set"]
    memo.cache_clear()
    answers = [_outcome(query, fresh) for query in queries]
    assert memo.cache_info()[:] == (0, 0, memo.cache_info().maxsize, 0)
    assert answers == [_outcome(query, str(fresh)) for query in queries]
    # nor the extension memo
    extension_memo.cache_clear()
    extend = _QUERIES["extension_set"]
    answer = _outcome(extend, fresh)
    assert extension_memo.cache_info().currsize == 0
    assert answer == _outcome(extend, str(fresh))
