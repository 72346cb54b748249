"""The one descent per word against the two routes it replaced.

`_reference_is_factor` is the recursion that decided membership on
both grids, level by level, down to the factors of at most 8 letters in
a scan of the reference prefix, and `_reference_chain` the iterative lift
chain that tried both grids at every level; the signature completes the
chain's top by brute force, each partial block matched against both
blocks of its level.  The descent must give the same membership, level
offsets and signature on every word, and each level's stride slice must
be the chain's lifted word.  The overlap lemma backs the guessed grids:
a block string of five or more letters that lifts on both grids holds
01010 or 10101, so a factor's has a 00 or 11 that fixes its own grid,
and the final compare alone decides membership.  The counting gates
bound the letters that `words.lift` reads by a lift chain's count, at
most |w| / 2**k at level k; the located descent reads none.
"""

import itertools
import random
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thuemorse import blocks, extensions, ktheory, trace, words
from thuemorse.errors import (InvariantError, LevelError, NotAFactorError,
                              ResourceLimitError)
from reference import letters


# every factor of at most 8 letters, scanned from the reference prefix
_BASE_FACTORS = {s[i:i + L] for s in [letters(0, 1 << 10)]
                 for L in range(1, 9) for i in range(len(s) - L + 1)}


@lru_cache(maxsize=None)
def _reference_is_factor(w: str) -> bool:
    if len(w) <= 8:
        return w in _BASE_FACTORS
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
        chain = _reference_chain(w)
        assert found == (tuple(off for _, off in chain), _reference_signature(w)), w
        # each level's block letters are the stride slice at its offset
        for n, (c, off) in enumerate(chain, 1):
            assert (len(w) - off) >> n == len(c) and w[off:off + (len(c) << n):1 << n] == c, (w, n)


def test_descent_matches_the_reference_routes_on_every_short_word():
    for L in range(1, 15):
        for x in range(1 << L):
            _assert_matches_reference(format(x, f"0{L}b"))


# offsets spread over every scale up to 2**60, on both sides of 0
far_offsets = st.builds(lambda e, j: (1 << e) + j if j & 1 else -(1 << e) - j,
                        st.integers(min_value=0, max_value=60),
                        st.integers(min_value=0, max_value=1 << 20))


def _mutated_far_factor(start, length, kind, r, s) -> str:
    w = letters(start, start + length)
    pos = r % length
    if kind == "flip":
        w = w[:pos] + words.complement(w[pos]) + w[pos + 1:]
    elif kind == "delete" and length > 1:
        w = w[:pos] + w[pos + 1:]
    elif kind == "overlap":
        # a block overlap B B B[0] written over part of the factor: the
        # sequence is overlap-free, so the word is not a factor; below
        # three letters the overlap aaa is the whole word
        b = words.block(s & 1, (s >> 1) % max(((length - 1) // 2).bit_length(), 1))
        o = b + b + b[0]
        at = pos % max(length - len(o) + 1, 1)
        w = w[:at] + o + w[at + len(o):]
        assert words._descent(w) is None
    return w


mutations = st.sampled_from(["factor", "flip", "delete", "overlap"])
seeds = st.integers(min_value=0, max_value=1 << 30)


@given(far_offsets, st.integers(min_value=9, max_value=3000), mutations, seeds, seeds)
@settings(max_examples=150, deadline=None)
# the last letter flipped, which only the final compare reads; beyond the
# memo's cut; and with top level 13 or more, where the compare joins
# level-12 blocks
@example((1 << 50) + 77, 100, "flip", 99, 0)
@example((1 << 50) + 77, 5000, "flip", 4999, 0)
@example((1 << 50) + 77, 4097, "factor", 0, 0)
@example(-(1 << 45) - 3333, 5000, "flip", 2999, 0)
@example((1 << 50) + 77, 30000, "factor", 0, 0)
@example((1 << 33) + 77, 24576, "overlap", 12345, 25)
@example(-(1 << 40) - 1, 24577, "delete", 20000, 0)
def test_descent_matches_the_reference_routes_on_mutated_far_factors(start, length, kind, r, s):
    _assert_matches_reference(_mutated_far_factor(start, length, kind, r, s))


@given(far_offsets, st.integers(min_value=1, max_value=words.MAX_LOCATED_LENGTH), mutations,
       seeds, seeds)
@settings(max_examples=300, deadline=None)
def test_a_located_descent_matches_the_reference_routes_on_mutated_far_factors(
        start, length, kind, r, s):
    # words of at most MAX_LOCATED_LENGTH letters, which `_locate` finds in a text
    _assert_matches_reference(_mutated_far_factor(start, length, kind, r, s))


def _seeded_stream(seed: int, lengths) -> list:
    """Two factors, a flip, a delete and an overlap of each length at odd starts, so at a
    nonzero offset at every level, and the first factor with its first and its last letter
    flipped, which a route that drops an end letter would miss."""
    rng = random.Random(seed)
    stream = []
    for length in lengths:
        for kind in ("factor", "factor", "flip", "delete", "overlap"):
            start = (1 << rng.randrange(10, 61)) + 2 * rng.randrange(1 << 20) + 1
            stream.append(_mutated_far_factor(start, length, kind, rng.randrange(1 << 30),
                                              rng.randrange(1 << 30)))
        w = stream[-5]
        stream += [words.complement(w[0]) + w[1:], w[:-1] + words.complement(w[-1])]
    return stream


def test_the_located_cut_moved_down_gives_the_same_descents(monkeypatch):
    # one seeded stream around the located cut and the memo's
    stream = _seeded_stream(20, [*range(46, 67), 4095, 4096, 4097])
    expected = list(map(words._descend, stream))
    # a chunk then has at least 48 letters and still reaches level 4 by the
    # stop rule, as 47 - 15 >= 32, so words of 48-64 letters are located
    # by chunks and a compare instead of one search
    monkeypatch.setattr(words, "MAX_LOCATED_LENGTH", 47)
    assert list(map(words._descend, stream)) == expected
    assert sum(found is None for found in expected) >= len(stream) // 2


def test_the_memo_cut_moved_to_zero_gives_the_same_answers(monkeypatch):
    # one seeded stream on both sides of the memo cut and of the extension
    # memo's; each module that copies the cut reads it at call time, and at
    # 0 no memo is read
    stream = _seeded_stream(42, (1, 5, 64, 65, 1022, 1023, 4095, 4096, 4097))
    queries = [words.is_factor, lambda w: blocks.decompose(w, blocks.choose_level(w)),
               trace.trace_range, ktheory.reduce_class,
               lambda w: extensions.extension_set(w, 1, 1),
               lambda w: extensions.extension_set(w, 0, 1)]
    expected = [_outcome(query, w) for w in stream for query in queries]
    for module in (words, blocks, trace, ktheory, extensions):
        monkeypatch.setattr(module, "MAX_CACHED_LENGTH", 0)
    memos = (words._short_descent, blocks._short_decompose, extensions._short_extension_set)
    sizes = [memo.cache_info()[:2] for memo in memos]
    assert [_outcome(query, w) for w in stream for query in queries] == expected
    assert [memo.cache_info()[:2] for memo in memos] == sizes
    assert sum(found is False for found in expected[::len(queries)]) >= len(stream) // 3


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
    chunked = count_calls(words, "_descend_long")
    _pipeline(w)
    # at most one lift chain's letters for the six calls, and the located
    # descent lifts none; the five calls that descend w share one descent
    assert sum(map(len, lifted)) <= 2 * len(w) + 2 * 6
    assert chunked == [w]
    # nor does a rejected word, an alternating one included
    for bad in (w[:1000] + w[1000:1100] * 2 + w[1000] + w[1201:], "01" * 1500):
        lifted.clear()
        assert not words.is_factor(bad)
        assert sum(map(len, lifted)) < 2 * len(bad)


def test_a_located_word_is_never_lifted(count_calls):
    lifted = count_calls(words, "lift")
    completed = count_calls(blocks, "_complete")
    chunked = count_calls(words, "_descend_long")
    start = (1 << 45) + 3333  # a nonzero offset at every level
    for L in range(1, words.MAX_LOCATED_LENGTH + 1):
        w = letters(start, start + L)
        assert words._descend(w) is not None
        assert L < 3 or words._descend(w[:-3] + "000") is None
    assert chunked == []
    # nor is a longer word, which is located by chunks: one letter over the
    # cut, one over the memo's, and the longest word accepted
    for L in (words.MAX_LOCATED_LENGTH + 1, words.MAX_CACHED_LENGTH + 1, words.MAX_WORD_LENGTH):
        w = words.tm_slice(start, start + L)
        assert words._descend(w) is not None
        assert words._descend(w[:-3] + "000") is None
    assert len(chunked) == 6 and lifted == completed == []


def test_an_uncached_factor_is_lifted_once_per_public_call(count_calls):
    lifted = count_calls(words, "lift")
    w = words.tm_slice(-(1 << 33) - 77, -(1 << 33) - 77 + words.MAX_WORD_LENGTH)
    assert len(w) > words.MAX_CACHED_LENGTH
    chunked = count_calls(words, "_descend_long")
    _pipeline(w)
    # five calls descend w; complete_boundaries only its block word
    assert sum(map(len, lifted)) <= 10 * len(w) + 2 * 6
    assert len(chunked) <= 5


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
