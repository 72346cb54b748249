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

from thuemorse import blocks, ktheory, trace, words
from thuemorse.errors import InvariantError
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


def _count_lifted_letters(monkeypatch) -> list:
    lifted = [0]
    real = words.lift

    def counting(s, phase):
        lifted[0] += len(s)
        return real(s, phase)

    monkeypatch.setattr(words, "lift", counting)
    return lifted


def _pipeline(w: str):
    words.is_factor(w)
    blocks.complete_boundaries(blocks.decompose(w, blocks.choose_level(w)))
    trace.trace_range(w)
    ktheory.reduce_class(w)


def test_a_fresh_factor_is_lifted_once(monkeypatch):
    lifted = _count_lifted_letters(monkeypatch)
    w = letters((1 << 47) + 919, (1 << 47) + 3919)  # a word no other test builds
    assert len(w) <= words.MAX_CACHED_LENGTH
    _pipeline(w)
    # one descent for the six calls, and complete_boundaries checks the
    # completed block word of at most six letters
    assert lifted[0] <= 2 * len(w) + 2 * 6
    # an alternating non-factor lifts |w| letters on phase 0, and its
    # parent of one repeated letter stops the next lift
    for bad in (w[:1000] + w[1000:1100] * 2 + w[1000] + w[1201:], "01" * 1500):
        lifted[0] = 0
        assert not words.is_factor(bad)
        assert lifted[0] < 2 * len(bad)


def test_an_uncached_factor_is_lifted_once_per_public_call(monkeypatch):
    lifted = _count_lifted_letters(monkeypatch)
    w = words.tm_slice(-(1 << 33) - 77, -(1 << 33) - 77 + words.MAX_WORD_LENGTH)
    assert len(w) > words.MAX_CACHED_LENGTH
    _pipeline(w)
    # five calls descend w; complete_boundaries only its block word
    assert lifted[0] <= 10 * len(w) + 2 * 6
