"""Two-sided extension sets of factors.

ext(w, m, n) is the set of factors obtained from w by prepending m
letters and appending n letters.  For |w| >= 2 the two-sided one-letter
extension count is always 1, 2 or 4; the single letters are the only
words with count 3.

The extension lemma reads the one-letter extensions of a factor u off
its descent (`words._descent`), at every length.  Let (n, c) be u's
signature and g0, g1 the lengths of its left and right partial blocks:
g0 is the descent's top grid offset and g1 = (|u| - g0) mod 2**n.  So
u = gamma0 . c' . gamma1 with c' the full level-n blocks and c the
block word c' completed by the owner letters of the partial ones.

  Every occurrence of u is aligned with its level-n split.  A level of
  the descent groups a block string of at least four letters: one with a
  00 or 11 has that pair straddle a grid boundary wherever it occurs,
  and 0101 and 1010 occur only on the even grid (the odd one would
  need 111 or 000 one level up).  So by induction on the levels, each
  occurrence of u places c' on the sequence's own level-n blocks, and
  each nonempty partial block inside the block of its owner letter,
  which is unique, because the two level-n blocks are complements.
  The sequence is the n-fold image of itself, so its level-n block
  letters are the sequence again: the occurrences of u are exactly
  those of c, and every occurrence of c holds one of u.  (This is
  recognizability; B. Mosse, Theoret. Comput. Sci. 99, 1992.)

Hence a + u + b is a factor exactly when a = block(l, n)[2**n - g0 - 1]
and b = block(r, n)[g1] for a factor y + c + z of at most 8 letters
(`words._base_factors`, read once into `_contexts`), where l is c[0]
when g0 > 0 and y otherwise, and r is c[-1] when g1 > 0 and z
otherwise; block(j, n)[i] is j xor the parity of i.  A side with a
partial block has one forced letter; a free left letter is y xor
(n mod 2).  When n = 0 (|u| <= 4), c is u and the rule reads the table
directly.

`extension_set(w, m, n)` takes min(m, n) two-sided steps and then the
remaining one-sided ones, each reading the descent of every word it
extends (past the descent memo for the words it builds); a one-sided
step keeps the letters that some pair allows, because every factor
extends on both sides.

A call whose worst-case result is short is memoised the way
`words._descent` is: the memo runs the whole checked body on a miss and
stores no call that raises, so every key is a checked factor and a
repeated call is one lookup.  The worst case is 2**(m + n) words of
|w| + m + n letters, and only an exact str w with exact int m, n >= 0
whose worst case fits in `words.MAX_CACHED_LENGTH` letters is a key;
every other call runs the same body uncached.
"""

from functools import lru_cache

from .errors import ResourceLimitError
from .words import MAX_CACHED_LENGTH, _base_factors, _check_int, _descend, _factor_descent

MAX_EXTENSION_LENGTH = 4096


def extension_set(w: str, m: int, n: int) -> list:
    """All factors b0 + w + b1 with |b0| = m and |b1| = n, sorted, as a new list.

    Each step reads its words' extensions off their descents by the
    extension lemma (see the module docstring).
    """
    # MAX_CACHED_LENGTH >> (m + n) rather than (...) << (m + n): a huge
    # m + n must not build a huge int
    if (type(w) is str and type(m) is int and type(n) is int and m >= 0 and n >= 0
            and len(w) + m + n <= MAX_CACHED_LENGTH >> (m + n)):
        return list(_short_extension_set(w, m, n))
    return _extend(w, m, n)


def _extend(w: str, m: int, n: int) -> list:
    found = _factor_descent(w)
    m, n = _check_int(m, "m"), _check_int(n, "n")
    if m < 0 or n < 0:
        raise ValueError("extension lengths must be nonnegative")
    if m + n + len(w) > MAX_EXTENSION_LENGTH:
        raise ResourceLimitError(
            f"extended length {m + n + len(w)} exceeds {MAX_EXTENSION_LENGTH}")
    both = min(m, n)
    # a step keeps a[:left] and b[:right] of each pair (a, b); a set, since
    # two pairs of a one-sided step can give one word
    words = {w}
    for left, right in [(1, 1)] * both + [(1, 0)] * (m - both) + [(0, 1)] * (n - both):
        # the first step reads w's descent from the check above
        words = {a[:left] + u + b[:right] for u in words
                 for a, b in _letter_pairs(u, found if u is w else _descend(u))}
    return sorted(words)


def _letter_pairs(u: str, found: tuple) -> set:
    """The pairs (a, b) of letters with a + u + b a factor, by the extension
    lemma, from the descent `found` of the factor u."""
    offsets, (n, c) = found
    g0 = offsets[-1] if n else 0
    g1 = (len(u) - g0) & ((1 << n) - 1)
    # the letter left of u ends a block at index 2**n - g0 - 1, the letter
    # right of it begins one at index g1: lefts[l] and rights[r] for the
    # block letters l and r
    lefts = "10" if ((1 << n) - g0 - 1).bit_count() & 1 else "01"
    rights = "10" if g1.bit_count() & 1 else "01"
    if g0:
        lefts = lefts[int(c[0])] * 2
    if g1:
        rights = rights[int(c[-1])] * 2
    return {(lefts[y], rights[z]) for y, z in _contexts()[c]}


@lru_cache(maxsize=1)
def _contexts() -> dict:
    """Each factor c of at most 6 letters -> the pairs (y, z) of ints with
    y + c + z a factor, read from `words._base_factors`."""
    table = _base_factors()
    return {c: tuple((y, z) for y in (0, 1) for z in (0, 1) if f"{y}{c}{z}" in table)
            for c in table if len(c) <= 6}


# an entry holds its key word and at most MAX_CACHED_LENGTH result letters
@lru_cache(maxsize=1 << 11)
def _short_extension_set(w: str, m: int, n: int) -> tuple:
    return tuple(_extend(w, m, n))


def classify_extension_count(w: str) -> int:
    """|ext(w, 1, 1)|; lies in {1, 2, 4} for |w| >= 2 and equals 3 for letters."""
    return len(extension_set(w, 1, 1))
