"""Two-sided extension sets of factors.

ext(w, m, n) is the set of factors obtained from w by prepending m
letters and appending n letters.  For |w| >= 2 the two-sided one-letter
extension count is always 1, 2 or 4; the single letters are the only
words with count 3.

The set is grown one letter at a time, and each candidate is kept when
it is a factor; this pruning is exact because every subword of a factor
is a factor.  When |w| + m + n <= `words.MAX_FACTOR_LENGTH` a candidate
is a factor exactly when it occurs in the prefix of
`words._factor_window(|w| + m + n)` letters, since every factor of that
length occurs there (`test_factors_of_length_counts`) and so does each
of its prefixes; one substring search replaces a descent.  Longer
candidates are tested by `is_factor`.

A call whose worst-case result is short is memoised the way
`words._descent` is: the memo runs the whole checked body on a miss and
stores no call that raises, so every key is a checked factor and a
repeated call is one lookup.  The worst case is 2**(m + n) words of
|w| + m + n letters, and only an exact str w with exact int m, n >= 0
whose worst case fits in `words.MAX_CACHED_LENGTH` letters is a key;
every other call runs the same body uncached.
"""

import operator
from functools import lru_cache

from .errors import ResourceLimitError
from .words import (MAX_CACHED_LENGTH, MAX_FACTOR_LENGTH, _factor_window, is_factor,
                    require_factor, tm_prefix)

MAX_EXTENSION_LENGTH = 4096


def extension_set(w: str, m: int, n: int) -> list:
    """All factors b0 + w + b1 with |b0| = m and |b1| = n, sorted, as a new list.

    Each candidate is tested against the factor window when
    |w| + m + n <= MAX_FACTOR_LENGTH, and by `is_factor` above it (see
    the module docstring).
    """
    # MAX_CACHED_LENGTH >> (m + n) rather than (...) << (m + n): a huge
    # m + n must not build a huge int
    if (type(w) is str and type(m) is int and type(n) is int and m >= 0 and n >= 0
            and len(w) + m + n <= MAX_CACHED_LENGTH >> (m + n)):
        return list(_short_extension_set(w, m, n))
    return _extend(w, m, n)


def _extend(w: str, m: int, n: int) -> list:
    require_factor(w)
    if m < 0 or n < 0:
        raise ValueError("extension lengths must be nonnegative")
    if m + n + len(w) > MAX_EXTENSION_LENGTH:
        raise ResourceLimitError(
            f"extended length {m + n + len(w)} exceeds {MAX_EXTENSION_LENGTH}")
    # range()'s TypeError for a float m or n, raised before a window is read
    m, n = operator.index(m), operator.index(n)
    length = len(w) + m + n
    member = (tm_prefix(_factor_window(length)).__contains__ if length <= MAX_FACTOR_LENGTH
              else is_factor)
    words = [w]
    for _ in range(n):
        words = [u + a for u in words for a in "01" if member(u + a)]
    for _ in range(m):
        words = [a + u for u in words for a in "01" if member(a + u)]
    return sorted(words)


# an entry holds its key word and at most MAX_CACHED_LENGTH result letters
@lru_cache(maxsize=1 << 11)
def _short_extension_set(w: str, m: int, n: int) -> tuple:
    return tuple(_extend(w, m, n))


def classify_extension_count(w: str) -> int:
    """|ext(w, 1, 1)|; lies in {1, 2, 4} for |w| >= 2 and equals 3 for letters."""
    return len(extension_set(w, 1, 1))
