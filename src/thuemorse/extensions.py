"""Two-sided extension sets of factors.

ext(w, m, n) is the set of factors obtained from w by prepending m
letters and appending n letters.  For |w| >= 2 the two-sided one-letter
extension count is always 1, 2 or 4; the single letters are the only
words with count 3.

Every factor of at most 2**k + 1 letters occurs in t = sigma^k(00110)
(`words._text`; the argument is in `words._descent`).  So, with L =
|w| + m + n and the least such k, ext(w, m, n) is exactly the set of
windows t[q - m : q + |w| + n] around the occurrences q of w in t that
the window fits: each window is a factor, because t is one, and each
extension, a factor of L letters, occurs in t with w at offset m.

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
from .words import MAX_CACHED_LENGTH, _check_int, _factor_descent, _text

MAX_EXTENSION_LENGTH = 4096


def extension_set(w: str, m: int, n: int) -> list:
    """All factors b0 + w + b1 with |b0| = m and |b1| = n, sorted, as a new list.

    Each is a window of one text around an occurrence of w (see the
    module docstring).
    """
    # MAX_CACHED_LENGTH >> (m + n) rather than (...) << (m + n): a huge
    # m + n must not build a huge int
    if (type(w) is str and type(m) is int and type(n) is int and m >= 0 and n >= 0
            and len(w) + m + n <= MAX_CACHED_LENGTH >> (m + n)):
        return list(_short_extension_set(w, m, n))
    return _extend(w, m, n)


def _extend(w: str, m: int, n: int) -> list:
    _factor_descent(w)
    m, n = _check_int(m, "m"), _check_int(n, "n")
    if m < 0 or n < 0:
        raise ValueError("extension lengths must be nonnegative")
    if m + n + len(w) > MAX_EXTENSION_LENGTH:
        raise ResourceLimitError(
            f"extended length {m + n + len(w)} exceeds {MAX_EXTENSION_LENGTH}")
    L = len(w) + m + n
    t = _text(max(L - 2, 0).bit_length())
    # the occurrences of w in t[m:len(t) - n], where its window fits
    found, q = set(), t.find(w, m, len(t) - n)
    while q >= 0:
        found.add(t[q - m:q - m + L])
        q = t.find(w, q + 1, len(t) - n)
    return sorted(found)


# an entry holds its key word and at most MAX_CACHED_LENGTH result letters
@lru_cache(maxsize=1 << 11)
def _short_extension_set(w: str, m: int, n: int) -> tuple:
    return tuple(_extend(w, m, n))


def classify_extension_count(w: str) -> int:
    """|ext(w, 1, 1)|; lies in {1, 2, 4} for |w| >= 2 and equals 3 for letters."""
    return len(extension_set(w, 1, 1))
