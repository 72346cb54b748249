"""Two-sided extension sets of factors.

ext(w, m, n) is the set of factors obtained from w by prepending m
letters and appending n letters.  For |w| >= 2 the two-sided one-letter
extension count is always 1, 2 or 4; the single letters are the only
words with count 3.
"""

from .errors import ResourceLimitError
from .words import is_factor, require_factor

MAX_EXTENSION_LENGTH = 4096


def extension_set(w: str, m: int, n: int) -> list:
    """All factors b0 + w + b1 with |b0| = m and |b1| = n, sorted.

    Built letter by letter with factor pruning, which is exact because
    every subword of a factor is a factor.
    """
    require_factor(w)
    if m < 0 or n < 0:
        raise ValueError("extension lengths must be nonnegative")
    if m + n + len(w) > MAX_EXTENSION_LENGTH:
        raise ResourceLimitError(
            f"extended length {m + n + len(w)} exceeds {MAX_EXTENSION_LENGTH}")
    words = [w]
    for _ in range(n):
        words = [u + a for u in words for a in "01" if is_factor(u + a)]
    for _ in range(m):
        words = [a + u for u in words for a in "01" if is_factor(a + u)]
    return sorted(words)


def classify_extension_count(w: str) -> int:
    """|ext(w, 1, 1)|; lies in {1, 2, 4} for |w| >= 2 and equals 3 for letters."""
    return len(extension_set(w, 1, 1))
