"""The unique shift-invariant letter-frequency state, evaluated exactly.

Every factor w has a well-defined frequency in the Thue-Morse sequence,
and the frequencies are the values of the unique tracial state on range
projections.  They are defined by a peeling rule: every length-3 factor
has value 1/6, and prepending a letter to a word of length >= 3 keeps
the value when the complementary extension is impossible and halves it
when both extensions occur.  Lengths 1 and 2 are fixed by additivity
over left extensions.

Peeling costs O(|w|^2), so it only fills the table of the 50 factors
of at most six letters, once at import.  Every other word is read off
its signature (n, c), the top of its descent (`words._descent`):
completed at both ends, w is the level-n expansion of the block word c
of 2..6 letters, and trace(w) = trace(c) / 2^n, which is O(|w|).
Every value has the form 1/(3 * 2^m) or 1/(6 * 2^m) (Dekking, Acta
Univ. Carolinae Math. Phys. 33, 1992).  All arithmetic is exact
rational.  The empirical oracle `frequency` counts occurrences in a
prefix by the substitution recursion, which reads O(log N) letters
instead of the prefix itself.
"""

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceLimitError
from .words import (MAX_CACHED_LENGTH, _check_int, _check_word, _descend, _factor_descent,
                    _factors_upto, _not_a_factor, _prefix_count, _short_descent, complement,
                    is_factor, require_factor)

MAX_FREQUENCY_WINDOW = 1 << 26
MAX_BLOCK_TRACE_LEVEL = 30
# Highest level of `matrix_iterate` and `uniqueness_interval`: their
# values have 2**N denominators, and 2**8192 has 2 467 digits, inside
# Python's default limit of 4 300 digits for int-to-str conversion.
MAX_MATRIX_LEVEL = 1 << 13
# Largest bit length of t's denominator in `matrix_iterate`.  Its values'
# denominators divide 3 * 2**(N + 1) times t's, so at both caps they have
# at most 12 291 bits (3 700 digits), and every accepted (t, N) prints.
MAX_MATRIX_T_BITS = 1 << 12
# Longest str t that `matrix_iterate` parses, and largest size of its
# decimal exponent.  Fraction builds 10**|exponent| before it reduces, so
# "1e-10000000" took seconds to parse before MAX_MATRIX_T_BITS refused it.
# Every t that MAX_MATRIX_T_BITS admits has a literal within both caps,
# its p/q form of at most 2 * 1 234 digits.
MAX_MATRIX_T_LITERAL = 1 << 13
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)")
# every completed block word has at most six letters
MAX_PEEL_LENGTH = 6

_HALF = Fraction(1, 2)


def _peel(w: str) -> Fraction:
    """The trace of a factor by the peeling rule; O(|w|^2) membership tests."""
    if len(w) < 3:
        total = Fraction(0)
        for a in ("0", "1"):
            if is_factor(a + w):
                total += _peel(a + w)
        return total
    value = Fraction(1, 6)
    # peel leading letters off successively longer suffixes of w; most
    # complementary extensions fail in their first 8 letters (memoised)
    for k in range(len(w) - 4, -1, -1):
        u = complement(w[k]) + w[k + 1:]
        if is_factor(u[:8]) and is_factor(u):
            value /= 2
    return value


_BLOCK_WORD_TRACE = {c: _peel(c) for c in _factors_upto(MAX_PEEL_LENGTH)}


# keys are signatures: at most 21 levels times 50 block words
@lru_cache(maxsize=1 << 11)
def _block_word_trace(n: int, c: str) -> Fraction:
    """Trace of the expansion of the block word c at level n."""
    return _BLOCK_WORD_TRACE[c] / 2 ** n


def trace_range(w: str) -> Fraction:
    """Trace of the range projection of w = frequency of w in the sequence.

    Read off the signature of w's descent, so a repeated exact str of at
    most MAX_CACHED_LENGTH letters is two memo lookups.
    """
    # `words._descent`'s dispatch inline: a call through it adds a frame to every hit
    found = _short_descent(w) if type(w) is str and len(w) <= MAX_CACHED_LENGTH else _descend(w)
    if found is None:
        raise _not_a_factor(w)
    return _block_word_trace(*found[1])


def _family_signatures(words) -> dict:
    """Each member of a valid disjoint union of ranges, with its signature."""
    members = tuple(words)
    if not members:
        raise ValueError("a range family needs at least one member")
    if len(set(members)) != len(members):
        raise ValueError("range family members must be pairwise distinct")
    lengths = {len(u) for u in members}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("range family members must share one positive length")
    return {u: _factor_descent(u)[1] for u in members}


def trace_family(words) -> Fraction:
    """Trace of a disjoint union of range projections."""
    return sum((_block_word_trace(*s) for s in _family_signatures(words).values()),
               Fraction(0))


def trace_spanning(alpha: str, beta: str, words) -> Fraction:
    """Trace of a spanning element s_alpha p_A s_beta*.

    Vanishes unless alpha = beta; the projection part only sees members
    whose range lies inside r(alpha), i.e. members with suffix alpha.
    """
    _check_word(alpha, allow_empty=True)
    _check_word(beta, allow_empty=True)
    family = _family_signatures(words)
    if alpha != beta:
        return Fraction(0)
    return sum((_block_word_trace(*s) for u, s in family.items() if u.endswith(alpha)),
               Fraction(0))


def block_trace(i: int, j: int, n: int) -> Fraction:
    """Closed-form trace of the two-block word i^(n) j^(n)."""
    i, j, n = _check_int(i, "i"), _check_int(j, "j"), _check_int(n, "n")
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("block letters must be 0 or 1")
    if not 0 <= n <= MAX_BLOCK_TRACE_LEVEL:
        raise ValueError(f"level must lie in [0, {MAX_BLOCK_TRACE_LEVEL}]")
    if i == j:
        return Fraction(1, 6 * 2 ** n)
    return Fraction(1, 3 * 2 ** n)


def matrix_iterate(t, n: int):
    """Level-n pair (value of 00-blocks, value of 01-blocks) given t at level 0.

    The inverse step matrix (-1/2 1/2; 1 0) has eigenvalues 1/2 and -1,
    so with u = 3t - 1/2 the pair is ((2^-(n+1) + (-1)^n u)/3,
    (2^-n - (-1)^n u)/3), read off without iterating.
    """
    n = _check_int(n, "n")
    t = _parse_t(t)
    if not 0 <= t <= _HALF:
        raise ValueError("t must lie in [0, 1/2]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_MATRIX_LEVEL:
        raise ResourceLimitError(f"n {n} exceeds {MAX_MATRIX_LEVEL}")
    if t.denominator.bit_length() > MAX_MATRIX_T_BITS:
        raise ResourceLimitError(f"denominator of t has {t.denominator.bit_length()} bits, "
                                 f"exceeds {MAX_MATRIX_T_BITS}")
    u = (3 * t - _HALF) * (-1) ** n
    return ((_HALF ** (n + 1) + u) / 3, (_HALF ** n - u) / 3)


def _parse_t(t) -> Fraction:
    """Fraction(t); a str t is first held to MAX_MATRIX_T_LITERAL in its
    length and in the size of its decimal exponent (ResourceLimitError)."""
    if isinstance(t, str):
        if len(t) > MAX_MATRIX_T_LITERAL:
            raise ResourceLimitError(
                f"t literal has {len(t)} characters, exceeds {MAX_MATRIX_T_LITERAL}")
        exponent = _EXPONENT.search(t)
        digits = exponent[1].replace("_", "") if exponent else ""
        # more than four digits after the leading zeros is past 8192 already
        if len(digits) > 4 or int(digits or "0") > MAX_MATRIX_T_LITERAL:
            raise ResourceLimitError(
                f"decimal exponent of t exceeds {MAX_MATRIX_T_LITERAL} in size")
    return Fraction(t)


def uniqueness_interval(N: int):
    """The open interval of t with both level-n values positive for n <= N.

    Level n asks u = 3t - 1/2 to lie in (-2^-(n+1), 2^-n) for even n and
    in (-2^-n, 2^-(n+1)) for odd n.  These intervals are nested, so level
    N alone fixes the answer.  It shrinks to the single admissible value
    1/6 as N grows; the width is at most 2**-N.
    """
    N = _check_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > MAX_MATRIX_LEVEL:
        raise ResourceLimitError(f"N {N} exceeds {MAX_MATRIX_LEVEL}")
    odd = N % 2
    return ((_HALF - _HALF ** (N + 1 - odd)) / 3, (_HALF + _HALF ** (N + odd)) / 3)


def frequency(w: str, N: int) -> Fraction:
    """Occurrence count of w among the first N letters over window count.

    An exact rational; by unique ergodicity it converges to
    trace_range(w) as N grows.  The count comes from the substitution
    recursion of `words._prefix_count`, which halves N per level and
    never builds the prefix, so it costs O(|w| + log N).
    """
    N = _check_int(N, "N")
    require_factor(w)
    if N > MAX_FREQUENCY_WINDOW:
        raise ResourceLimitError(f"window {N} exceeds {MAX_FREQUENCY_WINDOW}")
    if N < len(w):
        raise ValueError("window must be at least as long as the word")
    return Fraction(_prefix_count(w, N), N - len(w) + 1)
