"""The ordered K0 group of the Thue-Morse algebra and its trace image.

The group is the inductive limit of Z^2 under (a, b) -> (b, 2a + b),
where (a, b) at level n stands for a copies of the generator a_n (the
class of the three-block word 010 at level n) and b copies of b_n (the
class of 001 at level n).  The generator relations are a_n = 2 b_{n+1}
and b_n = a_{n+1} + b_{n+1}.  Every range projection class reduces to
these generators through the signature (n, c) of the word, read off
its descent as the trace reads it: its class is that of
the block word c at level n.  The induced trace evaluation sends (a, b)
at level n to (a + b)/(6 * 2^n), landing in the rationals with
denominator dividing some 3 * 2^m.

The classes of the 50 block words of one to six letters are pinned as
BLOCK_CLASS_TABLE, so a signature's class is one lookup moved to level
n, as its trace is.  solve_block_class_table re-derives the table by
recursion: each class comes from the generators, from its one-letter
extensions, or from the shorter block word its level-1 regrouping
completes to; it then checks every one-block splitting relation, and
the verification suite and the tests require the two tables to agree.
"""

from fractions import Fraction
from functools import lru_cache

from ._value import value_base
from .blocks import complete_boundaries, decompose
from .errors import InvariantError, LevelError, ResourceLimitError
from .words import (MAX_CACHED_LENGTH, _factor_descent, _from_bits, _not_a_factor,
                    _short_descent, factors_of_length, is_factor, require_factor)

# Highest level `evaluate` accepts.  Its value has a 6 * 2**level
# denominator, and 2**8192 has 2 467 digits, inside Python's default
# limit of 4 300 digits for int-to-str conversion.  Levels reached from
# words are at most 21.
MAX_EVALUATE_LEVEL = 1 << 13


class K0Element(value_base("level a b")):
    """a * a_n + b * b_n at level n; not necessarily in normal form."""

    __slots__ = ()

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")


def promote(e: K0Element) -> K0Element:
    """The same group element expressed one level up."""
    return K0Element(e.level + 1, e.b, 2 * e.a + e.b)


def normal_form(e: K0Element) -> K0Element:
    """Demote to the minimal level at which the element has a representative.

    In s = a + b and d = 2a - b, promotion sends (s, d) to (2s, -d), so
    demotion halves s and flips d while s is even: j = min(level, v2(s))
    levels at once, or every level when s = 0.  Then a = (s + d)/3 and
    b = (2s - d)/3 are exact, since s + d = 3a and (-2)^j = 1 (mod 3).
    """
    s, d = e.a + e.b, 2 * e.a - e.b
    j = e.level if s == 0 else min(e.level, (s & -s).bit_length() - 1)
    s, d = s >> j, -d if j & 1 else d
    return K0Element(e.level - j, (s + d) // 3, (2 * s - d) // 3)


def k0_equal(e1: K0Element, e2: K0Element) -> bool:
    return normal_form(e1) == normal_form(e2)


def k0_add(e1: K0Element, e2: K0Element) -> K0Element:
    """Sum in normal form.  Both sides reach the higher level in one step:
    k promotions send (s, d) to (2^k s, (-1)^k d)."""
    level = max(e1.level, e2.level)
    s = d = 0
    for e in (e1, e2):
        k = level - e.level
        s += (e.a + e.b) << k
        d += (e.b - 2 * e.a) if k & 1 else (2 * e.a - e.b)
    return normal_form(K0Element(level, (s + d) // 3, (2 * s - d) // 3))


def k0_neg(e: K0Element) -> K0Element:
    return normal_form(K0Element(e.level, -e.a, -e.b))


def is_positive(e: K0Element) -> bool:
    """Whether some promotion of e has both coordinates nonnegative.

    Promotion has eigenvalues 2 and -1 with positive eigenvector (1, 2),
    so eventual nonnegativity is decided by the dominant-eigenvector
    functional a + b; the (-1)-component never changes magnitude.
    """
    return e.a + e.b > 0 or (e.a, e.b) == (0, 0)


def evaluate(e: K0Element) -> Fraction:
    """Trace evaluation: (a + b)/(6 * 2^level); promote-invariant."""
    if e.level > MAX_EVALUATE_LEVEL:
        raise ResourceLimitError(f"level {e.level} exceeds {MAX_EVALUATE_LEVEL}")
    return Fraction(e.a + e.b, 6 * 2 ** e.level)


def is_dyadic_third(q) -> bool:
    """Whether the denominator of q divides 3 * 2^m for some m."""
    d = Fraction(q).denominator
    return d // (d & -d) in (1, 3)  # d & -d is the largest power of 2 dividing d


_GENERATOR_A_WORDS = ("010", "101")


def _generator_pair(c: str):
    """Coordinates of the class of a three-letter block word."""
    return (1, 0) if c in _GENERATOR_A_WORDS else (0, 1)


def solve_block_class_table() -> dict:
    """Classes of factor block words of lengths 1..6, derived afresh.

    Values are (offset, a, b): the class equals a * a_m + b * b_m at
    level m = n + offset when the word sits on the level-n block grid.
    At the anchor offset 1 the generators (three letters) are a_n = (0, 2)
    and b_n = (1, 1), and every other class is read off by recursion.
    Words of one or two letters sum their right extensions.  A word of
    4..6 letters whose level-1 decomposition completes to the block word
    c_up satisfies m * V(c) = V(c_up), where m = (0 1; 2 1) promotes
    coordinates one level up; c_up is shorter, so V(c) = m^-1 * V(c_up).
    The four-letter words without a level-1 regrouping sum their
    five-letter right extensions, which regroup to three letters.  So
    the table is determined by construction, every regrouping relation
    holds by construction, and the one-block splittings of 2..5 letters
    on both sides are checked; a word of five or six letters without a
    regrouping, or a regrouping that does not shorten, is an error.
    """
    fset = {L: set(factors_of_length(L)) for L in range(1, 7)}

    def split(c, left):
        """Sum of the classes of the one-letter extensions of c on one side."""
        vs = [value(w) for w in (k + c if left else c + k for k in "01")
              if w in fset[len(w)]]
        return sum(v[0] for v in vs), sum(v[1] for v in vs)

    @lru_cache(maxsize=None)
    def value(c):
        """(a, b) at the anchor offset 1, as Fractions."""
        if len(c) == 3:
            ga, gb = _generator_pair(c)
            # express at the anchor: a_n = 2 b_{n+1}, b_n = a_{n+1} + b_{n+1}
            return Fraction(gb), Fraction(2 * ga + gb)
        if len(c) < 3:
            return split(c, False)
        try:
            d = decompose(c, 1)
        except LevelError:
            if len(c) != 4:
                raise InvariantError(f"{c!r} has no level-1 regrouping") from None
            return split(c, False)
        c_up = _from_bits(complete_boundaries(d).blocks)
        if len(c_up) >= len(c):
            raise InvariantError(f"regrouping {c!r} as {c_up!r} does not shorten it")
        a, b = value(c_up)
        return (b - a) / 2, a

    for L in (2, 3, 4, 5):
        for c in sorted(fset[L]):
            if not value(c) == split(c, False) == split(c, True):
                raise InvariantError(f"block-class splitting fails at {c!r}")

    table = {}
    for L in range(1, 7):
        for c in sorted(fset[L]):
            va, vb = value(c)
            offset = 1
            while va.denominator != 1 or vb.denominator != 1:
                va, vb = vb, 2 * va + vb
                offset += 1
                if offset > 64:
                    raise InvariantError(f"class of {c!r} does not become integral")
            table[c] = (offset, int(va), int(vb))
    return table


# solve_block_class_table(), pinned; word -> (offset, a, b)
BLOCK_CLASS_TABLE = {
    "0": (1, 2, 4), "1": (1, 2, 4),
    "00": (1, 1, 1), "01": (1, 1, 3), "10": (1, 1, 3), "11": (1, 1, 1),
    "001": (1, 1, 1), "010": (1, 0, 2), "011": (1, 1, 1), "100": (1, 1, 1),
    "101": (1, 0, 2), "110": (1, 1, 1),
    "0010": (1, 0, 1), "0011": (1, 1, 0), "0100": (1, 0, 1), "0101": (1, 0, 1),
    "0110": (1, 1, 1), "1001": (1, 1, 1), "1010": (1, 0, 1), "1011": (1, 0, 1),
    "1100": (1, 1, 0), "1101": (1, 0, 1),
    "00101": (1, 0, 1), "00110": (1, 1, 0), "01001": (1, 0, 1), "01011": (1, 0, 1),
    "01100": (1, 1, 0), "01101": (1, 0, 1), "10010": (1, 0, 1), "10011": (1, 1, 0),
    "10100": (1, 0, 1), "10110": (1, 0, 1), "11001": (1, 1, 0), "11010": (1, 0, 1),
    "001011": (1, 0, 1), "001100": (2, 0, 1), "001101": (2, 0, 1), "010010": (2, 1, 0),
    "010011": (2, 0, 1), "010110": (1, 0, 1), "011001": (1, 1, 0), "011010": (1, 0, 1),
    "100101": (1, 0, 1), "100110": (1, 1, 0), "101001": (1, 0, 1), "101100": (2, 0, 1),
    "101101": (2, 1, 0), "110010": (2, 0, 1), "110011": (2, 0, 1), "110100": (1, 0, 1),
}


# keys are signatures: at most 21 levels times 50 block words
@lru_cache(maxsize=1 << 11)
def _block_word_class(n: int, c: str) -> K0Element:
    """Class of the expansion of the block word c at level n."""
    offset, a, b = BLOCK_CLASS_TABLE[c]
    return normal_form(K0Element(n + offset, a, b))


def reduce_class(w: str) -> K0Element:
    """The K0 class of the range projection of a factor, in normal form.

    The class of w is that of its signature (n, c): the boundary
    completion preserves the class because the completing extensions
    are unique.  An exact str of at most MAX_CACHED_LENGTH letters is
    memoised, as `words._descent` is: the memo stores no call that
    raises, so a repeat is one lookup.
    """
    if type(w) is str and len(w) <= MAX_CACHED_LENGTH:
        return _short_reduce_class(w)
    return _block_word_class(*_factor_descent(w)[1])


# an entry holds its key word and one K0Element
@lru_cache(maxsize=1 << 9)
def _short_reduce_class(w: str) -> K0Element:
    # `_descent` sends w to its memo too, so the memo is read directly
    found = _short_descent(w)
    if found is None:
        raise _not_a_factor(w)
    return _block_word_class(*found[1])


def apply_i_minus_phi(comb: dict) -> dict:
    """One minus the range-splitting operator on formal integer combinations.

    Sends the indicator of the range of alpha to itself minus the
    indicators of the ranges of alpha0 and alpha1, dropping extensions
    that are not factors (their ranges are empty).
    """
    out = {}
    for word, coeff in comb.items():
        require_factor(word)
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be integers")
        if coeff == 0:
            continue
        out[word] = out.get(word, 0) + coeff
        for a in "01":
            ext = word + a
            if is_factor(ext):
                out[ext] = out.get(ext, 0) - coeff
    return {w: c for w, c in out.items() if c != 0}
