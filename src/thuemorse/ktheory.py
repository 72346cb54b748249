"""The ordered K0 group of the Thue-Morse algebra and its trace image.

The group is the inductive limit of Z^2 under (a, b) -> (b, 2a + b),
where (a, b) at level n stands for a copies of the generator a_n (the
class of the three-block word 010 at level n) and b copies of b_n (the
class of 001 at level n).  The generator relations are a_n = 2 b_{n+1}
and b_n = a_{n+1} + b_{n+1}.  Every range projection class reduces to
these generators through the signature (n, c) of the word from
`blocks._signature`, the same one the trace reads: its class is that of
the block word c at level n.  The induced trace evaluation sends (a, b)
at level n to (a + b)/(6 * 2^n), landing in the rationals with
denominator dividing some 3 * 2^m.

The classes of the 50 block words of one to six letters are pinned as
BLOCK_CLASS_TABLE, so a signature's class is one lookup moved to level
n, as its trace is.  solve_block_class_table re-derives the table by
exact sparse rational elimination of the one-block splitting relations,
and the verification suite and the tests require the two to agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .blocks import _signature, complete_boundaries, decompose
from .errors import InvariantError, LevelError
from .words import factors_of_length, is_factor, require_factor


@dataclass(frozen=True)
class K0Element:
    """a * a_n + b * b_n at level n; not necessarily in normal form."""

    level: int
    a: int
    b: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    def as_dict(self) -> dict:
        return {"level": self.level, "a": self.a, "b": self.b}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def promote(e: K0Element) -> K0Element:
    """The same group element expressed one level up."""
    return K0Element(e.level + 1, e.b, 2 * e.a + e.b)


def normal_form(e: K0Element) -> K0Element:
    """Demote to the minimal level at which the element has a representative."""
    level, a, b = e.level, e.a, e.b
    while level > 0 and (b - a) % 2 == 0:
        level, a, b = level - 1, (b - a) // 2, a
    return K0Element(level, a, b)


def k0_equal(e1: K0Element, e2: K0Element) -> bool:
    return normal_form(e1) == normal_form(e2)


def k0_add(e1: K0Element, e2: K0Element) -> K0Element:
    while e1.level < e2.level:
        e1 = promote(e1)
    while e2.level < e1.level:
        e2 = promote(e2)
    return normal_form(K0Element(e1.level, e1.a + e2.a, e1.b + e2.b))


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
    return Fraction(e.a + e.b, 6 * 2 ** e.level)


def is_dyadic_third(q) -> bool:
    """Whether the denominator of q divides 3 * 2^m for some m."""
    d = Fraction(q).denominator
    while d % 2 == 0:
        d //= 2
    return d in (1, 3)


_GENERATOR_A_WORDS = ("010", "101")


def _generator_pair(c: str):
    """Coordinates of the class of a three-letter block word."""
    return (1, 0) if c in _GENERATOR_A_WORDS else (0, 1)


def _solve_unique(rows, rhs, n_unknowns):
    """Exact sparse Gauss-Jordan elimination; requires a unique solution.

    rows is a list of {column: coefficient} dicts and rhs the right-hand
    scalars; returns the solution list.  Each pivot step touches only
    the nonzeros of the pivot row, in the rows that hold its column.
    """
    m = []
    for row, x in zip(rows, rhs):
        r = {c: Fraction(v) for c, v in row.items() if v}
        if x:
            r[n_unknowns] = Fraction(x)  # the right-hand side as one more column
        m.append(r)
    free = list(range(len(m)))
    piv_rows = []
    for c in range(n_unknowns):
        r = next((i for i in free if c in m[i]), None)
        if r is None:
            raise InvariantError("block-class system is underdetermined")
        free.remove(r)
        pv = m[r][c]
        pivot = m[r] = {k: x / pv for k, x in m[r].items()}
        for i, row in enumerate(m):
            if i == r or c not in row:
                continue
            f = row[c]
            for k, x in pivot.items():
                y = row.get(k, 0) - f * x
                if y:
                    row[k] = y
                else:
                    del row[k]
        piv_rows.append(r)
    if any(m[i] for i in free):
        raise InvariantError("block-class system is inconsistent")
    return [m[r].get(n_unknowns, Fraction(0)) for r in piv_rows]


def solve_block_class_table() -> dict:
    """Classes of factor block words of lengths 1..6, solved from scratch.

    Values are (offset, a, b): the class equals a * a_m + b * b_m at
    level m = n + offset when the word sits on the level-n block grid.
    At the anchor offset 1 the generators (three letters) are a_n = (0, 2)
    and b_n = (1, 1), shorter words sum their right extensions, and the
    words of 4..6 letters solve one exact linear system.  Equations:
    one-block left/right splittings, full pair regroupings one level
    up, and unique boundary completions one level up (the last are
    needed to pin the two words that straddle next-level block
    boundaries on both sides).
    """
    fac = {L: factors_of_length(L) for L in range(1, 7)}
    fset = {L: set(ws) for L, ws in fac.items()}

    known = {}
    for c in fac[3]:
        ga, gb = _generator_pair(c)
        # express at the anchor: a_n = 2 b_{n+1}, b_n = a_{n+1} + b_{n+1}
        known[c] = (Fraction(gb), Fraction(2 * ga + gb))
    for c in fac[2] + fac[1]:  # longest first: right extensions are known
        vs = [known[c + k] for k in "01" if c + k in fset[len(c) + 1]]
        known[c] = (sum(v[0] for v in vs), sum(v[1] for v in vs))

    unknowns = [c for L in (4, 5, 6) for c in fac[L]]
    unknown_set = set(unknowns)
    # scalar unknowns: components (a, b) of each word class at the anchor
    col = {c: 2 * i for i, c in enumerate(unknowns)}
    n_cols = 2 * len(unknowns)
    rows, rhs = [], []

    def add_equation(terms):
        # terms: list of (coefficient 2x2 matrix or scalar, word)
        for comp in (0, 1):
            row = {}
            rh = Fraction(0)
            for coef, w in terms:
                if isinstance(coef, tuple):
                    c_a, c_b = coef[comp]
                else:
                    c_a, c_b = (coef, 0) if comp == 0 else (0, coef)
                if w in unknown_set:
                    for k, x in ((col[w], c_a), (col[w] + 1, c_b)):
                        row[k] = row.get(k, 0) + x
                else:
                    rh -= c_a * known[w][0] + c_b * known[w][1]
            if any(row.values()) or rh != 0:
                rows.append(row)
                rhs.append(rh)

    # splitting relations: [c] equals the sum over one-block extensions
    for L in (2, 3, 4, 5):
        for c in fac[L]:
            for exts in ([c + k for k in "01"], [k + c for k in "01"]):
                terms = [(Fraction(1), c)]
                terms += [(Fraction(-1), w) for w in exts if w in fset[L + 1]]
                add_equation(terms)

    # one level up, coordinates promote by m = (0 1; 2 1): a word whose
    # level-1 decomposition completes to the block word c_up satisfies
    # m * V(c) = V(c_up)
    promote_m = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)))
    for L in (4, 5, 6):
        for c in fac[L]:
            try:
                d = decompose(c, 1)
            except LevelError:
                continue
            completed = complete_boundaries(d)
            c_up = "".join("01"[bit] for bit in completed.blocks)
            add_equation([(promote_m, c), (Fraction(-1), c_up)])

    solved = _solve_unique(rows, rhs, n_cols)
    for i, c in enumerate(unknowns):
        known[c] = (solved[2 * i], solved[2 * i + 1])

    table = {}
    for L in range(1, 7):
        for c in fac[L]:
            va, vb = known[c]
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
    are unique.
    """
    return _block_word_class(*_signature(require_factor(w)))


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
