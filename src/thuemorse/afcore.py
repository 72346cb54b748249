"""Finite-dimensional levels of the gauge-fixed-point algebra.

Level k is a commutative algebra with one minimal projection per factor
of length 2k; the inclusion into level k+1 sends the projection indexed
by mu to the sum of the projections indexed by the two-sided one-letter
extensions b mu a.  The inclusion matrices together with the basis sizes
are the Bratteli data of the tower, and the trace vectors are
compatible with the inclusions.
"""

from fractions import Fraction
from functools import lru_cache

from ._value import value_base
from .errors import ResourceLimitError
from .trace import trace_range
from .words import _check_int, factors_of_length

MAX_LEVEL = 12


class AfLevel(value_base("k basis")):
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)


class InclusionMatrix(value_base("k entries")):
    """0/1 matrix of the inclusion of level k into level k+1.

    entries[row][col] = 1 iff the row word equals the column word with
    one letter added on each side; rows are indexed by the level-(k+1)
    basis, columns by the level-k basis.
    """

    __slots__ = ()

    def column_sums(self) -> list:
        return [sum(row[j] for row in self.entries) for j in range(len(self.entries[0]))]

    def row_sums(self) -> list:
        return [sum(row) for row in self.entries]


def _check_level(k: int) -> None:
    if not 1 <= k <= MAX_LEVEL:
        raise ResourceLimitError(f"level must lie in [1, {MAX_LEVEL}]")


# a lone int argument is its own key and a float's is a tuple, so af_level(2.0)
# misses af_level(2)'s entry and reaches the check
@lru_cache(maxsize=MAX_LEVEL)
def af_level(k: int) -> AfLevel:
    """Level k of the tower: basis = factors of length 2k, sorted."""
    k = _check_int(k, "k")
    _check_level(k)
    return AfLevel(k, tuple(factors_of_length(2 * k)))


def inclusion_matrix(k: int) -> InclusionMatrix:
    """Inclusion of level k into level k+1 as a 0/1 matrix."""
    k = _check_int(k, "k")
    if not 1 <= k <= MAX_LEVEL - 1:
        raise ResourceLimitError(f"level must lie in [1, {MAX_LEVEL - 1}]")
    cols = af_level(k).basis
    rows = af_level(k + 1).basis
    col_index = {mu: j for j, mu in enumerate(cols)}
    entries = []
    for mu_up in rows:
        row = [0] * len(cols)
        row[col_index[mu_up[1:-1]]] = 1
        entries.append(tuple(row))
    return InclusionMatrix(k, tuple(entries))


def trace_vector(k: int) -> list:
    """Trace of each basis projection at level k, in basis order, as a new list."""
    return list(_trace_vector(k))


@lru_cache(maxsize=MAX_LEVEL)
def _trace_vector(k: int) -> tuple:
    return tuple(trace_range(mu) for mu in af_level(k).basis)


def push_trace_down(matrix: InclusionMatrix, upper: list) -> list:
    """transpose(inclusion) applied to a level-(k+1) trace vector."""
    n_cols = len(matrix.entries[0])
    if len(upper) != len(matrix.entries):
        raise ValueError("vector length does not match matrix rows")
    out = [Fraction(0)] * n_cols
    for row, value in zip(matrix.entries, upper):
        for j, bit in enumerate(row):
            if bit:
                out[j] += value
    return out


def bratteli_data(kmax: int) -> dict:
    """Levels and inclusion matrices up to kmax, JSON-ready."""
    _check_level(kmax)
    levels = []
    for k in range(1, kmax + 1):
        level = af_level(k)
        levels.append({"k": k, "dimension": level.dimension, "basis": list(level.basis)})
    matrices = []
    for k in range(1, kmax):
        matrices.append({"k": k, "entries": [list(r) for r in inclusion_matrix(k).entries]})
    return {"levels": levels, "matrices": matrices}


def bratteli_json(kmax: int) -> str:
    import json  # only callers that print JSON pay for the import
    return json.dumps(bratteli_data(kmax))


def bratteli_dot(kmax: int) -> str:
    """The Bratteli diagram as a DOT digraph, one rank per level."""
    _check_level(kmax)
    lines = ["digraph bratteli {", "  rankdir=TB;", "  node [shape=point];"]
    for k in range(1, kmax + 1):
        names = " ".join(f'"L{k}_{mu}"' for mu in af_level(k).basis)
        lines.append(f"  {{ rank=same; {names} }}")
    for k in range(1, kmax):
        cols = af_level(k).basis
        rows = af_level(k + 1).basis
        for row_word, row in zip(rows, inclusion_matrix(k).entries):
            for j, bit in enumerate(row):
                if bit:
                    lines.append(f'  "L{k}_{cols[j]}" -> "L{k + 1}_{row_word}";')
    lines.append("}")
    return "\n".join(lines)
