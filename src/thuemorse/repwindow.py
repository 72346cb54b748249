"""Finite-window model of the shift representation on two-sided sequences.

The two generator operators act on basis vectors indexed by integers in
[-W, W]: T_i sends v_n to v_{n-1} exactly when the sequence letter at
n-1 is i, and to zero when the shift would leave the window.  Every
operator in the defining relations is a partial shift with a 0/1 mask,
so `axiom_residuals` checks the relations as integer identities of
plain vectors: the letter masks [x[n-1] = a] and the range diagonals,
which are read off the letter string x[-W..W-1], held as float32 so
that their Gram product runs on BLAS, with every value an exact
integer.  The relations hold with residual exactly zero on the interior
band where the truncation is invisible.  The sparse matrices of
`build_generators`, `word_operator` and `range_projection` are built
only when asked for, and only they load scipy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceLimitError
from .words import _check_word, factors_of_length, require_factor, tm_slice

if TYPE_CHECKING:
    from scipy import sparse

MAX_HALF_WIDTH = 1 << 20
# Largest (factor count) x (2W + 1) that `axiom_residuals` holds as range
# diagonals: 2.8 times the 92 x 32 769 of `verify --full`, 32 MB of float32.
MAX_RESIDUAL_CELLS = 1 << 23


@dataclass(frozen=True)
class WindowOperator:
    """A sparse integer matrix acting on basis indices -W..W."""

    W: int
    matrix: sparse.csr_matrix

    @property
    def size(self) -> int:
        return 2 * self.W + 1


def _letters(W: int) -> np.ndarray:
    # letter at position n stored at array index n + W
    s = tm_slice(-W, W + 1)
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def _check_width(W: int):
    if W < 1:
        raise ValueError("half-width must be positive")
    if W > MAX_HALF_WIDTH:
        raise ResourceLimitError(f"half-width {W} exceeds {MAX_HALF_WIDTH}")


def _check_window_word(alpha: str, W: int, allow_empty: bool = False):
    _check_word(alpha, allow_empty)
    if len(alpha) > W // 4:
        raise ValueError("word too long for this window")


def build_generators(W: int):
    """The pair (T0, T1) of truncated shift generators."""
    from scipy import sparse

    _check_width(W)
    letters = _letters(W)[:-1]
    # T_i is the superdiagonal [x[n-1] = i]; CSR keeps no explicit zeros
    return tuple(WindowOperator(W, sparse.csr_matrix(sparse.diags(
        letters == i, 1, dtype=np.int64))) for i in (0, 1))


def word_operator(alpha: str, W: int) -> WindowOperator:
    """Ordered product of generators along the letters of alpha.

    Words that are not factors give the zero operator.
    """
    from scipy import sparse

    _check_window_word(alpha, W)
    gens = [t.matrix for t in build_generators(W)]
    m = gens[int(alpha[0])]
    for ch in alpha[1:]:
        m = m @ gens[int(ch)]
    return WindowOperator(W, sparse.csr_matrix(m))


def range_projection(alpha: str, W: int) -> WindowOperator:
    """Diagonal projection onto positions n where alpha ends just before n.

    Computed directly from the sequence letters (not from operator
    products): the diagonal entry at n is 1 iff n - |alpha| >= -W and
    the letters at n - |alpha| .. n - 1 spell alpha.
    """
    from scipy import sparse

    _check_width(W)
    _check_window_word(alpha, W, allow_empty=True)
    diag = _range_diagonal(alpha, W)
    return WindowOperator(W, sparse.csr_matrix(sparse.diags(diag, dtype=np.int64)))


def _range_diagonal(alpha: str, W: int) -> np.ndarray:
    # Thue-Morse is overlap-free, so no two occurrences of a word overlap
    # and finditer's non-overlapping matches are all of them.
    diag = np.zeros(2 * W + 1, dtype=np.int32)
    diag[[m.end() for m in re.finditer(alpha, tm_slice(-W, W))]] = 1
    return diag


# axiom_residuals holds its 0/1 vectors as float32, so the Gram product
# runs on BLAS (numpy's integer matmul does not).  This is exact because
# every partial sum is an integer <= 2W + 1, and
#     2 * MAX_HALF_WIDTH + 1 < 2**24,
# below which float32 represents every integer exactly.


def axiom_residuals(W: int, maxlen: int) -> dict:
    """Maximum residual of each defining relation on the interior band.

    Checks, over all factors up to maxlen: the boolean algebra of range
    projections (intersections, unions, disjointness), the commutation
    p_A s_a = s_a p_{r(A,a)}, the range identities s_a* s_a = p_{r(a)}
    and s_a* s_b = 0, and the sum decomposition of p_A over outgoing
    letters.  All residuals must be exactly zero.
    """
    _check_width(W)
    if maxlen < 1 or maxlen > W // 8:
        raise ValueError("maxlen must lie in [1, W/8]")
    words = [w for L in range(1, maxlen + 1) for w in factors_of_length(L)]
    size = 2 * W + 1
    if len(words) * size > MAX_RESIDUAL_CELLS:
        raise ResourceLimitError(
            f"{len(words)} range diagonals of {size} entries exceed {MAX_RESIDUAL_CELLS}")
    D = np.zeros((len(words), size), dtype=np.float32)
    for row, w in zip(D, words):
        row[:] = _range_diagonal(w, W)
    diag = dict(zip(words, D))
    zero = np.zeros(size, dtype=np.float32)
    # mask[a][n] = [x[n-1] = a], so T_a is the superdiagonal mask[a][1:];
    # below, entry (n-1, n) of a product sits at index n-1 of the vectors
    # sliced [1:] (read at n) and [:-1] (read at n-1)
    mask = np.zeros((2, size), dtype=np.float32)
    letters = _letters(W)[:-1]
    mask[0, 1:], mask[1, 1:] = letters == 0, letters == 1
    pad = maxlen
    inner = slice(pad, size - pad)

    # (i) G[u, v] = |r(u) & r(v)|: disjoint unless u is a suffix of v,
    # and then r(v) lies inside r(u)
    interior = D[:, inner]
    G = interior @ interior.T
    res_i = int(any(G[i, j] != (G[j, j] if v.endswith(u) else 0)
                    for i, u in enumerate(words) for j, v in enumerate(words)
                    if len(v) >= len(u)))

    # (ii) p_A s_a - s_a p_Aa and (iv) p_A - sum_a s_a p_Aa s_a*
    res_ii = res_iv = 0
    for A in words:
        if len(A) >= maxlen:
            continue
        ends = [mask[a] * diag.get(A + "01"[a], zero) for a in (0, 1)]
        for a in (0, 1):
            res_ii = max(res_ii, int(np.abs(
                mask[a, 1:] * diag[A][:-1] - ends[a][1:])[pad:size - pad - 1].max()))
        res_iv = max(res_iv, int(np.abs(
            diag[A][:-1] - (ends[0] + ends[1])[1:])[inner].max()))

    # (iii) s_a* s_a = p_a and s_0* s_1 = s_1* s_0 = 0
    res_iii = int(max(np.abs(mask[0] - diag["0"])[inner].max(),
                      np.abs(mask[1] - diag["1"])[inner].max(),
                      (mask[0] * mask[1])[inner].max()))

    return {
        "axiom_i": res_i,
        "axiom_ii": res_ii,
        "axiom_iii": res_iii,
        "axiom_iv": res_iv,
    }


def empirical_trace(alpha: str, W: int) -> Fraction:
    """Normalized diagonal count of the range projection of alpha.

    The count of alpha in the letters x[-W..W-1]; overlap-freeness makes
    str.count's non-overlapping count the full one.
    """
    _check_width(W)
    _check_window_word(alpha, W, allow_empty=True)
    if alpha:
        require_factor(alpha)
    return Fraction(tm_slice(-W, W).count(alpha), 2 * W + 1 - len(alpha))
