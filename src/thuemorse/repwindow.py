"""Finite-window model of the shift representation on two-sided sequences.

The two generator operators act on basis vectors indexed by integers in
[-W, W]: T_i sends v_n to v_{n-1} exactly when the sequence letter at
n-1 is i, and to zero when the shift would leave the window.  Every
operator in the defining relations is a partial shift with a 0/1 mask,
so `axiom_residuals` checks the relations as identities of 0/1 vectors:
the letter masks [x[n-1] = a] and the range diagonals, read off the
letter string x[-W..W-1].  Each vector is one Python int whose bit
n + W is its entry at n, and the relations are exact `&`, `^`, `|` and
shift identities that hold with residual exactly zero on the interior
band where the truncation is invisible.  The sparse matrices of
`build_generators`, `word_operator` and `range_projection` are built
only when asked for, and only they load numpy and scipy, the `sparse`
extra; without it they raise MissingExtraError after checking their
arguments.
"""

import importlib
from fractions import Fraction

from ._value import value_base
from .errors import MissingExtraError, ResourceLimitError
from .words import _check_int, _check_word, _factors_upto, _prefix_count, require_factor, tm_slice

MAX_HALF_WIDTH = 1 << 20
# Largest (factor count) x (2W + 1) that `axiom_residuals` holds as range
# diagonals: 2.8 times the 92 x 32 769 of `verify --full`, 1 MB of bits.
MAX_RESIDUAL_CELLS = 1 << 23


class WindowOperator(value_base("W matrix")):
    """A sparse integer matrix acting on basis indices -W..W; equal to
    another when W and every entry agree."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        return (type(other) is type(self) and self.W == other.W
                and self.matrix.shape == other.matrix.shape
                and (self.matrix != other.matrix).nnz == 0)

    @property
    def size(self) -> int:
        return 2 * self.W + 1


def _ones(n: int) -> int:
    return (1 << n) - 1


def _letters(W: int) -> int:
    # bit n + W is [x[n] = 1], for n in [-W, W]
    return int(tm_slice(-W, W + 1)[::-1], 2)


def _extra(module: str):
    """A module of the `sparse` extra, imported on first use."""
    try:
        return importlib.import_module(module)
    except ImportError as exc:
        raise MissingExtraError(
            f"{module} is not installed; install the extra: pip install 'thuemorse[sparse]'"
        ) from exc


def _array(bits: int, size: int):
    """Bits 0..size-1 of an int as a 0/1 uint8 array."""
    np = _extra("numpy")

    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size]


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
    W = _check_int(W, "W")
    _check_width(W)
    sparse = _extra("scipy.sparse")

    letters = _array(_letters(W), 2 * W + 1)[:-1]
    # T_i is the superdiagonal [x[n-1] = i]; CSR keeps no explicit zeros
    return tuple(WindowOperator(W, sparse.csr_matrix(sparse.diags(
        letters == i, 1, dtype="int64"))) for i in (0, 1))


def word_operator(alpha: str, W: int) -> WindowOperator:
    """Ordered product of generators along the letters of alpha.

    Words that are not factors give the zero operator.
    """
    W = _check_int(W, "W")
    _check_width(W)
    _check_window_word(alpha, W)
    sparse = _extra("scipy.sparse")

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
    W = _check_int(W, "W")
    _check_width(W)
    _check_window_word(alpha, W, allow_empty=True)
    sparse = _extra("scipy.sparse")

    diag = _array(_range_diagonal(alpha, W, int(tm_slice(-W, W)[::-1], 2)), 2 * W + 1)
    return WindowOperator(W, sparse.csr_matrix(sparse.diags(diag, dtype="int64")))


def _range_diagonal(alpha: str, W: int, one: int) -> int:
    # bit n + W of `one` is [x[n] = 1] for n in [-W, W-1], read apart from
    # _letters, so masks and diagonals are two readings of the sequence.
    # Bit c of ones[a] >> k is [x[c + k - W] = a] (0 past the end), so the
    # AND over k marks the starts of alpha in x[-W..W-1] and the shift by
    # |alpha| moves each start c to its end, bit n + W
    ones = (one ^ _ones(2 * W), one)
    diag = _ones(2 * W + 1)
    for k, a in enumerate(alpha):
        diag &= ones[int(a)] >> k
    return diag << len(alpha)


def axiom_residuals(W: int, maxlen: int) -> dict:
    """Maximum residual of each defining relation on the interior band.

    Checks, over all factors up to maxlen: the boolean algebra of range
    projections (intersections, unions, disjointness), the commutation
    p_A s_a = s_a p_{r(A,a)}, the range identities s_a* s_a = p_{r(a)}
    and s_a* s_b = 0, and the sum decomposition of p_A over outgoing
    letters.  All residuals must be exactly zero.
    """
    W, maxlen = _check_int(W, "W"), _check_int(maxlen, "maxlen")
    _check_width(W)
    if maxlen < 1 or maxlen > W // 8:
        raise ValueError("maxlen must lie in [1, W/8]")
    words = _factors_upto(maxlen)
    size = 2 * W + 1
    if len(words) * size > MAX_RESIDUAL_CELLS:
        raise ResourceLimitError(
            f"{len(words)} range diagonals of {size} entries exceed {MAX_RESIDUAL_CELLS}")
    one = int(tm_slice(-W, W)[::-1], 2)
    diag = {w: _range_diagonal(w, W, one) for w in words}
    # bit n + W of mask[a] is [x[n-1] = a]: T_a is the superdiagonal mask[a]
    # >> 1, and entry (n-1, n) of a product sits at bit n - 1 of the
    # vectors read at n (shifted right by one) and at n-1 (unshifted)
    letters = _letters(W)
    mask = tuple(m << 1 & _ones(size) for m in (letters ^ _ones(size), letters))
    pad = maxlen
    band = _ones(size - 2 * pad) << pad  # bits pad .. size - pad - 1
    band_ii = _ones(size - 2 * pad - 1) << pad

    # (i) on the band, r(u) & r(v) is r(v) if u is a suffix of v and empty
    # otherwise, for |v| >= |u|.  Equivalently, ranges of one length are
    # disjoint and r(v) lies in r(v[1:]): by induction on |v| - |u|, r(v)
    # lies in r(s) for the suffix s of v of length |u|, which is u or has a
    # range disjoint from r(u); conversely both are cases of the pairs.
    res_i = False
    covered = dict.fromkeys(range(1, maxlen + 1), 0)
    for v in words:
        d = diag[v] & band
        if d & covered[len(v)] or len(v) > 1 and d & ~diag[v[1:]]:
            res_i = True
        covered[len(v)] |= d

    # (ii) p_A s_a - s_a p_Aa and (iv) p_A - sum_a s_a p_Aa s_a*; the masks
    # are disjoint, so the sum is an OR
    res_ii = res_iv = False
    for A in words:
        if len(A) >= maxlen:
            continue
        ends = [mask[a] & diag.get(A + "01"[a], 0) for a in (0, 1)]
        for a in (0, 1):
            res_ii |= bool(((mask[a] >> 1 & diag[A]) ^ ends[a] >> 1) & band_ii)
        res_iv |= bool((diag[A] ^ (ends[0] | ends[1]) >> 1) & band)

    # (iii) s_a* s_a = p_a and s_0* s_1 = s_1* s_0 = 0
    res_iii = bool(((mask[0] ^ diag["0"]) | (mask[1] ^ diag["1"]) | (mask[0] & mask[1]))
                   & band)

    return {
        "axiom_i": int(res_i),
        "axiom_ii": int(res_ii),
        "axiom_iii": int(res_iii),
        "axiom_iv": int(res_iv),
    }


def empirical_trace(alpha: str, W: int) -> Fraction:
    """Normalized diagonal count of the range projection of alpha.

    The count of alpha in the letters x[-W..W-1], without building them:
    `_prefix_count` counts the starts in x[0..W-1], the same count of the
    reversed word counts those in x[-W..-1] (mirror rule x[-i] = x[i-1]),
    and `str.count` on x[1-|alpha|..|alpha|-2] those that straddle 0;
    overlap-freeness makes its non-overlapping count the full one.
    Time and memory are O(|alpha| + log W) beyond the counter's memo.
    """
    W = _check_int(W, "W")
    _check_width(W)
    _check_window_word(alpha, W, allow_empty=True)
    if not alpha:
        return Fraction(1)
    require_factor(alpha)
    m = len(alpha)
    count = (_prefix_count(alpha, W) + _prefix_count(alpha[::-1], W)
             + tm_slice(1 - m, m - 1).count(alpha))
    return Fraction(count, 2 * W + 1 - m)
