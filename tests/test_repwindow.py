import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from thuemorse import repwindow, trace, words
from thuemorse.errors import MissingExtraError, ThueMorseError
from conftest import fresh, peak_bytes
from reference import letters

W = 256


def _dense(op):
    return op.matrix.toarray()


def test_generators_form_the_shift():
    t0, t1 = repwindow.build_generators(W)
    total = _dense(t0) + _dense(t1)
    size = 2 * W + 1
    expected = np.zeros((size, size), dtype=np.int64)
    for col in range(1, size):
        expected[col - 1, col] = 1
    assert (total == expected).all()


def test_generator_columns_follow_letters():
    t0, t1 = repwindow.build_generators(W)
    gens = (t0.matrix, t1.matrix)
    for n in (-W + 1, -5, 0, 3, W):
        letter = int(letters(n - 1, n))
        col = gens[letter][:, n + W].toarray().ravel()
        assert col[n - 1 + W] == 1 and col.sum() == 1
        other = gens[1 - letter][:, n + W]
        assert other.nnz == 0


def test_window_operator_equality():
    t0, t1 = repwindow.build_generators(4)
    again = repwindow.build_generators(4)[0]
    assert t0 is not again and t0 == again and not t0 != again
    assert t0 != t1 and not t0 == t1
    # another W, and the same W with a matrix of another shape
    assert t0 != repwindow.build_generators(5)[0]
    assert t0 != repwindow.WindowOperator(4, t0.matrix[:-1, :-1])
    with pytest.raises(TypeError):
        hash(t0)


def test_orthogonal_ranges():
    t0, t1 = repwindow.build_generators(W)
    assert (t0.matrix.T @ t1.matrix).nnz == 0
    assert (t1.matrix.T @ t0.matrix).nnz == 0


def test_word_operator_multiplicative():
    # holds for every pair, since non-factor words give the zero operator
    for alpha, beta in [("0", "1"), ("01", "10"), ("011", "010"), ("00", "0")]:
        ab = repwindow.word_operator(alpha + beta, W).matrix
        a = repwindow.word_operator(alpha, W).matrix
        b = repwindow.word_operator(beta, W).matrix
        assert (ab - a @ b).nnz == 0


def test_word_operator_vanishes_on_non_factors():
    assert repwindow.word_operator("000", W).matrix.nnz == 0
    assert repwindow.word_operator("100100", W).matrix.nnz == 0


def test_word_operator_gives_range_projection():
    for alpha in ["0", "01", "0110", "1001", "010"]:
        t = repwindow.word_operator(alpha, W).matrix
        p = repwindow.range_projection(alpha, W).matrix
        assert (t.T @ t - p).nnz == 0


def test_range_projection_empty_word_is_identity():
    p = repwindow.range_projection("", W).matrix
    assert (p - sparse.identity(2 * W + 1, dtype=np.int64)).nnz == 0


def test_range_projection_single_letter():
    p = repwindow.range_projection("0", W).matrix.diagonal()
    for n in range(-W + 1, W + 1):
        assert p[n + W] == (letters(n - 1, n) == "0")


def test_word_operator_support_density():
    w_big = 1 << 12
    op = repwindow.word_operator("00", w_big)
    density = Fraction(int(op.matrix.nnz), 2 * w_big + 1)
    assert abs(density - Fraction(1, 6)) < Fraction(1, 100)


def test_axiom_residuals_zero_small():
    res = repwindow.axiom_residuals(1 << 10, 4)
    assert res == {"axiom_i": 0, "axiom_ii": 0, "axiom_iii": 0, "axiom_iv": 0}


def test_empirical_trace_examples():
    assert repwindow.empirical_trace("", W) == 1
    w_big = 1 << 12
    assert abs(repwindow.empirical_trace("01", w_big) - Fraction(1, 3)) <= Fraction(1, 100)
    assert abs(repwindow.empirical_trace("00", w_big) - Fraction(1, 6)) <= Fraction(1, 100)


def test_empirical_trace_converges():
    for alpha in ["0", "01", "0110"]:
        gaps = []
        for k in (8, 10, 12, 14):
            gap = abs(repwindow.empirical_trace(alpha, 1 << k)
                      - trace.trace_range(alpha))
            gaps.append(gap)
        assert gaps[-1] <= Fraction(1, 100)
        assert min(gaps) == gaps[-1] or gaps[-1] <= Fraction(1, 1000)


def _window_trace(alpha, W):
    # the count in the built window x[-W..W-1]; overlap-free, so complete
    return Fraction(words.tm_slice(-W, W).count(alpha), 2 * W + 1 - len(alpha))


def test_empirical_trace_equals_the_window_count():
    # every factor of <= 6 letters, from the smallest window it fits in,
    # where occurrences that straddle 0 weigh most
    for alpha in words._factors_upto(6):
        for W in (4 * len(alpha), 4 * len(alpha) + 1, 37, 1000, 4099):
            assert repwindow.empirical_trace(alpha, W) == _window_trace(alpha, W), (alpha, W)


def test_empirical_trace_builds_no_window():
    # the letters x[-W..W-1] at the largest window alone would take 2 MiB
    value, peak = peak_bytes(repwindow.empirical_trace, "0110", 1 << 20)
    assert value == _window_trace("0110", 1 << 20)
    assert peak < 64 << 10


def test_validation():
    with pytest.raises(ValueError):
        repwindow.word_operator("0" * 200, W)
    with pytest.raises(ValueError):
        repwindow.axiom_residuals(W, W)
    from thuemorse.errors import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        repwindow.build_generators((1 << 20) + 1)
    for op in (repwindow.word_operator, repwindow.range_projection):
        with pytest.raises(TypeError):
            op(1, W)
        with pytest.raises(ValueError):
            op("012", W)


def test_bad_arguments_fail_before_loading_scipy():
    # each constructor validates first: a bad call raises its usual error
    # and leaves numpy and scipy unloaded
    probe = ("import sys\n"
             "from thuemorse import repwindow as r\n"
             "for call in (lambda: r.build_generators(0), lambda: r.word_operator('0', 0),\n"
             "             lambda: r.range_projection('012', 64),\n"
             "             lambda: r.build_generators((1 << 20) + 1)):\n"
             "    try:\n"
             "        call()\n"
             "    except Exception as exc:\n"
             "        print(type(exc).__name__, exc)\n"
             "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
    assert fresh(probe).splitlines() == [
        "ValueError half-width must be positive",
        "ValueError half-width must be positive",
        "ValueError word must consist of '0'/'1' only: '012'",
        f"ResourceLimitError half-width {(1 << 20) + 1} exceeds {1 << 20}",
        "[]"]


def test_without_the_sparse_extra_only_the_matrices_fail():
    # None in sys.modules makes every import of numpy or scipy fail, as on
    # an install without the [sparse] extra
    probe = ("import sys\n"
             "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
             "from thuemorse import repwindow as r, trace_range\n"
             "for call in (lambda: r.build_generators(8), lambda: r.word_operator('01', 8),\n"
             "             lambda: r.range_projection('01', 8), lambda: r._array(5, 3),\n"
             "             lambda: r.build_generators(0), lambda: r.range_projection('012', 8)):\n"
             "    try:\n"
             "        call()\n"
             "    except Exception as exc:\n"
             "        print(type(exc).__name__, exc)\n"
             "print(r.axiom_residuals(256, 4), r.empirical_trace('01', 64), trace_range('0110'))\n")
    scipy_missing = ("MissingExtraError scipy.sparse is not installed; "
                     "install the extra: pip install 'thuemorse[sparse]'")
    assert fresh(probe).splitlines() == [
        scipy_missing, scipy_missing, scipy_missing,
        "MissingExtraError numpy is not installed; "
        "install the extra: pip install 'thuemorse[sparse]'",
        # arguments are checked before the extra is looked for
        "ValueError half-width must be positive",
        "ValueError word must consist of '0'/'1' only: '012'",
        "{'axiom_i': 0, 'axiom_ii': 0, 'axiom_iii': 0, 'axiom_iv': 0} 42/127 1/6"]
    assert issubclass(MissingExtraError, ThueMorseError)
    assert issubclass(MissingExtraError, ImportError)


def _sparse_residuals(W, maxlen):
    """The relations as sparse products of the public operators, word pair
    by word pair: an independent route to `axiom_residuals`."""
    size = 2 * W + 1
    t = [g.matrix for g in repwindow.build_generators(W)]
    factors = words._factors_upto(maxlen)
    p = {w: repwindow.range_projection(w, W).matrix for w in factors}
    zero = sparse.csr_matrix((size, size), dtype=np.int64)

    def worst(m):
        m = sparse.csr_matrix(m)[maxlen:size - maxlen, maxlen:size - maxlen]
        return int(abs(m).max()) if m.nnz else 0

    res_i = 0
    for u, v in itertools.product(factors, repeat=2):
        if len(v) >= len(u):
            inter, nested = p[u] @ p[v], v.endswith(u)
            res_i = max(res_i, worst(inter - (p[v] if nested else zero)),
                        worst(p[u] + p[v] - inter - (p[u] if nested else p[u] + p[v])))
    res_ii = res_iv = 0
    for A in (A for A in factors if len(A) < maxlen):
        decomp = zero
        for a in "01":
            s_a = repwindow.word_operator(a, W).matrix
            p_ext = p.get(A + a, zero)
            res_ii = max(res_ii, worst(p[A] @ s_a - s_a @ p_ext))
            decomp = decomp + s_a @ p_ext @ s_a.T
        res_iv = max(res_iv, worst(p[A] - decomp))
    res_iii = max(worst(t[0].T @ t[0] - p["0"]), worst(t[1].T @ t[1] - p["1"]),
                  worst(t[0].T @ t[1]), worst(t[1].T @ t[0]))
    return {"axiom_i": res_i, "axiom_ii": res_ii, "axiom_iii": res_iii, "axiom_iv": res_iv}


@pytest.mark.parametrize("fault, flips", [
    (None, None),
    ("_range_diagonal", lambda alpha, width, one: alpha == "01"),
    ("_letters", lambda width: True),
    # r(0110) gains a position outside r(110): the top step of the suffix chain
    ("_range_diagonal", lambda alpha, width, one: alpha == "0110"),
    # r(0101) gains a position inside r(101) and r(1101): only disjointness sees it
    ("_range_diagonal", lambda alpha, width, one: alpha == "0101"),
], ids=["none", "diagonal-entry", "letter", "top-diagonal-entry", "same-length-overlap"])
def test_vector_residuals_match_sparse_products(monkeypatch, fault, flips):
    if fault:
        original = getattr(repwindow, fault)

        def flipped(*args):
            return original(*args) ^ (flips(*args) << (W + 17))  # an interior bit
        monkeypatch.setattr(repwindow, fault, flipped)
    got = repwindow.axiom_residuals(W, 4)
    assert got == _sparse_residuals(W, 4)
    assert any(got.values()) == (fault is not None)

