"""One-shot verification suite behind the CLI `verify` subcommand.

Each check re-derives an exact identity at desk scale and returns a
(name, ok, detail) triple.  Quick mode shrinks the bounds; full mode
runs the documented sizes.  As a CLI process on a shared 2-core x86
host under Python 3.11, `verify --quick` took 0.15-0.22 s (median
0.17 s) and `verify --full` 0.26-0.45 s (median 0.31 s) over seven runs
each, most of it the exhaustive decomposition loop of
`check_combinatorics`.
"""

from fractions import Fraction
from functools import lru_cache

from . import afcore, blocks, extensions, ktheory, repwindow, trace, words
from .errors import LevelError


def _result(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def check_trace_values(quick: bool) -> dict:
    """Pinned exact trace values at lengths 2, 3 and the 22-letter example."""
    expected = {
        "00": Fraction(1, 6), "11": Fraction(1, 6),
        "01": Fraction(1, 3), "10": Fraction(1, 3),
    }
    bad = [w for w, v in expected.items() if trace.trace_range(w) != v]
    bad += [w for w in words.factors_of_length(3)
            if trace.trace_range(w) != Fraction(1, 6)]
    if trace.trace_range(words.tm_slice(10, 32)) != Fraction(1, 48):
        bad.append("slice[10,32)")
    return _result("trace-values", not bad, f"mismatches: {bad}" if bad else "exact")


def check_block_traces(quick: bool) -> dict:
    """Closed-form two-block traces against the peeling recursion and
    the block-decomposition route of trace_range."""
    n_max = 5 if quick else 8
    for n in range(n_max + 1):
        for i in (0, 1):
            for j in (0, 1):
                w = words.block(i, n) + words.block(j, n)
                expected = trace.block_trace(i, j, n)
                if not trace._peel(w) == trace.trace_range(w) == expected:
                    return _result("block-traces", False, f"mismatch at {(i, j, n)}")
    return _result("block-traces", True, f"all pairs for n <= {n_max}")


def check_trace_axioms(quick: bool) -> dict:
    """Additivity both sides, symmetry, partition of unity, positivity."""
    max_len = 10 if quick else 16
    for L in range(1, max_len + 1):
        total = Fraction(0)
        for w in words.factors_of_length(L):
            v = trace.trace_range(w)
            total += v
            if v <= 0:
                return _result("trace-axioms", False, f"nonpositive at {w}")
            if v != trace.trace_range(w[::-1]):
                return _result("trace-axioms", False, f"reversal fails at {w}")
            if v != trace.trace_range(words.complement(w)):
                return _result("trace-axioms", False, f"complement fails at {w}")
            right = sum(trace.trace_range(w + a) for a in "01"
                        if words.is_factor(w + a))
            left = sum(trace.trace_range(a + w) for a in "01"
                       if words.is_factor(a + w))
            if not v == right == left:
                return _result("trace-axioms", False, f"additivity fails at {w}")
        if total != 1:
            return _result("trace-axioms", False, f"partition sum {total} at length {L}")
    return _result("trace-axioms", True, f"lengths <= {max_len}")


def check_uniqueness_certificate(quick: bool) -> dict:
    """Nested positivity intervals shrinking to 1/6; the closed form of the
    value matrix against its exact iteration at t = 1/6, 0 and 1/2, and its
    pinned values at 1/6."""
    n_max = 20 if quick else 30
    sixth = Fraction(1, 6)
    prev = None
    for n in range(1, n_max + 1):
        lo, hi = trace.uniqueness_interval(n)
        if not lo < sixth < hi:
            return _result("uniqueness", False, f"1/6 outside interval at N={n}")
        if hi - lo > Fraction(1, 2 ** n):
            return _result("uniqueness", False, f"width too large at N={n}")
        if prev is not None and not (prev[0] <= lo and hi <= prev[1]):
            return _result("uniqueness", False, f"not nested at N={n}")
        prev = (lo, hi)
    # the closed form against the exact iteration of the inverse step
    # matrix from (t, 1/2 - t): at 1/6 the (-1)^n term vanishes, so the
    # ends of [0, 1/2] check its sign
    for t in (sixth, Fraction(0), Fraction(1, 2)):
        x, y = t, Fraction(1, 2) - t
        for n in range(n_max + 1):
            if trace.matrix_iterate(t, n) != (x, y):
                return _result("uniqueness", False, f"closed form fails at t={t}, n={n}")
            x, y = (y - x) / 2, x
    for n in range(n_max + 1):
        if trace.matrix_iterate(sixth, n) != (Fraction(1, 6 * 2 ** n), Fraction(1, 3 * 2 ** n)):
            return _result("uniqueness", False, f"closed form fails at n={n}")
    return _result("uniqueness", True, f"N <= {n_max}")


def check_ergodic_oracle(quick: bool) -> dict:
    """Trace values against empirical frequencies in a long prefix."""
    window = 1 << (18 if quick else 22)
    max_len = 6 if quick else 8
    tol = Fraction(1, 100)
    worst = Fraction(0)
    for w in words._factors_upto(max_len):
        gap = abs(trace.trace_range(w) - trace.frequency(w, window))
        worst = max(worst, gap)
        if gap > tol:
            return _result("ergodic-oracle", False, f"gap {gap} at {w}")
    return _result("ergodic-oracle", True,
                   f"max gap {worst} <= 1/100 over lengths <= {max_len}")


@lru_cache(maxsize=16)
def _level_masks(text: str, n: int) -> tuple:
    """Bitsets over the starts s = 0..len(text) of the level-n pieces of text.

    Bit s of `full` is set where text[s:s + 2**n] is a level-n block, bit
    s of `suffixes[g]` where text[s:s + g] is the last g letters of one,
    and bit s of `prefixes[h]` where text[s:s + h] is the first h letters
    of one (g, h < 2**n; the empty piece matches at every start).  Each
    mask grows by one letter from the last: AND with the shifted letter
    bitset of text, for both blocks at once.
    """
    size = 1 << n
    letters = int(text[::-1] or "0", 2)  # bit p is [text[p] == "1"]
    letter = (letters ^ ((1 << len(text)) - 1), letters)
    bl = (words.block(0, n), words.block(1, n))
    ones = (1 << len(text) + 1) - 1
    prefixes, suffixes = [ones], [ones]
    pre, suf = [ones, ones], [ones, ones]
    for g in range(1, size + 1):
        for j in (0, 1):
            pre[j] &= letter[bl[j][g - 1] == "1"] >> (g - 1)
            suf[j] = letter[bl[j][size - g] == "1"] & suf[j] >> 1
        prefixes.append(pre[0] | pre[1])
        suffixes.append(suf[0] | suf[1])
    return prefixes.pop(), suffixes, prefixes


def _split_table(text: str, length: int, n: int, starts: int) -> dict:
    """start -> [(g0, k)]: the level-n splits of the word text[s:s + length]
    at each start s whose bit is set in `starts`, by brute force.

    A split has a block suffix of g0 < 2**n letters, k >= 2 full level-n
    blocks and a block prefix of the h = (length - g0) % 2**n letters left.
    Every offset g0 is tried at all starts at once, by AND-ing the masks of
    `_level_masks` shifted to where each piece sits.  Nothing here reads
    the lift chain, so the table is an independent check of `decompose`.
    """
    full, suffixes, prefixes = _level_masks(text, n)
    size = 1 << n
    table = {}
    for g0 in range(min(size, length - 2 * size + 1)):
        k, h = divmod(length - g0, size)
        hits = starts & suffixes[g0] & prefixes[h] >> length - h
        for j in range(k):
            hits &= full >> g0 + j * size
        while hits:
            low = hits & -hits
            table.setdefault(low.bit_length() - 1, []).append((g0, k))
            hits ^= low
    return table


def _read_splits(w: str, n: int, found) -> list:
    """The (gamma0, blocks, gamma1) triples of w for (g0, k) pairs of a table."""
    out = []
    for g0, k in found:
        end = g0 + (k << n)
        out.append((w[:g0], words._bits(w[g0:end:1 << n]), w[end:]))
    return out


def check_combinatorics(quick: bool) -> dict:
    """Extension counts, decomposition existence/uniqueness, follower
    blocks, overlap-freeness."""
    count_len = 10 if quick else 14
    decomp_len = 24 if quick else 48
    follow_n = 2 if quick else 3
    overlap_len = 6 if quick else 8

    # two-sided extension counts with the exact exceptional families
    for L in range(2, count_len + 1):
        counts = {w: extensions.classify_extension_count(w) for w in words.factors_of_length(L)}
        bad = {w for w, c in counts.items() if c not in (1, 2, 4)}
        if bad:
            return _result("combinatorics", False, f"bad count at {sorted(bad)}")
        achieved = {w for w, c in counts.items() if c == 4}
        expected = set()
        if L & (L - 1) == 0:
            # two-block family at length 2^(m+1): block(0, m + 1) and its
            # complement, which are also the level-(m - 1) four-block words
            m = L.bit_length() - 2
            b0, b1 = words.block(0, m), words.block(1, m)
            expected = {b0 + b1, b1 + b0}
        if achieved != expected:
            return _result("combinatorics", False,
                           f"count-4 set at length {L}: {sorted(achieved)}")

    # canonical decomposition: existence with 2..4 blocks, uniqueness per
    # level against one split table per (length, level) over the letters
    # that factors_of_length scans, read at each factor's first start
    text = words.tm_prefix(words._factor_window(decomp_len))
    for L in range(2, decomp_len + 1):
        factors = words.factors_of_length(L)
        first = {w: text.find(w) for w in factors}
        starts = sum(1 << s for s in first.values())
        tables = {}
        for w in factors:
            n_star = blocks.choose_level(w)
            d = blocks.decompose(w, n_star)
            if not 2 <= len(d.blocks) <= 4:
                return _result("combinatorics", False, f"existence fails at {w}")
            for n in range(n_star + 1):
                try:
                    dn = d if n == n_star else blocks.decompose(w, n)
                except LevelError:
                    return _result("combinatorics", False, f"level {n} refused at {w}")
                if blocks.recompose(dn) != w:
                    return _result("combinatorics", False, f"round trip fails at {w}")
                if n not in tables:
                    tables[n] = _split_table(text, L, n, starts)
                splits = _read_splits(w, n, tables[n].get(first[w], ()))
                if splits != [(dn.gamma0, dn.blocks, dn.gamma1)]:
                    return _result("combinatorics", False,
                                   f"uniqueness fails at {w} level {n}: {splits}")

    # a block pair is followed (preceded) only by a full block
    for n in range(1, follow_n + 1):
        size = 1 << n
        bl = {words.block(0, n), words.block(1, n)}
        for w in words.factors_of_length(3 * size):
            if w[:size] in bl and w[size:2 * size] in bl and w[2 * size:] not in bl:
                return _result("combinatorics", False, f"follower fails at {w}")
            if w[size:2 * size] in bl and w[2 * size:] in bl and w[:size] not in bl:
                return _result("combinatorics", False, f"preceder fails at {w}")

    # overlap-freeness
    for L in range(1, overlap_len + 1):
        for beta in words.factors_of_length(L):
            for p in range(1, L + 1):
                if words.is_factor(beta + beta + beta[:p]):
                    return _result("combinatorics", False, f"overlap {beta}+{p}")

    return _result("combinatorics", True,
                   f"counts <= {count_len}, decompositions <= {decomp_len}")


def check_k_theory(quick: bool) -> dict:
    """Pinned block-class table, reduction soundness, generator relations,
    order unit, kernel element."""
    max_len = 8 if quick else 12
    solved = ktheory.solve_block_class_table()
    if solved != ktheory.BLOCK_CLASS_TABLE:
        bad = sorted(set(solved.items()) ^ set(ktheory.BLOCK_CLASS_TABLE.items()))
        return _result("k-theory", False, f"pinned block-class table differs at {bad[0]}")
    for w in words._factors_upto(max_len):
        if ktheory.evaluate(ktheory.reduce_class(w)) != trace.trace_range(w):
            return _result("k-theory", False, f"evaluation fails at {w}")
    K = ktheory.K0Element
    for n in range(11):
        if not ktheory.k0_equal(K(n, 1, 0), K(n + 1, 0, 2)):
            return _result("k-theory", False, f"a_n = 2b_(n+1) fails at {n}")
        if not ktheory.k0_equal(K(n, 0, 1), K(n + 1, 1, 1)):
            return _result("k-theory", False, f"b_n = a+b fails at {n}")
        if ktheory.k0_equal(K(n, 1, 0), K(n, 0, 1)):
            return _result("k-theory", False, f"a_n = b_n at {n}")
    unit = ktheory.k0_add(ktheory.reduce_class("0"), ktheory.reduce_class("1"))
    if unit != K(0, 2, 4):
        return _result("k-theory", False, f"order unit {unit}")
    kernel = K(0, 1, -1)
    if ktheory.evaluate(kernel) != 0:
        return _result("k-theory", False, "kernel element evaluates nonzero")
    if ktheory.is_positive(kernel) or ktheory.is_positive(ktheory.k0_neg(kernel)):
        return _result("k-theory", False, "kernel element ordered")
    return _result("k-theory", True, f"soundness over lengths <= {max_len}")


def check_af_core(quick: bool) -> dict:
    """Dimensions and trace compatibility along the inclusions."""
    k_max = 4 if quick else 8
    dims = [afcore.af_level(k).dimension for k in (1, 2, 3)]
    if dims != [4, 10, 16]:
        return _result("af-core", False, f"dimensions {dims}")
    for k in range(1, k_max + 1):
        m = afcore.inclusion_matrix(k)
        if any(s not in (1, 2, 4) for s in m.column_sums()):
            return _result("af-core", False, f"column sums at k={k}")
        if any(s < 1 for s in m.row_sums()):
            return _result("af-core", False, f"row sums at k={k}")
        if afcore.push_trace_down(m, afcore.trace_vector(k + 1)) != afcore.trace_vector(k):
            return _result("af-core", False, f"trace compatibility at k={k}")
        if sum(afcore.trace_vector(k)) != 1:
            return _result("af-core", False, f"trace sum at k={k}")
    return _result("af-core", True, f"inclusions up to k={k_max}")


def check_representation(quick: bool) -> dict:
    """Zero residuals on the window interior; empirical trace agreement."""
    w_axiom = 1 << (10 if quick else 14)
    maxlen = 4 if quick else 8
    w_trace = 1 << (12 if quick else 16)
    trace_len = 4 if quick else 6
    res = repwindow.axiom_residuals(w_axiom, maxlen)
    if any(v != 0 for v in res.values()):
        return _result("representation", False, f"residuals {res}")
    tol = Fraction(1, 100)
    for w in words._factors_upto(trace_len):
        gap = abs(repwindow.empirical_trace(w, w_trace) - trace.trace_range(w))
        if gap > tol:
            return _result("representation", False, f"empirical gap {gap} at {w}")
    return _result("representation", True,
                   f"residuals 0 at W={w_axiom}, trace gaps <= 1/100 at W={w_trace}")


ALL_CHECKS = [
    check_trace_values,
    check_block_traces,
    check_trace_axioms,
    check_uniqueness_certificate,
    check_ergodic_oracle,
    check_combinatorics,
    check_k_theory,
    check_af_core,
    check_representation,
]


def run_suite(quick: bool = False) -> dict:
    checks = [fn(quick) for fn in ALL_CHECKS]
    return {
        "mode": "quick" if quick else "full",
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
