"""The split oracle of `verify` and its failing paths.

`reference.splits` is the per-word brute force that `verify` ran before
its split tables; `_word_splits` reads one table over the letters of w
alone, at its one start.  The oracle must agree with the brute force
everywhere, must call nothing of the lift chain, and must make
`check_combinatorics` fail, with the detail it has always printed, when
one decomposition is wrong.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thuemorse import blocks, trace, verify, words
from reference import splits

ORACLE_LEN = 64


def _word_splits(w: str, n: int) -> list:
    return verify._read_splits(w, n, verify._split_table(w, len(w), n, 1).get(0, ()))


def _levels(L: int) -> range:
    # every level with two full blocks in L letters, and one more
    return range((L // 2).bit_length() + 1)


def _table_splits(max_len: int) -> dict:
    """(w, n) -> splits of every factor of 2..max_len letters, read off one
    split table per (length, level), as check_combinatorics reads them."""
    text = words.tm_prefix(words._factor_window(max_len))
    out = {}
    for L in range(2, max_len + 1):
        first = {w: text.find(w) for w in words.factors_of_length(L)}
        starts = sum(1 << s for s in first.values())
        for n in _levels(L):
            table = verify._split_table(text, L, n, starts)
            for w, s in first.items():
                out[w, n] = verify._read_splits(w, n, table.get(s, ()))
    return out


def test_split_tables_match_the_reference_on_every_factor():
    tables = _table_splits(ORACLE_LEN)
    assert len(tables) > 30_000
    for (w, n), found in tables.items():
        expected = splits(w, n)
        assert found == expected, (w, n)
        assert _word_splits(w, n) == expected, (w, n)


@given(st.text(alphabet="01", max_size=80), st.integers(min_value=0, max_value=6))
@example("010101", 1)  # a non-factor with two splits
@example("0110100110010111", 2)  # no split: the last chunk is no block
@example("0110", 0)
@settings(max_examples=300, deadline=None)
def test_per_word_oracle_matches_the_reference_on_any_word(w, n):
    assert _word_splits(w, n) == splits(w, n)


def test_oracle_never_reads_the_lift_chain(count_calls):
    expected = {(w, n): splits(w, n)
                for L in range(2, 25) for w in words.factors_of_length(L) for n in _levels(L)}
    reads = [count_calls(module, name) for module, name in [
        (words, "lift"), (words, "_descent"), (blocks, "_chain"), (blocks, "decompose")]]
    verify._level_masks.cache_clear()
    assert _table_splits(24) == expected
    assert all(_word_splits(w, n) == s for (w, n), s in expected.items())
    assert reads == [[]] * 4, "the split oracle read the lift chain"


def test_a_shifted_block_fails_combinatorics_at_its_word(monkeypatch):
    w0, n0 = words.factors_of_length(16)[5], 1
    assert blocks.choose_level(w0) > n0
    real = blocks.decompose
    true = real(w0, n0)

    def shifted(w, n):
        d = real(w, n)
        if (w, n) != (w0, n0):
            return d
        # the first full block moved into gamma0: the round trip still holds
        return tuple.__new__(blocks.BlockDecomposition, (
            n, d.gamma0 + words.block(d.blocks[0], n), d.blocks[1:], d.gamma1))

    monkeypatch.setattr(blocks, "decompose", shifted)
    assert blocks.recompose(shifted(w0, n0)) == w0
    assert verify.check_combinatorics(True) == {
        "name": "combinatorics", "ok": False,
        "detail": f"uniqueness fails at {w0} level {n0}: "
                  f"{[(true.gamma0, true.blocks, true.gamma1)]}"}


def test_a_flipped_sign_fails_the_uniqueness_certificate(monkeypatch):
    real = trace.matrix_iterate

    def flipped(t, n):
        # the (-1)^n term of the closed form with the opposite sign
        u = (3 * Fraction(t) - Fraction(1, 2)) * 2 * (-1) ** n
        x, y = real(t, n)
        return x - u / 3, y + u / 3

    monkeypatch.setattr(trace, "matrix_iterate", flipped)
    assert flipped(Fraction(1, 6), 4) == real(Fraction(1, 6), 4)
    for quick in (True, False):
        result = verify.check_uniqueness_certificate(quick)
        assert result == {"name": "uniqueness", "ok": False,
                          "detail": "closed form fails at t=0, n=0"}
