import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thuemorse import blocks, ktheory, trace, words
from thuemorse.errors import LevelError, NotAFactorError
from reference import letters, splits

# the 32-letter factor starting at position 9, used throughout as the
# worked decomposition example
ALPHA = "00101101001011001101001100101100"


def test_alpha_is_the_position_nine_factor():
    assert words.tm_slice(9, 41) == ALPHA


def test_decompose_alpha_level3():
    d = blocks.decompose(ALPHA, 3)
    assert d.gamma0 == "0010110"
    assert d.blocks == (1, 0, 1)
    assert d.gamma1 == "0"
    assert blocks.recompose(d) == ALPHA


def test_decompose_short_example():
    d = blocks.decompose("01101", 1)
    assert (d.gamma0, d.blocks, d.gamma1) == ("", (0, 1), "1")


def test_decompose_level_zero_is_letters():
    d = blocks.decompose("0110", 0)
    assert (d.gamma0, d.blocks, d.gamma1) == ("", (0, 1, 1, 0), "")
    assert blocks.recompose(d) == "0110"


def test_decompose_round_trip():
    d = blocks.decompose("01101001", 1)
    assert blocks.recompose(d) == "01101001"


def test_recompose_alpha_from_parts():
    d = blocks.BlockDecomposition(3, "0010110", (1, 0, 1), "0")
    assert blocks.recompose(d) == ALPHA


def test_decompose_errors():
    with pytest.raises(NotAFactorError):
        blocks.decompose("100100", 1)
    with pytest.raises(LevelError):
        blocks.decompose("0110", 2)  # no two full level-2 blocks fit
    with pytest.raises(LevelError):
        blocks.decompose("0010", 1)  # pairs 00/10 do not align
    with pytest.raises(LevelError):
        blocks.decompose("0", 0)


def test_domain_errors():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        blocks.decompose("0110", -1)
    with pytest.raises(LevelError):
        blocks.choose_level("0")
    with pytest.raises(ValueError, match="five"):
        blocks.rewrite_five([0, 1, 1, 0], 1)
    with pytest.raises(ValueError, match="five"):
        blocks.rewrite_five([0, 1, 2, 0, 1], 1)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        blocks.rewrite_five([0, 1, 1, 0, 0], -1)
    with pytest.raises(NotAFactorError):
        blocks.rewrite_five([1, 1, 1, 0, 0], 0)
    with pytest.raises(ValueError, match="at least two full blocks"):
        blocks.complete_boundaries(blocks.BlockDecomposition(1, "", (0,), ""))


def test_choose_level_examples():
    assert blocks.choose_level(ALPHA) == 3
    assert blocks.choose_level("01101") == 1
    assert blocks.choose_level("0110") == 1
    assert blocks.choose_level("00") == 0
    assert blocks.choose_level("0010") == 0


def test_choose_level_always_gives_2_to_4_blocks():
    for w in words._factors_upto(32)[2:]:  # the factors of 2..32 letters
        n = blocks.choose_level(w)
        d = blocks.decompose(w, n)
        assert 2 <= len(d.blocks) <= 4
        # maximality: one level higher fails
        with pytest.raises(LevelError):
            blocks.decompose(w, n + 1)


def test_round_trip_and_uniqueness_exhaustive():
    for w in words._factors_upto(24)[2:]:  # the factors of 2..24 letters
        n_star = blocks.choose_level(w)
        for n in range(n_star + 1):
            d = blocks.decompose(w, n)
            assert blocks.recompose(d) == w
            assert splits(w, n) == [(d.gamma0, d.blocks, d.gamma1)]


def test_brute_level_splits_hand_written():
    # a non-factor with two splits at level 1
    assert splits("010101", 1) == [("", (0, 0, 0), ""), ("0", (1, 1), "1")]
    # 0110 1001 1001 0111: the last chunk is no block, and no other offset
    # leaves a block suffix before a run of blocks
    assert splits("0110100110010111", 2) == []
    assert splits("0110", 0) == [("", (0, 1, 1, 0), "")]


def _revalidated(d):
    return blocks.BlockDecomposition(d.level, d.gamma0, d.blocks, d.gamma1)


def test_chain_built_decompositions_pass_validation():
    # decompose and complete_boundaries skip __post_init__; the validating
    # constructor accepts their fields and builds an equal object
    for w in words._factors_upto(24)[2:]:  # the factors of 2..24 letters
        for n in range(blocks.choose_level(w) + 1):
            d = blocks.decompose(w, n)
            assert _revalidated(d) == d
            c = blocks.complete_boundaries(d)
            assert _revalidated(c) == c


def test_follower_blocks_forced():
    # after two adjacent full blocks, the next block-length word is a full block
    for n in (1, 2, 3):
        size = 1 << n
        full = {words.block(0, n), words.block(1, n)}
        for w in words.factors_of_length(3 * size):
            if w[:size] in full and w[size:2 * size] in full:
                assert w[2 * size:] in full
            if w[size:2 * size] in full and w[2 * size:] in full:
                assert w[:size] in full


def test_recognizability():
    # the expansion of a word is a factor iff the word is one
    for n in range(1, 5):
        for L in range(1, 9):
            for x in range(1 << L):
                w = format(x, f"0{L}b")
                expansion = "".join(words.block(int(ch), n) for ch in w)
                assert words.is_factor(expansion) == words.is_factor(w)


def test_complete_boundaries_alpha():
    d = blocks.decompose(ALPHA, 3)
    c = blocks.complete_boundaries(d)
    assert c.blocks == (1, 1, 0, 1, 0)
    assert c.gamma0 == "" and c.gamma1 == ""
    assert blocks.recompose(c) == words.tm_slice(8, 48)


def test_complete_boundaries_identity_when_complete():
    d = blocks.decompose("0110", 1)
    assert blocks.complete_boundaries(d) == d


def test_complete_boundaries_right_side():
    # a trailing partial 0 at level 3 completes to the 0-block
    d = blocks.decompose(ALPHA, 3)
    c = blocks.complete_boundaries(d)
    assert words.block(c.blocks[-1], 3).startswith(d.gamma1)
    assert c.blocks[-1] == 0


def test_complete_boundaries_offset():
    # the original word sits inside the completion at the left-completion offset
    for L in range(6, 33, 3):
        for w in words.factors_of_length(L)[:6]:
            d = blocks.decompose(w, blocks.choose_level(w))
            c = blocks.complete_boundaries(d)
            full = blocks.recompose(c)
            offset = ((1 << d.level) - len(d.gamma0)) if d.gamma0 else 0
            assert full[offset:offset + len(w)] == w
            assert 2 <= len(c.blocks) <= 6


def test_rewrite_five_examples():
    assert blocks.rewrite_five([0, 1, 1, 0, 0], 2) == [(0, 3), (1, 3), (0, 2)]
    assert blocks.rewrite_five([1, 1, 0, 1, 0], 3) == [(1, 3), (1, 4), (1, 4)]
    with pytest.raises(NotAFactorError):
        blocks.rewrite_five([0, 0, 0, 0, 0], 1)


def test_rewrite_five_exhaustive():
    # every factor block word of length 5 regroups, and the regrouping
    # expands back to the original word
    for w in words.factors_of_length(5):
        for n in range(0, 4):
            got = blocks.rewrite_five([int(ch) for ch in w], n)
            expansion = "".join(words.block(int(ch), n) for ch in w)
            assert "".join(words.block(i, lv) for i, lv in got) == expansion


def test_block_decomposition_validation():
    with pytest.raises(ValueError):
        blocks.BlockDecomposition(1, "", (), "")
    with pytest.raises(ValueError):
        blocks.BlockDecomposition(1, "01", (0, 1), "")  # gamma too long
    with pytest.raises(ValueError):
        blocks.BlockDecomposition(0, "", (0, 2), "")
    with pytest.raises(ValueError):
        blocks.BlockDecomposition(2, "00", (0, 1), "")  # 00 ends no block
    with pytest.raises(ValueError, match="gamma1 must consist of '0'/'1' only"):
        blocks.BlockDecomposition(2, "", (0, 1), "0x")


def _owned(gamma, level, suffix):
    # brute force: build both level-n blocks
    return any((words.block(j, level).endswith(gamma) if suffix
                else words.block(j, level).startswith(gamma)) for j in (0, 1))


def _accepts(level, gamma0, blocks_, gamma1):
    try:
        blocks.BlockDecomposition(level, gamma0, blocks_, gamma1)
    except ValueError:
        return False
    return True


def test_block_decomposition_rejects_bad_shapes_up_to_level_12():
    assert not _accepts(-1, "", (0, 1), "")
    for n in range(13):
        size = 1 << n
        assert _accepts(n, "", (0, 1), "")
        assert not _accepts(n, "", (), "")
        assert not _accepts(n, "", (0, 2), "")
        for j in (0, 1):
            full = words.block(j, n)
            # a whole block is too long to be a partial block
            assert not _accepts(n, full, (0, 1), "")
            assert not _accepts(n, "", (0, 1), full)
            if n:
                assert _accepts(n, full[1:], (0, 1), full[:-1])
                assert not _accepts(n, "2" * (size - 1), (0, 1), "")
                assert not _accepts(n, "", (0, 1), "a" * (size - 1))


def test_block_decomposition_gammas_exhaustive_small_levels():
    for n in range(1, 4):
        for g in range(1, 1 << n):
            for x in range(1 << g):
                gamma = format(x, f"0{g}b")
                assert _accepts(n, gamma, (0, 1), "") == _owned(gamma, n, True)
                assert _accepts(n, "", (0, 1), gamma) == _owned(gamma, n, False)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=200, deadline=None)
def test_block_decomposition_gammas_up_to_level_12(n, data):
    # a block end with a few letters flipped, judged against both blocks
    size = 1 << n
    g = data.draw(st.integers(min_value=1, max_value=size - 1))
    full = words.block(data.draw(st.integers(min_value=0, max_value=1)), n)
    flips = data.draw(st.sets(st.integers(min_value=0, max_value=g - 1), max_size=2))
    for end, suffix in ((full[size - g:], True), (full[:g], False)):
        gamma = "".join(words.complement(ch) if i in flips else ch
                        for i, ch in enumerate(end))
        parts = (gamma, (1, 0), "") if suffix else ("", (1, 0), gamma)
        assert _accepts(n, *parts) == _owned(gamma, n, suffix)


def _grid_split(p: int, length: int, n: int) -> tuple:
    """The level-n split of the factor at [p, p + length), read off the grid."""
    size = 1 << n
    q0, q1 = -(-p // size), (p + length) // size
    grid = tuple(int(letters(q * size, q * size + 1)) for q in range(q0, q1))
    return q0 * size - p, grid, p + length - q1 * size


@given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.integers(min_value=2, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_decompose_matches_absolute_grid_on_far_factors(start, length):
    w = letters(start, start + length)
    for n in range(blocks.choose_level(w) + 1):
        d = blocks.decompose(w, n)
        g0, grid, g1 = _grid_split(start, length, n)
        assert (d.gamma0, d.blocks, d.gamma1) == (w[:g0], grid, w[length - g1:])
        assert _revalidated(d) == d
        if length <= 200:
            assert splits(w, n) == [(d.gamma0, d.blocks, d.gamma1)]
    # the signature: every top-level block that w meets, read off the grid
    size = 1 << n
    completed = "".join(letters(q * size, q * size + 1)
                        for q in range(start // size, -(-(start + length) // size)))
    assert words._factor_descent(w)[1] == (n, completed)


def test_one_lift_chain_per_word(count_calls):
    start = (1 << 39) + 4321  # a word no other test builds
    w = letters(start, start + 3000)
    assert len(w) <= words.MAX_CACHED_LENGTH
    before = words._short_descent.cache_info()
    blocks.decompose(w, blocks.choose_level(w))
    built = count_calls(blocks.BlockDecomposition, "__post_init__")
    trace.trace_range(w)
    ktheory.reduce_class(w)
    after = words._short_descent.cache_info()
    # choose_level descends; decompose reads the chain and trace and K0
    # the signature of that one descent, with no BlockDecomposition built
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
    assert built == []


def test_serialization():
    d = blocks.decompose(ALPHA, 3)
    assert d.as_dict() == {
        "level": 3, "gamma0": "0010110", "blocks": [1, 0, 1], "gamma1": "0"}
    assert "gamma0" in d.to_json()
