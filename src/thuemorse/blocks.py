"""Canonical block decompositions of Thue-Morse factors.

Every factor of length >= 2 can be written as a partial block, two to
four full substitution blocks of some level n, and a partial block:

    w = gamma0 . i1^(n) ... ik^(n) . gamma1      (2 <= k <= 4)

where i^(n) denotes the n-fold substitution image of the letter i.  At a
fixed level the expression is unique.  All levels of one word come
from the one descent that also decides membership, `words._descent`,
which is cached for words of at most `words.MAX_CACHED_LENGTH` letters:
`is_factor`, `choose_level`, `decompose`, `trace_range` and
`reduce_class` of one such word descend once, and each call on a
longer word descends once.  The one memo here, `_short_decompose`, holds
each such word's decomposition at its `choose_level`, so a repeated
`decompose` at that level reads no descent; `recompose` reads both
blocks of a level from `words._pair`.

`_split` reads a level's blocks off w at the descent's grid offset, as
one stride slice.  It and `complete_boundaries` build decompositions by
`tuple.__new__`, which skips `BlockDecomposition.__post_init__`'s
checks; `recompose`, the split tables of
`verify` (every split of every factor of one length at one level, with
no descent) and the tests check them instead.

The signature (n, c) of a factor, the second item of its descent, is
its top level n and the block word c of 2..6 letters that completes
its top-level blocks, with no BlockDecomposition built, or (0, w)
without a level-1 grid.  Trace and K0 class are functions of it alone.
`_owner` names the letter whose block a partial block ends or begins,
for the constructor's checks and `complete_boundaries`; the descent
reads its top letters off the word and needs no owner.
"""

from functools import lru_cache

from ._value import value_base
from .errors import InvariantError, LevelError, NotAFactorError
from .words import (MAX_CACHED_LENGTH, _SHORT_LEVEL, _bits, _check_int, _factor_descent, _from_bits,
                    _is_binary, _pair, _right_window, _short_blocks, is_factor)


def _owner(gamma: str, level: int, suffix: bool):
    """The letter j whose level-n block starts with gamma (ends with it when
    `suffix`), or None; gamma is nonempty and shorter than a block.

    The length-g prefix of block(j, n) is that of block(j, k) for 2**k >= g,
    and its suffix reversed is the prefix of block(j + n mod 2, k).  So two
    prefix matches against `_pair(k)`, or against the first g letters of
    each level-k block above MAX_CACHED_LENGTH letters, replace building
    both level-n blocks.
    """
    flip = 0
    if suffix:
        gamma, flip = gamma[::-1], level & 1
    g = len(gamma)
    k = (g - 1).bit_length()
    if k <= _SHORT_LEVEL:
        b0, b1 = _short_blocks[k] or _pair(k)  # no call once the level is filled
        if b0.startswith(gamma):
            return flip
        if b1.startswith(gamma):
            return 1 - flip
        return None
    # above MAX_CACHED_LENGTH letters, the first g letters of each block,
    # the second built only after the first is dropped
    for j in (0, 1):
        if _right_window(j << k, g) == gamma:
            return j ^ flip
    return None


def _complete(gamma0: str, c: str, gamma1: str, level: int):
    """c extended by the owner letter of each nonempty partial block
    (gamma0 ends its block, gamma1 begins it); None if one has no owner."""
    for gamma, suffix in ((gamma0, True), (gamma1, False)):
        if gamma:
            j = _owner(gamma, level, suffix)
            if j is None:
                return None
            c = "01"[j] + c if suffix else c + "01"[j]
    return c


class BlockDecomposition(value_base("level gamma0 blocks gamma1")):
    """A word split as gamma0 + full level-n blocks + gamma1."""

    __slots__ = ()

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.blocks:
            raise ValueError("at least one full block required")
        if any(b not in (0, 1) for b in self.blocks):
            raise ValueError("blocks must be 0/1 letters")
        for gamma, side in ((self.gamma0, "gamma0"), (self.gamma1, "gamma1")):
            # len(gamma) >= 2**level, without building 2**level
            if len(gamma).bit_length() > self.level:
                raise ValueError(f"{side} must be shorter than a level-{self.level} block")
            if not _is_binary(gamma):
                raise ValueError(f"{side} must consist of '0'/'1' only")
        if self.gamma0 and _owner(self.gamma0, self.level, suffix=True) is None:
            raise ValueError("gamma0 is not a final subword of a block")
        if self.gamma1 and _owner(self.gamma1, self.level, suffix=False) is None:
            raise ValueError("gamma1 is not an initial subword of a block")

    def word(self) -> str:
        return recompose(self)

    def as_dict(self) -> dict:
        return {**self._asdict(), "blocks": list(self.blocks)}


def recompose(d: BlockDecomposition) -> str:
    """Expand a decomposition back into the word it describes."""
    n = d.level
    if n == 0:
        # the block letters are the word: one byte translate
        return d.gamma0 + _from_bits(d.blocks) + d.gamma1
    # a join of the two blocks of `words._pair`: str.translate to
    # multi-letter values takes CPython's slow path, twice as long at level 1
    pair = _pair(n)
    return d.gamma0 + "".join([pair[b] for b in d.blocks]) + d.gamma1


def _chain(w: str) -> tuple:
    """The level offsets of a factor's descent (`words._descent`), empty for
    words of at most four letters; raises NotAFactorError for a non-factor."""
    return _factor_descent(w)[0]


def _split(w: str, offsets: tuple, n: int) -> BlockDecomposition:
    """The level-n decomposition of w from its descent's level offsets,
    for 0 <= n <= len(offsets); unchecked."""
    off = offsets[n - 1] if n else 0
    end = off + ((len(w) - off) >> n << n)
    return tuple.__new__(BlockDecomposition, (n, w[:off], _bits(w[off:end:1 << n]), w[end:]))


def decompose(w: str, n: int) -> BlockDecomposition:
    """The unique level-n block decomposition of a factor.

    Raises LevelError when the level-n grid does not admit at least two
    full blocks inside w.  An exact str of at most MAX_CACHED_LENGTH
    letters asked at an exact int n equal to its `choose_level` is
    answered from `_short_decompose`, the same object on every hit; a
    lower level pays that lookup and then reads the descent here.
    """
    if type(w) is str and type(n) is int and len(w) <= MAX_CACHED_LENGTH:
        d = _short_decompose(w)
        if d.level == n:
            return d
    offsets = _chain(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    n = _check_int(n, "n")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n and not offsets:
        raise LevelError(f"no level-1 decomposition of {w!r} with two full blocks")
    if n > len(offsets):
        raise LevelError(f"no level-{n} decomposition of {w!r} with two full blocks")
    return _split(w, offsets, n)


# keyed on the word alone: `verify` asks each (word, level) pair once, so a
# (w, n) key would store every level and hit none.  An entry holds its key
# word and a decomposition of it, at most 2 * MAX_CACHED_LENGTH letters.
@lru_cache(maxsize=1 << 9)
def _short_decompose(w: str) -> BlockDecomposition:
    """`decompose(w, choose_level(w))` by the same checks."""
    offsets = _chain(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    return _split(w, offsets, len(offsets))


def choose_level(w: str) -> int:
    """The largest level at which w decomposes into 2..4 full blocks."""
    offsets = _chain(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    return len(offsets)


def complete_boundaries(d: BlockDecomposition) -> BlockDecomposition:
    """Extend gamma0/gamma1 to full blocks.

    With at least two full blocks present, any extension of the word by
    one block length is itself a full block, and a nonempty partial
    block is a subword of exactly one of the two complementary blocks,
    so the completion is unique and preserves both the trace value and
    the projection class of the word.
    """
    if len(d.blocks) < 2:
        raise ValueError("completion needs at least two full blocks")
    c = _complete(d.gamma0, _from_bits(d.blocks), d.gamma1, d.level)
    if c is None:
        raise InvariantError(
            f"gamma0 {d.gamma0!r} or gamma1 {d.gamma1!r} completes no level-{d.level} block")
    if not is_factor(c):
        raise InvariantError(f"boundary completion {c!r} at level {d.level} is not a factor")
    return tuple.__new__(BlockDecomposition, (d.level, "", _bits(c), ""))


def rewrite_five(blocks, n: int):
    """Regroup five level-n blocks into mixed level-(n+1)/level-n blocks.

    Exactly one of the two groupings applies to a factor: either the
    leading two pairs form level-(n+1) blocks, or the trailing two pairs
    do.  Returns a list of (letter, level) pairs.
    """
    blocks = tuple(blocks)
    if len(blocks) != 5 or any(b not in (0, 1) for b in blocks):
        raise ValueError("need exactly five 0/1 block letters")
    n = _check_int(n, "n")
    if n < 0:
        raise ValueError("level must be nonnegative")
    word = _from_bits(blocks)
    if not is_factor(word):
        raise NotAFactorError(f"block word {word!r} does not expand to a factor")
    c = blocks
    leading = c[1] == 1 - c[0] and c[3] == 1 - c[2]
    trailing = c[2] == 1 - c[1] and c[4] == 1 - c[3]
    if leading == trailing:
        raise InvariantError(f"expected exactly one grouping of {word!r}, got {leading}/{trailing}")
    if leading:
        return [(c[0], n + 1), (c[2], n + 1), (c[4], n)]
    return [(c[0], n), (c[1], n + 1), (c[3], n + 1)]
