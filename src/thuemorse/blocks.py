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
longer word descends once.  The module caches nothing: `recompose` reads
both blocks of a level from `words._pair`.

Decompositions that `decompose` and `complete_boundaries` read off the
chain are built by `tuple.__new__`, which skips the checks of
`BlockDecomposition.__post_init__`; `recompose`, the split tables of
`verify` (every split of every factor of one length at one level, with
no lift chain) and the tests check them instead.

The signature (n, c) of a factor, the second item of its descent, is
its top level n and the block word c of 2..6 letters that completes the
chain's top entry, with no BlockDecomposition built, or (0, w) without
a level-1 grid.  Trace and K0 class are functions of it alone.
"""

from ._value import value_base
from .errors import InvariantError, LevelError, NotAFactorError
from .words import (_bits, _complete, _factor_descent, _from_bits, _is_binary, _owner, _pair,
                    is_factor)


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
    """The lift chain of a factor (`words._descent`), empty for words of
    at most four letters; raises NotAFactorError for a non-factor."""
    return _factor_descent(w)[0]


def decompose(w: str, n: int) -> BlockDecomposition:
    """The unique level-n block decomposition of a factor.

    Raises LevelError when the level-n grid does not admit at least two
    full blocks inside w.
    """
    chain = _chain(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        return tuple.__new__(BlockDecomposition, (0, "", _bits(w), ""))
    if not chain:
        raise LevelError(f"no level-1 decomposition of {w!r} with two full blocks")
    if n > len(chain):
        raise LevelError(f"no level-{n} decomposition of {w!r} with two full blocks")
    c, off = chain[n - 1]
    return tuple.__new__(BlockDecomposition, (n, w[:off], _bits(c), w[off + (len(c) << n):]))


def choose_level(w: str) -> int:
    """The largest level at which w decomposes into 2..4 full blocks."""
    chain = _chain(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    return len(chain)


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
