"""Canonical block decompositions of Thue-Morse factors.

Every factor of length >= 2 can be written as a partial block, two to
four full substitution blocks of some level n, and a partial block:

    w = gamma0 . i1^(n) ... ik^(n) . gamma1      (2 <= k <= 4)

where i^(n) denotes the n-fold substitution image of the letter i.  At a
fixed level the expression is unique.  The decomposition is computed by
aligning the level-1 grid (forced by any 00 or 11, which must straddle a
grid boundary) and then regrouping pairs of blocks one level at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import LevelError, NotAFactorError
from .words import block, is_factor, require_factor, short_word_cache


@dataclass(frozen=True)
class BlockDecomposition:
    """A word split as gamma0 + full level-n blocks + gamma1."""

    level: int
    gamma0: str
    blocks: tuple
    gamma1: str

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not self.blocks:
            raise ValueError("at least one full block required")
        if any(b not in (0, 1) for b in self.blocks):
            raise ValueError("blocks must be 0/1 letters")
        size = 1 << self.level
        for gamma, side in ((self.gamma0, "gamma0"), (self.gamma1, "gamma1")):
            if len(gamma) >= size:
                raise ValueError(f"{side} must be shorter than a level-{self.level} block")
            if gamma.strip("01"):
                raise ValueError(f"{side} must consist of '0'/'1' only")
        if self.gamma0 and not any(
            block(j, self.level).endswith(self.gamma0) for j in (0, 1)
        ):
            raise ValueError("gamma0 is not a final subword of a block")
        if self.gamma1 and not any(
            block(j, self.level).startswith(self.gamma1) for j in (0, 1)
        ):
            raise ValueError("gamma1 is not an initial subword of a block")

    def word(self) -> str:
        return recompose(self)

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "gamma0": self.gamma0,
            "blocks": list(self.blocks),
            "gamma1": self.gamma1,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def recompose(d: BlockDecomposition) -> str:
    """Expand a decomposition back into the word it describes."""
    middle = "".join(block(b, d.level) for b in d.blocks)
    return d.gamma0 + middle + d.gamma1


def _level1_split(w: str):
    """The unique level-1 split of a factor with >= 2 full blocks.

    The grid alignment is forced: any 00 or 11 must straddle a pair
    boundary, and alternating words long enough to be ambiguous contain
    an overlap, so they are not factors.
    """
    found = None
    for phase in (0, 1):
        k = (len(w) - phase) // 2
        if k < 2:
            continue
        bits = []
        ok = True
        for t in range(k):
            a, b = w[phase + 2 * t], w[phase + 2 * t + 1]
            if a == b:
                ok = False
                break
            bits.append(int(a))
        if not ok:
            continue
        gamma0 = w[:phase]
        gamma1 = w[phase + 2 * k:]
        cand = BlockDecomposition(1, gamma0, tuple(bits), gamma1)
        if found is not None:
            raise RuntimeError(f"ambiguous level-1 grid for factor {w!r}")
        found = cand
    return found


def _regroup(d: BlockDecomposition) -> BlockDecomposition:
    """Regroup pairs of level-n blocks into level-(n+1) blocks.

    A pair (i, j) forms a level-(n+1) block iff j is the complement of
    i.  Dangling blocks at either end are absorbed into gamma0/gamma1.
    Returns None when neither alignment yields >= 2 full blocks.
    """
    c = d.blocks
    found = None
    for phase in (0, 1):
        k = (len(c) - phase) // 2
        if k < 2:
            continue
        bits = []
        ok = True
        for t in range(k):
            i, j = c[phase + 2 * t], c[phase + 2 * t + 1]
            if i == j:
                ok = False
                break
            bits.append(i)
        if not ok:
            continue
        gamma0 = d.gamma0 + (block(c[0], d.level) if phase else "")
        gamma1 = (block(c[-1], d.level) if (len(c) - phase) % 2 else "") + d.gamma1
        cand = BlockDecomposition(d.level + 1, gamma0, tuple(bits), gamma1)
        if found is not None:
            raise RuntimeError("ambiguous regrouping; input cannot be a factor")
        found = cand
    return found


def decompose(w: str, n: int) -> BlockDecomposition:
    """The unique level-n block decomposition of a factor.

    Raises LevelError when the level-n grid does not admit at least two
    full blocks inside w.
    """
    require_factor(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        return BlockDecomposition(0, "", tuple(int(ch) for ch in w), "")
    d = _level1_split(w)
    if d is None:
        raise LevelError(f"no level-1 decomposition of {w!r} with two full blocks")
    while d.level < n:
        nxt = _regroup(d)
        if nxt is None:
            raise LevelError(f"no level-{n} decomposition of {w!r} with two full blocks")
        d = nxt
    return d


# choose_level, trace_range and reduce_class of one word share one lift
# chain; an entry holds at most about 2 * MAX_CACHED_LENGTH letters
@short_word_cache(maxsize=1 << 9)
def _maximal(w: str):
    """The decomposition of a factor at its largest level, or None below level 1.

    Only words of length <= 4 lack a level-1 grid with two full blocks.
    """
    d = _level1_split(w)
    if d is None:
        return None
    while True:
        nxt = _regroup(d)
        if nxt is None:
            break
        d = nxt
    if not 2 <= len(d.blocks) <= 4:
        raise RuntimeError(f"maximal regrouping of {w!r} left {len(d.blocks)} blocks")
    return d


def choose_level(w: str) -> int:
    """The largest level at which w decomposes into 2..4 full blocks."""
    require_factor(w)
    if len(w) < 2:
        raise LevelError("words of length < 2 have no block decomposition")
    d = _maximal(w)
    return 0 if d is None else d.level


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
    blocks = list(d.blocks)
    if d.gamma0:
        j = _unique_suffix_owner(d.gamma0, d.level)
        blocks.insert(0, j)
    if d.gamma1:
        j = _unique_prefix_owner(d.gamma1, d.level)
        blocks.append(j)
    out = BlockDecomposition(d.level, "", tuple(blocks), "")
    if not is_factor("".join("01"[b] for b in out.blocks)):
        raise RuntimeError(f"boundary completion of {d} is not a factor")
    return out


def _unique_suffix_owner(gamma: str, level: int) -> int:
    owners = [j for j in (0, 1) if block(j, level).endswith(gamma)]
    if len(owners) != 1:
        raise RuntimeError(f"{gamma!r} is a suffix of {len(owners)} level-{level} blocks")
    return owners[0]


def _unique_prefix_owner(gamma: str, level: int) -> int:
    owners = [j for j in (0, 1) if block(j, level).startswith(gamma)]
    if len(owners) != 1:
        raise RuntimeError(f"{gamma!r} is a prefix of {len(owners)} level-{level} blocks")
    return owners[0]


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
    word = "".join("01"[b] for b in blocks)
    if not is_factor(word):
        raise NotAFactorError(f"block word {word!r} does not expand to a factor")
    c = blocks
    leading = c[1] == 1 - c[0] and c[3] == 1 - c[2]
    trailing = c[2] == 1 - c[1] and c[4] == 1 - c[3]
    if leading == trailing:
        raise RuntimeError(f"expected exactly one grouping of {word!r}, got {leading}/{trailing}")
    if leading:
        return [(c[0], n + 1), (c[2], n + 1), (c[4], n)]
    return [(c[0], n), (c[1], n + 1), (c[3], n + 1)]
