"""Seeded benchmark inputs, built without importing the library.

Letters come from the popcount rule w[i] = popcount(i) mod 2, with the
mirror w[-i] = w[i-1] for negative indices, so words at offsets far past
the library's prefix limit cost nothing to build.  Non-factors are built
to contain an overlap x y x y x: the block overlap B B B[0] of a level-k
block B (k = 0 gives aaa).  The Thue-Morse sequence is overlap-free, so
their rejection is known without asking the program.

Every expected answer the checks need is derived here from the word's
offset: the block grid of the two-sided sequence is aligned at multiples
of 2^n on both sides, and a level-n block starts with its own letter.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

LONG_MIN, LONG_MAX = 256, 2048
LONG_OFFSET = 1 << 40
LONG_NONFACTOR_SHARE = 0.1

SHORT_MIN, SHORT_MAX = 2, 64
SHORT_OFFSET = 1 << 40
SLICE_OFFSET = 1 << 20
POOL_SIZE = 500
POOL_SHARE = 0.9
ZIPF_EXPONENT = 0.7
MAX_AF_LEVEL = 8

# operations of short-queries, in equal shares.  No traffic of the
# library's users has been measured, so the mix is an assumption, and no
# operation is weighted above another.  Non-factors only go to the
# operations that take a word.
SHORT_OPS = ("is_factor", "decompose", "trace_range", "reduce_class", "extension_set",
             "tm_slice", "trace_vector")
WORD_OPS = SHORT_OPS[:5]

# names of the checks `verify --full` must report, in order
VERIFY_CHECKS = (
    "trace-values", "block-traces", "trace-axioms", "uniqueness", "ergodic-oracle",
    "combinatorics", "k-theory", "af-core", "representation",
)


def letter(i: int) -> int:
    if i < 0:
        i = -i - 1
    return i.bit_count() & 1


def word(p: int, length: int) -> str:
    return "".join("01"[letter(i)] for i in range(p, p + length))


def block_word(i: int, k: int) -> str:
    """The level-k block of the letter i."""
    return "".join("01"[letter(j) ^ i] for j in range(1 << k))


def grid(p: int, length: int, n: int) -> tuple:
    """Indices q0 <= q < q1 of the level-n grid blocks inside [p, p + length)."""
    size = 1 << n
    return -(-p // size), (p + length) // size


def grid_level(p: int, length: int) -> int:
    """The largest level whose grid holds two full blocks of the word at p."""
    n = 0
    while True:
        q0, q1 = grid(p, length, n + 1)
        if q1 - q0 < 2:
            return n
        n += 1


def grid_split(p: int, length: int, n: int, complete: bool = False) -> tuple:
    """(gamma0, blocks, gamma1) of the word at p on the level-n grid.

    With complete=True the partial blocks at either end are replaced by
    the full blocks they belong to, and both gammas are empty.
    """
    size = 1 << n
    q0, q1 = grid(p, length, n)
    head, tail = q0 * size - p, p + length - q1 * size
    if complete:
        q0 -= head > 0
        q1 += tail > 0
        return "", tuple(letter(q * size) for q in range(q0, q1)), ""
    w = word(p, length)
    return w[:head], tuple(letter(q * size) for q in range(q0, q1)), w[length - tail:]


def factor_count(n: int) -> int:
    """Number of Thue-Morse factors of length n (Brlek 1989; de Luca-Varricchio 1989)."""
    if n <= 2:
        return 2 * n
    m = (n - 2).bit_length() - 1
    r = n - 1 - (1 << m)
    if 2 * r <= 1 << m:
        return 3 * (1 << m) + 4 * r
    return 4 * (1 << m) + 2 * r


def is_dekking_value(t) -> bool:
    """Whether t = 1/(3 * 2^m) for some m >= 0, i.e. 1/(3 * 2^m) or 1/(6 * 2^m)."""
    if t.numerator != 1 or t.denominator % 3:
        return False
    d = t.denominator // 3
    return d & (d - 1) == 0


def overlap_word(rng: random.Random, p: int, length: int) -> str:
    """The factor at p with a block overlap B B B[0] written over part of it."""
    k = rng.randrange(((length - 1) // 2).bit_length())
    b = block_word(rng.randrange(2), k)
    o = b + b + b[0]
    s = rng.randrange(length - len(o) + 1)
    w = word(p, length)
    return w[:s] + o + w[s + len(o):]


class Query(NamedTuple):
    """One request: operation, its arguments, and what the checks need.

    For a factor, p is its offset; p is None for a non-factor.  For
    tm_slice and trace_vector the arguments alone determine the answer.
    """

    op: str
    args: tuple
    p: int | None


def long_factor_queries(rng: random.Random, count: int) -> list:
    """Distinct long words, lengths log-uniform in LONG_MIN..LONG_MAX.

    Lengths are stratified: each of `count` equal slices of the log
    range gets one length, and every tenth slice holds a non-factor, so
    every batch has the same length profile; the seed picks the order,
    the offsets and the words themselves.
    """
    slots = list(range(count))
    rng.shuffle(slots)
    stride = round(1 / LONG_NONFACTOR_SHARE)
    out, seen = [], set()
    for slot in slots:
        bad = slot % stride == stride // 2
        while True:
            u = (slot + rng.random()) / count
            length = round(LONG_MIN * (LONG_MAX / LONG_MIN) ** u)
            p = rng.randrange(-LONG_OFFSET, LONG_OFFSET - length)
            w = overlap_word(rng, p, length) if bad else word(p, length)
            if w not in seen:
                break
        seen.add(w)
        out.append(Query("pipeline", (w,), None if bad else p))
    return out


def _short_offset(rng: random.Random, v: float) -> int:
    """An offset whose position on the level-6 grid is set by v, the rest by the seed."""
    return rng.randrange(-SHORT_OFFSET, SHORT_OFFSET) // 64 * 64 + int(v * 64)


def _short_query(rng: random.Random, op: str, u: float, v: float) -> Query:
    """A request of operation op.

    u sets the word length (log-uniform) or the AF level; v sets the grid
    phase of the word, or where in [-2^20, 2^20) a slice sits.
    """
    if op == "trace_vector":
        return Query(op, (1 + int(u * MAX_AF_LEVEL),), None)
    length = round(SHORT_MIN * (SHORT_MAX / SHORT_MIN) ** u)
    if op == "tm_slice":
        lo = int((2 * v - 1) * (SLICE_OFFSET - 128)) + rng.randrange(64)
        return Query(op, (lo, lo + length), None)
    p = _short_offset(rng, v)
    return Query(op, _word_args(op, word(p, length), grid_level(p, length)), p)


def _nonfactor_query(rng: random.Random, op: str, u: float, v: float) -> Query:
    length = max(3, round(SHORT_MIN * (SHORT_MAX / SHORT_MIN) ** u))
    w = overlap_word(rng, _short_offset(rng, v), length)
    return Query(op, _word_args(op, w, 0), None)


def _word_args(op: str, w: str, level: int) -> tuple:
    if op == "decompose":
        return (w, level)
    if op == "extension_set":
        return (w, 1, 1)
    return (w,)


def _plan(ops):
    """Endless (operation, u, v) triples that do not depend on the seed.

    Pool rank weights fall off with the rank, so the first ranks carry
    much of the load, and the slowest requests set the tail; if the seed
    chose operations and lengths, the batch's cost would swing with it.
    Operations take turns, so every run of consecutive requests holds
    them in equal shares; u and v, which set a request's cost drivers
    (see _short_query), walk two additive sequences with irrational
    steps, which fill [0, 1) evenly.
    """
    u = v = 0.0
    for op in itertools.cycle(ops):
        yield op, u, v
        u = (u + 0.6180339887498949) % 1.0
        v = (v + 0.4142135623730951) % 1.0


def short_queries(rng: random.Random, count: int) -> list:
    """Requests drawn Zipf-like from a pool, plus fresh ones.

    POOL_SHARE of the requests come from a pool of POOL_SIZE factor
    requests with rank weights (rank + 1)^-ZIPF_EXPONENT; the rest are
    fresh, half on new factors and half on non-factors.  The seed picks
    the words and which request comes when; what each request costs
    follows _plan.
    """
    factor_plan = _plan(SHORT_OPS)
    nonfactor_plan = _plan(WORD_OPS)
    pool = [_short_query(rng, *next(factor_plan)) for _ in range(POOL_SIZE)]
    cum, total = [], 0.0
    for rank in range(POOL_SIZE):
        total += (rank + 1) ** -ZIPF_EXPONENT
        cum.append(total)
    out = []
    for _ in range(count):
        if rng.random() < POOL_SHARE:
            out.append(rng.choices(pool, cum_weights=cum)[0])
        elif rng.random() < 0.5:
            out.append(_short_query(rng, *next(factor_plan)))
        else:
            out.append(_nonfactor_query(rng, *next(nonfactor_plan)))
    return out
