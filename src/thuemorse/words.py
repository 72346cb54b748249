"""The two-sided Thue-Morse sequence and its factor language.

The sequence is the fixed point of the substitution 0 -> 01, 1 -> 10
starting from 0, extended to negative indices by the mirror rule
w[-i] = w[i-1].  Words are plain strings over the alphabet "01".
Factor membership is decided exactly by one de-substitution per level
(`_descent`), on the grid that any 00 or 11 fixes; the same descent
yields the block decompositions and the signature that trace and K0
class read (`blocks`).  A word is validated (`_check_word`) where it is
descended: a short word once, when its descent is first memoised, so a
repeated query pays one lookup and no O(|w|) re-check.

No prefix of the sequence is held.  The aligned level-k block j of the
sequence, w[j 2**k] ... w[(j + 1) 2**k - 1], is block(w[j], k) (the
sequence is 2-automatic; Allouche & Shallit, Automatic Sequences, 2003).
One table holds both blocks of the 13 levels of at most MAX_CACHED_LENGTH
letters.  A window of n <= MAX_CACHED_LENGTH letters, at any offset, is
read off the two blocks of level (n - 1).bit_length() that hold it, and
a longer one off the top-level blocks that it meets, in O(n + log offset)
time and memory.  Thue-Morse is overlap-free (Thue 1912), so no two
occurrences of a word overlap, and `str.count` on a window is the exact
occurrence count.  Counts in long prefixes instead follow the same
de-substitution down the substitution levels (`_prefix_count`), without
building the prefix.
"""

import operator
import re
from functools import lru_cache

from .errors import NotAFactorError, ResourceLimitError

MAX_SLICE = 1 << 26
MAX_BLOCK_LEVEL = 20  # log2 MAX_WORD_LENGTH
MAX_FACTOR_LENGTH = 64
# Longest word any word-taking function accepts.  Membership, block
# decomposition, trace and K0 reduction all run in O(|w|) time and
# memory, so this bounds every per-word query.
MAX_WORD_LENGTH = 1 << 20
# Memoised functions of a word skip words longer than this, so a cache of
# N entries holds at most N * MAX_CACHED_LENGTH letters.
MAX_CACHED_LENGTH = 4096


def _factor_window(L: int) -> int:
    # all p(L) factors of each L <= MAX_FACTOR_LENGTH: test_factors_of_length_counts
    return 10 * L + 64


_COMPLEMENT = str.maketrans("01", "10")
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_LETTERS = bytes.maketrans(b"\x00\x01", b"01")


def _is_binary(s: str) -> bool:
    """Whether every letter of s is '0' or '1' (true for the empty string)."""
    # one copy and one bytes table pass: 2.5 times str.translate's speed
    return s.isascii() and not s.encode().translate(None, b"01")


def _bits(s: str) -> tuple:
    """The letters of a binary string as the ints 0 and 1, without a Python loop."""
    return tuple(s.encode().translate(_BITS))


def _from_bits(bits) -> str:
    """The inverse of `_bits`: ints 0 and 1 back to a binary string."""
    return bytes(bits).translate(_LETTERS).decode()


def _check_word(w: str, allow_empty: bool = False) -> str:
    if not isinstance(w, str):
        raise TypeError(f"word must be a string, got {type(w).__name__}")
    if not w and not allow_empty:
        raise ValueError("empty word not allowed here")
    if len(w) > MAX_WORD_LENGTH:
        raise ResourceLimitError(f"word length {len(w)} exceeds {MAX_WORD_LENGTH}")
    if not _is_binary(w):
        raise ValueError(f"word must consist of '0'/'1' only: {w!r}")
    return w


def _check_int(value, name: str) -> int:
    """value by `operator.index`: a bool passes, a float or a str raises TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def complement(w: str) -> str:
    """Bitwise complement of a word."""
    return w.translate(_COMPLEMENT)


# the top level whose blocks have at most MAX_CACHED_LENGTH letters
_SHORT_LEVEL = MAX_CACHED_LENGTH.bit_length() - 1
# (block(0, k), block(1, k)) for k <= _SHORT_LEVEL, filled on first use by
# doubling, (b0, b1) -> (b0 b1, b1 b0), with no complement: levels 0..m-1
# for some m <= 13, at most 16382 letters.  A level is written whole in
# one store, so concurrent callers at worst build it twice.
_short_blocks = [("0", "1")] + [None] * _SHORT_LEVEL


def _pair(k: int) -> tuple:
    """(block(0, k), block(1, k)) for any level k >= 0, unchecked."""
    if k > _SHORT_LEVEL:
        return _right_window(0, 1 << k), _right_window(1 << k, 1 << k)
    p = _short_blocks[k]
    if p is None:
        b0, b1 = _pair(k - 1)
        p = _short_blocks[k] = b0 + b1, b1 + b0
    return p


def tm_prefix(n: int) -> str:
    """The one-sided prefix w[0] w[1] ... w[n-1]: block(0, k)[:n] with 2**k >= n."""
    if not 0 <= n <= MAX_SLICE:
        if n < 0:
            raise ValueError(f"prefix length must be nonnegative, got {n}")
        raise ResourceLimitError(f"prefix length {n} exceeds {MAX_SLICE}")
    if n <= MAX_CACHED_LENGTH:
        return _pair((n - 1).bit_length())[0][:n]
    return _right_window(0, n)


def tm_letter(i: int) -> int:
    """Letter at any integer index; negative indices mirror: w[-i] = w[i-1]."""
    i = _check_int(i, "i")
    return _letter(-i - 1 if i < 0 else i)


def _letter(i: int) -> int:
    return i.bit_count() & 1  # w[i] for i >= 0, unchecked


def _right_window(lo: int, n: int) -> str:
    """w[lo] ... w[lo+n-1] for lo >= 0; the level-k block q is block(w[q], k).

    With k = (n - 1).bit_length(), so 2**k >= n, the window lies in the
    level-k blocks q = lo >> k and q + 1.  Above MAX_CACHED_LENGTH letters
    it joins the top-level blocks that it meets, each end trimmed first so
    that only the window is built.  Time and memory are O(n + log lo).
    """
    if n > MAX_CACHED_LENGTH:
        k = _SHORT_LEVEL
        first, last = lo >> k, (lo + n - 1) >> k
        pair = _pair(k)
        parts = [pair[_letter(j)] for j in range(first, last + 1)]
        parts[0] = parts[0][lo - (first << k):]
        parts[-1] = parts[-1][:lo + n - (last << k)]
        return "".join(parts)
    k = (n - 1).bit_length()
    q = lo >> k
    start = lo - (q << k)
    # the table entry once it is filled, and w[q], w[q + 1] as in `_letter`:
    # no call on this hot path
    pair = _short_blocks[k] or _pair(k)
    head = pair[q.bit_count() & 1][start:start + n]
    if len(head) == n:
        return head
    return head + pair[(q + 1).bit_count() & 1][:n - len(head)]


def tm_slice(lo: int, hi: int) -> str:
    """The word w[lo] w[lo+1] ... w[hi-1] over two-sided indices.

    Any window of at most MAX_SLICE letters at any offset, in
    O(hi - lo + log |lo|) time and memory; no prefix is built.  Indices
    below 0 follow the mirror rule w[-i] = w[i-1], so the part left of 0
    is a right-hand window read backwards.  A window of at most
    MAX_CACHED_LENGTH letters between exact ints is memoised, so a repeat
    is one lookup; such a call cannot raise, and every other is checked.
    """
    if type(lo) is int and type(hi) is int and 0 <= hi - lo <= MAX_CACHED_LENGTH:
        return _short_slice(lo, hi)
    lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi})")
    if hi - lo > MAX_SLICE:
        raise ResourceLimitError(f"slice length {hi - lo} exceeds {MAX_SLICE}")
    return _slice(lo, hi)


def _slice(lo: int, hi: int) -> str:
    """`tm_slice` for ints lo <= hi, unchecked."""
    if lo >= 0:
        return _right_window(lo, hi - lo)
    if hi <= 0:
        return _right_window(-hi, hi - lo)[::-1]
    return tm_prefix(-lo)[::-1] + tm_prefix(hi)


# an entry holds at most MAX_CACHED_LENGTH letters, so 4 MiB in all
_short_slice = lru_cache(maxsize=1 << 10)(_slice)


def block(i: int, n: int) -> str:
    """n-fold substitution image of the letter i; length 2**n."""
    if i not in (0, 1):
        raise ValueError(f"letter must be 0 or 1, got {i}")
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > MAX_BLOCK_LEVEL:
        raise ResourceLimitError(f"level {n} exceeds {MAX_BLOCK_LEVEL}")
    return _right_window(i << n, 1 << n)


def keane_product(b: str, c: str) -> str:
    """Concatenate |c| copies of b, complementing the i-th copy when c[i] = 1."""
    _check_word(b)
    _check_word(c)
    if len(b) * len(c) > MAX_WORD_LENGTH:
        raise ResourceLimitError(
            f"product length {len(b)} * {len(c)} exceeds {MAX_WORD_LENGTH}")
    cb = complement(b)
    return "".join(b if ch == "0" else cb for ch in c)


def transform(w: str, kind: str) -> str:
    """Reversal or complement of a word.

    Reversal is an anti-homomorphism and both transforms preserve the
    factor language.
    """
    _check_word(w, allow_empty=True)
    if kind == "reverse":
        return w[::-1]
    if kind == "complement":
        return complement(w)
    raise ValueError(f"kind must be 'reverse' or 'complement', got {kind!r}")


# All factors of length <= 8 (validated against a 2**16 scan in the tests).
_BASE_LENGTH = 8


@lru_cache(maxsize=1)
def _base_factors() -> frozenset:
    return frozenset(_factors_upto(_BASE_LENGTH))


def lift(s: str, phase: int):
    """De-substitute the pairs of s that start at offset `phase` (0 or 1).

    Returns the first letter of each pair s[phase + 2t] s[phase + 2t + 1],
    or None when some pair is 00 or 11.  A dangling letter at either end
    is not read.  Two extended slices and one translate, so no Python
    loop runs over the letters.
    """
    end = phase + (len(s) - phase) // 2 * 2
    first = s[phase:end:2]
    if first.translate(_COMPLEMENT) != s[phase + 1:end:2]:
        return None
    return first


def _parent_word(w: str, phase: int):
    """De-substitute one level assuming w starts at grid offset `phase`.

    A dangling leading letter x is the second half of a pair, so its
    parent letter is the complement of x; a dangling trailing letter is
    a first half and maps to itself.  Returns None when some interior
    pair is not 01 or 10.
    """
    body = lift(w, phase)
    if body is None:
        return None
    head = complement(w[0]) if phase else ""
    tail = w[-1] if (len(w) - phase) % 2 else ""
    return head + body + tail


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


def _descent(w: str):
    """(chain, (n, c)) for a factor w, None for a non-factor.

    Chain entry n - 1, (c, off), says that w[off:off + len(c) * 2**n] is
    the level-n expansion of the block letters c.  A 00 or 11 at index i
    straddles a grid boundary, so it fixes the phase (i + 1) mod 2; a c
    with neither is lifted on phase 0.  c is lifted once per level while
    the grid leaves two full blocks; at the top the owners of the partial
    ends complete it to the signature's block word.  That top check alone
    decides membership: w is a subword of the completed word's expansion,
    and a factor lifts on its own grid, so w is a factor exactly when the
    completed word is.

    `_descend` validates w (`_check_word`) before it lifts.  An exact str
    of at most MAX_CACHED_LENGTH letters goes through the memo, which
    stores no call that raises, so every key is a checked word and a
    repeated word is checked once; any other input is checked on every
    call.
    """
    if type(w) is str and len(w) <= MAX_CACHED_LENGTH:
        return _short_descent(w)
    return _descend(w)


def _descend(w: str):
    _check_word(w)
    chain = []
    c, off = w, 0
    while True:
        i = c.find("00")
        if i < 0:
            i = c.find("11")
        phase = (i + 1) & 1
        if len(c) - phase < 4:
            break
        c = lift(c, phase)
        if c is None:
            return None
        off += phase << len(chain)
        chain.append((c, off))
    n = len(chain)
    top = _complete(w[:off], c, w[off + (len(c) << n):], n)
    if top is None or top not in _base_factors():
        return None
    return tuple(chain), (n, top)


# 20k mixed queries on words of <= 64 letters descend 1.8k-1.9k distinct
# words; an entry of 4096 letters (key and chain) holds about 10 kB.
_short_descent = lru_cache(maxsize=1 << 11)(_descend)


# Below this prefix length a count reads the prefix itself.
_COUNT_BASE = 64
# Counts of words longer than this are not memoised; a long word's
# parents halve in length, so its recursion reaches the memo after
# log2(|w| / _COUNT_KEY_LENGTH) levels.
_COUNT_KEY_LENGTH = 64


def _prefix_count(w: str, n: int) -> int:
    """Occurrences of w at starts p >= 0 with p + |w| <= n.

    Exact for any nonempty binary word, factor or not, by the 2-automatic
    recursion (Allouche & Shallit, Automatic Sequences, 2003): an
    occurrence at p = 2q + phase is an occurrence of the parent word
    `_parent_word(w, phase)` at q, and q ranges over
    0 <= q <= (n - phase - |w|) // 2.  Words of fewer than four letters
    do not shrink under de-substitution, so they split into their right
    extensions plus the one start p = n - |w| that has no extension
    inside the prefix.  Memory is O(|w|) and time O(|w| + log n) beyond
    the shared memo of short words; the prefix is never built beyond
    _COUNT_BASE letters.
    """
    if len(w) <= _COUNT_KEY_LENGTH:
        return _short_prefix_count(w, n)
    return _count_step(w, n)


def _count_step(w: str, n: int) -> int:
    if n < len(w):
        return 0
    if n <= _COUNT_BASE:
        # overlap-free, so str.count's non-overlapping count is complete
        # for factors, and a non-factor occurs nowhere
        return tm_prefix(n).count(w)
    if len(w) < 4:
        last = all(_letter(n - len(w) + i) == int(a) for i, a in enumerate(w))
        return _prefix_count(w + "0", n) + _prefix_count(w + "1", n) + last
    total = 0
    for phase in (0, 1):
        parent = _parent_word(w, phase)
        if parent is not None:
            total += _prefix_count(parent, (n - phase - len(w)) // 2 + len(parent))
    return total


# one count at n <= 2**26 was measured to visit at most ~1100 short keys;
# the 92 words of the ergodic check in `verify --full` share 656
_short_prefix_count = lru_cache(maxsize=1 << 12)(_count_step)


def is_factor(w: str) -> bool:
    """Whether w occurs in the Thue-Morse sequence."""
    return _descent(w) is not None


def _not_a_factor(w: str) -> NotAFactorError:
    return NotAFactorError(f"{w!r} does not occur in the Thue-Morse sequence")


def _factor_descent(w: str) -> tuple:
    """`_descent(w)`, checking w; raises NotAFactorError for a non-factor."""
    found = _descent(w)
    if found is None:
        raise _not_a_factor(w)
    return found


def require_factor(w: str) -> str:
    _factor_descent(w)
    return w


def factors_of_length(L: int) -> list:
    """All factors of length L, lexicographically sorted."""
    L = _check_int(L, "L")
    if L < 1:
        raise ValueError("length must be positive")
    if L > MAX_FACTOR_LENGTH:
        raise ResourceLimitError(f"length {L} exceeds {MAX_FACTOR_LENGTH}")
    window = tm_prefix(_factor_window(L))
    return sorted({window[i:i + L] for i in range(len(window) - L + 1)})


def _factors_upto(max_len: int) -> list:
    """All factors of 1..max_len letters, by length, then sorted."""
    return [w for L in range(1, max_len + 1) for w in factors_of_length(L)]


def occurrences(w: str, lo: int, hi: int) -> list:
    """Start indices of all occurrences of w inside the slice [lo, hi)."""
    _check_word(w)
    # tm_slice checks lo and hi; overlap-free, so finditer's non-overlapping
    # matches are all occurrences
    return [m.start() + lo for m in re.finditer(w, tm_slice(lo, hi))]
