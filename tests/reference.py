"""Independent reference routes, each held once: letters from binary digit
sums, not the package's doubled blocks; a letter-by-letter scan; brute splits;
the factor complexity by its recurrence.  None of them reads the package."""


def letters(lo: int, hi: int) -> str:
    """w[lo..hi-1] from binary digit sums and the mirror rule w[-i] = w[i-1]."""
    return "".join(str(bin(-i - 1 if i < 0 else i).count("1") & 1) for i in range(lo, hi))


def scan(s: str, w: str) -> list:
    """Start indices of w in s, overlapping occurrences included, letter by letter."""
    return [i for i in range(len(s) - len(w) + 1) if s[i:i + len(w)] == w]


def splits(w: str, n: int) -> list:
    """All (gamma0, blocks, gamma1) splittings of w at level n: every offset
    g0 < 2**n leaving two full blocks whose chunks expand their first letters."""
    size = 1 << n
    b0 = letters(0, size)
    bl = (b0, b0.translate(str.maketrans("01", "10")))
    suffixes = {b[size - g:] for b in bl for g in range(size)}
    prefixes = {b[:g] for b in bl for g in range(size)}
    expand = str.maketrans({"0": bl[0], "1": bl[1]})
    length = len(w)
    out = []
    for g0 in range(min(size, length - 2 * size + 1)):
        end = length - (length - g0) % size
        if w[:g0] not in suffixes or w[end:] not in prefixes:
            continue
        found = w[g0:end:size]
        if w[g0:end] == found.translate(expand):
            out.append((w[:g0], tuple(map(int, found)), w[end:]))
    return out


def complexity(max_len: int) -> list:
    """[0, p(1), ..., p(max_len)], the factor complexity (Brlek 1989; de Luca & Varricchio
    1989): p(1..3) = 2, 4, 6, p(2n) = p(n) + p(n + 1), p(2n + 1) = 2 p(n + 1) for n >= 2."""
    p = [0, 2, 4, 6]
    for L in range(4, max_len + 1):
        p.append(p[L // 2] + p[L // 2 + 1] if L % 2 == 0 else 2 * p[L // 2 + 1])
    return p
