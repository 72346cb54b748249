import json
from fractions import Fraction

import pytest

from thuemorse import afcore, extensions, trace, words
from thuemorse.errors import ResourceLimitError


def test_dimensions():
    assert [afcore.af_level(k).dimension for k in (1, 2, 3)] == [4, 10, 16]
    for k in range(1, 9):
        level = afcore.af_level(k)
        assert level.basis == tuple(words.factors_of_length(2 * k))
        assert level.dimension == len(words.factors_of_length(2 * k))


def test_af_level_is_cached():
    afcore.af_level.cache_clear()
    first = afcore.af_level(5)
    hits = afcore.af_level.cache_info().hits
    assert afcore.af_level(5) is first
    assert afcore.af_level.cache_info().hits == hits + 1
    assert first == afcore.AfLevel(5, tuple(words.factors_of_length(10)))


def test_level_validation():
    with pytest.raises(ResourceLimitError):
        afcore.af_level(0)
    with pytest.raises(ResourceLimitError):
        afcore.af_level(13)
    for k in (-3, 0, 13):
        with pytest.raises(ResourceLimitError):
            afcore.bratteli_data(k)
        with pytest.raises(ResourceLimitError):
            afcore.bratteli_dot(k)
        with pytest.raises(ResourceLimitError):
            afcore.trace_vector(k)
    # level k maps into k + 1, so the top level has no inclusion matrix
    with pytest.raises(ResourceLimitError):
        afcore.inclusion_matrix(afcore.MAX_LEVEL)
    with pytest.raises(ValueError, match="vector length"):
        afcore.push_trace_down(afcore.inclusion_matrix(1), afcore.trace_vector(1))


def test_inclusion_matrix_columns():
    m = afcore.inclusion_matrix(1)
    cols = afcore.af_level(1).basis
    rows = afcore.af_level(2).basis
    col = {mu: [rows[i] for i, r in enumerate(m.entries) if r[j]]
           for j, mu in enumerate(cols)}
    assert col["00"] == ["1001"]
    assert col["01"] == ["0010", "0011", "1010", "1011"]
    # columns list exactly the two-sided one-letter extensions
    for mu in cols:
        assert col[mu] == extensions.extension_set(mu, 1, 1)


def test_column_sums_are_extension_counts():
    for k in range(1, 7):
        m = afcore.inclusion_matrix(k)
        cols = afcore.af_level(k).basis
        sums = m.column_sums()
        assert all(s in (1, 2, 4) for s in sums)
        for j, mu in enumerate(cols):
            assert sums[j] == extensions.classify_extension_count(mu)


def test_row_sums():
    # each longer word has exactly one central subword
    for k in range(1, 7):
        assert all(s == 1 for s in afcore.inclusion_matrix(k).row_sums())


def test_trace_vector_level_one():
    assert afcore.trace_vector(1) == [
        Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)]


def test_trace_vector_entry():
    basis = afcore.af_level(2).basis
    vec = afcore.trace_vector(2)
    assert vec[basis.index("1001")] == Fraction(1, 6)


def test_trace_vector_is_the_trace_of_each_basis_word():
    for k in range(1, afcore.MAX_LEVEL + 1):
        assert afcore.trace_vector(k) == [trace.trace_range(mu) for mu in afcore.af_level(k).basis]


def test_trace_vector_returns_a_new_list():
    vec = afcore.trace_vector(3)
    expected = list(vec)
    vec[0] = Fraction(7)
    vec.append(Fraction(1))
    assert afcore.trace_vector(3) == expected


def test_trace_vectors_sum_to_one():
    for k in range(1, 9):
        assert sum(afcore.trace_vector(k)) == 1


def test_trace_compatibility():
    for k in range(1, 9):
        m = afcore.inclusion_matrix(k)
        assert afcore.push_trace_down(m, afcore.trace_vector(k + 1)) == \
            afcore.trace_vector(k)


def test_bratteli_json_shape():
    data = afcore.bratteli_data(3)
    assert [lev["dimension"] for lev in data["levels"]] == [4, 10, 16]
    assert len(data["matrices"]) == 2
    m0 = data["matrices"][0]
    assert len(m0["entries"]) == 10 and len(m0["entries"][0]) == 4
    json.loads(afcore.bratteli_json(3))


def test_bratteli_dot():
    dot = afcore.bratteli_dot(2)
    assert dot.startswith("digraph")
    assert dot.count("rank=same") == 2
    # one edge per matrix entry
    total = sum(sum(r) for r in afcore.inclusion_matrix(1).entries)
    assert dot.count("->") == total
