from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thuemorse import blocks, ktheory, trace, words
from thuemorse.errors import InvariantError, LevelError, NotAFactorError, ResourceLimitError
from thuemorse.ktheory import K0Element

small_ints = st.integers(min_value=-50, max_value=50)
levels = st.integers(min_value=0, max_value=8)
elements = st.builds(K0Element, levels, small_ints, small_ints)


def _promoted(e, k):
    for _ in range(k):
        e = ktheory.promote(e)
    return e


def _normal_form_by_loop(e):
    """The level-by-level demotion that normal_form's closed form replaces."""
    level, a, b = e.level, e.a, e.b
    while level > 0 and (b - a) % 2 == 0:
        level, a, b = level - 1, (b - a) // 2, a
    return K0Element(level, a, b)


def _k0_add_by_loop(e1, e2):
    """The level-by-level promotion that k0_add's closed form replaces."""
    e1, e2 = _promoted(e1, e2.level - e1.level), _promoted(e2, e1.level - e2.level)
    return _normal_form_by_loop(K0Element(e1.level, e1.a + e2.a, e1.b + e2.b))


deep_levels = st.integers(min_value=0, max_value=64)
huge_ints = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
deep_elements = st.one_of(
    st.builds(K0Element, deep_levels, huge_ints, huge_ints),
    # a + b = 0 demotes every level; a promoted element has a + b with
    # as many factors of 2 as promotions
    st.builds(lambda n, a: K0Element(n, a, -a), deep_levels, huge_ints),
    st.builds(lambda n, a, b, k: _promoted(K0Element(n, a, b), k),
              st.integers(min_value=0, max_value=32), huge_ints, huge_ints,
              st.integers(min_value=0, max_value=32)),
)


def test_k0_fields_are_integers():
    # operator.index on each field, so a float never enters the K0 layer
    for args, name in [((1.0, 1, 0), "level"), ((0, 1.5, 0), "a"), ((0, 1, "0"), "b")]:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            K0Element(*args)
    assert K0Element(True, 1, 0) == K0Element(True, 1, 0)


def test_promote_examples():
    assert ktheory.promote(K0Element(0, 1, 0)) == K0Element(1, 0, 2)
    assert ktheory.promote(K0Element(0, 0, 1)) == K0Element(1, 1, 1)
    assert ktheory.promote(K0Element(4, 0, 0)) == K0Element(5, 0, 0)


def test_normal_form():
    assert ktheory.normal_form(K0Element(1, 0, 2)) == K0Element(0, 1, 0)
    assert ktheory.normal_form(K0Element(3, 0, 0)) == K0Element(0, 0, 0)
    assert ktheory.normal_form(K0Element(1, 0, 1)) == K0Element(1, 0, 1)


@given(elements)
def test_promote_preserves_identity(e):
    assert ktheory.k0_equal(e, ktheory.promote(e))
    assert ktheory.normal_form(ktheory.promote(e)) == ktheory.normal_form(e)


@given(deep_elements, deep_elements)
def test_closed_forms_match_the_level_loops(e1, e2):
    assert ktheory.normal_form(e1) == _normal_form_by_loop(e1)
    assert ktheory.k0_add(e1, e2) == _k0_add_by_loop(e1, e2)


def test_k0_add_across_a_level_gap_promotes_in_one_step(count_calls):
    calls = count_calls(ktheory, "promote")
    cap = ktheory.MAX_EVALUATE_LEVEL
    got = ktheory.k0_add(K0Element(0, 1, 2), K0Element(cap, 3, 1))
    assert calls == []
    # by hand, with s = a + b and d = 2a - b: at level cap the sum has
    # s = 3 * 2**cap + 4 and d = 0 + 5; v2(s) = 2 levels demote, to
    # s = 3h + 1 with h = 2**(cap - 2), and a = (s + d)/3, b = (2s - d)/3
    h = 2 ** (cap - 2)
    assert got == K0Element(cap - 2, h + 2, 2 * h - 1)
    # one level more would build an int of as many bits, so it is refused
    with pytest.raises(ResourceLimitError,
                       match=f"^level gap {cap + 1} exceeds MAX_EVALUATE_LEVEL = {cap}$"):
        ktheory.k0_add(K0Element(cap + 1, 3, 1), K0Element(0, 1, 2))


@given(elements, elements)
def test_add_commutes(e1, e2):
    assert ktheory.k0_add(e1, e2) == ktheory.k0_add(e2, e1)


@given(elements, elements, elements)
def test_add_associates(e1, e2, e3):
    lhs = ktheory.k0_add(ktheory.k0_add(e1, e2), e3)
    rhs = ktheory.k0_add(e1, ktheory.k0_add(e2, e3))
    assert lhs == rhs


@given(elements)
def test_neg_inverse(e):
    assert ktheory.k0_add(e, ktheory.k0_neg(e)) == K0Element(0, 0, 0)


@given(elements, elements)
def test_evaluate_additive(e1, e2):
    assert ktheory.evaluate(ktheory.k0_add(e1, e2)) == \
        ktheory.evaluate(e1) + ktheory.evaluate(e2)
    assert ktheory.is_dyadic_third(ktheory.evaluate(e1))


@given(elements)
def test_evaluate_promote_invariant(e):
    assert ktheory.evaluate(ktheory.promote(e)) == ktheory.evaluate(e)


@given(elements, elements)
def test_positive_cone_closed(e1, e2):
    if ktheory.is_positive(e1) and ktheory.is_positive(e2):
        assert ktheory.is_positive(ktheory.k0_add(e1, e2))


@given(elements)
def test_order_antisymmetric(e):
    if ktheory.is_positive(e) and ktheory.is_positive(ktheory.k0_neg(e)):
        assert ktheory.k0_equal(e, K0Element(0, 0, 0))


def test_generator_relations():
    for n in range(11):
        assert ktheory.k0_equal(K0Element(n, 1, 0), K0Element(n + 1, 0, 2))
        assert ktheory.k0_equal(K0Element(n, 0, 1), K0Element(n + 1, 1, 1))
        assert not ktheory.k0_equal(K0Element(n, 1, 0), K0Element(n, 0, 1))


def test_is_positive_examples():
    assert ktheory.is_positive(K0Element(0, 1, 0))
    kernel = K0Element(0, 1, -1)
    assert not ktheory.is_positive(kernel)
    assert not ktheory.is_positive(ktheory.k0_neg(kernel))
    assert ktheory.is_positive(K0Element(0, -1, 2))
    # the promotion orbit of the kernel element oscillates forever
    e = kernel
    for _ in range(6):
        e = ktheory.promote(e)
        assert sorted((e.a, e.b)) == [-1, 1]


def test_evaluate_examples():
    assert ktheory.evaluate(K0Element(0, 1, 0)) == Fraction(1, 6)
    assert ktheory.evaluate(K0Element(0, 1, -1)) == 0
    assert ktheory.evaluate(K0Element(0, 2, 4)) == 1
    assert ktheory.evaluate(K0Element(3, 1, 0)) == Fraction(1, 48)


def test_evaluate_level_cap():
    cap = ktheory.MAX_EVALUATE_LEVEL
    assert cap == 1 << 13
    assert ktheory.evaluate(K0Element(cap, 1, 1)) == Fraction(1, 3 * 2 ** cap)
    with pytest.raises(ResourceLimitError, match=f"level {cap + 1} exceeds {cap}"):
        ktheory.evaluate(K0Element(cap + 1, 1, 1))
    # the group operations take any level; k0_add caps only the level gap
    far = ktheory.k0_add(K0Element(1, 1, 0), K0Element(cap + 1, 0, 1))
    assert far.level == cap + 1


def test_reduce_examples():
    assert ktheory.reduce_class("010") == K0Element(0, 1, 0)
    assert ktheory.reduce_class("101") == K0Element(0, 1, 0)
    assert ktheory.reduce_class("001") == K0Element(0, 0, 1)
    assert ktheory.reduce_class("0110") == K0Element(0, 0, 1)
    # words of at most two letters split into their right extensions
    assert ktheory.reduce_class("0") == ktheory.reduce_class("1") == K0Element(0, 1, 2)
    assert ktheory.reduce_class("00") == ktheory.reduce_class("11") == K0Element(0, 0, 1)
    assert ktheory.reduce_class("01") == ktheory.reduce_class("10") == K0Element(0, 1, 1)
    unit = ktheory.k0_add(ktheory.reduce_class("0"), ktheory.reduce_class("1"))
    assert unit == K0Element(0, 2, 4)


def test_reduce_block_generators():
    # three-block words at level n reduce to the level-n generators
    for n in range(4):
        w = words.block(0, n) + words.block(1, n) + words.block(0, n)
        assert ktheory.k0_equal(ktheory.reduce_class(w), K0Element(n, 1, 0))
        w = words.block(0, n) + words.block(0, n) + words.block(1, n)
        assert ktheory.k0_equal(ktheory.reduce_class(w), K0Element(n, 0, 1))


def test_reduce_errors():
    with pytest.raises(NotAFactorError):
        ktheory.reduce_class("100100")


def test_reduce_matches_trace_exhaustive():
    # beyond the acceptance bound of 12: lengths up to 20 exercise
    # level-3 decompositions and every completion path of the table
    for w in words._factors_upto(20):
        got = ktheory.evaluate(ktheory.reduce_class(w))
        assert got == trace.trace_range(w), w


def test_trace_image_values_hit():
    # the evaluation reaches 1/(6 * 2^n) and 1/(3 * 2^n) through real words
    for n in range(5):
        same = words.block(0, n) + words.block(0, n)
        mixed = words.block(0, n) + words.block(1, n)
        assert ktheory.evaluate(ktheory.reduce_class(same)) == Fraction(1, 6 * 2 ** n)
        assert ktheory.evaluate(ktheory.reduce_class(mixed)) == Fraction(1, 3 * 2 ** n)


def test_pinned_block_table_matches_solver():
    solved = ktheory.solve_block_class_table()
    assert len(solved) == 50
    assert solved == ktheory.BLOCK_CLASS_TABLE


def test_block_table_respects_splitting_relations():
    # re-derive every stored class through one-block splitting at level 0
    table = ktheory.BLOCK_CLASS_TABLE
    for c, (offset, a, b) in table.items():
        value = ktheory.evaluate(K0Element(offset, a, b))
        assert value == trace.trace_range(c)
        if len(c) < 6:
            right = [c + k for k in "01" if words.is_factor(c + k)]
            assert sum(trace.trace_range(u) for u in right) == value
    # as K0 classes: each class is the sum of its right extensions' classes
    for n in range(4):
        for c in [c for c in table if len(c) <= 5]:
            right = [ktheory._block_word_class(n, c + k) for k in "01"
                     if words.is_factor(c + k)]
            assert ktheory._block_word_class(n, c) == reduce(ktheory.k0_add, right), (n, c)
    # and through the completed decomposition of an expanded instance
    for c in table:
        for n in (0, 1):
            expansion = "".join(words.block(int(ch), n) for ch in c)
            got = ktheory.evaluate(ktheory.reduce_class(expansion))
            assert got == trace.trace_range(expansion)


def test_class_is_occurrence_invariant():
    # equal words anywhere reduce to equal classes; spot-check pairs of
    # occurrences of the same word through different decomposition levels
    w = words.tm_slice(10, 32)
    d = blocks.decompose(w, blocks.choose_level(w))
    assert ktheory.evaluate(ktheory.reduce_class(w)) == Fraction(1, 48)
    assert d.level >= 2


def test_apply_i_minus_phi_examples():
    assert ktheory.apply_i_minus_phi({"00": 1}) == {"00": 1, "001": -1}
    assert ktheory.apply_i_minus_phi({}) == {}
    # telescoping: the images of all single letters sum to the
    # difference between length-1 and length-2 indicator sums
    image = ktheory.apply_i_minus_phi({"0": 1, "1": 1})
    assert image == {"0": 1, "1": 1, "00": -1, "01": -1, "10": -1, "11": -1}


def test_apply_i_minus_phi_linear():
    a = ktheory.apply_i_minus_phi({"01": 2, "10": -1})
    b = ktheory.apply_i_minus_phi({"01": 2})
    c = ktheory.apply_i_minus_phi({"10": -1})
    merged = dict(b)
    for k, v in c.items():
        merged[k] = merged.get(k, 0) + v
    merged = {k: v for k, v in merged.items() if v}
    assert a == merged


def test_apply_i_minus_phi_validation():
    with pytest.raises(NotAFactorError):
        ktheory.apply_i_minus_phi({"000": 1})
    with pytest.raises(TypeError):
        ktheory.apply_i_minus_phi({"00": Fraction(1, 2)})


def test_splitting_images_vanish_in_k0():
    # the projection classes factor through the cokernel of I - Phi: the
    # image of any indicator sums to the zero class
    zero = K0Element(0, 0, 0)
    for w in words._factors_upto(8):
        total = zero
        for word, coeff in ktheory.apply_i_minus_phi({w: 1}).items():
            term = ktheory.reduce_class(word)
            if coeff < 0:
                term = ktheory.k0_neg(term)
            for _ in range(abs(coeff)):
                total = ktheory.k0_add(total, term)
        assert total == zero, w


def test_kernel_element_not_in_image_sign():
    # the trace-kernel generator changes sign under promotion
    e = K0Element(0, 1, -1)
    p = ktheory.promote(e)
    assert (p.a, p.b) == (-1, 1)
    assert ktheory.evaluate(p) == 0


def test_serialization():
    e = K0Element(2, 3, -1)
    assert e.as_dict() == {"level": 2, "a": 3, "b": -1}
    assert "level" in e.to_json()


def _refuse_five_letters(w, n):
    if len(w) == 5 and n == 1:
        raise LevelError(f"refusing level 1 of {w!r}")
    return blocks.decompose(w, n)


def _regroup_011_as_101(d):
    up = blocks.complete_boundaries(d)
    return blocks.decompose("101", 0) if up.blocks == (0, 1, 1) else up


@pytest.mark.parametrize("name, broken", [
    ("_GENERATOR_A_WORDS", ("010",)),
    ("_GENERATOR_A_WORDS", ("001", "110")),
    ("decompose", _refuse_five_letters),
    ("complete_boundaries", lambda d: blocks.decompose(blocks.recompose(d), 0)),
    ("complete_boundaries", _regroup_011_as_101),
], ids=["one-a-word", "swapped", "no-five-letter-regrouping", "no-shrink", "011-as-101"])
def test_block_class_solver_rejects_broken_relations(monkeypatch, name, broken):
    monkeypatch.setattr(ktheory, name, broken)
    with pytest.raises(InvariantError):
        ktheory.solve_block_class_table()
