"""Cross-module consistency on long words, beyond the exhaustive ranges."""

import importlib
import json
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import thuemorse
from thuemorse import afcore, blocks, extensions, ktheory, repwindow, trace, words

starts = st.integers(min_value=-3000, max_value=3000)
lengths = st.integers(min_value=2, max_value=220)


@given(starts, lengths)
@settings(max_examples=120, deadline=None)
def test_slice_decomposition_round_trip(start, length):
    w = words.tm_slice(start, start + length)
    n = blocks.choose_level(w)
    d = blocks.decompose(w, n)
    assert 2 <= len(d.blocks) <= 4
    assert blocks.recompose(d) == w
    c = blocks.complete_boundaries(d)
    assert 2 <= len(c.blocks) <= 6
    assert words.is_factor(blocks.recompose(c))


@given(starts, lengths)
@settings(max_examples=80, deadline=None)
def test_slice_trace_equals_k0_evaluation(start, length):
    w = words.tm_slice(start, start + length)
    assert ktheory.evaluate(ktheory.reduce_class(w)) == trace.trace_range(w)


@given(starts, lengths)
@settings(max_examples=60, deadline=None)
def test_slice_trace_is_block_pair_value(start, length):
    # every trace value is 1/(6 * 2^n) or 1/(3 * 2^n) for some n
    v = trace.trace_range(words.tm_slice(start, start + length))
    assert ktheory.is_dyadic_third(v)
    assert v.numerator == 1 or v == Fraction(1, 2)
    assert v.denominator % 3 == 0 or v == Fraction(1, 2)


def test_occurrence_parity_matches_grid_phase():
    # a factor with at least two full level-1 blocks occurs only at
    # positions whose parity matches its unique grid alignment
    for w in words.factors_of_length(9):
        d = blocks.decompose(w, 1)
        phase = len(d.gamma0)
        for i in words.occurrences(w, 0, 4096):
            assert (i + phase) % 2 == 0


def test_long_two_block_words():
    # deep block pairs keep the closed-form values
    for n in (5, 6, 7):
        same = words.block(1, n) + words.block(1, n)
        mixed = words.block(1, n) + words.block(0, n)
        assert trace.trace_range(same) == Fraction(1, 6 * 2 ** n)
        assert ktheory.evaluate(ktheory.reduce_class(mixed)) == Fraction(1, 3 * 2 ** n)
        assert blocks.choose_level(same) == n


def test_million_letter_factor():
    # the block route is O(|w|): a factor of 10^6 letters at a negative
    # offset gets its exact trace and K0 class in about a second
    w = words.tm_slice(-300001, 10 ** 6 - 300001)
    value = trace.trace_range(w)
    assert value == ktheory.evaluate(ktheory.reduce_class(w))
    assert value == Fraction(1, 3 * 2 ** 20)
    assert words._short_descent.cache_info().currsize <= words._short_descent.cache_info().maxsize


_EYE = sparse.identity(3, dtype="int64", format="csr")


# class, fields, repr, as_dict (None: a class whose dict the CLI never prints)
@pytest.mark.parametrize("cls, fields, text, as_dict", [
    (blocks.BlockDecomposition, {"level": 3, "gamma0": "0010110", "blocks": (1, 0, 1),
                                 "gamma1": "0"},
     "BlockDecomposition(level=3, gamma0='0010110', blocks=(1, 0, 1), gamma1='0')",
     {"level": 3, "gamma0": "0010110", "blocks": [1, 0, 1], "gamma1": "0"}),
    (ktheory.K0Element, {"level": 0, "a": 2, "b": 4}, "K0Element(level=0, a=2, b=4)",
     {"level": 0, "a": 2, "b": 4}),
    (afcore.AfLevel, {"k": 1, "basis": ("00", "01")}, "AfLevel(k=1, basis=('00', '01'))",
     None),
    (afcore.InclusionMatrix, {"k": 1, "entries": ((1, 0), (0, 1))},
     "InclusionMatrix(k=1, entries=((1, 0), (0, 1)))", None),
    (repwindow.WindowOperator, {"W": 1, "matrix": _EYE},
     f"WindowOperator(W=1, matrix={_EYE!r})", None),
])
def test_value_class_contract(cls, fields, text, as_dict):
    values = tuple(fields.values())
    value, same = cls(*values), cls(**fields)
    assert value == same and not value != same
    # a field missing or given twice is a TypeError
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, **fields)
    if cls is repwindow.WindowOperator:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    # neither the tuple of the fields nor another class with them is equal
    other = type("Other", (cls,), {"__slots__": ()})(**fields)
    for stranger in (values, other):
        assert value != stranger and not value == stranger
        assert stranger != value and not stranger == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    if as_dict is not None:
        assert value.as_dict() == as_dict
        assert json.loads(value.to_json()) == as_dict


# each call passes one integer argument as a float, a str, None or a Fraction
@pytest.mark.parametrize("call, args, name", [
    (trace.frequency, ("0110", 64.0), "N"), (words.tm_slice, (0.0, 3), "lo"),
    (words.tm_letter, ("5",), "i"), (words.occurrences, ("01", 0, 10.0), "hi"),
    (words.factors_of_length, (None,), "L"), (afcore.af_level, (2.0,), "k"),
    (afcore.inclusion_matrix, (Fraction(2),), "k"), (repwindow.empirical_trace, ("01", 64.0), "W"),
    (repwindow.axiom_residuals, (256, 4.0), "maxlen"), (trace.matrix_iterate, ("1/6", 3.0), "n"),
    (trace.uniqueness_interval, (3.0,), "N"),
    (words.block, (1.0, 2), "i"), (words.block, (0, "2"), "n"),
    (blocks.decompose, ("0110", 1.0), "n"), (extensions.extension_set, ("0110", 1.0, 1), "m"),
    (extensions.extension_set, ("0110", 1, None), "n"), (trace.block_trace, (0, 1, 2.0), "n"),
    (trace.block_trace, (0, 1.0, 2), "j"), (afcore.bratteli_data, (2.0,), "kmax"),
    (afcore.bratteli_dot, (2.0,), "kmax"), (afcore.bratteli_json, (Fraction(2),), "kmax"),
    (blocks.rewrite_five, ([0, 1, 1, 0, 0], 1.0), "n"),
    (repwindow.build_generators, (8.0,), "W"), (repwindow.word_operator, ("01", 16.0), "W"),
    (repwindow.range_projection, ("0", 8.0), "W"), (afcore.trace_vector, (2.0,), "k"),
])
def test_integer_arguments_reject_other_types(call, args, name):
    # af_level(2) is cached first: an equal float must still be refused
    afcore.af_level(2)
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(*args)
    # a bool is an int to operator.index
    assert words.tm_slice(False, True) == "0"


class _Word(str):
    pass


_FAR = words.tm_slice((1 << 41) + 5, (1 << 41) + 45)  # a word no other test builds
_LONG = words.tm_slice(-(1 << 41), -(1 << 41) + words.MAX_CACHED_LENGTH + 1)
# more distinct factors than the descent memo holds
_FACTORS = [(words.tm_slice(k, 2 * k + 64),) for k in range(2100)]


# the admitted keys, then calls that store nothing: a non-factor, an empty
# word, a str subclass, an over-cap word; a reversed window, a bool or float
# bound, an over-cap window; then a stream of distinct keys.  The descent
# memo also stores a non-factor's None, so "00000" is admitted there
@pytest.mark.parametrize("memo, call, admitted, others, stream", [
    (words._short_descent, trace.trace_range, [(_FAR,), ("0110100",), ("00000",)],
     [("",), (_Word(_FAR),), (_LONG,), ("0" * (words.MAX_WORD_LENGTH + 1),)], _FACTORS),
    (words._short_descent, ktheory.reduce_class, [(_FAR,), ("0110100",), ("00000",)],
     [("",), (_Word(_FAR),), (_LONG,), ("0" * (words.MAX_WORD_LENGTH + 1),)], _FACTORS),
    (words._short_slice, words.tm_slice, [(5, 45), (-(1 << 41), -(1 << 41) + 64), (-3, 4), (7, 7)],
     [(9, 5), (True, 3), (0, 3.0), (0, words.MAX_CACHED_LENGTH + 1)],
     [(i, i + 8) for i in range(1100)]),
    (blocks._short_decompose, blocks.decompose, [(_FAR, blocks.choose_level(_FAR)), ("0110100", 1)],
     [("00000", 0), ("", 0), ("0", 0), ("0110", 1.0), (_Word(_FAR), 2), (_LONG, 2),
      ("0" * (words.MAX_WORD_LENGTH + 1), 0)],
     [(w, blocks.choose_level(w)) for w in words._factors_upto(20) if len(w) > 1]),
])
def test_an_answer_memo_gives_the_cold_answer_and_stays_bounded(memo, call, admitted, others,
                                                                  stream):
    def outcome(args):
        try:
            return call(*args)
        except Exception as exc:
            return type(exc), str(exc)

    for i, args in enumerate(admitted + others):
        memo.cache_clear()
        cold = outcome(args)
        # the warm answer, or the same exception type and message
        assert outcome(args) == cold
        stored = i < len(admitted)
        assert memo.cache_info().hits == memo.cache_info().currsize == stored
    for args in stream:
        call(*args)
    info = memo.cache_info()
    assert info.currsize == info.maxsize < len(stream)
    for args in others:
        outcome(args)
    # nothing was stored, so the least recent key is still held
    call(*stream[-info.maxsize])
    assert memo.cache_info().hits == info.hits + 1


def test_readme_names_every_memo():
    # every module-level object with cache_info, under the name it is bound to
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    memos = []
    for info in pkgutil.iter_modules(thuemorse.__path__):
        module = importlib.import_module(f"thuemorse.{info.name}")
        memos += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
    assert sorted(memos) == [
        "afcore._trace_vector", "afcore.af_level", "blocks._short_decompose",
        "extensions._short_extension_set", "ktheory._block_word_class", "trace._block_word_trace",
        "verify._level_masks", "words._short_descent", "words._short_prefix_count",
        "words._short_slice"]
    assert [m for m in memos if f"`{m}`" not in readme] == []
