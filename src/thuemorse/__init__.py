"""Exact combinatorics, invariant measure, AF data and K-theory of the
Thue-Morse shift, plus a finite-window model of its shift representation.

Each public name, and each submodule, is imported on first access
(PEP 562), so a query that never touches `repwindow` or `verify` never
loads numpy or scipy.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("afcore", "AfLevel InclusionMatrix af_level bratteli_data bratteli_dot bratteli_json"
               " inclusion_matrix trace_vector"),
    ("blocks", "BlockDecomposition choose_level complete_boundaries decompose recompose"
               " rewrite_five"),
    ("errors", "LevelError NotAFactorError ResourceLimitError ThueMorseError"),
    ("extensions", "classify_extension_count extension_set"),
    ("ktheory", "K0Element apply_i_minus_phi evaluate is_dyadic_third is_positive k0_add"
                " k0_equal k0_neg normal_form promote reduce_class"),
    ("repwindow", "WindowOperator axiom_residuals build_generators empirical_trace"
                  " range_projection word_operator"),
    ("trace", "block_trace frequency matrix_iterate trace_family trace_range trace_spanning"
              " uniqueness_interval"),
    ("verify", "run_suite"),
    ("words", "block complement factors_of_length is_factor keane_product occurrences"
              " tm_letter tm_slice transform"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
