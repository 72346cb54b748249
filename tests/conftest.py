"""Shared fixtures and helpers: an independently constructed reference
word, a counter of the calls a test makes to one function, the traced
peak memory of one call, and a fresh interpreter for what a new process
loads.

The reference prefix is `reference.letters`, built letter by letter
from binary digit sums, a different route than the package's doubling
construction, so tests against it are genuine cross-checks.
"""

import subprocess
import sys
import tracemalloc

import pytest
from reference import letters


ORACLE_LEN = 1 << 16


@pytest.fixture(scope="session")
def oracle_prefix():
    return letters(0, ORACLE_LEN)


@pytest.fixture(scope="session")
def oracle_factors(oracle_prefix):
    """Factor sets per length, scanned from the reference prefix."""
    def factors(L):
        return {oracle_prefix[i:i + L] for i in range(ORACLE_LEN - L + 1)}
    return factors


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for one test and returns
    the list of the first arguments of its calls, in order."""
    def wrap(owner, name):
        calls = []
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: calls.append(args[0]) or real(*args, **kwargs))
        return calls
    return wrap


def fresh(code: str) -> str:
    """The stdout of `python -c code` in a new interpreter; fails on a nonzero exit."""
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True).stdout


def peak_bytes(fn, *args) -> tuple:
    """(fn(*args), the peak of memory traced while it runs)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
