"""Shared fixtures: an independently constructed reference word.

The reference prefix is `reference.letters`, built letter by letter
from binary digit sums, a different route than the package's doubling
construction, so tests against it are genuine cross-checks.
"""

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
