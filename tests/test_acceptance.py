"""Acceptance criteria, one test per criterion at full scale.

Each criterion lives in one `verify` check.  Its test runs that check in
full mode, requires it to pass, and requires its report entry to equal
the pinned one in data/verify_full.json (the `verify --full` stdout
line).  Each test prints a PASS line (visible with pytest -s or in
captured output on failure).
"""

import json
import time
from pathlib import Path

from thuemorse import verify

_REPORT = json.loads((Path(__file__).parent / "data" / "verify_full.json").read_text())
PINNED = {check["name"]: check for check in _REPORT["checks"]}


def _criterion(number, name, check):
    def test():
        started = time.time()
        result = check(quick=False)
        assert result["ok"], result["detail"]
        assert result == PINNED[result["name"]]
        print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]")
    return test


test_criterion_1_exact_trace_values = _criterion(
    1, "exact trace values", verify.check_trace_values)
test_criterion_2_block_traces = _criterion(
    2, "closed-form block traces", verify.check_block_traces)
test_criterion_3_trace_state_axioms = _criterion(
    3, "trace-state axioms", verify.check_trace_axioms)
test_criterion_4_uniqueness_certificate = _criterion(
    4, "uniqueness certificate", verify.check_uniqueness_certificate)
test_criterion_5_ergodic_oracle = _criterion(5, "ergodic oracle", verify.check_ergodic_oracle)
test_criterion_6_combinatorics = _criterion(6, "combinatorics", verify.check_combinatorics)
test_criterion_7_k_theory_soundness = _criterion(
    7, "K-theory soundness", verify.check_k_theory)
test_criterion_8_af_core = _criterion(8, "AF core", verify.check_af_core)
test_criterion_9_representation_window = _criterion(
    9, "representation window", verify.check_representation)
