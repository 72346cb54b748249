import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from thuemorse import blocks, cli, words
from thuemorse.errors import InvariantError
from conftest import fresh
from reference import letters


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 1, f"expected one output line, got {out!r}"
    return code, json.loads(lines[0])


def test_trace(capsys):
    code, payload = run_json(capsys, ["trace", "00"])
    assert code == 0 and payload == {"value": "1/6"}


def test_factor(capsys):
    code, payload = run_json(capsys, ["factor", "100100"])
    assert code == 0 and payload["is_factor"] is False


def test_factors(capsys):
    code, payload = run_json(capsys, ["factors", "3"])
    assert code == 0
    assert payload["count"] == 6
    assert "000" not in payload["factors"]


def test_slice(capsys):
    code, payload = run_json(capsys, ["slice", "-4", "4"])
    assert code == 0 and payload == {"word": "01100110"}


def test_decompose(capsys):
    code, payload = run_json(
        capsys, ["decompose", "00101101001011001101001100101100"])
    assert code == 0
    assert payload == {"level": 3, "gamma0": "0010110",
                       "blocks": [1, 0, 1], "gamma1": "0"}


def test_decompose_forced_level(capsys):
    code, payload = run_json(
        capsys, ["decompose", "01101", "--level", "0"])
    assert code == 0 and payload["blocks"] == [0, 1, 1, 0, 1]


def test_extensions(capsys):
    code, payload = run_json(capsys, ["extensions", "0101", "2", "2"])
    assert code == 0 and payload["extensions"] == ["10010110"]


def test_freq(capsys):
    code, payload = run_json(capsys, ["freq", "0", "--window", "1048576"])
    assert code == 0 and payload["value"] == "1/2"


def test_matrix(capsys):
    code, payload = run_json(capsys, ["matrix", "1/6", "3"])
    assert code == 0 and (payload["b1"], payload["b2"]) == ("1/48", "1/24")


def test_matrix_interval(capsys):
    code, payload = run_json(capsys, ["matrix", "--interval", "1"])
    assert code == 0 and payload == {"n_max": 1, "lo": "0", "hi": "1/4"}


def test_matrix_requires_arguments(capsys):
    code, payload = run_json(capsys, ["matrix"])
    assert code == 1 and "error" in payload
    code, payload = run_json(capsys, ["matrix", "1/6", "3", "--interval", "8"])
    assert code == 1 and payload["error"] == "--interval cannot be combined with T N"


def test_bratteli(capsys):
    code, payload = run_json(capsys, ["bratteli", "2"])
    assert code == 0
    assert [lev["dimension"] for lev in payload["levels"]] == [4, 10]


def test_bratteli_dot(capsys):
    code, payload = run_json(capsys, ["bratteli", "2", "--dot"])
    assert code == 0 and payload["dot"].startswith("digraph")


def test_k0_reduce(capsys):
    code, payload = run_json(capsys, ["k0-reduce", "0110"])
    assert code == 0
    assert payload == {"word": "0110", "level": 0, "a": 0, "b": 1}


def test_k0_eval(capsys):
    code, payload = run_json(
        capsys, ["k0-eval", "--a", "1", "--b", "-1", "--level", "0"])
    assert code == 0 and payload == {"value": "0"}


def test_rep_check(capsys):
    code, payload = run_json(
        capsys, ["rep-check", "--window", "1024", "--maxlen", "4"])
    assert code == 0 and payload["ok"] is True
    assert set(payload["residuals"].values()) == {0}


def test_verify_quick(capsys):
    code, payload = run_json(capsys, ["verify", "--quick"])
    assert code == 0 and payload["ok"] is True
    assert len(payload["checks"]) == 9
    assert payload == json.loads((Path(__file__).parent / "data" / "verify_quick.json").read_text())


def test_domain_error_exit_code(capsys):
    code, payload = run_json(capsys, ["trace", "100100"])
    assert code == 1 and "error" in payload


OVER_CAP = "0" * (words.MAX_WORD_LENGTH + 1)


@pytest.mark.parametrize("argv, code", [
    (["bratteli", "-3"], 1),
    (["bratteli", "0"], 1),
    (["bratteli", "1"], 0),
    (["bratteli", "12"], 0),
    (["bratteli", "13"], 1),
    (["bratteli", "0", "--dot"], 1),
    (["bratteli", "13", "--dot"], 1),
    (["factors", "0"], 1),
    (["factors", "1"], 0),
    (["factors", "64"], 0),
    (["factors", "65"], 1),
    (["extensions", "0110", "-1", "0"], 1),
    (["extensions", "0110", "0", "-1"], 1),
    (["extensions", "0110", "0", "0"], 0),
    (["factor", OVER_CAP[1:]], 0),
    (["factor", OVER_CAP], 1),
    (["trace", OVER_CAP], 1),
    (["k0-reduce", OVER_CAP], 1),
    (["slice", "5", "3"], 1),
    (["freq", "0110", "--window", "3"], 1),
    (["freq", "0110", "--window", str(1 << 26)], 0),
    (["freq", "0110", "--window", str((1 << 26) + 1)], 1),
    (["k0-eval", "--a", "1", "--b", "1", "--level", "-1"], 1),
    (["rep-check", "--window", "0"], 1),
    (["rep-check", "--maxlen", "0"], 1),
    # 92 factors of <= 8 letters x 91 181 entries: just over MAX_RESIDUAL_CELLS
    (["rep-check", "--window", "45590", "--maxlen", "8"], 1),
    # 6 392 factors of <= 64 letters x 1 025 entries, inside the cap
    (["rep-check", "--window", "512", "--maxlen", "64"], 0),
    # any offset, on either side of 0; only the length is capped
    (["slice", str(1 << 40), str((1 << 40) + 10)], 0),
    (["slice", "-70000000", "-69999990"], 0),
    (["slice", "0", str((1 << 26) + 1)], 1),
    # outputs with 2**8192 denominators still print; one level more is refused
    (["k0-eval", "--a", "1", "--b", "1", "--level", "8192"], 0),
    (["k0-eval", "--a", "1", "--b", "1", "--level", "8193"], 1),
    (["matrix", "1/6", "8192"], 0),
    (["matrix", "1/6", "8193"], 1),
    (["matrix", "--interval", "8192"], 0),
    (["matrix", "--interval", "8193"], 1),
    # the longest extended word, and one letter more
    (["extensions", words.tm_slice(0, 4094), "1", "1"], 0),
    (["extensions", words.tm_slice(0, 4094), "1", "2"], 1),
    # t with a denominator of 4096 bits still prints at the top level; 4097 is refused
    (["matrix", "1/" + str((1 << 4096) - 1), "8192"], 0),
    (["matrix", "1/" + str(1 << 4096), "8192"], 1),
    # a literal is held to 8192 characters (and its exponent to that size)
    (["matrix", "1" * 8193, "3"], 1),
])
def test_boundary_values(capsys, argv, code):
    got, payload = run_json(capsys, argv)
    assert got == code
    assert ("error" in payload) == (code == 1)


def test_invariant_failure_is_one_json_line_exit_three(capsys, monkeypatch):
    def broken(w):
        raise InvariantError(f"ambiguous level-1 grid for factor {w!r}")

    monkeypatch.setattr(blocks, "_chain", broken)
    code, payload = run_json(capsys, ["decompose", "0110100"])
    assert code == 3
    assert payload == {"error": "ambiguous level-1 grid for factor '0110100'"}
    assert issubclass(InvariantError, RuntimeError)


def test_completion_guards_raise_invariant_errors(capsys, monkeypatch):
    start = (1 << 38) + 777  # a word no other test builds, with both ends partial
    w = letters(start, start + 100)
    # the descent decides membership by one compare with the sequence's
    # window at the guessed place, so a window that differs makes the word
    # a non-factor
    with monkeypatch.context() as m:
        m.setattr(words, "_right_window", lambda lo, n: "")
        code, payload = run_json(capsys, ["trace", w])
        words._short_descent.cache_clear()
    assert code == 1 and list(payload) == ["error"]
    d = blocks.decompose(w, blocks.choose_level(w))
    assert d.gamma0 and d.gamma1
    # a public decomposition whose completion fails is an invariant error
    with monkeypatch.context() as m:
        m.setattr(blocks, "_owner", lambda gamma, level, suffix: None)
        with pytest.raises(InvariantError, match="completes no level"):
            blocks.complete_boundaries(d)
    _, c = words._factor_descent(w)[1]
    monkeypatch.setattr(blocks, "is_factor", lambda u: u != c)
    with pytest.raises(InvariantError, match="not a factor"):
        blocks.complete_boundaries(blocks.decompose(w, blocks.choose_level(w)))


def test_a_huge_exponent_is_refused_before_parsing(capsys):
    code, payload = run_json(capsys, ["matrix", "1e-10000000", "3"])
    assert (code, payload) == (1, {"error": "decimal exponent of t exceeds 8192 in size"})


def test_usage_errors_exit_two(capsys):
    assert cli.run(["factor", "10a2"]) == 2
    assert cli.run(["factor", ""]) == 2
    assert cli.run(["matrix", "1/0", "3"]) == 2
    assert cli.run(["no-such-command"]) == 2
    assert cli.run([]) == 2
    capsys.readouterr()


def test_outputs_deterministic(capsys):
    cli.run(["factors", "6"])
    first = capsys.readouterr().out
    cli.run(["factors", "6"])
    second = capsys.readouterr().out
    assert first == second


def test_queries_load_neither_numpy_nor_scipy():
    for call in ("thuemorse.trace_range('0110')",
                 "thuemorse.verify; thuemorse.repwindow.axiom_residuals(1024, 4); "
                 "thuemorse.empirical_trace('01', 4096)"):
        probe = (f"import sys, thuemorse; {call}; "
                 "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        assert fresh(probe).split() == ["[]"]
    import thuemorse
    star = {}
    exec("from thuemorse import *", star)
    assert set(star) >= set(thuemorse.__all__)
    assert star["axiom_residuals"] is thuemorse.repwindow.axiom_residuals
    assert star["run_suite"] is thuemorse.verify.run_suite


def test_the_package_runs_as_a_module():
    # python -m thuemorse is python -m thuemorse.cli: same stdout, same exit
    runs = [subprocess.run([sys.executable, "-m", module, "factor", "0110"],
                           capture_output=True, text=True) for module in ("thuemorse", "thuemorse.cli")]
    assert [(r.stdout, r.returncode) for r in runs] == [('{"word": "0110", "is_factor": true}\n', 0)] * 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "thuemorse.cli", "trace", "0110"],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == {"value": "1/6"}
    # the query path imports neither numpy nor scipy
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    # -X importtime lists only imports made by import statements, not the
    # modules the package's lazy attributes load, so trace's is read from
    # sys.modules
    assert "thuemorse.trace" in _loaded_after(["trace", "0110"])
    assert not {m for m in imported if m.split(".")[0] in ("numpy", "scipy")}
    # the value classes are namedtuples: neither dataclasses nor the
    # inspect module it loads is imported, on the query path or by verify
    assert not imported & {"dataclasses", "inspect"}
    assert fresh("import sys, thuemorse.verify; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == "[]\n"


def _loaded_after(argv) -> set:
    """The modules a fresh interpreter holds after one CLI call."""
    probe = (f"import sys; from thuemorse import cli; cli.run({argv!r}); "
             "print(*sorted(sys.modules))")
    return set(fresh(probe).splitlines()[-1].split())


def test_a_call_loads_only_the_modules_its_subcommand_uses():
    def library(modules):
        return {m for m in modules if m.startswith("thuemorse.")}

    factor = _loaded_after(["factor", "0110"])
    assert library(factor) == {"thuemorse.cli", "thuemorse.errors", "thuemorse.words"}
    trace = _loaded_after(["trace", "0110"])
    unused = {f"thuemorse.{m}" for m in ("verify", "repwindow", "afcore", "extensions", "ktheory")}
    assert "thuemorse.trace" in trace and not unused & trace
    for modules in (factor, trace):
        assert not modules & {"numpy", "scipy", "dataclasses", "inspect"}
    assert unused <= _loaded_after(["verify", "--quick"])


def test_every_subcommand_is_declared_with_its_handler():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [
        "slice", "factor", "factors", "decompose", "extensions", "trace", "freq",
        "matrix", "bratteli", "k0-reduce", "k0-eval", "rep-check", "verify"]
    assert all(callable(p.get_default("run")) for p in sub.choices.values())
