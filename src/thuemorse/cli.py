"""Command-line interface.

Every invocation that gets past argument parsing prints exactly one
line of JSON on stdout.  Exit codes: 0 success, 1 domain error (e.g. a
word that is not a factor, or a well-formed number out of range) or a
report with "ok": false (`rep-check`, `verify`), 2 usage error (unknown
subcommand, malformed word or number), 3 an internal invariant failed
(a bug; reported as {"error": ...}).

Each subcommand is declared once, with the handler that maps its
arguments to the payload.  Handlers read public names through the
package, whose lazy attributes load only the module that defines them,
so a call loads only the modules its subcommand uses.
"""

import argparse
import json
import sys

import thuemorse as tm

from .errors import InvariantError, ResourceLimitError, ThueMorseError
from .words import _is_binary


def _word_arg(text: str) -> str:
    if not _is_binary(text):
        raise argparse.ArgumentTypeError(f"not a binary word: {text!r}")
    if not text:
        raise argparse.ArgumentTypeError("empty word")
    return text


def _rational_arg(text: str):
    from .trace import _parse_t
    try:
        return _parse_t(text)
    except ResourceLimitError:
        # kept as a str, which matrix_iterate refuses again: exit 1, not 2
        return text
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _factors(a) -> dict:
    found = tm.factors_of_length(a.length)
    return {"length": a.length, "count": len(found), "factors": found}


def _matrix(a) -> dict:
    if a.interval is not None:
        if a.t is not None or a.n is not None:
            raise ValueError("--interval cannot be combined with T N")
        lo, hi = tm.uniqueness_interval(a.interval)
        return {"n_max": a.interval, "lo": str(lo), "hi": str(hi)}
    if a.t is None or a.n is None:
        raise ValueError("matrix needs either T N or --interval N")
    b1, b2 = tm.matrix_iterate(a.t, a.n)
    return {"t": str(a.t), "n": a.n, "b1": str(b1), "b2": str(b2)}


def _rep_check(a) -> dict:
    res = tm.axiom_residuals(a.window, a.maxlen)
    return {"window": a.window, "maxlen": a.maxlen, "residuals": res,
            "ok": all(v == 0 for v in res.values())}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thuemorse",
        description="Exact Thue-Morse factor combinatorics, trace values, "
                    "AF data, K-theory and a finite-window shift model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="letters w[lo..hi) over two-sided indices")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.set_defaults(run=lambda a: {"word": tm.tm_slice(a.lo, a.hi)})

    p = sub.add_parser("factor", help="factor-language membership")
    p.add_argument("word", type=_word_arg)
    p.set_defaults(run=lambda a: {"word": a.word, "is_factor": tm.is_factor(a.word)})

    p = sub.add_parser("factors", help="all factors of a given length")
    p.add_argument("length", type=int)
    p.set_defaults(run=_factors)

    p = sub.add_parser("decompose", help="canonical block decomposition")
    p.add_argument("word", type=_word_arg)
    p.add_argument("--level", type=int, default=None,
                   help="force a block level (default: maximal feasible)")
    p.set_defaults(run=lambda a: tm.decompose(
        a.word, tm.choose_level(a.word) if a.level is None else a.level).as_dict())

    p = sub.add_parser("extensions", help="two-sided extension set")
    p.add_argument("word", type=_word_arg)
    p.add_argument("m", type=int, help="letters added on the left")
    p.add_argument("n", type=int, help="letters added on the right")
    p.set_defaults(run=lambda a: {"word": a.word, "m": a.m, "n": a.n,
                                  "extensions": tm.extension_set(a.word, a.m, a.n)})

    p = sub.add_parser("trace", help="exact trace of a range projection")
    p.add_argument("word", type=_word_arg)
    p.set_defaults(run=lambda a: {"value": str(tm.trace_range(a.word))})

    p = sub.add_parser("freq", help="empirical frequency in a prefix")
    p.add_argument("word", type=_word_arg)
    p.add_argument("--window", type=int, default=1 << 22)
    p.set_defaults(run=lambda a: {"word": a.word, "window": a.window,
                                  "value": str(tm.frequency(a.word, a.window))})

    p = sub.add_parser("matrix", help="level-n value pair, or the positivity "
                                      "interval with --interval")
    p.add_argument("t", nargs="?", type=_rational_arg, default=None)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("--interval", type=int, default=None, metavar="N",
                   help="exact interval of admissible t for levels up to N")
    p.set_defaults(run=_matrix)

    p = sub.add_parser("bratteli", help="AF tower data up to a level")
    p.add_argument("k", type=int)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    p.set_defaults(run=lambda a: {"dot": tm.bratteli_dot(a.k)} if a.dot
                   else tm.bratteli_data(a.k))

    p = sub.add_parser("k0-reduce", help="K0 class of a range projection")
    p.add_argument("word", type=_word_arg)
    p.set_defaults(run=lambda a: {"word": a.word, **tm.reduce_class(a.word).as_dict()})

    p = sub.add_parser("k0-eval", help="trace evaluation of a K0 element")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(run=lambda a: {"value": str(tm.evaluate(tm.K0Element(a.level, a.a, a.b)))})

    p = sub.add_parser("rep-check", help="axiom residuals of the window model")
    p.add_argument("--window", type=int, default=1 << 14)
    p.add_argument("--maxlen", type=int, default=8)
    p.set_defaults(run=_rep_check)

    p = sub.add_parser("verify", help="run the invariant suite")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--full", action="store_true")
    p.set_defaults(run=lambda a: tm.run_suite(quick=a.quick))

    return parser


def run(argv) -> int:
    """Parse argv, execute, print one JSON line; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.run(args)
    except (ThueMorseError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 3 if isinstance(exc, InvariantError) else 1
    print(json.dumps(payload))
    return 1 if payload.get("ok") is False else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
