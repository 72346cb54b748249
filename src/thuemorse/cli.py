"""Command-line interface.

Every invocation that gets past argument parsing prints exactly one
line of JSON on stdout.  Exit codes: 0 success, 1 domain error (e.g. a
word that is not a factor, or a well-formed number out of range),
2 usage error (unknown subcommand, malformed word or number), 3 an
internal invariant failed (a bug; reported as {"error": ...}).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import afcore, blocks, extensions, ktheory, repwindow, trace, verify, words
from .errors import InvariantError, ThueMorseError


def _word_arg(text: str) -> str:
    if not words._is_binary(text):
        raise argparse.ArgumentTypeError(f"not a binary word: {text!r}")
    if not text:
        raise argparse.ArgumentTypeError("empty word")
    return text


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


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

    p = sub.add_parser("factor", help="factor-language membership")
    p.add_argument("word", type=_word_arg)

    p = sub.add_parser("factors", help="all factors of a given length")
    p.add_argument("length", type=int)

    p = sub.add_parser("decompose", help="canonical block decomposition")
    p.add_argument("word", type=_word_arg)
    p.add_argument("--level", type=int, default=None,
                   help="force a block level (default: maximal feasible)")

    p = sub.add_parser("extensions", help="two-sided extension set")
    p.add_argument("word", type=_word_arg)
    p.add_argument("m", type=int, help="letters added on the left")
    p.add_argument("n", type=int, help="letters added on the right")

    p = sub.add_parser("trace", help="exact trace of a range projection")
    p.add_argument("word", type=_word_arg)

    p = sub.add_parser("freq", help="empirical frequency in a prefix")
    p.add_argument("word", type=_word_arg)
    p.add_argument("--window", type=int, default=1 << 22)

    p = sub.add_parser("matrix", help="level-n value pair, or the positivity "
                                      "interval with --interval")
    p.add_argument("t", nargs="?", type=_rational_arg, default=None)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("--interval", type=int, default=None, metavar="N",
                   help="exact interval of admissible t for levels up to N")

    p = sub.add_parser("bratteli", help="AF tower data up to a level")
    p.add_argument("k", type=int)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    p = sub.add_parser("k0-reduce", help="K0 class of a range projection")
    p.add_argument("word", type=_word_arg)

    p = sub.add_parser("k0-eval", help="trace evaluation of a K0 element")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--level", type=int, default=0)

    p = sub.add_parser("rep-check", help="axiom residuals of the window model")
    p.add_argument("--window", type=int, default=1 << 14)
    p.add_argument("--maxlen", type=int, default=8)

    p = sub.add_parser("verify", help="run the invariant suite")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--full", action="store_true")

    return parser


def _dispatch(args) -> tuple:
    if args.command == "slice":
        return {"word": words.tm_slice(args.lo, args.hi)}, 0
    if args.command == "factor":
        return {"word": args.word, "is_factor": words.is_factor(args.word)}, 0
    if args.command == "factors":
        found = words.factors_of_length(args.length)
        return {"length": args.length, "count": len(found), "factors": found}, 0
    if args.command == "decompose":
        level = blocks.choose_level(args.word) if args.level is None else args.level
        return blocks.decompose(args.word, level).as_dict(), 0
    if args.command == "extensions":
        ext = extensions.extension_set(args.word, args.m, args.n)
        return {"word": args.word, "m": args.m, "n": args.n, "extensions": ext}, 0
    if args.command == "trace":
        return {"value": str(trace.trace_range(args.word))}, 0
    if args.command == "freq":
        value = trace.frequency(args.word, args.window)
        return {"word": args.word, "window": args.window, "value": str(value)}, 0
    if args.command == "matrix":
        if args.interval is not None:
            if args.t is not None or args.n is not None:
                raise ValueError("--interval cannot be combined with T N")
            lo, hi = trace.uniqueness_interval(args.interval)
            return {"n_max": args.interval, "lo": str(lo), "hi": str(hi)}, 0
        if args.t is None or args.n is None:
            raise ValueError("matrix needs either T N or --interval N")
        b1, b2 = trace.matrix_iterate(args.t, args.n)
        return {"t": str(args.t), "n": args.n, "b1": str(b1), "b2": str(b2)}, 0
    if args.command == "bratteli":
        if args.dot:
            return {"dot": afcore.bratteli_dot(args.k)}, 0
        return afcore.bratteli_data(args.k), 0
    if args.command == "k0-reduce":
        e = ktheory.reduce_class(args.word)
        return {"word": args.word, **e.as_dict()}, 0
    if args.command == "k0-eval":
        e = ktheory.K0Element(args.level, args.a, args.b)
        return {"value": str(ktheory.evaluate(e))}, 0
    if args.command == "rep-check":
        res = repwindow.axiom_residuals(args.window, args.maxlen)
        ok = all(v == 0 for v in res.values())
        return {"window": args.window, "maxlen": args.maxlen,
                "residuals": res, "ok": ok}, 0 if ok else 1
    if args.command == "verify":
        report = verify.run_suite(quick=args.quick)
        return report, 0 if report["ok"] else 1
    raise ValueError(f"unknown subcommand {args.command!r}")


def run(argv) -> int:
    """Parse argv, execute, print one JSON line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, code = _dispatch(args)
    except (ThueMorseError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 3 if isinstance(exc, InvariantError) else 1
    print(json.dumps(payload))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
