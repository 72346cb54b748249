"""One benchmark round, run in a fresh interpreter by bench/run.py.

usage: python3 bench/child.py --workload NAME --seed N
           [--setup-only] [--layers module.fn,...] [--spans PATH]

The library's module-level caches are unbounded, so every round starts
from a fresh process: a round's timings and peak RSS never depend on
what an earlier round or workload left behind.  The round times its own
set-up (import plus a fixed warm-up), builds its inputs from the seed,
runs one fixed batch of requests, and only then checks the answers;
rounds with the same seed run the same batch.  With --layers it wraps
those library functions in spans, summarises them and writes them to
--spans.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
from time import perf_counter

import gen
from tracer import REQUEST, Tracer

LONG_BATCH = 200
SHORT_BATCH = 20000
MAX_FAILURES_SHOWN = 5

# completes to the block word 0110 at level 1, so reduce_class solves the
# table of block-word classes of lengths 4..6 during the warm-up
WARMUP_WORD = "0110100"

# short-queries operation -> module that serves it
SHORT_TARGETS = {
    "is_factor": "words",
    "decompose": "blocks",
    "trace_range": "trace",
    "reduce_class": "ktheory",
    "extension_set": "extensions",
    "tm_slice": "words",
    "trace_vector": "afcore",
}

REJECTED = "rejected"


def warm_up(tm, workload: str) -> None:
    """One tiny call into each layer the workload uses."""
    if workload == "verify-full":
        return
    w = WARMUP_WORD
    tm.words.is_factor(w)
    tm.blocks.complete_boundaries(tm.blocks.decompose(w, tm.blocks.choose_level(w)))
    tm.trace.trace_range(w)
    tm.ktheory.reduce_class(w)
    if workload == "short-queries":
        tm.extensions.extension_set(w, 1, 1)
        tm.words.tm_slice(-4, 4)
        tm.afcore.trace_vector(1)


def request_functions(tm) -> dict:
    """Operation name -> callable, looked up through module attributes."""
    fns = {op: getattr(getattr(tm, module), op) for op, module in SHORT_TARGETS.items()}
    words, blocks, trace, ktheory = tm.words, tm.blocks, tm.trace, tm.ktheory

    def pipeline(w):
        if not words.is_factor(w):
            return False
        n = blocks.choose_level(w)
        d = blocks.decompose(w, n)
        return n, d, blocks.complete_boundaries(d), trace.trace_range(w), ktheory.reduce_class(w)

    fns["pipeline"] = pipeline
    return fns


def timed_loop(queries, fns, rejection, tracer):
    def call(q):
        return fns[q.op](*q.args)

    request = tracer.wrap(REQUEST, call) if tracer else call
    answers, latencies = [], []
    start = perf_counter()
    for q in queries:
        t = perf_counter()
        try:
            out = request(q)
        except rejection:
            out = REJECTED
        except Exception as exc:  # an unexpected error is a failed request
            out = exc
        latencies.append(perf_counter() - t)
        answers.append(out)
    return answers, latencies, perf_counter() - start


class Checker:
    """Checks answers by routes independent of the one that produced them.

    Built from library functions taken before any tracing patch, and used
    only after the timed loop, so checking neither adds spans nor warms a
    cache that a timed request could then hit.
    """

    def __init__(self, tm):
        self.tm = tm
        self.recompose = tm.blocks.recompose
        self.evaluate = tm.ktheory.evaluate
        self.trace_range = tm.trace.trace_range
        self.reduce_class = tm.ktheory.reduce_class
        self.failures = []
        self._trace, self._k0_value = {}, {}

    def trace_value(self, w):
        if w not in self._trace:
            self._trace[w] = self.trace_range(w)
        return self._trace[w]

    def k0_value(self, w):
        if w not in self._k0_value:
            self._k0_value[w] = self.evaluate(self.reduce_class(w))
        return self._k0_value[w]

    def split_matches(self, d, p, w, n, complete=False) -> bool:
        expected = (n,) + gen.grid_split(p, len(w), n, complete)
        return (d.level, d.gamma0, d.blocks, d.gamma1) == expected

    def pipeline(self, q, out) -> bool:
        w = q.args[0]
        if q.p is None:
            return out is False
        if not isinstance(out, tuple):
            return False
        n, d, c, t, e = out
        return (n == gen.grid_level(q.p, len(w))
                and self.split_matches(d, q.p, w, n)
                and self.recompose(d) == w
                and self.split_matches(c, q.p, w, n, complete=True)
                and gen.is_dekking_value(t)
                and self.evaluate(e) == t)

    def short(self, q, out) -> bool:
        op, args = q.op, q.args
        if op == "tm_slice":
            lo, hi = args
            return out == gen.word(lo, hi - lo)
        if op == "trace_vector":
            return (isinstance(out, list)
                    and len(out) == gen.factor_count(2 * args[0])
                    and sum(out) == 1
                    and all(gen.is_dekking_value(t) for t in out))
        if q.p is None:
            return out is False if op == "is_factor" else out == REJECTED
        w = args[0]
        if op == "is_factor":
            return out is True
        if op == "decompose":
            return (isinstance(out, self.tm.BlockDecomposition)
                    and self.split_matches(out, q.p, w, args[1])
                    and self.recompose(out) == w)
        if op == "trace_range":
            return gen.is_dekking_value(out) and out == self.k0_value(w)
        if op == "reduce_class":
            return isinstance(out, self.tm.K0Element) and self.evaluate(out) == self.trace_value(w)
        if op == "extension_set":
            return (isinstance(out, list)
                    and len(out) in (1, 2, 4)
                    and out == sorted(set(out))
                    and all(len(u) == len(w) + 2 and u[1:-1] == w for u in out)
                    and gen.word(q.p - 1, len(w) + 2) in out)
        return False

    def check(self, queries, answers, how) -> None:
        for q, out in zip(queries, answers):
            try:
                ok = how(q, out)
            except Exception as exc:  # a malformed answer is a failure
                ok, out = False, exc
            if not ok:
                self.failures.append(f"{q.op}{q.args!r:.80} -> {out!r:.120}")


def run_verify(tm, tracer):
    """All verify checks in order with quick=False, as `verify --full` runs them."""
    checks = [getattr(tm.verify, fn.__name__) for fn in tm.verify.ALL_CHECKS]

    def suite():
        return [check(False) for check in checks]

    request = tracer.wrap(REQUEST, suite) if tracer else suite
    start = perf_counter()
    results = request()
    wall = perf_counter() - start
    failures = [r["name"] for r in results if not r["ok"]]
    names = [r["name"] for r in results]
    if names != list(gen.VERIFY_CHECKS):
        failures.append(f"checks {names}, expected {list(gen.VERIFY_CHECKS)}")
    return wall, len(results), failures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("long-factors", "short-queries", "verify-full"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--layers", default="")
    parser.add_argument("--spans")
    args = parser.parse_args()

    t0 = perf_counter()
    tm = importlib.import_module("thuemorse")
    t_import = perf_counter()
    warm_up(tm, args.workload)
    out = {"setup_s": perf_counter() - t0, "import_s": t_import - t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    rng = random.Random(f"{args.workload}:{args.seed}")
    checker = Checker(tm)
    tracer = None
    if args.layers:
        tracer = Tracer()
        tracer.patch(args.layers.split(","))
    if args.workload == "verify-full":
        out["wall_s"], out["attempted"], failures = run_verify(tm, tracer)
    else:
        if args.workload == "long-factors":
            queries, how = gen.long_factor_queries(rng, LONG_BATCH), checker.pipeline
        else:
            queries, how = gen.short_queries(rng, SHORT_BATCH), checker.short
        answers, latencies, out["wall_s"] = timed_loop(
            queries, request_functions(tm), tm.NotAFactorError, tracer)
        out["latencies"] = latencies
        out["attempted"] = len(queries)
        checker.check(queries, answers, how)
        failures = checker.failures
    out["failed"] = len(failures)
    out["failures"] = failures[:MAX_FAILURES_SHOWN]
    if tracer:
        out["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
