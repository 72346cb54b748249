"""Benchmark of the thuemorse library: three workloads behind one command.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ./src and
reads the metric names and units from ./BENCHMARK.json.  Workloads:

  long-factors   the full per-word pipeline on long distinct words
  short-queries  about 20k short requests, most of them repeats
  verify-full    `python -m thuemorse.cli verify --full`

Every workload is a closed loop with one client in one process at a time.
A round is one fresh interpreter running one fixed batch (see child.py);
each workload runs a fixed number of rounds of the same batch, sized so
that a run takes about 30 s on the machine the baseline was taken on.
Timings on a shared machine swing by tens of percent for seconds at a
time, so each request's latency is its fastest over the rounds, and the
batch time is the sum of those.  Set-up time is sampled in every round
(except verify-full's) and in set-up-only processes spread over the run,
at least 8 samples in all, and reported as the fastest sample; on a
fresh checkout the first sample also compiles bytecode, which the
fastest sample leaves out.
With --trace 1 each round runs twice, untraced and then traced, and the
per-layer metrics come from the traced run; the gap between the two is
the tracing overhead.

--seconds does not set how much is measured; it caps it.  No round is
started once it would end after 3 x --seconds (at most 150 s), and a
run cut short that way says so.  A process still running at 170 s is
killed, so the command ends within 180 s; a timeout is reported as such,
not as a wrong answer.

Prints a table of every metric with its unit, then as its last line one
JSON object with the keys correct, attempted, failed and metrics.  Exits
with 1 if any answer was wrong or a round failed, with 3 if no round
finished in time, and with 2, printing no result, if ./src/thuemorse is
missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
SPANS_DIR = os.path.join(BENCH_DIR, "out")
# rounds per run, sized to about 30 s per run at baseline
ROUNDS = {"long-factors": 5, "short-queries": 16, "verify-full": 8}
SETUP_SAMPLES = 8  # set-up samples per run, at least
CAP_FACTOR = 3
CAP_LIMIT_S = 150
TIME_LIMIT_S = 170


class Harness:
    def __init__(self, workload: str, seed: int, layers: list):
        self.workload = workload
        self.seed = seed
        self.layers = layers
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
        self.errors = []
        self.timeouts = []

    def run(self, cmd: list) -> tuple:
        """Run a child to completion; returns (last stdout line, wall s, peak RSS MB).

        stderr is merged into stdout, so a traceback ends up in the error
        report.  A child still running at the deadline is killed.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                env=self.env)
        chunks = []
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = self.deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    self.timeouts.append(f"{' '.join(cmd[1:])}: killed at {TIME_LIMIT_S} s")
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        text = b"".join(chunks).decode(errors="replace")
        lines = text.strip().splitlines() or [""]
        if self.timeouts:
            return None, wall, usage.ru_maxrss / 1024
        if proc.returncode != 0:
            self.errors.append(f"{' '.join(cmd[1:])} exited {proc.returncode}: {text[-2000:]}")
            return None, wall, usage.ru_maxrss / 1024
        return lines[-1], wall, usage.ru_maxrss / 1024

    def child(self, *extra) -> tuple:
        cmd = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
               *extra]
        line, wall, rss = self.run(cmd)
        try:
            return json.loads(line), wall, rss
        except (TypeError, json.JSONDecodeError):
            if line is not None:
                self.errors.append(f"{' '.join(extra)}: unreadable output {line[-500:]!r}")
            return None, wall, rss

    def cli_verify(self) -> tuple:
        """One `verify --full` CLI process: (result, wall s, peak RSS MB)."""
        line, wall, rss = self.run([sys.executable, "-m", "thuemorse.cli", "verify", "--full"])
        try:
            report = json.loads(line)
            checks = report["checks"]
        except (TypeError, json.JSONDecodeError, KeyError):
            if line is not None:
                self.errors.append(f"verify --full: unreadable output {line[-500:]!r}")
            return None, wall, rss
        failures = [c.get("name") for c in checks if not c.get("ok")]
        if not report.get("ok"):
            failures.append("report not ok")
        names = [c.get("name") for c in checks]
        if names != list(gen.VERIFY_CHECKS):
            failures.append(f"checks {names}, expected {list(gen.VERIFY_CHECKS)}")
        return {"wall_s": wall, "attempted": len(checks), "failed": len(failures),
                "failures": failures}, wall, rss


def measure(h: Harness, seconds: float, traced: bool) -> dict:
    """The workload's fixed number of rounds, within the cap."""
    rounds, traced_rounds, setups = [], [], []
    start = time.monotonic()
    cap = min(CAP_FACTOR * seconds, CAP_LIMIT_S)
    round_s = 0.0
    planned = ROUNDS[h.workload]
    # a round samples its own set-up, except the CLI of verify-full; the
    # set-up-only processes that make up the rest are spread over the run
    own = 0 if h.workload == "verify-full" else planned
    setup_only = -(-max(0, SETUP_SAMPLES - own) // planned)
    for r in range(planned):
        if h.errors or h.timeouts or time.monotonic() + round_s > start + cap:
            break
        t = time.monotonic()
        for _ in range(setup_only):
            res, _, _ = h.child("--setup-only")
            if res is not None:
                setups.append(res["setup_s"])
        res, _, rss = h.cli_verify() if h.workload == "verify-full" else h.child()
        if res is not None:
            res["rss_mb"] = rss
            rounds.append(res)
            if "setup_s" in res:
                setups.append(res["setup_s"])
        if traced and res is not None:
            spans = os.path.join(SPANS_DIR, f"spans-{h.workload}-{r}.jsonl")
            res_t, wall_t, _ = h.child("--layers", ",".join(h.layers), "--spans", spans)
            if res_t is not None:
                if h.workload == "verify-full":
                    # the untraced wall is that of the whole CLI process
                    res_t["wall_s"] = wall_t
                res_t["untraced_wall_s"] = res["wall_s"]
                traced_rounds.append(res_t)
        round_s = time.monotonic() - t
    notes = [f"bench/run.py: {t}" for t in h.timeouts]
    if len(rounds) < planned and not h.errors:
        notes.append(f"bench/run.py: stopped after {len(rounds)} of {planned} rounds "
                     f"(time cap {cap:g} s)")
    return {"rounds": rounds, "traced": traced_rounds, "setups": setups, "notes": notes}


def quantile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: dict) -> tuple:
    """Metric values and sample counts of an untraced measurement.

    Every round ran the same batch, so request i of one round is request
    i of every round; its latency is the fastest of those, and the batch
    time is the sum of those latencies.  For verify-full the one request
    is the CLI process, and the batch time is its fastest wall time.
    """
    rounds = m["rounds"]
    if "latencies" in rounds[0]:
        latencies = [min(x) for x in zip(*(r["latencies"] for r in rounds))]
        wall = sum(latencies)
    else:
        wall = min(r["wall_s"] for r in rounds)
        latencies = [wall]
    values = {
        "setup_s": min(m["setups"]),
        "queries_per_s": len(latencies) / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p95_ms": 1000 * quantile(latencies, 95),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    counts = {"rounds": len(rounds), "requests per round": len(latencies),
              "setup samples": len(m["setups"])}
    return values, counts


def per_layer(m: dict) -> tuple:
    """Per-round means over the traced rounds, and each layer's share of request time."""
    traced = m["traced"]
    n = len(traced)
    totals = {}
    for r in traced:
        for name, row in r["layers"].items():
            acc = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    request_busy = totals.get("request", {}).get("busy_s", 0.0)
    values = {}
    for name, acc in totals.items():
        values[f"{name}.calls"] = acc["calls"] / n
        values[f"{name}.busy_s"] = acc["busy_s"] / n
        values[f"{name}.self_s"] = acc["self_s"] / n
        values[f"{name}.share"] = acc["busy_s"] / request_busy if request_busy else 0.0
    values["import.busy_s"] = statistics.fmean(r["import_s"] for r in traced)
    untraced = sum(r["untraced_wall_s"] for r in traced)
    extra = sum(r["wall_s"] for r in traced) - untraced
    values["tracing.overhead_s"] = extra / n
    values["tracing.overhead_ratio"] = extra / untraced
    return values, {"traced rounds": n}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "thuemorse", "__init__.py")):
        print("bench/run.py: run from a checkout root holding src/thuemorse", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    layers = [x["name"][:-len(".calls")] for x in spec["per_layer"]
              if x["name"].endswith(".calls") and not x["name"].startswith("request.")]
    os.makedirs(SPANS_DIR, exist_ok=True)
    for old in glob.glob(os.path.join(SPANS_DIR, f"spans-{args.workload}-*.jsonl")):
        os.remove(old)

    h = Harness(args.workload, args.seed, layers)
    m = measure(h, args.seconds, bool(args.trace))
    attempted = sum(r["attempted"] for r in m["rounds"] + m["traced"])
    failed = sum(r["failed"] for r in m["rounds"] + m["traced"])
    for r in m["rounds"] + m["traced"]:
        h.errors.extend(r["failures"])
    if h.errors or m["notes"]:
        print("\n".join(h.errors + m["notes"]), file=sys.stderr)
    if not m["rounds"] or not m["setups"] or (args.trace and not m["traced"]):
        if h.timeouts and not h.errors:
            print("bench/run.py: timed out before a round finished", file=sys.stderr)
            return 3
        print("bench/run.py: no complete round", file=sys.stderr)
        return 1
    values, counts = (per_layer if args.trace else end_to_end)(m)
    metrics = {x["name"]: {"value": values.get(x["name"], 0.0), "unit": x["unit"]}
               for x in wanted}

    print(f"workload {args.workload}, seed {args.seed}, "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    for name, x in metrics.items():
        print(f"  {name:48s} {x['value']:14.6g} {x['unit']}")
    print(f"  {'failed_ratio':48s} {failed / max(attempted, 1):14.6g} ({failed}/{attempted})")
    for note in m["notes"]:
        print(f"  note: {note}")
    correct = failed == 0 and not h.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
