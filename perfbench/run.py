#!/usr/bin/env python3
"""httplift benchmark: per-command wall time on seeded traffic.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. A run takes about --seconds, which defaults to `run_seconds` in
BENCHMARK.json. Without --workload every workload runs, each in its own
interpreter with an equal share of --seconds, and one row per workload is
printed.

With --trace 0 the end-to-end metrics are measured: each CLI command is
timed in this process by calling `httplift.cli.main(argv)` with stdout
captured, after one warm-up call whose output the oracle checks; every
later call must give the same exit code and byte-identical output. With
--trace 1 a separate run wraps the program's public functions and reports
per-layer self times and counts instead; no end-to-end metric comes from
it. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import tracing  # noqa: E402
import workloads  # noqa: E402

# Samples are taken in rounds of one sample of every sampler, so each
# command, the round trip and setup are sampled equally often and spread
# over the whole run. A command metric is the upper quartile of its
# samples, setup_s their median. On a shared machine the same call runs at
# two speeds about 1.6x apart, and the share of a run spent at the fast one
# varies, from a tenth to about a half; the upper quartile stays at the
# slow speed, where the minimum and the median jump between the two. The
# sample count does not bias a quantile, so a faster program, which gets
# more rounds, is not favoured.
# Rounds taken even past the deadline:
MIN_ROUNDS = 5

E2E_UNITS = {"setup_s": "s", "lift_s": "s", "validate_s": "s",
             "query_s": "s", "roundtrip_s": "s", "peak_rss_mb": "MiB"}


class Failures:
    """Operations attempted and the reasons the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.reasons = []

    def record(self, what: str, errors):
        self.attempted += 1
        if errors:
            self.reasons.append("%s: %s" % (what, "; ".join(errors)))

    @property
    def failed(self):
        return len(self.reasons)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_seconds() -> float:
    """The run length fixed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


# --------------------------------------------------------------------------
# Outside measurements: fresh interpreters

def _child(code: str, *args, timeout: float):
    cmd = [sys.executable, "-I", "-c", code, SRC, *args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)


_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import httplift.cli"


def setup_sampler(failures: Failures):
    """Wall time for a fresh interpreter to import httplift.cli. One
    untimed start first writes the bytecode caches, as an installed
    package has them."""
    _child(_IMPORT, timeout=60)

    def sample() -> float:
        t0 = time.perf_counter()
        proc = _child(_IMPORT, timeout=60)
        elapsed = time.perf_counter() - t0
        failures.record("setup", [proc.stderr.strip()] if proc.returncode
                        else [])
        return elapsed
    return sample


_RSS = """
import contextlib, json, os, resource, sys
sys.path.insert(0, sys.argv[1])
from httplift import cli
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in json.loads(sys.argv[2]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "maxrss_kib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def measure_rss(wl, expected_codes, failures: Failures) -> float:
    """Peak resident MiB of a fresh child that runs the workload's
    commands once. The child holds none of the generator's data."""
    argvs = [argv for c in wl.commands for argv in c.argv]
    proc = _child(_RSS, json.dumps(argvs), timeout=150)
    errors = []
    if proc.returncode:
        errors.append(proc.stderr.strip()[-500:])
        failures.record("peak_rss", errors)
        return float("nan")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["codes"] != expected_codes:
        errors.append("exit codes %s, expected %s"
                      % (result["codes"], expected_codes))
    failures.record("peak_rss", errors)
    return result["maxrss_kib"] / 1024.0


# --------------------------------------------------------------------------
# In-process command calls

class Runner:
    """Calls cli.main, checks each call against the oracle (first call)
    or against the first call's output hash (later calls)."""

    def __init__(self, wl, failures: Failures):
        from httplift import cli
        self.cli = cli
        self.wl = wl
        self.failures = failures
        self.reference = {}     # argv tuple -> (exit code, sha256)
        self.hashes = {}

    def call(self, argv) -> float:
        """One timed main() call; returns its wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except Exception as e:  # a crash is a failed operation
                code = "%s: %s" % (type(e).__name__, e)
            elapsed = time.perf_counter() - t0
        self._check(tuple(argv), code, out.getvalue(), err.getvalue())
        return elapsed

    def _check(self, argv, code, stdout, stderr):
        if argv[0] == "lift":
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                stdout = fh.read().decode("utf-8")
        digest = sha256(stdout)
        errors = []
        if stderr:
            errors.append("stderr: %s" % stderr.strip()[:200])
        if argv not in self.reference:
            expected = self.wl.expected[os.path.basename(argv[2] if
                                        argv[0] == "query" else argv[1])]
            errors += workloads.check(argv, code, stdout, expected)
            self.reference[argv] = (code, digest)
            self.hashes[" ".join(os.path.basename(a) for a in argv)] = digest
        elif self.reference[argv] != (code, digest):
            errors.append("exit %s, sha256 %s differ from the first call "
                          "(exit %s, sha256 %s)"
                          % ((code, digest[:12]) + (self.reference[argv][0],
                                                    self.reference[argv][1][:12])))
        self.failures.record(" ".join(argv[:2]), errors)


class RoundTrip:
    """serialize_trig -> parse_trig -> isomorphic_datasets, on the dataset
    lifted from the workload's round-trip input."""

    def __init__(self, wl, failures: Failures):
        from httplift import cli, rdf, turtle, vocab
        self.rdf, self.turtle, self.vocab = rdf, turtle, vocab
        self.failures = failures
        self.lifted = cli._load_dataset(wl.roundtrip_input, None, None)

    def call(self) -> float:
        t0 = time.perf_counter()
        text = self.turtle.serialize_trig(self.lifted, self.vocab.PREFIXES)
        reparsed = self.turtle.parse_trig(text)
        same = self.rdf.isomorphic_datasets(self.lifted, reparsed)
        elapsed = time.perf_counter() - t0
        self.failures.record("roundtrip", [] if same is True else
                             ["isomorphic_datasets gave %r, expected True"
                              % (same,)])
        return elapsed

    def negative_control(self):
        """A reparsed copy with two header values exchanged must not be
        isomorphic to the lifted dataset."""
        text = self.turtle.serialize_trig(self.lifted, self.vocab.PREFIXES)
        reparsed = self.turtle.parse_trig(text)
        swapped = swap_header_values(reparsed)
        errors = []
        if swapped is None:
            errors.append("no two header nodes to swap")
        elif self.rdf.isomorphic_datasets(self.lifted, swapped) is not False:
            errors.append("isomorphic_datasets accepted a dataset with two "
                          "header values exchanged")
        self.failures.record("roundtrip negative control", errors)


def swap_header_values(dataset):
    """`dataset` with the values of two header nodes exchanged, chosen so
    that neither header's new value occurs under its name anywhere in the
    dataset. Triple counts, ground triples and blank-node counts stay the
    same, so only the blank-node structure tells the copies apart. None if
    no such pair exists."""
    from httplift import rdf, vocab
    g = dataset.default_graph
    names = {t.subject: t.object for t in g if t.predicate == vocab.HDR_NAME}
    values = sorted((t for t in g if t.predicate == vocab.HDR_VALUE),
                    key=lambda t: (repr(t.subject), repr(t.object)))
    seen = defaultdict(set)                 # header name -> values
    for t in values:
        seen[names.get(t.subject)].add(t.object)
    for a in values:
        for b in values:
            if (b.object not in seen[names.get(a.subject)]
                    and a.object not in seen[names.get(b.subject)]):
                triples = set(g) - {a, b}
                triples |= {rdf.Triple(a.subject, vocab.HDR_VALUE, b.object),
                            rdf.Triple(b.subject, vocab.HDR_VALUE, a.object)}
                return rdf.Dataset(rdf.Graph(triples), dataset.named_graphs)
    return None


def sample_loop(samplers: dict, deadline: float) -> dict:
    """Run rounds of one sample per sampler until at least MIN_ROUNDS
    rounds are done and the next round would end more than half a round
    past `deadline` (judged by the mean round so far), so that the run
    ends as near the deadline as it can. Returns sampler name -> samples,
    in the order taken."""
    samples = {m: [] for m in samplers}
    rounds = 0
    start = time.perf_counter()
    while True:
        for metric, sampler in samplers.items():
            gc.collect()
            samples[metric].append(sampler())
        rounds += 1
        now = time.perf_counter()
        if (rounds >= MIN_ROUNDS
                and now + (now - start) / rounds / 2 > deadline):
            return samples


def command_sampler(runner: Runner, command):
    return lambda: sum(runner.call(argv) for argv in command.argv)


def summary(samples: list) -> dict:
    """Median, quartiles, sample count, and the highest of p90/p99 that
    has at least ten samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s), "min": s[0],
           "max": s[-1]}
    if len(s) >= 2:
        q = statistics.quantiles(s, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    for p in (99, 90):
        if len(s) * (100 - p) / 100 >= 10:
            out["p%d" % p] = statistics.quantiles(s, n=100)[p - 1]
            break
    return out


# --------------------------------------------------------------------------
# One workload

def _warm_up(wl, failures: Failures):
    """Runner, round trip and plain samplers, each sampler run once so the
    oracle checks its first output."""
    runner = Runner(wl, failures)
    roundtrip = RoundTrip(wl, failures)
    samplers = {c.metric: command_sampler(runner, c) for c in wl.commands}
    samplers["roundtrip_s"] = roundtrip.call
    for sampler in samplers.values():
        sampler()
    roundtrip.negative_control()
    return runner, samplers


def run_e2e(wl, deadline: float, failures: Failures) -> dict:
    """A sample of lift_s, validate_s or query_s times all main() calls of
    one command, one of roundtrip_s a whole round trip; each is reported
    as the upper quartile of its samples. setup_s is the median of its
    starts."""
    runner, samplers = _warm_up(wl, failures)
    samplers["setup_s"] = setup_sampler(failures)
    codes = [runner.reference[tuple(argv)][0]
             for c in wl.commands for argv in c.argv]
    rss = measure_rss(wl, codes, failures)
    samples = sample_loop(samplers, deadline)
    values = {m: statistics.quantiles(v, n=4)[2]
              for m, v in samples.items()}
    values["setup_s"] = statistics.median(samples["setup_s"])
    samples["peak_rss_mb"] = [rss]
    values["peak_rss_mb"] = rss
    return {"samples": samples, "values": values, "hashes": runner.hashes}


def run_traced(wl, deadline: float, failures: Failures) -> dict:
    """Traced samples of every command. Per-layer values are medians over
    the samples of each command, summed over the commands.
    trace.overhead_s is the time the wrappers add to one sample of every
    command: the median span count of each command's samples times
    span_cost(). The traced minus the untraced wall time is smaller than
    the run-to-run noise of either, so it is not used."""
    import tracemalloc
    runner, plain = _warm_up(wl, failures)
    tracer = tracing.Tracer()
    op_metric = {}

    def traced(metric):
        def sample():
            tracer.op += 1
            op_metric[tracer.op] = metric
            tracing.install(tracer)
            try:
                if metric == "roundtrip_s":
                    idx = tracer.begin("bench")
                    try:
                        return plain[metric]()
                    finally:
                        tracer.end(idx)
                return plain[metric]()
            finally:
                tracer.unpatch()
        return sample

    samples = sample_loop({m: traced(m) for m in plain}, deadline)

    selfs = tracing.self_time_by_op(tracer.spans)
    by_metric = defaultdict(list)       # command metric -> values per op
    for op, metric in op_metric.items():
        values = Counter(tracer.counts[op])
        for key, secs in selfs[op].items():
            values[key + "_s"] += secs
        by_metric[metric].append(values)
    layer = Counter()
    for metric, ops in by_metric.items():
        for key in set().union(*ops):
            med = statistics.median(v[key] for v in ops)
            layer[key] += med
            layer["in_%s.%s" % (metric[:-2], key)] = med
    spans_per_op = Counter(span[4] for span in tracer.spans)
    overhead = span_cost() * sum(
        statistics.median(spans_per_op[op] for op, m in op_metric.items()
                          if m == metric) for metric in plain)

    # Memory per triple: the lift command once under tracemalloc.
    lift_argv = wl.commands[0].argv[0]
    gc.collect()
    tracemalloc.start()
    runner.call(lift_argv)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    lift_triples = statistics.median(v["lift.triples"]
                                     for v in by_metric["lift_s"])

    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_s":
            value = overhead
        elif name == "mem.bytes_per_triple":
            value = peak / lift_triples if lift_triples else 0.0
        else:
            value = layer.get(name_to_key(name), 0)
        metrics[name] = {"value": value, "unit": unit}
    return {"metrics": metrics, "samples": samples,
            "spans": tracer.spans, "op_metric": op_metric,
            "hashes": runner.hashes}


def span_cost(calls: int = 10000) -> float:
    """Seconds one traced call adds to the call: a wrapped no-op with a
    counter minus the bare no-op, each the median of 5 timings of `calls`
    calls."""
    tracer = tracing.Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop, lambda c, a, r: c.update(("n",)))

    def per_call(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / calls
    return per_call(wrapped) - per_call(noop)


# Per-layer metric names in the order they are reported.
_COUNTS = ("rdf.lookup_calls", "rdf.lookup_results", "rdf.builds",
           "rdf.iso_bnodes", "turtle.parse_triples", "turtle.serialize_bytes",
           "turtle.format_term_calls", "ingest.messages", "ingest.rdf_bodies",
           "uri.calls", "lift.triples", "validate.findings", "queries.rows")
# The layers that lift and validate call, for the self-time breakdown inside
# lift_s and validate_s. in_lift.rdf.lookup_calls is 0 at the commit that
# added the benchmark: lifting does no graph lookup.
_INSIDE = {
    "lift": ("cli", "ingest", "uri", "lift", "turtle.parse",
             "turtle.serialize", "rdf.build"),
    "validate": ("cli", "ingest", "uri", "lift", "validate", "turtle.parse",
                 "turtle.format_term", "rdf.lookup", "rdf.build"),
}


def per_layer_metrics():
    """(name, unit) for every per-layer metric."""
    out = []
    for layer in tracing.LAYERS:
        if layer == "queries":
            out += [("queries.cq%d_s" % n, "s") for n in range(1, 8)]
        elif layer.startswith(("rdf.", "turtle.")):
            out.append((layer + "_s", "s"))
        else:
            out.append((layer + ".self_s", "s"))
    unit = {"turtle.serialize_bytes": "B"}
    out += [(k, unit.get(k, "count")) for k in _COUNTS]
    out += [("mem.bytes_per_triple", "B/triple"), ("trace.overhead_s", "s")]
    for command, layers in _INSIDE.items():
        out += [("in_%s.%s_s" % (command, layer), "s") for layer in layers]
    out.append(("in_lift.rdf.lookup_calls", "count"))
    return out


def name_to_key(name: str) -> str:
    """Metric name to the key it is accumulated under: "ingest.self_s" is
    the "ingest_s" self time."""
    if name.endswith(".self_s"):
        return name[:-len(".self_s")] + "_s"
    return name


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.perf_counter() + seconds
    if not os.path.isfile(os.path.join(SRC, "httplift", "cli.py")):
        print("error: no httplift sources under %s; run from the root of "
              "a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(workdir)
    failures = Failures()
    try:
        wl = workloads.build(name, seed, workdir)
        if trace:
            result = run_traced(wl, deadline, failures)
            metrics = result["metrics"]
        else:
            result = run_e2e(wl, deadline, failures)
            metrics = {m: {"value": result["values"][m], "unit": u}
                       for m, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = {m: summary(v) for m, v in result["samples"].items()}
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "stats": stats, "samples": result["samples"],
              "sha256": result["hashes"], "failures": failures.reasons,
              "metrics": metrics}
    tag = "%s-seed%d-trace%d" % (name, seed, int(trace))
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if trace:
        with open(os.path.join(OUT, "trace-%s.json" % tag), "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "ops": result["op_metric"],
                       "spans": result["spans"]}, fh)

    print_table(name, seed, trace, metrics, stats, failures)
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0


def print_table(name, seed, trace, metrics, stats, failures):
    print("workload %s  seed %d  %s" % (name, seed,
                                         "traced" if trace else "untraced"))
    cols = ("min", "q1", "median", "q3", "p90", "p99")
    print("%-34s %-9s %12s %5s" % ("metric", "unit", "value", "n")
          + "".join(" %10s" % c for c in cols))
    for m, v in metrics.items():
        st = stats.get(m, {})
        print("%-34s %-9s %12.6g %5s" % (m, v["unit"], v["value"],
                                          st.get("n", ""))
              + "".join(" %10s" % ("%.4g" % st[c] if c in st else "")
                        for c in cols))
    print("%-34s %-9s %12.6g %5d" % ("error_rate", "ratio",
                                     failures.failed / max(1, failures.attempted),
                                     failures.attempted))
    for reason in failures.reasons[:20]:
        print("FAILED", reason)


# --------------------------------------------------------------------------
# All workloads

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh interpreter with an equal share of
    `seconds`; one row per workload."""
    rows = {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    share = seconds / len(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(share),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = result
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, m)] = v
    first = rows[workloads.WORKLOADS[0]]["metrics"]
    heads = ["%s[%s]" % (m, v["unit"]) for m, v in first.items()]
    width = max(14, *map(len, heads))
    print("%-14s" % "workload" + "".join(" %*s" % (width, h) for h in heads)
          + " %12s" % "error_rate")
    for name, r in rows.items():
        print("%-14s" % name + "".join(
            " %*.6g" % (width, v["value"]) for v in r["metrics"].values())
            + " %12.4g" % (r["failed"] / r["attempted"]))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = run_seconds() if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
