#!/usr/bin/env python3
"""Benchmark of the NetRS simulator: one workload, one seed, one result.

Usage (from the repository root):

    python3 perfbench/run.py --workload ilp-k8 --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the simulator libraries plus the C++ binary) into
.bench_build/perfbench on first use, then:

  --trace 0  measures the end-to-end metrics with tracing off: the setup
             cell in fresh processes, then experiments for --seconds, one
             process each, cycling over seeds derived from --seed;
  --trace 1  measures the per-layer ledger on the first derived seed:
             untraced, allocation-counted and instrumented experiments,
             one sharded and one obs-on experiment, then one probe per
             layer; the run's spans are written as a Chrome trace to
             .bench_build/perfbench-out/.

Every run checks the simulator's outputs (README.md, "Correctness checks").
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the host, the
build and every check. `--smoke` shrinks every experiment to a few
thousand requests for the self-test (test_run.py).
"""

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"

WORKLOADS = ("ilp-k8", "clirs-k8")
# Experiment i of a run simulates derived seed i mod SEEDS_PER_RUN, so the
# simulated metrics are medians over that many experiments (each merging
# two deployments) while staying a pure function of --seed.
SEEDS_PER_RUN = 3
# Traced runs also measure the PDES core on this many shards (k=8 has 8
# pods), never more than the host's cores.
PDES_SHARDS = max(1, min(4, os.cpu_count() or 1))

END_TO_END_UNITS = {
    "req_per_s": "req/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
}

FLIGHT_COMPONENTS = [
    "dup_wait", "wire_cli_rs", "accel_queue", "accel_serv",
    "wire_rs_srv", "srv_queue", "srv_serv", "wire_return",
]
ATTRIBUTION_HEADER = b"repeat,req,complete_us,server,dup,via_rs,component,ns"

MIN_SAMPLES = 200_000   # p99 then has >= 2000 samples beyond it
SMOKE_REQUESTS = 3000   # per repeat, --smoke only
CHILD_TIMEOUT_S = 150   # one child process; the whole run must stay < 180 s
RUN_DEADLINE_S = 120    # no new experiment starts after this


class BenchError(Exception):
    """The benchmark itself could not run (build, crash, bad output)."""


def derived_seed(seed, i):
    # Repeat r of an experiment simulates seed + r, so space the derived
    # seeds apart to keep every deployment distinct.
    return seed * 1000 + 10 * i


# --- spans -------------------------------------------------------------------

class Spans:
    """In-memory span recorder; written once as a Chrome trace at exit.

    Python-side spans (the run, its phases) and the spans each child
    process reports (run_experiment, setup cell, probes) share one
    monotonic clock and one run id; every span names its parent.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []   # (id, name, start_us, end_us, parent, pid)
        self.stack = []

    def _add(self, name, start_us, end_us, parent, pid):
        span_id = len(self.spans)
        self.spans.append([span_id, name, start_us, end_us, parent, pid])
        return span_id

    @contextlib.contextmanager
    def span(self, name):
        """Records the `with` body as a span under the innermost open one."""
        parent = self.stack[-1] if self.stack else -1
        span_id = self._add(name, time.monotonic_ns() / 1e3, 0.0, parent,
                            os.getpid())
        self.stack.append(span_id)
        try:
            yield
        finally:
            self.spans[span_id][3] = time.monotonic_ns() / 1e3
            self.stack.pop()

    def add_child(self, pid, child_spans):
        """Attaches a child process's spans under the innermost open span."""
        ids = []
        for s in child_spans:
            parent = ids[s["parent"]] if s["parent"] >= 0 else (
                self.stack[-1] if self.stack else -1)
            ids.append(self._add(s["name"], s["start_us"], s["end_us"],
                                 parent, pid))

    def write(self, path):
        events = [{
            "name": name, "ph": "X", "ts": start, "dur": max(0.0, end - start),
            "pid": pid, "tid": pid,
            "args": {"run_id": self.run_id, "span_id": sid, "parent": parent},
        } for sid, name, start, end, parent, pid in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


# --- build and child processes ----------------------------------------------

def build():
    """Configures (once) and builds perfbench/ into .bench_build/; the
    compiler's temporary files stay there too."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def child(spans, binary, command, *args):
    """Runs one perfbench subcommand to completion; returns its JSON."""
    cmd = [str(BUILD / binary), command, *[str(a) for a in args]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {err}")
    data = json.loads(out.strip().splitlines()[-1])
    spans.add_child(proc.pid, data.pop("spans"))
    return data


class Runner:
    """One benchmark run: the child processes and what they reported."""

    def __init__(self, workload, seed, smoke):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.spans = Spans(f"{workload}-seed{seed}-{os.getpid()}")
        self.started = time.monotonic()
        OUT.mkdir(parents=True, exist_ok=True)

    def elapsed(self):
        return time.monotonic() - self.started

    def experiment(self, seed, binary="perfbench", shards=1, obs=0,
                   instrument=0):
        args = ["--workload", self.workload, "--seed", seed, "--out", OUT,
                "--shards", shards, "--obs", obs, "--instrument", instrument]
        if self.smoke:
            args += ["--requests", SMOKE_REQUESTS]
        exp = child(self.spans, binary, "run", *args)
        exp["obs_bytes"] = sum(Path(p).stat().st_size
                               for p in exp.get("obs_files", {}).values())
        return exp

    def setup_times(self):
        """Setup cell in fresh processes: what one experiment call pays."""
        times = []
        start = time.monotonic()
        with self.spans.span("setup"):
            while len(times) < (2 if self.smoke else 3) or (
                    not self.smoke and time.monotonic() - start < 1.5
                    and len(times) < 15):
                times.append(child(self.spans, "perfbench", "setup",
                                   "--workload", self.workload,
                                   "--seed", derived_seed(self.seed, 0))
                             ["setup_s"])
        return times

    def probes(self):
        budget = 0.02 if self.smoke else 0.25
        with self.spans.span("probes"):
            return child(self.spans, "perfbench", "probe",
                         "--workload", self.workload,
                         "--seed", derived_seed(self.seed, 0),
                         "--budget", budget)["probes"]


# --- correctness checks ------------------------------------------------------

def signature(exp):
    """The simulated statistics a host-side change must leave bit-identical."""
    return (exp["completed"], exp["events"], exp["hops_per_req"],
            exp["p50_ms"], exp["p99_ms"])


def check_experiments(exps, min_samples=0):
    """Failures among experiments: lost requests, too few samples for the
    p99, simulated statistics that differ between runs of one seed (across
    processes, shard counts, and obs on or off)."""
    failures = []
    by_seed = {}
    for e in exps:
        by_seed.setdefault(e["seed"], []).append(e)
        if e["issued"] == 0 or e["issued"] != e["completed"]:
            failures.append(f"{e['workload']} seed {e['seed']}: issued "
                            f"{e['issued']} != completed {e['completed']}")
        if e["samples"] < min_samples:
            failures.append(f"{e['workload']} seed {e['seed']}: only "
                            f"{e['samples']} measured samples")
    for seed, group in sorted(by_seed.items()):
        sigs = {signature(e) for e in group}
        if len(sigs) > 1:
            failures.append(f"seed {seed}: simulated statistics differ "
                            f"across runs: {sorted(sigs)}")
    return failures


def check_obs_files(exp):
    """Failures in one experiment's obs outputs: all four written, the trace
    is valid JSON, the attribution CSV has 8 components + total per request."""
    files = exp["obs_files"]
    failures = [f"obs output missing or empty: {p}" for p in files.values()
                if not Path(p).is_file() or Path(p).stat().st_size == 0]
    if failures:
        return failures
    try:
        trace = json.loads(Path(files["trace"]).read_text())
        if not trace.get("traceEvents"):
            failures.append("trace JSON has no traceEvents")
    except (ValueError, AttributeError) as e:
        failures.append(f"trace JSON does not parse: {e}")
    failures += check_attribution_csv(files["attribution"],
                                      exp["attribution"]["requests"])
    return failures


def check_attribution_csv(path, requests):
    expected = [c.encode() for c in FLIGHT_COMPONENTS] + [b"total"]
    with open(path, "rb") as f:
        if f.readline().rstrip(b"\r\n") != ATTRIBUTION_HEADER:
            return [f"{path}: unexpected header"]
        seen, key, rows = 0, None, []
        for line in f:
            fields = line.rstrip(b"\r\n").split(b",")
            if len(fields) != 8:
                return [f"{path}: malformed row {line!r}"]
            if (fields[0], fields[1]) != key:
                if key is not None and rows != expected:
                    return [f"{path}: request {key} has rows {rows}"]
                key, rows, seen = (fields[0], fields[1]), [], seen + 1
            rows.append(fields[6])
        if key is not None and rows != expected:
            return [f"{path}: request {key} has rows {rows}"]
    if seen != requests:
        return [f"{path}: {seen} attributed requests, expected {requests}"]
    return []


def check_probes(probes):
    return [f"probe {name} returned a wrong result or made no calls"
            for name, p in probes.items() if not (p["ok"] and p["calls"] > 0)]


# --- end-to-end run ----------------------------------------------------------

def run_untraced(r, seconds):
    setup = r.setup_times()
    exps = []
    with r.spans.span("experiments"):
        measure_start = time.monotonic()
        # At least every derived seed once and the first twice, so each run
        # checks determinism across processes.
        while len(exps) <= SEEDS_PER_RUN or (
                time.monotonic() - measure_start < seconds
                and r.elapsed() < RUN_DEADLINE_S):
            exps.append(r.experiment(
                derived_seed(r.seed, len(exps) % SEEDS_PER_RUN)))
    with r.spans.span("checks"):
        failures = check_experiments(exps, 0 if r.smoke else MIN_SAMPLES)

    per_seed = {}
    for e in exps:
        per_seed.setdefault(e["seed"], e)
    metrics = {
        "req_per_s": median([rate(e) for e in exps]),
        "setup_s": median(setup),
        "cpu_s": median([e["cpu_s"] for e in exps]),
        "peak_rss_mb": median([e["peak_rss_mb"] for e in exps]),
        "sim_p50_ms": median([e["p50_ms"] for e in per_seed.values()]),
        "sim_p99_ms": median([e["p99_ms"] for e in per_seed.values()]),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return exps, failures, metrics, {"setup_s": setup}


def rate(exp):
    return exp["completed"] / exp["wall_s"]


# --- traced run: the per-layer ledger ---------------------------------------

def ledger(runs, probes, setup):
    """Per-layer metrics: counts from the run, sim-time components from its
    attribution/decision/telemetry outputs, busy_est = count x probe cost.

    `runs` maps each kind of experiment to its results: "plain" (untraced),
    "counted" (allocation counter), "inst" (attribution, decisions,
    telemetry), "sharded" (PDES_SHARDS shards, telemetry) and "obs" (all
    four obs outputs written)."""
    t, c, pdes, o = (runs[k][0] for k in ("inst", "counted", "sharded", "obs"))
    repeats = t["repeats"]
    completed, issued = t["completed"], t["issued"]
    wall = median([e["wall_s"] for e in runs["plain"]])
    rps = median([rate(e) for e in runs["plain"]])
    setup_s = median(setup)
    attr, dec, tel = t["attribution"], t["decisions"], pdes["telemetry"]
    cost = {name: p["per_call"] for name, p in probes.items()}
    m = {}

    hops = t["hops_per_req"] * completed
    m["sim.events"] = (t["events"], "count")
    m["sim.events_per_s"] = (t["events"] / wall, "1/s")
    m["sim.event_ns"] = (cost["sim.event"], "ns")
    m["sim.busy_est_s"] = (t["events"] * cost["sim.event"] / 1e9, "s")
    windows = tel["windows"]
    m["sim.windows"] = (windows, "count")
    m["sim.events_per_window"] = (tel["events"] / windows if windows else 0.0,
                                  "count")
    busy = tel["exec_ns"] + tel["stall_ns"]
    m["sim.stall_frac"] = (tel["stall_ns"] / busy if busy else 0.0, "ratio")
    shard_events = pdes["events_per_shard"]
    m["sim.shard_imbalance"] = (
        max(shard_events) / mean(shard_events), "ratio")

    m["net.hops_per_req"] = (t["hops_per_req"], "count")
    m["net.hop_ns"] = (cost["net.hop"], "ns")
    m["net.allocs_per_hop"] = (c["allocs"] / hops, "count")
    m["net.wire_ms"] = (attr["wire_cli_rs"] + attr["wire_rs_srv"]
                        + attr["wire_return"], "ms")
    m["net.busy_est_s"] = (hops * cost["net.hop"] / 1e9, "s")

    netrs = t["netrs"]
    in_network = dec["count"] if netrs else 0
    m["netrs.rsnodes_built"] = (t["switches"] if netrs else 0, "count")
    m["netrs.rsnodes_active"] = (t["rsnodes"], "count")
    m["netrs.plans"] = (t["plans"], "count")
    m["netrs.rsnode_ctor_ms"] = (cost["netrs.rsnode_ctor"], "ms")
    m["netrs.rsnode_mb"] = (probes["netrs.rsnode_ctor"]["mb_per_node"], "MB")
    m["netrs.reset_us"] = (cost["netrs.reset"], "us")
    m["netrs.process_ns"] = (cost["netrs.process"], "ns")
    m["netrs.accel_ms"] = (attr["accel_queue"] + attr["accel_serv"], "ms")
    # Simulate-phase work only: construction (and the bootstrap plan's
    # resets) happen inside setup_s. process() is counted net of the
    # selector call it makes, which rs.busy_est_s holds.
    m["netrs.busy_est_s"] = (
        in_network * max(0.0, cost["netrs.process"] - cost["rs.select"])
        / 1e9, "s")

    solves = (t["plans"] - 1) * repeats if t["ilp"] else 0
    m["ilp.solves"] = (solves, "count")
    m["ilp.solve_ms"] = (cost["ilp.solve"], "ms")
    m["ilp.busy_est_s"] = (solves * cost["ilp.solve"] / 1e3, "s")

    m["rs.select_ns"] = (cost["rs.select"], "ns")
    m["rs.decisions"] = (dec["count"], "count")
    m["rs.staleness_ms"] = (dec["staleness_ms"], "ms")
    m["rs.regret_ms"] = (dec["regret_ms"], "ms")
    m["rs.busy_est_s"] = (dec["count"] * cost["rs.select"] / 1e9, "s")

    m["kv.ring_lookup_ns"] = (cost["kv.ring_lookup"], "ns")
    m["kv.srv_queue_ms"] = (attr["srv_queue"], "ms")
    m["kv.srv_serv_ms"] = (attr["srv_serv"], "ms")
    m["kv.herd_cv"] = (t["herd_cv"], "ratio")
    m["kv.busy_est_s"] = (issued * cost["kv.ring_lookup"] / 1e9, "s")

    m["obs.bytes_written"] = (o["obs_bytes"], "B")
    m["obs.trace_dropped"] = (o["trace_dropped"], "count")
    m["obs.overhead_frac"] = (1.0 - rate(o) / rps, "ratio")
    m["obs.rss_delta_mb"] = (
        o["peak_rss_mb"] - median([e["peak_rss_mb"] for e in runs["plain"]]),
        "MB")

    simulate = wall - setup_s
    busy_est = sum(v for k, (v, _) in m.items() if k.endswith(".busy_est_s"))
    m["harness.simulate_s"] = (simulate, "s")
    m["harness.unexplained_frac"] = (1.0 - busy_est / simulate, "ratio")
    m["harness.trace_overhead_frac"] = (
        1.0 - median([rate(e) for e in runs["inst"]]) / rps, "ratio")
    return m


def run_traced(r, seconds):
    seed = derived_seed(r.seed, 0)
    setup = r.setup_times()
    runs = {k: [] for k in ("plain", "counted", "inst", "sharded", "obs")}
    with r.spans.span("experiments"):
        measure_start = time.monotonic()
        while not runs["plain"] or (
                time.monotonic() - measure_start < seconds
                and r.elapsed() < RUN_DEADLINE_S / 2):
            runs["plain"].append(r.experiment(seed))
            runs["counted"].append(r.experiment(seed, "perfbench_traced"))
            runs["inst"].append(r.experiment(seed, "perfbench_traced",
                                             instrument=1))
        runs["sharded"].append(r.experiment(seed, shards=PDES_SHARDS,
                                            instrument=1))
        runs["obs"].append(r.experiment(seed, obs=1))
    probes = r.probes()
    exps = [e for kind in runs.values() for e in kind]
    with r.spans.span("checks"):
        failures = check_experiments(exps, 0 if r.smoke else MIN_SAMPLES)
        failures += check_obs_files(runs["obs"][0])
        failures += check_probes(probes)
    metrics = ledger(runs, probes, setup)
    return exps, failures, metrics, {"probes": probes, "setup_s": setup}


# --- host record and main ----------------------------------------------------

def source_digest():
    """sha256 over ../src, so records of different sources never compare."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def measure(workload, seed, seconds, trace, smoke=False):
    """Runs one benchmark run; returns (result, record)."""
    r = Runner(workload, seed, smoke)
    with r.spans.span(f"perfbench {workload} trace={trace}"):
        exps, failures, metrics, detail = (run_traced if trace else
                                           run_untraced)(r, seconds)
    attempted = sum(e["issued"] for e in exps)
    lost = sum(e["issued"] - e["completed"] for e in exps)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else lost,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "host": dict(exps[0]["build"], git_revision=git_revision(),
                     source_sha256=source_digest()),
        "experiments": [{k: e[k] for k in ("workload", "seed", "wall_s",
                                           "cpu_s", "peak_rss_mb", "p50_ms",
                                           "p99_ms")}
                        for e in exps],
        "failed_frac": result["failed"] / attempted if attempted else 1.0,
        "check_failures": failures,
        **detail,
    }
    name = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        r.spans.write(OUT / f"spans-{name}.json")
    (OUT / f"record-{name}.json").write_text(json.dumps(record, indent=1))
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny experiments, for the self-test only")
    args = ap.parse_args()
    try:
        build()
        result, record = measure(args.workload, args.seed, args.seconds,
                                 args.trace, args.smoke)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for failure in record["check_failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": {k: record[k] for k in
                                 ("host", "failed_frac", "check_failures")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
