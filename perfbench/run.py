#!/usr/bin/env python3
"""Repository benchmark: simulator throughput and cmt_served ops/latency.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:
  sim-schemes        System::run over {mcf, swim} x {base, naive, cached,
                     incremental} on the Table-1 machine, repeated.
  served-hot-read    a fresh cmt_served, 95% reads / 5% writes over a
                     per-client working set that fits the trusted cache.
  served-cold-mixed  a fresh cmt_served, 50/50 reads/writes uniform over
                     a 16 MiB region with a 64-chunk trusted cache.

The first run builds perfbench/ (which compiles ../src and the daemon)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Every metric is printed by name with its unit; the last stdout line is
one JSON object {correct, attempted, failed, metrics}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics (a
layer a workload does not exercise reads 0). README.md defines each.

Maintenance flags: --write-reference regenerates reference_digests.json;
--inject KIND plants one fault so selftest.py can watch a gate fire.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.json")

WORKLOADS = ("sim-schemes", "served-hot-read", "served-cold-mixed")
SCHEMES = ("base", "naive", "cached", "incremental")
COUNTERS = ("l2.read_misses", "l2.integrity_block_reads",
            "l2.hash_chunk_fetches", "l2.buffer_stalls", "hash.jobs",
            "hash.bytes", "mem.reads", "mem.writes")
# sim-schemes trace seeds with a committed reference digest each.
TRACE_SEEDS = 16
# Daemon geometry per served workload; --workers stays at its default.
SERVED = {
    "served-hot-read": {"kind": "hot", "protected": 1 << 20, "cache": 64},
    "served-cold-mixed": {"kind": "cold", "protected": 16 << 20,
                          "cache": 64},
}
SHARDS = 4
# Daemons started per served run to time set-up (the last one serves).
SETUP_REPS = 15
INJECTIONS = ("wrong-digest", "corrupt-shadow", "tamper-reply",
              "bad-request")

# Printed after BENCHMARK.json's end_to_end metrics but left out of the
# JSON line: error_rate is failed/attempted (already in the JSON line) and
# is 0 on a correct run; sim_minstr_per_s exists only on sim-schemes.
PRINTED_ONLY = {"sim_minstr_per_s": "Minstr/s", "error_rate": "fraction"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring the three programs up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to perfbench/ (expected "
            "../src); run from a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target",
           "perfbench_sim", "perfbench_load", "cmt_served"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return bdir


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_pct(before, after):
    """Share of CPU time the hypervisor took away between two reads."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ------------------------------------------------------------------ sim


def run_sim(bdir, seed, seconds, trace, inject):
    trace_seed = 1 + seed % TRACE_SEEDS
    ticks = cpu_ticks()
    doc = run_sim_binary(bdir, trace_seed, seconds, trace)
    steal = steal_pct(ticks, cpu_ticks())
    with open(REFERENCE) as f:
        references = json.load(f)
    if inject == "wrong-digest":
        for ref in references.values():
            ref[next(iter(ref))] = "0" * 16

    attempted = failed = 0
    errors = []
    for p in doc["passes"]:
        reference = references[str(int(p["trace_seed"]))]
        for c in p["configs"]:
            attempted += 1
            if "error" in c:
                failed += 1
                errors.append("%s: %s" % (c["label"], c["error"]))
            elif c["digest"] != reference.get(c["label"]):
                failed += 1
                errors.append("%s: digest %s, reference %s" % (
                    c["label"], c["digest"], reference.get(c["label"])))
    for e in errors[:5]:
        print("  FAILED " + e)

    # Host speed wanders by tens of percent for seconds at a time, and
    # only ever slows a pass down. So each timing is taken per
    # configuration on the quiet side of the untraced passes: its lower
    # decile, which holds while a tenth of the passes run undisturbed.
    # The "quiet matrix" costs the sum of its eight rows' deciles.
    # Set-up, which the contract asks for as a median, is the sum of
    # the per-configuration medians.
    plain = [p for p in doc["passes"] if not p["traced"]]
    rows = {}
    for p in plain:
        for c in p["configs"]:
            if "error" not in c:
                rows.setdefault(c["label"], []).append(c)

    def quiet(xs):
        return percentile(sorted(xs), 0.1)

    def per_row(key, stat):
        return [stat([key(c) for c in cs]) for cs in rows.values()]

    def op_us(c):
        return (c["setup_ns"] + c["run_ns"]) / 1e3

    op_quiet_us = per_row(op_us, quiet)
    matrix_s = sum(op_quiet_us) / 1e6
    lat = sorted(op_us(c) for cs in rows.values() for c in cs)
    e2e = {
        "setup_s": sum(per_row(lambda c: c["setup_ns"], median)) / 1e9,
        "sim_minstr_per_s": sum(per_row(lambda c: c["instr"], median)) /
                            1e6 / matrix_s,
        "ops_per_s": len(rows) / matrix_s,
        "lat_p50_us": median(op_quiet_us),
        # The slowest configuration: a tail that host noise in one pass
        # cannot set.
        "lat_p99_us": max(op_quiet_us),
        "server_cpu_us_per_op": sum(per_row(lambda c: c["cpu_ns"], quiet)) /
                                1e3 / max(1, len(rows)),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    notes = {"ops_per_s": "8 configurations / sum of their lower-decile "
                          "times over %d passes" % len(plain),
             "lat_p50_us": "median over configurations of the lower-decile "
                           "time",
             "lat_p99_us": "lower-decile time of the slowest configuration; "
                           "all samples: " + latency_note(lat),
             "setup_s": "sum over the 8 configurations of the median "
                        "System build time of %d passes" % len(plain)}
    layers = sim_layers(doc) if trace else {}
    layers["host.steal_pct"] = steal
    print("workload sim-schemes  seed %d  trace seeds from %d  passes %d"
          % (seed, trace_seed, len(doc["passes"])))
    return attempted, failed, failed == 0, e2e, notes, layers


def run_sim_binary(bdir, trace_seed, seconds, trace):
    cmd = [os.path.join(bdir, "perfbench_sim"), "--seconds", str(seconds),
           "--trace-seed", str(trace_seed),
           "--trace-seeds", str(TRACE_SEEDS), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=seconds + 120)
    if out.returncode != 0:
        die("perfbench_sim exited with %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def sim_layers(doc):
    """Per-layer numbers from the traced passes (and pass walls)."""
    traced = [c for p in doc["passes"] if p["traced"]
              for c in p["configs"] if "error" not in c]
    layers = {}
    walls = {0: [], 1: []}
    for p in doc["passes"]:
        walls[p["traced"]].append(p["wall_ns"])
    layers["trace.overhead_pct"] = 100.0 * (
        median(walls[1]) / median(walls[0]) - 1.0)
    layers["trace.ns_per_instr"] = (sum(c["trace_ns"] for c in traced) /
                                    sum(c["pulled"] for c in traced))

    def scheme_of(c):
        return c["label"].split("/")[1]

    def window_ns(c):
        return c["window_ns"] - c["trace_window_ns"]

    agg = {}
    for s in SCHEMES:
        cs = [c for c in traced if scheme_of(c) == s]
        agg[s] = (sum(window_ns(c) for c in cs),
                  sum(c["measured_instr"] for c in cs),
                  sum(c["measured_cycles"] for c in cs))
        layers["sim.%s.ns_per_instr" % s] = agg[s][0] / agg[s][1]
        layers["sim.%s.ns_per_cycle" % s] = agg[s][0] / agg[s][2]
    for s in SCHEMES[1:]:
        jobs = sum(c["counts"]["hash.jobs"] for c in traced
                   if scheme_of(c) == s)
        extra_ns = agg[s][0] - agg["base"][0]
        layers["tree.%s.ns_per_instr" % s] = extra_ns / agg[s][1]
        layers["tree.%s.ns_per_hash_job" % s] = extra_ns / jobs
    # Simulated counts repeat exactly for a trace seed (the digests say
    # so): report the first pass's sum over both benchmarks, whose
    # trace seed is 1 + seed mod 16.
    first = [c for c in doc["passes"][0]["configs"] if "error" not in c]
    for s in SCHEMES:
        for name in COUNTERS:
            layers["sim.%s.%s" % (s, name)] = float(sum(
                c["counts"][name] for c in first if scheme_of(c) == s))
    return layers


# --------------------------------------------------------------- served


def die_with_parent():
    """Child pre-exec hook: SIGKILL the child if this script dies."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Daemon:
    """One cmt_served on a private socket; always stopped by stop()."""

    def __init__(self, bdir, rundir, index, spec):
        self.sock = "d%d.sock" % index
        self.path = os.path.join(os.path.relpath(rundir), self.sock)
        self.log = open(os.path.join(rundir, "d%d.log" % index), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(bdir, "cmt_served"), "--socket", self.sock,
             "--protected-size", str(spec["protected"]),
             "--cache-chunks", str(spec["cache"]),
             "--shards", str(SHARDS)],
            cwd=rundir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
            preexec_fn=die_with_parent)

    def request(self, op, timeout=10.0):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(self.path)
            s.sendall(struct.pack("<IB", 1, op))
            reply = b""
            while len(reply) < 5:
                chunk = s.recv(64)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                reply += chunk
            return reply[4]

    def wait_ready(self):
        """Seconds from spawn to the first successful kPing."""
        deadline = self.started + 30
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("cmt_served exited with %d during "
                                   "start-up" % self.proc.returncode)
            try:
                if self.request(1) == 0:
                    return time.perf_counter() - self.started
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0002)
        raise RuntimeError("cmt_served did not answer a ping in 30 s")

    def stop(self):
        try:
            if self.proc.poll() is None:
                try:
                    self.request(8, timeout=5)  # kShutdown
                except OSError:
                    pass
                self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.log.close()


def run_served(bdir, workload, seed, seconds, trace, inject):
    spec = SERVED[workload]
    rundir = os.path.join(bdir, "run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    daemons = []
    try:
        setups = []
        for i in range(SETUP_REPS):
            d = Daemon(bdir, rundir, i, spec)
            daemons.append(d)
            setups.append(d.wait_ready())
            if i + 1 < SETUP_REPS:
                d.stop()
        d = daemons[-1]
        # The daemon's two busy workers plus the clients fit in nproc:
        # more runnable threads than CPUs would time the scheduler.
        clients = max(1, min(2, (os.cpu_count() or 1) // 2))
        cmd = [os.path.join(bdir, "perfbench_load"), "--socket", d.sock,
               "--pid", str(d.proc.pid), "--workload", spec["kind"],
               "--seed", str(seed), "--seconds", str(seconds),
               "--clients", str(clients),
               "--protected-size", str(spec["protected"]),
               "--cache-chunks", str(spec["cache"]),
               "--shards", str(SHARDS), "--trace", str(trace)]
        if inject:
            cmd += ["--inject", inject]
        ticks = cpu_ticks()
        out = subprocess.run(cmd, cwd=rundir, stdout=subprocess.PIPE,
                             text=True, timeout=seconds + 120)
        steal = steal_pct(ticks, cpu_ticks())
        if out.returncode != 0:
            die("perfbench_load exited with %d" % out.returncode)
        r = json.loads(out.stdout.strip().splitlines()[-1])
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(rundir, ignore_errors=True)

    ops = r["ops"]
    cpu_us = r["server_user_us"] + r["server_sys_us"]
    e2e = {
        "setup_s": median(setups),
        "ops_per_s": r["ops_per_s"],
        "lat_p50_us": r["lat_p50_us"],
        "lat_p99_us": r["lat_p99_us"],
        "server_cpu_us_per_op": cpu_us / ops,
        "peak_rss_mb": r["daemon_hwm_kb"] / 1024.0,
    }
    notes = {
        "ops_per_s": "upper decile over %d one-second slices" % seconds,
        "lat_p50_us": "lower decile over one-second slices",
        "lat_p99_us": "lower decile over one-second slices; whole "
                      "window: "
                      "n=%d, p99 = %.2f us, highest percentile with >=10 "
                      "samples beyond it: p%.2f = %.2f us" % (
                          r["lat_samples"], r["lat_window_p99_us"],
                          r["lat_max_supported_pct"],
                          r["lat_at_max_supported_us"]),
        "setup_s": "median of %d daemon start-ups" % len(setups),
    }
    correct = r["failed"] == 0 and r["verify_clean"] == 1
    print("workload %s  seed %d  clients %d  daemon pid %d" % (
        workload, seed, clients, d.proc.pid))
    if r["failed"]:
        print("  FAILED %d ops; first: %s" % (r["failed"],
                                              r["first_error"]))
    if r["verify_clean"] != 1:
        print("  FAILED post-run kVerify: the tree is not clean")
    layers = {"host.steal_pct": steal}
    if trace:
        L = r["layers"]
        if L["replay_mismatches"]:
            correct = False
            print("  FAILED in-process replay: %d reads disagree" %
                  L["replay_mismatches"])
        layers.update({k: v for k, v in L.items()
                       if k.split(".")[0] in ("store", "verify", "mem")
                       and k != "store.op_us_p50"})
        layers.update({
            "trace.overhead_pct": 100.0 * (
                r["untraced_ops_per_s"] / r["traced_ops_per_s"] - 1.0),
            "serve.outside_store_us_p50":
                r["lat_p50_us"] - L["store.op_us_p50"],
            "serve.server_user_us_per_op": r["server_user_us"] / ops,
            "serve.server_sys_us_per_op": r["server_sys_us"] / ops,
            "serve.requests_per_op": r["requests"] / ops,
            "serve.bytes_in_per_op": r["bytes_in"] / ops,
            "serve.bytes_out_per_op": r["bytes_out"] / ops,
        })
    return ops, r["failed"], correct, e2e, notes, layers


# --------------------------------------------------------------- common


def percentile(sorted_xs, p):
    """Nearest-rank percentile, matching the C++ harness."""
    if not sorted_xs:
        return 0.0
    idx = int(p * (len(sorted_xs) - 1) + 0.5)
    return sorted_xs[min(idx, len(sorted_xs) - 1)]


def latency_note(lat):
    n = len(lat)
    if n < 11:
        return "n=%d, too few samples for a supported tail" % n
    p = (n - 10) / n
    return ("n=%d, highest percentile with >=10 samples beyond it: "
            "p%.2f = %.1f us" % (n, 100 * p, percentile(lat, p)))


def load_metric_defs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def write_reference(bdir):
    ref = {}
    for ts in range(1, TRACE_SEEDS + 1):
        doc = run_sim_binary(bdir, ts, 0, 0)
        ref[str(ts)] = {c["label"]: c["digest"]
                        for c in doc["passes"][0]["configs"]}
        print("trace seed %d: %s" % (ts, ref[str(ts)]), file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=INJECTIONS)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    # SIGTERM unwinds through the finally blocks that stop daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bdir = build()
    if args.write_reference:
        write_reference(bdir)
        return 0
    end_to_end, per_layer = load_metric_defs()
    seed = args.seed % (1 << 63)
    if args.workload == "sim-schemes":
        if args.inject not in (None, "wrong-digest"):
            ap.error("sim-schemes takes only --inject wrong-digest")
        res = run_sim(bdir, seed, args.seconds, args.trace, args.inject)
    else:
        if args.inject == "wrong-digest":
            ap.error("--inject wrong-digest applies to sim-schemes")
        res = run_served(bdir, args.workload, seed, args.seconds,
                         args.trace, args.inject)
    attempted, failed, correct, e2e, notes, layers = res
    e2e["error_rate"] = failed / attempted if attempted else 1.0

    printed = [(m["name"], m["unit"]) for m in end_to_end]
    for name, unit in printed + list(PRINTED_ONLY.items()):
        value = e2e.get(name)
        shown = "n/a (sim-schemes only)" if value is None else \
            "%.6g %s" % (value, unit)
        extra = "  (%d/%d)" % (failed, attempted) \
            if name == "error_rate" else ""
        note = "  [%s]" % notes[name] if name in notes else ""
        print("  %-22s %s%s%s" % (name, shown, extra, note))

    print("  %-22s %.3g %%  [host CPU time taken by the hypervisor "
          "during the run]" % ("host.steal_pct", layers["host.steal_pct"]))

    metrics = {}
    if args.trace:
        unknown = set(layers) - {m["name"] for m in per_layer}
        if unknown:
            die("per-layer metrics missing from BENCHMARK.json: %s" %
                ", ".join(sorted(unknown)))
        for m in per_layer:
            v = layers.get(m["name"], 0.0)
            print("  %-40s %.6g %s" % (m["name"], v, m["unit"]))
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        for m in end_to_end:
            metrics[m["name"]] = {"value": e2e[m["name"]],
                                  "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
