#!/usr/bin/env python3
"""The repository benchmark: three workloads against the shipped code.

    python3 perfbench/run.py --workload serve-steady|serve-batch|search \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the daemon and the benchmark's
load and probe binary `pb` from source into .bench_build/ (first run
only), runs the workload, checks every output, and prints one JSON object
as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PB = os.path.join(BUILD, "pb")
DAEMON = os.path.join(BUILD, "snnskip", "src", "snnskip-serve")
MANIFEST_A = os.path.join(HERE, "manifests", "a.manifest")
MANIFEST_B = os.path.join(HERE, "manifests", "b.manifest")

SERVE_WORKERS = 2    # SNNSKIP_SERVE_WORKERS of the daemon and in-process servers
# SNNSKIP_THREADS (global pool size) of every process in every pass, so a
# per-layer figure means the same whichever workload prints it. With 1,
# each serve worker and the search run their kernels inline, one compute
# thread each. On the reference host (NOTES.md) a pool of 2 made the search
# slower (1.21-1.28 s per evaluation against 1.02-1.06 s, same seed,
# alternating runs): its kernels are too small to split.
POOL = 1
COLD_STARTS = 7      # daemon cold starts per serve run; setup_s is the median
PROBE_SECONDS = 6.0  # each in-process serve replay of a traced run
RUN_LIMIT_S = 175    # a run after the build ends within this, or fails
deadline = None      # set once the build is done

# Per serve workload: generator connections and the manifests served.
SERVE = {
    "serve-steady": {"conns": 2, "manifests": [MANIFEST_A]},
    "serve-batch": {"conns": 4, "manifests": [MANIFEST_A, MANIFEST_B]},
}
WORKLOADS = list(SERVE) + ["search"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def bench_env():
    """The caller's environment minus every SNNSKIP_* knob, so runs use
    the program's defaults (telemetry off), plus the pinned pool size."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNNSKIP_")}
    env["SNNSKIP_THREADS"] = str(POOL)
    return env


def serve_env():
    env = bench_env()
    env["SNNSKIP_SERVE_WORKERS"] = str(SERVE_WORKERS)
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pb", "snnskip-serve",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see .bench_build/build.log)")


def run_pb(args, env):
    """Run `pb`; return its last-line JSON."""
    proc = subprocess.run([PB] + [str(a) for a in args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("pb %s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """One snnskip-serve process on a fresh port. Readiness is a
    successful TCP connect: the daemon's stdout is block-buffered when
    piped, so its "serving on" line only arrives at exit (NOTES.md)."""

    def __init__(self, manifests, env, telemetry, tag):
        self.port = free_port()
        cmd = [DAEMON, "--manifests", ",".join(manifests), "--port",
               str(self.port), "--duration-s", "0"]
        if telemetry:
            cmd += ["--telemetry", "1"]
        self.log = open(os.path.join(BUILD, "daemon-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        while True:
            if self.proc.poll() is not None:
                self.stop()
                fail("daemon exited during start-up (see %s)" % self.log.name)
            try:
                with socket.create_connection(("127.0.0.1", self.port), 0.1):
                    break
            except OSError:
                if time.perf_counter() - t0 > 60:
                    self.stop()
                    fail("daemon not ready after 60 s")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def serve_pass(workload, seed, seconds, env, telemetry, cold_starts):
    """Cold-start the daemon `cold_starts` times (keeping the last), drive
    it with `pb serve-gen`, stop it. Returns (generator record, setups)."""
    manifests = SERVE[workload]["manifests"]
    setups = []
    daemon = None
    for i in range(cold_starts):
        if daemon is not None and daemon.stop() != 0:
            fail("daemon exited with %d" % daemon.proc.returncode)
        daemon = Daemon(manifests, env, telemetry, "%s-%d" % (workload, i))
        setups.append(daemon.setup_s)
    try:
        rec = run_pb(["serve-gen", "--workload", workload, "--port",
                      daemon.port, "--pid", daemon.proc.pid, "--manifests",
                      ",".join(manifests), "--seconds", seconds, "--seed",
                      seed], env)
    finally:
        code = daemon.stop()
    rec["daemon_exit"] = code
    rec["gen.behind"] = rec["gen.gap_ms"] > 0 and rec["gen.lag_ms.max"] > rec["gen.gap_ms"]
    if rec["gen.behind"]:
        print("perfbench: WARNING: generator fell behind its schedule by "
              "%.2f ms (> one %.2f ms gap); this run's latencies include "
              "that lag" % (rec["gen.lag_ms.max"], rec["gen.gap_ms"]),
              file=sys.stderr)
    return rec, setups


def serve_ok(rec):
    return rec["wrong"] == 0 and rec["errors"] == 0 and rec["daemon_exit"] == 0


def pct(traced, untraced):
    return 100.0 * (traced - untraced) / untraced


def probe(workload, seed):
    """Serve/registry/infer probes; returns (record, outputs all correct)."""
    p = run_pb(["serve-probe", "--workload", workload, "--manifests",
                MANIFEST_A + "," + MANIFEST_B, "--seconds", PROBE_SECONDS,
                "--seed", seed], serve_env())
    return p, p["probe.socket.not_ok"] == 0 and p["probe.inproc.not_ok"] == 0


def search_ok(rec):
    return rec["failed"] == 0 and rec.get("reproduced", True)


def mini_search(seed):
    """Train/core/opt/data probes around one short search; returns
    (record, outputs all correct)."""
    rec = run_pb(["search", "--seed", seed, "--setups", 1, "--searches", 1,
                  "--rounds", 1, "--trace", 1], bench_env())
    return rec, search_ok(rec)


def run_serve(workload, seed, seconds, trace):
    env = serve_env()
    rec, setups = serve_pass(workload, seed, seconds, env, False,
                             1 if trace else COLD_STARTS)
    correct = serve_ok(rec)
    attempted, failed = rec["attempted"], rec["attempted"] - rec["ok"]
    if not trace:
        metrics = {k: rec[k] for k in ("p50_ms", "p90_ms", "throughput_per_s",
                                       "cpu_ms_per_op", "rss_mb")}
        metrics["ok_rate"] = rec["ok"] / max(1, attempted)
        metrics["setup_s"] = statistics.median(setups)
        return correct, attempted, failed, metrics, rec

    traced, _ = serve_pass(workload, seed, seconds, env, True, 1)
    correct = correct and serve_ok(traced)
    attempted += traced["attempted"]
    failed += traced["attempted"] - traced["ok"]
    metrics, probe_ok = probe(workload, seed)
    search_rec, mini_ok = mini_search(seed)
    metrics.update(search_rec)
    correct = correct and probe_ok and mini_ok
    for k in ("serve.transport.encode_us", "serve.transport.decode_us",
              "serve.transport.bytes_per_op", "gen.lag_ms.p99",
              "gen.lag_ms.max"):
        metrics[k] = traced[k]
    metrics["trace.overhead_pct"] = pct(traced["p50_ms"], rec["p50_ms"])
    return correct, attempted, failed, metrics, rec


def run_search(seed, seconds, trace):
    rec = run_pb(["search", "--seed", seed, "--seconds", seconds, "--trace",
                  int(trace)], bench_env())
    correct = search_ok(rec)
    if not trace:
        metrics = {k: rec[k] for k in ("p50_ms", "p90_ms", "throughput_per_s",
                                       "cpu_ms_per_op", "rss_mb", "setup_s")}
        metrics["ok_rate"] = (rec["attempted"] - rec["failed"]) / rec["attempted"]
        return correct, rec["attempted"], rec["failed"], metrics, rec

    metrics = dict(rec)
    metrics["trace.overhead_pct"] = pct(rec["trace.p50_ms"], rec["p50_ms"])
    # Serve-layer probes replay serve-steady's schedule in process; the
    # generator-side wire metrics come from that replay.
    p, probe_ok = probe("serve-steady", seed)
    correct = correct and probe_ok
    metrics.update({k: v for k, v in p.items() if k not in metrics})
    for k in ("encode_us", "decode_us", "bytes_per_op"):
        metrics["serve.transport." + k] = p["probe.socket." + k]
    metrics["gen.lag_ms.p99"] = p["probe.socket.gen.lag_ms.p99"]
    metrics["gen.lag_ms.max"] = p["probe.socket.gen.lag_ms.max"]
    return correct, rec["attempted"], rec["failed"], metrics, rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found next to perfbench/", 2)
    with open(spec_path) as f:
        spec = json.load(f)

    nproc = len(os.sched_getaffinity(0))
    conns = SERVE[a.workload]["conns"] if a.workload in SERVE else 0
    # Compute threads that can run at once: the generator and each daemon
    # worker with the pool threads its steps may use, or the search pool.
    threads = 1 + SERVE_WORKERS * POOL if a.workload in SERVE else POOL
    if conns > nproc or threads > nproc:
        fail("refusing to run %s: needs %d connections and %d compute threads, "
             "host has %d CPUs" % (a.workload, conns, threads, nproc), 3)

    build()
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    if a.workload == "search":
        correct, attempted, failed, metrics, rec = run_search(a.seed, a.seconds, a.trace)
    else:
        correct, attempted, failed, metrics, rec = run_serve(a.workload, a.seed,
                                                             a.seconds, a.trace)

    wanted = spec["per_layer" if a.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    stamp = {k: rec[k] for k in rec if k.startswith(("env.", "gen."))}
    stamp.update({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                  "serve_workers": SERVE_WORKERS, "pool_threads": POOL,
                  "commit": commit()})
    print("stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
