#!/usr/bin/env python3
"""Benchmark of the msc.serve.v1 solve service (`msc_cli serve`).

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense_solve --seed 1 --seconds 10 --trace 0

Builds `msc_cli` and `perfbench_tool` from source into $CARGO_TARGET_DIR
(default `.bench_build`), generates the workload's inputs from the seed
(cached per workload, seed and scale), computes the in-process library
reference at threads = 1, starts the real server on a Unix socket and drives
it closed loop for --seconds seconds, checking every reply. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 serves a short
fixed request sequence and replays it in-process under tracing decorators for
the per-layer metrics (see perfbench/README.md).

Extra flags for the benchmark's own tests: --tiny (small inputs) and
--inject-wrong N (corrupt the value of the Nth checked reply before checking
it, which must show up as a failed request).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("dense_solve", "pair_churn", "mc_solve")
# Server start-ups per run: at least SETUPS; more are made between the timed
# cycles, each time the start-ups have taken less than SETUP_SHARE of the
# timed phase so far, so that they sample the whole run and not its first
# seconds. setup_s is their median.
SETUPS = 7
SETUP_SHARE = 0.2
SERVER_EXIT_S = 30.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # Relative to the checkout root, so socket paths stay short.
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", ROOT)


# ---------------------------------------------------------------- build ----

def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(logfile, "w") as logf:
            if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
                cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                if subprocess.run(cmd, cwd=ROOT, stdout=logf, stderr=subprocess.STDOUT).returncode:
                    raise RuntimeError("cmake configure failed, see " + logfile)
            jobs = str(os.cpu_count() or 4)
            if subprocess.run(["cmake", "--build", out, "-j", jobs], cwd=ROOT,
                              stdout=logf, stderr=subprocess.STDOUT).returncode:
                raise RuntimeError("build failed, see " + logfile)
    return os.path.join(out, "msc_cli"), os.path.join(out, "perfbench_tool")


def prepare_inputs(tool, workload, seed, tiny):
    """Generates inputs and the threads = 1 reference once per
    (workload, seed, scale) and build of the tool, whose library code the
    reference comes from; returns the input directory."""
    st = os.stat(tool)
    name = "%s-%d-%s-%x" % (workload, seed, "tiny" if tiny else "full",
                            hash((st.st_mtime_ns, st.st_size)) & 0xffffffff)
    final = os.path.join(build_dir(), "inputs", name)
    if os.path.exists(os.path.join(final, "ref.json")):
        return final
    tmp = final + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    gen = [tool, "gen", "--workload", workload, "--seed", str(seed), "--out", tmp]
    if tiny:
        gen.append("--tiny")
    subprocess.run(gen, check=True)
    subprocess.run([tool, "ref", "--dir", tmp], check=True)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


# --------------------------------------------------------------- server ----

class Server:
    """One `msc_cli serve` process on a Unix socket."""

    def __init__(self, cli, spec, rundir, index):
        self.sock = os.path.join(rundir, "s%d.sock" % index)
        args = [cli, "serve", "--listen", self.sock, "--threads", str(spec["threads"]),
                "--queue", "64"]
        if spec["oracle_rows_mb"]:
            args += ["--oracle-rows-mb", str(spec["oracle_rows_mb"])]
        if spec["cache_mb"]:
            args += ["--cache-mb", str(spec["cache_mb"])]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MSC_") and not k.startswith("MALLOC_")}
        self.stderr = open(os.path.join(rundir, "server%d.log" % index), "w")
        self.proc = subprocess.Popen(args, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.stderr)

    def connect(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with code %d" % self.proc.returncode)
            try:
                return Conn(self.sock)
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not accept connections")
                time.sleep(0.0002)

    def cpu_seconds(self):
        """CPU seconds its live threads have run, to the nanosecond (the
        utime/stime of /proc/<pid>/stat count 10 ms ticks)."""
        tasks = "/proc/%d/task" % self.proc.pid
        total = 0
        for tid in os.listdir(tasks):
            try:
                with open(os.path.join(tasks, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # the thread has ended
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def kill(self):
        """Ends a server whose shutdown is of no interest (its reader polls
        for a stop every 200 ms)."""
        self.proc.kill()
        self.proc.wait()
        self.stderr.close()

    def stop(self):
        if self.proc.poll() is None:
            try:
                conn = Conn(self.sock)
                conn.call(encode({"id": "bye", "cmd": "shutdown"}))
                conn.close()
            except OSError:
                pass
            try:
                self.proc.wait(SERVER_EXIT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.stderr.close()


class Conn:
    """One blocking client connection: a caller waits for each reply."""

    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.r = self.s.makefile("rb")

    def call(self, line):
        """Sends one encoded request line; returns (reply text, latency)."""
        t0 = time.perf_counter()
        self.s.sendall(line)
        raw = self.r.readline()
        latency = time.perf_counter() - t0
        if not raw:
            raise RuntimeError("server closed the connection")
        return raw.decode().rstrip("\n"), latency

    def close(self):
        self.r.close()
        self.s.close()


# ------------------------------------------------------------- workload ----

class Workload:
    """Request sequences, reply checks and bookkeeping for one run."""

    def __init__(self, spec, inputs, ref, inject_wrong):
        self.spec = spec
        self.ref = ref
        # The load lines are encoded once here, so that set-up times only
        # the server and the socket, not the client's JSON encoding.
        self.graph_line = encode({
            "id": "graph", "cmd": "load_graph", "as": "g", "distance_mode": spec["mode"],
            "text": read(os.path.join(inputs, "graph.txt"))})
        self.pairs_lines = [encode({
            "id": "pairs%d" % i, "cmd": "load_pairs", "as": "p",
            "text": read(os.path.join(inputs, "pairs_%d.txt" % i))})
            for i in range(spec["pair_sets"])]
        self.inject_wrong = inject_wrong
        self.checked = 0
        self.records = []   # (cmd, latency_s, ok, reply dict or None)
        self.raw = []       # served log for the traced replay
        self.failures = []
        self.next_id = 0
        self.keep_raw = False
        self.warming = False

    def ref_solve(self, pair_set, algo):
        for s in self.ref["solves"]:
            if s["pairs"] == pair_set and s["algo"] == algo:
                return s
        raise KeyError((pair_set, algo))

    def request(self, conn, obj, check, extra=None):
        """Sends obj (a dict, or a (cmd, encoded line) pair), checks the
        reply, records it; returns (reply dict, latency)."""
        if isinstance(obj, dict):
            self.next_id += 1
            obj["id"] = self.next_id
            cmd, line = obj["cmd"], encode(obj)
        else:
            cmd, line = obj
        raw, latency = conn.call(line)
        reply = None
        problem = None
        try:
            reply = json.loads(raw)
        except ValueError:
            problem = "unparseable reply"
        if reply is not None:
            if reply.get("status") != "ok":
                problem = "status %s: %s" % (reply.get("status"), reply.get("error", ""))
            else:
                # Injection counts replies of the timed phase only.
                self.checked += not self.warming
                if not self.warming and self.checked == self.inject_wrong:
                    for key in ("value", "sigma", "count"):
                        if key in reply:
                            reply[key] = reply[key] + 1
                problem = check(reply)
        self.records.append((cmd, latency, problem is None, reply))
        if problem:
            self.failures.append("%s #%d: %s" % (cmd, len(self.records), problem))
        if self.keep_raw:
            rec = {"cmd": cmd, "line": line.decode().rstrip("\n"), "reply": raw,
                   "latency_s": latency, "warmup": self.warming}
            rec.update(extra or {})
            self.raw.append(rec)
        return reply, latency

    # -- request builders ------------------------------------------------

    def load_graph(self, conn):
        n = self.spec["nodes"]
        return self.request(conn, ("load_graph", self.graph_line),
                            lambda r: None if r["nodes"] == n else "wrong node count")

    def load_pairs(self, conn, pair_set):
        m = self.spec["pairs_per_set"]
        return self.request(conn, ("load_pairs", self.pairs_lines[pair_set]),
                            lambda r: None if r["count"] == m else
                            "count %s != %d" % (r["count"], m), {"set": pair_set})

    def eval(self, conn, placement, expected, solve_value=None):
        """solve_value: the value a sigma solve returned for this placement,
        which its eval must reproduce."""
        obj = {"cmd": "eval", "graph": "g", "pairs": "p", "p_t": self.spec["p_t"],
               "placement": placement}

        def check(r):
            if r["sigma"] != expected:
                return "sigma %s != reference %s" % (r["sigma"], expected)
            if solve_value is not None and r["sigma"] != solve_value:
                return "sigma %s != the solve's value %s" % (r["sigma"], solve_value)
            return None
        return self.request(conn, obj, check)

    def solve(self, conn, pair_set, algo):
        ref = self.ref_solve(pair_set, algo)
        obj = {"cmd": "solve", "graph": "g", "pairs": "p", "p_t": self.spec["p_t"],
               "algo": algo, "k": self.spec["k"], "threads": self.spec["threads"], "seed": 1}
        if self.spec["objective"] != "sigma":
            obj["objective"] = self.spec["objective"]
            obj["worlds"] = self.spec["worlds"]

        def check(r):
            if r["placement"] != ref["placement"] or r["value"] != ref["value"]:
                return "placement %s value %s != reference %s value %s" % (
                    r["placement"], r["value"], ref["placement"], ref["value"])
            return None
        return self.request(conn, obj, check)

    # -- phases ----------------------------------------------------------

    def setup(self, conn):
        """Load and prime: load_graph, load_pairs, eval of the empty
        placement (builds the APSP matrix or the pair rows)."""
        self.load_graph(conn)
        self.load_pairs(conn, 0)
        self.eval(conn, "", self.ref["empty_sigma"])

    def cycle(self, conn, index):
        """One closed-loop unit of work; returns its latency."""
        spec = self.spec
        total = 0.0
        pair_set = 0
        if spec["pair_sets"] > 1:
            pair_set = (index + 1) % spec["pair_sets"]
            total += self.load_pairs(conn, pair_set)[1]
        for algo in spec["algos"]:
            reply, latency = self.solve(conn, pair_set, algo)
            total += latency
            # An eval of the returned placement: its sigma must equal the
            # reference sigma (and, for a sigma solve, the solve's value).
            ref = self.ref_solve(pair_set, algo)
            ok = reply and reply.get("status") == "ok"
            placement = reply["placement"] if ok else ref["placement"]
            value = reply["value"] if ok and spec["objective"] == "sigma" else None
            total += self.eval(conn, placement, ref["sigma"], value)[1]
        return total


def read(path):
    with open(path) as f:
        return f.read()


def encode(obj):
    """One request line, as sent."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def quantile_tail(values):
    """Latency at the highest percentile that still has >= 10 samples beyond
    it, with that percentile; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    v = sorted(values)
    idx = n - 11
    return v[idx], 100.0 * (idx + 1) / n


def warm_up(wl, server):
    """One untimed cycle after set-up: the first solve in a fresh process
    runs several times slower."""
    conn = server.connect()
    wl.warming = True
    wl.cycle(conn, 0)
    wl.warming = False
    conn.close()


def run_closed_loop(wl, server, seconds, sets, setup):
    """Drives the timed phase, one client, until --seconds have passed and
    every pair set has had a cycle. Calls setup() between cycles (see
    SETUP_SHARE); its time is left out of the timed phase. Returns one
    (latency, requests, server CPU seconds) per cycle."""
    conn = server.connect()
    cycles = []
    seen = set()
    t0 = time.perf_counter()
    outside = 0.0
    i = 1
    while time.perf_counter() - outside < t0 + seconds or len(seen) < sets:
        first = len(wl.records)
        cpu0 = server.cpu_seconds()
        latency = wl.cycle(conn, i)
        cycles.append((latency, len(wl.records) - first, server.cpu_seconds() - cpu0))
        seen.add((i + 1) % sets)
        i += 1
        t1 = time.perf_counter()
        while outside < SETUP_SHARE * (t1 - t0 - outside):
            setup()
            t2 = time.perf_counter()
            outside += t2 - t1
            t1 = t2
    conn.close()
    return cycles


def start_and_setup(cli, wl, rundir, index):
    t0 = time.perf_counter()
    server = Server(cli, wl.spec, rundir, index)
    try:
        conn = server.connect()
        wl.warming = True  # set-up is timed as a whole, never per request
        wl.setup(conn)
        wl.warming = False
        conn.close()
    except Exception:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def end_to_end(cli, wl, rundir, seconds):
    setups = []
    server = None

    def one_setup():
        """A timed start-up of another server, which is then killed; its
        requests are not part of the timed phase."""
        first = len(wl.records)
        extra, s = start_and_setup(cli, wl, rundir, len(setups))
        extra.kill()
        del wl.records[first:]
        setups.append(s)

    try:
        server, s = start_and_setup(cli, wl, rundir, 0)
        setups.append(s)
        warm_up(wl, server)
        wl.records.clear()  # only the timed phase counts as attempted
        cycles = run_closed_loop(wl, server, seconds, wl.spec["pair_sets"], one_setup)
        rss = server.peak_rss_mb()
        while len(setups) < SETUPS:
            one_setup()
    finally:
        if server:
            server.stop()
    attempted = len(wl.records)
    ok = sum(1 for r in wl.records if r[2])
    by_cmd = {}
    for cmd, lat, good, reply in wl.records:
        key = cmd
        if cmd == "solve" and reply:
            key = "solve_" + reply.get("algo", "?")
        by_cmd.setdefault(key, []).append(lat)
    # Medians over the cycles: other tenants of a shared host slow the CPU
    # for seconds at a time, which a total over the run would take in whole.
    metrics = {
        "setup_s": statistics.median(setups),
        "cycle_p50_s": statistics.median(lat for lat, _, _ in cycles),
        "cpu_s_per_req": statistics.median(cpu / n for _, n, cpu in cycles),
        "peak_rss_mb": rss,
    }
    # With one closed-loop client the request rate is the requests of a
    # cycle over its latency, the same measurement as cycle_p50_s.
    detail = {"samples": {"setup": len(setups), "cycle": len(cycles)},
              "failed_frac": (attempted - ok) / max(attempted, 1),
              "throughput_rps": statistics.median(n / lat for lat, n, _ in cycles),
              "per_request": {}}
    tail = quantile_tail([lat for lat, _, _ in cycles])
    if tail:
        detail["cycle_tail_s"] = {"value": tail[0], "percentile": tail[1]}
    for key, lats in sorted(by_cmd.items()):
        d = {"p50_s": statistics.median(lats), "n": len(lats)}
        t = quantile_tail(lats)
        if t:
            d["tail_s"] = t[0]
            d["tail_percentile"] = t[1]
        detail["per_request"][key] = d
    return metrics, detail, attempted, attempted - ok


# At least twice pair_churn's pair sets, so every set is reloaded after its
# rows were evicted.
TRACE_CYCLES = 8


def serve_trace_sequence(cli, wl, rundir, index):
    """Set-up, warm-up, then TRACE_CYCLES cycles (pair_churn reloads every
    set after its rows were evicted); returns (latency, reply wall_seconds)
    of each request of the cycles."""
    server, _ = start_and_setup(cli, wl, rundir, index)
    try:
        warm_up(wl, server)
        first = len(wl.records)
        conn = server.connect()
        for i in range(TRACE_CYCLES):
            wl.cycle(conn, i + 1)
        conn.close()
    finally:
        server.stop()
    return [(lat, reply.get("wall_seconds", 0.0) if reply else 0.0)
            for _, lat, _, reply in wl.records[first:]]


def traced(cli, tool, wl, inputs, rundir):
    """Serves a short fixed sequence, replays it in-process, and serves it
    once more."""
    wl.keep_raw = True
    before = serve_trace_sequence(cli, wl, rundir, 0)
    wl.keep_raw = False
    served_path = os.path.join(rundir, "served.json")
    with open(served_path, "w") as f:
        json.dump({"requests": wl.raw}, f)
    out = subprocess.run([tool, "trace", "--dir", inputs, "--served", served_path],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    for note in result["mismatches"]:
        wl.failures.append("replay: " + note)
    log("copy kernel: array %d bytes per array, LLC %d bytes" % (
        result["copy"]["array_bytes"], result["copy"]["llc_bytes"]))
    metrics = result["metrics"]
    # Coverage compares replayed layer time with served latency. The served
    # latencies are taken before and after the replay and averaged, so a
    # drift of the machine's speed during the run cancels to first order.
    after = serve_trace_sequence(cli, wl, rundir, 1)
    if len(after) == len(before):
        latency = sum(a[0] + b[0] for a, b in zip(before, after)) / 2
        outside = sum(a[0] - a[1] + b[0] - b[1] for a, b in zip(before, after)) / 2
        metrics["trace.coverage"] = (result["covered_s"] + outside) / latency
    attempted = len(wl.records)
    failed = sum(1 for r in wl.records if not r[2]) + len(result["mismatches"])
    detail = {"replayed": result["replayed"], "clock_cost_ns": result["clock_cost_ns"]}
    return metrics, detail, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong", type=int, default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cli, tool = build()
    inputs = prepare_inputs(tool, args.workload, args.seed, args.tiny)
    with open(os.path.join(inputs, "meta.json")) as f:
        spec = json.load(f)
    with open(os.path.join(inputs, "ref.json")) as f:
        ref = json.load(f)
    rundir = os.path.join(build_dir(), "run", str(os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    wl = Workload(spec, inputs, ref, args.inject_wrong)
    if args.trace:
        metrics, detail, attempted, failed = traced(cli, tool, wl, inputs, rundir)
        wanted = bench["per_layer"]
    else:
        metrics, detail, attempted, failed = end_to_end(cli, wl, rundir, args.seconds)
        wanted = bench["end_to_end"]
    shutil.rmtree(rundir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % missing)
    for f in wl.failures[:10]:
        log("FAILED " + f)
    for m in wanted:
        print("%-36s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and not wl.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except Exception as e:  # no result line: the run failed
        log("perfbench: %s" % e)
        sys.exit(1)
