#!/usr/bin/env python3
"""PMAF benchmark of record.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the `pmaf` CLI, the
`pmafd` daemon and perfbench_helper from source (perfbench/CMakeLists.txt)
into .bench_build/ (or $CARGO_TARGET_DIR). Workloads, metrics and the
layer map are described in perfbench/README.md.

With --trace 0 the run drives the real surfaces (pmaf processes, a pmafd
daemon over TCP) in a closed loop for --seconds and reports the
end-to-end metrics. With --trace 1 it runs the workload's traced driver
instead and reports the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("cli-cold", "served-edits", "served-leia", "corpus-verify")

# A second seed, kept out of tuning, for confirming a claimed gain.
CONFIRM_SEED = 20181

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
)

PER_LAYER = (
    ("tools.startup_s", "s"),
    ("lang.parse_s", "s"),
    ("analysis.lint_s", "s"),
    ("cfg.build_s", "s"),
    ("cfg.nodes", "count"),
    ("domains.render_s", "s"),
    ("core.solve_s", "s"),
    ("core.node_updates", "count"),
    ("core.widenings", "count"),
    ("core.interpret_calls", "count"),
    ("core.interpret_cache_hits", "count"),
    ("poly.chernikova_calls", "count"),
    ("poly.conv_cache_hits", "count"),
    ("poly.conv_cache_misses", "count"),
    ("poly.conv_cache_hit_ratio", "ratio"),
    ("poly.shared_l2_hits", "count"),
    ("poly.peak_generator_rows", "count"),
    ("poly.ladder_escalations", "count"),
    ("checks.check_s", "s"),
    ("concrete.ground_truth_s", "s"),
    ("server.edit_s", "s"),
    ("server.analyze_s", "s"),
    ("server.solve_s", "s"),
    ("server.post_solve_s", "s"),
    ("server.stats_round_trip_s", "s"),
    ("server.transformer_reuse_ratio", "ratio"),
    ("server.node_reuse_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

# Span name -> per-layer metric holding its total time.
SPAN_METRICS = {
    "lang.parse": "lang.parse_s",
    "analysis.lint": "analysis.lint_s",
    "cfg.build": "cfg.build_s",
    "domains.render": "domains.render_s",
    "core.solve": "core.solve_s",
    "checks.check": "checks.check_s",
    "concrete.ground_truth": "concrete.ground_truth_s",
    "server.edit": "server.edit_s",
    "server.analyze": "server.analyze_s",
}

# Set-ups per run; setup_s is their median. A cheap set-up is repeated
# more often: a few ms of file writing varies by half from one try to the
# next on a shared host, and the median of many tries does not.
SETUP_REPEATS = {"cli-cold": 9, "served-edits": 3, "served-leia": 3,
                 "corpus-verify": 5}
EDIT_CLIENTS = 2           # served-edits clients
EDIT_SESSIONS = 16         # served-edits sessions, 8 of each client's own
EDIT_VARIANTS = 5          # seed-drawn edits per session
CORPUS_FILES = 4000        # corpus-verify: files generated per seed
CORPUS_BATCH = 500         # corpus-verify: files per verify-corpus call
CORPUS_JOBS = 2
# Monte-Carlo runs per soundness spot-check (verify-corpus --runs). A
# program whose loop never exits runs every sample to the step limit, so
# its spot-check costs ~1000x a normal file; about 2% of the corpus is
# such. 100 runs keep that cost dominant but let one run cover the
# corpus several times.
CORPUS_RUNS = 100
TRACE_EDIT_OPS = 16        # served-edits traced driver: edit+analyze ops
TRACE_LEIA_PASSES = 2      # served-leia traced driver: warm passes
TRACE_CORPUS_FILES = 1000  # corpus-verify traced driver: files
STARTUP_SAMPLES = 7        # tools.startup_s: median of this many runs
STATS_ROUND_TRIPS = 50     # server.stats_round_trip_s: median of these
DAEMON_TIMEOUT_S = 60.0


class BenchError(Exception):
    """A failure that makes the run's result meaningless (no JSON line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

class Tools:
    def __init__(self, build_dir):
        self.build_dir = build_dir
        self.pmaf = os.path.join(build_dir, "pmaf_tools", "pmaf")
        self.pmafd = os.path.join(build_dir, "pmaf_tools", "pmafd")
        self.helper = os.path.join(build_dir, "perfbench_helper")


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no PMAF sources under %s/src; run from the "
                         "repository root" % root)
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log_file:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      "pmaf_cli", "pmafd", "perfbench_helper"])
        for step in steps:
            rc = subprocess.call(step, stdout=log_file,
                                 stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("build step %s failed (rc %d); see %s"
                                 % (" ".join(step[:2]), rc, log_path))
    return Tools(build_dir)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class ChildResult:
    def __init__(self, rc, wall, cpu, rss_mb, stdout):
        self.rc = rc
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout


def run_child(argv, out_path, err_path):
    """Runs one process to completion; CPU and peak RSS come from wait4."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", errors="replace") as f:
        text = f.read()
    return ChildResult(proc.returncode, wall,
                       usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, text)


def helper_summary(text):
    """The PERFBENCH json line a helper prints last."""
    for line in reversed(text.splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    raise BenchError("helper printed no PERFBENCH line")


def run_helper(tools, args, run_dir, tag):
    res = run_child([tools.helper] + args,
                    os.path.join(run_dir, tag + ".out"),
                    os.path.join(run_dir, tag + ".err"))
    if res.rc != 0:
        with open(os.path.join(run_dir, tag + ".err")) as f:
            raise BenchError("perfbench_helper %s failed (rc %d): %s"
                             % (args[0], res.rc, f.read()[-2000:]))
    return res


# ---------------------------------------------------------------------------
# pmafd
# ---------------------------------------------------------------------------

def send_frame(sock, payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("pmafd closed the connection")
        data += chunk
    return data


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=DAEMON_TIMEOUT_S)

    def request(self, obj):
        send_frame(self.sock, json.dumps(obj).encode("utf-8"))
        (length,) = struct.unpack(">I", recv_exact(self.sock, 4))
        return json.loads(recv_exact(self.sock, length).decode("utf-8"))

    def close(self):
        self.sock.close()


class Daemon:
    """One pmafd subprocess; CPU and peak RSS read from /proc."""

    def __init__(self, tools, run_dir):
        self.err = open(os.path.join(run_dir, "pmafd.err"), "wb")
        self.proc = subprocess.Popen([tools.pmafd, "--port=0"],
                                     stdout=subprocess.PIPE, stderr=self.err)
        self.port = None
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                self.stop()
                raise BenchError("pmafd did not report its port")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise BenchError("pmafd exited before listening")
            line += chunk
        self.port = int(line.decode().rsplit(":", 1)[1])

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5).
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                client = Client(self.port)
                client.request({"cmd": "shutdown"})
                client.close()
            except (OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class Outcome:
    """What one run measured; turned into metrics at the end."""

    def __init__(self):
        self.setup = []          # seconds per set-up repetition
        self.latencies = []      # seconds per successful operation
        self.attempted = 0
        self.failed = 0
        self.failures = []       # first few failure reasons
        self.wall = 0.0          # measured window
        self.cpu = 0.0           # CPU of the measured processes
        # (ops, wall, cpu) per window of the run: a served-leia pass or a
        # corpus-verify batch. When present, throughput and CPU per op are
        # medians over these, so a burst of load from elsewhere on the
        # host, or one slow batch, moves a few windows and not the result.
        self.windows = []
        self.peak_rss_mb = 0.0
        self.checks_total = 0
        self.checks_decided = 0
        self.notes = {}

    def fail(self, reason, count=1):
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(reason)


def e2e_metrics(outcome, ops_done):
    if not outcome.latencies:
        raise BenchError("no operation succeeded: %s" % outcome.failures)
    pct, tail, count = stats.tail_percentile(outcome.latencies)
    outcome.notes["latency_tail"] = "p%d of %d samples" % (pct, count)
    decided = (outcome.checks_decided / outcome.checks_total
               if outcome.checks_total else 1.0)
    if outcome.windows:
        throughput = statistics.median(ops / wall
                                       for ops, wall, _ in outcome.windows)
        cpu_per_op = statistics.median(cpu / ops
                                       for ops, _, cpu in outcome.windows)
    else:
        throughput = ops_done / outcome.wall
        cpu_per_op = outcome.cpu / ops_done
    return {
        "setup_s": statistics.median(outcome.setup),
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_tail_s": tail,
        "throughput_per_s": throughput,
        "cpu_s_per_op": cpu_per_op,
        "peak_rss_mb": outcome.peak_rss_mb,
        "decided_ratio": decided,
    }


# ---------------------------------------------------------------------------
# Workload: cli-cold
# ---------------------------------------------------------------------------

def write_programs(tools, run_dir, tag):
    """Writes the 25 paper programs into .bench_build/cmake/programs/<tag>.
    Like the corpus, the directory outlives the run and is rewritten, so
    runs do not create and delete files: with a directory per run, the
    median set-up of cli-cold grew from 2.5 to 7 ms over 12 runs."""
    prog_dir = os.path.join(tools.build_dir, "programs", tag)
    run_helper(tools, ["programs", prog_dir], run_dir, tag)
    return prog_dir


def cli_cold(tools, run_dir, seed, seconds, expected):
    """Analyses count one by one in attempted, failed, throughput and CPU;
    the latency sample is a pass, the time to answer the whole table.
    A quick program's analysis is a few ms of mostly process start-up, and
    the median of those moved by 27-45% with the load the rest of a
    shared host put on it; a pass's seconds of cold solving do not."""
    out = Outcome()
    progs = answers.program_list(expected)
    for rep in range(SETUP_REPEATS["cli-cold"]):
        start = time.perf_counter()
        prog_dir = write_programs(tools, run_dir, "setup%d" % rep)
        out.setup.append(time.perf_counter() - start)
    # Every pass runs all 25 in table order, so each run measures the same
    # mix; the inputs do not depend on the seed.
    start = time.perf_counter()
    done = 0
    while True:
        pass_start, pass_failed = time.perf_counter(), out.failed
        for domain, name in progs:
            path = os.path.join(prog_dir, "%s-%s.pp" % (domain, name))
            res = run_child([tools.pmaf, path, "--domain=" + domain],
                            os.path.join(run_dir, "cli.out"),
                            os.path.join(run_dir, "cli.err"))
            out.attempted += 1
            out.cpu += res.cpu
            out.peak_rss_mb = max(out.peak_rss_mb, res.rss_mb)
            if res.rc != 0:
                out.fail("%s-%s: exit %d" % (domain, name, res.rc))
                continue
            ok, why = answers.check_report(domain, name, res.stdout,
                                           expected)
            if ok:
                done += 1
            else:
                out.fail(why)
        if out.failed == pass_failed:
            out.latencies.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start >= seconds:
            break
    out.wall = time.perf_counter() - start
    out.notes["passes"] = out.attempted // len(progs)
    return out, done


# ---------------------------------------------------------------------------
# Workload: served-edits
# ---------------------------------------------------------------------------

def make_edits(tools, run_dir, seed):
    path = os.path.join(run_dir, "edits.json")
    run_helper(tools, ["edits", path, "--seed=%d" % seed,
                       "--sessions=%d" % EDIT_SESSIONS,
                       "--variants=%d" % EDIT_VARIANTS], run_dir, "edits")
    with open(path) as f:
        return path, json.load(f)


def check_analyze(reply, want_fingerprint, want_exit=None):
    """Returns a failure reason, or None when the reply is the answer."""
    if not reply.get("ok"):
        return "error reply %s: %s" % (reply.get("code"), reply.get("error"))
    if not reply.get("converged"):
        return "not converged"
    if reply.get("fingerprint") != want_fingerprint:
        return "fingerprint %s, reference %s" % (reply.get("fingerprint"),
                                                 want_fingerprint)
    if want_exit is not None and reply.get("exit") != want_exit:
        return "exit %s, reference %s" % (reply.get("exit"), want_exit)
    return None


def record_analyze(out, label, reply, want_fingerprint, want_exit, latency,
                   problem=None):
    """Accounts one analyze operation: an error reply or a wrong answer
    counts as attempted and failed (and gives no latency sample); a right
    answer gives its latency and its assertion verdicts."""
    out.attempted += 1
    why = problem or check_analyze(reply, want_fingerprint, want_exit)
    if why:
        out.fail("%s: %s" % (label, why))
        return
    out.latencies.append(latency)
    checks = reply.get("checks", {})
    out.checks_total += checks.get("total", 0)
    out.checks_decided += checks.get("safe", 0) + checks.get("violated", 0)


def edits_setup(tools, run_dir, edits):
    daemon = Daemon(tools, run_dir)
    clients = []
    try:
        for _ in range(EDIT_CLIENTS):
            clients.append(Client(daemon.port))
        for s, sess in enumerate(edits["sessions"]):
            client = clients[s % EDIT_CLIENTS]
            name = "s%d" % s
            reply = client.request({"cmd": "load", "session": name,
                                    "source": sess["base"], "domain": "bi"})
            if not reply.get("ok"):
                raise BenchError("load failed: %s" % reply)
            why = check_analyze(client.request({"cmd": "analyze",
                                                "session": name}),
                                sess["base_fingerprint"])
            if why:
                raise BenchError("base analyze of %s: %s" % (name, why))
    except BaseException:
        for client in clients:
            client.close()
        daemon.stop()
        raise
    return daemon, clients


def served_edits(tools, run_dir, seed, seconds, _expected):
    out = Outcome()
    _, edits = make_edits(tools, run_dir, seed)
    out.notes["variants"] = EDIT_VARIANTS * EDIT_SESSIONS
    repeats = SETUP_REPEATS["served-edits"]
    for rep in range(repeats):
        start = time.perf_counter()
        daemon, clients = edits_setup(tools, run_dir, edits)
        out.setup.append(time.perf_counter() - start)
        if rep + 1 < repeats:
            for client in clients:
                client.close()
            daemon.stop()
    lock = threading.Lock()
    errors = []

    def client_loop(index, client, deadline):
        # The client's sessions take turns; each walks its own seed-shuffled
        # cycle of edits.
        own = list(range(index, EDIT_SESSIONS, EDIT_CLIENTS))
        cycles = {}
        for s in own:
            cycles[s] = list(edits["sessions"][s]["variants"])
            random.Random(seed * 31 + s).shuffle(cycles[s])
        i = 0
        try:
            while time.perf_counter() < deadline:
                s = own[i % len(own)]
                name = "s%d" % s
                var = cycles[s][(i // len(own)) % len(cycles[s])]
                i += 1
                t0 = time.perf_counter()
                edit = client.request({"cmd": "edit", "session": name,
                                       "source": var["source"]})
                reply = client.request({"cmd": "analyze", "session": name})
                lat = time.perf_counter() - t0
                problem = None
                if not edit.get("ok"):
                    problem = "edit error %s" % edit.get("code")
                elif not var["ok"] or var["violation"]:
                    problem = "reference rejected: %s" % var["violation"]
                with lock:
                    record_analyze(out, "%s %s" % (name, var["helper"]),
                                   reply, var["fingerprint"], var["exit"],
                                   lat, problem)
        except (OSError, ValueError) as exc:
            errors.append(exc)

    try:
        cpu0 = daemon.cpu_seconds()
        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop,
                                    args=(i, c, start + seconds))
                   for i, c in enumerate(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.wall = time.perf_counter() - start
        out.cpu = daemon.cpu_seconds() - cpu0
        out.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
        daemon.stop()
    if errors:
        raise BenchError("client connection failed: %s" % errors[0])
    return out, len(out.latencies)


# ---------------------------------------------------------------------------
# Workload: served-leia
# ---------------------------------------------------------------------------

def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def leia_reference(tools, run_dir, prog_dir, expected):
    """Per LEIA program: the fingerprint every analyze must reproduce, or
    None when the reference's invariants contradict the expected answers.

    Computing it costs a cold pass, so it is cached per helper binary.
    """
    cache_dir = os.path.join(tools.build_dir, "reference-cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir,
                        "leia-%s.json" % file_digest(tools.helper))
    if not os.path.isfile(path):
        tmp = path + ".tmp%d" % os.getpid()
        run_helper(tools, ["leia-reference", prog_dir, tmp], run_dir,
                   "leia-reference")
        os.replace(tmp, path)
    with open(path) as f:
        ref = json.load(f)
    fingerprints, problems = {}, {}
    for name in expected["leia"]:
        entry = ref.get(name, {})
        ok, why = answers.check_invariants(
            name, entry.get("invariants", {}).get("main", []), expected)
        if not entry.get("ok"):
            ok, why = False, "reference solve failed"
        fingerprints[name] = entry.get("fingerprint") if ok else None
        if not ok:
            problems[name] = why
    return fingerprints, problems


def leia_setup(tools, run_dir, prog_dir, names, fingerprints, problems):
    daemon = Daemon(tools, run_dir)
    try:
        client = Client(daemon.port)
        for name in names:
            with open(os.path.join(prog_dir, "leia-%s.pp" % name)) as f:
                source = f.read()
            reply = client.request({"cmd": "load", "session": name,
                                    "source": source, "domain": "leia"})
            if not reply.get("ok"):
                raise BenchError("load %s failed: %s" % (name, reply))
        # The first pass is cold: it fills the process-wide conversion
        # caches, so it belongs to set-up.
        for name in names:
            reply = client.request({"cmd": "analyze", "session": name})
            why = (problems.get(name)
                   or check_analyze(reply, fingerprints[name], 0))
            if why:
                raise BenchError("first analyze of %s: %s" % (name, why))
    except BaseException:
        daemon.stop()
        raise
    return daemon, client


def served_leia(tools, run_dir, seed, seconds, expected):
    out = Outcome()
    names = list(expected["leia"])
    prog_dir = write_programs(tools, run_dir, "table")
    fingerprints, problems = leia_reference(tools, run_dir, prog_dir,
                                            expected)
    repeats = SETUP_REPEATS["served-leia"]
    for rep in range(repeats):
        start = time.perf_counter()
        daemon, client = leia_setup(tools, run_dir, prog_dir, names,
                                    fingerprints, problems)
        out.setup.append(time.perf_counter() - start)
        if rep + 1 < repeats:
            client.close()
            daemon.stop()
    # Table order every pass: the conversion caches see the same sequence
    # in every run, and each pass is one window of identical work. As in
    # cli-cold, the latency sample is the pass: 9 of the 13 analyses take
    # 2-8 ms, mostly the request's round trip, whose median moved by 30%
    # between runs with the load on the host.
    try:
        cpu0 = daemon.cpu_seconds()
        start = time.perf_counter()
        while True:
            pass_cpu, pass_start = daemon.cpu_seconds(), time.perf_counter()
            pass_failed = out.failed
            for name in names:
                reply = client.request({"cmd": "analyze", "session": name,
                                        "cold": True})
                out.attempted += 1
                why = (problems.get(name)
                       or check_analyze(reply, fingerprints[name], 0))
                if why:
                    out.fail("%s: %s" % (name, why))
            pass_wall = time.perf_counter() - pass_start
            if out.failed == pass_failed:
                out.latencies.append(pass_wall)
            out.windows.append((len(names), pass_wall,
                                daemon.cpu_seconds() - pass_cpu))
            if time.perf_counter() - start >= seconds:
                break
        out.wall = time.perf_counter() - start
        out.cpu = daemon.cpu_seconds() - cpu0
        out.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        client.close()
        daemon.stop()
    out.notes["passes"] = len(out.windows)
    return out, out.attempted - out.failed


# ---------------------------------------------------------------------------
# Workload: corpus-verify
# ---------------------------------------------------------------------------

def gen_corpus(tools, run_dir, seed):
    """Writes the seed's corpus. The directory outlives the run and every
    run rewrites the same file names, so runs do not create and delete
    thousands of files each (that file-system churn slowed the runs
    after)."""
    corpus = os.path.join(tools.build_dir, "corpus")
    res = run_child([tools.pmaf, "gen-corpus", corpus, "--seed=%d" % seed,
                     "--count=%d" % CORPUS_FILES],
                    os.path.join(run_dir, "gen-corpus.out"),
                    os.path.join(run_dir, "gen-corpus.err"))
    if res.rc != 0:
        raise BenchError("gen-corpus failed (rc %d)" % res.rc)
    return corpus


def corpus_batches(corpus):
    # gen-corpus's file names, so files of an earlier, larger corpus in
    # the same directory are never picked up.
    files = [os.path.join(corpus, "prog_%05d.pp" % i)
             for i in range(CORPUS_FILES)]
    return [files[i:i + CORPUS_BATCH]
            for i in range(0, len(files), CORPUS_BATCH)]


def corpus_verify(tools, run_dir, seed, seconds, _expected):
    out = Outcome()
    for _ in range(SETUP_REPEATS["corpus-verify"]):
        start = time.perf_counter()
        corpus = gen_corpus(tools, run_dir, seed)
        out.setup.append(time.perf_counter() - start)
    batches = corpus_batches(corpus)
    report = os.path.join(run_dir, "verify.json")
    files_done = 0
    start = time.perf_counter()
    # Every file is verified at least once (decided_ratio covers the whole
    # corpus); after that the loop runs on, batch by batch, to --seconds.
    i = 0
    while i < len(batches) or time.perf_counter() - start < seconds:
        batch = batches[i % len(batches)]
        first_pass = i < len(batches)
        i += 1
        if os.path.exists(report):
            os.remove(report)
        res = run_child([tools.pmaf, "verify-corpus"] + batch
                        + ["--jobs=%d" % CORPUS_JOBS,
                           "--runs=%d" % CORPUS_RUNS, "--out=" + report],
                        os.path.join(run_dir, "verify.out"),
                        os.path.join(run_dir, "verify.err"))
        out.attempted += len(batch)
        out.cpu += res.cpu
        out.peak_rss_mb = max(out.peak_rss_mb, res.rss_mb)
        try:
            with open(report) as f:
                summary = json.load(f)
        except (OSError, ValueError):
            out.fail("verify-corpus exit %d, no report" % res.rc, len(batch))
            continue
        bad = summary["failed"] + len(summary["soundness_violations"])
        if bad:
            out.fail("verify-corpus: %d failed, violations %s"
                     % (summary["failed"], summary["soundness_violations"]),
                     bad)
        elif res.rc != 0 or summary["files"] != len(batch):
            out.fail("verify-corpus exit %d over %d files"
                     % (res.rc, summary["files"]), len(batch))
            continue
        files_done += len(batch) - bad
        out.latencies.append(res.wall)
        if len(batch) > bad:
            out.windows.append((len(batch) - bad, res.wall, res.cpu))
        if first_pass:
            checks = summary["checks"]
            out.checks_total += checks["total"]
            out.checks_decided += checks["safe"] + checks["violated"]
    out.wall = time.perf_counter() - start
    out.notes["batches"] = i
    out.notes["files_per_batch"] = CORPUS_BATCH
    return out, files_done


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def read_spans(path):
    with open(path) as f:
        return json.load(f)


def layer_times(events):
    """Total and self time (seconds) per span name.

    Self time is a span's duration minus the part of it its direct
    children cover.
    """
    children = {}
    for ev in events:
        children.setdefault(ev["args"]["parent"], []).append(ev)
    table = {}
    for ev in events:
        kids = sorted((c["ts"], c["ts"] + c["dur"])
                      for c in children.get(ev["args"]["id"], []))
        covered, cur_start, cur_end = 0.0, None, None
        for lo, hi in kids:
            lo, hi = max(lo, ev["ts"]), min(hi, ev["ts"] + ev["dur"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        total, self_time, count = table.get(ev["name"], (0.0, 0.0, 0))
        table[ev["name"]] = (total + ev["dur"] / 1e6,
                             self_time + (ev["dur"] - covered) / 1e6,
                             count + 1)
    return table


def startup_seconds(tools, run_dir):
    path = os.path.join(run_dir, "one-line.pp")
    with open(path, "w") as f:
        f.write("proc main() { skip; }\n")
    walls = []
    for _ in range(STARTUP_SAMPLES):
        res = run_child([tools.pmaf, path], os.path.join(run_dir, "s.out"),
                        os.path.join(run_dir, "s.err"))
        if res.rc != 0:
            raise BenchError("pmaf on a one-line program exited %d" % res.rc)
        walls.append(res.wall)
    return statistics.median(walls)


def stats_round_trip(tools, run_dir):
    """Median `stats` round trip on a live pmafd: framing + JSON floor."""
    daemon = Daemon(tools, run_dir)
    try:
        client = Client(daemon.port)
        client.request({"cmd": "load", "session": "probe",
                        "source": "proc main() { skip; }\n"})
        walls, events = [], []
        for i in range(STATS_ROUND_TRIPS):
            t0 = time.monotonic_ns()
            reply = client.request({"cmd": "stats", "session": "probe"})
            t1 = time.monotonic_ns()
            if not reply.get("ok"):
                raise BenchError("stats request failed: %s" % reply)
            walls.append((t1 - t0) / 1e9)
            events.append({"name": "server.stats_round_trip", "ph": "X",
                           "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                           "pid": os.getpid(), "tid": 0,
                           "args": {"id": i + 1, "parent": 0,
                                    "op": "stats-%d" % i}})
        client.close()
    finally:
        daemon.stop()
    return statistics.median(walls), events


class TraceRun:
    def __init__(self):
        self.events = []
        self.counters = {}
        self.ops = 0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.overheads = []      # traced minus untraced wall, per op

    def add_counters(self, summary):
        for key, value in summary.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key == "peak_generator_rows":
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value


def traced_pair(tools, run_dir, args, tag, trace):
    """Runs a traced driver untraced, then traced, each in a fresh
    process; adds the spans, the counters and the per-op overhead to
    `trace` and returns both results."""
    plain = run_helper(tools, args, run_dir, tag + "-untraced")
    spans_path = os.path.join(run_dir, tag + ".trace.json")
    traced = run_helper(tools, args + ["--trace-out=" + spans_path],
                        run_dir, tag + "-traced")
    summary = helper_summary(traced.stdout)
    ops = summary.get("ops", 1)
    trace.untraced_wall += plain.wall
    trace.traced_wall += traced.wall
    trace.overheads.append((traced.wall - plain.wall) / ops)
    for ev in read_spans(spans_path):
        # Operation ids count from 1 in each helper process; qualify them
        # so they stay unique across the run.
        ev["args"]["op"] = "%s-%d-%s" % (tag, ev["pid"], ev["args"]["op"])
        trace.events.append(ev)
    trace.add_counters(summary)
    trace.ops += ops
    return plain, traced, summary


def trace_cli_cold(tools, run_dir, seed, out, trace, expected):
    prog_dir = write_programs(tools, run_dir, "table")
    # A fresh process per program keeps the numeric caches cold.
    for domain, name in answers.program_list(expected):
        path = os.path.join(prog_dir, "%s-%s.pp" % (domain, name))
        plain, traced, _ = traced_pair(tools, run_dir,
                                       ["cli", path, domain], "cli", trace)
        for res in (plain, traced):
            out.attempted += 1
            ok, why = answers.check_report(domain, name, res.stdout, expected)
            exit_code = helper_summary(res.stdout)["exit"]
            if not ok or exit_code != 0:
                out.fail(why or "%s-%s: exit %d" % (domain, name, exit_code))


def trace_served_edits(tools, run_dir, seed, out, trace, _expected):
    path, _ = make_edits(tools, run_dir, seed)
    _, _, summary = traced_pair(tools, run_dir,
                                ["edits-trace", path,
                                 "--ops=%d" % TRACE_EDIT_OPS], "edits", trace)
    out.attempted += summary["ops"]
    if summary["mismatches"]:
        out.fail("traced edits: %d answers differ from the reference"
                 % summary["mismatches"], summary["mismatches"])


def trace_served_leia(tools, run_dir, seed, out, trace, expected):
    prog_dir = write_programs(tools, run_dir, "table")
    fingerprints, problems = leia_reference(tools, run_dir, prog_dir,
                                            expected)
    _, _, summary = traced_pair(tools, run_dir,
                                ["leia-trace", prog_dir,
                                 "--passes=%d" % TRACE_LEIA_PASSES],
                                "leia", trace)
    for key, fingerprint in summary["fingerprints"].items():
        name = key.rsplit("#", 1)[0]
        out.attempted += 1
        if problems.get(name) or fingerprint != fingerprints.get(name):
            out.fail("traced leia %s: %s" % (
                name, problems.get(name) or "fingerprint differs"))


def trace_corpus_verify(tools, run_dir, seed, out, trace, _expected):
    corpus = gen_corpus(tools, run_dir, seed)
    files = [f for batch in corpus_batches(corpus) for f in batch]
    _, _, summary = traced_pair(tools, run_dir,
                                ["corpus-trace", "--runs=%d" % CORPUS_RUNS]
                                + files[:TRACE_CORPUS_FILES],
                                "corpus", trace)
    out.attempted += summary["ops"]
    bad = summary["failed"] + summary["soundness_violations"]
    if bad:
        out.fail("traced corpus: %d failed files, %d soundness violations"
                 % (summary["failed"], summary["soundness_violations"]), bad)


TRACERS = {
    "cli-cold": trace_cli_cold,
    "served-edits": trace_served_edits,
    "served-leia": trace_served_leia,
    "corpus-verify": trace_corpus_verify,
}


def layer_metrics(trace, table, startup, round_trip):
    """Per-layer metrics: seconds and counts per traced operation, peaks
    as maxima, ratios as ratios. A layer the workload never enters is 0."""
    ops = max(1, trace.ops)
    c = trace.counters
    m = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        if span in table:
            m[metric] = table[span][0] / ops
    served = "server.analyze" in table
    if served:
        # The session's solve is warm (and incremental after an edit):
        # its own SolveSeconds, not a cold core::solve span.
        m["core.solve_s"] = c.get("server_solve_s", 0.0) / ops
        m["server.solve_s"] = m["core.solve_s"]
        m["server.post_solve_s"] = m["server.analyze_s"] - m["server.solve_s"]
        m["server.stats_round_trip_s"] = round_trip
        if c.get("transformers_total"):
            m["server.transformer_reuse_ratio"] = (
                c["transformers_reused"] / c["transformers_total"])
        if c.get("nodes_total"):
            m["server.node_reuse_ratio"] = c["nodes_reused"] / c["nodes_total"]
    m["tools.startup_s"] = startup
    m["cfg.nodes"] = c.get("cfg_nodes", 0) / ops
    for key in ("node_updates", "widenings", "interpret_calls",
                "interpret_cache_hits"):
        m["core." + key] = c.get(key, 0) / ops
    for key in ("chernikova_calls", "conv_cache_hits", "conv_cache_misses",
                "shared_l2_hits", "ladder_escalations"):
        m["poly." + key] = c.get(key, 0) / ops
    m["poly.peak_generator_rows"] = c.get("peak_generator_rows", 0)
    lookups = c.get("conv_cache_hits", 0) + c.get("conv_cache_misses", 0)
    if lookups:
        m["poly.conv_cache_hit_ratio"] = c["conv_cache_hits"] / lookups
    m["trace.overhead_s"] = statistics.median(trace.overheads)
    return m


def write_chrome_trace(path, events, workload, seed):
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"workload": workload, "seed": seed}}, f)


def run_traced(tools, workload, run_dir, seed, expected, trace_path):
    out = Outcome()
    trace = TraceRun()
    TRACERS[workload](tools, run_dir, seed, out, trace, expected)
    startup = startup_seconds(tools, run_dir)
    round_trip = 0.0
    if workload.startswith("served-"):
        round_trip, events = stats_round_trip(tools, run_dir)
        trace.events.extend(events)
    table = layer_times(trace.events)
    write_chrome_trace(trace_path, trace.events, workload, seed)
    print("%-28s %8s %12s %12s" % ("span", "count", "total_s", "self_s"))
    for name in sorted(table, key=lambda n: -table[n][0]):
        total, self_time, count = table[name]
        print("%-28s %8d %12.6f %12.6f" % (name, count, total, self_time))
    print("traced ops %d; traced %.3f s vs untraced %.3f s; trace %s"
          % (trace.ops, trace.traced_wall, trace.untraced_wall, trace_path))
    return out, layer_metrics(trace, table, startup, round_trip)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

MEASURE = {
    "cli-cold": cli_cold,
    "served-edits": served_edits,
    "served-leia": served_leia,
    "corpus-verify": corpus_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        tools = build(root)
        expected = answers.load_expected()
        runs = os.path.join(tools.build_dir, "runs")
        run_dir = os.path.join(runs, "%s-seed%d-%d" % (args.workload,
                                                       args.seed,
                                                       os.getpid()))
        os.makedirs(run_dir)
        try:
            if args.trace:
                trace_path = os.path.join(
                    tools.build_dir, "traces",
                    "%s-seed%d.json" % (args.workload, args.seed))
                os.makedirs(os.path.dirname(trace_path), exist_ok=True)
                out, metrics = run_traced(tools, args.workload, run_dir,
                                          args.seed, expected, trace_path)
                units = dict(PER_LAYER)
            else:
                out, ops_done = MEASURE[args.workload](
                    tools, run_dir, args.seed, args.seconds, expected)
                metrics = e2e_metrics(out, ops_done)
                units = dict(END_TO_END)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, OSError) as exc:
        # OSError: a process that cannot start, or a daemon connection
        # that drops mid-run; either leaves no result to report.
        log("perfbench: error: %s" % exc)
        return 1

    failed_ratio = out.failed / out.attempted if out.attempted else 1.0
    print("workload %s, seed %d (confirmation seed %d), trace %d"
          % (args.workload, args.seed, CONFIRM_SEED, args.trace))
    for name, value in metrics.items():
        print("  %-32s %14.6f %s" % (name, value, units[name]))
    print("  %-32s %14.6f ratio (%d of %d operations)"
          % ("failed_ratio", failed_ratio, out.failed, out.attempted))
    for key, value in sorted(out.notes.items()):
        print("  note %s: %s" % (key, value))
    for reason in out.failures:
        print("  FAILED: %s" % reason)
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
