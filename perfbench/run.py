#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload narrow|wide --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `dtdinfer` and the traced-run
binary from source, generates the workload's corpus from the seed, and
drives the release binary the way users do: batch `infer`, `snapshot
update`/`load`, and a `dtdinfer serve --workers 2` driven by one
closed-loop HTTP client. Every output is checked. With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it measures the same way,
then runs `perfbench-trace` on the same corpus and prints the per-layer
metrics and the ledger. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A failed output check exits 1 after printing it; a run that cannot start
(no checkout, failed build) or outlives its watchdog exits 2 without it.
perfbench/README.md has the metric catalogue.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import stats  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")

ROUNDS = 10            # scenario rounds spread over the measured seconds
CYCLES_S = 0.2         # per round, refresh cycles and restarts each repeat
                       # for this long (at least once)
REFRESH_BATCH = 200    # stream documents absorbed by each refresh
BULK_BYTES = 2 << 20   # NDXML request size of the setup's bulk ingest
XSD_EVERY = 10         # the mix reads the XSD every this many iterations
THINK_S = 0.016        # before each validate the mix thinks for a uniform
                       # share of this: serve's accept-loop backoff ceiling
SPAWN_REPS = 20        # `dtdinfer --help` round trips behind cli.spawn_ms
TRIM = 0.05            # refresh and recover cycles drop this share at each end
SESSION = "bench"
WATCHDOG_MARGIN_S = 80  # a run (after the build) ends within this plus
                        # three times --seconds

BATCH = [
    ("infer_mb_s", ["infer"]),
    ("infer_j2_mb_s", ["infer", "--jobs", "2"]),
    ("infer_auto_xsd_mb_s", ["infer", "--engine", "auto", "--xsd"]),
    ("infer_ctx_mb_s", ["infer", "--contextual"]),
]

END_TO_END = {
    "infer_mb_s": "MB/s", "infer_j2_mb_s": "MB/s", "infer_auto_xsd_mb_s": "MB/s",
    "infer_ctx_mb_s": "MB/s", "batch_rss_mb": "MiB", "refresh_ms": "ms", "setup_s": "s",
    "ingest_p50_ms": "ms", "ingest_p90_ms": "ms", "validate_p50_ms": "ms",
    "xsd_p50_ms": "ms", "recover_ms": "ms", "server_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.spawn_ms": "ms",
    "xml.parse_mb_s": "MB/s", "xml.extract_mb_s": "MB/s", "xml.contextual_mb_s": "MB/s",
    "xml.infer_ms.idtd": "ms", "xml.infer_ms.auto": "ms", "xml.validate_us": "us",
    "xml.diff_ms": "ms", "xml.xsd_ms": "ms",
    "engine.facts_corpus_ms": "ms", "engine.source_mb_s": "MB/s",
    "engine.absorb_mb_s": "MB/s", "engine.ingest_mb_s.j1": "MB/s",
    "engine.ingest_mb_s.j2": "MB/s", "engine.shard_busy_pct": "%",
    "engine.shard_skew": "ratio", "engine.merge_ms": "ms", "engine.canonicalize_ms": "ms",
    "engine.derive_ms.idtd": "ms", "engine.derive_ms.auto": "ms",
    "engine.snapshot_save_ms": "ms", "engine.snapshot_load_ms": "ms",
    "engine.snapshot_bytes": "bytes", "engine.journal_append_us": "us",
    "engine.journal_recover_ms": "ms", "engine.journal_compact_ms": "ms",
    "engine.state_heap_mb": "MiB",
    "core.learn_ms.idtd": "ms", "core.learn_ms.auto": "ms", "core.max_element_ms.auto": "ms",
    "serve.session_ingest_ms": "ms", "serve.parse_check_us": "us",
    "serve.session_validate_us": "us", "serve.session_xsd_ms": "ms",
    "serve.http_ms.ingest": "ms", "serve.http_ms.validate": "ms",
    "engine.elements": "count", "engine.distinct_words": "count",
    "engine.total_words": "count", "core.rewrite_steps": "count", "core.repairs": "count",
    "core.fallbacks": "count", "core.dtd_tokens": "count", "core.auto_picks.sore": "count",
    "core.auto_picks.kore": "count", "core.auto_picks.chare": "count",
    "ledger.unattributed_pct.batch": "%", "ledger.unattributed_pct.refresh": "%",
    "ledger.unattributed_pct.ingest": "%",
}


class Abort(Exception):
    """The run cannot start or continue; no result is printed."""


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def build():
    """Builds the CLI and the benchmark's own binaries; returns their paths
    by name."""
    for marker in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, marker)):
            raise Abort("%s is not a dtdinfer checkout (no %s)" % (ROOT, marker))
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "dtdinfer"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Abort("%s failed with exit code %d" % (" ".join(cmd), done.returncode))
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("dtdinfer", "perfbench-trace", "perfbench-heap")}


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http(port, method, path, body=b""):
    """One request on a fresh connection (serve closes every connection
    after its response). Returns (status, body)."""
    head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n"
            % (method, path, len(body))).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(head + body)
        reply = bytearray()
        while True:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            reply += chunk
    status_line, _, rest = bytes(reply).partition(b"\r\n")
    parts = status_line.split(b" ")
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, rest.partition(b"\r\n\r\n")[2]


class Server:
    """One `dtdinfer serve` process on a fixed port and data dir."""

    def __init__(self, run, data_dir):
        self.log = open(os.path.join(run.work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [run.exe, "serve", "--addr", "127.0.0.1:%d" % run.port,
             "--data-dir", data_dir, "--workers", "2"],
            cwd=run.work, stdout=self.log, stderr=subprocess.PIPE)
        # serve says on stderr when it listens, after recovering its
        # sessions; waiting for that line, and not polling the port, keeps
        # the first request from landing in the accept loop's backoff.
        for line in self.proc.stderr:
            self.log.write(line)
            if b" listening on " in line:
                break
        self.drain = threading.Thread(target=shutil.copyfileobj, args=(self.proc.stderr, self.log))
        self.drain.start()

    def vm_hwm_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise Abort("no VmHWM for the serve process")

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.drain.join()
        self.proc.stderr.close()
        self.log.close()


class Run:
    """One run: the corpus, the operations and their samples, the checks."""

    def __init__(self, exe, workload, seed, work):
        self.exe, self.workload, self.work = exe, workload, work
        self.corpus = os.path.join(work, "corpus")
        os.makedirs(self.corpus)
        docs = gen.generate(workload, seed)
        self.base_names, self.stream_names = gen.write_corpus(self.corpus, docs)
        # Flush the corpus to disk now, so that its writeback does not run
        # during the measurements.
        os.sync()
        base, stream = gen.split(docs)
        self.base = [d.encode() for d in base]
        self.stream = [d.encode() for d in stream]
        self.base_bytes = sum(map(len, self.base))
        self.port = free_port()
        self.think = random.Random(seed)
        self.attempted = 0
        self.problems = []
        self.samples = defaultdict(list)
        self.outputs = {}
        self.server = None
        self.data_dir = None
        self.child = None
        self.mix_iterations = 0
        self.documents = 0     # documents sent to the session since its setup

    def note(self, ok, what):
        """Counts one operation; a failed one is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.problems.append(what)
            log("FAILED: %s" % what)
        return ok

    def same(self, key, output):
        """Checks that `output` equals every earlier output under `key`."""
        first = self.outputs.setdefault(key, output)
        return first == output

    def command(self, args, key=None):
        """Runs `dtdinfer ARGS` in the corpus directory; returns (seconds,
        stdout bytes, peak RSS in MiB) and counts it as one operation."""
        out_path = os.path.join(self.work, "stdout")
        with open(out_path, "wb") as out, open(os.path.join(self.work, "stderr"), "ab") as err:
            started = time.perf_counter()
            self.child = subprocess.Popen([self.exe] + args, cwd=self.corpus, stdout=out,
                                          stderr=err)
            _, status, usage = os.wait4(self.child.pid, 0)
            seconds = time.perf_counter() - started
        proc, self.child = self.child, None
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            output = f.read()
        what = "dtdinfer %s" % " ".join(a for a in args if not a.endswith(".xml"))
        if self.note(proc.returncode == 0, "%s exited %d" % (what, proc.returncode)) and key:
            self.note(self.same(key, output), "%s printed a different %s" % (what, key))
        return seconds, output, usage.ru_maxrss / 1024

    def request(self, method, path, body=b"", expect=None):
        """One timed HTTP request to the serve process, counted as one
        operation: a non-200 or a missing `expect` substring fails it."""
        started = time.perf_counter()
        try:
            status, reply = http(self.port, method, path, body)
        except OSError as e:
            status, reply = 0, str(e).encode()
        ms = (time.perf_counter() - started) * 1e3
        ok = status == 200 and (expect is None or expect in reply)
        self.note(ok, "%s %s answered %d: %r" % (method, path, status, reply[:200]))
        return ms, reply

    def start_server(self, data_dir):
        self.server = Server(self, data_dir)

    def stop(self):
        """Stops every process this run started."""
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child = None
        self.stop_server()

    def stop_server(self):
        if self.server is not None:
            self.server.kill()
            self.server = None

    def session(self, what):
        return "/sessions/%s/%s" % (SESSION, what)

    # -- scenarios ---------------------------------------------------------

    def setup(self, data_dir):
        """`snapshot save` of the base, then a serve process on the empty
        `data_dir`, NDXML bulk ingest of the base, and the first 200 on
        GET /dtd. Returns the seconds those took."""
        self.stop_server()
        if self.data_dir is not None:
            # Gone before the kernel writes it back, it costs no disk I/O
            # during the measurements.
            shutil.rmtree(self.data_dir)
        save_s, _, _ = self.command(["snapshot", "save", "--out", self.base_snap] + self.base_names)
        started = time.perf_counter()
        self.data_dir = data_dir
        self.start_server(data_dir)
        self.documents = 0
        chunk, size = [], 0
        for doc in self.base + [None]:
            if doc is None or (chunk and size + len(doc) + 1 > BULK_BYTES):
                self.ingest("ingest?mode=ndxml", b"\n".join(chunk), len(chunk))
                chunk, size = [], 0
            if doc is not None:
                chunk.append(doc)
                size += len(doc) + 1
        _, dtd = self.request("GET", self.session("dtd"))
        serve_s = time.perf_counter() - started
        self.note(self.same("dtd", dtd), "serve GET /dtd after warm-up differs from infer")
        return save_s + serve_s

    def ingest(self, what, body, n):
        """POSTs n documents to the session's `what`; the reply must count
        them and the session's new total, which the client keeps on its
        own. Returns the request's ms."""
        self.documents += n
        ms, _ = self.request("POST", self.session(what), body,
                             expect=b'"ingested":%d,"documents":%d,' % (n, self.documents))
        return ms

    def batch(self):
        peak = 0.0
        for metric, args in BATCH:
            key = "dtd" if metric in ("infer_mb_s", "infer_j2_mb_s") else metric
            seconds, _, rss = self.command(args + self.base_names, key=key)
            self.samples[metric].append(seconds)
            peak = max(peak, rss)
        self.samples["batch_rss_mb"].append(peak)

    def refresh(self):
        """One `snapshot update SNAP BATCH` and one `snapshot load SNAP`,
        on a fresh copy of the base snapshot."""
        shutil.copyfile(self.base_snap, self.cycle_snap)
        update_s, _, _ = self.command(["snapshot", "update", self.cycle_snap]
                                      + self.stream_names[:REFRESH_BATCH])
        load_s, _, _ = self.command(["snapshot", "load", self.cycle_snap], key="refresh")
        self.samples["refresh_ms"].append((update_s + load_s) * 1e3)

    def mix_iteration(self):
        """Ingest one stream document, validate one base document, and
        every XSD_EVERY-th iteration read the XSD back.

        Sent right after an ingest, a validate always reaches serve's accept
        loop at the same point of its backoff schedule -- the ingest's time
        modulo the 16 ms ceiling -- and on wide its p50 then swung from 5 to
        11 ms between runs. A seeded think time spreads it over the schedule.
        """
        i = self.mix_iterations
        self.mix_iterations += 1
        self.samples["ingest_ms"].append(
            self.ingest("ingest", self.stream[i % len(self.stream)], 1))
        time.sleep(self.think.uniform(0, THINK_S))
        ms, _ = self.request("POST", self.session("validate"), self.base[i % len(self.base)],
                             expect=b'"valid":true')
        self.samples["validate_ms"].append(ms)
        if i % XSD_EVERY == 0:
            ms, _ = self.request("GET", self.session("xsd"), expect=b"</xs:schema>")
            self.samples["xsd_ms"].append(ms)

    def recover(self):
        """kill -9 the server, restart it on the same data dir, and time the
        first 200 on GET /dtd. The restarted session must hold every
        acknowledged document and give the DTD it gave before the kill."""
        _, before = self.request("GET", self.session("dtd"))
        self.stop_server()
        started = time.perf_counter()
        self.start_server(self.data_dir)
        _, after = self.request("GET", self.session("dtd"))
        self.samples["recover_ms"].append((time.perf_counter() - started) * 1e3)
        self.note(after == before, "the DTD after kill -9 and restart differs")
        self.request("GET", "/sessions",
                     expect=b'{"name":"%s","documents":%d,' % (SESSION.encode(), self.documents))

    def measure(self, seconds):
        """ROUNDS rounds of every scenario across `seconds`.

        Each round opens with a setup on a data dir of its own, so that
        setup_s has samples across the run. The mix always follows a
        restart, so every server_rss_mb sample comes from a recovered
        server, never from one that has just held a bulk ingest.
        """
        self.base_snap = os.path.join(self.work, "base.snap")
        self.cycle_snap = os.path.join(self.work, "cycle.snap")
        started = time.perf_counter()
        for r in range(ROUNDS):
            self.samples["setup_s"].append(self.setup(os.path.join(self.work, "data%d" % r)))
            self.batch()
            repeat_for(CYCLES_S, self.refresh)
            repeat_for(CYCLES_S, self.recover)
            round_end = started + (r + 1) * seconds / ROUNDS
            done = 0
            while done < mix_quota() or time.perf_counter() < round_end:
                self.mix_iteration()
                done += 1
            self.samples["server_rss_mb"].append(self.server.vm_hwm_mib())
        self.stop_server()
        log("%d rounds in %.1f s" % (ROUNDS, time.perf_counter() - started))
        self.command(["snapshot", "load", self.base_snap], key="dtd")

    def check_expected(self):
        """Narrow's schema is known: compare with the hand-written DTD."""
        if self.workload != "narrow":
            return
        with open(os.path.join(HERE, "expected", "narrow.dtd"), "rb") as f:
            expected = f.read()
        for key in ("dtd", "refresh"):
            self.note(self.outputs.get(key) == expected, "%s differs from expected/narrow.dtd" % key)

    def end_to_end(self):
        """The end-to-end metrics as {name: (value, samples)}."""
        s = self.samples
        out = {}
        for metric, _ in BATCH:
            # Throughput is work over time: every command's base bytes over
            # the commands' summed wall time.
            runs = len(s[metric])
            out[metric] = (runs * self.base_bytes / 1e6 / sum(s[metric]), runs)
        for metric in ("batch_rss_mb", "setup_s", "server_rss_mb"):
            out[metric] = (stats.median(s[metric]), len(s[metric]))
        for metric in ("refresh_ms", "recover_ms"):
            # The host runs in slow and fast spells; a median of cycles
            # jumps between them, a trimmed mean weighs them.
            out[metric] = (stats.trimmed_mean(s[metric], TRIM), len(s[metric]))
        out["ingest_p50_ms"] = (stats.percentile(s["ingest_ms"], 50), len(s["ingest_ms"]))
        out["ingest_p90_ms"] = (stats.percentile(s["ingest_ms"], 90), len(s["ingest_ms"]))
        out["validate_p50_ms"] = (stats.percentile(s["validate_ms"], 50), len(s["validate_ms"]))
        out["xsd_p50_ms"] = (stats.percentile(s["xsd_ms"], 50), len(s["xsd_ms"]))
        return out

    def state_heap_mb(self, exe):
        """Peak heap while the warm state is built, from perfbench-heap."""
        done = subprocess.run([exe, "--corpus", self.corpus], stdout=subprocess.PIPE,
                              stderr=sys.stderr)
        self.note(done.returncode == 0, "perfbench-heap exited %d" % done.returncode)
        return float(done.stdout) if done.returncode == 0 else None

    def spawn_ms(self):
        """Median `dtdinfer --help` round trip, in ms."""
        times = []
        for _ in range(SPAWN_REPS):
            seconds, _, _ = self.command(["--help"])
            times.append(seconds * 1e3)
        return stats.median(times)

    def traced(self, tracer, e2e, out_dir):
        """Runs perfbench-trace on the same corpus; returns the per-layer
        metrics and writes the ledger next to the trace."""
        trace_path = os.path.join(out_dir, "trace.json")
        done = subprocess.run(
            [tracer, "--corpus", self.corpus, "--work", os.path.join(self.work, "traced"),
             "--trace-out", trace_path], stdout=subprocess.PIPE, stderr=sys.stderr)
        if not self.note(done.returncode == 0, "perfbench-trace exited %d" % done.returncode):
            return {}
        layer = json.loads(done.stdout.decode().strip().splitlines()[-1])
        layer["cli.spawn_ms"] = self.spawn_ms()
        layer["serve.http_ms.ingest"] = e2e["ingest_p50_ms"][0] - (
            layer["serve.session_ingest_ms"] + layer["serve.parse_check_us"] / 1e3)
        layer["serve.http_ms.validate"] = (e2e["validate_p50_ms"][0]
                                           - layer["serve.session_validate_us"] / 1e3)
        with open(trace_path) as f:
            spans = stats.read_chrome_trace(f)
        rows = stats.ledger(spans, {
            "batch": self.base_bytes / 1e6 / e2e["infer_mb_s"][0] * 1e3,
            "refresh": e2e["refresh_ms"][0],
            "ingest": e2e["ingest_p50_ms"][0],
            "validate": e2e["validate_p50_ms"][0],
            "xsd": e2e["xsd_p50_ms"][0],
        })
        for scenario in ("batch", "refresh", "ingest"):
            layer["ledger.unattributed_pct.%s" % scenario] = rows[scenario]["unattributed_pct"]
        table = stats.ledger_table(rows)
        with open(os.path.join(out_dir, "ledger.txt"), "w") as f:
            f.write(table + "\n")
        print("ledger (median self time per request in ms; end-to-end untraced):\n" + table)
        return layer


def mix_quota():
    """Mix iterations each round runs at least: together the rounds give
    the ingest p90 and the XSD p50 the samples they need."""
    needed = max(stats.min_samples(90), (stats.min_samples(50) - 1) * XSD_EVERY + 1)
    return -(-needed // ROUNDS)


def repeat_for(seconds, f):
    """Calls `f` once, then again until `seconds` have passed."""
    started = time.perf_counter()
    f()
    while time.perf_counter() - started < seconds:
        f()


def interrupted(signum, frame):
    """SIGALRM (the watchdog) and SIGTERM end the run through its cleanup."""
    raise Abort("the run outlived its watchdog" if signum == signal.SIGALRM
                else "terminated")


def table(metrics, units, counts=None):
    lines = []
    for name in sorted(metrics):
        n = "" if counts is None else "  n=%d" % counts[name]
        lines.append("  %-34s %14.4f %-6s%s" % (name, metrics[name], units[name], n))
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("narrow", "wide"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    exes = build()
    signal.signal(signal.SIGALRM, interrupted)
    signal.signal(signal.SIGTERM, interrupted)
    signal.alarm(int(WATCHDOG_MARGIN_S + 3 * args.seconds))
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = None
    try:
        started = time.perf_counter()
        run = Run(exes["dtdinfer"], args.workload, args.seed, work)
        log("%s seed %d: %d base + %d stream documents, %.1f MB base, generated in %.1f s"
            % (args.workload, args.seed, len(run.base), len(run.stream), run.base_bytes / 1e6,
               time.perf_counter() - started))
        run.measure(args.seconds)
        run.check_expected()
        e2e = run.end_to_end()
        with open(os.path.join(out_dir, "samples.json"), "w") as f:
            json.dump(run.samples, f)
        print("end-to-end (%s, seed %d):" % (args.workload, args.seed))
        print(table({k: v for k, (v, _) in e2e.items()}, END_TO_END,
                    {k: n for k, (_, n) in e2e.items()}))
        if args.trace:
            started = time.perf_counter()
            metrics = run.traced(exes["perfbench-trace"], e2e, out_dir)
            metrics["engine.state_heap_mb"] = run.state_heap_mb(exes["perfbench-heap"])
            units = PER_LAYER
            log("traced run in %.1f s" % (time.perf_counter() - started))
            print("per-layer (traced run):")
            print(table({k: v for k, v in metrics.items() if k in units and v is not None}, units))
        else:
            metrics = {k: v for k, (v, _) in e2e.items()}
            units = END_TO_END
        metrics = {k: v for k, v in metrics.items() if k in units and v is not None}
        missing = sorted(set(units) - set(metrics))
        run.note(not missing, "metrics not measured: %s" % ", ".join(missing))
    finally:
        signal.alarm(0)
        if run is not None:
            run.stop()
        started = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        log("cleaned up in %.1f s" % (time.perf_counter() - started))
    failed = len(run.problems)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Abort as e:
        log(str(e))
        sys.exit(2)
