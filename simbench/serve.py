"""The serve-mixed workload: `sweep serve` over a warm disk cache.

Set-up fills the cache with a small-topology sweep of every kind through
the CLI, whose -json, -csvdir and table outputs become the reference
bodies. A closed loop of two clients then sends rounds of a seeded
request mix:

  - warm GETs over the kinds x json/csv/table, checked byte for byte
    against the CLI's output;
  - If-None-Match revalidations, which must answer 304;
  - cold requests on fresh keys (a seeded warm-up/measure window of the
    small fig6 queue sweep), which simulate and write the cache, each
    fetched again warm later by the same client and compared.

Every round has the same composition, so its wall time is comparable
across seeds; the seed picks the order, the kinds and formats, and the
cold keys. A run makes as many rounds as fit in --seconds at a round's
nominal length on a 2-CPU Xeon, at least three.
"""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import threading
import time

import layers
from harness import (ROOT, SWEEP, BenchError, child_env, median, run_child, tail)

KINDS = ["fig3", "fig4", "fig5", "fig6", "fig6ms", "table1", "table2", "barrier", "rcu", "comblock"]
FORMATS = ["json", "csv", "table"]
TOPO = "small"
CLIENTS = 2
PER_CLIENT = 200        # requests per client per round
COLD_PER_CLIENT = 4     # each followed later by a warm re-fetch
REVAL_PER_CLIENT = 32
MIN_ROUNDS = 3
ROUND_NOMINAL_S = 0.65
TRACED_ROUNDS = 3
COLD_CHECKS = 3         # cold bodies re-made by the CLI after the loop
# Cold keys: fig6's default window (3000 warm-up, 12000 measured cycles)
# plus 0-63 cycles on each, never 0 on both (set-up cached the default
# window), so every key is new but costs about the same.
COLD_WARMUP, COLD_MEASURE, COLD_SPREAD = 3000, 12000, 64
READY_TIMEOUT_S = 30


def kind_path(kind, fmt):
    return "/v1/kind/%s?topo=%s&format=%s" % (kind, TOPO, fmt)


def cold_path(warmup, measure):
    return "/v1/kind/fig6?topo=%s&warmup=%d&measure=%d&format=json" % (TOPO, warmup, measure)


def fill_cache(work):
    """Fill a disk cache through the CLI and collect its outputs as the
    reference bodies, keyed by (kind, format)."""
    cache = os.path.join(work, "cache")
    jdir, cdir = os.path.join(work, "ref-json"), os.path.join(work, "ref-csv")
    c = run_child([SWEEP, "-kind", ",".join(KINDS), "-topo", TOPO, "-cache", cache, "-workers", "2",
                   "-quiet", "-json", jdir, "-csvdir", cdir],
                  stderr_path=os.path.join(work, "fill-stderr.txt"))
    if c.rc != 0:
        raise BenchError("cache fill failed (exit %d)" % c.rc)
    refs = {}
    for k in KINDS:
        with open(os.path.join(jdir, k + ".json"), "rb") as f:
            refs[(k, "json")] = f.read()
        with open(os.path.join(cdir, k + ".csv"), "rb") as f:
            refs[(k, "csv")] = f.read()
        t = run_child([SWEEP, "-kind", k, "-topo", TOPO, "-cache", cache, "-quiet"],
                      stdout_path=os.path.join(work, "ref-table.txt"))
        if t.rc != 0:
            raise BenchError("table reference for %s failed (exit %d)" % (k, t.rc))
        refs[(k, "table")] = t.stdout
    return cache, refs


class Server:
    """One `sweep serve` process on a free localhost port."""

    def __init__(self, cache):
        start = time.perf_counter()
        self.p = subprocess.Popen([SWEEP, "serve", "-addr", "127.0.0.1:0", "-cache", cache,
                                   "-workers", "2", "-quiet"],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  env=child_env(), cwd=ROOT)
        killer = threading.Timer(READY_TIMEOUT_S, self.p.kill)
        killer.start()
        try:
            line = self.p.stderr.readline().decode(errors="replace")
            m = re.search(r"listening on (\S+):(\d+)", line)
            if not m:
                self.stop()
                raise BenchError("sweep serve did not start: %r" % line)
            self.host, self.port = m.group(1), int(m.group(2))
            while True:
                try:
                    status, _, _ = self.get("/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if self.p.poll() is not None:
                    raise BenchError("sweep serve exited during start-up")
                time.sleep(0.001)
        finally:
            killer.cancel()
        self.ready_s = time.perf_counter() - start

    def conn(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path, conn=None, headers=None):
        c = conn or self.conn()
        try:
            c.request("GET", path, headers=headers or {})
            r = c.getresponse()
            return r.status, r.getheader("ETag"), r.read()
        finally:
            if conn is None:
                c.close()

    def cpu_s(self):
        """User+sys CPU the server has used so far."""
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """Stop the server and wait for it; returns its peak RSS in MB."""
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        killer = threading.Timer(35, self.p.kill)
        killer.start()
        try:
            self.p.stderr.read()
            _, _, ru = os.wait4(self.p.pid, 0)
        except ChildProcessError:
            return 0.0
        finally:
            killer.cancel()
            self.p.stderr.close()
        self.p.returncode = 0
        return ru.ru_maxrss / 1024.0


class Request:
    def __init__(self, kind, path, key=None, headers=None):
        self.kind = kind    # warm, reval, cold or refetch
        self.path = path
        self.key = key      # (kind, format) for warm/reval, (warmup, measure) for cold/refetch
        self.headers = headers


class Planner:
    """Seeded request plans; cold keys are unique across the whole run."""

    def __init__(self, seed, etags):
        self.rng = random.Random(seed)
        self.etags = etags
        self.used = set()
        self.pairs = [(k, f) for k in KINDS for f in FORMATS]

    def cold_key(self):
        while True:
            n = self.rng.randrange(1, COLD_SPREAD * COLD_SPREAD)
            if n not in self.used:
                self.used.add(n)
                return COLD_WARMUP + n // COLD_SPREAD, COLD_MEASURE + n % COLD_SPREAD

    def client_plan(self):
        warm = PER_CLIENT - 2 * COLD_PER_CLIENT - REVAL_PER_CLIENT
        kinds = ["cold"] * COLD_PER_CLIENT + ["reval"] * REVAL_PER_CLIENT + ["warm"] * warm
        self.rng.shuffle(kinds)
        plan = []
        for t in kinds:
            if t == "cold":
                key = self.cold_key()
                plan.append(Request("cold", cold_path(*key), key))
            else:
                pair = self.rng.choice(self.pairs)
                hdr = {"If-None-Match": self.etags[pair]} if t == "reval" else None
                plan.append(Request(t, kind_path(*pair), pair, hdr))
        # Each cold key is fetched again, warm, 1-20 requests later.
        for i in reversed([i for i, r in enumerate(plan) if r.kind == "cold"]):
            r = plan[i]
            plan.insert(min(i + 1 + self.rng.randrange(20), len(plan)),
                        Request("refetch", r.path, r.key))
        return plan


def run_client(server, plan, refs, out):
    """Send a plan in order on one keep-alive connection; append
    (request, start, end, ok, body) per request to out."""
    conn = server.conn()
    cold = {}
    for r in plan:
        t0 = time.perf_counter()
        try:
            status, _, body = server.get(r.path, conn, r.headers)
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = server.conn()
            status, body = None, b""
        t1 = time.perf_counter()
        if r.kind == "warm":
            ok = status == 200 and body == refs[r.key]
        elif r.kind == "reval":
            ok = status == 304 and body == b""
        elif r.kind == "cold":
            ok = status == 200 and cold_body_ok(body, r.key)
            cold[r.key] = body
        else:
            ok = status == 200 and body == cold.get(r.key)
        out.append((r, t0, t1, ok, body if r.kind == "cold" else None))
    conn.close()


def cold_body_ok(body, key):
    try:
        job = json.loads(body)["job"]
    except (ValueError, KeyError, TypeError):
        return False
    return job.get("kind") == "fig6" and (job.get("warmup"), job.get("measure")) == key


class Round:
    def __init__(self, wall, cpu, results, start):
        self.wall = wall
        self.cpu = cpu
        self.results = results
        self.start = start


def run_round(server, planner, refs):
    plans = [planner.client_plan() for _ in range(CLIENTS)]
    outs = [[] for _ in range(CLIENTS)]
    threads = [threading.Thread(target=run_client, args=(server, plans[i], refs, outs[i]))
               for i in range(CLIENTS)]
    cpu0, t0 = server.cpu_s(), time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t1, cpu1 = time.perf_counter(), server.cpu_s()
    return Round(t1 - t0, cpu1 - cpu0, [x for o in outs for x in o], t0)


def start(seed, work):
    """Set-up: fill the cache, start the server, and prime ETags with a
    checked fetch of every (kind, format). Returns (server, cache, refs,
    planner, failed)."""
    cache, refs = fill_cache(work)
    server = Server(cache)
    etags, failed = {}, 0
    try:
        conn = server.conn()
        for pair, ref in sorted(refs.items()):
            status, etag, body = server.get(kind_path(*pair), conn)
            etags[pair] = etag or '""'
            failed += not (status == 200 and body == ref and etag)
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, cache, refs, Planner(seed, etags), failed


def check_cold_with_cli(rounds, work):
    """Re-make a few cold bodies with the CLI (cache off) and compare.
    Returns (checked, mismatched)."""
    colds = [(r.key, body) for rd in rounds for (r, _, _, ok, body) in rd.results
             if r.kind == "cold" and ok][:COLD_CHECKS]
    bad = 0
    for (warmup, meas), body in colds:
        jdir = os.path.join(work, "cold-%d-%d" % (warmup, meas))
        c = run_child([SWEEP, "-kind", "fig6", "-topo", TOPO, "-warmup", str(warmup),
                       "-measure", str(meas), "-cache", "off", "-quiet", "-json", jdir])
        try:
            with open(os.path.join(jdir, "fig6.json"), "rb") as f:
                same = c.rc == 0 and f.read() == body
        except OSError:
            same = False
        bad += not same
    return len(colds), bad


def tally(rounds):
    results = [x for rd in rounds for x in rd.results]
    return len(results), sum(1 for x in results if not x[3])


def measure(seed, seconds, work):
    """The untraced run. setup_s samples the serving server's launch and
    one more launch on the same cache after each round: a launch takes a
    few milliseconds, so samples spread over the whole run keep a short
    slow phase of the host from moving the median."""
    server, cache, refs, planner, failed = start(seed, work)
    attempted = len(refs)
    rounds, setup = [], [server.ready_s]
    try:
        for _ in range(max(MIN_ROUNDS, round(seconds / ROUND_NOMINAL_S))):
            rounds.append(run_round(server, planner, refs))
            probe = Server(cache)
            setup.append(probe.ready_s)
            probe.stop()
    finally:
        rss = server.stop()
    n, bad = tally(rounds)
    checked, mismatched = check_cold_with_cli(rounds, work)
    attempted += n + checked
    failed += bad + mismatched
    lat = [(t1 - t0) * 1e3 for rd in rounds for (_, t0, t1, _, _) in rd.results]
    cold = [(t1 - t0) * 1e3 for rd in rounds for (r, t0, t1, _, _) in rd.results if r.kind == "cold"]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "wall_s": median([rd.wall for rd in rounds]),
        "cpu_s": median([rd.cpu for rd in rounds]),
        "peak_rss_mb": rss,
        "setup_s": median(setup),
        "req_per_s": len(lat) / sum(rd.wall for rd in rounds),
        "req_p50_ms": median(lat),
        "req_tail_ms": tail_ms,
        "miss_p50_ms": median(cold),
    }
    notes = ["%d rounds of %d requests (%d cold), wall s: %s; req_tail_ms is p%.1f of %d samples; "
             "miss_p50_ms over %d cold requests; setup_s over %d launches"
             % (len(rounds), len(lat) // len(rounds), len(cold) // len(rounds),
                " ".join("%.3f" % rd.wall for rd in rounds), tail_pct, len(lat), len(cold),
                len(setup))]
    return metrics, attempted, failed, notes


def traced(seed, work, spans, root):
    """TRACED_ROUNDS rounds recorded as request spans, then a /metricz
    scrape for the fabric and kernel counts. The server itself runs as in
    the untraced run: sweep serve takes no trace or profile flags."""
    server, _, refs, planner, failed = start(seed, work)
    attempted = len(refs)
    try:
        rounds = []
        for i in range(TRACED_ROUNDS):
            rd = run_round(server, planner, refs)
            rid = spans.add("round %d" % i, rd.start, rd.start + rd.wall, root,
                            server_cpu_s=round(rd.cpu, 3))
            for r, t0, t1, ok, _ in rd.results:
                spans.add("GET " + r.path, t0, t1, rid, type=r.kind, ok=ok)
            rounds.append(rd)
        status, _, body = server.get("/metricz")
    finally:
        server.stop()
    n, bad = tally(rounds)
    attempted += n + 1
    failed += bad + (status != 200)
    snap = json.loads(body) if status == 200 else {}
    c = snap.get("counters") or {}
    m = {k: 0.0 for k, _, _ in layers.per_layer_names()}
    m.update(layers.kernel_metrics(snap))
    wall = (snap.get("timers") or {}).get("sweep.point.wall") or {}
    cycles = m["platform.sim_cycles"]
    m["platform.ns_per_cycle"] = wall.get("totalNs", 0) / cycles if cycles else 0.0
    m["sweep.points"] = c.get("sweep.points.executed", 0)
    for k in ("hits", "misses", "not_modified"):
        m["fabric." + k] = c.get("fabric." + k, 0)
    # No profile of the server process: fabric.self_s here is the summed
    # client-observed latency of the requests that simulated nothing, and
    # trace.overhead_pct stays 0 since nothing in the server is traced.
    m["fabric.self_s"] = sum(t1 - t0 for rd in rounds for (r, t0, t1, _, _) in rd.results
                             if r.kind != "cold")
    notes = ["fabric counters over set-up and %d rounds: hits %d, misses %d, not_modified %d, coalesced %d"
             % (TRACED_ROUNDS, c.get("fabric.hits", 0), c.get("fabric.misses", 0),
                c.get("fabric.not_modified", 0), c.get("fabric.coalesced", 0))]
    return m, attempted, failed, notes
