"""Shared plumbing of the benchmark: paths, the build, child processes
with their resource usage, order statistics and the span recorder.

Everything the benchmark writes lives under .bench_build/ in the
checkout: the sweep binary, the Go build cache, per-run work
directories and the span files of traced runs.
"""

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SWEEP = os.path.join(BUILD, "bin", "sweep")

# Every child runs on two OS threads, so figures taken on hosts with
# different core counts measure the same configuration.
GOMAXPROCS = "2"

# A child that runs longer than this is killed and counted as failed;
# it keeps one run inside the 180 s a run may take.
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """A failure that leaves no result to report (build, missing sources)."""


def go_env():
    """Environment for the go tool: caches and config stay in the checkout,
    and nothing is fetched."""
    home, tmp = os.path.join(BUILD, "home"), os.path.join(BUILD, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def child_env():
    """Environment for sweep processes: pinned GOMAXPROCS, and a HOME inside
    the checkout so no default cache can land outside it."""
    env = go_env()
    env["GOMAXPROCS"] = GOMAXPROCS
    return env


def build():
    """Build cmd/sweep from the checkout's sources into .bench_build/bin."""
    for need in ("go.mod", os.path.join("cmd", "sweep")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no %s in %s: not a checkout of the simulator" % (need, ROOT))
    os.makedirs(os.path.dirname(SWEEP), exist_ok=True)
    p = subprocess.run(["go", "build", "-o", SWEEP, "./cmd/sweep"], cwd=ROOT, env=go_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise BenchError("go build ./cmd/sweep failed:\n" + p.stdout)


class Child:
    """Outcome of one finished child process."""

    def __init__(self, start, wall, cpu, rss_mb, rc, stdout):
        self.start = start  # perf_counter at launch
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.rc = rc
        self.stdout = stdout


def run_child(args, stdout_path=None, stderr_path=os.devnull):
    """Run one sweep process to completion and return its wall time, CPU
    time (user+sys), peak RSS and exit code. stdout goes to stdout_path
    (discarded when None) and is returned as bytes when kept."""
    out = open(stdout_path or os.devnull, "wb")
    err = open(stderr_path, "wb")
    try:
        start = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (p.pid,))
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        out.close()
        err.close()
    data = None
    if stdout_path:
        with open(stdout_path, "rb") as f:
            data = f.read()
    return Child(start, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 p.returncode, data)


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it, and the
    percentile it is (the maximum when there are ten samples or fewer)."""
    if not xs:
        return 0.0, 0.0
    s = sorted(xs)
    n = len(s)
    i = max(n - 11, 0) if n > 10 else n - 1
    return s[i], 100.0 * (i + 1) / n


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def source_digest():
    """Digest of the Go sources and go.mod, naming the commit measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(workload, seed, trace):
    """The host and build a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    except OSError:
        pass
    go = subprocess.run(["go", "version"], env=go_env(), stdout=subprocess.PIPE, text=True).stdout
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "gomaxprocs": int(GOMAXPROCS),
        "go": go.strip(),
        "commit": commit or "source:" + source_digest(),
        "python": sys.version.split()[0],
    }


class Spans:
    """In-memory span recorder: name, start, end and parent per span, written
    once when the run ends. Times are seconds on the perf_counter clock,
    written as microseconds from the first span's start."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, **attrs):
        sid = len(self.spans) + 1
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": start, "end": end, "attrs": attrs})
        return sid

    def open(self, name, start, parent=None, **attrs):
        """Add a span whose end is set later by close()."""
        return self.add(name, start, start, parent, **attrs)

    def close(self, sid, end):
        self.spans[sid - 1]["end"] = end

    def write(self, path, env):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        out = []
        for s in self.spans:
            d = dict(s)
            d["start_us"] = round((s["start"] - t0) * 1e6, 1)
            d["dur_us"] = round((s["end"] - s["start"]) * 1e6, 1)
            del d["start"], d["end"]
            out.append(d)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"env": env, "spans": out}, f, indent=1)
            f.write("\n")
