"""The simulation workloads: cold figure runs through the sweep CLI.

Each workload is a fixed paper selection, so the seed does not change
its inputs. One unit of work is one cold run of the selection (point
cache off); a run makes as many units as fit in --seconds at the unit's
nominal length on a 2-CPU Xeon, at least three, and reports medians. The
unit count depends on --seconds alone, so the order statistics over
pooled point times pick the same ranks on every run and commit. Every
unit's -json results are hashed against digests.json.
"""

import json
import os

import layers
from harness import SWEEP, median, run_child, sha256, tail

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Units per run at the least, so every median has three samples.
MIN_UNITS = 3
# Zero-cycle runs per run for setup_s.
SETUP_RUNS = 5
# Untraced/traced unit pairs in a traced run.
TRACE_PAIRS = 3
# Runs of the terapool point at -partitions 0 and at 2 each.
PAR_PAIRS = 3


class Selection:
    """A sweep selection and the pool and kernel settings it runs at."""

    def __init__(self, select, workers, partitions):
        self.select = select  # the sweep flags naming the selection
        self.workers = workers
        self.partitions = partitions


class SimWorkload(Selection):
    def __init__(self, select, workers, partitions, nominal_s):
        super().__init__(select, workers, partitions)
        self.nominal_s = nominal_s  # one unit's wall time on a 2-CPU Xeon

    def units(self, seconds):
        return max(MIN_UNITS, round(seconds / self.nominal_s))


WORKLOADS = {
    "fig3-mempool": SimWorkload(["-kind", "fig3", "-topo", "mempool"], 2, 0, 9.0),
    "sync-suite": SimWorkload(["-kind", "barrier,rcu,comblock", "-topo", "mempool"], 2, 0, 4.0),
}

# The 1024-core fig3 point at the highest contention, one system per
# policy: the only parallelism is the partitioned kernel. Its untraced
# wall time spread by more than the largest bound across one set of runs
# on a shared 2-CPU host, so it is no end-to-end workload; fig3-mempool's
# traced run measures it for the platform.partitions/par2 metrics. Its
# digests sit under "terapool" in digests.json.
TERAPOOL = Selection(["-kind", "fig3", "-topo", "terapool", "-bins", "1"], 1, -1)


class Unit:
    """One finished cold run of a selection and what its outputs showed."""

    def __init__(self, child, attempted, failed, manifest):
        self.child = child
        self.attempted = attempted
        self.failed = failed
        self.manifest = manifest

    def timings(self):
        """Per-point timings of simulated (uncached) points."""
        if not self.manifest:
            return []
        return [t for t in self.manifest["stats"]["timings"] if t["sim"] and not t["cached"]]

    def point_ms(self):
        return [t["durNs"] / 1e6 for t in self.timings()]


def load_digests(name):
    with open(DIGESTS) as f:
        return json.load(f)[name]


def run_unit(wl, expect, work, tag, partitions=None, traced=False):
    """Run the selection once, cold, and check every kind's -json result
    against its digest. A kind whose result is missing or differs counts
    all its points as failed."""
    jdir = os.path.join(work, tag + "-json")
    mpath = os.path.join(work, tag + "-manifest.json")
    p = wl.partitions if partitions is None else partitions
    args = [SWEEP] + wl.select + ["-workers", str(wl.workers), "-partitions", str(p),
                                  "-cache", "off", "-quiet", "-json", jdir, "-manifest", mpath]
    if traced:
        args += ["-trace", os.path.join(work, tag + "-trace.json"),
                 "-cpuprofile", os.path.join(work, tag + "-cpu.prof")]
    child = run_child(args, stderr_path=os.path.join(work, tag + "-stderr.txt"))
    attempted = failed = 0
    for kind, want in expect.items():
        attempted += want["points"]
        try:
            with open(os.path.join(jdir, kind + ".json"), "rb") as f:
                got = sha256(f.read())
        except OSError:
            got = None
        if child.rc != 0 or got != want["sha256"]:
            failed += want["points"]
    manifest = None
    if child.rc == 0:
        with open(mpath) as f:
            manifest = json.load(f)
    return Unit(child, attempted, failed, manifest)


def setup_runs(wl, work):
    """setup_s samples: the same selection with literally zero warm-up and
    measured cycles, covering process start, program assembly, system
    construction and emission. Returns (walls, attempted, failed)."""
    walls, failed = [], 0
    for i in range(SETUP_RUNS):
        c = run_child([SWEEP] + wl.select + ["-workers", str(wl.workers), "-partitions",
                                             str(wl.partitions), "-cache", "off", "-quiet",
                                             "-warmup", "-1", "-measure", "-1"],
                      stderr_path=os.path.join(work, "setup-stderr.txt"))
        walls.append(c.wall)
        failed += c.rc != 0
    return walls, SETUP_RUNS, failed


def measure(name, seconds, work):
    """The untraced run: set-up samples, then the units."""
    wl, expect = WORKLOADS[name], load_digests(name)
    setup, attempted, failed = setup_runs(wl, work)
    units = [run_unit(wl, expect, work, "unit%d" % i) for i in range(wl.units(seconds))]
    attempted += sum(u.attempted for u in units)
    failed += sum(u.failed for u in units)
    points = [ms for u in units for ms in u.point_ms()]
    tail_ms, tail_pct = tail(points)
    metrics = {
        "wall_s": median([u.child.wall for u in units]),
        "cpu_s": median([u.child.cpu for u in units]),
        "peak_rss_mb": median([u.child.rss_mb for u in units]),
        "setup_s": median(setup),
        "req_per_s": len(points) / sum(u.child.wall for u in units),
        "req_p50_ms": median(points),
        "req_tail_ms": tail_ms,
        "miss_p50_ms": median(points),
    }
    notes = ["%d units of %d points, wall s: %s; req_tail_ms is p%.1f of %d point samples"
             % (len(units), len(points) // len(units),
                " ".join("%.3f" % u.child.wall for u in units), tail_pct, len(points))]
    return metrics, attempted, failed, notes


def add_unit_spans(spans, parent, label, u):
    """A process span for the unit and one span per point from its manifest."""
    c = u.child
    pid = spans.add(label, c.start, c.start + c.wall, parent, rc=c.rc, cpu_s=round(c.cpu, 3))
    if u.manifest:
        # Manifest offsets count from the sweep's start inside the process;
        # anchor them so the run ends where the process did.
        base = c.start + c.wall - u.manifest["stats"]["elapsedNs"] / 1e9
        for t in u.timings():
            st = base + t["startNs"] / 1e9
            spans.add("%s/%s[%d]" % (t["kind"], t["series"], t["index"]), st, st + t["durNs"] / 1e9,
                      pid, worker=t["worker"], x=t["x"])


def traced(name, work, spans, root):
    """The traced run: TRACE_PAIRS pairs of an untraced unit and a unit with
    -manifest -trace -cpuprofile, in alternating order so host drift hits
    both alike, and on fig3-mempool the terapool point (see
    terapool_layers). Self times are medians over the traced units, the
    kernel counts and point times come from the first, and
    trace.overhead_pct compares the median walls of the two kinds.
    Returns (per-layer metrics, attempted, failed, notes)."""
    wl, expect = WORKLOADS[name], load_digests(name)
    plain, trs = [], []
    for i in range(TRACE_PAIRS):
        for t in ((False, True) if i % 2 == 0 else (True, False)):
            tag = "%s%d" % ("traced" if t else "plain", i)
            u = run_unit(wl, expect, work, tag, traced=t)
            add_unit_spans(spans, root, "sweep (%s)" % ("traced" if t else "untraced"), u)
            (trs if t else plain).append(u)
    units = plain + trs
    m = {k: 0.0 for k, _, _ in layers.per_layer_names()}
    notes = []
    if all(u.child.rc == 0 for u in units):
        selfs = [layers.self_time_metrics(layers.module_self_times(
            os.path.join(work, "traced%d-cpu.prof" % i))) for i in range(TRACE_PAIRS)]
        m.update({k: median([s[k] for s in selfs]) for k in selfs[0]})
        tr = trs[0]
        m.update(layers.kernel_metrics(tr.manifest["stats"]["metrics"]))
        st = tr.manifest["stats"]
        pts = tr.point_ms()
        cycles = m["platform.sim_cycles"]
        m["platform.ns_per_cycle"] = sum(pts) * 1e6 / cycles if cycles else 0.0
        m["sweep.points"] = len(pts)
        m["sweep.point_p50_ms"] = median(pts)
        m["sweep.point_max_ms"] = max(pts, default=0.0)
        m["sweep.pool_util"] = sum(st["workerBusyNs"]) / (st["elapsedNs"] * st["workers"])
        m["trace.overhead_pct"] = 100.0 * (median([u.child.wall for u in trs]) /
                                           median([u.child.wall for u in plain]) - 1.0)
        notes.append("trace overhead over %d alternating pairs, wall s untraced: %s; traced: %s"
                     % (TRACE_PAIRS, " ".join("%.3f" % u.child.wall for u in plain),
                        " ".join("%.3f" % u.child.wall for u in trs)))
    if name == "fig3-mempool":
        units += terapool_layers(work, spans, root, m, notes)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    return m, attempted, failed, notes


def terapool_layers(work, spans, root, m, notes):
    """The first multi-core record: the terapool point once at -partitions
    -1 (auto) for the partition count auto chose and its fused share, then
    PAR_PAIRS runs each at -partitions 0 and 2 in alternating order, so
    host drift hits both kernels alike. Each point's par2 speedup is its
    median time at 0 over its median time at 2. Sets those metrics in m
    and returns the units run."""
    expect = load_digests("terapool")
    auto = run_unit(TERAPOOL, expect, work, "tp-auto")
    add_unit_spans(spans, root, "terapool -partitions -1", auto)
    units = [auto]
    if auto.manifest:
        k = layers.kernel_metrics(auto.manifest["stats"]["metrics"])
        m["platform.partitions"] = k["platform.partitions"]
        m["platform.fused_share"] = k["platform.fused_share"]
    times = {0: {}, 2: {}}
    for i in range(PAR_PAIRS):
        for p in ((0, 2) if i % 2 == 0 else (2, 0)):
            u = run_unit(TERAPOOL, expect, work, "tp-p%d-%d" % (p, i), partitions=p)
            add_unit_spans(spans, root, "terapool -partitions %d" % p, u)
            units.append(u)
            for t in u.timings():
                times[p].setdefault(t["series"], []).append(t["durNs"])
    for s in layers.FIG3_SERIES:
        if times[0].get(s) and times[2].get(s):
            m["platform.par2_speedup." + s] = median(times[0][s]) / median(times[2][s])
    notes.append("terapool point: auto chose %d partition(s); par2 speedup per point, median of %d "
                 "each: %s" % (m["platform.partitions"], PAR_PAIRS,
                               ", ".join("%s %.2f" % (s, m["platform.par2_speedup." + s])
                                         for s in layers.FIG3_SERIES)))
    return units
