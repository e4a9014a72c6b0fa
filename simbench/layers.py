"""Per-layer metrics: host self time per module from a pprof CPU profile,
and kernel ratios from an obs counter snapshot (a run manifest's
metrics, or a service node's /metricz)."""

import re
import subprocess

from harness import SWEEP, go_env

# Modules whose host self time is reported, by repro/internal/<module>.
SELF_TIME_MODULES = ["noc", "engine", "platform", "reserve", "colibri", "mem", "cpu",
                     "isa", "kernels", "patterns", "sweep", "fabric"]

# Policies whose SC success ratio is reported.
SC_POLICIES = ["lrsc", "lrscwait", "colibri"]

# The fig3 series of the terapool point, one platform.par2_speedup each.
FIG3_SERIES = ["amoadd", "lrscwait-ideal", "lrscwait-512", "lrscwait-1", "colibri", "lrsc"]

_MODULE = re.compile(r"^repro/internal/([A-Za-z0-9_]+)")
_UNITS = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0,
          "mins": 60.0, "hrs": 3600.0}
_QTY = re.compile(r"^([0-9.]+)([a-zµ]+)$")


def _seconds(tok):
    if tok == "0":
        return 0.0
    m = _QTY.match(tok)
    if not m or m.group(2) not in _UNITS:
        raise ValueError("unparsable pprof quantity %r" % tok)
    return float(m.group(1)) * _UNITS[m.group(2)]


def module_self_times(profile):
    """Sum a CPU profile's flat (self) time by module: repro/internal/<m>
    functions to <m>, runtime functions to "go.runtime", the rest to
    "other". Returns {module: seconds}."""
    p = subprocess.run(["go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
                        SWEEP, profile], env=go_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise RuntimeError("go tool pprof failed: " + p.stderr.strip())
    out = {}
    table = False
    for line in p.stdout.splitlines():
        fields = line.split(None, 5)
        if not table:
            table = fields[:2] == ["flat", "flat%"]
            continue
        if len(fields) < 6:
            continue
        name = fields[5]
        m = _MODULE.match(name)
        if m:
            mod = m.group(1)
        elif name.startswith("runtime.") or name.startswith("runtime/"):
            mod = "go.runtime"
        else:
            mod = "other"
        out[mod] = out.get(mod, 0.0) + _seconds(fields[0])
    return out


def self_time_metrics(selfs):
    """The per-module self_s metrics from module_self_times' result (all
    zero when no profile was taken)."""
    m = {mod + ".self_s": selfs.get(mod, 0.0) for mod in SELF_TIME_MODULES}
    m["go.runtime_self_s"] = selfs.get("go.runtime", 0.0)
    return m


def _ratio(a, b):
    return a / b if b else 0.0


def kernel_metrics(snapshot):
    """Kernel ratios and counts from an obs snapshot ({"counters": ...,
    "gauges": ...}). Simulated cycles are executed ticks plus the cycles
    fast-forwarding skipped; the per-cycle ratios divide by them."""
    c = snapshot.get("counters") or {}
    g = snapshot.get("gauges") or {}
    ticks = c.get("kernel.ticks", 0)
    cycles = ticks + c.get("kernel.ff.cycles_saved", 0)
    routers = c.get("kernel.routers.ticked", 0)
    flits = c.get("kernel.fabric.flits", 0)
    m = {
        "noc.router_visits_per_cycle": _ratio(routers, cycles),
        "noc.flits_per_cycle": _ratio(flits, cycles),
        "noc.flits_per_router_visit": _ratio(flits, routers),
        "engine.slots_per_cycle": _ratio(c.get("kernel.slots.ticked", 0), cycles),
        "engine.parks": c.get("kernel.cores.parked", 0),
        "engine.ff_cycles_saved": c.get("kernel.ff.cycles_saved", 0),
        "platform.sim_cycles": cycles,
        "platform.partitions": max(g.get("kernel.partitions", 1), 1),
        "platform.fused_share": _ratio(c.get("kernel.fused_cycles", 0), ticks),
        "mem.accesses_per_cycle": _ratio(c.get("kernel.bank.accesses", 0), cycles),
        "mem.stall_cycles": c.get("kernel.bank.stall_cycles", 0),
        "cpu.deliveries_per_cycle": _ratio(c.get("kernel.core.deliveries", 0), cycles),
        "colibri.grant_ratio": _ratio(c.get("kernel.policy.colibri.grants", 0),
                                      c.get("kernel.policy.colibri.requests", 0)),
    }
    for pol in SC_POLICIES:
        pre = "kernel.policy." + pol + "."
        ok = c.get(pre + "sc_success", 0)
        m["reserve.sc_success_ratio." + pol] = _ratio(ok, ok + c.get(pre + "sc_fail", 0))
    nacks = sum(v for k, v in c.items() if k.startswith("kernel.policy.") and k.endswith(".nacks"))
    reqs = sum(v for k, v in c.items() if k.startswith("kernel.policy.") and k.endswith(".requests"))
    m["reserve.nack_ratio"] = _ratio(nacks, reqs)
    return m


def per_layer_names():
    """Every per-layer metric, in report order: (name, unit, better)."""
    names = [(mod + ".self_s", "s", "lower") for mod in SELF_TIME_MODULES]
    names += [("go.runtime_self_s", "s", "lower")]
    names += [
        ("noc.router_visits_per_cycle", "1/cycle", "lower"),
        ("noc.flits_per_cycle", "1/cycle", "higher"),
        ("noc.flits_per_router_visit", "ratio", "higher"),
        ("engine.slots_per_cycle", "1/cycle", "lower"),
        ("engine.parks", "count", "higher"),
        ("engine.ff_cycles_saved", "cycles", "higher"),
        ("platform.ns_per_cycle", "ns", "lower"),
        ("platform.sim_cycles", "cycles", "lower"),
        ("platform.partitions", "count", "higher"),
        ("platform.fused_share", "ratio", "higher"),
    ]
    names += [("platform.par2_speedup." + s, "ratio", "higher") for s in FIG3_SERIES]
    names += [("reserve.sc_success_ratio." + p, "ratio", "higher") for p in SC_POLICIES]
    names += [
        ("reserve.nack_ratio", "ratio", "lower"),
        ("colibri.grant_ratio", "ratio", "higher"),
        ("mem.accesses_per_cycle", "1/cycle", "higher"),
        ("mem.stall_cycles", "cycles", "lower"),
        ("cpu.deliveries_per_cycle", "1/cycle", "higher"),
        ("sweep.points", "count", "higher"),
        ("sweep.point_p50_ms", "ms", "lower"),
        ("sweep.point_max_ms", "ms", "lower"),
        ("sweep.pool_util", "ratio", "higher"),
        ("fabric.hits", "count", "higher"),
        ("fabric.misses", "count", "lower"),
        ("fabric.not_modified", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return names
