"""Record simbench/digests.json: the sha256 of each kind's -json result per
simulation workload, set only when the result is byte-identical at
-workers 1 and 2 and at -partitions 0 and 2.

    python3 simbench/record_digests.py

Run from the root of a checkout, when the simulated results change on
purpose. It exits non-zero, writing nothing, if any configuration
disagrees.
"""

import sys

sys.dont_write_bytecode = True

import json
import os
import shutil
import tempfile

import harness
import sims

CONFIGS = [(1, 0), (2, 0), (1, 2), (2, 2)]  # (workers, partitions)


def main():
    harness.build()
    work = tempfile.mkdtemp(prefix="digests-", dir=harness.BUILD)
    out = {}
    try:
        for name, wl in list(sims.WORKLOADS.items()) + [("terapool", sims.TERAPOOL)]:
            seen = None
            for workers, parts in CONFIGS:
                jdir = os.path.join(work, "%s-w%d-p%d" % (name, workers, parts))
                c = harness.run_child([harness.SWEEP] + wl.select +
                                      ["-workers", str(workers), "-partitions", str(parts),
                                       "-cache", "off", "-quiet", "-json", jdir])
                if c.rc != 0:
                    print("%s: exit %d at -workers %d -partitions %d" % (name, c.rc, workers, parts),
                          file=sys.stderr)
                    return 1
                got = {}
                for f in sorted(os.listdir(jdir)):
                    with open(os.path.join(jdir, f), "rb") as fh:
                        data = fh.read()
                    res = json.loads(data)
                    got[f[:-len(".json")]] = {
                        "sha256": harness.sha256(data),
                        "points": sum(len(s["points"]) for s in res["series"]),
                    }
                print("%s -workers %d -partitions %d: %.1f s" % (name, workers, parts, c.wall))
                if seen is not None and got != seen:
                    print("%s: results differ at -workers %d -partitions %d" % (name, workers, parts),
                          file=sys.stderr)
                    return 1
                seen = got
            out[name] = seen
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(sims.DIGESTS, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
