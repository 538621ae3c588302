#!/usr/bin/env python3
"""Gate a fresh `perf.exe run --smoke --out FILE` document against the ledger.

    python3 bench/ledger_gate.py smoke.json

The reference is the `smoke` member of the newest BENCH_<n>.json (by n)
in the current directory that has one.  Every metric of kind "virtual",
and each workload's `arrivals` and `failed`, must match it exactly;
wall-clock metrics are ignored.  A change that moves simulated behaviour
on purpose commits a new BENCH_<n>.json whose `smoke` member is the new
reference.  Exits 1 on any difference, listing each one.
"""

import glob
import json
import re
import sys


def virtual_values(doc):
    out = {}
    for w in doc["workloads"]:
        name = w["name"]
        out[(name, "arrivals")] = w["arrivals"]
        out[(name, "failed")] = w["failed"]
        for section in ("end_to_end", "per_layer"):
            for m in w.get(section, []):
                if m["kind"] == "virtual":
                    out[(name, m["name"])] = m["value"]
    return out


def newest_reference():
    ledgers = []
    for path in glob.glob("BENCH_*.json"):
        n = re.fullmatch(r"BENCH_(\d+)\.json", path)
        if n:
            ledgers.append((int(n.group(1)), path))
    for _, path in sorted(ledgers, reverse=True):
        with open(path) as f:
            doc = json.load(f)
        if "smoke" in doc:
            return path, doc["smoke"]
    sys.exit("no BENCH_<n>.json has a smoke member")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        fresh = virtual_values(json.load(f))
    path, ref_doc = newest_reference()
    ref = virtual_values(ref_doc)
    bad = []
    for key in sorted(set(ref) | set(fresh)):
        old, new = ref.get(key), fresh.get(key)
        if old != new:
            bad.append("%s %s: ledger %r, now %r" % (key[0], key[1], old, new))
    for line in bad:
        print(line)
    print("%d virtual values against %s's smoke run: %d differ"
          % (len(ref), path, len(bad)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
