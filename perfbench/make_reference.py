"""Capture the reference outputs the checks compare against, in
reference.json: the SHA-256 of the stdout of every CLI invocation the
verify workload can make, and the vexillary elements of W_4 in types C
and D for the census workload.

    python3 perfbench/make_reference.py

Run it only at a commit whose CLI output is known good: the verify
workload fails any invocation whose stdout differs from this reference.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    cli = {}
    every = workloads.VERIFY_FIXED + workloads.VERIFY_SCHUBERT + workloads.VERIFY_VEXILLARY
    for argv in every:
        code, stdout = workloads.run_cli(argv)
        if code != 0:
            print(f"error: exit {code} from {argv}", file=sys.stderr)
            return 1
        cli[workloads.cli_key(argv)] = hashlib.sha256(stdout).hexdigest()
    census = {
        wtype: sorted(
            str(w) for w in group if workloads.triples.triple_of_w(w, wtype) is not None
        )
        for wtype, group in workloads.census_groups().items() if wtype != "A"
    }
    for wtype, (vex, _) in workloads.CENSUS_COUNTS.items():
        if len(census[wtype]) != vex:
            print(f"error: {len(census[wtype])} vexillary in type {wtype}, not {vex}",
                  file=sys.stderr)
            return 1
    reference = {"cli": cli, "census": census}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(cli)} CLI digests and {sum(map(len, census.values()))} vexillary "
          f"elements written to {workloads.REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
