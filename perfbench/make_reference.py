"""Regenerate `reference.json`, the frozen reference of the default seed.

    python3 perfbench/make_reference.py

Runs every `gf` and `dirac` config of the default seed's pools through the
CLI with tightened settings (rel_tol 1e-11, e0_max doubled) and stores the
CSV text keyed by the SHA-256 of the config. Only rerun it when the
generator changes: the point of the file is that it was computed once, by
the code the benchmark was defined on.
"""

from __future__ import annotations

import json
import sys

import gate
import workloads
from run import SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    from wavefield import cli

    WORK.mkdir(parents=True, exist_ok=True)
    config_path, out_path = WORK / "tight.json", WORK / "tight.csv"
    data = {"seed": workloads.DEFAULT_SEED, "rel_tol": gate.TIGHT_REL_TOL,
            "e0_max_factor": gate.TIGHT_E0_FACTOR, "workloads": {}}
    for name in workloads.WORKLOADS:
        entries = {}
        for command, config in workloads.make_pool(name, workloads.DEFAULT_SEED):
            if command == "verify":
                continue
            config_path.write_text(workloads.config_text(gate.tightened(config)))
            out = gate.run_cli(cli.main, command, config_path, out_path)
            if out.status != 0:
                print(f"error: {name} reference run exited {out.status}", file=sys.stderr)
                return 1
            entries[gate.config_key(config)] = out.csv_text
        data["workloads"][name] = entries
        print(f"{name}: {len(entries)} configs", file=sys.stderr)
    gate.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
