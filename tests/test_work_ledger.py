"""The work ledger: runner rounds and quadrature nodes per request of each
benchmark workload, pinned. Counts of work are deterministic, so unlike a
timing they show exactly where a change moved the work.

Each workload's default-seed pool (`perfbench/workloads.py`, read only, as
`tests/test_benchmark_contract.py` reads it) goes through `cli.main`
in-process. `quadrature._nodes` runs once per round of the stack runner and
forms 15 Kronrod nodes per panel, so a wrap of it counts both. A change that
moves the work re-pins `LEDGER` and states the counts before and after."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads

from wavefield import cli, quadrature

#: (rounds, nodes) of each request of each workload's default-seed pool, in pool order.
LEDGER = {
    "grid-circular": [(35, 1770), (35, 1770), (36, 1800), (35, 1770), (35, 1770), (35, 1770),
                      (34, 1740), (35, 1770)],
    "span-pulse": [(24, 1545), (16, 1335), (16, 1305), (16, 1335), (16, 1335), (17, 1365),
                   (24, 1575), (16, 1305)],
    "dirac-circular": [(3, 225), (3, 225), (3, 225), (2, 195), (3, 225), (2, 195), (3, 225),
                       (2, 195)],
    "verify": [(32, 9420)],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_request_does_its_pinned_work(tmp_path, monkeypatch, workload):
    counts, nodes = [0, 0], quadrature._nodes

    def counted(intervals):         # one round: 15 nodes per panel
        counts[0] += 1
        counts[1] += 15 * len(intervals)
        return nodes(intervals)

    monkeypatch.setattr(quadrature, "_nodes", counted)
    config_path, out = tmp_path / "config.json", tmp_path / "out.csv"
    ledger = []
    for command, config in workloads.make_pool(workload, workloads.DEFAULT_SEED):
        config_path.write_text(workloads.config_text(config))
        counts[:] = [0, 0]
        assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
        ledger.append(tuple(counts))
    assert ledger == LEDGER[workload]
