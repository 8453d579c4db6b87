"""Self-tests of the benchmark: generator, correctness gate and trace counts.

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it; name it explicitly as above. It takes about a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(bench.SRC))

from wavefield import cli  # noqa: E402

#: Per-layer counts a later change may claim on; they must repeat exactly.
EXACT_COUNTS = ("quadrature.ray_nodes", "quadrature.sub_calls", "quadrature.sub_nodes",
                "kernels.drift_calls", "green.gf_per_dirac", "fields.profile_calls")


def _pool_text(name: str, seed: int) -> list:
    return [(command, workloads.config_text(config))
            for command, config in workloads.make_pool(name, seed)]


def test_generator_is_deterministic_and_admissible():
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7, 123456):
            pool = _pool_text(name, seed)
            assert pool == _pool_text(name, seed)
            assert len(pool) == workloads.POOL_SIZES[name]
            for _, config in workloads.make_pool(name, seed):
                assert workloads.admissibility_problems(config) == []
        if name != "verify":
            assert _pool_text(name, 0) != _pool_text(name, 1)


def test_frozen_reference_covers_the_default_seed():
    for name in workloads.WORKLOADS:
        frozen = gate.load_frozen(name)
        keys = {gate.config_key(config) for command, config
                in workloads.make_pool(name, workloads.DEFAULT_SEED) if command != "verify"}
        assert keys == set(frozen)


def test_gate_flags_the_small_gap_point(tmp_path):
    config = workloads.SMALL_GAP_POINT
    assert workloads.admissibility_problems(config)
    config_path = tmp_path / "small-gap.json"
    config_path.write_text(workloads.config_text(config))
    out = gate.run_cli(cli.main, "gf", config_path, tmp_path / "out.csv")
    assert out.status == 0          # the defect: a wrong value, exit 0

    rerun = gate.reference_rows(cli.main, "gf", config, 1, {}, config_path, tmp_path / "ref.csv")
    assert gate.check("gf", config, out, rerun)

    tight_path = tmp_path / "tight.json"
    tight_path.write_text(workloads.config_text(gate.tightened(config)))
    tight = gate.run_cli(cli.main, "gf", tight_path, tmp_path / "tight.csv")
    frozen = {gate.config_key(config): tight.csv_text}
    frozen_rows = gate.reference_rows(cli.main, "gf", config, workloads.DEFAULT_SEED, frozen,
                                      config_path, tmp_path / "unused.csv")
    assert gate.check("gf", config, out, frozen_rows)


def test_gate_passes_an_admissible_point(tmp_path):
    command, config = workloads.make_pool("dirac-circular", 3)[0]
    config_path = tmp_path / "point.json"
    config_path.write_text(workloads.config_text(config))
    out = gate.run_cli(cli.main, "gf", config_path, tmp_path / "out.csv")
    rerun = gate.reference_rows(cli.main, "gf", config, 3, {}, config_path, tmp_path / "ref.csv")
    assert gate.check("gf", config, out, rerun) == []
    assert gate.check("gf", config, gate.Output(4, out.seconds, "", None), rerun)


def _counts(workload: str) -> dict:
    client = bench.Client(workload, seed=5)
    metrics = bench.run_traced(client, 0.0, workload)
    assert client.failures() == 0
    return {name: metrics[name][0] for name in EXACT_COUNTS}


def test_layer_counts_repeat_exactly():
    original = cli.main
    for workload in ("grid-circular", "span-pulse", "dirac-circular"):
        first = _counts(workload)
        assert first == _counts(workload)
        assert first["quadrature.ray_nodes"] > 0 and first["kernels.drift_calls"] > 0
        assert first["green.gf_per_dirac"] == (33 if workload == "dirac-circular" else 0)
    assert cli.main is original


def test_fails_without_the_package(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-circular",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
