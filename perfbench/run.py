"""Closed-loop benchmark of the `wavefield` command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client sends the workload's seeded requests (see `workloads.py`) to
`wavefield.cli.main`, in this process, one after the other, until `--seconds`
have passed. Every request is then checked by `gate.py`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates each
request untraced and traced (see `tracing.py`) and reports the per-layer
metrics plus the tracing overhead. Every timing is scaled to nominal host
speed by calibration passes around it (see `hostspeed.py`). See README.md
for the metric table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import gate
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

#: Fresh interpreters started per run to time the import of the CLI.
SETUP_REPEATS = 5

#: Requests every run completes however long they take; per-layer counts
#: are taken over this many traced requests so that they repeat exactly.
MIN_REQUESTS = 2

#: Untraced runs of these workloads complete more requests: a `verify`
#: request takes about 7 s, and the median of the two that fit in a
#: 10-second run spread by 13-17 % over ten seeds.
MIN_PLAIN_REQUESTS = {"verify": 3}


def measure_setup() -> float:
    """Median time from starting a fresh interpreter to `wavefield.cli`
    being imported, at nominal host speed. Both processes read the same
    monotonic clock."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import wavefield.cli, time; "
            "print(repr(time.monotonic()))")

    def start_one() -> float:
        start = monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1]) - start

    calibrated = hostspeed.Calibrated()
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, factor = calibrated.run(start_one)
        samples.append(seconds * factor)
    return statistics.median(samples)


class Client:
    """The single closed-loop client: one config file per pool entry, one
    output file, requests sent in pool order."""

    def __init__(self, workload: str, seed: int):
        from wavefield import cli

        self.cli = cli
        self.seed = seed
        self.pool = workloads.make_pool(workload, seed)
        self.frozen = gate.load_frozen(workload) if seed == workloads.DEFAULT_SEED else {}
        WORK.mkdir(parents=True, exist_ok=True)
        self.out = WORK / f"{workload}.csv"
        self.configs = []
        for i, (_, config) in enumerate(self.pool):
            path = WORK / f"{workload}-{i}.json"
            path.write_text(workloads.config_text(config))
            self.configs.append(path)
        self.sent = []          # pool index of each request
        self.outputs = []       # gate.Output of each request
        self.calibrated = hostspeed.Calibrated()

    def send(self) -> float:
        """Send the next request; its time in seconds at nominal host speed
        (the raw wall time is in `outputs[-1].seconds`)."""
        index = len(self.sent) % len(self.pool)
        command = self.pool[index][0]
        main = self.cli.main    # looked up per request: the tracer may have wrapped it
        self.sent.append(index)
        output, factor = self.calibrated.run(
            lambda: gate.run_cli(main, command, self.configs[index], self.out))
        self.outputs.append(output)
        return output.seconds * factor

    def failures(self) -> int:
        """Check every request against its reference; count the failed ones."""
        refs = {}
        for index in sorted(set(self.sent)):
            command, config = self.pool[index]
            if command != "verify":
                refs[index] = gate.reference_rows(self.cli.main, command, config, self.seed,
                                                  self.frozen, self.configs[index],
                                                  WORK / "reference.csv")
        failed = 0
        for index, output in zip(self.sent, self.outputs):
            command, config = self.pool[index]
            problems = gate.check(command, config, output, refs.get(index))
            if problems:
                failed += 1
                print(f"request on pool entry {index} failed: {'; '.join(problems[:3])}",
                      file=sys.stderr)
        return failed

    def rows(self) -> int:
        return sum(gate.row_count(o.csv_text) for o in self.outputs if o.status == 0)


def run_plain(client: Client, seconds: float, minimum: int) -> dict:
    times = []
    start = perf_counter()
    while len(times) < minimum or perf_counter() - start < seconds:
        times.append(client.send())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "req_p50_s": (statistics.median(times), "s"),
        "points_per_s": (client.rows() / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(client: Client, seconds: float, workload: str) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_REQUESTS or perf_counter() - start < seconds:
        plain.append(client.send())
        tracer.request = len(traced)
        tracer.install()
        try:
            traced.append(client.send())
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, list(range(len(traced))), set(range(MIN_REQUESTS)))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(plain), "ratio")
    metrics["host.calibration_ms"] = (1e3 * statistics.median(client.calibrated.passes), "ms")
    metrics["host.req_wall_p50_s"] = (
        statistics.median(o.seconds for o in client.outputs[0::2]), "s")
    tracer.dump(WORK / f"spans-{workload}.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavefield" / "cli.py").is_file():
        print(f"error: no wavefield sources under {SRC}", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    client = Client(args.workload, args.seed)
    if args.trace:
        metrics = run_traced(client, args.seconds, args.workload)
    else:
        minimum = MIN_PLAIN_REQUESTS.get(args.workload, MIN_REQUESTS)
        metrics = {"setup_s": (setup_s, "s"), **run_plain(client, args.seconds, minimum)}
    failed = client.failures()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(client.sent),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
