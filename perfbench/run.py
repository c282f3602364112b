"""End-to-end benchmark of the Quicksand reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 20 --trace 0

Workloads and metrics are those ``BENCHMARK.json`` declares: fig2,
cloning, serving, faults (see perfbench/README.md).

Set-up time is measured over several fresh worker processes (median,
at reference host speed); the middle one of them also runs the
workload's cells for ``--seconds``.  With ``--trace 0`` the result
carries the end-to-end metrics (set-up time, host seconds per simulated
second at reference host speed, peak RSS);
with ``--trace 1`` it carries the per-layer metrics from a sampled run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_START_S, start_probe_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes timed for ``setup_s``: this many set-up-only ones
#: before the measuring process and as many after it, so the samples
#: span the run, plus the measuring process itself.
SETUP_EACH_SIDE = 5
#: Every run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0


def declared_units(spec, trace: int):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this
    kind of run (end-to-end untraced, per-layer traced)."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args, deadline, setup_only):
    """Start one worker after a start probe; return (set-up host seconds,
    set-up reference seconds, RESULT dict or None)."""
    ref_scale = REF_START_S / start_probe_s()
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker exceeded the {DEADLINE_S:g} s "
                         "deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line, file=sys.stderr)
    if ready is None or (result is None and not setup_only):
        raise SystemExit("perfbench: worker printed no result")
    return ready - started, (ready - started) * ref_scale, result


def print_summary(args, setup, result, units) -> None:
    attempted = result["attempted"]
    failed = len(result["failed"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes x {result['cells_per_pass']} cells, "
          f"{failed}/{attempted} failed ({failed / attempted:.1%})")
    host = statistics.median(h for h, _ in setup)
    ref = statistics.median(r for _, r in setup)
    print(f"  setup_s      {ref:.4f} s at reference host speed, {host:.4f} s "
          f"host (medians of {len(setup)} fresh processes)")
    print(f"  wall_s       {result['wall_s']:.4f} s host per pass "
          f"(per-cell medians) for {result['virtual_s']:.4f} s simulated")
    if "ref_s" in result:
        print(f"  ref_s        {result['ref_s']:.4f} s per pass at "
              "reference host speed")
    for name, value in result["headline"].items():
        print(f"  {name:12s} {value:.5f}  (simulated, not host time)")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    if result.get("unavailable"):
        print(f"  not in this workload's public results, reported as 0: "
              f"{', '.join(result['unavailable'])}")
    for row in result.get("layers", ()):
        flag = ("" if row["resolved"] else
                "  UNRESOLVED: too few samples, self_s is an upper bound")
        print(f"  layer {row['layer']:12s} {row['samples']:6d} samples "
              f"{row['share']:6.1%}{flag}")
    for name, digest in result["digests"].items():
        print(f"  digest {name}: {digest}")
    for line in result["failed"]:
        print(f"  FAILED {line}")
    for line in result["problems"]:
        print(f"  INCORRECT {line}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    units = declared_units(spec, args.trace)
    deadline = time.monotonic() + DEADLINE_S
    extra = 0 if args.trace else SETUP_EACH_SIDE
    setup = [run_worker(args, deadline, setup_only=True)[:2]
             for _ in range(extra)]
    host_s, ref_s, result = run_worker(args, deadline, setup_only=False)
    setup.append((host_s, ref_s))
    setup += [run_worker(args, deadline, setup_only=True)[:2]
              for _ in range(extra)]

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(ref for _, ref in setup)
    if metrics.keys() != units.keys():
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(metrics.keys() ^ units.keys())}")
    print_summary(args, setup, result, units)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
