"""The retailrisk benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Workloads (see README.md for why each exists):

    cold_report     ``python -m retailrisk.cli report`` in a fresh interpreter
    warm_report     in-process ``report`` on the embedded data, all 12 modes
    large_panel     in-process ``report --data`` on 1,500-row seeded panels
    separated_fits  screens plus Firth fit on seeded, separated 32-row panels

Every workload is a closed loop with one client. With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics from a traced loop. Details of each run (machine,
versions, sample counts, import breakdown, tracing overhead) are written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import import_reference_s

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold_report", "warm_report", "large_panel", "separated_fits")

#: Fresh worker processes whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 3
#: ``setup_s`` is set-up time in units of the reference task of
#: ``reference.py``, scaled to seconds on a host where that task takes this
#: long (it took 0.9-1.4 s on the 2-vCPU host where the benchmark was built).
REFERENCE_NOMINAL_S = 1.0
#: Fresh ``-X importtime`` interpreters per traced run.
IMPORT_PROBES = 3
#: A percentile is reported only with at least this many samples beyond it.
P90_MIN_SAMPLES = 100
#: Time a run may take beyond its timed loops: set-up samples, reference
#: tasks, import probes and the checks after the loop.
RUN_ALLOWANCE_S = 120.0


def _env(root: Path) -> dict[str, str]:
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_worker(root: Path, args, workdir: Path, setup_only: bool,
               deadline: float) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds until it reported ready, its result).
    The worker is killed if it is still running at ``deadline``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} failed (exit code {proc.returncode})")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> list[dict]:
    """Entries of ``-X importtime``: name, depth, self and cumulative ms."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line[len("import time:"):].split("|")
        raw = fields[2]
        entries.append({
            "name": raw.strip(),
            "depth": (len(raw) - len(raw.lstrip()) - 1) // 2,
            "self_ms": int(fields[0]) / 1e3,
            "cumulative_ms": int(fields[1]) / 1e3,
        })
    return entries


def import_probe(root: Path) -> dict:
    """Median import metrics over fresh interpreters, plus the top entries."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys, retailrisk; print(len(sys.modules))"],
            cwd=root, env=_env(root), capture_output=True, text=True, timeout=120, check=True)
        entries = parse_importtime(proc.stderr)
        cumulative = {e["name"]: e["cumulative_ms"] for e in entries}
        probes.append({
            "import.retailrisk_ms": sum(e["cumulative_ms"] for e in entries
                                        if e["depth"] == 0 and e["name"] == "retailrisk"),
            "import.modules": int(proc.stdout.split()[-1]),
            "import.scipy_stats_ms": cumulative.get("scipy.stats", 0.0),
            "top": sorted(entries, key=lambda e: -e["cumulative_ms"])[:15],
        })
    metrics = {key: statistics.median(p[key] for p in probes)
               for key in ("import.retailrisk_ms", "import.modules", "import.scipy_stats_ms")}
    return {"metrics": metrics, "top": probes[0]["top"]}


def source_notes(root: Path) -> dict:
    """Commit (when the checkout is a git work tree) and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:  # the ceiling keeps git from finding a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def relative_p50(samples: list[float], references: list[float]) -> float:
    """Median of each sample's time over the reference time taken around it."""
    return statistics.median(s / r for s, r in zip(samples, references, strict=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "retailrisk" / "__init__.py").is_file():
        print("error: run from the root of a retailrisk checkout (src/retailrisk not found)",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)

    loops = 2 if args.trace else 1
    deadline = time.perf_counter() + loops * args.seconds + RUN_ALLOWANCE_S
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Each set-up sample lies between two reference timings.
        setups, references = [], []
        if not args.trace:
            before = import_reference_s(root)
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(root, args, workdir, True, deadline)[0])
                after = import_reference_s(root)
                references.append((before + after) / 2.0)
                before = after
        result = run_worker(root, args, workdir, False, deadline)[1]
        imports = import_probe(root) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = result["latencies"]
    attempted, failed = result["attempted"], result["failed"]
    ops_per_s = len(latencies) / sum(latencies)
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": result["versions"],
        "blas": result["blas"],
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **source_notes(root),
        "samples": {"ops": len(latencies), "setup": len(setups)},
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "calibration_ms": statistics.median(result["references"]) * 1e3,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "cli.tracebacks": result["cli_tracebacks"],
        **result["notes"],
        "inputs.separated_frac": result["separated_share"],
        "setup_samples_s": setups,
        "setup_reference_s": references,
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        notes["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3

    if args.trace:
        traced = result["traced"]
        traced_ops_per_s = len(traced["latencies"]) / sum(traced["latencies"])
        values = dict(traced["layers"])
        values.update(imports["metrics"])
        values.update(traced["default_report"])
        values["cli.tracebacks"] = result["cli_tracebacks"]
        values["trace.overhead_pct"] = 100.0 * (
            relative_p50(traced["latencies"], traced["references"])
            / relative_p50(latencies, result["references"]) - 1.0)
        notes.update(
            samples=dict(notes["samples"], traced_ops=len(traced["latencies"])),
            tracing={"ops_per_s_untraced": ops_per_s, "ops_per_s_traced": traced_ops_per_s,
                     "absent": traced["absent"]},
            import_top=imports["top"],
        )
    else:
        values = {
            "latency_p50_calib": relative_p50(latencies, result["references"]),
            "setup_s": REFERENCE_NOMINAL_S * relative_p50(setups, references),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "notes": notes}, indent=2) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for key in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "calibration_ms",
                "failed_ops_frac", "cli.tracebacks", "inputs.separated_frac"):
        if key in notes:
            print(f"{args.workload} {key} {notes[key]:.6g} (note)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
