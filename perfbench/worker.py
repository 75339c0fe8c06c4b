"""One workload in one process: set up, warm up, run a closed loop, check.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts it from the checkout root with ``src`` on PYTHONPATH. The
worker prints ``ready`` once set up (``import retailrisk``, seeded inputs,
one untimed warm-up operation), then runs operations back to back, one at a
time, for ``--seconds``. Each output is checked after its timer stops. The
last stdout line is one JSON object for ``run.py``.

With ``--trace 1`` it first runs the loop untraced, then again with spans
installed, so the two ``ops_per_s`` give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import retailrisk
from retailrisk import cli, dataset, firth, pipeline

import gen
from reference import import_reference_s
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
EXPECTED = json.loads((HERE / "expected.json").read_text())
SCORE_BOUND = 1e-6
SCREEN_GROUPS = ("external", "internal", "ratios")
SPANS_TAG = "PERFBENCH_SPANS "

#: Layers whose call counts a traced run also reports for one default-mode
#: ``report`` on the embedded data; these counts repeat exactly.
DEFAULT_REPORT_COUNTED = ("dataset.design_matrix", "logistic.fit_logistic", "firth.fit_firth",
                          "linalg.cholesky", "linalg.solve_spd", "linalg.inverse_spd",
                          "linalg.log_det_spd")


def digest(fmt: str, text: str) -> str:
    """sha256 of a report; JSON is compared on its ``sections`` only."""
    if fmt == "json":
        text = json.dumps(json.loads(text)["sections"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_modes() -> list[tuple[str, str, str]]:
    return [(r, c, f) for r in ("full", "printed") for c in ("fitted", "rounded")
            for f in ("markdown", "csv", "json")]


def mode_key(ratios: str, coef: str, fmt: str) -> str:
    return f"report --ratios {ratios} --coef {coef} --format {fmt}"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process CLI call through the attribute a caller would look up."""
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run_command(argv, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def default_report_counts() -> dict[str, float]:
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(["report"])
    finally:
        tracer.uninstall()
    layers = summarize([tracer.take()])
    return {f"default_report.{name}.calls": layers[f"{name}.calls"]
            for name in DEFAULT_REPORT_COUNTED}


def max_ml_score(dm, beta) -> float:
    prob = 1.0 / (1.0 + np.exp(-(dm.X @ beta)))
    return float(np.max(np.abs(dm.X.T @ (dm.y - prob))))


def screen_problems(ds) -> tuple[list[str], bool]:
    """(failed checks, any fit flagged as separated) for every screen fit."""
    problems, separated = [], False
    for group in SCREEN_GROUPS:
        for name, fit in pipeline.run_screen(ds, group).fits:
            separated |= fit.separation != "none"
            if not fit.converged:
                problems.append(f"{name}: not converged")
            elif max_ml_score(dataset.design_matrix(ds, [name]), fit.beta) > SCORE_BOUND:
                problems.append(f"{name}: score above {SCORE_BOUND}")
    return problems, separated


def final_model_problems(ds, fit) -> list[str]:
    """Finite coefficients, and a score within bound wherever the fit
    reports convergence. Whether it converged is for the caller to judge."""
    if not np.all(np.isfinite(fit.beta)):
        return ["final model coefficients not finite"]
    dm = dataset.design_matrix(ds, list(pipeline.FINAL_MODEL_PREDICTORS))
    if fit.converged and float(np.max(np.abs(firth.firth_score(fit.beta, dm)))) > SCORE_BOUND:
        return [f"final model score above {SCORE_BOUND}"]
    return []


_CALIBRATION_MATRIX = np.arange(16.0).reshape(4, 4)


class Workload:
    """An operation, its output check, and what the run records about inputs."""

    in_process = True

    def __init__(self):
        #: Findings for the results file that do not fail an op.
        self.notes: dict[str, object] = {}

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def finish(self) -> set[int]:
        """Checks that need the whole run; returns indices of failed ops."""
        return set()

    def calibrate(self) -> float:
        """Seconds taken by a fixed reference task like this workload's ops.

        The host's speed drifts by tens of percent over seconds (other
        tenants share the cores), and the reference slows with it. Timing it
        before and after each op lets ``run.py`` report op time in units of
        it. Here the task is a mix of interpreter and small-numpy work.
        """
        a = _CALIBRATION_MATRIX
        total = 0.0
        start = time.perf_counter()
        for i in range(2500):
            total += float(a[i & 3] @ a[:, i & 3]) + i * 0.5
        return time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def separated_share(self) -> float:
        _, separated = screen_problems(dataset.embedded_dataset())
        return float(separated)

    def cli_tracebacks(self) -> int:
        return 0


class WarmReport(Workload):
    """``report`` on the embedded data in every ratio/coef/format mode."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.modes = report_modes()
        random.Random(seed).shuffle(self.modes)

    def op(self, i):
        ratios, coef, fmt = self.modes[i % len(self.modes)]
        return run_cli(["report", "--ratios", ratios, "--coef", coef, "--format", fmt])

    def check(self, i, out):
        rc, text, _ = out
        key = mode_key(*self.modes[i % len(self.modes)])
        return rc == 0 and digest(key.rsplit(" ", 1)[1], text) == EXPECTED[key]


class ColdReport(Workload):
    """``python -m retailrisk.cli report`` in a fresh interpreter per op."""

    in_process = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.workdir = workdir
        self.ratios = ["full", "printed"]
        random.Random(seed).shuffle(self.ratios)
        self.peak_rss_kb = 0
        #: Set for the traced loop: each op then runs with spans installed.
        self.traced = False
        self.stderr = ""
        self.absent: list[str] = []
        self.tracebacks = 0

    def op(self, i):
        """Runs the child and reaps it with ``wait4``, so its own peak RSS
        is known; the calibration children are not counted."""
        ratios = self.ratios[i % 2]
        program = [str(HERE / "cold_child.py")] if self.traced else ["-m", "retailrisk.cli"]
        with open(self.workdir / "cold.out", "w+") as out, \
                open(self.workdir / "cold.err", "w+") as err:
            proc = subprocess.Popen([sys.executable, *program, "report", "--ratios", ratios],
                                    cwd=ROOT, stdout=out, stderr=err)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            self.stderr = err.read()
            return proc.returncode, out.read(), self.stderr

    def calibrate(self):
        """The fresh-interpreter reference of ``reference.py``.

        A lighter reference such as ``import numpy`` alone did not track the
        CLI: between runs minutes apart it sped up by 40% while the CLI sped
        up by 20%.
        """
        return import_reference_s(ROOT)

    def peak_rss_mb(self):
        """The largest peak RSS of the CLI children."""
        return self.peak_rss_kb / 1024.0

    def check(self, i, out):
        rc, text, err = out
        self.tracebacks += "Traceback (most recent call last)" in err
        key = mode_key(self.ratios[i % 2], "fitted", "markdown")
        return rc == 0 and digest("markdown", text) == EXPECTED[key]

    def take(self) -> list[list]:
        """Spans that the traced child of the last op wrote to stderr."""
        spans, text, self.stderr = [], self.stderr, ""
        for line in text.splitlines():
            if line.startswith(SPANS_TAG):
                record = json.loads(line[len(SPANS_TAG):])
                spans, self.absent = record["spans"], record["absent"]
        return spans

    def cli_tracebacks(self):
        return self.tracebacks


class LargePanel(Workload):
    """``report --data PATH`` on seeded panels of 1,500 chain-years."""

    PANELS = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.paths = []
        for index in range(self.PANELS):
            text = gen.large_panel(seed, index)
            dataset.parse_dataset(text)  # every input must validate before timing
            path = workdir / f"large_{index}.csv"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        self.modes = [(p, f) for p in range(self.PANELS) for f in ("markdown", "csv", "json")]
        random.Random(seed).shuffle(self.modes)
        self.digests: dict[int, str] = {}
        self.separated = 0

    def _argv(self, i):
        panel, fmt = self.modes[i % len(self.modes)]
        return ["report", "--data", str(self.paths[panel]), "--format", fmt]

    def op(self, i):
        return run_cli(self._argv(i))

    def check(self, i, out):
        rc, text, _ = out
        self.digests[i] = digest(self.modes[i % len(self.modes)][1], text)
        return rc == 0

    def finish(self):
        """Every fit converged with a score within bound, and each op's
        output equals a reference rendering of the same mode."""
        failed_panels = set()
        for panel, path in enumerate(self.paths):
            ds = dataset.parse_dataset(path.read_text(encoding="utf-8"))
            problems, separated = screen_problems(ds)
            final = pipeline.fit_final_model(ds)
            problems += final_model_problems(ds, final)
            if not final.converged:
                problems.append("final model not converged")
            self.separated += separated
            if problems:
                print(f"large_panel panel {panel}: {problems}", file=sys.stderr)
                failed_panels.add(panel)
        reference = {}
        failed = set()
        for i, value in self.digests.items():
            mode = i % len(self.modes)
            if mode not in reference:
                rc, text, _ = run_cli(self._argv(i))
                reference[mode] = digest(self.modes[mode][1], text) if rc == 0 else None
            if value != reference[mode] or self.modes[mode][0] in failed_panels:
                failed.add(i)
        return failed

    def separated_share(self):
        return self.separated / self.PANELS


class SeparatedFits(Workload):
    """All three screens plus the Firth model on separated 32-row panels."""

    PANELS = 20 * len(gen.SEPARATORS)
    #: Firth fits that may end unconverged in one run before the run fails.
    #: At commit d8f2fdaf, 9 of 2,800 seeded panels (0.32%) stop unconverged
    #: at ``fit_firth``'s cap of 100 Newton steps: 0.45 per run of 140
    #: panels, and more than 4 in one run with probability about 1e-4. More
    #: than that marks a regression in convergence.
    MAX_UNCONVERGED = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.workdir = workdir
        self.panels = [gen.separated_panel(seed, index) for index in range(self.PANELS)]
        self.datasets = [dataset.parse_dataset(text) for text, _, _ in self.panels]
        #: Per panel: (any screen fit flagged separation, Firth fit converged).
        self.outcomes: dict[int, tuple[bool, bool]] = {}
        self.unconverged_ops: set[int] = set()

    def op(self, i):
        ds = self.datasets[i % self.PANELS]
        screens = {group: pipeline.run_screen(ds, group) for group in SCREEN_GROUPS}
        return screens, pipeline.fit_final_model(ds)

    def _record(self, panel, screens, final):
        self.outcomes[panel] = (
            any(fit.separation != "none" for screen in screens.values() for _, fit in screen.fits),
            final.converged)

    def check(self, i, out):
        """The separating predictor is flagged, and the Firth coefficients
        are finite with their score within bound. Convergence is judged over
        the whole run by ``finish``."""
        screens, final = out
        panel = i % self.PANELS
        self._record(panel, screens, final)
        if not final.converged and i >= 0:  # i < 0 is the warm-up
            self.unconverged_ops.add(i)
        _, predictor, _ = self.panels[panel]
        flagged = screens[gen.SEPARATOR_GROUP[predictor]].fit_for(predictor).separation
        return (flagged in ("complete", "quasi")
                and not final_model_problems(self.datasets[panel], final))

    def finish(self):
        """Fails every op whose Firth fit ended unconverged when more than
        ``MAX_UNCONVERGED`` panels did. Panels the loop did not reach are
        fitted here."""
        for panel in set(range(self.PANELS)) - self.outcomes.keys():
            self._record(panel, *self.op(panel))
        unconverged = sum(not converged for _, converged in self.outcomes.values())
        self.notes["final_model_unconverged_panels"] = unconverged
        self.notes["final_model_unconverged_ops"] = len(self.unconverged_ops)
        return self.unconverged_ops if unconverged > self.MAX_UNCONVERGED else set()

    def separated_share(self):
        return sum(separated for separated, _ in self.outcomes.values()) / self.PANELS

    def cli_tracebacks(self):
        """The CLI ``fit`` on each separated input; counts uncaught exceptions."""
        outcomes = self.notes["cli_outcomes"] = []
        for index, (text, predictor, mode) in enumerate(self.panels):
            path = self.workdir / f"separated_{index}.csv"
            path.write_text(text, encoding="utf-8")
            argv = ["fit", "--group", gen.SEPARATOR_GROUP[predictor], "--data", str(path)]
            try:
                outcome = f"exit {run_cli(argv)[0]}"
            except Exception as exc:
                outcome = f"raised {type(exc).__name__}: {exc}"
            outcomes.append(f"{predictor} ({mode}): {outcome}")
        return sum(": raised " in outcome for outcome in outcomes)


WORKLOADS = {
    "cold_report": ColdReport,
    "warm_report": WarmReport,
    "large_panel": LargePanel,
    "separated_fits": SeparatedFits,
}


def closed_loop(workload: Workload, seconds: float, first: int, ok: dict[int, bool],
                tracer=None) -> tuple[list[float], list[float], list[list[list]]]:
    """One op at a time for ``seconds``; returns the latencies, each op's
    reference time (the mean of the calibrations just before and after it),
    and the per-op spans."""
    latencies, references, traced_ops = [], [], []
    before = workload.calibrate()
    clock = time.perf_counter
    start = clock()
    i = first
    while clock() - start < seconds:
        t0 = clock()
        try:
            out = workload.op(i)
        except Exception as exc:
            out = exc
        latencies.append(clock() - t0)
        if tracer is not None:
            traced_ops.append(tracer.take())
        ok[i] = not isinstance(out, Exception) and bool(workload.check(i, out))
        if tracer is not None:
            tracer.take()  # spans of the check are not the op's
            if isinstance(out, Exception):
                traced_ops[-1] = []
        after = workload.calibrate()
        references.append((before + after) / 2.0)
        before = after
        i += 1
    return latencies, references, traced_ops


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    warm = workload.op(-1)
    if not workload.check(-1, warm):
        print(f"{args.workload}: warm-up output failed its check", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ok: dict[int, bool] = {}
    latencies, references, _ = closed_loop(workload, args.seconds, 0, ok)
    result = {"latencies": latencies, "references": references}
    if args.trace:
        if workload.in_process:
            tracer = Tracer()
            tracer.install()
        else:  # a cold op's spans come from its child process, via the workload
            tracer = workload
            workload.traced = True
        traced_latencies, traced_references, traced_ops = closed_loop(
            workload, args.seconds, len(latencies), ok, tracer)
        if workload.in_process:
            tracer.uninstall()
        result["traced"] = {
            "latencies": traced_latencies,
            "references": traced_references,
            "layers": summarize(traced_ops),
            "absent": tracer.absent,
            "default_report": default_report_counts(),
        }
    for i in workload.finish() & ok.keys():
        ok[i] = False
    result.update(
        attempted=len(ok),
        failed=sum(not v for v in ok.values()),
        peak_rss_mb=workload.peak_rss_mb(),
        separated_share=workload.separated_share(),
        cli_tracebacks=workload.cli_tracebacks(),
        notes=workload.notes,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": importlib.metadata.version("scipy"),
                  "retailrisk": getattr(retailrisk, "__version__", "unknown")},
        blas=np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown"),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
