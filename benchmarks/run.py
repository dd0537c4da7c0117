#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``preisach`` CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload grid-deep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30   # every workload, both modes

``--trace 0`` drives the CLI of ``src/`` as child processes (one at a time,
each with one BLAS/OpenMP thread), repeating a set-up probe and the
workload's session of CLI calls for ``--seconds``, and reports the
end-to-end metrics as medians over sessions. ``--trace 1`` runs the same
session once through the CLI and then, for ``--seconds``, in this process
with spans around the calls into each module (``tracing.py``), and reports
the per-layer metrics.

Inputs are generated from ``--seed`` before any timing (``fixtures.py``).
Every output file is checked against an independent numpy oracle
(``oracle.py``); a call that exits non-zero or writes a wrong output counts
as failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every CLI child; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import oracle  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SESSIONS = 3
RUN_LIMIT_S = 150  # hung CLI calls are killed so that a run ends within 180 s
IMPORT_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import preisach.cli; "
                "print(time.perf_counter() - t)")


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv: list[str], log: Path, timeout: int) -> tuple[int, float, float]:
    """(exit code, wall seconds, max RSS in MB) of one CLI process; stdout to ``log``."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "preisach.cli", *argv],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_times() -> list[float]:
    """Seconds to import the CLI module in fresh interpreters."""
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
        if proc.returncode == 0:
            out.append(float(proc.stdout))
    return out


def summary(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"median {q2:.6g}  IQR {q1:.6g}..{q3:.6g}  n {len(values)}"


class Bench:
    """One workload at one seed: its generated inputs, oracle values and counters."""

    def __init__(self, name: str, seed: int):
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.wl = fixtures.generate(name, seed, self.work)
        self.out_dir = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        rng = np.random.default_rng([seed, 1])
        models: dict = {}
        self.expected = {}
        for inv in self.wl.setup + self.wl.session:
            if inv.model not in models:
                models[inv.model] = self._oracle_model(inv.model)
            self.expected[inv.name] = oracle.Expected(models[inv.model], fixtures.START,
                                                      inv, rng, self.wl.loop)

    def _oracle_model(self, kind: str) -> oracle.Model:
        files = self.wl.files
        if kind == "direct":
            return oracle.direct_model(files["agents"])
        if kind == "grid":
            return oracle.grid_model(files["agents"], fixtures.GRID_N, fixtures.GRID_BOUNDS)
        if kind == "shifted":
            return oracle.shifted_model(files["shift"])
        return oracle.soft_model(files["agents"])

    def record(self, inv, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{inv.name}: {problem}")

    def output_problem(self, inv, path) -> str | None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            return f"no output: {exc}"
        return self.expected[inv.name].check(text)

    def call(self, inv) -> tuple[float, float]:
        """Run one CLI call and check its output; (wall seconds, max RSS MB)."""
        timeout = max(1, int(self.kill_at - time.monotonic()))
        code, wall, rss = run_cli(inv.argv, self.out_dir / f"{inv.name}.log", timeout)
        self.record(inv, f"exit code {code}" if code else self.output_problem(inv, inv.out))
        return wall, rss

    def session(self) -> tuple[float, float, float]:
        """(session seconds, simulated samples per second, max RSS MB)."""
        total = sim_wall = rss = 0.0
        samples = 0
        for inv in self.wl.session:
            wall, r = self.call(inv)
            total += wall
            rss = max(rss, r)
            if inv.kind == "simulate":
                sim_wall += wall
                samples += inv.samples
        return total, samples / sim_wall, rss

    def self_test(self) -> None:
        """The oracle must catch one corrupted row of a real simulate output."""
        inv = next(i for i in self.wl.session if i.kind == "simulate")
        try:
            problem = oracle.self_test(self.expected[inv.name], Path(inv.out).read_text())
        except OSError as exc:
            problem = f"no output to test with: {exc}"
        if problem is not None:
            self.problems.append(f"oracle self-test: {problem}")

    def measure(self, seconds: float) -> dict:
        self.call(self.wl.setup[0])  # warm-up: bytecode cache and page cache
        setups, sessions, rates, rss = [], [], [], 0.0
        deadline = time.perf_counter() + seconds
        while len(sessions) < MIN_SESSIONS or time.perf_counter() < deadline:
            setup = 0.0
            for inv in self.wl.setup:
                wall, r = self.call(inv)
                setup += wall
                rss = max(rss, r)
            session_s, rate, r = self.session()
            if len(sessions) == 0:
                self.self_test()
            setups.append(setup)
            sessions.append(session_s)
            rates.append(rate)
            rss = max(rss, r)
        name = self.wl.name
        print(f"{name} session_s {summary(sessions)} s")
        print(f"{name} samples_per_s {summary(rates)} 1/s")
        print(f"{name} setup_s {summary(setups)} s")
        print(f"{name} peak_rss_mb {rss:.6g} MB")
        print(f"{name} error_rate {self.failed / self.attempted:.6g} ratio "
              f"({self.failed} of {self.attempted} CLI calls)")
        return {
            "session_s": (statistics.median(sessions), "s"),
            "samples_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def trace(self, seconds: float) -> dict:
        self.call(self.wl.setup[0])  # warm-up: bytecode cache and page cache
        reference, _, _ = self.session()
        self.self_test()
        imports = import_times()

        sys.path.insert(0, str(SRC))
        import tracing
        from preisach import cli

        trace_dir = self.work / "trace"
        trace_dir.mkdir()
        tracer = tracing.Tracer()
        walls = []
        deadline = time.perf_counter() + seconds
        # An in-process call cannot be killed: trace only a program whose CLI run passed.
        with tracer.patched():
            while self.failed == 0 and (not walls or time.perf_counter() < deadline):
                start = time.perf_counter()
                captured = []
                for inv in self.wl.session:
                    argv = [a.replace(str(self.out_dir), str(trace_dir)) for a in inv.argv]
                    stdout = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(stdout):
                            code = cli.main(argv)
                    except Exception:  # a crash is a failed call, like a crashed child
                        traceback.print_exc()
                        code = "raised"
                    captured.append((inv, code, stdout.getvalue()))
                walls.append(time.perf_counter() - start)
                for inv, code, text in captured:
                    self.record(inv, f"exit code {code}" if code else self.same_as_cli(inv, text))
                for path in trace_dir.iterdir():
                    if path.read_bytes() != (self.out_dir / path.name).read_bytes():
                        self.problems.append(f"traced {path.name} differs from the CLI's")
        tracer.write(self.work / "spans.csv")

        m = tracing.layer_metrics(tracer, max(1, len(walls)))
        m.update(tracing.fingerprint(self.wl.session, fixtures.START))
        m["cli.import_s.p50"] = (statistics.median(imports) if imports else 0.0, "s")
        m["cli.import_s.n"] = (len(imports), "count")
        m["fileio.rows_written"] = (sum(
            len(p.read_text().splitlines()) - 1 for p in trace_dir.glob("*.csv")), "count")
        m["trace.overhead_ratio"] = (statistics.median(walls) / reference if walls else 0.0,
                                     "ratio")
        for key in sorted(m):
            print(f"{self.wl.name} {key} {m[key][0]:.6g} {m[key][1]}")
        return m

    def same_as_cli(self, inv, stdout: str) -> str | None:
        """A traced call must print what the CLI printed and write a correct output."""
        if stdout != (self.out_dir / f"{inv.name}.log").read_text(encoding="utf-8"):
            return "traced stdout differs from the CLI's"
        return self.output_problem(inv, self.work / "trace" / Path(inv.out).name)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in fixtures.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                return proc.returncode or 1
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for key, val in res["metrics"].items():
                metrics[f"{name}/{key}"] = (val["value"], val["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*fixtures.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "preisach" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'preisach' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    bench = Bench(args.workload, args.seed)
    metrics = bench.trace(args.seconds) if args.trace else bench.measure(args.seconds)
    for problem in bench.problems:
        print(f"error: {problem}", file=sys.stderr)
    print(result_line(not bench.problems, bench.attempted, bench.failed, metrics))
    return 1 if bench.problems else 0


if __name__ == "__main__":
    sys.exit(main())
