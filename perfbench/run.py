"""modkit benchmark: end-to-end command timings and a traced per-layer run.

Run from the root of a modkit checkout:

    python3 perfbench/run.py --workload train_cycles --seed 1 --seconds 60 --trace 0

The workload's inputs are generated from ``--seed`` (see corpus_gen.py)
and built by its set-up steps. Then one client runs the workload's
commands one after another, each as its own process (closed loop, one
command at a time), and repeats the whole sequence, followed by one more
set-up, while another round still fits in ``--seconds``; the repeated
set-ups must produce the same bytes. Every command's outputs are
checked. Per command the runner keeps wall time (perf_counter around
the process), user+sys CPU and peak RSS (from that child's own
``os.wait4`` rusage) and reports the median over the passes; ``wall_s``
is the sum of the commands' medians.

The cores of a shared host change speed by up to 1.6x for spells of
seconds to minutes, longer than a run, so raw times of the same code
spread by a quarter between runs. Right before and after every command
and every set-up the runner therefore times ``reference.py``, a fixed
load with the same kind of work (Python start-up, numpy import, text
processing), and normalises: a sample's normalised time is its wall
time times ``REF_NOMINAL_S`` over the mean of the two reference times
around it, i.e. seconds on a host where the reference takes
``REF_NOMINAL_S``. ``wall_norm_s`` is the sum of the commands' median
normalised times and ``setup_s`` the median normalised set-up time; the
raw ``wall_s``, ``setup_raw_s`` and the median ``ref_s`` are in the
table and the report.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced in-process run (see tracer.py). A table of every
metric with unit and sample count comes first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus_gen
import tracer
import workloads
from workloads import WORKLOADS, Command, Inputs, Workload

HERE = Path(__file__).resolve().parent
IMPORT_REPEATS = 5
#: End-to-end metrics in the last line (the per-command ones apply to one
#: workload each, so they are printed in the table only).
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
#: Normalised times are seconds on a host where reference.py takes this
#: long; it is about its time on an uncontended core of a 2.1 GHz Xeon
#: KVM guest.
REF_NOMINAL_S = 0.15
#: Environment fixed for every command (BLAS single-threaded, at most nproc).
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
ENV_KEYS = ("PYTHONPATH", *ENV)
#: Files whose bytes must be identical across the set-up repeats.
SETUP_OUTPUTS = ("corpus/labels.json", "dataset.json", "balanced.json")


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_s: float = float("nan")  # reference.py's wall time around this sample

    @property
    def norm_s(self) -> float:
        """Wall time in seconds of a host where reference.py takes REF_NOMINAL_S."""
        return self.wall_s * REF_NOMINAL_S / self.ref_s


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Runner:
    def __init__(self, root: Path, work: Path, record_digests: bool = False):
        self.root = root
        self.work = work
        self.record_digests = record_digests
        self.env = dict(os.environ)
        self.env.update(ENV, PYTHONPATH=str(root / "src"))
        self.tally = Tally()

    def spawn(self, argv: list[str], log: Path) -> tuple[int, str, Sample]:
        """Run one process to completion; its own rusage gives CPU and RSS."""
        with open(log, "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        return proc.returncode, log.read_text(encoding="utf-8", errors="replace"), sample

    def command_argv(self, cmd: Command, inp: Inputs, out: Path) -> list[str]:
        if cmd.driver:
            return [sys.executable, str(HERE / cmd.driver), *cmd.argv(inp, out)]
        return [sys.executable, "-m", "modkit.cli", *cmd.argv(inp, out)]

    def reference(self) -> float:
        """Wall time of one run of reference.py: the host's current speed."""
        code, stdout, sample = self.spawn([sys.executable, str(HERE / "reference.py")], self.work / "reference.log")
        if code != 0:
            raise RuntimeError(f"reference.py: exit code {code}: {stdout.strip()[-300:]}")
        return sample.wall_s

    def run_command(self, cmd: Command, inp: Inputs, out: Path) -> Sample | None:
        code, stdout, sample = self.spawn(self.command_argv(cmd, inp, out), out / f"{cmd.name}.log")
        if code != 0:
            self.tally.record([f"{cmd.name}: exit code {code}: {stdout.strip()[-300:]}"])
            return None
        self.tally.record(workloads.check_outputs(cmd, inp, out, stdout))
        return sample

    def setup(self, wl: Workload, seed: int, rep: int) -> tuple[Inputs, Sample]:
        """Generate the corpus and run the set-up commands into ``setup_<rep>``;
        the sample holds the set-up's wall time and the reference around it."""
        rep_dir = self.work / f"setup_{rep}"
        rep_dir.mkdir(parents=True)
        ref = self.reference()
        started = time.perf_counter()
        meta = corpus_gen.generate(rep_dir / "corpus", seed, wl.scale)
        inp = Inputs(seed, rep_dir / "corpus", meta, rep_dir, self.record_digests)
        for cmd in wl.setup:
            if self.run_command(cmd, inp, rep_dir) is None:
                raise RuntimeError(f"set-up step {cmd.name} failed: {self.tally.problems}")
        wall = time.perf_counter() - started
        return inp, Sample(wall, float("nan"), float("nan"), (ref + self.reference()) / 2)

    def setup_again(self, wl: Workload, inp: Inputs, rep: int) -> Sample:
        """Set up once more, check the outputs match ``inp``'s byte for byte,
        and discard them."""
        again, sample = self.setup(wl, inp.seed, rep)
        same = again.meta == inp.meta and _setup_digests(again) == _setup_digests(inp)
        self.tally.record([] if same else ["set-up outputs differ between repeats"])
        shutil.rmtree(again.setup_dir)
        return sample

    def timed_passes(self, wl: Workload, inp: Inputs, seconds: float, label: str,
                     setups: list[Sample] | None = None) -> list[dict[str, Sample]]:
        """Run the command sequence while another pass fits in ``seconds``.

        Every command is framed by runs of the reference. With ``setups``,
        each pass is followed by one more set-up, whose sample is appended
        there: set-up is then sampled over the same window as the commands.
        """
        passes: list[dict[str, Sample]] = []
        started = time.perf_counter()
        while True:
            out = self.work / f"{label}_{len(passes)}"
            out.mkdir()
            samples = {}
            ref = self.reference()
            for cmd in wl.commands:
                sample = self.run_command(cmd, inp, out)
                after = self.reference()
                if sample is not None:
                    sample.ref_s = (ref + after) / 2
                    samples[cmd.name] = sample
                ref = after
            passes.append(samples)
            shutil.rmtree(out)
            if setups is not None:
                setups.append(self.setup_again(wl, inp, len(passes)))
            per_pass = (time.perf_counter() - started) / len(passes)
            if time.perf_counter() - started + per_pass > seconds:
                return passes

    def import_time(self) -> float:
        argv = [sys.executable, "-m", "modkit.cli", "--version"]
        walls = []
        for _ in range(IMPORT_REPEATS):
            code, _out, sample = self.spawn(argv, self.work / "version.log")
            self.tally.record([] if code == 0 else ["modkit --version failed"])
            walls.append(sample.wall_s)
        return statistics.median(walls)


def _setup_digests(inp: Inputs) -> dict[str, str]:
    return workloads.file_digests(inp.setup_dir, [n for n in SETUP_OUTPUTS if (inp.setup_dir / n).is_file()])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(wl: Workload, setups: list[Sample], passes: list[dict[str, Sample]]) -> dict:
    """Every end-to-end metric as {name: (value, unit, samples)}."""
    def samples(cmd: Command, field: str) -> list[float]:
        return [getattr(p[cmd.name], field) for p in passes if cmd.name in p]

    n_setups = len(setups)
    out = {
        "setup_s": (_median([s.norm_s for s in setups]), "s", n_setups),
        "setup_raw_s": (_median([s.wall_s for s in setups]), "s", n_setups),
    }
    # per-command medians first, so a slow spell in one command of a pass
    # does not move the whole pass
    walls = {cmd.name: _median(samples(cmd, "wall_s")) for cmd in wl.commands}
    out["wall_norm_s"] = (sum(_median(samples(cmd, "norm_s")) for cmd in wl.commands), "s", len(passes))
    out["wall_s"] = (sum(walls.values()), "s", len(passes))
    out["peak_rss_mb"] = (max(_median(samples(cmd, "rss_mb")) for cmd in wl.commands), "MB", len(passes))
    for cmd in wl.commands:
        n = len(samples(cmd, "wall_s"))
        out[f"{cmd.name}_s"] = (walls[cmd.name], "s", n)
        out[f"{cmd.name}_cpu_s"] = (_median(samples(cmd, "cpu_s")), "s", n)
    refs = [s.ref_s for s in setups] + [s.ref_s for p in passes for s in p.values()]
    out["ref_s"] = (_median(refs), "s", len(refs))
    return out


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def run_workload(root: Path, wl: Workload, seed: int, seconds: float, trace: bool,
                 record_digests: bool = False) -> dict:
    work = root / ".bench_work" / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(root, work, record_digests)
    result = {"workload": wl.name, "why": wl.why, "seed": seed, "scale": wl.scale, "machine": machine_info(),
              "env": {key: runner.env[key] for key in ENV_KEYS}}
    try:
        inp, first_setup = runner.setup(wl, seed, 0)
        result["digests_recorded"] = not workloads.unchecked_digests(wl, inp)
        if not trace:
            setups = [first_setup]
            passes = runner.timed_passes(wl, inp, seconds, "pass", setups)
            metrics = end_to_end(wl, setups, passes)
            result["passes"] = len(passes)
            result["samples"] = {"setup": [{"wall_s": s.wall_s, "ref_s": s.ref_s} for s in setups],
                                 **{name: [vars(p[name]) for p in passes if name in p] for name in passes[0]}}
        else:
            import_s = runner.import_time()
            (walls,) = runner.timed_passes(wl, inp, 0, "untraced")
            traced = tracer.run_traced(runner, wl, inp)
            metrics = tracer.layer_metrics(traced, walls, import_s)
            result["spans"] = tracer.span_summary(traced["spans"])
            result["moves"] = tracer.MOVES
        result["metrics"] = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"] = runner.tally.attempted
    result["failed"] = runner.tally.failed
    result["problems"] = runner.tally.problems
    return result


def print_table(result: dict) -> None:
    print(f"# workload {result['workload']} seed={result['seed']} scale={result['scale']} "
          f"passes={result.get('passes', 1)} attempted={result['attempted']} failed={result['failed']}")
    print(f"# why: {result['why']}")
    print("# load: closed loop, one client, one command process at a time")
    print(f"# machine: {json.dumps(result['machine'])}")
    print(f"# env: {json.dumps(result['env'])}")
    for command, spans in result.get("spans", {}).items():
        if spans["cycles_s"]:
            print(f"# traced cycles of {command}: " + " ".join(f"{s:.3f}" for s in spans["cycles_s"]) + " s")
    if not result["digests_recorded"]:
        print(f"# no analyze digests recorded for seed {result['seed']} at scale {result['scale']}: "
              "the CSVs are checked against the recount only")
    for problem in result["problems"]:
        print(f"# FAILED CHECK: {problem}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"{'failed_frac':32s} {failed_frac:14.6g} {'ratio':8s} n={result['attempted']}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:32s} {value:14.6g} {unit:8s} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="modkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None, help="override every workload's corpus scale")
    parser.add_argument("--report", default=None, help="also write the full result as JSON here")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the analyze output digests of this seed and scale in digests.json")
    args = parser.parse_args(argv)

    # a terminated run still kills its running command and removes its files
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "modkit" / "cli.py").is_file():
        print("error: run from the root of a modkit checkout (src/modkit/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the analyze check recounts with modkit.textprep
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        wl = WORKLOADS[name]
        if args.scale is not None:
            wl = Workload(wl.name, args.scale, wl.why, wl.setup, wl.commands)
        try:
            result = run_workload(root, wl, args.seed, args.seconds, bool(args.trace), args.record_digests)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_table(result)
        results.append(result)
    if args.report:
        Path(args.report).write_text(json.dumps(results, indent=1), encoding="utf-8")

    declared = tracer.PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name in declared:
            value, unit, _n = result["metrics"][name]
            metrics[prefix + name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
