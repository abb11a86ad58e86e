#!/usr/bin/env python3
"""Check that the numpy-free commands write the same bytes under other Pythons.

    python tools/cross_version.py PYTHON [PYTHON ...]

The running interpreter trains one NB run (ML emoji mode, all five
steps, seed 7, 3 cycles) on the committed separable fixture and the
10-comment fixture, exactly as ``tools/make_fixtures.py`` trains the
golden ``run_nb_ml``. Then the running interpreter and each given one
run, from ``src/`` with the bundled tables, ``ingest --lexicon``,
``balance``, ``analyze``, that NB training on the dataset they ingested,
and test-fold ``eval`` and ``eval --full`` of the running interpreter's
run. Every file they write but the run's ``manifest.json``, whose
``timings`` always differ, and every command's stdout is compared byte
for byte with the running interpreter's. The running interpreter's
``tfidf.json``, ``model.json``, ``train_report.json`` and test-fold
``eval_report.json`` are also compared with the golden ones.

Exit 0 when everything agrees; exit 1 naming each output that differs,
or the command that failed; exit 2 when an interpreter does not run. The
given interpreters need neither numpy nor pytest: NB training, like
every command here, loads no numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from make_fixtures import DATA, golden_run, golden_train_argv, golden_trees  # noqa: E402

GOLDEN = DATA / "golden" / "run_nb_ml"


def commands(work: Path, run_dir: Path) -> dict[str, list[str]]:
    """Each command's arguments; outputs are relative to the working directory."""
    lexicon = ROOT / "src" / "modkit" / "data" / "lexicon_sample.tsv"
    return {
        "ingest": ["ingest", *map(str, golden_trees()), "--labels", str(work / "labels.json"),
                   "--lexicon", str(lexicon), "--out", "dataset.json"],
        "balance": ["balance", "--dataset", "dataset.json", "--seed", "5", "--out", "balanced.json"],
        "analyze": ["analyze", "--dataset", "dataset.json", "--out", "charts"],
        "train": golden_train_argv("nb", "ml", "dataset.json", "runs"),
        "eval": ["eval", "--run", str(run_dir), "--dataset", "dataset.json", "--out", "eval"],
        "eval_full": ["eval", "--run", str(run_dir), "--dataset", "dataset.json", "--full",
                      "--out", "eval_full"],
    }


def run_all(python: str, out: Path, argvs: dict[str, list[str]]) -> tuple[dict[str, bytes], str]:
    """Run every command under ``python`` in ``out``; each output's bytes by
    name, run manifests left out, and the first failure ("" when none failed)."""
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("MODKIT_DATA_DIR", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    outputs: dict[str, bytes] = {}
    for name, argv in argvs.items():
        proc = subprocess.run([python, "-m", "modkit.cli", *argv], cwd=out, env=env,
                              capture_output=True)
        if proc.returncode:
            err = proc.stderr.decode("utf-8", "replace").strip().splitlines()
            return outputs, f"{name} exited {proc.returncode}: {err[-1] if err else ''}"
        outputs[f"stdout of {name}"] = proc.stdout
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            outputs[path.relative_to(out).as_posix()] = path.read_bytes()
    return outputs, ""


def label(python: str) -> str:
    """``python`` and its version; exit 2 when it does not run."""
    args = [python, "-c", "import platform; print(platform.python_version())"]
    try:
        version = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"cannot run {python}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return f"{python} ({version.strip()})"


def main(pythons: list[str]) -> int:
    if not pythons:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    labels = [label(python) for python in pythons]
    with tempfile.TemporaryDirectory(prefix="modkit-cross-") as tmp:
        work = Path(tmp)
        run_dir = golden_run("nb", "ml", work / "train")
        argvs = commands(work / "train", run_dir)
        reference, failure = run_all(sys.executable, work / "reference", argvs)
        if failure:
            print(f"{sys.executable}: {failure}")
            return 1
        differing = 0
        golden = [name for name in reference if name.startswith("runs/")] + ["eval/eval_report.json"]
        for name in golden:
            if reference[name] != (GOLDEN / Path(name).name).read_bytes():
                print(f"{sys.executable}: {name} differs from {GOLDEN / Path(name).name}")
                differing += 1
        print(f"reference {label(sys.executable)}: {len(reference)} outputs")
        for i, (python, name) in enumerate(zip(pythons, labels)):
            outputs, failure = run_all(python, work / f"python_{i}", argvs)
            names = sorted(reference.keys() | outputs.keys())
            bad = [output for output in names if outputs.get(output) != reference.get(output)]
            if failure:
                print(f"{name}: {failure}")
                differing += 1
            elif bad:
                print(f"{name}: {len(bad)} of {len(names)} outputs differ: {', '.join(bad)}")
                differing += len(bad)
            else:
                print(f"{name}: all {len(names)} outputs byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
