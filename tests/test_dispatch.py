"""How far byte-for-byte reaches across numpy's CPU dispatch paths and
OpenBLAS's cores.

numpy picks the SIMD kernels of ``exp``, ``log`` and ``log1p`` at import,
and the kernels of different targets may round differently. Trained with
and without numpy's widest targets, a run keeps its TF-IDF and its report
byte for byte, and its weights within 1e-12 relative. OpenBLAS picks a
core for the CPU at load, and its cores sum a ``ddot`` in different
orders; no step of a run calls BLAS, so a run is byte-identical under any
core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modkit import cli

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

#: The dispatch targets the second run turns off.
WIDE = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

#: Prints the WIDE targets numpy uses, then trains ``argv[2:]`` per model.
CHILD = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from modkit import cli
print(" ".join(f for f in sys.argv[1].split() if __cpu_features__.get(f)), flush=True)
for model in ("nb", "lr"):
    if cli.main([*sys.argv[2:], "--model", model, "--out", model]):
        sys.exit(1)
"""

#: Prints the bits of ``v @ v`` for seeded vectors of 2 to 64 entries.
DDOT_PROBE = """
import random
import numpy as np
rng = random.Random(0)
vectors = [np.array([rng.random() for _ in range(n)]) for n in range(2, 65)]
print(b"".join((v @ v).tobytes() for v in vectors).hex())
"""

STEPS = '["lowercasing","emoji_encoding","punctuation_removal","stopword_removal","lemmatization"]'

#: The environment variables that pick numpy's SIMD targets and OpenBLAS's
#: core; a child inherits none of them, only those it is given.
PICKERS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def child(work: Path, *args: str, **pickers: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key not in PICKERS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=work, env={**env, **pickers},
        capture_output=True, text=True, timeout=120,
    )


def train_both(work: Path, dataset: Path, **pickers: str) -> tuple[str, dict[str, Path]]:
    """nb and lr trained in a child given the ``pickers`` environment
    variables: the WIDE targets the child used, and each model's run
    directory."""
    work.mkdir()
    argv = ["train", "--dataset", str(dataset), "--cycles", "3", "--seed", "2", "--set", f"steps={STEPS}"]
    proc = child(work, "-c", CHILD, " ".join(WIDE), *argv, **pickers)
    assert proc.returncode == 0, proc.stderr[-2000:]
    runs = {model: next((work / model).iterdir()) for model in ("nb", "lr")}
    return proc.stdout.splitlines()[0], runs


def assert_close(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert (np.abs(got - expected) <= 1e-12 * np.abs(expected)).all()


def test_runs_agree_without_the_widest_dispatch_targets(tmp_path, separable_paths):
    targets = [f for f in WIDE if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    if not targets:
        pytest.skip(
            f"numpy {np.__version__} on this host dispatches none of {', '.join(WIDE)}; "
            "with nothing to turn off, both runs would take the same path"
        )
    trees, labels = separable_paths
    dataset = tmp_path / "dataset.json"
    ingest = ["ingest", *map(str, trees), "--labels", str(labels), "--out", str(dataset)]
    assert cli.main(ingest) == 0
    wide_used, wide = train_both(tmp_path / "wide", dataset)
    narrow_used, narrow = train_both(
        tmp_path / "narrow", dataset, NPY_DISABLE_CPU_FEATURES=" ".join(targets)
    )
    assert wide_used.split() == targets
    assert narrow_used == ""
    for model in ("nb", "lr"):
        for name in ("tfidf.json", "train_report.json"):
            assert (wide[model] / name).read_bytes() == (narrow[model] / name).read_bytes()
        got, expected = (json.loads((runs[model] / "model.json").read_text()) for runs in (narrow, wide))
        if model == "nb":
            for field in ("log_prior", "log_likelihood"):
                assert_close(np.array(list(got[field].values())), np.array(list(expected[field].values())))
        else:
            assert_close(np.array(got["weights"]), np.array(expected["weights"]))
            assert_close(np.array([got["bias"]]), np.array([expected["bias"]]))


def test_runs_are_byte_identical_under_two_openblas_cores(tmp_path, separable_paths):
    probes = [
        child(tmp_path, "-c", DDOT_PROBE, **pickers) for pickers in ({}, {"OPENBLAS_CORETYPE": "Haswell"})
    ]
    if any(probe.returncode for probe in probes):
        pytest.skip(f"a ddot probe did not run here: {[p.stderr[-300:] for p in probes]}")
    if probes[0].stdout == probes[1].stdout:
        pytest.skip(
            f"numpy {np.__version__} computes the same ddot bits with and without "
            "OPENBLAS_CORETYPE=Haswell here (its BLAS picks no core at run time, or Haswell "
            "is the core it picks), so the two runs could not differ"
        )
    trees, labels = separable_paths
    dataset = tmp_path / "dataset.json"
    ingest = ["ingest", *map(str, trees), "--labels", str(labels), "--out", str(dataset)]
    assert cli.main(ingest) == 0
    _, default = train_both(tmp_path / "default", dataset)
    _, haswell = train_both(tmp_path / "haswell", dataset, OPENBLAS_CORETYPE="Haswell")
    for model in ("nb", "lr"):
        for name in ("model.json", "tfidf.json", "train_report.json"):
            got, expected = ((runs[model] / name).read_bytes() for runs in (haswell, default))
            assert got == expected, (model, name)
