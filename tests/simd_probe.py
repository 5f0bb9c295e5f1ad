"""Run a probe script at each SIMD level numpy dispatches to.

numpy picks its kernels at import time from the CPU features that
``NPY_DISABLE_CPU_FEATURES`` leaves on, so a test that must read the same
floats at every level runs its probe once per level in a fresh interpreter.
``run_probe(code, disabled)`` runs ``code`` with one BLAS thread and with
``src`` and ``tests`` on the path, and returns the JSON value that the last
line of its output holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

# NPY_DISABLE_CPU_FEATURES values: native, AVX-512 off, AVX-512 and AVX2 off
SIMD_LEVELS = ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")

ROOT = Path(__file__).resolve().parents[1]


def run_probe(code: str, disabled: str):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (disabled, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])
