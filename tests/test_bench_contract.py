"""The traced benchmark run substitutes package attributes by name, so every
name it wraps must still exist where it looks it up."""

import importlib
import importlib.util
from pathlib import Path

from martkit import checks

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    tracing = load_tracing()
    missing = []
    for mod_name, owner_name, attr, _bucket in tracing.INSTRUMENTS:
        module = importlib.import_module(f"martkit.{mod_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}.{owner_name or ''}.{attr}")
    assert missing == []


def test_traced_checks_are_registered():
    assert set(load_tracing().CHECK_NAMES) <= set(checks.REGISTRY)
