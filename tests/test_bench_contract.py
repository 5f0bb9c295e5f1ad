"""The traced benchmark run substitutes package attributes by name, so every
name it wraps must still exist where it looks it up."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from martkit import checks
from martkit import functionals as fn
from martkit import generators as G
from martkit.report import CorpusSpec
from martkit.tree import FiltrationTree

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


def test_lepingle_check_calls_its_kernels_once_per_trial(monkeypatch):
    # keeps the traced lepingle and variation buckets one call per unit of work
    calls = Counter()

    def counting(name):
        real = getattr(fn, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("lepingle_pathwise_bound", "variation_paths"):
        monkeypatch.setattr(fn, name, counting(name))
    checks.check_lepingle(CorpusSpec(kind="walk", depth=5, trials=4, seed=3), r=(2.5, 3.0, 4.0))
    assert calls == {"lepingle_pathwise_bound": 4, "variation_paths": 12}


def test_mixed_corpus_builds_each_dyadic_shape_once(monkeypatch):
    # keeps the traced tree.build_* numbers a count of irregular trees
    calls = Counter()
    real_init, real_increment = FiltrationTree.__init__, G.gen_increment

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        real_init(self, *args, **kwargs)

    def counting_increment(*args, **kwargs):
        calls["increment"] += 1
        return real_increment(*args, **kwargs)

    monkeypatch.setattr(FiltrationTree, "__init__", counting_init)
    monkeypatch.setattr(G, "gen_increment", counting_increment)
    spec = CorpusSpec(kind="mixed", depth=8, trials=100, seed=5)
    for _ in spec.martingales():
        pass
    assert calls["increment"] == 30
    assert calls["increment"] <= calls["init"] <= calls["increment"] + 7
    calls.clear()
    for _ in spec.martingales():
        pass
    assert calls == {"init": 30, "increment": 30}
