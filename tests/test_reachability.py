"""Everything that ``martkit`` defines is reached from outside the tests.

- Every module-level function, class and constant is named by other code of
  the package, exported from ``martkit``, or named by the benchmark's
  tracer or workloads, which wrap or call it from outside.
- Every method is read as an attribute by the package, the tracer or the
  workloads, or wrapped by the tracer.  An attribute read off a module
  (``ito.chen_residual``) names a module-level function, not a method.
- Every defaulted parameter is passed, by keyword or by position, by some
  call in ``src/`` or ``benchmarks/`` other than the function's own
  recursion; a call with ``*`` or ``**`` passes everything.

Exported classes and functions and the registry checks are reached whole:
they are the API, and ``--params`` sets the checks' parameters.  A helper,
a method or a knob that only the tests reach belongs in the tests, apart
from ALLOWED.
"""

import ast
import importlib.util
import re
from pathlib import Path

import martkit
from martkit import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "martkit"
OUTSIDE = (ROOT / "benchmarks" / "tracing.py", ROOT / "benchmarks" / "workloads.py")
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
MODULES = {path.stem for path in SRC.glob("*.py")}

# knobs that a test sets to reach a behaviour cheaply, each with that test
ALLOWED = {
    "cli.main(argv)",  # tests/test_cli.py runs every command in process
    # `martkit sew` and the demos workload pass theta, T and tol only
    "rough.sew(max_level)",  # test_rough.py::test_sew_non_cauchy_raises gives up after 6 levels
    "rough.sew(split)",  # test_acceptance.py::test_criterion_06_sewing_young saturates step paths;
    # test_rough.py::test_sew_default_midpoints_equal_a_midpoint_splitter merges by np.unique
    "rough.sew(seed)",  # test_acceptance.py::test_criterion_06_sewing_young varies the spot checks
    "rough.young_integral(tol)",  # test_rough.py::test_young_identity_half stops at 5e-7; only
    # benchmarks/tracing.py names young_integral, which no command calls
    "ito.refine_converge(r)",  # test_pair_sums.py::test_refine_converge_equals_the_pair_tensor_oracle
    "bellman.induction_values(gamma)",  # test_bellman.py::test_bellman_scans_equal_the_numpy_cumsums at 2.5
}


def names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name that ``node`` mentions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(src: Path, outside: tuple[Path, ...], exported: set[str]) -> list[str]:
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
                used |= names_in(node) - {node.name}  # a definition does not reach itself
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name) and not is_dunder(t.id)]
                used |= names_in(node.value) if node.value is not None else set()
            else:
                used |= names_in(node)
    text = "\n".join(p.read_text() for p in outside)
    return [
        qual
        for qual in defined
        if (name := qual.split(".")[1]) not in used | exported and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def method_reads(tree: ast.Module) -> set[str]:
    """Attributes read off anything but a module."""
    return {
        sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and not (isinstance(sub.value, ast.Name) and sub.value.id in MODULES)
    }


def unreached_methods(exported: set[str]) -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_tracing", OUTSIDE[0])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(mod, owner, attr) for mod, owner, attr, _ in tracing.INSTRUMENTS if owner}
    read = set().union(*(method_reads(tree) for _, tree in modules()))
    read |= set().union(*(method_reads(ast.parse(p.read_text())) for p in OUTSIDE))
    return [
        f"{stem}.{cls.name}.{f.name}"
        for stem, tree in modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in exported
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not is_dunder(f.name)
        and f.name not in read and (stem, cls.name, f.name) not in traced
    ]


def defaulted(args: ast.arguments, skip: int) -> list[tuple[str, int | None]]:
    """(name, index among the positional arguments a caller writes, or None
    for keyword-only) of each parameter with a default."""
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in names_in(d) for d in cls.decorator_list)


def init_fields(cls: ast.ClassDef) -> list[tuple[str, int | None]]:
    """The defaulted parameters of a dataclass's generated ``__init__``."""
    fields = [
        s for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and not (isinstance(s.value, ast.Call) and any(k.arg == "init" for k in s.value.keywords))
    ]
    return [(s.target.id, i) for i, s in enumerate(fields) if s.value is not None]


def signatures(exported: set[str]) -> list[tuple[str, str, list]]:
    """(qualified name, name a call uses, defaulted parameters) of every
    function, method and constructor that is not API."""
    skipped = exported | {check.__name__ for check in checks.REGISTRY.values()}
    out = []
    for stem, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in skipped:
                out.append((f"{stem}.{node.name}", node.name, defaulted(node.args, 0)))
            if not isinstance(node, ast.ClassDef) or node.name in exported:
                continue
            if is_dataclass(node):
                out.append((f"{stem}.{node.name}", node.name, init_fields(node)))
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    out.append((f"{stem}.{node.name}", node.name, defaulted(f.args, 1)))
                elif isinstance(f, ast.FunctionDef) and not is_dunder(f.name):
                    static = any("staticmethod" in names_in(d) for d in f.decorator_list)
                    out.append((f"{stem}.{node.name}.{f.name}", f.name, defaulted(f.args, 0 if static else 1)))
    return out


class Calls(ast.NodeVisitor):
    """(name, positional count, keywords, starred) of every call, skipping
    a function's calls of itself; ``cls(...)`` calls the enclosing class."""

    def __init__(self):
        self.calls, self.functions, self.classes = [], [], []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name == "cls" and self.classes:
            name = self.classes[-1]
        if name is not None and name not in self.functions:
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            self.calls.append((name, len(node.args), {k.arg for k in node.keywords}, starred))
        self.generic_visit(node)


def unpassed(exported: set[str]) -> list[str]:
    visitor = Calls()
    for path in CALLERS:
        visitor.visit(ast.parse(path.read_text()))
    return [
        f"{qual}({param})"
        for qual, name, params in signatures(exported)
        for param, index in params
        if not any(
            starred or param in keywords or (index is not None and n_pos > index)
            for callee, n_pos, keywords, starred in visitor.calls
            if callee == name
        )
    ]


def test_every_module_level_name_is_reached():
    assert unreached(SRC, OUTSIDE, set(martkit.__all__)) == []


def test_every_method_is_reached():
    assert unreached_methods(set(martkit.__all__)) == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert sorted(set(unpassed(set(martkit.__all__))) - ALLOWED) == []


def test_every_allowed_knob_is_still_unpassed():
    # an entry that a caller in src/ or benchmarks/ now passes needs no
    # allowance, and one whose parameter is gone must leave the list
    assert sorted(ALLOWED - set(unpassed(set(martkit.__all__)))) == []
