"""Command-line harness: corpus generation, inequality suites, and the
rough/Ito/Bellman demos.

Exit codes: 0 all assertions hold, 1 at least one violation, 2 usage or
configuration error, an RDE outside the local solution theory
(``rough.RdeError``) or a run out of memory.  Stochastic commands demand an
explicit --seed; reruns with identical arguments produce byte-identical
outputs except for the runtime_ms fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import bellman, checks, generators, ito, rough
from .report import CheckReport, CorpusSpec, validate_report_dict
from .tree import Martingale, TreeError, load_tree, save_tree


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".martkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


@dataclass
class FileCorpus:
    """Corpus read from a tree JSON file; processes are taken as given so
    that planted violations reach the checks instead of the loader."""

    martingale_list: list
    seed: int = 0
    width = 0  # tree JSON holds scalar processes only

    @property
    def trials(self) -> int:
        return len(self.martingale_list)

    def martingales(self):
        yield from self.martingale_list

    def rng(self, index: int):
        return generators.rng_for(self.seed, index)


def _corpus_from_args(args) -> CorpusSpec | FileCorpus:
    if getattr(args, "corpus_file", None):
        tree, procs = load_tree(args.corpus_file)
        if not procs:
            raise ValueError("corpus file contains no processes")
        marts = [Martingale.from_flat(tree, p.flat) for p in procs.values()]
        return FileCorpus(marts, seed=args.seed or 0)
    if args.seed is None:
        raise ValueError("--seed is required for generated corpora")
    return CorpusSpec(
        kind=args.kind, depth=args.depth, trials=args.trials, seed=args.seed, dist=args.dist, width=args.width
    )


def cmd_gen(args) -> int:
    if args.dist is not None and args.gen in generators.GENERATORS and args.gen not in generators.DRAWING:
        raise ValueError(f"generator {args.gen!r} takes no --dist")
    mart = generators.generate(args.gen, args.depth, args.seed, args.dist or "normal")
    save_tree(args.out, mart.tree, {"f": mart})
    print(f"wrote {args.out}: depth={mart.tree.depth} leaves={mart.tree.n_leaves}")
    return 0


def cmd_check(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {args.params}")
    corpus = _corpus_from_args(args)
    report = checks.run_check(args.name, corpus, **params)
    payload = report.to_dict()
    validate_report_dict(payload)
    _emit(args.out, payload)
    print(f"{report.check}: trials={report.trials} violations={report.violations} worst={report.worst_ratio:.6g}")
    return 0 if report.violations == 0 else 1


def cmd_suite(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"suite configuration must be a JSON object, got {config!r}")
        entries = config.get("checks", [])
        seed = args.seed if args.seed is not None else config.get("seed")
    elif args.default:
        if args.seed is None:
            raise ValueError("--seed is required with --default")
        entries = checks.default_suite(seed=args.seed, trials_scale=args.scale)
        seed = args.seed
    else:
        raise ValueError("either --config or --default is required")
    if not entries:
        raise ValueError("suite configuration has no checks")
    if not isinstance(entries, list):
        raise ValueError(f"suite checks must be a JSON list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"suite entry must be a JSON object, got {entry!r}")
        unknown = sorted(set(entry) - {"check", "params", "corpus"})
        if unknown:
            raise ValueError(f"unknown suite entry keys {unknown}")
        for key in ("params", "corpus"):
            if not isinstance(entry.get(key, {}), dict):
                raise ValueError(f"suite entry {key} must be a JSON object, got {entry[key]!r}")
    reports: list[CheckReport] = []
    for entry in entries:
        name = entry["check"]
        corpus_cfg = dict(entry.get("corpus", {}))
        if seed is not None and "seed" not in entry.get("corpus", {}):
            corpus_cfg["seed"] = seed
        spec = CorpusSpec.from_dict(corpus_cfg)
        reports.append(checks.run_check(name, spec, **entry.get("params", {})))
    payload = {
        "all_pass": all(r.violations == 0 for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    for r in payload["reports"]:
        validate_report_dict(r)
    _emit(args.out, payload)
    for r in reports:
        status = "ok" if r.violations == 0 else "VIOLATED"
        print(f"{r.check:22s} {status:9s} trials={r.trials:6d} worst={r.worst_ratio:.6g} hyp_fail={r.hypothesis_failures}")
    return 0 if payload["all_pass"] else 1


def _parse_phi(text: str) -> tuple[rough.SmoothFunction, str, float]:
    name, _, arg = text.partition(":")
    if name == "sin" and arg:
        raise ValueError(f"coefficient {text!r}: sin takes no argument")
    a = float(arg) if arg else 1.0
    if not math.isfinite(a):
        raise ValueError(f"coefficient {text!r} must be finite")
    if name == "linear":
        return rough.linear_coefficient(a, box=8.0), "linear", a
    if name in ("const", "constant"):
        return rough.constant_coefficient(a), "const", a
    if name == "sin":
        return rough.scalar_coefficient(np.sin, np.cos, lambda y: -np.sin(y), box=8.0), "sin", a
    raise ValueError(f"unknown coefficient {text!r} (use linear[:a], const[:c], sin)")


def cmd_rde(args) -> int:
    phi, phi_name, coeff = _parse_phi(args.phi)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    for name in ("y0", "amplitude", "T"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")
    if args.driver == "line":
        driver = rough.rough_line(args.T, args.n, r=args.r)
    elif args.driver == "walk":
        if args.seed is None:
            raise ValueError("--seed is required for the walk driver")
        rng = generators.rng_for(args.seed)
        step = args.amplitude / math.sqrt(args.n)
        vals = np.concatenate([[0.0], np.cumsum(rng.choice([-step, step], size=args.n))])
        path = rough.SampledPath(np.linspace(0.0, args.T, args.n + 1), vals, "step")
        driver = rough.lift(path, r=args.r)
    elif args.driver.startswith("csv:"):
        path = rough.read_driver_csv(args.driver[4:])
        if path.dim != 1:
            raise ValueError(f"--driver {args.driver!r}: CSV column count {path.dim + 1}, but every --phi takes t and one driver column")
        driver = rough.lift(path, r=args.r)
    else:
        raise ValueError(f"unknown driver {args.driver!r}")
    sol = rough.rde_solve(phi, driver, args.y0)
    diag = {
        "iterations": sol.iterations,
        "final_metric": sol.final_metric,
        "subdivisions": sol.subdivisions,
        "error_bound": rough.zeta_sum(3.0 / args.r) * sum(sol.driver_norms),
        "metric_strictly_decreasing": sol.strictly_decreasing(),
    }
    sup_err = None
    t = driver.times
    if phi_name == "linear" and args.driver == "line":
        sup_err = float(np.abs(sol.path.values - args.y0 * np.exp(coeff * t)).max())
    elif phi_name == "const":
        sup_err = float(np.abs(sol.path.values - (args.y0 + coeff * (driver.path.values[:, 0] - driver.path.values[0, 0]))).max())
    if sup_err is not None:
        diag["sup_error_vs_oracle"] = sup_err
        print(f"sup-error vs closed-form solution: {sup_err:.3e}")
    print(f"iterations={sol.iterations} subdivisions={sol.subdivisions} final_metric={sol.final_metric:.3e}")
    _emit(args.out, diag)
    return 0


def cmd_ito(args) -> int:
    g = ito.GridCadlagPath.sampled_walk(args.steps, args.paths, seed=args.seed, T=args.T)
    full = ito.AdaptedGridPartition.full(g)
    cov = ito.covariation_sum(g, g, full, 0, args.steps)
    base = ito.AdaptedGridPartition.from_oscillation(g, args.eps)
    ibp = ito.integration_by_parts_residual(g, g, base, 0, args.steps)
    chen = ito.chen_residual(g, g, base, max_points=12)
    diag = ito.refine_converge(g, g, base, levels=args.levels)
    payload = {
        "covariation_minus_one_max": float(np.abs(cov - 1.0).max()),
        "integration_by_parts_residual": ibp,
        "chen_residual": chen,
        "pi_distances": diag.pi_distances,
        "discretization_errors": diag.discretization_errors,
        "cauchy_nonincreasing": diag.nonincreasing,
        "sampled": diag.sampled,
    }
    print(f"[g,g] over [0,T]: max |cov - 1| = {payload['covariation_minus_one_max']:.3e}")
    print(f"identity residuals: ibp={ibp:.3e} chen={chen:.3e}")
    print(f"refinement distances: {['%.4f' % d for d in diag.pi_distances]} nonincreasing={diag.nonincreasing}")
    _emit(args.out, payload)
    return 0


def cmd_sew(args) -> int:
    # int_0^1 a da for a on a line of 2^12 steps; the germ defect
    # da(s, u) da(u, t) is at most omega(s, t)^2 for omega = V^1 + V^1
    a = rough.SampledPath.line(1.0, 2**12)
    omega = rough.variation_control(a, 1.0) + rough.variation_control(a, 1.0)
    res = rough.sew(rough.young_germ(a, a), omega, theta=2.0, T=1.0, tol=1e-6)
    payload = {
        "value": res.value,
        "germ_value": res.germ_value,
        "error_bound": res.error_bound,
        "levels": res.levels,
        "converged": res.converged,
        "hypothesis_ok": res.hypothesis_ok,
    }
    print(f"sewn int a da = {res.value:.12g} (exact 1/2) after {res.levels} levels; a-priori bound {res.error_bound:.6g}")
    _emit(args.out, payload)
    return 0


def _parse_r_grid(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        r_lo, r_hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--r-grid takes lo:hi, two integers, got {text!r}") from None
    if not 1 <= r_lo <= r_hi:
        raise ValueError(f"--r-grid lo:hi needs 1 <= lo <= hi, got {text}")
    return r_lo, r_hi


def cmd_bellman(args) -> int:
    if args.grid < 0:
        raise ValueError(f"--grid must be at least 0, got {args.grid}")
    if not math.isfinite(args.gamma):
        raise ValueError(f"--gamma must be finite, got {args.gamma}")
    r_lo, r_hi = _parse_r_grid(args.r_grid)
    n_side = max(11, int(round(args.grid ** (1.0 / 3.0))))
    worst, arg = bellman.concavity_grid_min(args.gamma, x_pts=n_side, h_pts=n_side * 3, y_vals=(0.0, 1.0, 10.0))
    search = bellman.extremal_search(args.depth, tuple(float(r) for r in range(r_lo, r_hi + 1)))
    payload = {"gamma": args.gamma, "worst_concavity_residual": worst, "argmin": arg, "extremal": search}
    counterexample = None
    if args.gamma < 3.0:
        counterexample = bellman.concavity_counterexample(args.gamma)
        payload["counterexample"] = counterexample
    print(f"worst concavity residual at gamma={args.gamma}: {worst:.3e}")
    print(f"extremal search depth={args.depth}: best ratio {search['best_ratio']:.6f} at r={search['best_r']}")
    if counterexample:
        print(f"counterexample: {json.dumps(counterexample, sort_keys=True)}")
    _emit(args.out, payload)
    if args.gamma >= 3.0 and worst < -1e-12:
        return 1
    return 0


def cmd_list_checks(_args) -> int:
    for name in sorted(checks.REGISTRY):
        doc = (checks.REGISTRY[name].__doc__ or "").strip().splitlines()
        print(f"{name:22s} {doc[0] if doc else ''}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="martkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tree + martingale JSON corpus file")
    g.add_argument("--gen", default="backprop", help="|".join(generators.GENERATORS))
    g.add_argument("--depth", type=int, default=6)
    g.add_argument("--dist", help="normal (default)|uniform|exponential|sign; backprop and increment only")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="run one registry check")
    c.add_argument("name", help="registry name (see list-checks)")
    c.add_argument("--params", help="JSON object of check parameters")
    c.add_argument("--kind", default="mixed")
    c.add_argument("--depth", type=int, default=8)
    c.add_argument("--trials", type=int, default=1000)
    c.add_argument("--dist", default="normal")
    c.add_argument("--width", type=int, default=0)
    c.add_argument("--seed", type=int)
    c.add_argument("--corpus-file", help="tree JSON to check instead of a generated corpus")
    c.add_argument("--out")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("suite", help="run a suite of checks from a config file")
    s.add_argument("--config", help="JSON config {seed, checks: [{check, params, corpus}]}")
    s.add_argument("--default", action="store_true", help="run the built-in acceptance-scale suite")
    s.add_argument("--scale", type=float, default=1.0, help="trial-count scale for --default")
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_suite)

    r = sub.add_parser("rde", help="solve a rough differential equation and compare to the oracle")
    r.add_argument("--phi", default="linear", help="linear[:a] | const[:c] | sin")
    r.add_argument("--driver", default="line", help="line | walk | csv:<path>")
    r.add_argument("--y0", type=float, default=1.0)
    r.add_argument("--T", type=float, default=0.3)
    r.add_argument("--n", type=int, default=256)
    r.add_argument("--r", type=float, default=2.5)
    r.add_argument("--amplitude", type=float, default=0.2)
    r.add_argument("--seed", type=int)
    r.add_argument("--out")
    r.set_defaults(func=cmd_rde)

    i = sub.add_parser("ito", help="walk demo: covariation, exact identities, refinement")
    i.add_argument("--steps", type=int, default=256)
    i.add_argument("--paths", type=int, default=64)
    i.add_argument("--T", type=float, default=1.0)
    i.add_argument("--eps", type=float, default=0.5)
    i.add_argument("--levels", type=int, default=4)
    i.add_argument("--seed", type=int, required=True)
    i.add_argument("--out")
    i.set_defaults(func=cmd_ito)

    b = sub.add_parser("bellman", help="concavity scan and extremal-ratio search")
    b.add_argument("--gamma", type=float, default=3.0)
    b.add_argument("--grid", type=int, default=100000)
    b.add_argument("--depth", type=int, default=8)
    b.add_argument("--r-grid", default="1:8")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bellman)

    w = sub.add_parser("sew", help="sew the Young integral of a line against itself")
    w.add_argument("--out")
    w.set_defaults(func=cmd_sew)

    sub.add_parser("list-checks", help="list registry checks").set_defaults(func=cmd_list_checks)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TreeError, rough.RdeError, MemoryError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
