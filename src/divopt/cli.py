"""Command-line driver: generate, solve, analyze, export, verify, plot, bench.

Exit codes: 0 success, 1 usage or data error, 2 budget exhaustion under
--strict.  All file artifacts are written atomically (temp file + rename)
and are byte-identical across runs for fixed seeds and budgets; printed
output carries no timing, so it is reproducible too.

Node indices inside instance files are 0-based; subsets printed by and fed
to the CLI use 1-based labels (matching the LP variable names x_1..x_n).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import (BenchJob, HistogramMode, PairedObjectives, _csv,
                       benchmark_csv, benchmark_summary, cross_model_csv,
                       cross_model_report, geometry_csv, geometry_stats,
                       histogram, histogram_csv, multiplicity_csv,
                       multiplicity_report)
from .instances import (Family, FormatError, GeneratorSpec, Instance,
                        generate, parse_instance, write_instance)
from .milp import FormulationKind, emit, verify_external
from .objectives import ObjectiveKind, Solution, evaluate
from .plots import histogram_svg, scatter_svg
from .solvers import (DEFAULT_OPTIMA_CAP, BudgetExceededError, SolveStatus,
                      SolverBudget, solve_bilevel, solve_model)

_MODEL_CHOICES = ("maxsum", "maxmin", "maxminsum", "mindiff", "maxmean",
                  "bilevel-maxsum", "bilevel-maxminsum")
_ANALYZE_MODELS = ("maxsum", "maxmin", "maxminsum", "mindiff")


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def _load_instance(path: str) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    return parse_instance(text, name=Path(path).stem)


def _value_str(v: float) -> str:
    return format(v, ".12g")


def _subset_str(solution: Solution) -> str:
    return ",".join(str(i + 1) for i in solution)


def _parse_subset(text: str, n: int) -> Solution:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty subset")
    try:
        labels = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"subset must be integer labels, got {text!r}") from exc
    for v in labels:
        if not (1 <= v <= n):
            raise ValueError(f"subset label {v} out of range 1..{n}")
    return Solution(v - 1 for v in labels)


def _budget_from(args: argparse.Namespace) -> Optional[SolverBudget]:
    fields = dict(max_subsets=getattr(args, "max_subsets", None),
                  max_nodes=getattr(args, "max_nodes", None),
                  time_limit=getattr(args, "time_limit", None),
                  q=getattr(args, "q", None))
    if all(v is None for v in fields.values()):
        return None
    return SolverBudget(**fields)


def _split_models(text: str, allowed: Sequence[str]) -> list[str]:
    models = [tok for tok in text.replace(",", " ").split() if tok]
    for name in models:
        if name not in allowed:
            raise ValueError(f"unknown model {name!r}; choose from {allowed}")
    return models


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    family = Family.from_string(args.family)
    out = Path(args.out)
    rows = []
    for k in range(args.count):
        spec = GeneratorSpec(family=family, n=args.n, m=args.m,
                             seed=args.seed + k, dim=args.dim)
        inst = generate(spec)
        filename = f"{inst.name}.txt"
        _atomic_write(out / filename, write_instance(inst))
        rows.append((family.value, str(args.n), str(args.m),
                     str(args.seed + k), filename))
    _atomic_write(out / "manifest.csv",
                  _csv(("family", "n", "m", "seed", "filename"), rows))
    print(f"wrote {args.count} instance(s) to {out}")
    return 0


def _print_solve_result(model_name: str, res) -> None:
    print(f"model {model_name}")
    print(f"status {res.status.value}")
    if res.value is not None:
        print(f"value {_value_str(res.value)}")
    if res.solution is not None:
        print(f"subset {_subset_str(res.solution)}")
    print(f"explored {res.stats.subsets_or_nodes_explored}")
    if res.stats.decision_solves:
        print(f"decision_solves {res.stats.decision_solves}")


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    budget = _budget_from(args)
    m = args.m if args.m is not None else inst.default_m
    if args.model.startswith("bilevel-"):
        if m is None:
            raise ValueError("subset size m required (flag --m or file header)")
        upper = ObjectiveKind.from_string(args.model.split("-", 1)[1])
        res = solve_bilevel(inst, m, upper, cap=args.cap, budget=budget,
                            mode=args.mode)
        # a truncated enumeration picks among only some MaxMin optima
        status = SolveStatus.FEASIBLE if res.truncated else SolveStatus.OPTIMAL
        print(f"model {args.model}")
        print(f"status {status.value}")
        print(f"d_star {_value_str(res.d_star)}")
        print(f"optima {res.optima_enumerated}")
        print(f"truncated {'true' if res.truncated else 'false'}")
        print(f"value {_value_str(res.upper_value)}")
        print(f"subset {_subset_str(res.chosen)}")
        return 2 if args.strict and res.truncated else 0
    kind = ObjectiveKind.from_string(args.model)
    if kind is not ObjectiveKind.MAXMEAN and m is None:
        raise ValueError("subset size m required (flag --m or file header)")
    res = solve_model(inst, m, kind, budget, maxmin_method=args.method)
    _print_solve_result(args.model, res)
    if args.strict and res.status is not SolveStatus.OPTIMAL:
        return 2
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    kind = ObjectiveKind.from_string(args.model)
    sol = _parse_subset(args.subset, inst.n)
    print(f"value {_value_str(evaluate(kind, inst, sol))}")
    return 0


def cmd_export_lp(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    kind = FormulationKind.from_string(args.kind)
    m = args.m if args.m is not None else inst.default_m
    text = emit(inst, kind, m=m, l=args.l)
    if args.out:
        _atomic_write(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    kind = FormulationKind.from_string(args.kind)
    solution_text = Path(args.solution).read_text(encoding="utf-8")
    m = args.m if args.m is not None else inst.default_m
    report = verify_external(inst, kind, m, solution_text, l=args.l)
    print(f"selected {','.join(str(i + 1) for i in report.selected)}")
    if report.value is not None:
        print(f"value {_value_str(report.value)}")
    print(f"valid {'true' if report.valid else 'false'}")
    for violation in report.violations:
        print(f"violation {violation}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    models = _split_models(args.models, _ANALYZE_MODELS)
    if not models:
        raise ValueError("analyze needs at least one model")
    instances = [_load_instance(p) for p in args.instances]
    budget = _budget_from(args)
    out = Path(args.out)
    results = {}
    solution_rows = []
    geometry_entries = []
    exhausted = False
    for inst in instances:
        m = args.m if args.m is not None else inst.default_m
        if m is None:
            raise ValueError(f"no subset size for {inst.name}: pass --m")
        for name in models:
            kind = ObjectiveKind.from_string(name)
            res = solve_model(inst, m, kind, budget)
            results[(inst.name, name)] = res
            exhausted = exhausted or res.status is not SolveStatus.OPTIMAL
            subset = " ".join(str(i + 1) for i in res.solution) \
                if res.solution else "NA"
            solution_rows.append((inst.name, name, res.status.value,
                                  res.value, subset))
            if res.solution is not None:
                geometry_entries.append((f"{inst.name}:{name}",
                                         geometry_stats(inst, res.solution)))
    _atomic_write(out / "solutions.csv",
                  _csv(("instance", "model", "status", "value", "subset"),
                       solution_rows))
    _atomic_write(out / "geometry.csv", geometry_csv(geometry_entries))

    if "maxsum" in models:
        cross_rows = []
        for secondary in models:
            if secondary == "maxsum":
                continue
            pairs = []
            for inst in instances:
                primary_res = results[(inst.name, "maxsum")]
                secondary_res = results[(inst.name, secondary)]
                if primary_res.solution is None or secondary_res.solution is None:
                    continue
                pairs.append(
                    _pairing_from_results(inst, primary_res, secondary_res))
            if pairs:
                cross_rows.append(cross_model_report(
                    f"maxsum_vs_{secondary}", pairs))
        if cross_rows:
            _atomic_write(out / "cross_model.csv", cross_model_csv(cross_rows))

    for name in models:
        pool = [(inst, results[(inst.name, name)].solution)
                for inst in instances
                if results[(inst.name, name)].solution is not None]
        if pool:
            hist = histogram(pool, HistogramMode.NORMALIZED10)
            _atomic_write(out / f"hist_{name}.csv", histogram_csv(hist))

    if "maxmin" in models:
        summary = multiplicity_report(instances, args.m, cap=args.cap,
                                      budget=budget)
        _atomic_write(out / "multiplicity.csv", multiplicity_csv(summary))

    print(f"analyzed {len(instances)} instance(s), {len(models)} model(s) "
          f"-> {out}")
    if args.strict and exhausted:
        return 2
    return 0


def _pairing_from_results(inst, primary_res, secondary_res):
    return PairedObjectives(
        primary_optimum=primary_res.value,
        primary_at_secondary=evaluate(ObjectiveKind.MAXSUM, inst,
                                      secondary_res.solution),
        secondary_optimum=secondary_res.value)


def _model_subset(inst: Instance, m: Optional[int], name: str,
                  budget: Optional[SolverBudget]) -> Optional[Solution]:
    """The subset that model ``name`` selects, bi-level models included."""
    if m is None:
        raise ValueError("subset size m required (flag --m or header)")
    if name.startswith("bilevel-"):
        upper = ObjectiveKind.from_string(name.split("-", 1)[1])
        return solve_bilevel(inst, m, upper, budget=budget).chosen
    kind = ObjectiveKind.from_string(name)
    return solve_model(inst, m, kind, budget).solution


def cmd_plot(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    budget = _budget_from(args)
    m = args.m if args.m is not None else inst.default_m
    models = _split_models(args.models, _MODEL_CHOICES) if args.models else []
    if args.style == "scatter":
        text = scatter_svg(inst, [(name, _model_subset(inst, m, name, budget))
                                  for name in models])
    else:
        if len(models) != 1:
            raise ValueError("histogram style needs exactly one model")
        subset = _model_subset(inst, m, models[0], budget)
        mode = HistogramMode.NORMALIZED10 if args.histmode == "normalized10" \
            else HistogramMode.INTEGER_BARS
        hist = histogram([(inst, subset)], mode)
        text = histogram_svg(hist, title=f"{inst.name} {models[0]}")
    _atomic_write(Path(args.out), text)
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    family = Family.from_string(args.family)
    models = _split_models(args.models, _ANALYZE_MODELS)
    budget = _budget_from(args)
    out = Path(args.out)
    set_name = f"{family.value}_n{args.n}_m{args.m}"
    jobs = []
    result_rows = []
    for k in range(args.count):
        spec = GeneratorSpec(family=family, n=args.n, m=args.m,
                             seed=args.seed + k)
        inst = generate(spec)
        for name in models:
            kind = ObjectiveKind.from_string(name)
            res = solve_model(inst, args.m, kind, budget)
            jobs.append(BenchJob(set_name=set_name, instance_name=inst.name,
                                 kind=kind, status=res.status,
                                 value=res.value))
            result_rows.append((set_name, inst.name, name, res.status.value,
                                res.value))
    _atomic_write(out / "results.csv",
                  _csv(("set", "instance", "model", "status", "value"),
                       result_rows))
    rows = benchmark_summary(jobs)
    _atomic_write(out / "summary.csv", benchmark_csv(rows))
    solved = sum(r.solved_count for r in rows)
    print(f"bench {set_name}: {len(jobs)} job(s), {solved} solved -> {out}")
    if args.strict and solved < len(jobs):
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divopt",
        description="Exact solvers, generators, LP export and structure "
                    "analysis for diversity/dispersion subset selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget per solve (seconds)")
    budget.add_argument("--max-nodes", type=int, default=None,
                        help="search-node budget per solve")
    budget.add_argument("--max-subsets", type=int, default=None,
                        help="subset budget for brute-force solves")
    budget.add_argument("--q", type=int, default=None,
                        help="subinterval exponent for the bisection method")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 2 when any solve is not proven optimal")

    p = sub.add_parser("generate", help="write benchmark instances")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family if f is not Family.CUSTOM])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dim", type=int, default=None,
                   help="coordinate dimension override: GKD and GKD-d (2 only)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", parents=[budget, strict],
                       help="solve one model on an instance file")
    p.add_argument("instance")
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--method", choices=("improved", "original"),
                   default="improved", help="MaxMin algorithm")
    p.add_argument("--mode", choices=("enumerate", "exact"),
                   default="enumerate", help="bi-level solving mode")
    p.add_argument("--cap", type=int, default=DEFAULT_OPTIMA_CAP,
                   help="alternate-optima enumeration cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="evaluate a subset under one model")
    p.add_argument("instance")
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES[:5])
    p.add_argument("--subset", required=True,
                   help="1-based labels, e.g. 2,3,4")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-lp", help="emit a MILP formulation as LP text")
    p.add_argument("instance")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in FormulationKind])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=float, default=None,
                   help="threshold for the packing kinds")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("verify", help="check an external solver's x-vector")
    p.add_argument("instance")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in FormulationKind])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--solution", required=True,
                   help="file with `x_<i> <value>` lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", parents=[budget, strict],
                       help="cross-model structure reports over instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--models", default=",".join(_ANALYZE_MODELS))
    p.add_argument("--cap", type=int, default=DEFAULT_OPTIMA_CAP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", parents=[budget],
                       help="emit an SVG scatter or histogram figure")
    p.add_argument("instance")
    p.add_argument("--style", choices=("scatter", "histogram"),
                   default="scatter")
    p.add_argument("--models", default="",
                   help="comma-separated model list (may be empty)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--histmode", choices=("normalized10", "integer_bars"),
                   default="normalized10")
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("bench", parents=[strict],
                       help="generate a batch and benchmark the models")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family if f is not Family.CUSTOM])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=",".join(_ANALYZE_MODELS))
    p.add_argument("--time-limit", type=float, default=60.0,
                   help="per-job wall budget (seconds)")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-subsets", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2 if getattr(args, "strict", False) else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
