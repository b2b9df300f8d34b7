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
from typing import Iterable, Optional, Sequence, Union

from .instances import (Family, FormatError, GeneratorSpec, Instance,
                        generate, parse_instance, write_instance)
from .objectives import ObjectiveKind, Solution, evaluate
from .solvers import (DEFAULT_OPTIMA_CAP, BiLevelResult, BudgetExceededError,
                      SolveResult, SolveStatus, SolverBudget, solve_bilevel,
                      solve_model)

# analysis, milp and plots are imported by the commands that use them, so
# solve and evaluate run on the solver core alone

_KIND_CHOICES = tuple(kind.value for kind in ObjectiveKind)
_MODEL_CHOICES = _KIND_CHOICES + ("bilevel-maxsum", "bilevel-maxminsum")
_ANALYZE_MODELS = ("maxsum", "maxmin", "maxminsum", "mindiff")
# the values of milp.FormulationKind, in its order, copied so that building
# the parser does not import milp (a test holds the two equal)
_LP_KINDS = ("maxsum_kuo", "maxsum_w", "maxmin_kuo", "maxminsum_tight",
             "mindiff_tight", "node_packing", "packing_feasibility")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def _load_instance(path: str) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    return parse_instance(text, name=Path(path).stem)


def _value_str(v: float) -> str:
    return format(v, ".12g")


def _subset_str(solution: Iterable[int]) -> str:
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


def _budget_from(args: argparse.Namespace) -> SolverBudget:
    return SolverBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)


def _split_models(text: str, allowed: Sequence[str]) -> list[str]:
    models = [tok for tok in text.replace(",", " ").split() if tok]
    for i, name in enumerate(models):
        if name not in allowed:
            raise ValueError(f"unknown model {name!r}; choose from {allowed}")
        if name in models[:i]:
            raise ValueError(f"model {name!r} listed twice")
    return models


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    from .analysis import _csv
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


def _solve_named(inst: Instance, name: str, m: Optional[int],
                 budget: SolverBudget, *, method: str = "improved",
                 mode: str = "enumerate", cap: int = DEFAULT_OPTIMA_CAP,
                 ) -> Union[SolveResult, BiLevelResult]:
    """Solve model ``name``: bi-level names with solve_bilevel, the rest
    with solve_model.  m is the --m flag; when it is unset the file
    header's m stands in, except for MaxMean, which chooses its own subset
    size and so gets no m (and refuses an explicit one)."""
    bilevel = name.startswith("bilevel-")
    kind = ObjectiveKind.from_string(name.split("-", 1)[1] if bilevel else name)
    if m is None and kind is not ObjectiveKind.MAXMEAN:
        m = inst.default_m
        if m is None:
            raise ValueError(
                "subset size m required (flag --m or file header)")
    if bilevel:
        return solve_bilevel(inst, m, kind, cap=cap, budget=budget, mode=mode)
    return solve_model(inst, m, kind, budget, maxmin_method=method)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    res = _solve_named(inst, args.model, args.m, _budget_from(args),
                       method=args.method, mode=args.mode, cap=args.cap)
    print(f"model {args.model}")
    if isinstance(res, BiLevelResult):
        # a truncated enumeration picks among only some MaxMin optima
        status = SolveStatus.FEASIBLE if res.truncated else SolveStatus.OPTIMAL
        print(f"status {status.value}")
        print(f"d_star {_value_str(res.d_star)}")
        # exact mode counts the leaves its bound let through, not optima
        label = "optima" if args.mode == "enumerate" else "leaves"
        print(f"{label} {res.optima_enumerated}")
        print(f"truncated {'true' if res.truncated else 'false'}")
        print(f"value {_value_str(res.upper_value)}")
        print(f"subset {_subset_str(res.chosen)}")
        # the d* solve's nodes, unless d* was cached, and the walk's
        print(f"explored {res.stats.subsets_or_nodes_explored}")
    else:
        status = res.status
        print(f"status {status.value}")
        if res.value is not None:
            print(f"value {_value_str(res.value)}")
        if res.solution is not None:
            print(f"subset {_subset_str(res.solution)}")
        print(f"explored {res.stats.subsets_or_nodes_explored}")
        if res.stats.decision_solves:
            print(f"decision_solves {res.stats.decision_solves}")
    return 2 if args.strict and status is not SolveStatus.OPTIMAL else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    kind = ObjectiveKind.from_string(args.model)
    sol = _parse_subset(args.subset, inst.n)
    print(f"value {_value_str(evaluate(kind, inst, sol))}")
    return 0


def cmd_export_lp(args: argparse.Namespace) -> int:
    from .milp import FormulationKind, emit
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
    from .milp import FormulationKind, verify_external
    inst = _load_instance(args.instance)
    kind = FormulationKind.from_string(args.kind)
    solution_text = Path(args.solution).read_text(encoding="utf-8")
    m = args.m if args.m is not None else inst.default_m
    report = verify_external(inst, kind, m, solution_text, l=args.l)
    print(f"selected {_subset_str(report.selected)}")
    if report.value is not None:
        print(f"value {_value_str(report.value)}")
    print(f"valid {'true' if report.valid else 'false'}")
    for violation in report.violations:
        print(f"violation {violation}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (HistogramMode, _csv, cross_model_csv,
                           cross_model_report, geometry_csv, geometry_stats,
                           histogram, histogram_csv, multiplicity_csv,
                           multiplicity_report, pair_results)
    models = _split_models(args.models, _ANALYZE_MODELS)
    if not models:
        raise ValueError("analyze needs at least one model")
    instances = [_load_instance(p) for p in args.instances]
    for inst in instances:
        # deviations and the normalized histogram divide by distances
        if inst.d_max == 0:
            raise ValueError(f"instance {inst.name} has no positive distance")
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
                pairs.append(pair_results(inst, primary_res, secondary_res))
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
        for name, count, _ in summary.per_instance:
            if count is None:
                print(f"budget exhausted: {name}", file=sys.stderr)
                exhausted = True
        _atomic_write(out / "multiplicity.csv", multiplicity_csv(summary))

    print(f"analyzed {len(instances)} instance(s), {len(models)} model(s) "
          f"-> {out}")
    if args.strict and exhausted:
        return 2
    return 0


def _model_subset(inst: Instance, m: Optional[int], name: str,
                  budget: SolverBudget) -> Solution:
    """The subset that model ``name`` selects, bi-level models included.

    Raises BudgetExceededError when the budget stops the solve before it
    has a subset.
    """
    res = _solve_named(inst, name, m, budget)
    subset = res.chosen if isinstance(res, BiLevelResult) else res.solution
    if subset is None:
        raise BudgetExceededError(f"{name} found no subset within the budget")
    return subset


def cmd_plot(args: argparse.Namespace) -> int:
    from .analysis import HistogramMode, histogram
    from .plots import histogram_svg, scatter_svg
    inst = _load_instance(args.instance)
    budget = _budget_from(args)
    models = _split_models(args.models, _MODEL_CHOICES) if args.models else []
    if args.style == "scatter":
        picks = [(name, _model_subset(inst, args.m, name, budget))
                 for name in models]
        text = scatter_svg(inst, picks)
    else:
        if len(models) != 1:
            raise ValueError("histogram style needs exactly one model")
        subset = _model_subset(inst, args.m, models[0], budget)
        mode = HistogramMode.NORMALIZED10 if args.histmode == "normalized10" \
            else HistogramMode.INTEGER_BARS
        hist = histogram([(inst, subset)], mode)
        text = histogram_svg(hist, title=f"{inst.name} {models[0]}")
    _atomic_write(Path(args.out), text)
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .analysis import BenchJob, _csv, benchmark_csv, benchmark_summary
    family = Family.from_string(args.family)
    models = _split_models(args.models, _ANALYZE_MODELS)
    if not models:
        raise ValueError("bench needs at least one model")
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
            jobs.append(BenchJob(set_name=set_name, kind=kind,
                                 status=res.status))
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

def _count(text: str) -> int:
    """An argparse type: an integer of at least 1, so that a bad --count or
    --cap is refused before any file is written."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return value


def _budget_parser(time_limit: Optional[float]) -> argparse.ArgumentParser:
    """The budget flags, --time-limit defaulting to time_limit.  Commands
    share a parent's actions, so another default needs another parent."""
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--time-limit", type=float, default=time_limit,
                        help="wall-clock budget per solve (seconds)")
    budget.add_argument("--max-nodes", type=int, default=None,
                        help="search-node budget per solve; brute force "
                             "counts each subset it scores as a node")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divopt",
        description="Exact solvers, generators, LP export and structure "
                    "analysis for diversity/dispersion subset selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    budget = _budget_parser(time_limit=None)
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 2 when any solve is not proven optimal")

    p = sub.add_parser("generate", help="write benchmark instances")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family if f is not Family.CUSTOM])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=1)
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
    p.add_argument("--cap", type=_count, default=DEFAULT_OPTIMA_CAP,
                   help="alternate-optima enumeration cap")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="evaluate a subset under one model")
    p.add_argument("instance")
    p.add_argument("--model", required=True, choices=_KIND_CHOICES)
    p.add_argument("--subset", required=True,
                   help="1-based labels, e.g. 2,3,4")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-lp", help="emit a MILP formulation as LP text")
    p.add_argument("instance")
    p.add_argument("--kind", required=True,
                   choices=_LP_KINDS)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=float, default=None,
                   help="threshold for the packing kinds")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("verify", help="check an external solver's x-vector")
    p.add_argument("instance")
    p.add_argument("--kind", required=True,
                   choices=_LP_KINDS)
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
    p.add_argument("--cap", type=_count, default=DEFAULT_OPTIMA_CAP)
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

    p = sub.add_parser("bench", parents=[_budget_parser(time_limit=60.0),
                                         strict],
                       help="generate a batch and benchmark the models")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family if f is not Family.CUSTOM])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=",".join(_ANALYZE_MODELS))
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
