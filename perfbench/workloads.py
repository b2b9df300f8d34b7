"""The benchmark's three workloads: instance corpora, operations, oracles.

An operation is one top-level public divopt call.  Each one looks its
function up on the defining module at call time (``dv.solvers.X``), so the
tracer's wrappers see the benchmark's own calls as well as the library's
nested ones.  Operations within a block run in order because later ones
read earlier results; blocks run in a seeded order.

Instance corpora.  The MaxMin searches and the bi-level search cost very
different amounts on different instances of one family and size (on
gkd-d n=100 m=10 one solve takes 0.05 s to 1.5 s), so a run of a few dozen
seed-drawn instances would change its total by more than any bound worth
having.  Those workloads therefore solve fixed corpora, named by generator
seed, and --seed only orders their operations.  The model-compare small
sets are drawn from --seed: their cost is set by C(n, m) brute-force
subsets and barely moves between instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, isclose
from typing import Callable

CAP_S = 60.0  # per-operation time cap; the slowest seed-commit solve is ~3.5 s
MAXMEAN_N = 14  # brute-force MaxMean explores 2^n subsets
BRUTE_ORACLE_SUBSETS = 60_000  # B&B is checked by brute force up to C(n, m)


@dataclass(frozen=True)
class Op:
    op_id: str  # stable across runs: "<api>[.<detail>]:<instance or set>"
    call: Callable[[dict], object]  # receives earlier results of this pass


@dataclass(frozen=True)
class Spec:
    family: str
    n: int
    m: int
    seed: int

    @property
    def name(self) -> str:
        return f"{self.family}_n{self.n}_m{self.m}_s{self.seed}"


def generate(dv, specs: list[Spec]) -> dict:
    """Generate every instance of a corpus, keyed by instance name."""
    out = {}
    for s in specs:
        spec = dv.instances.GeneratorSpec(dv.instances.Family.from_string(s.family),
                                          s.n, s.m, s.seed)
        out[s.name] = dv.instances.generate(spec)
    return out


def fresh(dv, instance):
    """An equal instance with no cached spectrum, as a user's new one."""
    return dv.instances.Instance(name=instance.name, family=instance.family,
                                 distances=instance.distances,
                                 coords=instance.coords,
                                 default_m=instance.default_m)


def ordered(blocks: list[list[Op]], seed: int) -> list[Op]:
    blocks = list(blocks)
    random.Random(seed).shuffle(blocks)
    return [op for block in blocks for op in block]


def _budget(dv):
    return dv.solvers.SolverBudget(time_limit=CAP_S)


def _seed_of(seed: int, i: int) -> int:
    return (seed * 1000 + i) % 2**64


# ---------------------------------------------------------------------------
# maxmin-planar and maxmin-nonplanar: both exact MaxMin methods per instance
# ---------------------------------------------------------------------------

class MaxMin:
    def __init__(self, name: str, why: str, specs: list[Spec]) -> None:
        self.name, self.why, self.specs = name, why, specs

    def instances(self, dv, seed: int) -> dict:
        return generate(dv, self.specs)

    def blocks(self, dv, insts: dict, seed: int) -> list[list[Op]]:
        budget = _budget(dv)
        out = []
        for s in self.specs:
            inst = insts[s.name]
            for method in ("improved", "original"):
                fn = f"solve_maxmin_{method}"
                out.append([Op(f"{fn}:{s.name}",
                               lambda ctx, fn=fn, inst=inst, m=s.m:
                               getattr(dv.solvers, fn)(inst, m, budget))])
        return out

    def tail(self, dv, insts: dict, seed: int) -> list[Op]:
        return []

    def check(self, dv, insts: dict, res: dict, seed: int) -> list[tuple[str, str]]:
        bad = []
        maxmin = dv.objectives.ObjectiveKind.MAXMIN
        for s in self.specs:
            inst = insts[s.name]
            a = res[f"solve_maxmin_improved:{s.name}"]
            b = res[f"solve_maxmin_original:{s.name}"]
            for op_id, r in ((f"solve_maxmin_improved:{s.name}", a),
                             (f"solve_maxmin_original:{s.name}", b)):
                bad += _check_value(dv, op_id, inst, s.m, maxmin, r)
            if a.value != b.value:
                bad.append((f"solve_maxmin_original:{s.name}",
                            f"methods disagree: improved {a.value!r}, "
                            f"original {b.value!r}"))
        return bad


def _check_value(dv, op_id, inst, m, kind, r) -> list[tuple[str, str]]:
    """The reported value equals objectives.evaluate on the returned subset."""
    if r.solution is None:
        return [(op_id, "no solution returned")]
    if m is not None and len(r.solution) != m:
        return [(op_id, f"subset size {len(r.solution)}, expected {m}")]
    again = dv.objectives.evaluate(kind, inst, r.solution)
    if again != r.value:
        return [(op_id, f"reported value {r.value!r} but evaluate gives {again!r}")]
    return []


# ---------------------------------------------------------------------------
# model-compare: the cross-model study on small instances plus the bi-level
# models on mid-size planar instances
# ---------------------------------------------------------------------------

SMALL_FAMILIES = ("gkd-d", "mdg", "som")
SMALL_N, SMALL_M, SMALL_PER_FAMILY = 25, 5, 6
BILEVEL = [Spec("gkd-d", 60, 8, 0), Spec("gkd-d", 65, 8, 1),
           Spec("gkd-d", 70, 8, 3), Spec("gkd-d", 80, 8, 2)]
MODELS = ("maxsum", "maxmin", "maxminsum", "mindiff")
PAIRINGS = (("maxsum", "maxmin"), ("maxmin", "maxsum"),
            ("maxminsum", "mindiff"))
BILEVEL_RUNS = (("exact", "maxsum"), ("exact", "maxminsum"),
                ("enumerate", "maxsum"), ("enumerate", "maxminsum"))


def _small_specs(seed: int) -> list[Spec]:
    return [Spec(fam, SMALL_N, SMALL_M, _seed_of(seed, i))
            for fam in SMALL_FAMILIES for i in range(SMALL_PER_FAMILY)]


def _solution_text(solution) -> str:
    return "".join(f"x_{v + 1} 1\n" for v in solution.nodes)


class ModelCompare:
    name = "model-compare"
    why = ("subset layers (brute force, MaxSum B&B bound, bi-level DFS, "
           "enumeration, MILP export) do the work; MaxMin decision search little")

    def instances(self, dv, seed: int) -> dict:
        insts = generate(dv, _small_specs(seed) + BILEVEL)
        for s in _small_specs(seed):
            insts[_tiny(s)] = dv.instances.truncate(insts[s.name], MAXMEAN_N)
        return insts

    def blocks(self, dv, insts: dict, seed: int) -> list[list[Op]]:
        budget = _budget(dv)
        out = [_small_block(dv, insts, s, budget) for s in _small_specs(seed)]
        for s in BILEVEL:
            for mode, upper in BILEVEL_RUNS:
                out.append([_bilevel_op(dv, insts[s.name], s, mode, upper, budget)])
        return out

    def tail(self, dv, insts: dict, seed: int) -> list[Op]:
        """Per-family reports over the family's optima; they run last."""
        ops = []
        for fam in SMALL_FAMILIES:
            members = [s for s in _small_specs(seed) if s.family == fam]
            label = _set_label(fam, seed)
            ops += [_histogram_op(dv, insts, label, members, k)
                    for k in ("maxsum", "maxmin")]
            ops += [_report_op(dv, insts, label, members, p, q)
                    for p, q in PAIRINGS]
        return ops

    def check(self, dv, insts: dict, res: dict, seed: int) -> list[tuple[str, str]]:
        bad = []
        for s in _small_specs(seed):
            bad += _check_small(dv, insts, res, s)
        for s in BILEVEL:
            bad += _check_bilevel(dv, insts[s.name], res, s)
        for fam in SMALL_FAMILIES:
            members = [s for s in _small_specs(seed) if s.family == fam]
            label = _set_label(fam, seed)
            for k in ("maxsum", "maxmin"):
                op_id = f"histogram.{k}:{label}"
                if res[op_id].sample_size != len(members) * comb(SMALL_M, 2):
                    bad.append((op_id, "histogram pooled the wrong sample"))
            for p, q in PAIRINGS:
                op_id = f"cross_model_report.{p}-{q}:{label}"
                row = res[op_id]
                # every primary is a max-sense model, so no deviation is negative
                if row.instance_count != len(members) or row.min_dev < 0:
                    bad.append((op_id, f"implausible report row {row}"))
        return bad


def _check_small(dv, insts: dict, res: dict, s: Spec) -> list[tuple[str, str]]:
    """Oracles for one instance of the cross-model study."""
    K = dv.objectives.ObjectiveKind
    inst, name, m = insts[s.name], s.name, s.m
    bad = []
    for k in MODELS:
        bad += _check_value(dv, f"solve_model.{k}:{name}", inst, m,
                            K.from_string(k), res[f"solve_model.{k}:{name}"])
    tiny_id = f"brute_force.maxmean:{_tiny(s)}"
    bad += _check_value(dv, tiny_id, insts[_tiny(s)], None, K.MAXMEAN, res[tiny_id])
    bnb = res[f"solve_model.maxsum:{name}"]
    if comb(inst.n, m) <= BRUTE_ORACLE_SUBSETS:
        brute = dv.solvers.brute_force(inst, m, K.MAXSUM)
        if not isclose(bnb.value, brute.value, rel_tol=1e-9):
            bad.append((f"solve_model.maxsum:{name}",
                        f"B&B {bnb.value!r} != brute force {brute.value!r}"))
    z = res[f"solve_model.maxmin:{name}"]
    enum_id = f"enumerate_maxmin_optima:{name}"
    enum = res[enum_id]
    if enum.value != z.value or z.solution not in enum.solutions:
        bad.append((enum_id, f"optima at {enum.value!r} miss the "
                             f"MaxMin optimum {z.value!r}"))
    elif any(dv.objectives.evaluate(K.MAXMIN, inst, sol) != z.value for sol in enum):
        bad.append((enum_id, "an enumerated subset is not optimal"))
    for fk in dv.milp.FormulationKind:
        op_id = f"verify_external.{fk.value}:{name}"
        check = res[op_id]
        want = float(m) if fk.objective_kind is None \
            else res[f"solve_model.{fk.objective_kind.value}:{name}"].value
        if not check.valid or check.value != want \
                or check.selected != _native(res, name, fk).nodes:
            bad.append((op_id, f"replay gives valid={check.valid} "
                               f"value={check.value!r}, want {want!r}"))
    return bad


def _check_bilevel(dv, inst, res: dict, s: Spec) -> list[tuple[str, str]]:
    """Both bi-level modes agree with each other and with MaxMin's d*."""
    K = dv.objectives.ObjectiveKind
    d_star = dv.solvers.solve_maxmin_original(inst, s.m).value
    bad = []
    for upper in ("maxsum", "maxminsum"):
        ex_id = f"solve_bilevel.exact.{upper}:{s.name}"
        en_id = f"solve_bilevel.enumerate.{upper}:{s.name}"
        ex, en = res[ex_id], res[en_id]
        for op_id, r in ((ex_id, ex), (en_id, en)):
            if r.d_star != d_star:
                bad.append((op_id, f"d_star {r.d_star!r} != MaxMin "
                                   f"optimum {d_star!r}"))
            if dv.objectives.evaluate(K.from_string(upper), inst,
                                      r.chosen) != r.upper_value:
                bad.append((op_id, "upper value does not match subset"))
        if not en.truncated and not isclose(ex.upper_value, en.upper_value,
                                            rel_tol=1e-9):
            bad.append((ex_id, f"exact {ex.upper_value!r} != enumerate "
                               f"{en.upper_value!r}"))
    return bad


def _set_label(family: str, seed: int) -> str:
    """Name of one family's small set; it differs between seeds."""
    return f"{family}_n{SMALL_N}_m{SMALL_M}_seed{seed}"


def _tiny(s: Spec) -> str:
    return f"{s.name}_first{MAXMEAN_N}"


def _small_block(dv, insts: dict, s: Spec, budget) -> list[Op]:
    """All per-instance operations of the cross-model study, in call order."""
    inst, name, m = insts[s.name], s.name, s.m
    tiny = insts[_tiny(s)]
    K = dv.objectives.ObjectiveKind
    block = [Op(f"solve_model.{k}:{name}",
                lambda ctx, kind=K.from_string(k):
                dv.solvers.solve_model(inst, m, kind, budget)) for k in MODELS]
    block.append(Op(f"brute_force.maxmean:{tiny.name}",
                    lambda ctx: dv.solvers.brute_force(tiny, None, K.MAXMEAN,
                                                       budget)))
    block.append(Op(f"enumerate_maxmin_optima:{name}",
                    lambda ctx: dv.solvers.enumerate_maxmin_optima(
                        inst, m, budget=budget)))
    # one geometry summary per instance keeps the median operation inside
    # the band of emit calls, whose cost depends only on n
    block.append(Op(f"geometry_stats.maxmin:{name}",
                    lambda ctx: dv.analysis.geometry_stats(
                        inst, ctx[f"solve_model.maxmin:{name}"].solution)))
    kinds = list(dv.milp.FormulationKind)
    block += [Op(f"emit.{fk.value}:{name}",
                 lambda ctx, fk=fk: dv.milp.emit(inst, fk, m,
                                                 _threshold(ctx, name)))
              for fk in kinds]
    block += [Op(f"verify_external.{fk.value}:{name}",
                 lambda ctx, fk=fk: dv.milp.verify_external(
                     inst, fk, m if fk.needs_m else None,
                     _solution_text(_native(ctx, name, fk)),
                     _threshold(ctx, name)))
              for fk in kinds]
    return block


def _bilevel_op(dv, inst, s: Spec, mode: str, upper: str, budget) -> Op:
    kind = dv.objectives.ObjectiveKind.from_string(upper)
    return Op(f"solve_bilevel.{mode}.{upper}:{s.name}",
              lambda ctx: dv.solvers.solve_bilevel(inst, s.m, kind,
                                                   budget=budget, mode=mode))


def _histogram_op(dv, insts: dict, label: str, members: list[Spec],
                  k: str) -> Op:
    mode = dv.analysis.HistogramMode.INTEGER_BARS \
        if members[0].family == "som" else dv.analysis.HistogramMode.NORMALIZED10
    return Op(f"histogram.{k}:{label}",
              lambda ctx: dv.analysis.histogram(
                  [(insts[s.name], ctx[f"solve_model.{k}:{s.name}"].solution)
                   for s in members], mode))


def _report_op(dv, insts: dict, label: str, members: list[Spec],
               primary: str, secondary: str) -> Op:
    kind = dv.objectives.ObjectiveKind.from_string(primary)

    def call(ctx):
        pairs = []
        for s in members:
            sec = ctx[f"solve_model.{secondary}:{s.name}"]
            pairs.append(dv.analysis.PairedObjectives(
                primary_optimum=ctx[f"solve_model.{primary}:{s.name}"].value,
                primary_at_secondary=dv.objectives.evaluate(
                    kind, insts[s.name], sec.solution),
                secondary_optimum=sec.value))
        return dv.analysis.cross_model_report(label, pairs)
    return Op(f"cross_model_report.{primary}-{secondary}:{label}", call)


def _threshold(ctx: dict, name: str) -> float:
    """The MaxMin optimum d*, the level the packing formulations use."""
    return ctx[f"solve_model.maxmin:{name}"].value


def _native(ctx: dict, name: str, fk):
    """The native optimum a formulation is replayed with."""
    kind = fk.objective_kind
    model = kind.value if kind is not None else "maxmin"
    return ctx[f"solve_model.{model}:{name}"].solution


PLANAR = [Spec("gkd-d", 100, 10, s) for s in range(14)]
# The tail is the 11th-longest operation.  gkd n=120 seeds 6 and 7 (one
# solve each at 0.31 s and 0.41 s) stand in for gkd n=150 seed 1 (1.4 s), so
# that the tail sits in a cluster of solves 0.29-0.31 s long rather than at a
# 40% gap between 0.21 s and 0.29 s, where it jumped from run to run; the
# shorter pass also fits three passes in a run
NONPLANAR = ([Spec("gkd", 120, 12, s) for s in range(8)]
             + [Spec("gkd", 150, 15, 0)]
             + [Spec("mdg", 120, 12, s) for s in (0, 1)]
             + [Spec("som", 100, 10, s) for s in range(4)])

WORKLOADS = {
    w.name: w for w in (
        MaxMin("maxmin-planar",
               "geometric threshold graphs: decision and packing searches "
               "take over 90% of MaxMin time", PLANAR),
        MaxMin("maxmin-nonplanar",
               "dense non-geometric threshold graphs with repeated distances, "
               "where a MaxMin kernel change may help or hurt", NONPLANAR),
        ModelCompare(),
    )
}
