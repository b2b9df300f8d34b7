"""MILP formulations of the dispersion models as CPLEX-LP text.

Nothing here solves anything: the emitter produces solver-agnostic LP files
so any external MILP solver can cross-check the native solvers, and
``verify_external`` closes the loop by re-evaluating a solver's x-vector
with the native objective evaluators.

Emitted formulations:

* maxsum_kuo        -- pair variables y_ij replace the products x_i x_j,
* maxsum_w          -- per-node w_i decomposition of the pairwise sum,
* maxmin_kuo        -- scalar w forced under every selected pair's distance
                       via big-C rows,
* maxminsum_tight   -- scalar s under each selected node's contribution,
                       deactivated rows lifted by U_plus,
* mindiff_tight     -- r/s sandwich the extreme contributions, minimize t,
* node_packing      -- maximum independent set in the threshold graph G(l),
* packing_feasibility -- node packing plus an equality cardinality row and
                       a constant objective (a pure feasibility question).

Variables are 1-based: x_<i> selects node i; y_<i>_<j> is the pair
indicator; w_<i>, w, s, t, r are the auxiliary objective variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isnan
from typing import Optional

from .instances import Instance
from .objectives import ObjectiveKind, Solution, evaluate


class FormulationKind(Enum):
    MAXSUM_KUO = "maxsum_kuo"
    MAXSUM_W = "maxsum_w"
    MAXMIN_KUO = "maxmin_kuo"
    MAXMINSUM_TIGHT = "maxminsum_tight"
    MINDIFF_TIGHT = "mindiff_tight"
    NODE_PACKING = "node_packing"
    PACKING_FEASIBILITY = "packing_feasibility"

    @property
    def needs_m(self) -> bool:
        return self is not FormulationKind.NODE_PACKING

    @property
    def needs_l(self) -> bool:
        return self in (FormulationKind.NODE_PACKING,
                        FormulationKind.PACKING_FEASIBILITY)

    @property
    def objective_kind(self) -> Optional[ObjectiveKind]:
        return _OBJECTIVE_OF.get(self)

    @classmethod
    def from_string(cls, text: str) -> "FormulationKind":
        key = text.strip().lower().replace("-", "_")
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown formulation {text!r}; expected one of "
                         f"{[k.value for k in cls]}")


_OBJECTIVE_OF = {
    FormulationKind.MAXSUM_KUO: ObjectiveKind.MAXSUM,
    FormulationKind.MAXSUM_W: ObjectiveKind.MAXSUM,
    FormulationKind.MAXMIN_KUO: ObjectiveKind.MAXMIN,
    FormulationKind.MAXMINSUM_TIGHT: ObjectiveKind.MAXMINSUM,
    FormulationKind.MINDIFF_TIGHT: ObjectiveKind.MINDIFF,
}


@dataclass(frozen=True)
class TighteningConstants:
    """Big-M and bound constants used by the tightened formulations.

    All per-node arrays are index-aligned with nodes 0..n-1.  D_bar/D_dbar
    sum over j > i only (the w-decomposition is upper-triangular); L/U sum
    over all j != i.  For nonnegative matrices the min-parts are zero.
    """

    C: float
    D_bar: tuple[float, ...]
    D_dbar: tuple[float, ...]
    U_plus: float
    L: tuple[float, ...]
    U: tuple[float, ...]
    L_minus: float


def compute_constants(instance: Instance) -> TighteningConstants:
    d = instance.distances.tolist()
    n = instance.n
    d_bar = tuple(float(sum(max(0.0, d[i][j]) for j in range(i + 1, n)))
                  for i in range(n))
    d_dbar = tuple(float(sum(min(0.0, d[i][j]) for j in range(i + 1, n)))
                   for i in range(n))
    upper = tuple(float(sum(max(0.0, d[i][j]) for j in range(n) if j != i))
                  for i in range(n))
    lower = tuple(float(sum(min(0.0, d[i][j]) for j in range(n) if j != i))
                  for i in range(n))
    return TighteningConstants(
        C=float(instance.distances.max()) + 1.0,
        D_bar=d_bar,
        D_dbar=d_dbar,
        U_plus=1.0 + max(upper),
        L=lower,
        U=upper,
        L_minus=min(lower),
    )


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _x(i: int) -> str:
    return f"x_{i + 1}"


def _y(i: int, j: int) -> str:
    return f"y_{i + 1}_{j + 1}"


def _terms(parts: list[tuple[float, str]]) -> list[str]:
    """Render coefficient/variable terms with explicit signs and coefs."""
    rendered = []
    for coef, var in parts:
        if not rendered:
            lead = f"{_fmt(coef)} {var}" if coef >= 0 \
                else f"- {_fmt(-coef)} {var}"
            rendered.append(lead)
        else:
            sign = "+" if coef >= 0 else "-"
            rendered.append(f"{sign} {_fmt(abs(coef))} {var}")
    return rendered


def _wrap(prefix: str, chunks: list[str], tail: str = "") -> list[str]:
    # keep emitted lines short; LP readers accept expression line breaks
    lines = []
    cur = prefix
    for chunk in chunks:
        if len(cur) + len(chunk) + 1 > 78 and cur != prefix:
            lines.append(cur)
            cur = "   " + chunk
        else:
            cur = f"{cur} {chunk}"
    if tail:
        if len(cur) + len(tail) + 1 > 78:
            lines.append(cur)
            cur = "   " + tail
        else:
            cur = f"{cur} {tail}"
    lines.append(cur)
    return lines


# (name, [(coefficient, variable)], "<=" | ">=" | "=", right-hand side)
_Row = tuple[str, list[tuple[float, str]], str, float]


@dataclass
class _Model:
    sense: str  # "Maximize" or "Minimize"
    objective: list[tuple[float, str]]
    rows: list[_Row]
    free_vars: list[str]
    binaries: list[str]


def _pairs(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def _linking_rows(n: int) -> list[_Row]:
    # y_ij = x_i x_j: y >= x_i + x_j - 1, y <= x_i, y <= x_j
    rows = [(f"lk_{i+1}_{j+1}", [(1.0, _x(i)), (1.0, _x(j)), (-1.0, _y(i, j))],
             "<=", 1.0) for i, j in _pairs(n)]
    rows.extend((f"ua_{i+1}_{j+1}", [(-1.0, _x(i)), (1.0, _y(i, j))], "<=", 0.0)
                for i, j in _pairs(n))
    rows.extend((f"ub_{i+1}_{j+1}", [(-1.0, _x(j)), (1.0, _y(i, j))], "<=", 0.0)
                for i, j in _pairs(n))
    return rows


def _contribution_rows(d, n: int, var: str, sense: str,
                       lift: list[float]) -> list[_Row]:
    # var sense sum_{j!=i} d_ij x_j + lift_i (1 - x_i), one row per node i
    rows = []
    for i in range(n):
        terms = [(1.0, var)]
        terms.extend((-float(d[i, j]), _x(j)) for j in range(n) if j != i)
        terms.append((lift[i], _x(i)))
        rows.append((f"{var}_{i+1}", terms, sense, lift[i]))
    return rows


def _build(instance: Instance, kind: FormulationKind, m: Optional[int],
           l: Optional[float], konst: TighteningConstants) -> _Model:
    d = instance.distances
    n = instance.n
    xs = [_x(i) for i in range(n)]
    card_eq = ("card", [(1.0, v) for v in xs], "=", float(m) if m else 0.0)

    if kind is FormulationKind.MAXSUM_KUO:
        obj = [(float(d[i, j]), _y(i, j)) for i, j in _pairs(n)]
        return _Model("Maximize", obj, [card_eq] + _linking_rows(n), [], xs)

    if kind is FormulationKind.MAXSUM_W:
        ws = [f"w_{i + 1}" for i in range(n - 1)]
        obj = [(1.0, w) for w in ws]
        rows = [card_eq]
        for i in range(n - 1):
            rows.append((f"wa_{i+1}",
                         [(-konst.D_bar[i], _x(i)), (1.0, ws[i])], "<=", 0.0))
        for i in range(n - 1):
            # -sum_{j>i} d_ij x_j + D_dbar_i (1 - x_i) + w_i <= 0
            terms = [(-float(d[i, j]), _x(j)) for j in range(i + 1, n)]
            terms.append((-konst.D_dbar[i], _x(i)))
            terms.append((1.0, ws[i]))
            rows.append((f"wb_{i+1}", terms, "<=", -konst.D_dbar[i]))
        return _Model("Maximize", obj, rows, list(ws), xs)

    if kind is FormulationKind.MAXMIN_KUO:
        obj = [(1.0, "w")]
        rows = [card_eq]
        for i, j in _pairs(n):
            rows.append((f"th_{i+1}_{j+1}",
                         [(konst.C - float(d[i, j]), _y(i, j)), (1.0, "w")],
                         "<=", konst.C))
        rows.extend(_linking_rows(n))
        return _Model("Maximize", obj, rows, ["w"], xs)

    # s <= sum_{j!=i} d_ij x_j - L_i (1 - x_i) + U_plus (1 - x_i)
    s_lift = [konst.U_plus - konst.L[i] for i in range(n)]
    if kind is FormulationKind.MAXMINSUM_TIGHT:
        rows = [card_eq] + _contribution_rows(d, n, "s", "<=", s_lift)
        return _Model("Maximize", [(1.0, "s")], rows, ["s"], xs)

    if kind is FormulationKind.MINDIFF_TIGHT:
        # the printed model indexes the t-row over i without using i; one
        # row carries the same content
        rows = [("diff", [(1.0, "t"), (-1.0, "r"), (1.0, "s")], ">=", 0.0)]
        # r >= sum_{j!=i} d_ij x_j - U_i (1 - x_i) + L_minus (1 - x_i)
        r_lift = [konst.L_minus - konst.U[i] for i in range(n)]
        rows.extend(_contribution_rows(d, n, "r", ">=", r_lift))
        rows.extend(_contribution_rows(d, n, "s", "<=", s_lift))
        rows.append(card_eq)
        return _Model("Minimize", [(1.0, "t")], rows, ["t", "r", "s"], xs)

    # threshold kinds: one conflict row per edge of G(l)
    rows = [(f"e_{i+1}_{j+1}", [(1.0, _x(i)), (1.0, _x(j))], "<=", 1.0)
            for i, j in _pairs(n) if d[i, j] < l]
    if kind is FormulationKind.NODE_PACKING:
        return _Model("Maximize", [(1.0, v) for v in xs], rows, [], xs)
    rows.append(card_eq)
    return _Model("Maximize", [(0.0, xs[0])], rows, [], xs)


def _check_threshold(kind: FormulationKind, l: Optional[float]) -> None:
    if l is None:
        raise ValueError(f"{kind.value} requires a threshold l")
    if isnan(l):
        # NaN compares false with every distance: no conflict row would hold
        raise ValueError("threshold l must not be NaN")


def emit(instance: Instance, kind: FormulationKind, m: Optional[int] = None,
         l: Optional[float] = None) -> str:
    """Render one formulation as deterministic CPLEX-LP text."""
    if kind.needs_m:
        if m is None:
            raise ValueError(f"{kind.value} requires a subset size m")
        if not (2 <= m <= instance.n):
            raise ValueError(f"require 2 <= m <= n, got m={m}, n={instance.n}")
    if kind.needs_l:
        _check_threshold(kind, l)
    konst = compute_constants(instance)
    model = _build(instance, kind, m if kind.needs_m else None,
                   l if kind.needs_l else None, konst)

    lines = [
        f"\\ instance: {instance.name}",
        f"\\ nodes: {instance.n}",
        f"\\ formulation: {kind.value}",
    ]
    if kind.needs_m:
        lines.append(f"\\ m: {m}")
    if kind.needs_l:
        lines.append(f"\\ threshold: {_fmt(l)}")
    lines.append(f"\\ constants: C={_fmt(konst.C)} U_plus={_fmt(konst.U_plus)}"
                 f" L_minus={_fmt(konst.L_minus)}")
    lines.append("\\ variables: x_<i> node selection (1-based); y_<i>_<j> pair"
                 " indicator;")
    lines.append("\\   w_<i>/w/s/t/r auxiliary objective variables")
    lines.append(model.sense)
    lines.extend(_wrap(" obj:", _terms(model.objective)))
    lines.append("Subject To")
    for name, terms, op, rhs in model.rows:
        lines.extend(_wrap(f" {name}:", _terms(terms), tail=f"{op} {_fmt(rhs)}"))
    lines.append("Bounds")
    for v in model.free_vars:
        lines.append(f" {v} free")
    lines.append("Binaries")
    lines.extend(_wrap("", model.binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExternalCheck:
    """Outcome of re-checking an external solver's x-vector natively."""

    kind: FormulationKind
    selected: tuple[int, ...]  # 0-based node indices
    objective: Optional[ObjectiveKind]
    value: Optional[float]
    valid: bool
    violations: tuple[str, ...]


def parse_solution_vector(text: str, n: int, tolerance: float = 1e-6,
                          ) -> tuple[int, ...]:
    """Read `x_<i> <value>` lines into a 0-based selected-index tuple.

    Unlisted variables default to 0; non-x lines (y/w/s/t/r values) are
    ignored.  Values must be within tolerance of 0 or 1.
    """
    seen: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        parts = line.split()
        name = parts[0]
        if not name.startswith("x_"):
            continue
        if len(parts) != 2:
            raise ValueError(f"malformed solution line {line!r}")
        suffix = name[2:]
        if not suffix.isdigit():
            raise ValueError(f"malformed variable name {name!r}")
        idx = int(suffix)
        if not (1 <= idx <= n):
            raise ValueError(f"variable {name} out of range for n={n}")
        if idx in seen:
            raise ValueError(f"duplicate assignment for {name}")
        value = float(parts[1])
        if abs(value) <= tolerance:
            seen[idx] = 0
        elif abs(value - 1.0) <= tolerance:
            seen[idx] = 1
        else:
            raise ValueError(f"non-binary value {parts[1]} for {name}")
    return tuple(idx - 1 for idx in sorted(seen) if seen[idx] == 1)


def verify_external(instance: Instance, kind: FormulationKind,
                    m: Optional[int], solution_text: str,
                    l: Optional[float] = None,
                    tolerance: float = 1e-6) -> ExternalCheck:
    """Check an external solution: cardinality, conflicts, native value.

    Model kinds re-evaluate the matching objective; threshold kinds check
    the conflict rows of G(l) and report the packing size as the value.
    """
    selected = parse_solution_vector(solution_text, instance.n, tolerance)
    if kind.needs_m:
        if m is None:
            raise ValueError(f"{kind.value} requires m for verification")
        if len(selected) != m:
            raise ValueError(f"cardinality violation: {len(selected)} selected,"
                             f" expected {m}")
    obj = kind.objective_kind
    if obj is not None:
        sol = Solution(selected)
        return ExternalCheck(kind=kind, selected=selected, objective=obj,
                             value=evaluate(obj, instance, sol), valid=True,
                             violations=())
    _check_threshold(kind, l)
    violations = []
    d = instance.distances
    for i in selected:
        for j in selected:
            if i < j and d[i, j] < l:
                violations.append(f"x_{i+1} + x_{j+1} <= 1 violated "
                                  f"(d={d[i, j]!r} < l)")
    return ExternalCheck(kind=kind, selected=selected, objective=None,
                         value=float(len(selected)), valid=not violations,
                         violations=tuple(violations))
