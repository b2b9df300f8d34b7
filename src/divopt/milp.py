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
from typing import Optional, Sequence

import numpy as np

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
    return _constants(instance, instance.distances.tolist(), d_bar=True)


def _constants(instance: Instance, rows: list[list[float]],
               d_bar: bool) -> TighteningConstants:
    """compute_constants from rows, the distance matrix as lists; D_bar
    stays empty without d_bar (only maxsum_w reads it)."""
    # Instance rejects negative distances, so every min-part is zero and the
    # max-parts are plain row sums, taken left to right as the formulas read.
    # The zero diagonal leaves a running sum's bits as they are (the sum
    # starts at +0.0 and never becomes -0.0), so U_i is the whole row's sum.
    upper = tuple(map(sum, rows))
    zeros = (0.0,) * instance.n
    bars = (tuple(float(sum(row[i + 1:])) for i, row in enumerate(rows))
            if d_bar else ())
    return TighteningConstants(
        C=float(instance.distances.max()) + 1.0,
        D_bar=bars,
        D_dbar=zeros,
        U_plus=1.0 + max(upper),
        L=zeros,
        U=upper,
        L_minus=0.0,
    )


_WIDTH = 78  # longest row line, unless one chunk alone is longer


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _term(coef: float, var: str) -> str:
    """A term with its sign, as it reads after the first: "+ 2.5 x_1"."""
    return f"+ {_fmt(coef)} {var}" if coef >= 0 else f"- {_fmt(-coef)} {var}"


def _lead(term: str) -> str:
    """The same term first in its expression, where "+ " is left out."""
    return term[2:] if term[0] == "+" else term


def _wrap(prefix: str, chunks: Sequence[str], tail: str = "") -> list[str]:
    """Lines of one expression: the prefix, then each chunk and the tail
    after a space.  A chunk or the tail that would take its line past
    _WIDTH starts a new line, indented three spaces; the first chunk
    never does."""
    # keep emitted lines short; LP readers accept expression line breaks
    lines = []
    cur = prefix
    for chunk in chunks:
        if len(cur) + len(chunk) + 1 > _WIDTH and cur != prefix:
            lines.append(cur)
            cur = "   " + chunk
        else:
            cur = f"{cur} {chunk}"
    if tail:
        if len(cur) + len(tail) + 1 > _WIDTH:
            lines.append(cur)
            cur = "   " + tail
        else:
            cur = f"{cur} {tail}"
    lines.append(cur)
    return lines


def _put(out: list[str], head: str, chunks: Sequence[str],
         tail: str = "") -> None:
    """Append one expression's lines to out.  A line that fits in _WIDTH
    is what _wrap would give, so only longer ones go through it."""
    line = " ".join((head, *chunks, tail) if tail else (head, *chunks))
    if len(line) <= _WIDTH:
        out.append(line)
    else:
        out.extend(_wrap(head, chunks, tail))


def _units(x: list[str]) -> list[str]:
    """1.0 x_1 + 1.0 x_2 + ... + 1.0 x_n, one chunk per node."""
    return [f"1.0 {x[0]}", *(f"+ 1.0 {v}" for v in x[1:])]


def _pairs(rows: list[list[float]]) -> list[tuple[int, int, str, float]]:
    """(i, j, "<i+1>_<j+1>", d_ij) for every pair i < j, row by row."""
    return [(i, j, f"{i + 1}_{j + 1}", d) for i, row in enumerate(rows)
            for j, d in enumerate(row[i + 1:], i + 1)]


def _head(out: list[str], sense: str, objective: list[str]) -> None:
    out.append(sense)
    _put(out, " obj:", objective)
    out.append("Subject To")


def _card(out: list[str], x: list[str], m: int) -> None:
    _put(out, " card:", _units(x), f"= {_fmt(m)}")


def _linking(out: list[str], x: list[str], pairs) -> None:
    # y_ij = x_i x_j: y >= x_i + x_j - 1, y <= x_i, y <= x_j; with node
    # labels of at most six digits (n < 10**6) every row fits in _WIDTH, so
    # each is the one line _put would give
    out += [f" lk_{p}: 1.0 {x[i]} + 1.0 {x[j]} - 1.0 y_{p} <= 1.0"
            for i, j, p, _ in pairs]
    out += [f" ua_{p}: - 1.0 {x[i]} + 1.0 y_{p} <= 0.0"
            for i, j, p, _ in pairs]
    out += [f" ub_{p}: - 1.0 {x[j]} + 1.0 y_{p} <= 0.0"
            for i, j, p, _ in pairs]


def _contribution_terms(rows: list[list[float]],
                        x: list[str]) -> list[list[str]]:
    """Row i: the terms -d_ij x_j for j != i, in j order."""
    # -d_ij as signed text, j > i, one repr per distance; a zero of either
    # sign reads "+ 0.0"
    coefs = [["- " + repr(v) if v else "+ 0.0" for v in row[i + 1:]]
             for i, row in enumerate(rows)]
    return [[f"{coefs[j][i - j - 1]} {x[j]}" for j in range(i)]
            + [f"{c} {v}" for c, v in zip(coefs[i], x[i + 1:])]
            for i in range(len(x))]


def _contributions(out: list[str], x: list[str], terms: list[list[str]],
                   var: str, sense: str, lift: list[float]) -> None:
    # var sense sum_{j!=i} d_ij x_j + lift_i (1 - x_i), one row per node i.
    # The lift term prints the right-hand side's number: the lifts are
    # never NaN, so a negative one reads "-<|lift|>" there.
    for i, row in enumerate(terms):
        rhs = _fmt(lift[i])
        last = f"+ {rhs} {x[i]}" if lift[i] >= 0 else f"- {rhs[1:]} {x[i]}"
        _put(out, f" {var}_{i + 1}:", [f"1.0 {var}", *row, last],
             f"{sense} {rhs}")


def _write_model(out: list[str], instance: Instance, rows: list[list[float]],
                 kind: FormulationKind, x: list[str], m: Optional[int],
                 l: Optional[float], konst: TighteningConstants) -> list[str]:
    """Append the sense, objective and rows of one formulation to out, and
    return its free variables; rows is instance.distances as lists."""
    if kind in (FormulationKind.MAXSUM_KUO, FormulationKind.MAXMIN_KUO):
        pairs = _pairs(rows)
        if kind is FormulationKind.MAXSUM_KUO:
            obj = [f"+ {d + 0.0!r} y_{p}" for _, _, p, d in pairs]
            obj[0] = _lead(obj[0])
            free = []
        else:
            obj, free = ["1.0 w"], ["w"]
        _head(out, "Maximize", obj)
        _card(out, x, m)
        if kind is FormulationKind.MAXMIN_KUO:
            rhs = f"<= {_fmt(konst.C)}"
            for _, _, p, d in pairs:
                _put(out, f" th_{p}:",
                     (_lead(_term(konst.C - d, f"y_{p}")), "+ 1.0 w"), rhs)
        _linking(out, x, pairs)
        return free

    if kind is FormulationKind.MAXSUM_W:
        ws = [f"w_{i}" for i in range(1, instance.n)]
        _head(out, "Maximize", _units(ws))
        _card(out, x, m)
        for i, w in enumerate(ws):
            _put(out, f" wa_{i + 1}:",
                 (_lead(_term(-konst.D_bar[i], x[i])), f"+ 1.0 {w}"), "<= 0.0")
        for i, w in enumerate(ws):
            # -sum_{j>i} d_ij x_j + D_dbar_i (1 - x_i) + w_i <= 0
            terms = [f"- {d!r} {v}" if d else f"+ 0.0 {v}"
                     for d, v in zip(rows[i][i + 1:], x[i + 1:])]
            terms[0] = _lead(terms[0])
            terms += (_term(-konst.D_dbar[i], x[i]), f"+ 1.0 {w}")
            _put(out, f" wb_{i + 1}:", terms, f"<= {_fmt(-konst.D_dbar[i])}")
        return ws

    # s <= sum_{j!=i} d_ij x_j - L_i (1 - x_i) + U_plus (1 - x_i)
    s_lift = [konst.U_plus - low for low in konst.L]
    if kind is FormulationKind.MAXMINSUM_TIGHT:
        _head(out, "Maximize", ["1.0 s"])
        _card(out, x, m)
        _contributions(out, x, _contribution_terms(rows, x), "s", "<=",
                       s_lift)
        return ["s"]

    if kind is FormulationKind.MINDIFF_TIGHT:
        _head(out, "Minimize", ["1.0 t"])
        # the printed model indexes the t-row over i without using i; one
        # row carries the same content
        _put(out, " diff:", ("1.0 t", "- 1.0 r", "+ 1.0 s"), ">= 0.0")
        terms = _contribution_terms(rows, x)
        # r >= sum_{j!=i} d_ij x_j - U_i (1 - x_i) + L_minus (1 - x_i)
        _contributions(out, x, terms, "r", ">=",
                       [konst.L_minus - up for up in konst.U])
        _contributions(out, x, terms, "s", "<=", s_lift)
        _card(out, x, m)
        return ["t", "r", "s"]

    # threshold kinds: one conflict row per edge of G(l)
    feasibility = kind is FormulationKind.PACKING_FEASIBILITY
    _head(out, "Maximize", ["0.0 x_1"] if feasibility else _units(x))
    ii, jj = np.nonzero(np.triu(instance.distances < l, 1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        _put(out, f" e_{i + 1}_{j + 1}:", (f"1.0 {x[i]}", f"+ 1.0 {x[j]}"),
             "<= 1.0")
    if feasibility:
        _card(out, x, m)
    return []


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
    rows = instance.distances.tolist()
    konst = _constants(instance, rows, kind is FormulationKind.MAXSUM_W)

    out = [
        f"\\ instance: {instance.name}",
        f"\\ nodes: {instance.n}",
        f"\\ formulation: {kind.value}",
    ]
    if kind.needs_m:
        out.append(f"\\ m: {m}")
    if kind.needs_l:
        out.append(f"\\ threshold: {_fmt(l)}")
    out.append(f"\\ constants: C={_fmt(konst.C)} U_plus={_fmt(konst.U_plus)}"
               f" L_minus={_fmt(konst.L_minus)}")
    out.append("\\ variables: x_<i> node selection (1-based); y_<i>_<j> pair"
               " indicator;")
    out.append("\\   w_<i>/w/s/t/r auxiliary objective variables")
    x = [f"x_{k}" for k in range(1, instance.n + 1)]
    free = _write_model(out, instance, rows, kind, x, m, l, konst)
    out.append("Bounds")
    out.extend(f" {v} free" for v in free)
    out.append("Binaries")
    _put(out, "", x)
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ExternalCheck:
    """Outcome of re-checking an external solver's x-vector natively."""

    kind: FormulationKind
    selected: tuple[int, ...]  # 0-based node indices
    objective: Optional[ObjectiveKind]
    value: Optional[float]
    valid: bool
    violations: tuple[str, ...]


_BINARY_TOL = 1e-6  # how far an external x value may sit from 0 or 1


def parse_solution_vector(text: str, n: int) -> tuple[int, ...]:
    """Read `x_<i> <value>` lines into a 0-based selected-index tuple.

    Unlisted variables default to 0; non-x lines (y/w/s/t/r values) are
    ignored.  Values must be within ``_BINARY_TOL`` of 0 or 1.
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
        if abs(value) <= _BINARY_TOL:
            seen[idx] = 0
        elif abs(value - 1.0) <= _BINARY_TOL:
            seen[idx] = 1
        else:
            raise ValueError(f"non-binary value {parts[1]} for {name}")
    return tuple(idx - 1 for idx in sorted(seen) if seen[idx] == 1)


def verify_external(instance: Instance, kind: FormulationKind,
                    m: Optional[int], solution_text: str,
                    l: Optional[float] = None) -> ExternalCheck:
    """Check an external solution: cardinality, conflicts, native value.

    Model kinds re-evaluate the matching objective; threshold kinds check
    the conflict rows of G(l) and report the packing size as the value.
    """
    selected = parse_solution_vector(solution_text, instance.n)
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
