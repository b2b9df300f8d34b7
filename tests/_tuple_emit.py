"""The LP emitter as it was before rows were rendered straight to text.

A frozen copy, kept only as the byte-identity reference for
``tests/test_milp.py``: each formulation was first collected as
``(coefficient, variable)`` tuples, ``_terms`` turned them into signed
chunks and ``_wrap`` built the lines by re-concatenating strings.  It reads
distances as numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from divopt.instances import Instance
from divopt.milp import FormulationKind, TighteningConstants, compute_constants


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)


def _x(i: int) -> str:
    return f"x_{i + 1}"


def _y(i: int, j: int) -> str:
    return f"y_{i + 1}_{j + 1}"


def _terms(parts: list[tuple[float, str]]) -> list[str]:
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


_Row = tuple[str, list[tuple[float, str]], str, float]


@dataclass
class _Model:
    sense: str
    objective: list[tuple[float, str]]
    rows: list[_Row]
    free_vars: list[str]
    binaries: list[str]


def _pairs(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def _linking_rows(n: int) -> list[_Row]:
    rows = [(f"lk_{i+1}_{j+1}", [(1.0, _x(i)), (1.0, _x(j)), (-1.0, _y(i, j))],
             "<=", 1.0) for i, j in _pairs(n)]
    rows.extend((f"ua_{i+1}_{j+1}", [(-1.0, _x(i)), (1.0, _y(i, j))], "<=", 0.0)
                for i, j in _pairs(n))
    rows.extend((f"ub_{i+1}_{j+1}", [(-1.0, _x(j)), (1.0, _y(i, j))], "<=", 0.0)
                for i, j in _pairs(n))
    return rows


def _contribution_rows(d, n: int, var: str, sense: str,
                       lift: list[float]) -> list[_Row]:
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

    s_lift = [konst.U_plus - konst.L[i] for i in range(n)]
    if kind is FormulationKind.MAXMINSUM_TIGHT:
        rows = [card_eq] + _contribution_rows(d, n, "s", "<=", s_lift)
        return _Model("Maximize", [(1.0, "s")], rows, ["s"], xs)

    if kind is FormulationKind.MINDIFF_TIGHT:
        rows = [("diff", [(1.0, "t"), (-1.0, "r"), (1.0, "s")], ">=", 0.0)]
        r_lift = [konst.L_minus - konst.U[i] for i in range(n)]
        rows.extend(_contribution_rows(d, n, "r", ">=", r_lift))
        rows.extend(_contribution_rows(d, n, "s", "<=", s_lift))
        rows.append(card_eq)
        return _Model("Minimize", [(1.0, "t")], rows, ["t", "r", "s"], xs)

    rows = [(f"e_{i+1}_{j+1}", [(1.0, _x(i)), (1.0, _x(j))], "<=", 1.0)
            for i, j in _pairs(n) if d[i, j] < l]
    if kind is FormulationKind.NODE_PACKING:
        return _Model("Maximize", [(1.0, v) for v in xs], rows, [], xs)
    rows.append(card_eq)
    return _Model("Maximize", [(0.0, xs[0])], rows, [], xs)


def tuple_emit(instance: Instance, kind: FormulationKind,
               m: Optional[int] = None, l: Optional[float] = None) -> str:
    """The old ``emit`` for valid arguments (no argument checks)."""
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
