"""Line-oriented description format for Poisson systems.

A system file names the variables and parameters, lists the upper triangle
of the structure matrix, and optionally gives a Hamiltonian, sign
constraints, and expectation lines used by the test suite:

    # Lotka-Volterra, first structure
    system lv3-j1
    vars x1 x2 x3
    params a b
    domain x1 > 0
    J[1][2] = -x1*x2/(a*b)
    J[2][3] = -x2*x3
    H = a*b*x1 + x2 - a*x3
    expect rank 2
    expect dependent 3
    expect gamma 3 1 = -a*b*x3/x1 @ derived
    expect casimir 1 = a*b*ln(x1) - b*ln(x2) + ln(x3) @ reference
    expect cost 1/2
    expect jacobi ok

Only entries with i < j may be written; the diagonal is zero and the lower
triangle is implied by skewness.  '#' starts a comment.  Expectation lines
are inert labels ("what should come out"), each optionally tagged with the
origin of the value: @ reference (quoted from the source material),
@ derived (worked out independently), @ direct (immediate from the input).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .expr import Domain, Expr, ParseError, VariableSet, parse
from .matrix import StructureMatrix

__all__ = ["SystemFileError", "Expectations", "ParsedSystem", "parse_system", "load_system"]

_TAGS = ("reference", "derived", "direct")


class SystemFileError(Exception):
    def __init__(self, message: str, source: str, line: int | None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


@dataclass
class Expectations:
    """Declared expected outcomes, checked by the test suite, ignored by the solver."""

    rank: int | None = None
    dependent: tuple | None = None  # 1-based row indices
    gammas: dict = field(default_factory=dict)  # (dep_row, pivot_row) -> (Expr, tag)
    casimirs: dict = field(default_factory=dict)  # ordinal -> (Expr, tag)
    cost: Fraction | None = None
    jacobi_ok: bool | None = None


@dataclass
class ParsedSystem:
    name: str
    symbols: VariableSet
    matrix: StructureMatrix
    hamiltonian: Expr | None
    expect: Expectations
    source: str = "<string>"


_J_RE = re.compile(r"J\[(\d+)\]\[(\d+)\]\s*=\s*(.*)")
_DOMAIN_RE = re.compile(r"(\w+)\s*([<>])\s*0\s*$")


def parse_system(text: str, source: str = "<string>") -> ParsedSystem:
    name = None
    variables = None
    parameters = None
    domain_decl: dict = {}
    j_lines: dict = {}
    h_line = None
    expect_lines = []

    def err(msg: str, ln: int):
        raise SystemFileError(msg, source, ln)

    # pass 1: classify lines
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m_h = re.match(r"H\s*=\s*(.*)", line)
        if m_h:
            if h_line is not None:
                err("duplicate 'H =' line", ln)
            if not m_h.group(1).strip():
                err("empty Hamiltonian", ln)
            h_line = (m_h.group(1).strip(), ln)
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "system":
            if name is not None:
                err("duplicate 'system' line", ln)
            if not rest:
                err("'system' needs a name", ln)
            name = rest
        elif head == "vars":
            if variables is not None:
                err("duplicate 'vars' line", ln)
            variables = tuple(rest.split())
            if not variables:
                err("'vars' needs at least one name", ln)
        elif head == "params":
            if parameters is not None:
                err("duplicate 'params' line", ln)
            parameters = tuple(rest.split())
        elif head == "domain":
            m = _DOMAIN_RE.match(rest)
            if not m:
                err("expected 'domain <var> > 0' or 'domain <var> < 0'", ln)
            v, cmp_op = m.group(1), m.group(2)
            if v in domain_decl:
                err(f"duplicate domain constraint for {v!r}", ln)
            domain_decl[v] = "+" if cmp_op == ">" else "-"
        elif head.startswith("J["):
            m = _J_RE.match(line)
            if not m:
                err("malformed matrix entry; expected J[i][j] = <expression>", ln)
            i, j = int(m.group(1)), int(m.group(2))
            if (i, j) in j_lines:
                err(f"duplicate entry J[{i}][{j}]", ln)
            j_lines[(i, j)] = (m.group(3).strip(), ln)
        elif head == "H":
            err("expected 'H = <expression>'", ln)
        elif head == "expect":
            expect_lines.append((rest, ln))
        else:
            err(f"unrecognized directive {head!r}", ln)

    if name is None:
        err("missing 'system' line", 1)
    if variables is None:
        err("missing 'vars' line", 1)

    try:
        symbols = VariableSet(variables, parameters or ())
    except ValueError as e:
        err(str(e), 1)

    n = symbols.n
    for v in domain_decl:
        if v not in variables:
            err(f"domain constraint names unknown variable {v!r}", 1)
    domain = Domain(domain_decl)

    def parse_expr(src: str, ln: int) -> Expr:
        try:
            return parse(src, symbols)
        except ParseError as e:
            err(str(e), ln)

    upper = {}
    for (i, j), (src, ln) in j_lines.items():
        if i == j:
            err(f"diagonal entry J[{i}][{j}] must not be written (it is zero)", ln)
        if i > j:
            err(
                f"entry J[{i}][{j}] is below the diagonal; write J[{j}][{i}] instead",
                ln,
            )
        if not (1 <= i < j <= n):
            err(f"entry J[{i}][{j}] out of range for {n} variables", ln)
        upper[(i, j)] = parse_expr(src, ln)

    mat = StructureMatrix.from_upper(symbols, upper, domain, name=name)

    ham = parse_expr(*h_line) if h_line else None

    expect = Expectations()
    for rest, ln in expect_lines:
        expect_head, _, tail = rest.partition(" ")
        tail = tail.strip()
        if expect_head == "rank":
            expect.rank = _int_or_err(tail, "rank", err, ln)
        elif expect_head == "dependent":
            expect.dependent = tuple(_int_or_err(t, "row index", err, ln) for t in tail.split())
        elif expect_head == "gamma":
            m = re.match(r"(\d+)\s+(\d+)\s*=\s*(.*)", tail)
            if not m:
                err("expected 'expect gamma <dep> <pivot> = <expression> [@ tag]'", ln)
            body, tag = _split_tag(m.group(3), err, ln)
            expect.gammas[(int(m.group(1)), int(m.group(2)))] = (parse_expr(body, ln), tag)
        elif expect_head == "casimir":
            m = re.match(r"(\d+)\s*=\s*(.*)", tail)
            if not m:
                err("expected 'expect casimir <k> = <expression> [@ tag]'", ln)
            body, tag = _split_tag(m.group(2), err, ln)
            expect.casimirs[int(m.group(1))] = (parse_expr(body, ln), tag)
        elif expect_head == "cost":
            try:
                expect.cost = Fraction(tail)
            except (ValueError, ZeroDivisionError):
                err(f"bad cost ratio {tail!r}", ln)
        elif expect_head == "jacobi":
            if tail not in ("ok", "fail"):
                err("expected 'expect jacobi ok' or 'expect jacobi fail'", ln)
            expect.jacobi_ok = tail == "ok"
        else:
            err(f"unknown expectation {expect_head!r}", ln)

    return ParsedSystem(name, symbols, mat, ham, expect, source)


def _split_tag(body: str, err, ln):
    if "@" in body:
        body, _, tag = body.rpartition("@")
        tag = tag.strip()
        if tag not in _TAGS:
            err(f"unknown expectation tag {tag!r} (want one of {', '.join(_TAGS)})", ln)
        return body.strip(), tag
    return body.strip(), None


def _int_or_err(token: str, what: str, err, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        err(f"bad {what} {token!r}", ln)


def load_system(path) -> ParsedSystem:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SystemFileError(f"cannot read the file: {e}", str(p), None) from e
    return parse_system(text, source=str(p))
