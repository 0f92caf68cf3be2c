"""The linear model on both sides of an LP file, and its text formats.

`Constraint` and `Variable` are the rows and columns `milp.build_model`
builds and `parse_lp` reads back.  The emitter helpers write the sectioned
layout (Minimize / Subject To / Bounds / Generals / Binaries / End) with
backslash comment lines, folding long rows at a fixed width.  The parser
reads that dialect back (plus =< and =>, and Min / Minimum / Minimise
headers).  A Bounds line is one of `lo <= x <= hi`, `x <= v`, `x >= v`,
`x = v`, `v <= x`, `v >= x` and `x free`, where a value is a number or
`inf` / `infinity` signed to leave its side open.  A Maximize section, any
other Bounds line or value, and a nonzero bare constant on the left of a
row or in the objective raise ValueError rather than being solved as some
other model.  `format_solution` and `parse_solution` write and read
solution files: `name value` lines plus an `objective <v>` line, and
`EXIT_INFEASIBLE` and `TIME_LIMIT_ENV` are the rest of the contract between
the solver adapter and a solver command.
"""

import math
import re
from dataclasses import dataclass

from .errors import SolutionParseError

MAX_LINE = 230
# a solver command's exit code for a model it proved infeasible
EXIT_INFEASIBLE = 10
# the environment variable that passes a solver command its time limit in
# seconds
TIME_LIMIT_ENV = "CURESCHED_LPSOLVE_TIME_LIMIT"
_CONT_INDENT = "   "

_NUM_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}
_INFINITY = ("inf", "infinity")

_MAXIMIZE = frozenset(("maximize", "maximise", "maximum"))

_SECTION_STARTS = {
    "minimize": "objective",
    "minimise": "objective",
    "minimum": "objective",
    "min": "objective",
    "subject to": "rows",
    "such that": "rows",
    "st": "rows",
    "s.t.": "rows",
    "bounds": "bounds",
    "bound": "bounds",
    "generals": "generals",
    "general": "generals",
    "gen": "generals",
    "integers": "generals",
    "integer": "generals",
    "binaries": "binaries",
    "binary": "binaries",
    "bin": "binaries",
    "end": "end",
}


@dataclass(frozen=True)
class Constraint:
    name: str
    tag: str        # family tag written into the LP comment line
    label: str
    terms: tuple    # ((coef, var), ...)
    sense: str      # <=, >=, =
    rhs: int


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str       # "binary" | "general" | "continuous"
    lo: int | None = 0      # None: no lower bound
    hi: int | None = None   # None: no upper bound


@dataclass(frozen=True)
class ParsedLp:
    """An LP file's model: rows carry an empty tag and label, variables
    come in first-appearance order (objective, rows, Bounds, Generals,
    Binaries) with their LP default bounds resolved: [0, +inf) unless the
    Bounds section says otherwise, and [0, 1] for every binary."""

    objective: list
    constraints: tuple
    variables: tuple


# ── emission ─────────────────────────────────────────────────────────


def term_units(terms) -> list:
    """Render (coef, var) pairs as fold-safe token groups."""
    units = []
    for idx, (coef, var) in enumerate(terms):
        mag = abs(coef)
        body = var if mag == 1 else f"{mag} {var}"
        if idx == 0:
            units.append(body if coef >= 0 else f"- {body}")
        else:
            units.append(f"{'-' if coef < 0 else '+'} {body}")
    return units


def fold(first: str, units) -> list:
    """Pack units onto lines no wider than `MAX_LINE`, continuing indented."""
    lines = []
    cur = first
    for unit in units:
        if len(cur) + 1 + len(unit) > MAX_LINE:
            lines.append(cur)
            cur = _CONT_INDENT + unit
        else:
            cur = f"{cur} {unit}"
    lines.append(cur)
    return lines


# ── parsing ──────────────────────────────────────────────────────────


def _as_number(tok: str):
    if not _NUM_RE.match(tok):
        return None
    val = float(tok)
    return int(val) if val == int(val) else val


def _is_var(tok: str) -> bool:
    return bool(_NAME_RE.match(tok)) and tok.lower() not in _INFINITY


def _bound_value(tok: str, upper: bool, where: str):
    """A Bounds value: a number, or None for the infinity that leaves its
    side open (+inf above, -inf below)."""
    num = _as_number(tok)
    if num is not None:
        return num
    sign, mag = (tok[0], tok[1:]) if tok[0] in "+-" else ("+", tok)
    if mag.lower() in _INFINITY and (sign == "+") == upper:
        return None
    raise ValueError(f"{where} has a bad bound value {tok!r}")


def _parse_terms(tokens, where):
    """Linear expression tokens -> [(coef, var)].  A bare 0 (how an empty
    expression is written) is dropped; any other bare constant raises
    ValueError naming `where`, since dropping it would change the model."""
    terms = []
    sign = 1
    pending = None
    for tok in [*tokens, "+"]:
        if tok in ("+", "-"):
            if pending:
                raise ValueError(f"{where} has a bare constant {pending} "
                                 "on its left side")
            sign, pending = (1 if tok == "+" else -1), None
            continue
        num = _as_number(tok)
        if num is not None:
            pending = num if pending is None else pending * num
            continue
        if _NAME_RE.match(tok):
            coef = sign * (1 if pending is None else pending)
            terms.append((coef, tok))
            sign, pending = 1, None
    return terms


def _split_rows(tokens):
    """Group a token stream into (name, body-tokens) rows at name: markers."""
    rows = []
    name = None
    body = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        marker = None
        if tok.endswith(":") and len(tok) > 1:
            marker = tok[:-1]
        elif tok == ":" and body and _NAME_RE.match(body[-1]):
            marker = body.pop()
        if marker is not None:
            if name is not None or body:
                rows.append((name, body))
            name, body = marker, []
        else:
            body.append(tok)
        i += 1
    if name is not None or body:
        rows.append((name, body))
    return rows


def _tokenize(lines):
    out = []
    for line in lines:
        out.extend(line.replace("=<", "<=").replace("=>", ">=")
                   .replace("<=", " <= ").replace(">=", " >= ").split())
    return out


def parse_lp(text: str) -> ParsedLp:
    """Parse LP text produced by this module (and close dialects)."""
    sections = {"objective": [], "rows": [], "bounds": [], "generals": [],
                "binaries": []}
    current = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        key = line.strip().lower()
        if key in _MAXIMIZE:
            raise ValueError("maximization is not supported")
        if key in _SECTION_STARTS:
            current = _SECTION_STARTS[key]
            if current == "end":
                break
            continue
        if current and current != "end":
            sections[current].append(line)

    obj_tokens = _tokenize(sections["objective"])
    obj_rows = _split_rows(obj_tokens)
    objective = _parse_terms(obj_rows[0][1], "the objective") if obj_rows else []

    constraints = []
    for name, body in _split_rows(_tokenize(sections["rows"])):
        sense_idx = next(
            (i for i, tok in enumerate(body) if tok in ("<=", ">=", "=")), None
        )
        if sense_idx is None:
            raise ValueError(f"constraint {name!r} has no comparison operator")
        # one number and nothing more: a dropped token would change the model
        rest = body[sense_idx + 1:]
        rhs = _as_number(rest[0]) if len(rest) == 1 else None
        if rhs is None:
            raise ValueError(f"constraint {name!r} has a non-numeric right side")
        constraints.append(
            Constraint(
                name=name or f"r{len(constraints)}",
                tag="",
                label="",
                terms=tuple(_parse_terms(body[:sense_idx],
                                         f"constraint {name!r}")),
                sense=body[sense_idx],
                rhs=rhs,
            )
        )

    bounds = {}
    for line in sections["bounds"]:
        toks = _tokenize([line])
        where = f"bounds line {line.strip()!r}"
        if len(toks) == 3 and toks[1] in _FLIP and not _is_var(toks[0]):
            # constant first: `-5 <= x` is `x >= -5`
            toks = [toks[2], _FLIP[toks[1]], toks[0]]
        if len(toks) == 5 and toks[1] == toks[3] == "<=" and _is_var(toks[2]):
            name = toks[2]
            lo = _bound_value(toks[0], False, where)
            hi = _bound_value(toks[4], True, where)
        elif len(toks) == 3 and toks[1] in _FLIP and _is_var(toks[0]):
            name = toks[0]
            lo, hi = bounds.get(name, (0, None))
            if toks[1] != ">=":
                hi = _bound_value(toks[2], True, where)
            if toks[1] != "<=":
                lo = _bound_value(toks[2], False, where)
        elif len(toks) == 2 and toks[1].lower() == "free" and _is_var(toks[0]):
            name, lo, hi = toks[0], None, None
        elif not any(_is_var(t) for t in toks):
            raise ValueError(f"{where} names no variable")
        else:
            raise ValueError(f"{where} has a shape this parser does not read")
        bounds[name] = (lo, hi)

    generals = [t for t in _tokenize(sections["generals"]) if _NAME_RE.match(t)]
    binaries = [t for t in _tokenize(sections["binaries"]) if _NAME_RE.match(t)]
    # each name once, where it first appears
    names = dict.fromkeys(name for _, name in objective)
    for row in constraints:
        names.update(dict.fromkeys(name for _, name in row.terms))
    for section in (bounds, generals, binaries):
        names.update(dict.fromkeys(section))
    generals, binaries = set(generals), set(binaries)
    variables = []
    for name in names:
        if name in binaries:
            variables.append(Variable(name, "binary", 0, 1))
        else:
            kind = "general" if name in generals else "continuous"
            variables.append(Variable(name, kind, *bounds.get(name, (0, None))))
    return ParsedLp(objective=objective, constraints=tuple(constraints),
                    variables=tuple(variables))


# ── solution files ───────────────────────────────────────────────────


def _snap(value):
    """The value as an int when within 1e-6 of one, else as a float."""
    v = float(value)
    rounded = round(v)
    return int(rounded) if abs(v - rounded) <= 1e-6 else v


def format_solution(values, objective) -> str:
    """Solution-file text: a `name value` line per (name, value) pair,
    then `objective <v>`."""
    lines = [f"{name} {_snap(value)!r}" for name, value in values]
    lines.append(f"objective {_snap(objective)!r}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str):
    """(assignment, objective) from solution-file text; blank lines and
    `#` comments are skipped.  Raises SolutionParseError on a malformed or
    non-finite line and when the objective line is missing."""
    assignment = {}
    objective = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SolutionParseError(f"malformed solution line: {raw!r}")
        name, value = fields
        try:
            v = float(value)
        except ValueError:
            raise SolutionParseError(f"non-numeric value in line: {raw!r}")
        if not math.isfinite(v):
            raise SolutionParseError(f"non-finite value in line: {raw!r}")
        if name == "objective":
            objective = _snap(v)
        else:
            assignment[name] = _snap(v)
    if objective is None:
        raise SolutionParseError("solution file has no objective line")
    return assignment, objective
