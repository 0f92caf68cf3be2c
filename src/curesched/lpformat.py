"""The linear model on both sides of an LP file, and its text formats.

`Constraint` and `Variable` are the integer rows and columns, each from
0, that `milp.build_model` builds; `term_units` and `fold` help
`milp.emit_lp` lay them out, and `parse_lp` reads back exactly what it
writes, raising ValueError naming the line of anything else.
`format_solution` and `parse_solution` write and read solution files; with
`EXIT_INFEASIBLE` and `TIME_LIMIT_ENV` they are the contract between the
solver adapter and a solver command.
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

# what `emit_lp` writes as a right side: no -0 and no leading 0
_RHS_RE = re.compile(r"^(0|-?[1-9]\d*)$")
# what `term_units` writes before a name, and `emit_lp` as an upper bound
_COEF_RE = re.compile(r"^([2-9]|[1-9]\d+)$")
_HI_RE = re.compile(r"^(0|[1-9]\d*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_HEADERS = ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End")
_SENSES = ("<=", ">=", "=")


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
    """An integer column from 0: a "binary" (`hi` 1) or a "general"
    (`hi` None for no upper bound)."""

    name: str
    kind: str
    hi: int | None = None


@dataclass(frozen=True)
class ParsedLp:
    """An LP file's model: rows carry an empty tag and label, variables
    come in first-appearance order (objective, rows, Bounds, Generals,
    Binaries), each general with its `Bounds` upper bound or none, each
    binary with `hi` 1."""

    objective: list
    constraints: tuple
    variables: tuple


# ── emission ─────────────────────────────────────────────────────────


def term_units(terms) -> list:
    """Render (coef, var) pairs as fold-safe token groups, `0` for none."""
    if not terms:
        return ["0"]
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


def _as_int(tok: str, pattern=_RHS_RE):
    return int(tok) if pattern.match(tok) else None


def _entries(text):
    """{header: [(line number, tokens), ...]}: one item per entry, which
    starts on a line indented by one space and continues on lines indented
    by `fold`'s indent.  Lines that start with a backslash are comments."""
    sections = {}
    order = iter(_HEADERS)
    header = None
    no = 0
    for no, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("\\"):
            continue
        if line in _HEADERS:
            # `in` advances `order`: each header once, in the emitter's order
            if line not in order:
                raise ValueError(f"line {no}: {line} is out of order")
            if line != "Minimize" and not sections.get("Minimize"):
                raise ValueError(f"line {no}: {line} before the objective")
            header = line
            sections[header] = []
        elif not line.startswith(" "):
            raise ValueError(f"line {no}: {line!r} is not a section header")
        elif header is None:
            raise ValueError(f"line {no}: text before the first header")
        elif header == "End":
            raise ValueError(f"line {no}: text after End")
        elif not line.startswith(_CONT_INDENT):
            if header == "Minimize" and sections[header]:
                raise ValueError(f"line {no}: a second objective entry")
            sections[header].append((no, line.split()))
        elif sections[header]:
            sections[header][-1][1].extend(line.split())
        else:
            raise ValueError(f"line {no}: an indented line with no entry")
    if header != "End":
        raise ValueError(f"line {no}: the text ends before its End line")
    return sections


def _named(no, tokens, what):
    """(name, rest) of an entry that starts `name:`."""
    if not (tokens[0].endswith(":") and _NAME_RE.match(tokens[0][:-1])):
        raise ValueError(f"line {no}: {what} does not start with name:")
    return tokens[0][:-1], tokens[1:]


def _parse_terms(tokens, where):
    """Expression tokens as `term_units` writes them -> [(coef, var)]: a
    term is an optional coefficient, an unsigned integer of 2 or more, and
    a name, with `+` or `-` before every term but a first positive one;
    `0` alone is the empty expression.  Anything else raises ValueError
    naming `where`."""
    if tokens == ["0"]:
        return []
    if not tokens:
        raise ValueError(f"{where} has no expression")
    units = []
    for tok in tokens if tokens[0] == "-" else ["+", *tokens]:
        if tok in ("+", "-"):
            units.append([tok])
        else:
            units[-1].append(tok)
    terms = []
    for sign, *body in units:
        coef = _as_int(body[0], _COEF_RE) if len(body) == 2 else 1
        if not body or len(body) > 2 or coef is None or not _NAME_RE.match(
                body[-1]):
            raise ValueError(f"{where} cannot read the term "
                             f"{' '.join(body) or sign!r}")
        terms.append((coef if sign == "+" else -coef, body[-1]))
    return terms


def parse_lp(text: str) -> ParsedLp:
    """The model in LP text as `milp.emit_lp` writes it."""
    sections = _entries(text)
    ((no, tokens),) = sections["Minimize"]
    _, body = _named(no, tokens, "the objective")
    objective = _parse_terms(body, f"line {no}: the objective")

    constraints = []
    for no, tokens in sections.get("Subject To", ()):
        name, body = _named(no, tokens, "a row")
        where = f"line {no}: constraint {name!r}"
        k = next((i for i, tok in enumerate(body) if tok in _SENSES), None)
        if k is None:
            raise ValueError(f"{where} has no comparison operator")
        # one number and nothing more: a dropped token would change the model
        rhs = _as_int(body[-1]) if len(body) == k + 2 else None
        if rhs is None:
            raise ValueError(f"{where} has a right side that is not one "
                             "integer")
        constraints.append(Constraint(name, "", "",
                                      tuple(_parse_terms(body[:k], where)),
                                      body[k], rhs))

    bounds = {}
    for no, toks in sections.get("Bounds", ()):
        where = f"line {no}: bounds line {' '.join(toks)!r}"
        if len(toks) != 5 or not toks[1] == toks[3] == "<=" or (
                not _NAME_RE.match(toks[2])):
            raise ValueError(f"{where} is not the shape lo <= name <= hi")
        hi = _as_int(toks[4], _HI_RE)
        if hi is None or toks[0] != "0":
            bad = toks[4] if hi is None else toks[0]
            raise ValueError(f"{where} has a bad bound value {bad!r}")
        bounds[toks[2]] = hi

    kinds = {}  # a name in both lists is binary
    for header, kind in (("Generals", "general"), ("Binaries", "binary")):
        for no, toks in sections.get(header, ()):
            if not all(map(_NAME_RE.match, toks)):
                raise ValueError(f"line {no}: {header} lists a non-name")
            kinds.update(dict.fromkeys(toks, kind))
    # each name once, where it first appears
    names = dict.fromkeys(name for _, name in objective)
    for row in constraints:
        names.update(dict.fromkeys(name for _, name in row.terms))
    for section in (bounds, kinds):
        names.update(dict.fromkeys(section))
    variables = []
    for name in names:
        if name not in kinds:  # named at the first entry that holds it
            no = next(no for entries in sections.values()
                      for no, toks in entries if name in toks)
            raise ValueError(f"line {no}: column {name!r} is in neither "
                             "Generals nor Binaries")
        hi = 1 if kinds[name] == "binary" else bounds.get(name)
        variables.append(Variable(name, kinds[name], hi))
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
