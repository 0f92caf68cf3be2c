"""LP-format text helpers: deterministic emission and a small parser.

The emitter writes the classic sectioned layout (Minimize / Subject To /
Bounds / Generals / Binaries / End) with backslash comment lines and folds
long rows at a fixed width. The parser reads that dialect back (plus the
common sense spellings =< and =>), enough for round-trip checks and for the
bundled reference solver.  It reads minimization models only: a Maximize
section raises ValueError rather than being solved as a minimization.
"""

import re
from dataclasses import dataclass, field

MAX_LINE = 230
_CONT_INDENT = "   "

_NUM_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

_MAXIMIZE = frozenset(("maximize", "maximise", "maximum"))

_SECTION_STARTS = {
    "minimize": "objective",
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
class ParsedRow:
    name: str
    terms: tuple      # ((coef, var), ...)
    sense: str        # one of <=, >=, =
    rhs: int


@dataclass(frozen=True)
class ParsedLp:
    objective: list
    constraints: tuple
    bounds: dict = field(default_factory=dict)
    generals: tuple = ()
    binaries: tuple = ()


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


def fold(first: str, units, limit: int = MAX_LINE) -> list:
    """Pack units onto lines no wider than `limit`, continuing indented."""
    lines = []
    cur = first
    for unit in units:
        if len(cur) + 1 + len(unit) > limit:
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


def _parse_terms(tokens):
    """Linear expression tokens -> [(coef, var)]; bare constants dropped."""
    terms = []
    sign = 1
    pending = None
    for tok in tokens:
        if tok == "+":
            sign, pending = 1, None
            continue
        if tok == "-":
            sign, pending = -1, None
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
    objective = _parse_terms(obj_rows[0][1]) if obj_rows else []

    constraints = []
    for name, body in _split_rows(_tokenize(sections["rows"])):
        sense_idx = next(
            (i for i, tok in enumerate(body) if tok in ("<=", ">=", "=")), None
        )
        if sense_idx is None:
            raise ValueError(f"constraint {name!r} has no comparison operator")
        rhs = _as_number(body[sense_idx + 1])
        if rhs is None:
            raise ValueError(f"constraint {name!r} has a non-numeric right side")
        constraints.append(
            ParsedRow(
                name=name or f"r{len(constraints)}",
                terms=tuple(_parse_terms(body[:sense_idx])),
                sense=body[sense_idx],
                rhs=rhs,
            )
        )

    bounds = {}
    for line in sections["bounds"]:
        toks = _tokenize([line])
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            bounds[toks[2]] = (_as_number(toks[0]), _as_number(toks[4]))
        elif len(toks) == 3 and toks[1] == "<=":
            lo = bounds.get(toks[0], (0, None))[0]
            bounds[toks[0]] = (lo, _as_number(toks[2]))
        elif len(toks) == 3 and toks[1] == ">=":
            hi = bounds.get(toks[0], (0, None))[1]
            bounds[toks[0]] = (_as_number(toks[2]), hi)
        elif len(toks) == 3 and toks[1] == "=":
            v = _as_number(toks[2])
            bounds[toks[0]] = (v, v)
        elif len(toks) == 2 and toks[1].lower() == "free":
            bounds[toks[0]] = (None, None)

    generals = tuple(t for t in _tokenize(sections["generals"]) if _NAME_RE.match(t))
    binaries = tuple(t for t in _tokenize(sections["binaries"]) if _NAME_RE.match(t))
    return ParsedLp(
        objective=objective,
        constraints=tuple(constraints),
        bounds=bounds,
        generals=generals,
        binaries=binaries,
    )
