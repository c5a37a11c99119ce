"""Parser and printer for the representation-spec DSL.

Grammar (ASCII only):

    spec     := group "on" module ;
    group    := factor { "+" factor } ;
    factor   := NAME "(" INT ")" | "u1" "[" charges "]" ;
    module   := summand { "(+)" summand } ;
    summand  := term { "(x)" term } [ "*" ] [ "@" charges ] ;
    term     := "std" "(" INT ")" | "sym2" "(" INT ")" | "alt2" "(" INT ")"
              | "spin" "(" INT ")" | "triv" ;
    charges  := INT { "," INT } ;

The INT of a term is the 1-based factor index, "*" marks the dual summand,
and "@" assigns one integer charge per ambient torus circle.  Factor names
are su, so, sp, g2, f4, e6, e7, e8.  In pattern mode the INT slots may
carry arithmetic expressions over parameter names (used by the table
datasets); concrete parses reject symbols.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass

from .matrep import FACTOR_KINDS, Factor, GroupSpec, RepSpec, Summand, Term


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


TERM_NAMES = ("std", "sym2", "alt2", "spin", "triv")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<oplus>\(\+\))|(?P<otimes>\(x\))|(?P<intdiv>//)"
    r"|(?P<name>[a-z][a-z0-9]*)"
    r"|(?P<int>-?\d+)|(?P<punct>[()\[\],@*+-])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens (kind, text, line, col) of a spec, line and column
    1-based, from one regex pass over each line: every non-space character
    starts a match, so the matches are contiguous and end at the line's
    trailing whitespace."""
    toks = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start(kind) + 1)
            toks.append((kind, m.group(kind), lineno, m.start(kind) + 1))
    return toks


_ALLOWED_AST = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.FloorDiv,
    ast.Mod,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.Div,
)


@functools.lru_cache(maxsize=None)
def _compiled(text: str) -> tuple[tuple[str, ...], str | None, object]:
    """(names, error, code) of an expression text, parsed and checked once:
    the names met before the first fault in ast.walk order, that fault's
    message (code is then None) and the compiled expression."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        return (), f"bad expression {text!r}: {exc}", None
    names: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_AST):
            return tuple(names), f"disallowed syntax in expression {text!r}", None
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, bool)):
            return tuple(names), f"non-integer constant in {text!r}", None
        if isinstance(node, ast.Name):
            names.append(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return tuple(names), "use // for division in integer expressions", None
    return tuple(names), None, compile(tree, "<expr>", "eval")


def expr_names(text: str) -> set[str]:
    """The parameter names an expression reads (of a malformed expression,
    those met before its first fault)."""
    return set(_compiled(text)[0])


def eval_int_expr(text: str, env: dict[str, int]) -> int:
    """Exact evaluation of a small integer/boolean expression."""
    names, error, code = _compiled(text)
    for name in names:
        if name not in env:
            raise ValueError(f"unknown parameter {name!r} in {text!r}")
    if error is not None:
        raise ValueError(error)
    value = eval(code, {"__builtins__": {}}, dict(env))
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, int):
        raise ValueError(f"expression {text!r} is not integral")
    return value


def check_expr(text: str) -> None:
    """Raise ValueError if text is not a well-formed integer expression."""
    error = _compiled(text)[1]
    if error is not None:
        raise ValueError(error)


def eval_condition(text: str, env: dict[str, int]) -> bool:
    """Evaluate a row condition like 'n >= 4 and a != b'."""
    if not text or text.strip() in ("", "-", "true"):
        return True
    return bool(eval_int_expr(text, env))


@dataclass(frozen=True)
class PatternSpec:
    """A parsed spec whose integer slots may still be symbolic."""

    factors: tuple[tuple[str, str], ...]
    torus_lines: tuple[tuple[str, ...], ...]
    summands: tuple[tuple[tuple[tuple[str, int], ...], bool, tuple[str, ...]], ...]

    def parameters(self) -> set[str]:
        names = set()
        for _, e in self.factors:
            names |= expr_names(e)
        for line in self.torus_lines:
            for c in line:
                names |= expr_names(c)
        for terms, _, charges in self.summands:
            for c in charges:
                names |= expr_names(c)
        return names

    def instantiate(self, env: dict[str, int]) -> tuple[GroupSpec, RepSpec]:
        factors = tuple(
            Factor(kind, eval_int_expr(e, env)) for kind, e in self.factors
        )
        lines = tuple(
            tuple(eval_int_expr(c, env) for c in line) for line in self.torus_lines
        )
        lines = tuple(_primitive(line) for line in lines)
        group = GroupSpec(factors=factors, torus_lines=lines)
        summands = []
        for terms, dual, charges in self.summands:
            for kind, idx in terms:
                if kind != "triv" and not 1 <= idx <= len(factors):
                    raise ValueError(f"factor index {idx} out of range")
            tt = tuple(
                Term(kind, idx) if kind != "triv" else Term("triv")
                for kind, idx in terms
            )
            cc = tuple(eval_int_expr(c, env) for c in charges)
            summands.append(Summand(terms=tt, dual=dual, charges=cc))
        return group, RepSpec(summands=tuple(summands))


def _primitive(line: tuple[int, ...]) -> tuple[int, ...]:
    from math import gcd

    g = 0
    for c in line:
        g = gcd(g, abs(c))
    if g > 1:
        return tuple(c // g for c in line)
    return line


class _Parser:
    """Recursive descent over the tokens (kind, text, line, col) of _tokenize."""

    def __init__(self, text: str, symbolic: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbolic = symbolic
        self.text = text

    def _peek(self) -> tuple[str, str, int, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _fail(self, message: str):
        t = self._peek()
        if t is None:
            last_line = self.text.count("\n") + 1
            raise ParseError(message + " (at end of input)", last_line, 1)
        raise ParseError(message, t[2], t[3])

    def _take(self, kind: str, text: str | None = None) -> tuple[str, str, int, int]:
        t = self._peek()
        if t is None or t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            self._fail(f"expected {want!r}")
        self.pos += 1
        return t

    def _accept(self, kind: str, text: str | None = None) -> tuple[str, str, int, int] | None:
        t = self._peek()
        if t is not None and t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def _int_slot(self) -> str:
        # literal, or (in pattern mode) an expression until , ) ] or summand op
        t = self._peek()
        if t is None:
            self._fail("expected an integer")
        if not self.symbolic:
            if t[0] != "int":
                self._fail("expected an integer")
            self.pos += 1
            return t[1]
        parts = []
        depth = 0
        while True:
            t = self._peek()
            if t is None:
                break
            if t[0] in ("oplus", "otimes"):
                break
            if t[0] == "punct":
                if t[1] in (",", "]") and depth == 0:
                    break
                if t[1] == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif t[1] == "(":
                    depth += 1
                elif t[1] == "@":
                    break
            parts.append(t[1])
            self.pos += 1
        if not parts:
            self._fail("expected an integer or expression")
        return " ".join(parts)

    def parse(self) -> PatternSpec:
        if self._peek() is None:
            raise ParseError("empty specification", 1, 1)
        factors: list[tuple[str, str]] = []
        lines: list[tuple[str, ...]] = []
        while True:
            t = self._peek()
            if t is None or t[0] != "name":
                self._fail("expected a factor name")
            if t[1] == "u1":
                self.pos += 1
                self._take("punct", "[")
                charges = [self._int_slot()]
                while self._accept("punct", ","):
                    charges.append(self._int_slot())
                self._take("punct", "]")
                lines.append(tuple(charges))
            elif t[1] in FACTOR_KINDS:
                self.pos += 1
                self._take("punct", "(")
                n = self._int_slot()
                self._take("punct", ")")
                factors.append((t[1], n))
            elif t[1] == "on":
                self._fail("expected a factor before 'on'")
            else:
                self._fail(f"unknown factor name {t[1]!r}")
            if self._accept("punct", "+"):
                continue
            break
        self._take("name", "on")
        summands = []
        while True:
            summands.append(self._summand())
            if self._accept("oplus"):
                continue
            break
        if self._peek() is not None:
            self._fail("trailing input")
        return PatternSpec(
            factors=tuple(factors),
            torus_lines=tuple(lines),
            summands=tuple(summands),
        )

    def _summand(self):
        terms = [self._term()]
        while self._accept("otimes"):
            terms.append(self._term())
        dual = self._accept("punct", "*") is not None
        charges: tuple[str, ...] = ()
        if self._accept("punct", "@"):
            cc = [self._int_slot()]
            while self._accept("punct", ","):
                cc.append(self._int_slot())
            charges = tuple(cc)
        return tuple(terms), dual, charges

    def _term(self):
        t = self._peek()
        if t is None or t[0] != "name" or t[1] not in TERM_NAMES:
            self._fail("expected a term (std/sym2/alt2/spin/triv)")
        self.pos += 1
        if t[1] == "triv":
            return ("triv", 0)
        self._take("punct", "(")
        idx = self._int_slot()
        self._take("punct", ")")
        if not idx.lstrip("-").isdigit():
            self._fail("factor index must be a literal integer")
        return (t[1], int(idx))


def parse_pattern(text: str) -> PatternSpec:
    """Parse a spec whose integer slots may be symbolic expressions."""
    return _Parser(text, symbolic=True).parse()


def parse_repspec(text: str) -> tuple[GroupSpec, RepSpec]:
    """Parse a concrete spec into a GroupSpec and RepSpec."""
    pattern = _Parser(text, symbolic=False).parse()
    return pattern.instantiate({})


def print_repspec(group: GroupSpec, rep: RepSpec) -> str:
    """Canonical ASCII form; parse(print(s)) round-trips.  A weight term
    has no spec syntax and raises ValueError."""
    sums = []
    for sm in rep.summands:
        ts = []
        for t in sm.terms:
            if t.kind == "triv":
                ts.append("triv")
            elif t.kind == "weight":
                raise ValueError(f"weight({t.factor}) term {t.weight} has no spec syntax")
            else:
                ts.append(f"{t.kind}({t.factor})")
        s = " (x) ".join(ts)
        if sm.dual:
            s += " *"
        if sm.charges:
            s += " @ " + ",".join(str(c) for c in sm.charges)
        sums.append(s)
    return f"{group} on " + " (+) ".join(sums)
