"""Machine-readable encodings of the classification tables and slice facts.

Data lives in line-oriented text files under data/: one record per line of
key=value fields, each value bare or quoted in "..." or '...', a versioned
header line, and # comments.
Rows carry the verbatim source text plus corrected mirror fields wherever
the source's stated form conflicts with the exact computations; reports
always show both.  The query API evaluates symbolic row conditions exactly
and pattern-matches concrete representations against the table rows.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from math import gcd

from .dsl import PatternSpec, check_expr, eval_condition, eval_int_expr, expr_names, parse_pattern
from .matrep import (
    Factor,
    GroupSpec,
    NotRealizable,
    RepresentationError,
    RepSpec,
    Summand,
    _factor_module,
    _weights,
    net_charges,
    one_dimensional,
    real_blocks,
)

DATA_ENV_VAR = "LIE_COISO_DATA"


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# record parsing


# one field of a dataset line, key=value with the value bare, "..." or
# '...'; anything else up to the next space is a malformed field
_FIELD = re.compile(r"""([^\s="']+)=(?:"([^"]*)"|'([^']*)'|([^\s"']*))(?:\s+|$)|(\S+)\s*""")


def _fields(line: str) -> dict[str, str]:
    """The key=value fields of a stripped dataset line."""
    rec: dict[str, str] = {}
    for m in _FIELD.finditer(line):
        key, double, single, bare, bad = m.groups()
        if bad is not None:
            if '"' in bad or "'" in bad:
                raise ValueError(f"field {bad!r} has an unclosed or misplaced quote")
            raise ValueError(f"field {bad!r} is not key=value")
        rec[key] = next(v for v in (double, single, bare) if v is not None)
    return rec


def _records(cls, name: str, directory: str | None, finish=lambda record: record) -> list:
    """One cls record per line of a dataset file after its versioned
    header, the line's keys passed as the record's fields and the record
    passed through finish: a missing, unknown or malformed key, or a fault
    that finish raises, is a DataError naming the file and line."""
    if directory is not None:
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        path = name
        text = resources.files("coisotropy").joinpath("data", name).read_text(encoding="utf-8")
    records = []
    header_seen = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = _fields(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not header_seen:
            if rec.get("format") is None or rec.get("version") != "1":
                raise DataError(f"{path}: missing or bad header line")
            header_seen = True
            continue
        try:
            records.append(finish(cls(**rec)))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not header_seen:
        raise DataError(f"{path}: empty dataset file")
    return records


def parse_instantiations(text: str) -> list[dict[str, int]]:
    """'k=1,m=2|k=1,m=3' -> [{'k':1,'m':2}, {'k':1,'m':3}]."""
    out = []
    if not text:
        return out
    for chunk in text.split("|"):
        env: dict[str, int] = {}
        for part in filter(str.strip, chunk.split(",")):
            name, eq, value = (x.strip() for x in part.partition("="))
            if not (eq and name.isidentifier() and value.lstrip("-").isdigit()):
                raise ValueError(f"inst chunk {part.strip()!r} is not name=integer")
            env[name] = int(value)
        out.append(env)
    return out


def _int_lines(text: str) -> tuple[tuple[int, ...], ...]:
    """'1,0;0,1' -> ((1, 0), (0, 1))."""
    if not text:
        return ()
    return tuple(tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";"))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HSSpace:
    """One of the four compact irreducible Hermitian symmetric families."""

    label: str  # 'sp' | 'so' | 'e7' | 'e6'
    m: int = 0

    def __post_init__(self):
        if self.label not in ("sp", "so", "e7", "e6"):
            raise DataError(f"unknown space label {self.label!r}")
        if self.label in ("sp", "so") and self.m < 1:
            raise DataError("classical space needs a positive parameter")

    @property
    def complex_dim(self) -> int:
        if self.label == "sp":
            return self.m * (self.m + 1) // 2
        if self.label == "so":
            return self.m * (self.m - 1) // 2
        return 27 if self.label == "e7" else 16


def _space_parts(text: str) -> tuple[str, str]:
    """(label, parameter expression) of a space field, 'sp:m+2' or 'so:m',
    or e7/e6 with no expression; the expression is checked for syntax."""
    t = text.strip().lower()
    if t in ("e7", "e7/t1.e6"):
        return "e7", ""
    if t in ("e6", "e6/t1.spin(10)"):
        return "e6", ""
    if t[:3] in ("sp:", "so:"):
        check_expr(t[3:])
        return t[:2], t[3:]
    raise DataError(f"bad space field {text!r}")


def space_from_text(text: str, env: dict[str, int]) -> HSSpace:
    """The space of a space field with its parameters taken from env."""
    label, expr = _space_parts(text)
    return HSSpace(label, eval_int_expr(expr, env)) if expr else HSSpace(label)


# Each record class takes the keys of its file as its fields: a field with
# no default is a required key, and an optional key defaults to "".


class _Instantiated:
    """A row whose inst key lists parameter choices, 'k=1,m=2|k=1,m=3'."""

    def instantiations(self) -> list[dict[str, int]]:
        return parse_instantiations(self.inst)


@dataclass(frozen=True)
class MFTableEntry(_Instantiated):
    table: str  # Ia | Ib | IIa | IIb
    row: str
    pattern: PatternSpec  # the pattern text, parsed on construction
    cond: str = ""
    cond_verbatim: str = ""  # the source's condition where it differs from cond
    inst: str = ""
    anchor: str = ""
    note: str = ""
    scalar_policy: str = ""  # filled for Ia rows after Ib matching
    removable_cond: str = ""  # the Ib condition gating removability

    def __post_init__(self):
        if isinstance(self.pattern, str):
            object.__setattr__(self, "pattern", parse_pattern(self.pattern))
        envs = self.instantiations()
        if not envs and self.pattern.parameters():
            raise ValueError("a pattern with parameters needs instantiations")
        # the first three must elaborate; charges a=1, b=2 stand in for the
        # summand charges a condition may read
        for env in envs[:3] or [{}]:
            if not eval_condition(self.cond, {"a": 1, "b": 2, **env}):
                raise ValueError(f"instantiation {env} violates its own condition")
            group, rep = self.pattern.instantiate(env)
            if any(_summand_dim(group, sm) < 1 for sm in rep.summands):
                raise ValueError(f"instantiation {env} has a zero-dimensional summand")


@dataclass(frozen=True)
class MaxSubgroupEntry:
    table: str  # III | IV | V
    ambient: str  # sp | so | su
    row: str
    kind: str  # symmetric | unitary | tensor-embedding | irreducible-rep | torus
    subgroup: str = ""
    cond: str = ""
    reality: str = ""  # R | C | H for irreducible-rep rows
    degree: str = ""  # symbolic degree expression
    anchor: str = ""
    note: str = ""

    def __post_init__(self):
        if self.ambient not in ("sp", "so", "su"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        if self.kind not in ("symmetric", "unitary", "tensor-embedding", "irreducible-rep", "torus"):
            raise ValueError(f"unknown kind {self.kind!r}")
        # the {expr} slots of subgroup, and cond and degree where given
        for expr in re.findall(r"\{([^}]*)\}", self.subgroup) + [x for x in (self.cond, self.degree) if x]:
            check_expr(expr)


@dataclass(frozen=True)
class SliceFact:
    id: str
    space: str  # sp | so | e7 | e6
    orbit: str  # fixed-point | complex-orbit | totally-real
    param: str = ""  # the classical space's parameter
    subgroup: str = ""
    slice: str = ""  # DSL pattern, possibly symbolic
    orbitdim: str = ""  # symbolic complex orbit dimension, '' if not computable
    source: str = ""
    anchor: str = ""
    note: str = ""


# The verify recipes of result rows, one branch of classify._run_row each.
RECIPES = (
    "mf-slice",
    "slice-fail",
    "cohom-slice",
    "cohom-real",
    "dim-fail",
    "poly",
    "scan",
    "transitive",
    "symmetric",
    "cohom-one",
    "known-polar",
    "lie-triple",
    "reducible-nonpolar",
    "encoded-nonpolar",
    "encoded-only",
)
# the field a recipe cannot run without; a slice may also come from slice_id
_NEEDS = {
    "mf-slice": "slice",
    "slice-fail": "slice",
    "cohom-slice": "slice",
    "reducible-nonpolar": "slice",
    "cohom-real": "realslice",
    "dim-fail": "candidate",
    "poly": "poly",
    "scan": "scan",
}
# the expect= names the cohom-slice, cohom-real and cohom-one recipes read
_EXPECT_NAMES = ("ch", "princ", "rank", "coiso", "identity")


# The quadratic elimination families that poly= names.  coeffs[i][j] is the
# integer coefficient of x^i q^j in f, and f3_claimed[j] that of q^j in the
# paper's stated value of f(3); classify.polynomial_family proves f > 0 for
# every x >= x_min and q >= q_min from these coefficients.
POLY_FAMILIES = {
    "3.2": {
        "coeffs": ((2, -1, -1), (-1, 1, 0), (-1, 0, 1)),
        "x_min": 3,
        "q_min": 2,
        "f3_claimed": (-10, 2, 8),
        "definition": "x^2 (q^2 - 1) + x (q - 1) - q^2 - q + 2",
    },
    "3.3": {
        "coeffs": ((0, -4, -4), (0, 2, 0), (-1, 0, 2)),
        "x_min": 3,
        "q_min": 1,
        "f3_claimed": (-9, 2, 14),
        "definition": "x^2 (2 q^2 - 1) + 2 x q - 4 q^2 - 4 q",
    },
    "4.2": {
        "coeffs": ((2, -1, -1), (-1, -1, 0), (-1, 0, 1)),
        "x_min": 3,
        "q_min": 2,
        "f3_claimed": (-8, -4, 8),
        "definition": "x^2 (q^2 - 1) - x (q + 1) - q^2 - q + 2",
        "note": "the restated value of f(3) carries a +4 for the defining +2",
    },
    "4.5": {
        "coeffs": ((-1, 0, -2), (0, 0, 0), (-2, 0, 1)),
        "x_min": 3,
        "q_min": 3,
        "f3_claimed": (-19, 0, 1),
        "definition": "x^2 (p^2 - 2) - 2 p^2 - 1",
        "note": "the stated f(3) = p^2 - 19 disagrees with the definition, "
        "whose value is 7 p^2 - 19; the claimed form is positive only from "
        "p = 5 while the true value is positive on the whole range",
    },
}


@dataclass(frozen=True)
class ResultRow(_Instantiated):
    """A result-table row and its verification recipe.  The recipe fields
    are parsed on construction; the file's text of a field is converted
    only while it is still a str, so dataclasses.replace keeps working.
    The fields kept as text are checked there too: the space label and the
    syntax of its expression, the poly id and the real block names."""

    table: str  # 1 | 2 | 3 | 4
    row: str
    algebra: str
    space: str
    verify: str  # one of RECIPES
    outcome: str
    algebra_corrected: str = ""
    space_corrected: str = ""
    cond: str = ""
    cond_corrected: str = ""
    inst: str = ""
    verbatim_outcome: str = ""
    candidate: PatternSpec | None = None  # 'so(p) + sp(q)', held as '... on triv'
    slice: PatternSpec | None = None  # filled from slice_id on loading
    slice_id: str = ""
    realslice: str = ""  # real blocks, 'triv:2,vec7,spin8' (matrep.real_block_rep)
    expect: tuple[tuple[str, str], ...] = ()  # 'ch=4;princ=m-2' -> (name, expression)
    lines: tuple[tuple[int, ...], ...] = ()  # '1,0;0,1' -> sampled torus lines
    forbidden: tuple[tuple[int, ...], ...] = ()  # torus lines that must fail
    drop: str = ""  # '' | 'false' (must fail without scalars) | 'true' | 'need2'
    poly: str = ""
    scan: tuple[str, int, int] | None = None  # 'R,12,47' -> (reality, degree, min_dim)
    anchor: str = ""
    note: str = ""

    def __post_init__(self):
        if self.verify not in RECIPES:
            raise ValueError(f"unknown verify recipe {self.verify!r}")
        if self.drop not in ("", "false", "true", "need2"):
            raise ValueError(f"drop {self.drop!r} is not false, true or need2")
        self.instantiations()  # a malformed inst fails at its file and line
        convert = {
            "candidate": lambda t: parse_pattern(t + " on triv") if t else None,
            "slice": lambda t: parse_pattern(t) if t else None,
            "expect": _expect_pairs,
            "lines": _int_lines,
            "forbidden": _int_lines,
            "scan": lambda t: _scan_triple(t) if t else None,
        }
        for name, parse in convert.items():
            if isinstance(getattr(self, name), str):
                object.__setattr__(self, name, parse(getattr(self, name)))
        need = _NEEDS.get(self.verify)
        if need and not getattr(self, need) and not (need == "slice" and self.slice_id):
            raise ValueError(f"verify={self.verify} needs {need}=")
        if self.verify == "encoded-only" and not (self.note or self.anchor):
            raise ValueError("verify=encoded-only needs a note or an anchor")
        _space_parts(self.space_corrected or self.space)
        if self.poly and self.poly not in POLY_FAMILIES:
            raise ValueError(f"unknown polynomial family {self.poly!r}")
        if self.realslice:
            real_blocks(self.realslice)
        if self.verify == "cohom-real" and "rank" not in dict(self.expect):
            raise ValueError("verify=cohom-real needs expect=rank, the rank its real block model is built with")


def _expect_pairs(text: str) -> tuple[tuple[str, str], ...]:
    """'ch=4;princ=m-2' -> (('ch', '4'), ('princ', 'm-2'))."""
    out = []
    for chunk in filter(str.strip, text.split(";")):
        name, eq, expr = chunk.partition("=")
        if not eq or name.strip() not in _EXPECT_NAMES:
            raise ValueError(f"expect chunk {chunk!r} is not name=expression, name in {_EXPECT_NAMES}")
        out.append((name.strip(), expr))
    return tuple(out)


def _scan_triple(text: str) -> tuple[str, int, int]:
    """'R,12,47' -> ('R', 12, 47)."""
    parts = text.split(",")
    if len(parts) != 3 or parts[0] not in ("R", "C", "H"):
        raise ValueError(f"scan {text!r} is not reality,degree,min_dim with reality R, C or H")
    return parts[0], int(parts[1]), int(parts[2])


@dataclass(frozen=True)
class SymmetricPairRow:
    ambient: str
    subgroup: str
    cond: str = ""
    note: str = ""


@dataclass(frozen=True)
class LemmaRow:
    """An exception of the lemma 2.1 inequalities (part, family, rank,
    weight), or a stated-versus-formula note (kind=note)."""

    kind: str = ""
    part: str = ""
    family: str = ""
    rank: str = ""
    weight: str = ""
    id: str = ""
    stated: str = ""
    formula: str = ""
    note: str = ""

    def __post_init__(self):
        if self.kind != "note" and not (self.part and self.family and self.rank and self.weight):
            raise ValueError("an exception row needs part, family, rank and weight")


@dataclass
class Dataset:
    mf_entries: list[MFTableEntry]
    maxsub_entries: list[MaxSubgroupEntry]
    slice_facts: list[SliceFact]
    result_rows: list[ResultRow]
    symmetric_pairs: list[SymmetricPairRow]
    lemma_records: list[LemmaRow]
    notes: list[LemmaRow]

    def results_for(self, table: str) -> list[ResultRow]:
        return [r for r in self.result_rows if r.table == table]

    def mf_rows(self, table: str) -> list[MFTableEntry]:
        return [r for r in self.mf_entries if r.table == table]

    @functools.cached_property
    def _mf_index(self) -> dict[tuple, list[tuple[MFTableEntry, int]]]:
        """(row, su count) of each MF row, in table order, by (table,
        summand count, sorted factor kinds other than su)."""
        index: dict[tuple, list[tuple[MFTableEntry, int]]] = {}
        for e in self.mf_entries:
            kinds = [kind for kind, _ in e.pattern.factors]
            key = (e.table, len(e.pattern.summands), tuple(sorted(k for k in kinds if k != "su")))
            index.setdefault(key, []).append((e, kinds.count("su")))
        return index

    def mf_rows_fitting(self, table: str, summands: int, kinds: list[str]) -> list[MFTableEntry]:
        """The rows of a table with this many summands, in table order, whose
        factor kinds can be kinds (those of the concrete factors a module
        uses) and su for the rest: the same kinds other than su, and at
        least as many su.  No other row has a map onto the used factors
        (_factor_maps)."""
        n_su = kinds.count("su")
        key = (table, summands, tuple(sorted(k for k in kinds if k != "su")))
        return [e for e, su in self._mf_index.get(key, ()) if su >= n_su]


def load_dataset(directory: str | None = None) -> Dataset:
    """The checked dataset of a directory, by default the one LIE_COISO_DATA
    names at the time of the call, else the packaged data; each directory
    is loaded once."""
    return _load_dataset(directory if directory is not None else os.environ.get(DATA_ENV_VAR) or None)


@functools.lru_cache(maxsize=4)
def _load_dataset(directory: str | None) -> Dataset:
    mf_entries = _records(MFTableEntry, "mftables.txt", directory)
    # an Ia row is scalar-removable iff an Ib row has the same pattern; the
    # Ib condition then gates removability
    ib_cond = {e.pattern: e.cond for e in mf_entries if e.table == "Ib"}
    mf_entries = [
        replace(
            e,
            scalar_policy="removable" if e.pattern in ib_cond else "required",
            removable_cond=ib_cond.get(e.pattern, ""),
        )
        if e.table == "Ia"
        else e
        for e in mf_entries
    ]
    lemma = _records(LemmaRow, "lemma21.txt", directory)
    slice_facts = _records(SliceFact, "slices.txt", directory)
    slices = {f.id: f.slice for f in slice_facts}

    def with_slice(row: ResultRow) -> ResultRow:
        # a row's own slice wins over the one its slice_id names
        if row.slice_id and row.slice_id not in slices:
            raise DataError(f"unknown slice fact {row.slice_id!r}")
        if row.slice is None and slices.get(row.slice_id):
            row = replace(row, slice=slices[row.slice_id])
        if _NEEDS.get(row.verify) == "slice" and row.slice is None:
            raise DataError(f"slice fact {row.slice_id} has no slice")
        return row

    return Dataset(
        mf_entries=mf_entries,
        maxsub_entries=_records(MaxSubgroupEntry, "maxsub.txt", directory),
        slice_facts=slice_facts,
        result_rows=_records(ResultRow, "results.txt", directory, with_slice),
        symmetric_pairs=_records(SymmetricPairRow, "sympairs.txt", directory),
        lemma_records=[r for r in lemma if r.kind != "note"],
        notes=[r for r in lemma if r.kind == "note"],
    )


def _summand_dim(group: GroupSpec, sm: Summand) -> int:
    d = 1
    for t in sm.terms:
        if t.kind == "triv":
            continue
        fac = group.factors[t.factor - 1]
        n = fac.std_dim
        if t.kind == "std":
            d *= n
        elif t.kind == "sym2":
            d *= n * (n + 1) // 2
        elif t.kind == "alt2":
            d *= n * (n - 1) // 2
        elif t.kind == "spin":
            d *= 2 ** ((fac.n - 1) // 2) if fac.n % 2 else 2 ** (fac.n // 2 - 1)
        elif t.kind == "weight":
            from .rootsys import DominantWeight, build_root_system, weyl_dim

            d *= weyl_dim(build_root_system(fac.simple_type), DominantWeight(t.weight))
    return d


# ---------------------------------------------------------------------------
# pattern matching against the multiplicity-free tables


@dataclass
class MFLookup:
    match: MFTableEntry | None
    scalar_policy: str
    condition_evaluated: bool | None
    mf: bool | None
    parameters: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _slots(group: GroupSpec, sm: Summand) -> list[tuple[str, int]]:
    """(kind, factor index) of each term of a summand that is not a
    one-dimensional slot (triv, or matrep.one_dimensional)."""
    return [
        (t.kind, t.factor - 1)
        for t in sm.terms
        if t.kind != "triv" and not one_dimensional(group.factors[t.factor - 1], t.kind)
    ]


@functools.lru_cache(maxsize=None)
def _self_dual(fac: Factor, kind: str) -> bool:
    """Whether a std, sym2, alt2 or spin term of one factor is isomorphic to
    its dual: the weights of its cached matrix model, read off the Cartan
    diagonal, are symmetric under negation.  A term with no matrix model
    counts as not self-dual."""
    try:
        if fac.simple_type is None:
            return False
        mod = _factor_module(fac, kind, None)
    except (NotRealizable, RepresentationError):
        return False
    w = _weights(mod, list(range(fac.rank)))
    return sorted(w.tolist()) == sorted((-w).tolist())


def _charge_span(rows: list[tuple[int, ...]]) -> tuple[int, tuple[int, ...] | None]:
    """(rank, generator) of the span of integer charge rows of at most two
    columns, one row per torus line; for rank 1 the generator is the
    primitive integer vector with a positive leading entry, else None."""
    nonzero = [row for row in rows if any(row)]
    if not nonzero:
        return 0, None
    first = nonzero[0]
    if len(first) == 2 and any(first[0] * b != first[1] * a for a, b in nonzero):
        return 2, None
    g = gcd(*first) * (1 if next(x for x in first if x) > 0 else -1)
    return 1, tuple(x // g for x in first)


def lookup_mf(group: GroupSpec, rep: RepSpec, dataset: Dataset | None = None) -> MFLookup:
    """Match a concrete representation against the classification tables.

    One summand consults the irreducible rows, two summands the reducible
    ones, in table order, up to summand order and global dualization, by an
    injective map from pattern factors to concrete factors.  The dual flag
    of a self-dual summand is not compared.  The first candidate whose dual
    flags agree exactly wins, else the first candidate.  More than two
    summands cannot be indecomposably multiplicity free, so no row can match;
    their charges are checked first, as realize checks them (net_charges).
    Only the rows whose factor kinds fit those of the concrete factors used
    are visited (Dataset.mf_rows_fitting).
    """
    ds = dataset or load_dataset()
    net = net_charges(group, rep)
    r = len(rep.summands)
    if r > 2:
        return MFLookup(
            match=None,
            scalar_policy="",
            condition_evaluated=None,
            mf=False,
            notes=[
                "more than two irreducible summands: not multiplicity free "
                "unless the action decomposes"
            ],
        )
    span = _charge_span(list(zip(*net)))
    slots = [_slots(group, sm) for sm in rep.summands]
    faces = []  # (summand order, the slots each pattern summand faces, their factors)
    for order in [(0,)] if r == 1 else [(0, 1), (1, 0)]:
        faced = [slots[c] for c in order]
        faces.append((order, faced, list(dict.fromkeys(f for sl in faced for _, f in sl))))
    kinds = [group.factors[f].kind for f in faces[0][2]]  # every face uses the same factors
    first = None
    for table in ["Ia"] if r == 1 else ["IIa", "IIb"]:
        for entry in ds.mf_rows_fitting(table, r, kinds):
            pat = entry.pattern
            for order, env in _factor_maps(group, pat, faces):
                for gdual in (False, True):
                    differ = [
                        c
                        for (_, p_dual, _), c in zip(pat.summands, order)
                        if (rep.summands[c].dual != gdual) != p_dual
                    ]
                    if not all(
                        _self_dual(group.factors[f], k) for c in differ for k, f in slots[c]
                    ):
                        continue
                    found = _evaluate_match(entry, env, order, gdual, span)
                    if found is not None and not differ:
                        return found
                    first = first or found
    return first or MFLookup(
        match=None,
        scalar_policy="",
        condition_evaluated=None,
        mf=False,
        notes=["no table row matches"],
    )


_SU1 = Factor("su", 1)


def _factor_maps(group: GroupSpec, pat: PatternSpec, faces: list):
    """(order, env) for each face (order, faced, used) of the concrete
    summands and each parameter environment of an injective map from the
    pattern factors onto the concrete factors used that carries each
    pattern summand's multiset of (term kind, factor) onto faced[k], the
    slots of the concrete summand it faces.  Each used factor takes a
    pattern factor of its own kind, and a pattern factor left over becomes
    su(1), which holds only one-dimensional slots; so unless the pattern's
    kinds are the used ones and su for the rest, no map exists, and
    lookup_mf visits no such row."""
    kinds = [kind for kind, _ in pat.factors]
    for order, faced, used in faces:
        for image in itertools.permutations(range(len(kinds)), len(used)):
            fmap = dict(zip(image, used))
            facs = [group.factors[fmap[pf]] if pf in fmap else _SU1 for pf in range(len(kinds))]
            if any(kind != fac.kind for kind, fac in zip(kinds, facs)):
                continue
            if not all(
                sorted((k, fmap[f - 1]) for k, f in p_terms if f - 1 in fmap) == sorted(sl)
                and all(k == "triv" or one_dimensional(_SU1, k) for k, f in p_terms if f - 1 not in fmap)
                for (p_terms, _, _), sl in zip(pat.summands, faced)
            ):
                continue
            env: dict[str, int] | None = {}
            for (_, expr), fac in zip(pat.factors, facs):
                env = _solve_rank(expr, fac.n, env)
                if env is None:
                    break
            else:
                yield order, env


def _solve_rank(expr_text: str, value: int, env: dict[str, int]) -> dict[str, int] | None:
    """Extend env so expr evaluates to value; None if impossible.  A fresh
    dict each call, from the solution memoized per distinct input."""
    found = _rank_solution(expr_text, value, tuple(env.items()))
    return None if found is None else dict(found)


@functools.lru_cache(maxsize=4096)
def _rank_solution(expr_text: str, value: int, bound: tuple) -> tuple | None:
    """_solve_rank at the bound parameters (name, value), as items: the
    lookups of a stream ask the same few inputs for every factor map."""
    env = dict(bound)
    names = [n for n in expr_names(expr_text) if n not in env]
    if not names:
        try:
            return bound if eval_int_expr(expr_text, env) == value else None
        except ValueError:
            return None
    if len(names) > 1:
        return None
    name = names[0]
    for cand in range(0, value + 3):
        try:
            if eval_int_expr(expr_text, {**env, name: cand}) == value:
                return (*bound, (name, cand))
        except ValueError:
            pass
    return None


@functools.lru_cache(maxsize=4096)
def _condition(text: str, bound: tuple) -> bool:
    """eval_condition of a row condition at the parameters bound, as items,
    memoized like _rank_solution; a ValueError is raised again each call."""
    return eval_condition(text, dict(bound))


def _evaluate_match(entry, env, order, gdual, span) -> MFLookup | None:
    r = len(order)
    notes: list[str] = []
    # the structural (parameter-only) part of the condition gates the match;
    # sentinel charges satisfy every charge-shaped clause in the tables
    sentinel = {**env, "a": 10**6 + 1, "b": 10**6 - 1}
    try:
        if not _condition(entry.cond, tuple(sentinel.items())):
            return None
    except ValueError:
        return None
    span_dim, gen = span
    if span_dim >= r:
        if expr_names(entry.cond) & {"a", "b"}:
            notes.append("full scalars present; charge condition satisfiable")
        charge_env, scalar_state = sentinel, "full"
    elif span_dim == 1:  # one line on two summands
        sgn = -1 if gdual else 1
        a, b = (sgn * gen[c] for c in order)
        charge_env, scalar_state = {**env, "a": a, "b": b}, "line"
    else:
        charge_env, scalar_state = {**env, "a": 0, "b": 0}, "none"

    try:
        cond_ok = _condition(entry.cond, tuple(charge_env.items()))
    except ValueError:
        return None

    if entry.table == "Ia":
        removable = entry.scalar_policy == "removable" and _condition(entry.removable_cond, tuple(env.items()))
        if entry.scalar_policy == "removable" and not removable:
            notes.append("removability condition fails; scalar required")
        policy = "removable" if removable else "required"
        mf = scalar_state != "none" or removable
    elif entry.table == "IIa":
        policy, mf = "reducible-with-condition", bool(cond_ok) and scalar_state != "none"
        if scalar_state == "none":
            notes.append("no scalars present")
    else:  # IIb: both scalars are needed
        policy, mf = "required", scalar_state == "full" and cond_ok
        if not mf:
            notes.append("needs two independent scalars")
    return MFLookup(
        match=entry,
        scalar_policy=policy,
        condition_evaluated=cond_ok,
        mf=mf,
        parameters=dict(env),
        notes=notes,
    )
