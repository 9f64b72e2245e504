"""Line-oriented fact files carrying weighted input statements.

Grammar ('#' starts a comment, blank lines ignored):

    vars <name1> <name2> ...
    indep <x> <y> | <c1> <c2> ... : <weight>
    dep   <x> <y> | <c1> <c2> ... : <weight>
    causes <x> <y> : <weight>
    notcauses <x> <y> : <weight>

The mandatory ``vars`` header maps names to variable indices by position;
a name may not contain ``|`` or ``:``.
Weights are nonnegative integers in milli-log-units or ``inf`` for hard
statements. Duplicate canonical statements are an error rather than being
summed silently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ancestral.core import (
    AncStatement,
    Ancestry,
    CiStatement,
    Polarity,
    Weight,
    WeightedInput,
    canonicalize,
    condset,
    condset_members,
)


class FactFileError(ValueError):
    pass


def _parse_weight(text: str, where: str) -> Weight:
    if text == "inf":
        return Weight.hard()
    try:
        millis = int(text)
    except ValueError:
        raise FactFileError(f"{where}: weight must be a nonnegative integer or 'inf'")
    if millis < 0:
        raise FactFileError(f"{where}: weight must be nonnegative")
    return Weight.finite(millis)


def _parse_numbered(text: str) -> tuple[tuple[str, ...], list[tuple[int, WeightedInput]]]:
    """Parse fact-file content into (variable names, [(line number,
    weighted input)]); duplicates are left to :func:`_unique_inputs`."""
    names: tuple[str, ...] = ()
    index: dict[str, int] = {}
    numbered: list[tuple[int, WeightedInput]] = []

    def resolve(token: str, where: str) -> int:
        try:
            return index[token]
        except KeyError:
            raise FactFileError(f"{where}: unknown variable {token!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        tokens = line.split()
        kind = tokens[0]
        if kind == "vars":
            if names:
                raise FactFileError(f"{where}: duplicate vars header")
            if len(tokens) < 2:
                raise FactFileError(f"{where}: vars header needs at least one name")
            names = tuple(tokens[1:])
            if len(set(names)) != len(names):
                raise FactFileError(f"{where}: duplicate variable names")
            for name in names:
                # '|' and ':' separate a statement's parts, so no statement could name it
                if set(name) & {"|", ":"}:
                    raise FactFileError(f"{where}: invalid variable name {name!r}")
            index = {name: i for i, name in enumerate(names)}
            continue
        if not names:
            raise FactFileError(f"{where}: the vars header must come first")
        if ":" not in tokens:
            raise FactFileError(f"{where}: missing ':' before the weight")
        colon = tokens.index(":")
        if colon != len(tokens) - 2:
            raise FactFileError(f"{where}: expected a single weight after ':'")
        weight = _parse_weight(tokens[-1], where)
        body = tokens[1:colon]
        if kind in ("indep", "dep"):
            if "|" in body:
                bar = body.index("|")
                pair, conds = body[:bar], body[bar + 1 :]
            else:
                pair, conds = body, []
            if len(pair) != 2:
                raise FactFileError(f"{where}: expected two variables before '|'")
            x, y = (resolve(t, where) for t in pair)
            cond = condset(resolve(t, where) for t in conds)
            polarity = Polarity.INDEPENDENT if kind == "indep" else Polarity.DEPENDENT
            try:
                stmt = canonicalize(x, y, cond, polarity)
            except ValueError as exc:
                raise FactFileError(f"{where}: {exc}") from None
        elif kind in ("causes", "notcauses"):
            if len(body) != 2:
                raise FactFileError(f"{where}: expected two variables")
            cause, effect = (resolve(t, where) for t in body)
            polarity = Ancestry.CAUSES if kind == "causes" else Ancestry.NOT_CAUSES
            try:
                stmt = AncStatement(cause, effect, polarity)
            except ValueError as exc:
                raise FactFileError(f"{where}: {exc}") from None
        else:
            raise FactFileError(f"{where}: unknown statement kind {kind!r}")
        numbered.append((lineno, WeightedInput(stmt, weight)))
    if not names:
        raise FactFileError("missing vars header")
    return names, numbered


def _unique_inputs(sources) -> list[WeightedInput]:
    """The inputs of ``(place prefix, numbered inputs)`` sources in order;
    a canonical statement given twice is an error that names both
    places."""
    inputs: list[WeightedInput] = []
    first: dict = {}
    for prefix, numbered in sources:
        for lineno, item in numbered:
            where = f"{prefix}line {lineno}"
            if item.statement in first:
                raise FactFileError(
                    f"{where}: duplicate canonical statement (first at {first[item.statement]})"
                )
            first[item.statement] = where
            inputs.append(item)
    return inputs


def parse_fact_text(text: str) -> tuple[tuple[str, ...], list[WeightedInput]]:
    """Parse fact-file content into (variable names, weighted inputs)."""
    names, numbered = _parse_numbered(text)
    return names, _unique_inputs([("", numbered)])


def parse_fact_file(path) -> tuple[tuple[str, ...], list[WeightedInput]]:
    return parse_fact_files([path])


def parse_fact_files(paths: Sequence) -> tuple[tuple[str, ...], list[WeightedInput]]:
    """The inputs of several fact files in order. Each file is parsed
    once and its errors name it and its own line; the vars headers must
    agree, and a canonical statement repeated across files is an error."""
    if not paths:
        raise FactFileError("no fact files given")
    names: tuple[str, ...] = ()
    sources = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            file_names, numbered = _parse_numbered(text)
        except FactFileError as exc:
            raise FactFileError(f"{path}: {exc}") from None
        if names and file_names != names:
            raise FactFileError(f"{path}: vars header differs from the first file")
        names = file_names
        sources.append((f"{path}: ", numbered))
    return names, _unique_inputs(sources)


def format_weight(weight: Weight) -> str:
    return "inf" if weight.is_hard else str(weight.millis)


def format_fact_lines(names: Sequence[str], inputs: Iterable[WeightedInput]) -> str:
    """Render inputs in the fact-file grammar, header first."""
    lines = ["vars " + " ".join(names)]
    for item in inputs:
        stmt = item.statement
        w = format_weight(item.weight)
        if isinstance(stmt, CiStatement):
            kind = "indep" if stmt.polarity is Polarity.INDEPENDENT else "dep"
            conds = " ".join(names[u] for u in condset_members(stmt.cond))
            cond_part = f"| {conds} " if conds else "| "
            lines.append(f"{kind} {names[stmt.x]} {names[stmt.y]} {cond_part}: {w}")
        else:
            kind = "causes" if stmt.polarity is Ancestry.CAUSES else "notcauses"
            lines.append(f"{kind} {names[stmt.cause]} {names[stmt.effect]} : {w}")
    return "\n".join(lines) + "\n"


def write_fact_file(names: Sequence[str], inputs: Iterable[WeightedInput], path) -> None:
    """Write a fact file; a canonical statement given twice is an error,
    raised before the file is opened, that names both lines it would take."""
    unique = _unique_inputs([(f"{path}: ", enumerate(inputs, start=2))])
    text = format_fact_lines(names, unique)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
