"""System file reader/writer.

Plain text, line oriented. A file opens with ``format_version: 1`` and then
holds ``section <name>`` blocks: atoms, coords, bonds, angles, dihedrals,
nonbonded, and (for mode: explicit) excluded_pairs / scaled14_pairs. Blank
lines and ``#`` comments are ignored. The nonbonded section holds ``key:
value`` lines; every other section is a table of whitespace-separated rows.
The reader takes either mode (auto rebuilds the pair sets from the bond
graph); the writer always lists them, as mode: explicit.

``TABLES`` declares each table section once, for the reader and the writer
alike: the row it builds and its columns in file order, each with its field,
its kind and its name in messages. A kind is INT, STR, FLOAT, or DEG (degrees
on disk, radians in memory, as for an angle's theta0). Floats are written
with 17 significant digits, so a save/load round trip reproduces every
float64 bit for bit, except that theta0 can move in its last digit on the
first trip through degrees.

README.md (System files) shows the layout of a file with its columns.
"""

from __future__ import annotations

import math
import os
from operator import attrgetter, itemgetter
from operator import call as _call
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    AngleTerm,
    AtomSpec,
    BondTerm,
    DihedralTerm,
    ModelError,
    MolecularSystem,
    NonbondedPolicy,
    build_default_exclusions,
)

FORMAT_VERSION = 1
_PAIR_SECTIONS = ("excluded_pairs", "scaled14_pairs")


class SystemFileError(ValueError):
    """Malformed system file; message carries the offending line number."""


def _fail(path, lineno, msg):
    raise SystemFileError(f"{path}:{lineno}: {msg}")


def _int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad {what} index {tok!r}") from None


def _float(tok, what):
    try:
        v = float(tok)
    except ValueError:
        raise ValueError(f"bad {what} value {tok!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {tok!r}")
    return v


class Kind(NamedTuple):
    """How a column's tokens become values in memory, and back."""
    parse: Callable  # (token, name in messages) -> value; ValueError for a bad token
    spec: str  # %-format of a value on disk
    to_disk: Callable | None = None  # the value on disk, where its unit differs


INT = Kind(_int, "%s")
STR = Kind(lambda tok, what: tok, "%s")
FLOAT = Kind(_float, "%.17g")
DEG = Kind(lambda tok, what: math.radians(_float(tok, what)), "%.17g", math.degrees)


class Column(NamedTuple):
    field: str
    kind: Kind
    what: str  # the value's name in messages


class Table(NamedTuple):
    make: Callable | None  # called with a row's values in column order; None: the tuple
    noun: str  # the row's name in messages
    columns: tuple


def _columns(kind, what, *fields):
    return tuple(Column(f, kind, what) for f in fields)


TABLES = {
    "atoms": Table(AtomSpec, "atom", (
        Column("id", INT, "atom"),
        Column("label", STR, "label"),
        Column("q", FLOAT, "charge"),
        Column("sigma", FLOAT, "sigma"),
        Column("epsilon", FLOAT, "epsilon"),
    )),
    "coords": Table(None, "coordinate", _columns(FLOAT, "coordinate", "x", "y", "z")),
    "bonds": Table(BondTerm, "bond", (
        *_columns(INT, "bond", "i", "j"),
        Column("K", FLOAT, "bond K"),
        Column("r0", FLOAT, "bond r0"),
    )),
    "angles": Table(AngleTerm, "angle", (
        *_columns(INT, "angle", "i", "j", "k"),
        Column("K", FLOAT, "angle K"),
        Column("theta0", DEG, "theta0_deg"),
    )),
    "dihedrals": Table(DihedralTerm, "dihedral", (
        *_columns(INT, "dihedral", "i", "j", "k", "l"),
        *(Column(v, FLOAT, v) for v in ("V1", "V2", "V3", "V4")),
    )),
    **{name: Table(None, name, _columns(INT, name, "i", "j")) for name in _PAIR_SECTIONS},
}
_SECTIONS = ("nonbonded", *TABLES)


# each table as the row loops read it, derived once from TABLES (deriving it
# on every call costs about a tenth of a save): the reader's parse function
# and message name of each column, and the writer's %-format of a line and
# getter and to_disk of each column
_LAYOUT = {
    name: (
        [c.kind.parse for c in columns],
        [c.what for c in columns],
        " ".join(c.kind.spec for c in columns),
        [(attrgetter(c.field) if make else itemgetter(k), c.kind.to_disk)
         for k, c in enumerate(columns)],
    )
    for name, (make, _, columns) in TABLES.items()
}


def _read_table(path, sections, name):
    """The rows of table section name, in file order."""
    make, noun, columns = TABLES[name]
    parses, whats, _, _ = _LAYOUT[name]
    rows = []
    for lineno, text in sections.get(name, ()):
        toks = text.split()
        if len(toks) != len(columns):
            # a column in degrees goes by its name on disk, as theta0_deg
            names = " ".join(c.what if c.kind is DEG else c.field for c in columns)
            _fail(path, lineno, f"{noun} rows need: {names}")
        try:
            values = map(_call, parses, toks, whats)  # parse(tok, what) per column
            rows.append(tuple(values) if make is None else make(*values))
        except ValueError as exc:  # a bad token, or the row's ModelError
            _fail(path, lineno, str(exc))
    return rows


def _write_table(out, name, rows):
    """Append table section name to the lines out, one line per row of the
    list rows; the values are gathered a column at a time."""
    _, _, line, getters = _LAYOUT[name]
    cells = [map(to_disk, map(get, rows)) if to_disk else map(get, rows)
             for get, to_disk in getters]
    out.append(f"section {name}")
    out += [line % row for row in zip(*cells)]


def load_system(path) -> MolecularSystem:
    """Parse a system file and return a validated MolecularSystem."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = fh.readlines()
        except UnicodeDecodeError as exc:
            raise SystemFileError(f"{path}: not UTF-8 text ({exc.reason})") from exc

    lines = []  # (lineno, text) with comments and blanks stripped
    for idx, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            lines.append((idx, text))

    if not lines:
        _fail(path, 1, "empty file")
    lineno, first = lines[0]
    if not first.startswith("format_version:"):
        _fail(path, lineno, "file must start with a format_version line")
    ver = first.split(":", 1)[1].strip()
    if ver != str(FORMAT_VERSION):
        _fail(path, lineno, f"unsupported format_version {ver!r} (expected {FORMAT_VERSION})")

    sections = {}
    current = None
    for lineno, text in lines[1:]:
        if text.startswith("section"):
            parts = text.split()
            if len(parts) != 2:
                _fail(path, lineno, f"malformed section header {text!r}")
            current = parts[1]
            if current not in _SECTIONS:
                _fail(path, lineno, f"unknown section {current!r}")
            if current in sections:
                _fail(path, lineno, f"duplicate section {current!r}")
            sections[current] = []
        elif current is None:
            _fail(path, lineno, f"data before any section header: {text!r}")
        else:
            sections[current].append((lineno, text))

    for required in ("atoms", "coords", "nonbonded"):
        if required not in sections:
            _fail(path, len(raw), f"missing required section {required!r}")

    atoms = _read_table(path, sections, "atoms")
    coords = _read_table(path, sections, "coords")
    if len(coords) != len(atoms):
        _fail(path, len(raw), f"{len(atoms)} atoms but {len(coords)} coordinate rows")
    bonds = _read_table(path, sections, "bonds")
    angles = _read_table(path, sections, "angles")
    dihedrals = _read_table(path, sections, "dihedrals")

    nb = {"mode": None, "s14": 0.5, "cutoff": None}
    nb_line = sections["nonbonded"][0][0] if sections["nonbonded"] else len(raw)
    for lineno, text in sections["nonbonded"]:
        if ":" not in text:
            _fail(path, lineno, f"nonbonded rows are key: value, got {text!r}")
        key, _, val = text.partition(":")
        key = key.strip()
        val = val.strip()
        if key == "mode":
            if val not in ("auto", "explicit"):
                _fail(path, lineno, f"nonbonded mode must be auto or explicit, got {val!r}")
            nb["mode"] = val
        elif key in ("s14", "cutoff"):
            try:
                nb[key] = None if key == "cutoff" and val == "none" else _float(val, key)
            except ValueError as exc:
                _fail(path, lineno, str(exc))
        else:
            _fail(path, lineno, f"unknown nonbonded key {key!r}")
    if nb["mode"] is None:
        _fail(path, nb_line, "nonbonded section must set mode")

    try:
        if nb["mode"] == "auto":
            for name in _PAIR_SECTIONS:
                if name in sections:
                    _fail(path, sections[name][0][0] if sections[name] else len(raw),
                          f"section {name!r} is only valid with mode: explicit")
            policy = build_default_exclusions(
                len(atoms), bonds, s14=nb["s14"], cutoff=nb["cutoff"]
            )
        else:
            excl = frozenset(_read_table(path, sections, "excluded_pairs"))
            sc14 = frozenset(_read_table(path, sections, "scaled14_pairs"))
            policy = NonbondedPolicy(excl, sc14, nb["s14"], nb["cutoff"])
        return MolecularSystem(
            atoms=tuple(atoms),
            coords=np.array(coords, dtype=np.float64).reshape(len(atoms), 3),
            bonds=tuple(bonds),
            angles=tuple(angles),
            dihedrals=tuple(dihedrals),
            nonbonded=policy,
        )
    except ModelError as exc:
        raise SystemFileError(f"{path}: {exc}") from exc


def save_system(system: MolecularSystem, path):
    """Write a system file in mode: explicit, which lists the pair sets
    verbatim, so any policy round-trips. The text around the coordinate rows
    depends on the topology alone, so it is formatted once and kept in the
    topology cache that the systems derived by with_coords share."""
    around = system._cache.get("file_text")
    if around is None:
        nb = system.nonbonded
        head, tail = [f"format_version: {FORMAT_VERSION}"], []
        _write_table(head, "atoms", system.atoms)
        _write_table(tail, "bonds", system.bonds)
        _write_table(tail, "angles", system.angles)
        _write_table(tail, "dihedrals", system.dihedrals)
        tail += ["section nonbonded", "mode: explicit", f"s14: {FLOAT.spec % nb.s14}",
                 "cutoff: none" if nb.cutoff is None else f"cutoff: {FLOAT.spec % nb.cutoff}"]
        _write_table(tail, "excluded_pairs", sorted(nb.excluded))
        _write_table(tail, "scaled14_pairs", sorted(nb.scaled14))
        around = system._cache["file_text"] = ("\n".join(head), "\n".join(tail))
    coords = []
    _write_table(coords, "coords", system.coords.tolist())
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join((around[0], *coords, around[1])) + "\n")
