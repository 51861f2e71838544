import contextlib
import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_systems_equal
from ffmin.model import MolecularSystem, NonbondedPolicy
from ffmin.synth import make_chain_system
import ffmin.sysio
from ffmin.cli import main
from ffmin.sysio import TABLES, SystemFileError, load_system, save_system

MINIMAL = """\
format_version: 1
section atoms
0 CT -0.18 3.5 0.276
1 HC 0.06 2.5 0.1255
section coords
0.0 0.0 0.0
1.09 0.0 0.0
section bonds
0 1 1422.56 1.09
section nonbonded
mode: auto
s14: 0.5
cutoff: none
"""


def write(tmp_path, text, name="sys.ffs"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_file(tmp_path):
    system = load_system(write(tmp_path, MINIMAL))
    assert system.natoms == 2
    assert len(system.bonds) == 1
    assert system.bonds[0].K == 1422.56
    assert system.atoms[1].label == "HC"
    # 0-1 bonded, so the default policy excludes the only pair
    assert system.nonbonded.excluded == frozenset({(0, 1)})
    assert system.nonbonded.cutoff is None


def test_comments_and_blank_lines_ignored(tmp_path):
    text = MINIMAL.replace("section atoms", "# leading comment\n\nsection atoms")
    text = text.replace("0 1 1422.56 1.09", "0 1 1422.56 1.09  # inline")
    system = load_system(write(tmp_path, text))
    assert system.bonds[0].r0 == 1.09


def test_round_trip_explicit(tmp_path, chain10):
    p = tmp_path / "out.ffs"
    save_system(chain10, p)
    assert "mode: explicit\n" in p.read_text()
    assert_systems_equal(chain10, load_system(p))


def test_round_trip_auto(tmp_path, chain10):
    # chain10's policy comes from the bond graph, so mode: auto rebuilds it
    p = tmp_path / "out.ffs"
    save_system(chain10, p)
    text = p.read_text().replace("mode: explicit", "mode: auto")
    write(tmp_path, text[:text.index("section excluded_pairs")], "out.ffs")
    assert_systems_equal(chain10, load_system(p))


def test_round_trip_coords_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    system = make_chain_system(7, seed=3).with_coords(
        rng.standard_normal((7, 3)) * math.pi)
    p = tmp_path / "out.ffs"
    save_system(system, p)
    assert np.array_equal(load_system(p).coords, system.coords)


def test_empty_atom_system_round_trip(tmp_path):
    system = MolecularSystem(atoms=(), coords=np.zeros((0, 3)))
    p = tmp_path / "empty.ffs"
    save_system(system, p)
    assert load_system(p).natoms == 0


def test_theta0_stored_in_degrees(tmp_path, chain10):
    p = tmp_path / "out.ffs"
    save_system(chain10, p)
    text = p.read_text()
    deg = math.degrees(chain10.angles[0].theta0)
    assert f"{deg:.17g}" in text


def test_error_messages_carry_path_and_lineno(tmp_path):
    cases = [
        # (replacement target, replacement, expected fragment, bad lineno)
        ("format_version: 1", "format_version: 2", "unsupported format_version", 1),
        ("0 1 1422.56 1.09", "0 1 oops 1.09", "bad bond K", 9),
        ("section bonds", "section bogus", "unknown section", 8),
        ("1.09 0.0 0.0", "1.09 0.0", "coordinate rows need", 7),
    ]
    for target, repl, fragment, lineno in cases:
        p = write(tmp_path, MINIMAL.replace(target, repl))
        with pytest.raises(SystemFileError) as exc:
            load_system(p)
        msg = str(exc.value)
        assert fragment in msg
        assert f"{p}:{lineno}:" in msg


def test_out_of_range_index_names_invariant(tmp_path):
    # caught at system construction, so the message carries the path only
    p = write(tmp_path, MINIMAL.replace("0 1 1422.56 1.09", "0 9 1422.56 1.09"))
    with pytest.raises(SystemFileError) as exc:
        load_system(p)
    assert "index out of range" in str(exc.value)
    assert str(p) in str(exc.value)


def test_duplicate_section_rejected(tmp_path):
    p = write(tmp_path, MINIMAL + "section bonds\n")
    with pytest.raises(SystemFileError, match="duplicate section"):
        load_system(p)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment-only"])
def test_file_without_content_is_empty(tmp_path, text):
    p = write(tmp_path, text)
    with pytest.raises(SystemFileError) as exc:
        load_system(p)
    assert str(exc.value) == f"{p}:1: empty file"


def test_missing_required_section(tmp_path):
    p = write(tmp_path, MINIMAL.replace("section nonbonded\nmode: auto\n", ""))
    with pytest.raises(SystemFileError, match="nonbonded"):
        load_system(p)


def test_mode_auto_forbids_pair_sections(tmp_path):
    p = write(tmp_path, MINIMAL + "section excluded_pairs\n0 1\n")
    with pytest.raises(SystemFileError, match="only valid with mode: explicit"):
        load_system(p)


def test_explicit_pairs_loaded(tmp_path):
    text = MINIMAL.replace("mode: auto", "mode: explicit")
    text += "section excluded_pairs\n1 0\nsection scaled14_pairs\n"
    system = load_system(write(tmp_path, text))
    # pairs are canonicalized to i < j
    assert system.nonbonded.excluded == frozenset({(0, 1)})


def test_data_before_section_rejected(tmp_path):
    p = write(tmp_path, "format_version: 1\n0 CT 0 3.5 0.3\n")
    with pytest.raises(SystemFileError, match="before any section"):
        load_system(p)


def test_atom_coord_count_mismatch(tmp_path):
    p = write(tmp_path, MINIMAL.replace("1.09 0.0 0.0\n", ""))
    with pytest.raises(SystemFileError, match="coordinate rows"):
        load_system(p)


def test_unwritable_path_is_io_error(tmp_path, chain10):
    with pytest.raises(OSError):
        save_system(chain10, tmp_path / "no" / "such" / "dir" / "x.ffs")


def test_nonbonded_keys_validated(tmp_path):
    p = write(tmp_path, MINIMAL.replace("s14: 0.5", "s14: 0.5\nshake: 1"))
    with pytest.raises(SystemFileError, match="unknown nonbonded key"):
        load_system(p)
    p = write(tmp_path, MINIMAL.replace("mode: auto", "mode: sometimes"))
    with pytest.raises(SystemFileError, match="mode must be auto or explicit"):
        load_system(p)


def test_cutoff_parsed(tmp_path):
    system = load_system(write(tmp_path, MINIMAL.replace("cutoff: none", "cutoff: 7.0")))
    assert system.nonbonded.cutoff == 7.0


# ------------------------------------------------ golden error messages

FULL = """\
format_version: 1
section atoms
0 CT -0.18 3.5 0.276
1 CT 0.06 3.5 0.276
2 CT 0.06 3.5 0.276
3 HC 0.06 2.5 0.1255
section coords
0.0 0.0 0.0
1.5 0.0 0.0
2.0 1.4 0.0
3.5 1.4 0.5
section bonds
0 1 1422.56 1.5
1 2 1422.56 1.5
2 3 1422.56 1.09
section angles
0 1 2 300.0 109.5
section dihedrals
0 1 2 3 1.0 0.5 0.25 0.0
section nonbonded
mode: explicit
s14: 0.5
cutoff: none
section excluded_pairs
0 1
section scaled14_pairs
0 3
"""

# (line of FULL to replace, replacement, line the message names or None
# when it names the file only, message after the location)
GOLDEN = [
    (1, "format_version: 2", 1, "unsupported format_version '2' (expected 1)"),
    (1, "version: 1", 1, "file must start with a format_version line"),
    (12, "section bonds extra", 12, "malformed section header 'section bonds extra'"),
    (12, "section bogus", 12, "unknown section 'bogus'"),
    (16, "section bonds", 16, "duplicate section 'bonds'"),
    # atoms
    (3, "0 CT -0.18 3.5", 3, "atom rows need: id label q sigma epsilon"),
    (3, "x CT -0.18 3.5 0.276", 3, "bad atom index 'x'"),
    (3, "0 CT q 3.5 0.276", 3, "bad charge value 'q'"),
    (3, "0 CT -0.18 nan 0.276", 3, "sigma must be finite, got 'nan'"),
    (3, "0 CT -0.18 3.5 inf", 3, "epsilon must be finite, got 'inf'"),
    (3, "0 CT -0.18 3.5 eps", 3, "bad epsilon value 'eps'"),
    (3, "0 CT -0.18 0 0.276", 3, "atom 0: sigma must be > 0, got 0.0"),
    (3, "-1 CT -0.18 3.5 0.276", 3, "atom id must be >= 0, got -1"),
    (3, "5 CT -0.18 3.5 0.276", None,
     "atom ids must be 0..n-1 in order; position 0 has id 5"),
    # coords
    (9, "1.5 0.0", 9, "coordinate rows need: x y z"),
    (9, "1.5 y 0.0", 9, "bad coordinate value 'y'"),
    (9, "1.5 0.0 nan", 9, "coordinate must be finite, got 'nan'"),
    (9, "", 27, "4 atoms but 3 coordinate rows"),
    # bonds
    (13, "0 1 1422.56", 13, "bond rows need: i j K r0"),
    (13, "0 a 1422.56 1.5", 13, "bad bond index 'a'"),
    (13, "0 1 k 1.5", 13, "bad bond K value 'k'"),
    (13, "0 1 1422.56 nan", 13, "bond r0 must be finite, got 'nan'"),
    (13, "1 1 1422.56 1.5", 13, "bond (1,1): endpoints must differ"),
    (13, "0 1 -1 1.5", 13, "bond (0,1): K must be >= 0"),
    (13, "0 9 1422.56 1.5", None, "bond (0,9): index out of range for 4 atoms"),
    # angles
    (17, "0 1 2 300.0", 17, "angle rows need: i j k K theta0_deg"),
    (17, "0 b 2 300.0 109.5", 17, "bad angle index 'b'"),
    (17, "0 1 2 K 109.5", 17, "bad angle K value 'K'"),
    (17, "0 1 2 300.0 deg", 17, "bad theta0_deg value 'deg'"),
    (17, "0 1 2 300.0 nan", 17, "theta0_deg must be finite, got 'nan'"),
    (17, "0 1 2 300.0 180", 17,
     "angle (0,1,2): theta0 must lie in (0, pi), got 3.141592653589793"),
    (17, "0 1 7 300.0 109.5", None, "angle (0,1,7): index out of range for 4 atoms"),
    # dihedrals
    (19, "0 1 2 3 1.0 0.5 0.25", 19, "dihedral rows need: i j k l V1 V2 V3 V4"),
    (19, "0 1 2.0 3 1.0 0.5 0.25 0.0", 19, "bad dihedral index '2.0'"),
    (19, "0 1 2 3 1.0 0.5 v 0.0", 19, "bad V3 value 'v'"),
    (19, "0 1 2 3 inf 0.5 0.25 0.0", 19, "V1 must be finite, got 'inf'"),
    (19, "0 1 1 3 1.0 0.5 0.25 0.0", 19, "dihedral (0,1,1,3): atoms must be distinct"),
    (19, "0 1 2 8 1.0 0.5 0.25 0.0", None, "dihedral (0,1,2,8): index out of range for 4 atoms"),
    # nonbonded
    (21, "mode: sometimes", 21, "nonbonded mode must be auto or explicit, got 'sometimes'"),
    (21, "mode: auto", 25, "section 'excluded_pairs' is only valid with mode: explicit"),
    (21, "# no mode", 22, "nonbonded section must set mode"),
    (22, "s14 0.5", 22, "nonbonded rows are key: value, got 's14 0.5'"),
    (22, "shake: 1", 22, "unknown nonbonded key 'shake'"),
    (22, "s14: half", 22, "bad s14 value 'half'"),
    (22, "s14: none", 22, "bad s14 value 'none'"),
    (22, "s14: 2", None, "nonbonded policy: s14 must be in [0, 1], got 2.0"),
    (23, "cutoff: nan", 23, "cutoff must be finite, got 'nan'"),
    (23, "cutoff: -1", None, "nonbonded policy: cutoff must be > 0, got -1.0"),
    # pair sections
    (25, "0 1 2", 25, "excluded_pairs rows need: i j"),
    (25, "0 z", 25, "bad excluded_pairs index 'z'"),
    (25, "1 1", None, "excluded pair (1,1): indices must differ"),
    (25, "0 9", None, "excluded pair (0,9): index out of range for 4 atoms"),
    (27, "0", 27, "scaled14_pairs rows need: i j"),
    (27, "0 3.0", 27, "bad scaled14_pairs index '3.0'"),
    (27, "1 0", None, "nonbonded policy: excluded and scaled14 pair sets overlap"),
]


def test_table_columns_follow_the_row_fields():
    # the reader passes a row's values to its constructor by position
    for make, _, columns in TABLES.values():
        if make is not None:
            assert [c.field for c in columns] == [f.name for f in dataclasses.fields(make)]


def test_golden_base_file_loads(tmp_path):
    system = load_system(write(tmp_path, FULL))
    assert system.natoms == 4 and len(system.dihedrals) == 1
    assert system.angles[0].theta0 == math.radians(109.5)
    assert system.nonbonded.scaled14 == frozenset({(0, 3)})


@pytest.mark.parametrize("lineno,repl,at,msg", GOLDEN,
                         ids=[f"line{n}-{r or 'blank'}" for n, r, _, _ in GOLDEN])
def test_error_message_golden(tmp_path, lineno, repl, at, msg):
    lines = FULL.splitlines()
    lines[lineno - 1] = repl
    p = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(SystemFileError) as exc:
        load_system(p)
    assert str(exc.value) == (f"{p}: {msg}" if at is None else f"{p}:{at}: {msg}")


# ------------------------------------------------ round trip property

@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**16), cutoff=st.sampled_from([None, 7.0]))
def test_save_load_save_round_trip(tmp_path_factory, n, seed, cutoff):
    system = make_chain_system(n, seed=seed, cutoff=cutoff)
    d = tmp_path_factory.mktemp("rt")
    texts = []
    for k in range(3):
        save_system(system, d / f"{k}.ffs")
        texts.append((d / f"{k}.ffs").read_text())
        loaded = load_system(d / f"{k}.ffs")
        assert_systems_equal(system, loaded)
        system = loaded
    # a theta0 in radians need not survive radians -> degrees -> radians, so
    # the first trip may move the last digits of a theta0_deg; every other
    # token, and every later trip, is byte-identical
    assert texts[1] == texts[2]
    first, second = texts[0].splitlines(), texts[1].splitlines()
    assert len(first) == len(second)
    section = None
    for a, b in zip(first, second):
        section = a.split()[1] if a.startswith("section") else section
        if a != b:
            assert section == "angles" and a.split()[:4] == b.split()[:4]
            assert float(a.split()[4]) == pytest.approx(float(b.split()[4]), rel=1e-15)


# ------------------------------------------------ the writer's topology text

def fresh_copy(system, coords):
    """A newly constructed system with system's fields and coordinates coords,
    so with an empty cache."""
    return MolecularSystem(atoms=system.atoms, coords=coords, bonds=system.bonds,
                           angles=system.angles, dihedrals=system.dihedrals,
                           nonbonded=system.nonbonded)


def saved_text(system, path):
    save_system(system, path)
    return path.read_bytes()


# edge values of %.17g: signed zero, subnormals, the extremes of the normals
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-320, 1e-310, 2.2250738585072014e-308,
                               1e-300, -1e-300, 1e300, -1.7976931348623157e308])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**16), cutoff=st.sampled_from([None, 7.0]),
       data=st.data())
def test_derived_system_saves_like_a_fresh_one(tmp_path_factory, n, seed, cutoff, data):
    system = make_chain_system(n, seed=seed, cutoff=cutoff)
    values = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
    coords = np.array(data.draw(st.lists(values, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    d = tmp_path_factory.mktemp("cache")
    first = saved_text(system, d / "parent.ffs")  # fills the cache
    derived = saved_text(system.with_coords(coords), d / "derived.ffs")
    assert derived == saved_text(fresh_copy(system, coords), d / "fresh.ffs")
    assert saved_text(system, d / "again.ffs") == first
    assert np.array_equal(load_system(d / "derived.ffs").coords, coords)


def test_replace_writes_the_new_policy(tmp_path):
    system = make_chain_system(8, seed=2)
    before = saved_text(system, tmp_path / "before.ffs")
    nb = system.nonbonded
    policy = NonbondedPolicy(nb.excluded, frozenset(), 0.25, cutoff=5.0)
    replaced = dataclasses.replace(system, nonbonded=policy)
    text = saved_text(replaced, tmp_path / "replaced.ffs")
    assert text == saved_text(fresh_copy(replaced, system.coords), tmp_path / "fresh.ffs")
    assert text != before
    assert load_system(tmp_path / "replaced.ffs").nonbonded == policy
    assert saved_text(system, tmp_path / "after.ffs") == before


def make_demo(directory, *flags):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["make-demo", str(directory), *flags]) == 0


@pytest.mark.parametrize("seed", [0, 3])
def test_make_demo_files_equal_fresh_saves(tmp_path, seed):
    make_demo(tmp_path / "demo", "--seed", str(seed))
    ref = make_chain_system(12, seed=seed, strain=0.15)
    files = [tmp_path / "demo" / "reference.ffs",
             *sorted((tmp_path / "demo" / "candidates").iterdir())]
    assert len(files) == 21
    for k, path in enumerate(files):
        # coordinates survive a save and load bit for bit
        fresh = fresh_copy(ref, load_system(path).coords)
        assert path.read_bytes() == saved_text(fresh, tmp_path / f"fresh_{k}.ffs")


def test_make_demo_formats_the_topology_once(tmp_path, monkeypatch):
    calls = Counter()
    write_table = ffmin.sysio._write_table

    def counting(out, name, rows):
        calls[name] += 1
        write_table(out, name, rows)

    monkeypatch.setattr(ffmin.sysio, "_write_table", counting)
    make_demo(tmp_path / "demo", "--candidates", "20")
    assert calls == {"atoms": 1, "bonds": 1, "angles": 1, "dihedrals": 1,
                     "excluded_pairs": 1, "scaled14_pairs": 1, "coords": 21}
