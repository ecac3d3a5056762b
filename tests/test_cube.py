"""Ground sets, subsets as masks, and families as points of the big lattice."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import topcube
from topcube import Family, GroundSet
from topcube.cube import (absence_words, cube_word, family_word, interval_words, projection_words,
                          set_bits)
from topcube.topology import topology_word

SRC = Path(__file__).resolve().parents[1] / "src"

U2 = GroundSet(2)
U3 = GroundSet(3)


def fam(universe, word):
    return Family(universe, word)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(6)
    assert GroundSet(5).num_subsets == 32
    with pytest.raises(ValueError):
        GroundSet(5).require_sweepable()


def test_family_membership():
    f = Family.from_masks(U2, [0b00, 0b11])
    assert f.contains_mask(0) and f.contains_mask(3)
    assert not f.contains_mask(1)
    assert set_bits(f.word) == [0, 3]


def test_mixed_universe_rejected():
    # a family is read as a word of its own ground set only
    with pytest.raises(ValueError, match="n=2 ground set given for n=3"):
        family_word(U3, fam(U2, 1))
    assert family_word(U2, fam(U2, 1)) == 1


def test_family_json_roundtrip():
    f = Family.from_masks(U3, [0, 0b101, 0b111])
    assert repr(f) == "Family(n=3, {{}, {0, 2}, {0, 1, 2}})"


# ------------------------------------------------------------- clopen words


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projection_word_bits_are_memberships(n):
    universe = GroundSet(n)
    size = 1 << universe.num_subsets
    has = projection_words(universe)
    assert len(has) == universe.num_subsets
    for a, h in enumerate(has):
        assert set_bits(h) == [w for w in range(size) if (w >> a) & 1]
    assert cube_word(universe) == (1 << size) - 1


@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_set_bits_lists_the_set_positions(word):
    bits = set_bits(word)
    assert bits == [i for i in range(word.bit_length()) if (word >> i) & 1]
    assert sum(1 << i for i in bits) == word


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_absence_words_complement_the_projection_words(n):
    universe = GroundSet(n)
    size = 1 << universe.num_subsets
    full = cube_word(universe)
    lacks = absence_words(universe)
    assert lacks == tuple(full ^ h for h in projection_words(universe))
    for a, word in enumerate(lacks):
        assert set_bits(word) == [w for w in range(size) if not (w >> a) & 1]
    assert absence_words(universe) is lacks  # built once per n


def test_interval_words_at_four_points_are_their_definitions():
    universe = GroundSet(4)
    has, full = projection_words(universe), cube_word(universe)
    for x in (0, 1, 0b1000_0000_0000_0001, 0x5A5A, 0xFFFF):
        up = down = full
        for a in range(16):
            if (x >> a) & 1:
                up &= has[a]
            else:
                down &= full ^ has[a]
        assert interval_words(4, x) == (up, down), x


def _bin_bits(word: int) -> list[int]:
    """The set bit positions read off the binary string, lowest first."""
    return [i for i, bit in enumerate(reversed(bin(word)[2:])) if bit == "1"]


def _limb_edges() -> list[int]:
    # a 4-limb word: bits on both sides of every 64-bit limb boundary
    return [sum(1 << i for i in {b - 1, b} if i >= 0) for b in (0, 64, 128, 192, 256)]


_WIDE_WORDS = {
    "zero": 0,
    **{f"bit-{i}": 1 << i for i in (0, 63, 64, 65, 65_535)},
    **{f"edge-{i}": w for i, w in enumerate(_limb_edges())},
    "all-edges": sum(1 << b for b in (0, 63, 64, 127, 128, 191, 192, 255)),
    "four-full-limbs": (1 << 256) - 1,
    "cube-n4": (1 << 65_536) - 1,
    "ends-n4": 1 | 1 << 65_535,
}


@pytest.mark.parametrize("name", list(_WIDE_WORDS))
def test_set_bits_at_four_point_widths(name):
    word = _WIDE_WORDS[name]
    assert set_bits(word) == _bin_bits(word)


def test_set_bits_on_the_four_point_words():
    universe = GroundSet(4)
    assert set_bits(cube_word(universe)) == list(range(1 << 16))
    word = topology_word(universe)
    bits = set_bits(word)
    assert bits == _bin_bits(word) and len(bits) == 355
    for h in projection_words(universe)[::5]:
        assert set_bits(h) == _bin_bits(h)


def test_all_lists_the_public_names():
    names = topcube.__all__
    assert names == sorted(set(names))
    assert all(hasattr(topcube, name) for name in names)
    public = {
        name for name, value in vars(topcube).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == public


def test_oracles_import_nothing_from_topcube():
    # a cross-check means something only while its reference shares no code
    # with the engine it checks
    tree = ast.parse((SRC / "topcube" / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "topcube"] == []


def _run_python(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_builds_no_clopen_words():
    out = _run_python("""
        import topcube, topcube.cli
        from topcube.cube import _projection_words
        print(_projection_words.cache_info().currsize)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_sweeps_refuse_five_points_before_allocating():
    # A 2^32-bit word is 512 MB.  The child's address space is capped well
    # below that, so a sweep that started building one fails with
    # MemoryError instead of the n <= 4 refusal.
    out = _run_python("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from topcube import Certificate, Family, GroundSet, SubbasicCond
        from topcube import all_topologies, count_topologies, interval_identity_all
        from topcube import atom_closure_certificate, embedding_check, relations_set
        U5 = GroundSet(5)
        calls = [
            lambda: Certificate(U5, [(SubbasicCond(0, True),)]).solve(),
            lambda: relations_set(U5, [Family(U5, 1)]),
            lambda: count_topologies(U5),
            lambda: all_topologies(U5),
            lambda: interval_identity_all(U5, [1, 2]),
            lambda: embedding_check(U5),
            lambda: atom_closure_certificate(U5, [1, 2]),
        ]
        for call in calls:
            try:
                call()
                print("no refusal")
            except ValueError as exc:
                print(exc)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["exhaustive sweep needs n <= 4, got 5"] * 7
