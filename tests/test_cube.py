"""Ground sets, subsets as masks, and families as points of the big lattice."""

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
from topcube import Family, GroundSet, enumerate_families
from topcube.cube import cube_word, projection_words, set_bits

SRC = Path(__file__).resolve().parents[1] / "src"

U2 = GroundSet(2)
U3 = GroundSet(3)

words3 = st.integers(min_value=0, max_value=(1 << 8) - 1)


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
    assert len(f) == 2
    assert f.member_masks() == [0, 3]


@given(words3, words3)
def test_meet_join_are_intersection_union(a, b):
    fa, fb = fam(U3, a), fam(U3, b)
    assert set(fa.meet(fb).member_masks()) == set(fa.member_masks()) & set(
        fb.member_masks()
    )
    assert set(fa.join(fb).member_masks()) == set(fa.member_masks()) | set(
        fb.member_masks()
    )


@given(words3, words3)
def test_leq_meet_join_agree(a, b):
    fa, fb = fam(U3, a), fam(U3, b)
    assert fa.leq(fb) == (fa.meet(fb) == fa)
    assert fa.leq(fb) == (fa.join(fb) == fb)
    assert (fa <= fb) == fa.leq(fb)


@given(words3, words3, words3)
def test_lattice_laws(a, b, c):
    fa, fb, fc = fam(U3, a), fam(U3, b), fam(U3, c)
    assert (fa & fb) == (fb & fa)
    assert (fa | (fb | fc)) == ((fa | fb) | fc)
    assert (fa & (fa | fb)) == fa
    assert (fa | (fa & fb)) == fa
    # distributivity, since members are just sets
    assert (fa & (fb | fc)) == ((fa & fb) | (fa & fc))


def test_mixed_universe_rejected():
    with pytest.raises(ValueError):
        fam(U2, 1).meet(fam(U3, 1))


def test_enumerate_families_small():
    fams = list(enumerate_families(U2))
    assert len(fams) == 1 << 4
    assert len(set(fams)) == len(fams)
    with pytest.raises(ValueError):
        list(enumerate_families(GroundSet(5)))


def test_family_json_roundtrip():
    f = Family.from_masks(U3, [0, 0b101, 0b111])
    data = f.to_json()
    assert data == {"n": 3, "sets": [[], [0, 2], [0, 1, 2]]}
    assert Family.from_json(data) == f
    assert repr(f) == "Family(n=3, {{}, {0, 2}, {0, 1, 2}})"


def test_family_json_rejections():
    with pytest.raises(ValueError):
        Family.from_json({"n": 2, "sets": [[0], [0]]})  # duplicate member
    with pytest.raises(ValueError):
        Family.from_json({"n": 2, "sets": [[2]]})  # point out of range
    with pytest.raises(ValueError):
        Family.from_json({"n": 2, "sets": [[1, 0]]})  # not sorted
    with pytest.raises(ValueError):
        Family.from_json({"n": 2, "sets": [[0, 0]]})  # repeated point
    with pytest.raises(ValueError):
        Family.from_json({"sets": []})
    with pytest.raises(ValueError):
        Family.from_json({"n": 2, "sets": [[0]], "stray": 1})


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


def test_all_lists_the_public_names():
    names = topcube.__all__
    assert names == sorted(set(names))
    assert all(hasattr(topcube, name) for name in names)
    public = {
        name for name, value in vars(topcube).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == public


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
        from topcube import all_topologies, count_topologies, relations_set
        U5 = GroundSet(5)
        calls = [
            lambda: Certificate(U5, [(SubbasicCond(0, True),)]).solve(),
            lambda: relations_set(U5, [Family(U5, 1)]),
            lambda: count_topologies(U5),
            lambda: all_topologies(U5),
        ]
        for call in calls:
            try:
                call()
                print("no refusal")
            except ValueError as exc:
                print(exc)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["exhaustive sweep needs n <= 4, got 5"] * 4
