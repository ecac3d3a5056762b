"""Eventually periodic sets: canonical form, Boolean algebra, decisions."""

import operator
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import ChainInitials, UPSet, upsets
from topcube.cube import set_bits
from topcube.upsets import MAX_WINDOW_BITS, _repeat

words = st.text(alphabet="01", min_size=0, max_size=6)
periods = st.text(alphabet="01", min_size=1, max_size=6)


def members_below(s, bound=64):
    return [i for i in range(bound) if i in s]


def test_canonical_primitive_period():
    assert UPSet("", "1010").period == "10"
    assert UPSet("", "111").period == "1"
    assert UPSet("", "010010").period == "010"


def test_canonical_shortest_pre():
    # a pre block that just repeats the tail of the period folds away
    s = UPSet("10", "10")
    assert s.pre == ""
    assert s.period == "10"
    assert UPSet("1", "1") == UPSet.naturals()
    assert UPSet("0", "0") == UPSet.empty()


def test_pre_rotation_keeps_membership():
    s = UPSet("110", "01")
    t = UPSet("11001", "01")  # same set, longer spelling
    assert s == t
    assert members_below(s) == members_below(t)


@given(words, periods)
def test_canonical_form_is_stable(pre, period):
    s = UPSet(pre, period)
    again = UPSet(s.pre, s.period)
    assert (again.pre, again.period) == (s.pre, s.period)


@given(words, periods)
def test_membership_matches_spelling(pre, period):
    s = UPSet(pre, period)
    for i in range(40):
        if i < len(pre):
            expected = pre[i] == "1"
        else:
            expected = period[(i - len(pre)) % len(period)] == "1"
        assert (i in s) == expected


def test_named_sets():
    assert members_below(UPSet("", "10"), 10) == [0, 2, 4, 6, 8]
    assert members_below(UPSet("", "01"), 10) == [1, 3, 5, 7, 9]
    assert members_below(UPSet.naturals(), 5) == [0, 1, 2, 3, 4]
    assert members_below(UPSet.empty()) == []
    assert members_below(UPSet.singleton(3), 10) == [3]
    assert UPSet.from_ints([5, 1, 1]) == UPSet.singleton(1) | UPSet.singleton(5)


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        UPSet("2", "1")
    with pytest.raises(ValueError):
        UPSet("", "")


def test_immutable():
    s = UPSet("", "10")
    with pytest.raises(AttributeError):
        s.pre = "1"


def test_values_built_by_different_routes_are_equal_and_hash_equal():
    pairs = [
        (UPSet("1", "01"), UPSet("", "10")),
        (UPSet("110", "01"), UPSet("11001", "01")),
        (UPSet("", "10") | UPSet("", "01"), UPSet("", "11")),
        (~UPSet.from_ints([0, 2]) & UPSet("", "10"), UPSet("000", "01")),
    ]
    for s, t in pairs:
        assert s == t and hash(s) == hash(t)
        for u in (s, t):
            # the 4-tuple's hash, on the first call and from the kept slot
            assert hash(u) == hash(u) == hash((u._pre_len, u._pre, u._per_len, u._per))
    fresh, hashed = UPSet("", "10"), pairs[0][0]
    for u in (fresh, hashed):
        with pytest.raises(AttributeError):
            u._hash = 0
    assert hash(fresh) == hash(hashed)


@given(words, periods, words, periods)
@settings(max_examples=200)
def test_boolean_ops_pointwise(p1, q1, p2, q2):
    s, t = UPSet(p1, q1), UPSet(p2, q2)
    window = max(len(p1), len(p2)) + 4 * max(len(q1), len(q2)) + 8
    for i in range(window):
        assert (i in (s & t)) == ((i in s) and (i in t))
        assert (i in (s | t)) == ((i in s) or (i in t))
        assert (i in (s - t)) == ((i in s) and not (i in t))
        assert (i in ~s) == (i not in s)


@given(words, periods, words, periods)
def test_subset_agrees_with_membership(p1, q1, p2, q2):
    s, t = UPSet(p1, q1), UPSet(p2, q2)
    window = max(len(p1), len(p2)) + 4 * max(len(q1), len(q2)) + 8
    pointwise = all((i not in s) or (i in t) for i in range(window))
    assert (s <= t) == pointwise


def test_finiteness_and_size():
    assert UPSet.singleton(4).is_finite
    assert not UPSet("", "10").is_finite
    assert UPSet.empty().is_empty


def test_iteration_and_first_members():
    assert list(UPSet.from_ints([2, 5]).iter_members()) == [2, 5]
    assert UPSet("", "10").first_members(4) == [0, 2, 4, 6]
    with pytest.raises(ValueError):
        UPSet.from_ints([1]).first_members(2)


def _members_listed_whole(s, k):
    """The first k members with the whole preperiod listed up front."""
    out = set_bits(s._pre)
    start, offsets = s._pre_len, set_bits(s._per)
    while len(out) < k and offsets:
        out += [start + j for j in offsets]
        start += s._per_len
    return out[:k]


def test_long_preperiod_members_come_lazily():
    seg = UPSet("10" * 2 ** 19)  # the 2^19 evens below 2^20
    outside = ~seg
    assert seg._pre.bit_count() == 2 ** 19
    assert outside.first_members(1) == [1]
    # across chunk boundaries and on into the period
    assert outside.first_members(3000) == _members_listed_whole(outside, 3000)
    tail = UPSet("1" * 1500 + "0" * 700 + "1", "011")
    assert tail.first_members(2000) == _members_listed_whole(tail, 2000)
    rng = random.Random(4)
    for _ in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 3000)))
        s = UPSet(pre, rng.choice(["0", "1", "01", "110"]))
        k = rng.randrange(1, 50)
        if s.is_finite:
            k = min(k, s._pre.bit_count())
        assert s.first_members(k) == _members_listed_whole(s, k)


def test_long_period_members_come_lazily():
    # across the reader's chunk boundaries and on into later periods
    rng = random.Random(28)
    for per_len in (1025, 3000, 5000):
        period = "".join(rng.choice("01") for _ in range(per_len - 1)) + "1"
        for pre in ("", "1", "0" * 700 + "1"):
            s = UPSet(pre, period)
            k = s._pre.bit_count() + 2 * s._per.bit_count() + 5
            assert s.first_members(k) == _members_listed_whole(s, k)
    sparse = UPSet("", "0" * 4000 + "1" + "0" * 3000 + "1")
    assert sparse.first_members(5) == [4000, 7001, 11002, 14003, 18004]


def test_first_members_of_a_dense_long_period_list_only_a_prefix(monkeypatch):
    listed = []

    def spy(word):
        listed.append(word.bit_length())
        return set_bits(word)

    rng = random.Random(22)
    dense = UPSet("", format(rng.getrandbits(2 ** 22) | 1 << (2 ** 22 - 1), "b"))
    assert dense._per_len == 2 ** 22 and dense._per.bit_count() > 2 ** 20
    monkeypatch.setattr(upsets, "set_bits", spy)
    assert dense.first_members(3) == _members_listed_whole(dense, 3)
    assert 0 < sum(listed) < 4096


def test_complement_roundtrip():
    s = UPSet("011", "10")
    assert ~~s == s
    assert (s | ~s) == UPSet.naturals()
    assert (s & ~s) == UPSet.empty()


def test_json_roundtrip():
    s = UPSet("011", "10")
    assert UPSet.from_json(s.to_json()) == s
    assert UPSet.from_json({"pre": "", "period": "10"}) == UPSet("", "10")


def test_json_rejects_junk():
    with pytest.raises(ValueError):
        UPSet.from_json({"pre": "01"})
    with pytest.raises(ValueError):
        UPSet.from_json({"pre": "01", "period": "1", "extra": 3})
    with pytest.raises(ValueError):
        UPSet.from_json({"pre": "01", "period": "12"})


def test_describe():
    assert UPSet.empty().describe() == "{}"
    assert UPSet.from_ints([1, 2]).describe() == "{1, 2}"
    text = UPSet("", "10").describe(limit=3)
    assert text.startswith("{0, 2, 4") and text.endswith("...}")


def _described_by_the_old_listing(s, limit=8):
    """describe's text as it was first written: every member below the end
    of the fourth period, by membership, cut to `limit` if the set is infinite."""
    if s.is_empty:
        return "{}"
    shown = [i for i in range(len(s.pre) + 4 * len(s.period)) if i in s]
    if s.is_finite:
        return "{" + ", ".join(map(str, shown)) + "}"
    return "{" + ", ".join(map(str, shown[:limit])) + ", ...}"


def test_describe_matches_the_old_listing_on_a_seeded_sample():
    rng = random.Random(27)
    finite = 0
    for _ in range(600):
        density = rng.choice([0.05, 0.5, 0.9])
        bits = lambda k: "".join("1" if rng.random() < density else "0" for _ in range(k))
        pre = bits(rng.randint(0, 20))
        period = "0" if rng.random() < 0.25 else bits(rng.randint(1, 40))
        s = UPSet(pre, period)
        finite += s.is_finite
        for limit in (0, 1, 3, 8, 100):
            assert s.describe(limit) == _described_by_the_old_listing(s, limit), (pre, period)
    assert 100 < finite < 500


def test_describe_builds_no_word_wider_than_the_segments(monkeypatch):
    built = []
    word = UPSet._word

    def spy(self, width):
        built.append((width, self._pre_len, self._per_len))
        return word(self, width)

    monkeypatch.setattr(UPSet, "_word", spy)
    far = UPSet("1", "0" * 2 ** 22 + "1")  # the old listing built a 2^24-bit word
    assert far.describe() == "{0, 4194305, 8388610, 12582915, ...}"
    # no constructor makes a finite set reaching the cap, but ~ of an
    # infinite set with a long preperiod does, and it still has a listing
    past = ~UPSet("0" * (2 ** 20 + 1), "1")
    assert past.is_finite and past.describe().endswith(", 1048575, 1048576}")
    for s in (UPSet("0" * (2 ** 20 - 2) + "1", "0"), UPSet("0" * 5000 + "1", "01"),
              UPSet("", "10"), UPSet.from_ints([1, 2]), UPSet.empty()):
        s.describe()
    assert built == []  # a listing reads the segments, finite or not


def test_finite_sets_past_the_cap_share_one_refusal():
    far = {"pre": "0" * 2 ** 20 + "1", "period": "0"}
    texts = set()
    for make in (lambda: UPSet(far["pre"], far["period"]), lambda: UPSet.from_json(far),
                 lambda: UPSet.from_ints([2 ** 20]), lambda: UPSet.singleton(2 ** 20)):
        with pytest.raises(ValueError) as err:
            make()
        texts.add(str(err.value))
    rule = f"point {2 ** 20} is at or beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}"
    assert texts == {rule}
    # a chain of initial segments names the segment in front of the same rule
    segments = ChainInitials(UPSet("1", "0" * (2 ** 20 - 1) + "1"))
    with pytest.raises(ValueError) as err:
        segments.initial_segment(1)
    assert str(err.value) == "initial segment 1: " + rule


# -- a per-bit reference over 0/1 strings, independent of the integer code --

def _ref_canonical(pre: str, period: str) -> tuple[str, str]:
    k = len(period)
    period = next(period[:d] for d in range(1, k + 1)
                  if k % d == 0 and period == period[:d] * (k // d))
    while pre and pre[-1] == period[-1]:
        period = period[-1] + period[:-1]
        pre = pre[:-1]
    return pre, period


def _ref_member(spelling, i: int) -> bool:
    pre, period = spelling
    if i < len(pre):
        return pre[i] == "1"
    return period[(i - len(pre)) % len(period)] == "1"


def _ref_combine(s, t, op) -> tuple[str, str]:
    start = max(len(s[0]), len(t[0]))
    window = lcm(len(s[1]), len(t[1]))
    bits = "".join(
        "1" if op(_ref_member(s, i), _ref_member(t, i)) else "0"
        for i in range(start + window)
    )
    return _ref_canonical(bits[:start], bits[start:])


def _ref_flip(word: str) -> str:
    return word.translate(str.maketrans("01", "10"))


def _spellings(seed: int, count: int):
    """Preperiods of 0-10 bits and periods of 1-40 bits, half of the pairs coprime."""
    rng = random.Random(seed)
    word = lambda n: "".join(rng.choice("01") for _ in range(n))  # noqa: E731
    for _ in range(count):
        p, q = rng.randint(1, 40), rng.randint(1, 40)
        while rng.random() < 0.5 and gcd(p, q) != 1:
            q = rng.randint(1, 40)
        yield (word(rng.randint(0, 10)), word(p)), (word(rng.randint(0, 10)), word(q))


@pytest.mark.parametrize("seed", range(4))
def test_long_periods_match_the_per_bit_reference(seed):
    ops = (
        (operator.and_, lambda a, b: a and b),
        (operator.or_, lambda a, b: a or b),
        (operator.sub, lambda a, b: a and not b),
    )
    for x, y in _spellings(seed, 40):
        s, t = UPSet(*x), UPSet(*y)
        for spelling, u in ((x, s), (y, t)):
            assert (u.pre, u.period) == _ref_canonical(*spelling)
            again = UPSet(u.pre, u.period)
            assert again == u and hash(again) == hash(u)
            assert ((~u).pre, (~u).period) == _ref_canonical(*map(_ref_flip, spelling))
        for op, bit_op in ops:
            got = op(s, t)
            assert (got.pre, got.period) == _ref_combine(x, y, bit_op), (x, y, op)
        meet = _ref_combine(x, y, lambda a, b: a and b)
        assert (s <= t) == (meet == _ref_canonical(*x))


def _continued_backwards(period: str, t: int) -> str:
    """The t bits just before the period's start, were it continued backwards."""
    return "".join(period[(i - t) % len(period)] for i in range(t))


def _repeated_block_spellings(k: int):
    """Periods that are a block repeated k times: a short block, a power of a
    shorter word, and a 32-bit block (36 bits at k = 100, so 864 and 3,600
    bits occur).  Each period comes after a preperiod shorter than it and
    after one longer than it, each ending in a run that the period continued
    backwards repeats, which canonical form folds away."""
    rng = random.Random(k)
    word = lambda n: "".join(rng.choice("01") for _ in range(n))  # noqa: E731
    blocks = (word(rng.choice((1, 3, 5, 7))), word(rng.randint(2, 6)) * rng.choice((2, 3, 4)),
              word(36 if k == 100 else 32))
    for block in blocks:
        period = block * k
        for pre_len in (rng.randint(0, len(period) - 1), len(period) + rng.randint(1, 40)):
            t = rng.randint(0, pre_len)
            yield word(pre_len - t) + _continued_backwards(period, t), period


@pytest.mark.parametrize("k", [2, 4, 8, 9, 27, 32, 100])
def test_repeated_block_periods_match_the_per_bit_reference(k):
    ops = (
        (operator.and_, lambda a, b: a and b),
        (operator.or_, lambda a, b: a or b),
        (operator.sub, lambda a, b: a and not b),
    )
    rng = random.Random(-k)
    sides = set()  # whether the preperiod is longer than the period
    for x in _repeated_block_spellings(k):
        s = UPSet(*x)
        assert (s.pre, s.period) == _ref_canonical(*x), x
        sides.add(len(x[0]) > len(x[1]))
        # partners on the same window: another block of the period's length
        # repeated as often, and s's own period with one block replaced, so
        # results fold back to short periods or stay long
        block_len = len(x[1]) // k
        other = "".join(rng.choice("01") for _ in range(block_len))
        cut = rng.randrange(k) * block_len
        for y in ((x[0][: len(x[0]) // 2], other * k),
                  (x[0], x[1][:cut] + other + x[1][cut + block_len:])):
            t = UPSet(*y)
            for op, bit_op in ops:
                got = op(s, t)
                assert (got.pre, got.period) == _ref_combine(x, y, bit_op), (x, y, op)
            for a, b, u, v in ((x, y, s, t), (y, x, t, s)):
                assert (u <= v) == (_ref_combine(a, b, lambda p, q: p and q)
                                    == _ref_canonical(*a))
    assert sides == {False, True}


def test_window_cap_refuses_wide_alignments():
    # coprime periods of 1031 and 1033 bits align on 1,065,023 bits
    a = UPSet("", "1" + "0" * 1030)
    b = UPSet("", "1" + "0" * 1032)
    assert len(a.period) * len(b.period) > MAX_WINDOW_BITS
    for op in (operator.and_, operator.or_, operator.sub, operator.le):
        with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
            op(a, b)
    assert (a & a) == a  # one period aligns with itself on its own window


def test_window_cap_refuses_far_points():
    for make in (lambda: UPSet.singleton(MAX_WINDOW_BITS),
                 lambda: UPSet.from_ints([3, MAX_WINDOW_BITS + 5])):
        with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
            make()


def test_finite_sets_past_the_cap_are_refused_by_every_constructor():
    # the canonical preperiod decides: a long run of zeros before a
    # periodic tail is no finite set, and the widest finite set allowed is
    # the one from_ints builds from the last point below the cap
    far = {"pre": "0" * MAX_WINDOW_BITS + "1", "period": "0"}
    for make in (lambda: UPSet(far["pre"], far["period"]), lambda: UPSet.from_json(far)):
        with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
            make()
    last = UPSet.from_json({"pre": "0" * (MAX_WINDOW_BITS - 1) + "1", "period": "0"})
    assert last == UPSet.singleton(MAX_WINDOW_BITS - 1)
    # infinite sets as wide stay allowed
    assert len(UPSet("0" * MAX_WINDOW_BITS + "1", "1").pre) == MAX_WINDOW_BITS
    assert len(UPSet("1", "0" * MAX_WINDOW_BITS + "1").period) == MAX_WINDOW_BITS + 1


def _repeat_reference(block: int, length: int, width: int) -> int:
    return sum(1 << i for i in range(width) if block >> (i % length) & 1)


@pytest.mark.parametrize("length", [*range(1, 41), 600, 3600])
def test_repeat_matches_the_per_bit_reference(length):
    rng = random.Random(length)
    block = rng.getrandbits(length) | 1 << (length - 1)  # the top bit set
    widths = {0, 1, length - 1, length, length + 1, 2 * length, 3 * length - 1,
              3 * length, 4 * length + 1, 7200}
    for width in sorted(widths):
        assert _repeat(block, length, width) == _repeat_reference(block, length, width), width
