import copy
import math
import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from tdx import INF, ClopenInterval, build_grid, split_interval

from helpers import iv
from oracles import interval_point_set


def test_infinity_is_math_inf_and_orders_above_every_natural():
    assert INF == math.inf
    assert 0 < INF and 10**9 < INF
    assert INF > 5 and not INF < 5
    assert not INF < INF and INF <= INF and INF >= 5
    assert INF != 5


def test_interval_validation():
    with pytest.raises(ValueError):
        ClopenInterval(5, 5)
    with pytest.raises(ValueError):
        ClopenInterval(7, 3)
    with pytest.raises(ValueError):
        ClopenInterval(-1, 3)
    with pytest.raises(ValueError):
        ClopenInterval(INF, INF)  # infinity never starts an interval
    assert str(iv(8, 11)) == "[8,11)"
    assert str(iv(2014, INF)) == "[2014,inf)"


def test_an_interval_is_validated_however_it_is_made():
    """Bad endpoints are rejected by the constructor, by ``_make`` and
    ``_replace``, and when ``copy`` or ``pickle`` rebuilds an interval."""
    good = iv(3, 5)
    assert copy.copy(good) == copy.deepcopy(good) == pickle.loads(pickle.dumps(good)) == good
    assert {type(x) for x in (copy.copy(good), pickle.loads(pickle.dumps(good)), good._replace(end=6))} \
        == {ClopenInterval}
    data = pickle.dumps(good, protocol=2)  # unframed, so endpoints of another length fit
    assert data.count(b"K\x03K\x05") == 1  # the two endpoints, as one-byte ints
    bad_endpoints = {
        "bool start": (True, 5, b"\x88K\x05"),
        "negative start": (-1, 5, b"J" + struct.pack("<i", -1) + b"K\x05"),
        "empty": (5, 3, b"K\x05K\x03"),
        "float end": (3, 7.5, b"K\x03G" + struct.pack(">d", 7.5)),
    }
    for start, end, endpoints in bad_endpoints.values():
        for make in (lambda: ClopenInterval(start, end), lambda: ClopenInterval._make((start, end)),
                     lambda: good._replace(start=start, end=end),
                     lambda: pickle.loads(data.replace(b"K\x03K\x05", endpoints))):
            with pytest.raises(ValueError):
                make()


def test_build_grid():
    assert build_grid([iv(8, 11), iv(11, 13), iv(8, 10), iv(10, 11)]) == [8, 10, 11, 13]
    assert build_grid([]) == []
    assert build_grid([iv(2014, INF), iv(2016, 2018)]) == [2014, 2016, 2018]


def test_split_interval():
    assert split_interval(iv(8, 11), [8, 10, 11, 13]) == [iv(8, 10), iv(10, 11)]
    assert split_interval(iv(10, 11), [8, 10, 11, 13]) == [iv(10, 11)]
    pieces = split_interval(iv(2014, INF), [2014, 2016])
    assert pieces == [iv(2014, 2016), iv(2016, INF)]
    # the pieces partition the interval's point set at any finite horizon
    union = set()
    for piece in pieces:
        points = interval_point_set(piece, 2020)
        assert not (union & points)
        union |= points
    assert union == interval_point_set(iv(2014, INF), 2020)


def test_split_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        split_interval(iv(0, 5), [3, 1])
    with pytest.raises(ValueError):
        split_interval(iv(0, 5), [1, 1, 3])


intervals = st.builds(
    lambda s, length: iv(s, INF if length is None else s + length),
    st.integers(0, 20),
    st.one_of(st.none(), st.integers(1, 10)),
)


@given(intervals, st.sets(st.integers(0, 40), max_size=12))
def test_split_interval_cuts_at_exactly_the_grid_points_inside(interval, points):
    """Against point sets, on any sorted grid: grid points below, at the ends
    of, and above the interval (which may be unbounded) are not cuts."""
    horizon = 43
    inside = interval_point_set(interval, horizon)
    pieces = split_interval(interval, sorted(points))
    piece_points = [interval_point_set(piece, horizon) for piece in pieces]
    assert set().union(*piece_points) == inside and sum(map(len, piece_points)) == len(inside)
    assert [piece.start for piece in pieces] == sorted({interval.start} | (inside & points))
    assert all(a.end == b.start for a, b in zip(pieces, pieces[1:])) and pieces[-1].end == interval.end


@given(st.sets(intervals, min_size=0, max_size=8))
def test_grid_splitting_properties(ivs):
    grid = build_grid(ivs)
    assert grid == sorted(set(grid))
    horizon = max(grid, default=0) + 3
    pieces_of = {interval: split_interval(interval, grid) for interval in ivs}
    for interval, pieces in pieces_of.items():
        union = set()
        for piece in pieces:
            points = interval_point_set(piece, horizon)
            assert not (union & points), "pieces overlap"
            union |= points
        assert union == interval_point_set(interval, horizon)
    # across all calls over the same grid, pieces are pairwise equal or disjoint
    every = [p for pieces in pieces_of.values() for p in pieces]
    for a in every:
        for b in every:
            if a != b:
                assert not (interval_point_set(a, horizon) & interval_point_set(b, horizon))


@given(st.sets(intervals, min_size=1, max_size=8))
def test_splitting_already_split_intervals_is_the_identity(ivs):
    grid = build_grid(ivs)
    pieces = [p for interval in ivs for p in split_interval(interval, grid)]
    for piece in pieces:
        assert split_interval(piece, grid) == [piece]


@given(st.lists(intervals, max_size=12))
def test_intervals_sort_by_start_then_end_with_inf_last(ivs):
    assert sorted(ivs) == sorted(ivs, key=lambda i: (i.start, i.end == INF, i.end))
