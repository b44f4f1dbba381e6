"""Closed forms cross-checked against the exact solver on small cases."""

import pytest
from hypothesis import given, strategies as st

from sierpdom import (
    KntLowerBound,
    ValueOrBounds,
    build,
    complete_graph,
    cycle_graph,
    gamma_exact,
    gamma_knt,
    gamma_r_exact,
    gamma_r_knt_upper,
    gamma_r_path_cycle,
    gamma_r_sierpinski_cycle,
    gamma_r_sierpinski_path,
    knt_lower_bound_for_any_graph,
    min_degree_lower_bound,
    path_graph,
    universal_vertex_value,
)


def test_value_or_bounds():
    assert ValueOrBounds(3, 5).exact is None
    assert ValueOrBounds.exact_value(4).exact == 4
    assert ValueOrBounds(2, 2).to_dict() == {"lower": 2, "upper": 2, "exact": 2}
    with pytest.raises(ValueError):
        ValueOrBounds(5, 3)


def test_path_cycle_base_values():
    assert [gamma_r_path_cycle(n) for n in range(1, 8)] == [1, 2, 2, 3, 4, 4, 5]
    with pytest.raises(ValueError):
        gamma_r_path_cycle(0)


@given(st.integers(1, 10))
def test_path_cycle_matches_solver(n):
    assert gamma_r_path_cycle(n) == gamma_r_exact(path_graph(n)).value
    if n >= 3:
        assert gamma_r_path_cycle(n) == gamma_r_exact(cycle_graph(n)).value


def test_sierpinski_path_values():
    assert gamma_r_sierpinski_path(3, 2) == 5
    assert gamma_r_sierpinski_path(4, 2) == 10
    assert gamma_r_sierpinski_path(5, 2) == 17
    assert gamma_r_sierpinski_path(6, 2) == 22
    assert gamma_r_sierpinski_path(8, 2) == 43
    # above depth 2 the lifted depth-2 value is an upper bound, not a closed form
    for n, t in ((5, 3), (3, 3), (7, 3)):
        with pytest.raises(ValueError, match="construct --family path"):
            gamma_r_sierpinski_path(n, t)


def test_sierpinski_path_degenerate_base():
    # S(P2, t) is a path on 2**t vertices
    assert gamma_r_sierpinski_path(2, 2) == 3
    assert gamma_r_sierpinski_path(2, 3) == 6
    assert gamma_r_sierpinski_path(2, 4) == 11
    assert gamma_r_sierpinski_path(2, 3) == gamma_r_exact(build(path_graph(2), 3).graph).value


def test_sierpinski_path_validation():
    with pytest.raises(ValueError):
        gamma_r_sierpinski_path(5, 1)
    with pytest.raises(ValueError):
        gamma_r_sierpinski_path(1, 2)


def test_sierpinski_cycle_values():
    assert gamma_r_sierpinski_cycle(4, 2).exact == 8
    assert gamma_r_sierpinski_cycle(5, 2).exact == 15
    assert gamma_r_sierpinski_cycle(7, 2).exact == 28
    six = gamma_r_sierpinski_cycle(6, 2)
    assert (six.lower, six.upper) == (18, 22)
    assert six.exact is None
    nine = gamma_r_sierpinski_cycle(9, 3)
    assert (nine.lower, nine.upper) == (405, 459)
    with pytest.raises(ValueError):
        gamma_r_sierpinski_cycle(3, 1)
    with pytest.raises(ValueError):
        gamma_r_sierpinski_cycle(2, 2)


def test_complete_domination_values():
    assert gamma_knt(3, 1) == 1
    assert gamma_knt(3, 2) == 3
    assert gamma_knt(3, 3) == 7
    assert gamma_knt(3, 4) == 21
    assert gamma_knt(2, 2) == 2
    assert gamma_knt(4, 2) == 4
    assert gamma_knt(3, 2) == gamma_exact(build(complete_graph(3), 2).graph).value
    assert gamma_knt(4, 2) == gamma_exact(build(complete_graph(4), 2).graph).value


def test_complete_roman_upper_values():
    assert gamma_r_knt_upper(3, 2) == 5
    assert gamma_r_knt_upper(3, 3) == 14
    assert gamma_r_knt_upper(3, 4) == 41
    assert gamma_r_knt_upper(2, 3) == 6
    assert gamma_r_knt_upper(4, 2) == 7
    # the bound is attained at small sizes
    assert gamma_r_exact(build(complete_graph(3), 2).graph).value <= 5
    assert gamma_r_exact(build(complete_graph(2), 3).graph).value <= 6


@given(st.integers(2, 9), st.integers(1, 6))
def test_complete_formulas_divide_exactly(n, t):
    # both closed forms are integers for every n and t; parity picks the numerator
    g = gamma_knt(n, t)
    r = gamma_r_knt_upper(n, t)
    assert g >= 1 and r >= 2
    assert r <= 2 * g + 1


def test_universal_vertex_values():
    assert universal_vertex_value(4, 2) == 7
    assert universal_vertex_value(5, 2) == 9
    assert universal_vertex_value(4, 3) == 28
    assert min_degree_lower_bound(4, 2) == 7
    with pytest.raises(ValueError):
        universal_vertex_value(3, 2)
    with pytest.raises(ValueError):
        universal_vertex_value(4, 1)


def test_min_degree_bound_sits_below_path_values():
    # paths satisfy the low-degree hypothesis, so the bound must hold
    assert min_degree_lower_bound(5, 2) == 9
    assert min_degree_lower_bound(6, 2) == 11
    assert min_degree_lower_bound(5, 2) <= gamma_r_sierpinski_path(5, 2)
    assert min_degree_lower_bound(6, 2) <= gamma_r_sierpinski_path(6, 2)


def test_cycle_bracket_gap_when_order_divides_three():
    for n in (3, 6, 9):
        for t in (2, 3):
            vb = gamma_r_sierpinski_cycle(n, t)
            assert vb.upper - vb.lower == 2 * n ** (t - 1) // 3


def test_knt_lower_bound_small_is_certified():
    lb = knt_lower_bound_for_any_graph(3, 2)
    assert lb == KntLowerBound(5, "exact-solve")
    assert lb.to_dict() == {"value": 5, "method": "exact-solve"}
    assert knt_lower_bound_for_any_graph(4, 2) == KntLowerBound(7, "exact-solve")
    assert knt_lower_bound_for_any_graph(3, 5) == KntLowerBound(61, "domination-formula")


def test_knt_lower_bound_large_falls_back():
    lb = knt_lower_bound_for_any_graph(5, 4)
    assert lb.method == "domination-formula"
    assert lb.value == gamma_knt(5, 4)


def test_knt_lower_bound_threshold_is_forty():
    assert knt_lower_bound_for_any_graph(2, 5) == KntLowerBound(22, "exact-solve")  # 32 vertices
    assert knt_lower_bound_for_any_graph(2, 6).method == "domination-formula"  # 64 vertices


def test_knt_lower_bound_is_the_solved_value():
    """The exact branch is gamma_r_knt_upper; at every n**t <= 40 it equals the solve."""
    points = [(n, t) for t in range(1, 6) for n in range(2, 41) if n**t <= 40]
    assert len(points) == 48
    for n, t in points:
        solved = gamma_r_exact(build(complete_graph(n), t).graph).value
        assert knt_lower_bound_for_any_graph(n, t) == KntLowerBound(solved, "exact-solve")
