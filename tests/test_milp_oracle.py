"""Solver values against a MILP at orders brute force cannot reach.

The oracle is the ReVelle-Rosing integer program solved by scipy's HiGHS
backend; it shares no code with the branch and bound, only the built
graph's edge list.
"""

import pytest

np = pytest.importorskip("numpy")
scipy_optimize = pytest.importorskip("scipy.optimize")

from sierpdom import (
    RomanFunction,
    build,
    complete_graph,
    cycle_graph,
    gamma_exact,
    gamma_r_exact,
    gamma_r_sierpinski_path,
    is_roman_dominating,
    path_graph,
    star_graph,
)


def milp_value(g, roman):
    return round(milp_solution(g, roman).fun)


def milp_solution(g, roman):
    """An optimal solution of the ReVelle-Rosing program.

    Roman: x_v (label 1) and y_v (label 2) in {0, 1}, minimize
    sum x + 2 sum y subject to x_v + y_v + sum of y over N(v) >= 1.
    Domination: z_v in {0, 1}, minimize sum z subject to sum of z over N[v] >= 1.
    """
    n = g.order
    if roman:
        a = np.zeros((n, 2 * n))
        for v in range(n):
            a[v, v] = a[v, n + v] = 1
        for u, v in g.edges:
            a[u, n + v] = a[v, n + u] = 1
        cost = np.array([1.0] * n + [2.0] * n)
    else:
        a = np.eye(n)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1
        cost = np.ones(n)
    res = scipy_optimize.milp(
        cost,
        constraints=scipy_optimize.LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(cost)),
        bounds=scipy_optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return res


def test_milp_matches_brute_force_sized_cases():
    # P7: gamma 3, gamma_R 5; C6: 2 and 4; K4: 1 and 2
    assert [milp_value(path_graph(7), r) for r in (False, True)] == [3, 5]
    assert [milp_value(cycle_graph(6), r) for r in (False, True)] == [2, 4]
    assert [milp_value(complete_graph(4), r) for r in (False, True)] == [1, 2]


@pytest.mark.parametrize(
    "base,t",
    [(cycle_graph(6), 2), (cycle_graph(7), 2), (path_graph(7), 2), (complete_graph(3), 3), (star_graph(4), 3)],
    ids=lambda x: getattr(x, "name", x),
)
def test_solver_matches_milp(base, t):
    g = build(base, t).graph
    assert 27 <= g.order <= 64
    assert gamma_exact(g).value == milp_value(g, roman=False)
    assert gamma_r_exact(g).value == milp_value(g, roman=True)


def test_roman_solver_matches_milp_on_s_c8_2():
    # γ of S(C8, 2) still outruns the branch and bound's time limits, so only γ_R is checked
    g = build(cycle_graph(8), 2).graph
    assert gamma_r_exact(g).value == milp_value(g, roman=True) == 40


@pytest.mark.parametrize("n,t,value,lifted", [(7, 3, 222, 224), (5, 4, 421, 425)])
def test_path_formula_is_only_an_upper_bound_above_depth_two(n, t, value, lifted):
    # above depth 2, n**(t-2) * gamma_R(S(P_n, 2)), the weight of an optimal
    # S(P_n, 2) labeling lifted into every copy, only bounds gamma_R from above
    g = build(path_graph(n), t).graph
    x = np.round(milp_solution(g, roman=True).x).astype(int)
    f = RomanFunction(tuple(2 if two else int(one) for one, two in zip(x[: g.order], x[g.order :])))
    assert f.weight == value
    assert is_roman_dominating(f, g)
    assert n ** (t - 2) * gamma_r_sierpinski_path(n, 2) == lifted
    assert value < lifted


# Values the branch and bound does not reach within tier-1's time, pinned by the
# MILP alone.  Each that ROADMAP's boundary-DP table lists is the same there.
MILP_PINS = [
    (path_graph(8), 2, True, 43),
    (cycle_graph(9), 2, True, 51),
    (path_graph(4), 3, True, 40),
    (path_graph(3), 4, True, 45),
    (complete_graph(4), 4, True, 103),
    (cycle_graph(5), 3, True, 75),
    (cycle_graph(6), 3, True, 130),
    (cycle_graph(8), 2, False, 24),
    (cycle_graph(9), 2, False, 27),
    (path_graph(8), 2, False, 24),
]


@pytest.mark.parametrize(
    "base,t,roman,value",
    MILP_PINS,
    ids=[f"{'gamma_r' if roman else 'gamma'}:S({base.name},{t})" for base, t, roman, _ in MILP_PINS],
)
def test_milp_pins_values_past_the_branch_and_bound(base, t, roman, value):
    assert milp_value(build(base, t).graph, roman) == value
