"""Closed-form values and bounds, exact integer arithmetic only.

Each function mirrors a proven identity for a named graph family.  Where
only a bracket is known the result is a ValueOrBounds carrying both
ends.  Divisibility is asserted before every integer division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ValueOrBounds:
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")

    @classmethod
    def exact_value(cls, v: int) -> "ValueOrBounds":
        return cls(v, v)

    @property
    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise AssertionError(f"{a} is not divisible by {b}")
    return q


def gamma_r_path_cycle(n: int) -> int:
    """Roman domination number of P_n and C_n: ceil(2n/3)."""
    if n < 1:
        raise ValueError("order must be positive")
    return _ceil_div(2 * n, 3)


def gamma_r_sierpinski_path(n: int, t: int) -> int:
    """Roman domination number of S(P_n, 2), and of S(P_2, t) at any depth t.

    S(P_2, t) is a plain path on 2**t vertices.  For n >= 3 above depth 2
    no closed form is proven: n**(t-2) times the depth-2 value is only an
    upper bound (S(P7, 3) has Roman domination number 222, not 224), so
    those depths raise ValueError.
    """
    if t < 2:
        raise ValueError("depth must be at least 2")
    if n < 2:
        raise ValueError("path order must be at least 2")
    if n == 2:
        return gamma_r_path_cycle(2**t)
    if t > 2:
        raise ValueError(
            f"S(P{n},{t}): no exact closed form above depth 2;"
            " for an upper bound use construct --family path (n = 3k + 2)"
        )
    base = gamma_r_path_cycle(n)
    if n % 3 == 2:
        return n * base - 2 * _ceil_div(n, 3) + 1
    return n * base - _ceil_div(n, 3)


def gamma_r_sierpinski_cycle(n: int, t: int) -> ValueOrBounds:
    """Roman domination number of S(C_n, t) for t >= 2.

    Exact when n is not a multiple of 3, otherwise the known bracket
    [(2n-3)/3, (2n-1)/3] scaled by n**(t-1).
    """
    if t < 2:
        raise ValueError("depth must be at least 2")
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    scale = n ** (t - 1)
    if n % 3 == 0:
        return ValueOrBounds(
            _exact_div(scale * (2 * n - 3), 3), _exact_div(scale * (2 * n - 1), 3)
        )
    return ValueOrBounds.exact_value(scale * (2 * n // 3))


def gamma_knt(n: int, t: int) -> int:
    """Domination number of S(K_n, t)."""
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    if t % 2 == 0:
        return _exact_div(n**t + n, n + 1)
    return _exact_div(n**t + 1, n + 1)


def gamma_r_knt_upper(n: int, t: int) -> int:
    """Proven upper bound for the Roman domination number of S(K_n, t)."""
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    if t % 2 == 0:
        return _exact_div(2 * n**t + n - 1, n + 1)
    return _exact_div(2 * (n**t + 1), n + 1)


def universal_vertex_value(n: int, t: int) -> int:
    """gamma_R(S(G, t)) when G has exactly one universal vertex, n >= 4, t >= 2."""
    if n < 4:
        raise ValueError("needs base order at least 4")
    if t < 2:
        raise ValueError("depth must be at least 2")
    return n ** (t - 2) * (2 * n - 1)


# Lower bound on gamma_R(S(G, t)) when at most one base vertex has degree
# >= n-2: the same value as a single universal vertex gives.
min_degree_lower_bound = universal_vertex_value


@dataclass(frozen=True)
class KntLowerBound:
    """Complete-base lower bound for gamma_R(S(G, t)) over any base of order n."""

    value: int
    method: str  # "exact-solve" or "domination-formula"

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method}


# the largest S(K_n, t) order at which the bound is gamma_R(S(K_n, t)) itself
_KNT_EXACT_LIMIT = 40


def knt_lower_bound_for_any_graph(n: int, t: int) -> KntLowerBound:
    """gamma_R(S(K_n, t)) when n**t <= 40, else gamma(S(K_n, t)).

    Any n-vertex base graph is a spanning subgraph of K_n, so either
    quantity bounds gamma_R(S(G, t)) from below.  The exact branch is the
    closed form gamma_r_knt_upper(n, t): it equals gamma_R(S(K_n, t)) at
    each of the 48 points with n**t <= 40, which
    tests/test_formulas.py::test_knt_lower_bound_is_the_solved_value
    checks against an exact solve.
    """
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    if n**t <= _KNT_EXACT_LIMIT:
        return KntLowerBound(gamma_r_knt_upper(n, t), "exact-solve")
    return KntLowerBound(gamma_knt(n, t), "domination-formula")
