"""Second routes for checking kernel results, written without the kernel.

Everything here is independent of mdop's own arithmetic, so that a
defect in the kernel cannot hide by being repeated in its own check.
"""

from __future__ import annotations

from fractions import Fraction

# A generic rational point for evaluating operators: an operator identity
# that holds at x = 1/7 on every basis vector fails only by coincidence.
POINT = Fraction(1, 7)


def falling_value(x, j: int):
    """x (x-1) ... (x-j+1) for an exact scalar x."""
    acc = 1
    for u in range(j):
        acc *= x - u
    return acc


def apply(element, vector: dict, falling: bool = False, x: Fraction = POINT) -> dict:
    """Act with an operator element on a vector of the natural module.

    A vector maps (k, r) to a rational and stands for sum c t^(x+k) e_r.
    t^i D^j E[p,q] sends t^(x+k) e_q to (x+k)^j t^(x+k+i) e_p; in the
    falling basis the factor is the falling power [x+k]_j instead.  The
    central part acts as zero.
    """
    out: dict = {}
    for (i, j, p, q), c in element.terms.items():
        for (k, r), w in vector.items():
            if q != r:
                continue
            base = x + k
            factor = falling_value(base, j) if falling else base**j
            key = (i + k, p)
            out[key] = out.get(key, 0) + c * w * factor
    return {key: c for key, c in out.items() if c}


def apply_twisted(element, vector: dict, x: Fraction = POINT) -> dict:
    """Act with sigma(element) on a natural-module vector, without computing sigma.

    sigma sends t^i D^j E[p,q] to (-1)^(j+1) t^i (D+i)^j E[q,p], which takes
    t^(x+k) e_p to (-1)^(j+1) (x+k+i)^j t^(x+k+i) e_q.
    """
    out: dict = {}
    for (i, j, p, q), c in element.terms.items():
        sign = 1 if j % 2 else -1
        for (k, r), w in vector.items():
            if p != r:
                continue
            key = (i + k, q)
            out[key] = out.get(key, 0) + sign * c * w * (x + k + i) ** j
    return {key: c for key, c in out.items() if c}


def combine(*pairs) -> dict:
    """Sum of sign * vector over (sign, vector) pairs, zeros dropped."""
    out: dict = {}
    for sign, vec in pairs:
        for key, c in vec.items():
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def basis_vectors(rank: int) -> list[dict]:
    return [{(0, r): Fraction(1)} for r in range(1, rank + 1)]


def stirling_second(j: int) -> list[int]:
    """S(j, s) for s = 0..j, with D^j = sum_s S(j, s) [D]_s, built iteratively."""
    row = [1]
    for top in range(1, j + 1):
        row = [0] + [s * row[s] + row[s - 1] for s in range(1, top)] + [1]
    return row


def stirling_first(j: int) -> list[int]:
    """s(j, s) for s = 0..j, with [D]_j = sum_s s(j, s) D^s, built iteratively."""
    row = [1]
    for top in range(1, j + 1):
        row = [0] + [row[s - 1] - (top - 1) * row[s] for s in range(1, top)] + [1]
    return row
