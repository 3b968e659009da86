"""Symmetric lattice paths, skew box diagrams, and snake shapes.

A path word is a string over {E, N} with as many E steps as N steps,
read as a monotone walk from (0, 0) to (n, n).  The words of interest
here are the symmetric ones: step i differs from step 2n+1-i for every
i, so the walk is fixed by 180-degree rotation about the antidiagonal
point (n/2, n/2) of the square.  Symmetric words correspond bijectively
to subsets of [n]: record which of the last n steps are E steps.  The
dominance order on paths (one path weakly below another) matches the
Gale order on the corresponding subsets.  The skew diagram between two
bounding paths is a frozenset of its (column, row) unit cells.
"""

from __future__ import annotations

from .errors import ArgumentError, DomainError, Frozen
from .subsets import SubsetMask, _require_interval

__all__ = [
    "PathWord",
    "bounding_path_meets",
    "column_heights",
    "is_snake",
    "is_symmetric",
    "path_from_subset",
    "path_leq",
    "path_points",
    "skew_boxes",
    "skew_svg",
    "subset_from_path",
]


class PathWord(Frozen):
    """A balanced word over {E, N}."""

    _fields = ("steps",)

    def __init__(self, steps: str) -> None:
        if not isinstance(steps, str) or any(c not in "EN" for c in steps):
            raise ArgumentError(f"path word must use only E and N: {steps!r}")
        if steps.count("E") * 2 != len(steps):
            raise ArgumentError(f"path word is not balanced: {steps!r}")
        self.__dict__["steps"] = steps

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return self.steps


def is_symmetric(p: PathWord) -> bool:
    """Does step i differ from step 2n+1-i for every i?"""
    w = p.steps
    m = len(w)
    return all(w[i] != w[m - 1 - i] for i in range(m // 2))


def subset_from_path(p: PathWord) -> SubsetMask:
    """Which of the last n steps are E steps (positions n+i -> i)."""
    if not is_symmetric(p):
        raise DomainError(f"path word is not symmetric: {p.steps!r}")
    n = p.n
    return SubsetMask._trusted(n, sum(1 << i for i in range(n) if p.steps[n + i] == "E"))


def path_from_subset(s: SubsetMask) -> PathWord:
    """Inverse of ``subset_from_path``: the symmetric word for S."""
    n = s.n
    second = "".join("E" if i in s else "N" for i in range(1, n + 1))
    first = "".join("N" if c == "E" else "E" for c in reversed(second))
    return PathWord(first + second)


def path_leq(p: PathWord, q: PathWord) -> bool:
    """Dominance: every suffix of p has at most as many E steps as the
    same suffix of q (p stays weakly below q)."""
    if len(p.steps) != len(q.steps):
        raise ArgumentError("paths have different lengths")
    ep = en = 0
    for cp, cq in zip(reversed(p.steps), reversed(q.steps)):
        ep += cp == "E"
        en += cq == "E"
        if ep > en:
            return False
    return True


def column_heights(p: PathWord) -> tuple[int, ...]:
    """Height of the path over each unit column: the number of N steps
    taken before the (c+1)-th E step, for c = 0, ..., n-1."""
    heights = []
    seen_n = 0
    for c in p.steps:
        if c == "E":
            heights.append(seen_n)
        else:
            seen_n += 1
    return tuple(heights)


def path_points(p: PathWord) -> list[tuple[int, int]]:
    """The lattice points visited, from (0, 0) to (n, n)."""
    pts = [(0, 0)]
    x = y = 0
    for c in p.steps:
        if c == "E":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return pts


def skew_boxes(lower: SubsetMask, upper: SubsetMask) -> frozenset[tuple[int, int]]:
    """The (column, row) cells strictly between the bounding paths of
    ``lower`` and ``upper``."""
    _require_interval(lower, upper)
    lo = column_heights(path_from_subset(lower))
    hi = column_heights(path_from_subset(upper))
    return frozenset((c, r) for c in range(lower.n) for r in range(lo[c], hi[c]))


def is_snake(lower: SubsetMask, upper: SubsetMask) -> bool:
    """No 2 x 2 block of cells in the skew diagram."""
    boxes = skew_boxes(lower, upper)
    return not any(
        (c + 1, r) in boxes and (c, r + 1) in boxes and (c + 1, r + 1) in boxes
        for (c, r) in boxes
    )


def bounding_path_meets(lower: SubsetMask, upper: SubsetMask) -> int:
    """Number of times the two bounding paths meet weakly above the
    antidiagonal: shared prefix-E counts after j >= n steps."""
    _require_interval(lower, upper)
    p = path_from_subset(lower).steps
    q = path_from_subset(upper).steps
    n = lower.n
    meets = 0
    ep = eq = 0
    for j in range(1, 2 * n + 1):
        ep += p[j - 1] == "E"
        eq += q[j - 1] == "E"
        if j >= n and ep == eq:
            meets += 1
    return meets


def skew_svg(lower: SubsetMask, upper: SubsetMask) -> str:
    """Deterministic SVG picture: the two bounding paths, the skew cells
    between them, and the antidiagonal of the square."""
    boxes = skew_boxes(lower, upper)
    n = lower.n
    cell = pad = 32  # pixels
    size = 2 * pad + max(n, 1) * cell

    def pt(x, y) -> tuple[int, int]:
        # path coordinates have y growing upward; svg has y growing downward
        return (pad + x * cell, pad + (n - y) * cell)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(n + 1):
        (x0, y0), (x1, y1) = pt(i, 0), pt(i, n)
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#ddd" stroke-width="1"/>')
        (x0, y0), (x1, y1) = pt(0, i), pt(n, i)
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#ddd" stroke-width="1"/>')
    for (c, r) in sorted(boxes):
        x, y = pt(c, r + 1)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="#9ecae1" stroke="#555" stroke-width="1"/>'
        )
    for mask, colour in ((lower, "#d62728"), (upper, "#2ca02c")):
        pts = path_points(path_from_subset(mask))
        coords = " ".join(f"{pt(x, y)[0]},{pt(x, y)[1]}" for (x, y) in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="3"/>'
        )
    (x0, y0), (x1, y1) = pt(0, n), pt(n, 0)
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#333" '
        f'stroke-width="1.5" stroke-dasharray="6,4"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
