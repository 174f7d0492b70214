"""The per-quadruple loop that validated SQS files before the packed
triple count, kept as the differential oracle for
`perfcode.sqs.validate_sqs`."""

from __future__ import annotations

from itertools import combinations

from perfcode.sqs import SQS, Violation


def validate_sqs_loop(q: SQS):
    """None if every 3-subset is covered exactly once, else the first
    Violation: the first malformed quadruple in iteration order (count -1),
    else the lexicographically least triple not covered once."""
    v = q.order
    counts: dict[tuple[int, int, int], int] = {}
    for quad in q.quadruples:
        if len(quad) != 4 or len(set(quad)) != 4 or any(not 0 <= p < v for p in quad):
            return Violation(triple=tuple(sorted(quad))[:3], count=-1)
        for tri in combinations(sorted(quad), 3):
            counts[tri] = counts.get(tri, 0) + 1
    for tri in combinations(range(v), 3):
        c = counts.get(tri, 0)
        if c != 1:
            return Violation(triple=tri, count=c)
    return None
