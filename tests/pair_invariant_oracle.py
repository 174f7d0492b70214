"""The per-pair loop that built the pair invariant of the backtracking
automorphism counter, kept as the differential oracle for the array-built
`perfcode.sqs._pair_invariant`."""

from __future__ import annotations

from itertools import combinations


def pair_invariant_loop(quads, v: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """(pair_inv, point_inv) of sorted quadruples on v points: pair_inv[x][y]
    counts the pairs of quadruples through x and y whose symmetric
    difference is a quadruple; point_inv[x] is row x, sorted."""
    masks = []
    through: dict[tuple[int, int], list[int]] = {}
    for quad in quads:
        mask = sum(1 << p for p in quad)
        masks.append(mask)
        for pair in combinations(quad, 2):
            through.setdefault(pair, []).append(mask)
    quad_masks = set(masks)
    pair_inv = [[0] * v for _ in range(v)]
    for (x, y), pair_masks in through.items():
        inv = sum(1 for m1, m2 in combinations(pair_masks, 2) if m1 ^ m2 in quad_masks)
        pair_inv[x][y] = pair_inv[y][x] = inv
    return pair_inv, [tuple(sorted(row)) for row in pair_inv]
