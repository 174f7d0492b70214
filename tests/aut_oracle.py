"""The closure-propagation DFS over generator images, kept as the
differential oracle for the automorphism search of
`perfcode.regular_groups`.

It backtracks over generator images filtered by element order; closure
propagation extends each partial map over all products (left and right)
and rejects on the first inconsistency, so a completed map is a
homomorphism on the whole multiplication table.  It picks its generators
by its own closure, each the least label outside the subgroup the ones
before it generate, which are not the search's minimal generators, so it
shares only the element orders with the search it checks.  Its DFS over
ascending images emits the maps in ascending row order, the order the
search sorts its rows into.
"""

from __future__ import annotations

from perfcode.regular_groups import _label_orders


def closure(mul: list[list[int]], gens) -> set[int]:
    """The subgroup `gens` generate: the closure of 0 and the generators
    under all products (left and right)."""
    seen = {0}
    frontier = [0]
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        x = frontier.pop()
        for y in list(seen):
            for z in (mul[x][y], mul[y][x]):
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return seen


def greedy_generators(mul: list[list[int]], n: int) -> list[int]:
    """Generators chosen greedily: each is the least label outside the
    subgroup the ones before it generate."""
    gens: list[int] = []
    cl = {0}
    while len(cl) < n:
        nxt = next(a for a in range(n) if a not in cl)
        gens.append(nxt)
        cl = closure(mul, gens)
    return gens


def closure_automorphism_perms(mul: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """All product-preserving label bijections fixing 0, in DFS order."""
    orders = _label_orders(mul)
    by_order: dict[int, list[int]] = {}
    for a in range(n):
        by_order.setdefault(orders[a], []).append(a)
    gens = greedy_generators(mul, n)
    out: list[tuple[int, ...]] = []

    def close(img: list[int], seeds: list[int]) -> bool:
        queue = list(seeds)
        while queue:
            c = queue.pop()
            ic = img[c]
            for b in range(n):
                ib = img[b]
                if ib < 0:
                    continue
                for p, ip in ((mul[c][b], mul[ic][ib]), (mul[b][c], mul[ib][ic])):
                    if img[p] < 0:
                        img[p] = ip
                        queue.append(p)
                    elif img[p] != ip:
                        return False
        return True

    def dfs(img: list[int], gi: int):
        if gi == len(gens):
            if all(x >= 0 for x in img) and len(set(img)) == n:
                out.append(tuple(img))
            return
        g = gens[gi]
        if img[g] >= 0:
            dfs(img, gi + 1)
            return
        used = set(x for x in img if x >= 0)
        for cand in by_order[orders[g]]:
            if cand in used:
                continue
            trial = img.copy()
            trial[g] = cand
            if close(trial, [g]):
                vals = [x for x in trial if x >= 0]
                if len(set(vals)) == len(vals):
                    dfs(trial, gi + 1)

    start = [-1] * n
    start[0] = 0
    dfs(start, 0)
    return out
