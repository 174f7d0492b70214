"""The all-pairs closure DFS over point -> unipotent assignments, kept as
the differential oracle for `perfcode.regular_groups._enumerate_regular_idx`.

It assigns the smallest unassigned point each unipotent in turn, with no
translation pre-filter, and closes the assigned set under every pairwise
product, in both orders, backtracking on the first non-unipotent product
or conflicting assignment.  It shares only the unipotent tables with the
enumeration it checks, which closes each node under the generators it
chose on its path and skips candidates by their translations first.
"""

from __future__ import annotations

from perfcode.regular_groups import _tables


def all_pairs_regular_idx(r: int):
    """Yield assignments point -> unipotent index, in deterministic DFS order."""
    tab = _tables(r)
    n = 1 << r
    app_l, mul_l = tab.app_l, tab.mul_l

    def propagate(mats: list[int], a: int, k: int):
        mats = mats.copy()
        mats[a] = k
        assigned = [p for p in range(n) if mats[p] >= 0]
        queue = [a]
        while queue:
            c = queue.pop()
            kc = mats[c]
            for b in assigned[:]:
                kb = mats[b]
                for t, prod in (
                    (c ^ app_l[kc][b], mul_l[kc][kb]),
                    (b ^ app_l[kb][c], mul_l[kb][kc]),
                ):
                    if prod < 0:
                        return None
                    cur = mats[t]
                    if cur < 0:
                        mats[t] = prod
                        assigned.append(t)
                        queue.append(t)
                    elif cur != prod:
                        return None
        return mats

    def dfs(mats: list[int]):
        a = next((p for p in range(n) if mats[p] < 0), None)
        if a is None:
            yield mats
            return
        for k in range(len(tab.uni)):
            closed = propagate(mats, a, k)
            if closed is not None:
                yield from dfs(closed)

    start = [-1] * n
    start[0] = 0  # the identity: first in GL(r,2), and unipotent
    yield from dfs(start)
