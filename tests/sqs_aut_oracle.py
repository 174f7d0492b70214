"""The queue-propagation search that counted SQS automorphisms before the
fixed-base forcing schedule, kept as the differential oracle for
`perfcode.sqs.count_automorphisms`.

It branches on the first quadruple with exactly two mapped points (their
images must fill an image quadruple through the two known images), forces
images through quadruples with three known points from a work queue, and
checks every quadruple it meets with four.  Its pair invariant is the
per-pair loop of `pair_invariant_oracle`, and it shares no table with the
counter it checks.
"""

from __future__ import annotations

from itertools import combinations

from pair_invariant_oracle import pair_invariant_loop


def orbit_closure(points: set[int], gens: list[list[int]]) -> set[int]:
    """The union of the orbits of `points` under the group the images generate."""
    out = set(points)
    queue = list(points)
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


class SqsIndex:
    """Lookup tables of one system; a point set {a, b, c} is keyed by the
    bit mask 1<<a | 1<<b | 1<<c, so no lookup sorts."""

    def __init__(self, quadruples, v: int):
        self.v = v
        self.quads = sorted(tuple(sorted(quad)) for quad in quadruples)
        self.quad_masks: set[int] = set()
        # others[x]: the other three points of each quadruple through x
        self.others: list[list[tuple[int, int, int]]] = [[] for _ in range(v)]
        self.completion: dict[int, int] = {}
        self.pair_quads: dict[tuple[int, int], list] = {}
        for quad in self.quads:
            mask = sum(1 << p for p in quad)
            self.quad_masks.add(mask)
            for i, p in enumerate(quad):
                self.others[p].append(quad[:i] + quad[i + 1 :])
                self.completion[mask ^ (1 << p)] = p
            for pair in combinations(quad, 2):
                self.pair_quads.setdefault(pair, []).append(quad)
        self.pair_inv, self.point_inv = pair_invariant_loop(self.quads, v)

    def compatible(self, img: list[int], p: int, c: int) -> bool:
        """Invariant screen for mapping p to c under the partial map."""
        if self.point_inv[p] != self.point_inv[c]:
            return False
        row_p, row_c = self.pair_inv[p], self.pair_inv[c]
        return all(x_img < 0 or row_p[x] == row_c[x_img] for x, x_img in enumerate(img))

    def propagate(self, img: list[int], used: list[bool], seeds: list[int]) -> bool:
        """Force images through quadruples with three known points."""
        queue = list(seeds)
        while queue:
            x = queue.pop()
            for others in self.others[x]:
                free = [p for p in others if img[p] < 0]
                known = 1 << img[x]
                for p in others:
                    if img[p] >= 0:
                        known |= 1 << img[p]
                if not free:
                    if known not in self.quad_masks:
                        return False
                    continue
                if len(free) > 1:
                    continue
                comp = self.completion.get(known)
                if comp is None or used[comp]:
                    return False
                img[free[0]] = comp
                used[comp] = True
                queue.append(free[0])
        return True

    def branch_choices(self, img: list[int], used: list[bool]):
        """Next decision point and its candidate images: both free points of
        the first quadruple with two mapped points, else the least free point."""
        for quad in self.quads:
            known_img = [img[p] for p in quad if img[p] >= 0]
            free = [p for p in quad if img[p] < 0]
            if len(free) != 2:
                continue
            a, b = sorted(known_img)
            p, p2 = free
            cands = []
            for target in self.pair_quads[(a, b)]:
                rest = [z for z in target if z != a and z != b]
                for z, w in (rest, rest[::-1]):
                    if not used[z] and not used[w]:
                        cands.append((p, z, p2, w))
            return cands
        p = next((x for x in range(self.v) if img[x] < 0), None)
        if p is None:
            return None
        return [(p, c, None, None) for c in range(self.v) if not used[c]]

    def extendable(self, img: list[int], used: list[bool]):
        """The image list of a full automorphism extending the partial map, or None."""
        choices = self.branch_choices(img, used)
        if choices is None:
            return img
        for p, c, p2, c2 in choices:
            if not self.compatible(img, p, c):
                continue
            img2, used2 = img[:], used[:]
            img2[p] = c
            used2[c] = True
            seeds = [p]
            if p2 is not None:
                if used2[c2] or not self.compatible(img2, p2, c2):
                    continue
                img2[p2] = c2
                used2[c2] = True
                seeds.append(p2)
            if self.propagate(img2, used2, seeds):
                found = self.extendable(img2, used2)
                if found is not None:
                    return found
        return None


def count_automorphisms_queue(quadruples, v: int) -> int:
    """|Aut| of the quadruple set on v points by an orbit-stabilizer chain
    over the identity branch: level i fixes the points the branch has
    fixed so far and decides the orbit of the next free point, each
    candidate by a full search unless the automorphisms found so far
    already place it in or out of the orbit."""
    index = SqsIndex(quadruples, v)
    levels = []
    img, used = [-1] * v, [False] * v
    while (p := next((x for x in range(v) if img[x] < 0), None)) is not None:
        levels.append((img, used, p))
        img, used = img[:], used[:]
        img[p] = p
        used[p] = True
        if not index.propagate(img, used, [p]):
            raise ValueError("the identity does not stabilize every prefix")
    gens: list[list[int]] = []
    order = 1
    for img, used, p in reversed(levels):
        orbit = orbit_closure({p}, gens)
        rejected: set[int] = set()
        for c in range(v):
            if used[c] or c in orbit or c in rejected or not index.compatible(img, p, c):
                continue
            img2, used2 = img[:], used[:]
            img2[p] = c
            used2[c] = True
            found = index.extendable(img2, used2) if index.propagate(img2, used2, [p]) else None
            if found is None:
                rejected |= orbit_closure({c}, gens)
            else:
                gens.append(found)
                orbit = orbit_closure(orbit, gens)
        order *= len(orbit)
    return order
