"""Exact permutation-group computations.

Permutations are image tuples on the domain {0, ..., d-1}, and products
apply the left factor first: pmul(a, b)[i] = b[a[i]].  PermGroup builds
a base and strong generating set by random Schreier sifting, certified
by a proven upper bound on the order (see socle_bound) or by the full
Schreier check, so orders, membership tests, and the derived reports
are exact, never Monte Carlo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

from .numth import VerificationError, check

Perm = tuple[int, ...]

ELEMENT_LIMIT = 10**6
INDEX_LIMIT = 10**6

# default seed for the randomized sifting phase; results never depend on
# it because chains are certified afterwards, so it only affects speed
DEFAULT_SEED = 0

# consecutive quiet sift steps a chain allows below its upper bound
# (without one, 16); the longest quiet run measured before progress was 510
BOUND_QUIET_CAP = 2000


def pid(d: int) -> Perm:
    return tuple(range(d))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product applying a first, then b."""
    return tuple(b[i] for i in a)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def ppow(a: Perm, e: int) -> Perm:
    if e < 0:
        return ppow(pinv(a), -e)
    out = pid(len(a))
    while e:
        if e & 1:
            out = pmul(out, a)
        e >>= 1
        if e:
            a = pmul(a, a)
    return out


def pconj(a: Perm, g: Perm) -> Perm:
    """The conjugate g^-1 * a * g."""
    return pmul(pmul(pinv(g), a), g)


def cycles(a: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i]:
            continue
        seen[i] = True
        if a[i] == i:
            continue
        cyc = [i]
        j = a[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = a[j]
        out.append(tuple(cyc))
    return out


def porder(a: Perm) -> int:
    return lcm(*(len(c) for c in cycles(a))) if a else 1


def perm_from_cycles(d: int, cycs) -> Perm:
    img = list(range(d))
    for cyc in cycs:
        for i, p in enumerate(cyc):
            img[p] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def orbit_partition(gens, degree: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the generated group, sorted by least point."""
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        k = 0
        while k < len(orb):
            p = orb[k]
            k += 1
            for g in gens:
                q = g[p]
                if not seen[q]:
                    seen[q] = True
                    orb.append(q)
        out.append(tuple(sorted(orb)))
    return tuple(out)


class _Level:
    __slots__ = ("beta", "gens", "transversal", "inverse")

    def __init__(self, beta: int):
        self.beta = beta
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {}
        self.inverse: dict[int, Perm] = {}

    def extend(self, g: Perm) -> None:
        """Add one generator and grow the orbit and transversal."""
        self.gens.append(g)
        fresh = []
        for p in list(self.transversal):
            q = g[p]
            if q not in self.transversal:
                u = pmul(self.transversal[p], g)
                self.transversal[q] = u
                self.inverse[q] = pinv(u)
                fresh.append(q)
        k = 0
        while k < len(fresh):
            p = fresh[k]
            k += 1
            for h in self.gens:
                q = h[p]
                if q not in self.transversal:
                    u = pmul(self.transversal[p], h)
                    self.transversal[q] = u
                    self.inverse[q] = pinv(u)
                    fresh.append(q)


class PermGroup:
    """Group generated by image-tuple permutations of a common domain.

    The stabilizer chain is built lazily by seeded random sifting.  The
    orbit product is a lower bound on the order, so meeting a proven
    upper_bound proves the order (certified_by "bound"), and exceeding
    it fails on every query.  Otherwise every Schreier generator is
    checked to sift to the identity, bottom level first (certified_by
    "schreier"); the exact order may then lie below the bound.
    """

    def __init__(self, gens, degree: int | None = None,
                 upper_bound: int | None = None, seed: int | None = None,
                 base_hint=None, *, known_order: int | None = None):
        gens = [tuple(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("degree is required without generators")
            degree = len(gens[0])
        ident = pid(degree)
        for g in gens:
            if len(g) != degree or sorted(g) != list(ident):
                raise ValueError("generator is not a permutation of the domain")
        self.degree = degree
        self.gens = []
        for g in gens:
            if g != ident and g not in self.gens:
                self.gens.append(g)
        # known_order is upper_bound's former name, which perfbench still uses
        self._upper_bound = known_order if upper_bound is None else upper_bound
        self._seed = DEFAULT_SEED if seed is None else seed
        self._base_hint = list(base_hint) if base_hint else []
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self.certified_by: str | None = None

    # -- chain construction ------------------------------------------

    def _orbit_product(self) -> int:
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def _new_level(self, mover: Perm) -> _Level:
        used = {lvl.beta for lvl in self._levels}
        beta = None
        for b in self._base_hint:
            if b not in used and mover[b] != b:
                beta = b
                break
        if beta is None:
            beta = min(i for i in range(self.degree) if mover[i] != i)
        lvl = _Level(beta)
        lvl.transversal[beta] = pid(self.degree)
        lvl.inverse[beta] = lvl.transversal[beta]
        self._levels.append(lvl)
        return lvl

    def _strip(self, x: Perm, start: int = 0) -> tuple[Perm, int]:
        for j in range(start, len(self._levels)):
            lvl = self._levels[j]
            p = x[lvl.beta]
            inv = lvl.inverse.get(p)
            if inv is None:
                return x, j
            x = pmul(x, inv)
        return x, len(self._levels)

    def _add_residue(self, r: Perm, j: int) -> None:
        # r fixes the first j base points and moves base point j, so it
        # belongs to every level from 1 through j
        if j == len(self._levels):
            self._new_level(r)
        for i in range(1, j):
            self._levels[i].extend(r)
        self._levels[j].extend(r)

    def _update(self, x: Perm, ident: Perm, start: int = 0) -> bool:
        r, j = self._strip(x, start)
        if r == ident:
            return False
        self._add_residue(r, j)
        return True

    def _verify(self, ident: Perm) -> None:
        i = len(self._levels) - 1
        while i >= 0:
            lvl = self._levels[i]
            clean = True
            for p in sorted(lvl.transversal):
                u = lvl.transversal[p]
                for g in lvl.gens:
                    s = pmul(u, g)
                    q = s[lvl.beta]
                    inv = lvl.inverse.get(q)
                    if inv is None:
                        self._add_residue(s, i)
                        clean = False
                        break
                    s = pmul(s, inv)
                    if s == ident:
                        continue
                    r, j = self._strip(s, i + 1)
                    if r != ident:
                        self._add_residue(r, j)
                        i = j
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                i -= 1

    def _ensure_chain(self) -> None:
        if self._levels is not None:
            return
        self._levels = []
        ident = pid(self.degree)
        if not self.gens:
            self._order = 1
            self.certified_by = "schreier"
            return
        for g in self.gens:
            if not self._levels:
                self._new_level(g)
            self._levels[0].extend(g)
            self._update(g, ident)
        bound = self._upper_bound
        cap = 16 if bound is None else BOUND_QUIET_CAP
        rng = random.Random(self._seed)
        pool = list(self.gens)
        while len(pool) < 8:
            pool.append(pool[len(pool) % len(self.gens)])
        acc = ident
        quiet = 0
        while quiet < cap:
            if bound is not None and self._orbit_product() >= bound:
                break
            i = rng.randrange(len(pool))
            j = rng.randrange(len(pool))
            while j == i and len(pool) > 1:
                j = rng.randrange(len(pool))
            if rng.random() < 0.5:
                pool[i] = pmul(pool[i], pool[j])
            else:
                pool[i] = pmul(pool[j], pool[i])
            acc = pmul(acc, pool[i])
            if self._update(acc, ident):
                quiet = 0
            else:
                quiet += 1
        self.certified_by = "bound"
        if bound is None or self._orbit_product() < bound:
            self._verify(ident)
            self.certified_by = "schreier"
        self._order = self._orbit_product()
        if bound is not None and self._order > bound:
            # dropping the chain makes every later query fail the same way
            self._levels = None
            raise VerificationError(f"group order is at least {self._order},"
                                    f" above the upper bound {bound}")

    # -- queries ------------------------------------------------------

    def order(self) -> int:
        self._ensure_chain()
        return self._order

    def contains(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.degree:
            raise ValueError("domain mismatch")
        self._ensure_chain()
        r, j = self._strip(x)
        return j == len(self._levels) and r == pid(self.degree)

    def base(self) -> tuple[int, ...]:
        self._ensure_chain()
        return tuple(lvl.beta for lvl in self._levels)

    def fundamental_orbits(self) -> tuple[tuple[int, ...], ...]:
        self._ensure_chain()
        return tuple(tuple(sorted(lvl.transversal)) for lvl in self._levels)

    def elements(self, limit: int = ELEMENT_LIMIT) -> list[Perm]:
        """Every element, by breadth-first closure over the generators."""
        if self.order() > limit:
            raise ValueError(f"group of order {self.order()} exceeds the "
                             f"enumeration limit {limit}")
        ident = pid(self.degree)
        seen = {ident}
        queue = [ident]
        k = 0
        while k < len(queue):
            x = queue[k]
            k += 1
            for g in self.gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return queue

    def canonical_coset_rep(self, x) -> Perm:
        """The element of the right coset (self)*x whose base-point image
        sequence is lexicographically least.  Independent of both x's
        choice within the coset and the stored transversals."""
        x = tuple(x)
        self._ensure_chain()
        y = x
        for lvl in self._levels:
            best = None
            pick = None
            for delta in lvl.transversal:
                img = y[delta]
                if best is None or img < best:
                    best = img
                    pick = delta
            y = pmul(lvl.transversal[pick], y)
        return y


class DirectPower(PermGroup):
    """The direct power of a group acting on disjoint copies of its
    domain, with componentwise membership and a closed-form order."""

    def __init__(self, factor: PermGroup, copies: int):
        self.factor = factor
        self.copies = copies
        d = factor.degree
        gens = []
        for i in range(copies):
            off = i * d
            for g in factor.gens:
                img = list(range(d * copies))
                for x in range(d):
                    img[off + x] = off + g[x]
                gens.append(tuple(img))
        super().__init__(gens, degree=d * copies,
                         upper_bound=factor.order() ** copies)
        # membership of each block's piece in the factor, as tested
        self._pieces: dict[Perm, bool] = {}

    def order(self) -> int:
        return self.factor.order() ** self.copies

    def contains(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.degree:
            raise ValueError("domain mismatch")
        d = self.factor.degree
        for i in range(self.copies):
            off = i * d
            piece = tuple(v - off for v in x[off:off + d])
            if min(piece) < 0 or max(piece) >= d:
                return False
            inside = self._pieces.get(piece)
            if inside is None:
                inside = self._pieces[piece] = self.factor.contains(piece)
            if not inside:
                return False
        return True


def socle_bound(gens, M: DirectPower) -> int | None:
    """|M| * |<gens>M : M|, an upper bound on |<gens>| (equal to it when
    <gens> contains M), or None if some generator does not normalize M.
    The index is found by enumerating the right cosets of M under the
    generators outside M; those inside act trivially on them."""
    outside = [tuple(g) for g in gens if not M.contains(g)]
    if not all(M.contains(pconj(m, g)) for g in outside for m in M.gens):
        return None
    d = M.factor.degree

    def blocks_hit(x: Perm) -> tuple[frozenset[int], ...]:
        # the blocks each block of points lands in, the same across Mx
        return tuple(frozenset(x[p] // d for p in range(i, i + d))
                     for i in range(0, M.degree, d))

    reps = [pid(M.degree)]
    inverses = {blocks_hit(reps[0]): [reps[0]]}
    for x in reps:
        for g in outside:
            y = pmul(x, g)
            near = inverses.setdefault(blocks_hit(y), [])
            if not any(M.contains(pmul(y, r)) for r in near):
                reps.append(y)
                near.append(pinv(y))
    return M.order() * len(reps)


@dataclass(frozen=True)
class ActionReport:
    transitive: bool
    two_transitive: bool
    primitive: bool
    semiregular: bool
    regular: bool
    orbits: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...] | None


def _stabilizer_gens(group: PermGroup, point: int) -> list[Perm]:
    """Schreier generators for the stabilizer of a point."""
    ident = pid(group.degree)
    transversal = {point: ident}
    queue = [point]
    k = 0
    while k < len(queue):
        p = queue[k]
        k += 1
        for g in group.gens:
            q = g[p]
            if q not in transversal:
                transversal[q] = pmul(transversal[p], g)
                queue.append(q)
    out = []
    seen = set()
    for p in queue:
        u = transversal[p]
        for g in group.gens:
            s = pmul(pmul(u, g), pinv(transversal[g[p]]))
            if s != ident and s not in seen:
                seen.add(s)
                out.append(s)
    return out


def _minimal_blocks(gens, degree: int, omega: int):
    """The finest block system whose block containing 0 also holds
    omega, by merge-and-close; returns the partition."""
    parent = list(range(degree))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    queue = [(0, omega)]
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for g in gens:
            queue.append((g[a], g[b]))
    blocks: dict[int, list[int]] = {}
    for p in range(degree):
        blocks.setdefault(find(p), []).append(p)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def action_report(group: PermGroup) -> ActionReport:
    d = group.degree
    if d == 0:
        raise ValueError("empty domain")
    orbits = orbit_partition(group.gens, d)
    order = group.order()
    transitive = len(orbits) == 1
    semiregular = all(len(o) == order for o in orbits)
    regular = transitive and semiregular
    if d == 1:
        return ActionReport(True, True, True, semiregular, regular,
                            orbits, None)
    two_transitive = False
    primitive = False
    blocks = None
    if transitive:
        stab = _stabilizer_gens(group, 0)
        rest = orbit_partition(stab, d)
        two_transitive = len(rest) == 2 and (0,) in rest
        primitive = True
        for omega in range(1, d):
            system = _minimal_blocks(group.gens, d, omega)
            if len(system) > 1:
                primitive = False
                blocks = system
                break
    return ActionReport(transitive, two_transitive, primitive,
                        semiregular, regular, orbits, blocks)


@dataclass(frozen=True)
class CosetAction:
    """Action of a group on the right cosets of a subgroup, with the
    canonical representative labeling each coset index."""
    group: PermGroup
    representatives: tuple[Perm, ...]
    parent: PermGroup
    subgroup: PermGroup
    labels: dict[Perm, int] = field(repr=False, compare=False)

    def index_of(self, x) -> int:
        label = self.labels.get(self.subgroup.canonical_coset_rep(x))
        if label is None:
            raise ValueError("element is not in any labeled coset")
        return label


def coset_action(group: PermGroup, subgroup: PermGroup,
                 limit: int = INDEX_LIMIT) -> CosetAction:
    """Permutation action of the group's generators on right cosets of
    the subgroup, labeled breadth-first from the trivial coset."""
    if group.degree != subgroup.degree:
        raise ValueError("domain mismatch")
    for g in subgroup.gens:
        if not group.contains(g):
            raise ValueError("subgroup is not contained in the group")
    index = group.order() // subgroup.order()
    if index > limit:
        raise ValueError(f"coset index {index} exceeds the limit {limit}")
    start = subgroup.canonical_coset_rep(pid(group.degree))
    labels = {start: 0}
    reps = [start]
    images: list[list[int]] = [[] for _ in group.gens]
    k = 0
    while k < len(reps):
        rep = reps[k]
        k += 1
        for gi, g in enumerate(group.gens):
            nxt = subgroup.canonical_coset_rep(pmul(rep, g))
            lab = labels.get(nxt)
            if lab is None:
                lab = len(reps)
                labels[nxt] = lab
                reps.append(nxt)
            images[gi].append(lab)
    check(len(reps) == index, "coset enumeration did not reach the full index")
    action = PermGroup([tuple(img) for img in images], degree=index)
    return CosetAction(action, tuple(reps), group, subgroup, labels)


def filtered_intersection_with_product(small: PermGroup, big: PermGroup,
                                       limit: int = ELEMENT_LIMIT) -> PermGroup:
    """The subgroup of elements of the small group lying in the big one,
    by full enumeration of the small side."""
    kept = [x for x in small.elements(limit) if big.contains(x)]
    return _group_of_elements(kept, small.degree)


def normalizer_by_enumeration(group: PermGroup, target: PermGroup,
                              limit: int = ELEMENT_LIMIT) -> PermGroup:
    """The normalizer of the target subgroup inside the (enumerable)
    ambient group."""
    kept = [x for x in group.elements(limit)
            if all(target.contains(pconj(t, x)) for t in target.gens)]
    return _group_of_elements(kept, group.degree)


def _group_of_elements(kept: list[Perm], degree: int) -> PermGroup:
    """The group whose elements are exactly the given list, generated by
    the least elements (in sorted order) not already generated."""
    kept.sort()
    gens: list[Perm] = []
    grp = PermGroup([], degree=degree)
    for x in kept:
        if not grp.contains(x):
            gens.append(x)
            grp = PermGroup(gens, degree=degree)
    return PermGroup(gens, degree=degree, upper_bound=len(kept))
