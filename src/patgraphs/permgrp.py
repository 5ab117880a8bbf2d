"""Exact permutation-group computations.

Permutations are image tuples on the domain {0, ..., d-1}, and products
apply the left factor first: pmul(a, b)[i] = b[a[i]], one itemgetter
call.  PermGroup builds a base and strong generating set by random
Schreier sifting, certified by a proven upper bound on the order or
by the full Schreier check, so orders, membership tests, and the
derived reports are exact, never Monte Carlo.  socle_group orders a
group whose generators list and normalize those of a direct power M by
one walk over M's cosets, and tests membership there, with no chain:
a coset of M is bucketed by the least image of each block, and M's
membership verdict for each block is cached under its raw slice of
images.  generated_by decides whether generators of a group generate it:
by a sift to its order, or for such a group through M and Scott's lemma,
on chains of one block and of one pair of blocks per minimal class of
their invariant partitions of the blocks.  A subgroup's projection to one
block of M is generated by its generators' pieces.  Intersections, and
stabilizers of right cosets and of points, come from walking the orbit
of a coset (orbit-stabilizer and Schreier generators), not from
enumerating the group.  A transversal entry t_p*h gets its inverse by
one product, h^-1 * t_p^-1.  affine_group is the one proof of an affine
group H = V:C, every premise proven from the permutations: the
AffineGroup it makes has the order |V| |C| with no chain of its own,
and it reads H meet H^g, the valency and local 2-transitivity
(local_action), and H meet M for V inside M (meet, by the Dedekind
law), from its structure, walking only where a premise about g or M
fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from math import factorial, lcm, prod
from operator import itemgetter

from .numth import VerificationError, check, factorize, is_prime

Perm = tuple[int, ...]

ELEMENT_LIMIT = 10**6
INDEX_LIMIT = 10**6

# consecutive quiet sift steps a chain allows below its upper bound
# (without one, 16); the longest quiet run measured before progress was 510
BOUND_QUIET_CAP = 2000


def pid(d: int) -> Perm:
    return tuple(range(d))


def _is_permutation(x, degree: int) -> bool:
    """x lists the images of a permutation of {0, ..., degree-1}."""
    return len(x) == degree and sorted(x) == list(range(degree))


def pmul(a: Perm, b: Perm) -> Perm:
    """Product applying a first, then b."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    # itemgetter returns a bare item for one index and fails for none
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


def alternating_bound(gens, degree: int) -> int | None:
    """degree!/2 when every generator is even, as <gens> then lies in the
    alternating group; None otherwise."""
    if all(sum(len(c) - 1 for c in cycles(g)) % 2 == 0 for g in gens):
        return factorial(degree) // 2
    return None


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
        invs: list[Perm | None] = [None] * len(self.gens)
        fresh = []
        for p in list(self.transversal):
            q = g[p]
            if q not in self.transversal:
                if invs[-1] is None:
                    invs[-1] = pinv(g)
                self.transversal[q] = pmul(self.transversal[p], g)
                self.inverse[q] = pmul(invs[-1], self.inverse[p])
                fresh.append(q)
        k = 0
        while k < len(fresh):
            p = fresh[k]
            k += 1
            for i, h in enumerate(self.gens):
                q = h[p]
                if q not in self.transversal:
                    if invs[i] is None:
                        invs[i] = pinv(h)
                    self.transversal[q] = pmul(self.transversal[p], h)
                    self.inverse[q] = pmul(invs[i], self.inverse[p])
                    fresh.append(q)


class PermGroup:
    """Group generated by image-tuple permutations of a common domain.

    The stabilizer chain is built lazily by random sifting from the
    group's seed, which a group derived from another inherits; chains
    are certified afterwards, so the seed changes only speed.  The orbit
    product is a lower bound on the order, so meeting a proven
    upper_bound proves the order (certified_by "bound"), and exceeding
    it fails on every query.  Otherwise every Schreier generator is
    checked to sift to the identity, bottom level first (certified_by
    "schreier"); the exact order may then lie below the bound.  A group
    that proves its order as it is made (DirectPower, socle_group,
    affine_group) stores it, and order() builds no chain for it.  A bound
    is proven where the group is made: from its generators
    (alternating_bound, atlas.mobius_bound), relations checked there, or
    the order of a group it lies in (generated_by).
    """

    def __init__(self, gens, degree: int | None = None,
                 upper_bound: int | None = None, seed: int = 0, *,
                 known_order: int | None = None):
        gens = [tuple(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("degree is required without generators")
            degree = len(gens[0])
        for g in gens:
            if not _is_permutation(g, degree):
                raise ValueError("generator is not a permutation of the domain")
        ident = pid(degree)
        self.degree = degree
        # first occurrences in order, so generator lists read as given
        self.gens = [g for g in dict.fromkeys(gens) if g != ident]
        # known_order is upper_bound's former name, which perfbench still uses
        self._upper_bound = known_order if upper_bound is None else upper_bound
        self._seed = seed
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self.certified_by: str | None = None

    @property
    def seed(self) -> int:
        return self._seed

    # -- chain construction ------------------------------------------

    def _orbit_product(self) -> int:
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def _new_level(self, mover: Perm) -> _Level:
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

    def _add_generator(self, g: Perm, ident: Perm) -> None:
        # every generator joins the first level, so that the levels below
        # hold only elements of the group the first level generates
        if not self._levels:
            self._new_level(g)
        self._levels[0].extend(g)
        self._update(g, ident)

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
            self._add_generator(g, ident)
        self._complete(ident)

    def _complete(self, ident: Perm) -> None:
        """Sift random elements into the chain of the generators until
        the orbit product meets the upper bound or the sift runs quiet,
        then run the Schreier check if the bound was not met."""
        bound = self._upper_bound
        cap = 16 if bound is None else BOUND_QUIET_CAP
        rng = random.Random(self._seed)
        pool = list(self.gens)
        while pool and len(pool) < 8:
            pool.append(pool[len(pool) % len(self.gens)])
        acc = ident
        quiet = 0
        while pool and quiet < cap:
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
        order = self._orbit_product()
        if bound is not None and order > bound:
            # dropping the chain makes every later query fail the same way
            self._levels = None
            raise VerificationError(f"group order is at least {order},"
                                    f" above the upper bound {bound}")
        self._order = order

    # -- queries ------------------------------------------------------

    def order(self) -> int:
        if self._order is None:
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

    def _coset_labeler(self) -> _CanonicalCosets:
        """A fresh labeling of this group's right cosets, for _coset_walk."""
        return _CanonicalCosets(self)

    def generated_by(self, gens) -> bool:
        """<gens> is this group, for generators in it: sifted to the proven
        bound |self|, <gens> meets it exactly when it is the whole group."""
        return PermGroup(gens, degree=self.degree, upper_bound=self.order(),
                         seed=self.seed).order() == self.order()

    def local_action(self, g) -> tuple[int, int, bool]:
        """|self meet self^g|, the valency |self : self meet self^g|, and
        whether self is 2-transitive on the cosets of self meet self^g,
        from one walk of the orbit of the coset self*g (coset_stabilizer)."""
        meet, neighbours = coset_stabilizer(self, self, g)
        return meet.order(), neighbours.degree, is_two_transitive(neighbours)

    def meet(self, big: PermGroup) -> PermGroup:
        """self meet big, by filtered_intersection_with_product."""
        return filtered_intersection_with_product(self, big)


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
                         upper_bound=factor.order() ** copies,
                         seed=factor.seed)
        self._order = self._upper_bound
        self.certified_by = "bound"
        # per block, whether a raw slice of images is a piece in the factor
        self._slices: list[dict[Perm, bool]] = [{} for _ in range(copies)]
        self._points = pid(d * copies)

    def piece(self, x: Perm, i: int) -> Perm:
        """The images of block i's points under x, moved to 0, ..., d-1."""
        off = i * self.factor.degree
        return tuple(map((-off).__add__, x[off:off + self.factor.degree]))

    def projection(self, sub: PermGroup, i: int) -> PermGroup:
        """pi_i(sub) for a subgroup of this power, the group of the pieces
        its elements have on block i.  pi_i is a homomorphism, so
        pi_i(<S>) = <pi_i(S)>: it is generated by the pieces of sub's
        generators, and no element of sub is listed.  An image of sub in
        the factor, it can be injective only if |sub| divides the
        factor's order, and is then sifted to the bound |sub|; otherwise
        it has no bound."""
        order = sub.order()
        return PermGroup([self.piece(x, i) for x in sub.gens],
                         degree=self.factor.degree, upper_bound=(
                             order if self.factor.order() % order == 0
                             else None), seed=self.seed)

    def contains(self, x) -> bool:
        """x maps each block into itself by a piece in the factor.  Each
        block's verdict on a piece is cached under the raw slice of x
        that holds it, so a slice seen before costs one lookup and no
        piece is built for it."""
        x = tuple(x)
        if len(x) != self.degree:
            raise ValueError("domain mismatch")
        d = self.factor.degree
        for off, seen in zip(range(0, self.degree, d), self._slices):
            raw = x[off:off + d]
            inside = seen.get(raw)
            if inside is None:
                piece = tuple(map((-off).__add__, raw))
                if min(piece) < 0 or max(piece) >= d:
                    return False
                # the stored key holds the domain's own ints, not x's: an
                # x built through pinv has fresh ones, which would stay
                # alive, d of them per entry
                inside = seen[pmul(raw, self._points)] = \
                    self.factor.contains(piece)
            if not inside:
                return False
        return True

    def _coset_labeler(self) -> _PowerCosets:
        return _PowerCosets(self)


class _CanonicalCosets:
    """Labels right cosets of a group by their canonical representatives;
    labels are handed out in order of first sight."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.labels: dict[Perm, int] = {}

    def __call__(self, y: Perm) -> int:
        rep = self.group.canonical_coset_rep(y)
        return self.labels.setdefault(rep, len(self.labels))


class _PowerCosets:
    """Labels right cosets of a direct power M without building a chain
    for M.  An element m of M maps each block of points onto itself, so
    the set y sends block k to, and its least point, is the same on all
    of the coset My: the tuple of those least points keys a bucket, and
    My = Mr exactly when y*r^-1 lies in M."""

    def __init__(self, M: DirectPower):
        self.M = M
        self.count = 0
        self.buckets: dict[tuple[int, ...], list[tuple[int, Perm]]] = {}

    def __call__(self, y: Perm) -> int:
        d = self.M.factor.degree
        key = tuple(min(y[k:k + d]) for k in range(0, len(y), d))
        near = self.buckets.setdefault(key, [])
        for label, rinv in near:
            if self.M.contains(pmul(y, rinv)):
                return label
        near.append((self.count, pinv(y)))
        self.count += 1
        return self.count - 1


@dataclass(frozen=True)
class _CosetOrbit:
    """An orbit of right cosets under right multiplication by <gens>:
    transversal[i] carries the starting coset to coset i, first reached
    from coset k by gens[m] where tree[i] = (k, m) (tree[0] is unused),
    and action[k] is gens[k] acting on the coset labels."""
    gens: tuple[Perm, ...]
    transversal: tuple[Perm, ...]
    action: tuple[Perm, ...]
    tree: tuple[tuple[int, int], ...]

    def schreier_generators(self):
        """Each nontrivial u_i * g * u_(i^g)^-1 once, lazily.  By
        Schreier's lemma they generate the stabilizer of the starting
        coset in <gens>.  u_j = u_k * gens[m] for tree[j] = (k, m), so
        u_j^-1 = gens[m]^-1 * u_k^-1 is one product, built in walk order
        as far as needed."""
        ident = self.transversal[0]
        gen_inverses = [pinv(g) for g in self.gens]
        inverses = [ident]
        seen = set()
        for i, u in enumerate(self.transversal):
            for g, img in zip(self.gens, self.action):
                j = img[i]
                while len(inverses) <= j:
                    k, m = self.tree[len(inverses)]
                    inverses.append(pmul(gen_inverses[m], inverses[k]))
                s = pmul(pmul(u, g), inverses[j])
                if s != ident and s not in seen:
                    seen.add(s)
                    yield s


def _coset_walk(gens, start: Perm, locate,
                limit: int = INDEX_LIMIT) -> _CosetOrbit:
    """The orbit of the right coset K*start under right multiplication by
    <gens>, breadth first (Seress 2003, section 4.1).  locate(y) labels the
    coset K*y; it must be fresh, giving each coset it has not seen the
    next free label."""
    gens = tuple(gens)
    ident = pid(len(start))
    locate(start)
    points = [start]
    # the points start*u are the transversal itself when start is 1
    transversal = points if start == ident else [ident]
    images: list[list[int]] = [[] for _ in gens]
    tree = [(0, -1)]
    k = 0
    while k < len(points):
        for m, (img, g) in enumerate(zip(images, gens)):
            y = pmul(points[k], g)
            label = locate(y)
            if label == len(points):
                if label >= limit:
                    raise ValueError(f"coset orbit exceeds the limit {limit}")
                points.append(y)
                tree.append((k, m))
                if transversal is not points:
                    transversal.append(pmul(transversal[k], g))
            img.append(label)
        k += 1
    return _CosetOrbit(gens, tuple(transversal),
                       tuple(tuple(img) for img in images), tuple(tree))


def _subgroup_of_order(candidates, group: PermGroup,
                       order: int) -> PermGroup:
    """The subgroup of the group that the candidates generate, given a
    proven upper bound on its order that it meets; it sifts from the
    group's seed.  A candidate that sifts through the chain of those kept
    before it lies in their group and is dropped, and no more are drawn
    once the orbit product reaches the order; the chain is then completed
    like any other, by random sifting to the bound or else the Schreier
    check."""
    grp = PermGroup([], degree=group.degree, upper_bound=order,
                    seed=group.seed)
    grp._levels = []
    ident = pid(group.degree)
    for s in candidates:
        if grp._orbit_product() >= order:
            break
        if grp._strip(s)[0] != ident:
            grp.gens.append(s)
            grp._add_generator(s, ident)
    grp._complete(ident)
    check(grp.order() == order, f"stabilizer has order {grp.order()}, "
          f"orbit-stabilizer gives {order}")
    return grp


def coset_stabilizer(group: PermGroup, sub: PermGroup,
                     start) -> tuple[PermGroup, PermGroup]:
    """The stabilizer in the group of the right coset sub*start under
    right multiplication, and the group's action on that coset's orbit,
    from one coset walk.  The stabilizer's order is |group| / orbit
    length, with |group| proven by the group's own chain; by Schreier's
    lemma the walk's Schreier generators generate the whole stabilizer,
    so that order is the proven bound its chain is sifted to."""
    start = tuple(start)
    if not _is_permutation(start, group.degree):
        raise ValueError("start is not a permutation of the domain")
    if sub.degree != group.degree:
        raise ValueError("domain mismatch")
    walk = _coset_walk(group.gens, start, sub._coset_labeler())
    index = len(walk.transversal)
    check(group.order() % index == 0,
          f"coset orbit of length {index} does not divide the group order")
    stab = _subgroup_of_order(walk.schreier_generators(), group,
                              group.order() // index)
    return stab, PermGroup(walk.action, degree=index, seed=group.seed)


def same_double_coset(group: PermGroup, x, y) -> bool:
    """y lies in the double coset group*x*group: the right coset group*y
    is in the orbit of group*x under right multiplication by the group,
    which has |group : group meet group^x| cosets."""
    locate = group._coset_labeler()
    orbit = len(_coset_walk(group.gens, tuple(x), locate).transversal)
    return locate(tuple(y)) < orbit


class _SocleExtension(PermGroup):
    """<gens> for generators that normalize a direct power M, its socle,
    and include all of M's generators, both checked here.  Then M is
    normal in <gens>, so the order is |M| times the length of the orbit
    of the coset M, and x lies in the group exactly when the coset Mx is
    in that orbit: the order meets its proven bound by containment, with
    no chain, and generated_by decides through M.  Any other query
    builds the chain, sifted to that order."""

    def __init__(self, gens, M: DirectPower):
        super().__init__(gens, degree=M.degree, seed=M.seed)
        self.socle = M
        listed = set(M.gens)
        check(listed <= set(self.gens),
              "the generators do not list every generator of T^n")
        check(all(M.contains(pconj(m, g)) for g in self.gens
                  if g not in listed for m in M.gens),
              "a generator does not normalize T^n")
        self._locate = M._coset_labeler()
        self._index = len(self._walk(self.gens, self._locate).transversal)
        self._order = self._upper_bound = M.order() * self._index
        self.certified_by = "bound"

    def _walk(self, gens, locate) -> _CosetOrbit:
        """The orbit of the coset M under right multiplication by <gens>.
        A generator inside M fixes every coset of M, so only the others
        are walked, and those inside join the walk after them with a
        trivial action."""
        inside = [x for x in gens if self.socle.contains(x)]
        walk = _coset_walk([x for x in gens if x not in inside],
                           pid(self.degree), locate)
        fixed = (tuple(range(len(walk.transversal))),) * len(inside)
        return replace(walk, gens=walk.gens + tuple(inside),
                       action=walk.action + fixed)

    def contains(self, x) -> bool:
        x = tuple(x)
        if not _is_permutation(x, self.degree):
            raise ValueError("not a permutation of the domain")
        # a coset outside the orbit gets a fresh label, index or above
        return self._locate(x) < self._index

    def generated_by(self, gens) -> bool:
        """<gens> is the group G, for generators that lie in it, when T is
        nonabelian simple and transitive: the socle M = T^n is normal in
        G, so G permutes M's orbits, its blocks.  Decided through M, with
        no chain of <gens>: L = <gens> is G exactly when LM = G and
        K = L meet M is M.

        One walk of the cosets of M under L gives |LM : M| and, by
        Schreier's lemma, generators of K.  K is normal in L, so for
        blocks i and j in one orbit of L, pi_j(K) is a conjugate of
        pi_i(K).  For one block i of each orbit, pi_i(K) is ordered from
        the pieces of K's generators with the bound |T|, and K is not M
        if it is smaller.  K is then subdirect in T^n, so by Scott's
        lemma it is a direct product of full diagonals over a partition
        of the blocks, which L permutes; L carries any linked pair of
        blocks to one holding the block i of its orbit.  If j is linked
        to i, so is every block in i's class of the finest L-invariant
        partition joining i and j, and that class holds an
        inclusion-minimal one among the classes for all j != i.  So
        K = M exactly when, for each such i and one block j from each
        minimal class, the pieces on 2d points give pi_ij(K) = T^2,
        ordered with the bound |T|^2: a full diagonal has order |T|."""
        M = self.socle
        top, d, n = M.factor.order(), M.factor.degree, M.copies
        walk = self._walk([tuple(g) for g in gens], M._coset_labeler())
        if M.order() * len(walk.transversal) != self.order():
            return False
        kgens = list(walk.schreier_generators())
        # a generator inside M fixes every block
        on_blocks = [tuple(v // d for v in x[::d]) for x in walk.gens]
        firsts = [i for i, *_ in orbit_partition(on_blocks, n)]
        pieces = {i: [M.piece(x, i) for x in kgens] for i in firsts}
        # Scott's partition needs K subdirect, so every pi_i(K) comes first
        for i in firsts:
            if PermGroup(pieces[i], degree=d, upper_bound=top,
                         seed=M.seed).order() < top:
                return False
        for i in firsts:
            classes = {j: next(c for c in _minimal_blocks(on_blocks, n, i, j)
                               if i in c) for j in range(n) if j != i}
            kept: list[int] = []
            for j in sorted(classes, key=lambda j: len(classes[j])):
                if not any(k in classes[j] for k in kept):
                    kept.append(j)
            for j in kept:
                pair = [p + tuple(d + v for v in M.piece(x, j))
                        for p, x in zip(pieces[i], kgens)]
                if PermGroup(pair, degree=2 * d, upper_bound=top * top,
                             seed=M.seed).order() < top * top:
                    return False
        return True


def socle_group(gens, M: DirectPower) -> _SocleExtension:
    """<gens> for generators that list every generator of the direct
    power M and normalize it, as a _SocleExtension ordered through M from
    one walk of the orbit of the coset M.  Each generator is checked to
    be a permutation once, as the group is made.  A list missing one of
    M's generators, or with a generator that does not normalize M,
    fails."""
    return _SocleExtension(gens, M)


def _commute(gens) -> bool:
    return all(pmul(x, y) == pmul(y, x)
               for i, x in enumerate(gens) for y in gens[i + 1:])


class AffineGroup(PermGroup):
    """H = V:C, with V = translations elementary abelian and normal, C =
    complement meeting it trivially and transitive on V minus 1 by
    conjugation, all proven by affine_group.  Then |H| = |V| |C| is the
    order, with no chain; a query that needs one (contains, coset
    labels) builds it sifted to that bound.  H acts on the cosets of C as
    V:C on V, 2-transitively (Dixon and Mortimer 1996, affine groups).
    local_action and meet read H's local facts from that structure where
    their premises about g and the big group hold, and walk otherwise."""

    def __init__(self, gens, V: PermGroup, C: PermGroup):
        super().__init__(gens, degree=V.degree,
                         upper_bound=V.order() * C.order(), seed=V.seed)
        self.translations = V
        self.complement = C
        self._order = self._upper_bound
        self.certified_by = "bound"

    def local_action(self, g) -> tuple[int, int, bool]:
        """If g normalizes C and v^(g^-1) is not in H for v = V.gens[0],
        then H meet H^g is C: it holds C, and C normalizes V meet H^g,
        which is then 1 or V, and not V.  So the valency is |V| and H is
        locally 2-transitive, with no walk."""
        g = tuple(g)
        V, C = self.translations, self.complement
        if (all(C.contains(pconj(c, g)) for c in C.gens)
                and not self.contains(pconj(V.gens[0], pinv(g)))):
            return C.order(), V.order(), True
        return super().local_action(g)

    def meet(self, big: PermGroup) -> PermGroup:
        """If V lies in the big group, H meet big = V (C meet big) by the
        Dedekind law, of the proven order |V| |C meet big|; the walk is of
        the cosets of big under C's generators alone."""
        V = self.translations
        if not all(big.contains(v) for v in V.gens):
            return super().meet(big)
        part = filtered_intersection_with_product(self.complement, big)
        return PermGroup([*V.gens, *part.gens], degree=self.degree,
                         upper_bound=V.order() * part.order(), seed=self.seed)


def _orbit_is(v: Perm, cgens, size: int) -> bool:
    """The orbit of v under conjugation by <cgens> has exactly size
    elements.  For one generator c of order size, it does when no
    c^(size/r), r a prime dividing size, commutes with v: the stabilizer
    of v is then no proper subgroup of <c>, and the orbit is not
    stored.  Otherwise it is listed until it exceeds size."""
    if len(cgens) == 1 and porder(cgens[0]) == size:
        powers = (ppow(cgens[0], size // r) for r in factorize(size))
        return not any(pmul(c, v) == pmul(v, c) for c in powers)
    orbit, queue = {v}, [v]
    while queue and len(orbit) <= size:
        x = queue.pop()
        for c in cgens:
            y = pconj(x, c)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return len(orbit) == size


def affine_group(gens, split: int, degree: int | None = None,
                 seed: int = 0) -> PermGroup:
    """<gens> as the AffineGroup V:C, with V = <gens[:split]> and C =
    <gens[split:]> split from the generators as PermGroup keeps them, when
    every premise is proven from the permutations:
    - V's generators commute and have one prime order p, so |V| <= p^k
      for k of them, the bound V's chain is sifted to, and |V| is at most
      INDEX_LIMIT;
    - C's generators commute, so |C| is at most the product of their
      orders, C's bound, and they normalize V;
    - v = V.gens[0] is not in C, and its orbit under conjugation by C
      has |V| - 1 elements, so C is transitive on V minus 1, the only
      C-invariant subgroups of V are 1 and V, and V meet C = 1.
    Otherwise the plain PermGroup of the same generators."""
    plain = PermGroup(gens, degree=degree, seed=seed)
    vgens, cgens = plain.gens[:split], plain.gens[split:]
    if not (vgens and cgens and _commute(vgens) and _commute(cgens)):
        return plain
    p = porder(vgens[0])
    if not (is_prime(p) and all(porder(v) == p for v in vgens)):
        return plain
    V = PermGroup(vgens, degree=plain.degree, upper_bound=p ** len(vgens),
                  seed=seed)
    if V.order() > INDEX_LIMIT or not all(
            V.contains(pconj(v, c)) for c in cgens for v in vgens):
        return plain
    C = PermGroup(cgens, degree=plain.degree,
                  upper_bound=prod(map(porder, cgens)), seed=seed)
    if C.contains(vgens[0]) or not _orbit_is(vgens[0], cgens,
                                              V.order() - 1):
        return plain
    return AffineGroup(plain.gens, V, C)


@dataclass(frozen=True)
class ActionReport:
    transitive: bool
    two_transitive: bool
    primitive: bool
    semiregular: bool
    regular: bool
    orbits: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...] | None


def _point_walk(group: PermGroup, point: int) -> _CosetOrbit:
    """The walk _coset_walk makes when the coset Stab*y is labeled by
    y[point]; but u_k * g carries the point to g[orbit[k]], so a product
    is formed only for a new point."""
    gens = tuple(group.gens)
    orbit, transversal, tree = [point], [pid(group.degree)], [(0, -1)]
    labels = {point: 0}
    for k, x in enumerate(orbit):
        for m, g in enumerate(gens):
            if g[x] not in labels:
                labels[g[x]] = len(orbit)
                orbit.append(g[x])
                tree.append((k, m))
                transversal.append(pmul(transversal[k], g))
    action = tuple(tuple(labels[g[x]] for x in orbit) for g in gens)
    return _CosetOrbit(gens, tuple(transversal), action, tuple(tree))


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _minimal_blocks(gens, degree: int, a: int, b: int):
    """The finest partition invariant under the generators that puts a
    and b in one class, by merge-and-close; for a transitive group, the
    finest block system whose block containing a also holds b."""
    parent = list(range(degree))
    queue = [(a, b)]
    while queue:
        a, b = queue.pop()
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        parent[rb] = ra
        for g in gens:
            queue.append((g[a], g[b]))
    blocks: dict[int, list[int]] = {}
    for p in range(degree):
        blocks.setdefault(_find(parent, p), []).append(p)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def is_two_transitive(group: PermGroup) -> bool:
    """Transitive, by one walk of the orbit of point 0, with its
    stabilizer transitive on the other points: the walk's Schreier
    generators merge their orbits lazily, and no order is needed."""
    d = group.degree
    if d == 0:
        raise ValueError("empty domain")
    walk = _point_walk(group, 0)
    if len(walk.transversal) != d:
        return False
    parent, classes = list(range(d)), d - 1
    for s in walk.schreier_generators():
        for a, b in enumerate(s):
            a, b = _find(parent, a), _find(parent, b)
            if a != b:
                parent[b] = a
                classes -= 1
        if classes == 1:
            break
    return classes <= 1


def action_report(group: PermGroup) -> ActionReport:
    """Orbits, 2-transitivity, primitivity and block system; the group's
    order is proven only for semiregularity."""
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
    two_transitive = is_two_transitive(group)
    primitive = False
    blocks = None
    if transitive:
        primitive = True
        # a 2-transitive group is primitive, so only the others are searched
        for omega in range(1, 1 if two_transitive else d):
            system = _minimal_blocks(group.gens, d, 0, omega)
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
    locate = _CanonicalCosets(subgroup)
    walk = _coset_walk(group.gens, pid(group.degree), locate, limit)
    check(len(walk.transversal) == index,
          "coset enumeration did not reach the full index")
    action = PermGroup(walk.action, degree=index, seed=group.seed)
    return CosetAction(action, tuple(locate.labels), subgroup, locate.labels)


def filtered_intersection_with_product(small: PermGroup,
                                       big: PermGroup) -> PermGroup:
    """The subgroup of elements of the small group lying in the big one:
    the stabilizer of the coset big*1 under right multiplication by the
    small group (see coset_stabilizer)."""
    return coset_stabilizer(small, big, pid(small.degree))[0]
