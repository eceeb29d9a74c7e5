"""Strong semilattices of groups: validation, assembly into a Cayley table,
decomposition of Clifford semigroups back into spec form, direct products,
injectivity of the bonding-tuple map, and isomorphism search.

A spec consists of a finite semilattice E, one group table per element of E,
and a bonding homomorphism G_f -> G_e for every comparable pair e <= f.
Bonding maps are stored as full lookup tables, never closures, so every law
is exhaustively checkable and specs serialize exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import (
    FiniteSemigroup,
    _Budget,
    _reader,
    classify,
    is_semilattice,
    isomorphisms,
    local_group_table,
    pi_and_subgroups,
    validate_semigroup,
)
from .errors import (
    FunctorLawViolated,
    IndexOutOfRange,
    InternalInconsistency,
    NotGroup,
    NotHomomorphism,
    NotSemilattice,
)


@dataclass(frozen=True)
class StrongSemilatticeSpec:
    """Semilattice E, groups G_e, and bonding tables phi[(f, e)] for e <= f.

    Group elements are local indices 0..|G_e|-1; phi[(f, e)][x] is the image
    in G_e of x in G_f.  The pair (e, e) is always present as the identity.
    """

    E: FiniteSemigroup
    groups: dict
    bonding: dict

    def le(self, e: int, f: int) -> bool:
        return self.E.mul(e, f) == e

    def phi(self, f: int, e: int, x: int) -> int:
        return self.bonding[(f, e)][x]


def _check_group(table: FiniteSemigroup, key) -> int:
    """Verify a validated semigroup is a group; return its identity index."""
    rows = table.table
    cols = list(zip(*rows))
    ids = tuple(range(table.n))
    ident = next((e for e in ids if tuple(rows[e]) == ids and cols[e] == ids), None)
    if ident is None:
        raise NotGroup(key, "no identity element")
    for x in ids:
        if (ident, ident) not in zip(rows[x], cols[x]):
            raise NotGroup(key, f"element {x} has no inverse")
    return ident


def group_identity(table: FiniteSemigroup) -> int:
    return _check_group(table, "?")


def validate_spec(E, groups, bonding) -> StrongSemilatticeSpec:
    """Check all strong-semilattice laws exhaustively.

    E must be a semilattice; every groups[e] a group; every bonding entry a
    homomorphism with the right domain/codomain; and the family must satisfy
    phi_{e,e} = id and phi_{g,e} = phi_{f,e} o phi_{g,f} on all chains.
    Homomorphisms are checked over pairs e <= f with f, then e, ascending,
    and chains e <= f <= g in ascending order, so the first violation in
    that order is the one reported, with its least witness.  A verdict
    depends only on the tables and maps involved, so each distinct group
    table, (G_f, G_e, phi) triple and chain of maps is checked once per call.
    """
    if not isinstance(E, FiniteSemigroup):
        E = validate_semigroup(E)
    if not is_semilattice(E):
        raise NotSemilattice("E is not a commutative idempotent semigroup")
    groups = {int(e): g if isinstance(g, FiniteSemigroup) else validate_semigroup(g)
              for e, g in groups.items()}
    if sorted(groups) != list(E.elements()):
        raise IndexOutOfRange(
            f"groups keyed by {sorted(groups)}, expected 0..{E.n - 1}"
        )
    tables, gid = {}, {}  # gid[e] numbers the distinct table of G_e
    for e, g in groups.items():
        n = len(tables)
        gid[e] = tables.setdefault(g.table, n)
        if gid[e] == n:
            _check_group(g, e)
    for (f, e) in bonding:
        if not (0 <= f < E.n and 0 <= e < E.n):
            raise IndexOutOfRange(f"bonding key {f}->{e} outside 0..{E.n - 1}")

    # e <= f iff ef = e: down[f] lists the e <= f, up[e] the f >= e
    down = [[e for e, fe in enumerate(row) if fe == e] for row in E.table]
    up = [[f for f, ef in enumerate(row) if ef == e] for e, row in enumerate(E.table)]
    # maps interns each phi once its images are range-checked, so a map is
    # known by its id; homs and chains hold the (G_f, G_e, phi) and
    # (phi_fe, phi_gf, phi_ge) that passed
    full, maps, homs, chains = {}, {}, set(), set()
    for f, below in enumerate(down):
        Gf = groups[f]
        for e in below:
            Ge = groups[e]
            if e == f:
                phi = bonding.get((f, e), range(Gf.n))
            elif (f, e) not in bonding:
                raise NotHomomorphism((f, e), "missing bonding map")
            else:
                phi = bonding[(f, e)]
            if not isinstance(phi, Sequence):
                raise NotHomomorphism((f, e), f"{phi!r} is not a lookup table")
            phi = tuple(phi)
            if len(phi) != Gf.n:
                raise NotHomomorphism((f, e), f"domain size {len(phi)}")
            if not (set(map(type, phi)) <= {int} and 0 <= min(phi) and max(phi) < Ge.n):
                for y in phi:
                    if not isinstance(y, int) or isinstance(y, bool) \
                            or not 0 <= y < Ge.n:
                        raise NotHomomorphism((f, e), f"image {y!r} outside G_{e}")
            phi = full[(f, e)] = maps.setdefault(phi, phi)
            hom = (gid[f], gid[e], id(phi))
            if hom in homs:
                continue
            for x, row in enumerate(Gf.table):
                image_row = Ge.table[phi[x]]
                for y, xy in enumerate(row):
                    if phi[xy] != image_row[phi[y]]:
                        raise NotHomomorphism((f, e), "product not preserved",
                                              witness=(x, y))
            homs.add(hom)
    for (f, e) in bonding:
        if E.mul(e, f) != e:
            raise NotHomomorphism((f, e), "bonding given for incomparable pair")
    for e in E.elements():
        if full[(e, e)] != tuple(range(groups[e].n)):
            raise FunctorLawViolated((e, e), "phi_{e,e} is not the identity")
    for e, above in enumerate(up):
        for f in above:
            phi_fe = full[(f, e)]
            for g in up[f]:
                phi_gf, phi_ge = full[(g, f)], full[(g, e)]
                chain = (id(phi_fe), id(phi_gf), id(phi_ge))
                if chain in chains:
                    continue
                for x, y in enumerate(phi_gf):
                    if phi_ge[x] != phi_fe[y]:
                        raise FunctorLawViolated((e, f, g), f"composition fails at x={x}")
                chains.add(chain)
    return StrongSemilatticeSpec(E=E, groups=groups, bonding=full)


@dataclass(frozen=True)
class Assembled:
    """A spec's Clifford semigroup with its deterministic carrier layout.

    Elements are numbered block by block in E-index order, then by local
    group index, so assembly is reproducible bit-for-bit.
    """

    semigroup: FiniteSemigroup
    spec: StrongSemilatticeSpec
    offsets: tuple[int, ...]

    def point(self, e: int, g: int) -> int:
        return self.offsets[e] + g


def assemble(spec: StrongSemilatticeSpec) -> Assembled:
    """Build the Cayley table one block pair at a time: for s in G_e and t
    in G_f the product lives in G_{ef} and equals phi_{e,ef}(s) * phi_{f,ef}(t),
    so row s of block (e, f) is row phi_{e,ef}(s) of G_{ef}, shifted to
    global indices, read through phi_{f,ef}."""
    E, groups, bonding = spec.E, spec.groups, spec.bonding
    sizes = [groups[e].n for e in E.elements()]
    offsets = tuple(accumulate(sizes[:-1], initial=0))
    shifted = [[tuple(offsets[e] + v for v in row) for row in groups[e].table]
               for e in E.elements()]
    table = []
    for e, row_e in enumerate(E.table):
        blocks = [(shifted[ef], bonding[(e, ef)], _reader(bonding[(f, ef)]))
                  for f, ef in enumerate(row_e)]
        for s in range(sizes[e]):
            row = []
            for block, phi_e, through in blocks:
                row.extend(through(block[phi_e[s]]))
            table.append(row)
    labels = []
    for e in E.elements():
        g = spec.groups[e]
        for x in g.elements():
            labels.append(f"{E.label(e)}:{g.label(x)}")
    S = validate_semigroup(table, labels)
    if not classify(S).is_clifford:
        raise InternalInconsistency("assembled semigroup is not Clifford")
    return Assembled(semigroup=S, spec=spec, offsets=offsets)


def decompose(S: FiniteSemigroup) -> StrongSemilatticeSpec:
    """Extract the strong-semilattice data of a Clifford semigroup: E(S),
    the pi-fibers as groups, and multiplication-by-lower-idempotent as
    bonding.  assemble(decompose(S)) is isomorphic to S.  Raises NotClifford
    on other semigroups.  The spec is computed once per instance of S; each
    call returns it with fresh groups and bonding dicts."""
    spec, _ = S.decomposition
    return StrongSemilatticeSpec(spec.E, dict(spec.groups), dict(spec.bonding))


def _decompose(S: FiniteSemigroup):
    """The spec of decompose(S), computed, together with the fibers it was
    read from (FiniteSemigroup.decomposition holds the pair): fibers[i] is
    (e, G_e) for the idempotent e of E-index i, with G_e as sorted global
    indices, so local index j of group i is fibers[i][1][j].

    E(S) is the subtable on the idempotents, the sorted fiber keys, and
    the bonding map phi_{f,e}(x) = ex is read off row e of the table.  Both
    stay inside (E(S) and G_e) because pi_and_subgroups checked that pi is
    a homomorphism, and ex = xe because classify found the idempotents
    central; validate_spec checks the strong-semilattice laws."""
    _, groups = pi_and_subgroups(S)
    E = local_group_table(S, groups)
    fibers = tuple(groups.items())
    pos = [{x: j for j, x in enumerate(members)} for _, members in fibers]
    bonding = {}
    for f, (_, upper) in enumerate(fibers):
        for e, (idem, _) in enumerate(fibers):
            if e != f and E.mul(e, f) == e:
                row = S.table[idem]
                bonding[(f, e)] = tuple(pos[e][row[x]] for x in upper)
    local = {e: local_group_table(S, members)
             for e, (_, members) in enumerate(fibers)}
    return validate_spec(E, local, bonding), fibers


def direct_product(E: FiniteSemigroup, G: FiniteSemigroup) -> Assembled:
    """The trivial Clifford semigroup E x G with componentwise product,
    realized as the identity-bonding spec over E."""
    if not is_semilattice(E):
        raise NotSemilattice("first factor must be a semilattice")
    _check_group(G, "G")
    groups = {e: G for e in E.elements()}
    ident = tuple(range(G.n))
    bonding = {}
    for f in E.elements():
        for e in E.elements():
            if E.mul(e, f) == e and e != f:
                bonding[(f, e)] = ident
    spec = validate_spec(E, groups, bonding)
    return assemble(spec)


def iso_equivalent(S1: FiniteSemigroup, S2: FiniteSemigroup
                   ) -> Optional[tuple[int, ...]]:
    """A multiplication-preserving bijection S1 -> S2, found by
    core.isomorphisms (which one is unspecified), or None if none exists.

    Exceeding the node budget of 500 000 raises SearchBudgetExceeded."""
    return next(isomorphisms(S1, S2, _Budget(500_000)), None)
