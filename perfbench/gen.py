"""Seeded input generator for the benchmark.

Standard library only, and it never imports cliffordlab: it emits plain
Cayley tables and workbench JSON documents, together with the answers the
benchmark expects, computed here by routes of its own.  The same seed gives
byte-identical inputs.

Groups are plain tables with the identity at index 0.  Clifford semigroups
are built as strong semilattices of groups in two families:

- quotient towers: every fibre is G/N_e for one group G and normal
  subgroups N_e that shrink as e goes up the semilattice, and each bonding
  map is the natural projection ("mod" bonding; N_e = G collapses).  With
  one N for every e the result is the direct product E x G/N.
- collapse specs: arbitrary fibres, every bonding map sends all to the
  identity.
"""

from __future__ import annotations

import itertools
import json
import random

# ---------------------------------------------------------------------------
# groups


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def group_product(G, H):
    """G x H, element (g, h) at index g * |H| + h."""
    m = len(H)
    return [[G[a // m][b // m] * m + H[a % m][b % m]
             for b in range(len(G) * m)] for a in range(len(G) * m)]


def s3():
    perms = sorted(itertools.permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(3))] for b in perms]
            for a in perms]


def q8():
    """Quaternion group; elements (sign, unit) with (+1, "1") first."""
    units = "1ijk"
    prod = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}
    for u in units:
        prod[("1", u)] = prod[(u, "1")] = (1, u)
        if u != "1":
            prod[(u, u)] = (-1, "1")
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {x: i for i, x in enumerate(elems)}

    def mul(a, b):
        s, u = prod[(a[1], b[1])]
        return index[(a[0] * b[0] * s, u)]

    return [[mul(a, b) for b in elems] for a in elems]


def subgroup(G, gens):
    """Closure of gens under the product of G."""
    out = {0} | set(gens)
    while True:
        new = {G[a][b] for a in out for b in out} - out
        if not new:
            return frozenset(out)
        out |= new


def quotient(G, N):
    """(table of G/N, projection list g -> coset index).  Cosets are
    numbered by least element, so the identity coset is 0."""
    cosets = {}
    for g in range(len(G)):
        left = frozenset(G[g][x] for x in N)
        if left != frozenset(G[x][g] for x in N):
            raise RuntimeError("generator bug: subgroup is not normal")
        cosets.setdefault(left, min(left))
    order = sorted(cosets, key=min)
    pos = {c: i for i, c in enumerate(order)}
    proj = [pos[next(c for c in order if g in c)] for g in range(len(G))]
    reps = [min(c) for c in order]
    table = [[proj[G[a][b]] for b in reps] for a in reps]
    return table, proj


def _tower(G, chain):
    """Quotients G/N for a chain of generator lists, from N = G down to
    N = {1}: a list of (table, projection from G)."""
    return [quotient(G, subgroup(G, gens)) for gens in chain]


def towers():
    """Named group towers; level 0 is the trivial quotient, the last level
    is G itself."""
    z2, z4 = cyclic(2), cyclic(4)
    z2z4 = group_product(z2, z4)
    return {
        "z12-2": _tower(cyclic(12), [[1], [2], [4], []]),
        "z12-3": _tower(cyclic(12), [[1], [3], [6], []]),
        "z8": _tower(cyclic(8), [[1], [2], [4], []]),
        "z6": _tower(cyclic(6), [[1], [2], []]),
        "klein": _tower(group_product(z2, z2), [[1, 2], [2], []]),
        "s3": _tower(s3(), [[1, 2, 3], [3], []]),
        "z2xz4": _tower(z2z4, [[1, 4], [1], [2], []]),
    }


def small_groups():
    """Fibres for collapse specs."""
    z2 = cyclic(2)
    return [cyclic(1), z2, cyclic(3), cyclic(4), group_product(z2, z2), s3(),
            cyclic(5), cyclic(6)]


# ---------------------------------------------------------------------------
# semilattices and specs


def random_semilattice(rng, k, bits=6):
    """A meet-semilattice of at least k elements: a random family of subsets
    of `bits` points closed under intersection.  Returns (table, sets) with
    elements in a random index order."""
    full = (1 << bits) - 1
    sets = {full}
    while len(sets) < k:
        new = rng.randrange(1 << bits)
        sets |= {new} | {new & s for s in sets}
        closed = False
        while not closed:
            more = {a & b for a in sets for b in sets} - sets
            sets |= more
            closed = not more
    order = sorted(sets)
    rng.shuffle(order)
    pos = {s: i for i, s in enumerate(order)}
    table = [[pos[a & b] for b in order] for a in order]
    return table, order


def below(E, e, f):
    """e <= f in the semilattice table E."""
    return E[e][f] == e


def spec_from_tower(rng, E, sets, tower, constant=None):
    """A quotient-tower spec over E: levels rise (weakly) going up E.  With
    `constant` every element gets that level (a direct product)."""
    top = len(tower) - 1
    levels = {}
    for e in sorted(range(len(E)), key=lambda i: (bin(sets[i]).count("1"), sets[i])):
        if constant is not None:
            levels[e] = constant
            continue
        lows = [levels[d] for d in levels if below(E, d, e)]
        base = max(lows) if lows else rng.randrange(top + 1)
        levels[e] = min(top, base + (rng.random() < 0.5))
    groups = [tower[levels[e]][0] for e in range(len(E))]
    bonding = {}
    for f in range(len(E)):
        for e in range(len(E)):
            if e != f and below(E, e, f):
                (_, pf), (_, pe) = tower[levels[f]], tower[levels[e]]
                # coset of g under N_f -> coset of g under N_e
                image = [0] * len(groups[f])
                for g in range(len(pf)):
                    image[pf[g]] = pe[g]
                bonding[(f, e)] = image
    return {"e": E, "groups": groups, "bonding": bonding}


def spec_collapse(rng, E):
    menu = small_groups()
    groups = [rng.choice(menu) for _ in E]
    bonding = {(f, e): [0] * len(groups[f])
               for f in range(len(E)) for e in range(len(E))
               if e != f and below(E, e, f)}
    return {"e": E, "groups": groups, "bonding": bonding}


def spec_product(E, G):
    """E x G as a spec with identity bonding."""
    ident = list(range(len(G)))
    bonding = {(f, e): ident for f in range(len(E)) for e in range(len(E))
               if e != f and below(E, e, f)}
    return {"e": E, "groups": [G] * len(E), "bonding": bonding}


def spec_order(spec):
    return sum(len(g) for g in spec["groups"])


def offsets(spec):
    out, total = [], 0
    for g in spec["groups"]:
        out.append(total)
        total += len(g)
    return out


def assemble_table(spec):
    """The Cayley table of a spec, element (e, g) at offsets[e] + g: the
    product of s in G_e and t in G_f is phi_{e,ef}(s) phi_{f,ef}(t)."""
    E, groups, bonding = spec["e"], spec["groups"], spec["bonding"]
    off = offsets(spec)

    def phi(f, e, x):
        return x if f == e else bonding[(f, e)][x]

    table = []
    for e in range(len(E)):
        for s in range(len(groups[e])):
            row = []
            for f in range(len(E)):
                ef = E[e][f]
                ps = phi(e, ef, s)
                for t in range(len(groups[f])):
                    row.append(off[ef] + groups[ef][ps][phi(f, ef, t)])
            table.append(row)
    return table


def fibres(spec):
    off = offsets(spec)
    return sorted(tuple(range(o, o + len(g))) for o, g in zip(off, spec["groups"]))


def is_direct_product(spec):
    """True iff every bonding map is a bijection, which for a strong
    semilattice of groups over a semilattice with a minimum is exactly
    being isomorphic to E x G."""
    return all(len(set(img)) == len(img) for img in spec["bonding"].values())


def relabel(table, rng):
    """A random isomorphic copy of the table."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def associative(table):
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


# ---------------------------------------------------------------------------
# documents


def cayley_body(table):
    return {"n": len(table), "table": table}


def spec_body(spec):
    return {
        "e": cayley_body(spec["e"]),
        "groups": {str(e): cayley_body(g) for e, g in enumerate(spec["groups"])},
        "bonding": {f"{f}->{e}": img for (f, e), img in sorted(spec["bonding"].items())},
    }


def document(kind, name, body):
    return json.dumps({"kind": kind, "meta": {"name": name}, "body": body},
                      sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# structure workload


# (|S| target, family, tower): the shape of each rung is fixed so that
# seeds vary the semilattices, levels and fibres but not the kind of work.
STRUCTURE_REPEATS = 3
STRUCTURE_LADDER = (
    (8, "tower", "z6"), (12, "collapse", None), (16, "tower", "z8"),
    (24, "product", "klein"), (32, "tower", "z12-2"), (48, "collapse", None),
    (64, "tower", "z2xz4"), (96, "product", "z8"), (128, "tower", "z12-3"),
)


def _candidate(rng, family, target, tower):
    if family == "collapse":
        E, sets = random_semilattice(rng, rng.randint(2, max(2, target // 3)))
        return spec_collapse(rng, E)
    if family == "product":
        E, sets = _exact_semilattice(rng, target // len(tower[-1][0]))
        return spec_from_tower(rng, E, sets, tower, constant=len(tower) - 1)
    avg = sum(len(t[0]) for t in tower) / len(tower)
    E, sets = _exact_semilattice(rng, max(2, round(target / avg)))
    return spec_from_tower(rng, E, sets, tower)


def structure_spec(rng, family, target, tower, tries=400):
    """A spec of the family whose order is closest to target, taking the
    first of `tries` candidates within 1.6 % of it."""
    best = None
    for _ in range(tries):
        spec = _candidate(rng, family, target, tower)
        if family != "product" and is_direct_product(spec):
            continue
        gap = abs(spec_order(spec) - target)
        if best is None or gap < best[0]:
            best = (gap, spec)
        if gap <= target // 64:
            break
    return best[1]


def structure_inputs(seed):
    """The op list of the structure workload: one generated Clifford
    semigroup per rung of the size ladder, then same-signature pairs
    E x (Z4 x Z4) against E x (Z2 x Q8), which are not isomorphic.  The
    pairs sit at both ends of the ladder (|S| 16 and 64), so the median
    op stays on the |S| = 32 rung."""
    rng = random.Random(f"structure-{seed}")
    bank = towers()
    ops = []
    for rep in range(STRUCTURE_REPEATS):
        for target, family, tower in STRUCTURE_LADDER:
            spec = structure_spec(rng, family, target, bank.get(tower))
            ops.append(_structure_op(f"{family}-{target}-{rep}", spec))
    z4z4 = group_product(cyclic(4), cyclic(4))
    z2q8 = group_product(cyclic(2), q8())
    for k in (1, 4):
        E, _ = _exact_semilattice(rng, k)
        op = _structure_op(f"pair-{16 * k}", spec_product(E, z4z4))
        op["twin_text"] = document("cayley", f"pair-{16 * k}-twin",
                                   cayley_body(assemble_table(spec_product(E, z2q8))))
        ops.append(op)
    return ops


def _exact_semilattice(rng, k):
    while True:
        E, sets = random_semilattice(rng, k)
        if len(E) == k:
            return E, sets


def _structure_op(name, spec):
    table = assemble_table(spec)
    return {
        "name": name,
        "spec_text": document("spec", name, spec_body(spec)),
        "table": table,
        "fibres": fibres(spec),
        "trivial": is_direct_product(spec),
    }


# ---------------------------------------------------------------------------
# topology workload


def transformation_semigroup(rng, n, points=3, tries=2000):
    """A semigroup of order n generated by random maps on `points` points,
    as a table over its elements in sorted order."""
    for _ in range(tries):
        gens = [tuple(rng.randrange(points) for _ in range(points))
                for _ in range(rng.randint(1, 2))]
        elems = set(gens)
        while True:
            new = {tuple(b[a[i]] for i in range(points))
                   for a in elems for b in elems} - elems
            if not new or len(elems) > n:
                break
            elems |= new
        if len(elems) == n:
            order = sorted(elems)
            pos = {x: i for i, x in enumerate(order)}
            return [[pos[tuple(b[a[i]] for i in range(points))] for b in order]
                    for a in order]
    raise RuntimeError(f"no transformation semigroup of order {n} found")


def small_clifford(rng, n):
    """A Clifford semigroup of order n from a random collapse or tower spec."""
    bank = towers()
    while True:
        family = rng.choice(("tower", "collapse"))
        spec = _candidate(rng, family, n, bank[rng.choice(sorted(bank))])
        if spec_order(spec) == n:
            return assemble_table(spec)


def topology_inputs(seed, catalog):
    """Plain tables of order <= 4: the recorded catalog tables plus four
    seeded ones of order 3 (two transformation semigroups, two Clifford
    semigroups), each randomly relabelled and checked for associativity
    here.  Seeded tables stay at order 3: an order-4 table adds 355 models
    whose cost depends on the table, which would move the median op from
    seed to seed."""
    rng = random.Random(f"topology-{seed}")
    seeded = [
        ("transform-3a", transformation_semigroup(rng, 3)),
        ("transform-3b", transformation_semigroup(rng, 3)),
        ("clifford-3a", small_clifford(rng, 3)),
        ("clifford-3b", small_clifford(rng, 3)),
    ]
    tables = [(name, table, True) for name, table in catalog]
    for name, table in seeded:
        table = relabel(table, rng)
        if not associative(table):
            raise RuntimeError(f"generator bug: {name} is not associative")
        tables.append((name, table, False))
    return [{"name": name, "table": table, "catalog": cat,
             **semigroup_facts(table)} for name, table, cat in tables]


def semigroup_facts(table):
    """Unique inverses, Clifford and semilattice flags, and J-classes of a
    small table, by brute force."""
    n = len(table)
    rng_ = range(n)
    inv = []
    for x in rng_:
        cands = [y for y in rng_
                 if table[table[x][y]][x] == x and table[table[y][x]][y] == y]
        inv.append(cands[0] if len(cands) == 1 else None)
    inverse = all(v is not None for v in inv)
    idem = [e for e in rng_ if table[e][e] == e]
    clifford = inverse and all(table[e][x] == table[x][e] for e in idem for x in rng_)
    semilattice = len(idem) == n and all(
        table[x][y] == table[y][x] for x in rng_ for y in rng_)
    ideals = {}
    for x in rng_:
        ideal = {x} | {table[s][x] for s in rng_} | {table[x][t] for t in rng_}
        ideal |= {table[table[s][x]][t] for s in rng_ for t in rng_}
        ideals.setdefault(frozenset(ideal), []).append(x)
    return {"inverse": inv if inverse else None, "clifford": clifford,
            "semilattice": semilattice,
            "j_classes": [frozenset(c) for c in ideals.values()]}


# ---------------------------------------------------------------------------
# cli workload


def random_poset(rng, n, p=0.35):
    rel = [[i == j or (i < j and rng.random() < p) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return rel


def cli_documents(rng):
    """Generated mid-size documents for the cli workload, name -> text."""
    bank = towers()
    docs = {}
    spec = structure_spec(rng, "tower", 40, bank["z12-2"])
    docs["gen-spec"] = document("spec", "gen-spec", spec_body(spec))
    table = relabel(assemble_table(structure_spec(rng, "collapse", 36, None)), rng)
    docs["gen-clifford"] = document("cayley", "gen-clifford", cayley_body(table))
    prod = assemble_table(structure_spec(rng, "product", 24, bank["klein"]))
    docs["gen-product"] = document("cayley", "gen-product", cayley_body(prod))
    E, _ = _exact_semilattice(rng, 8)
    docs["gen-semilattice"] = document("cayley", "gen-semilattice", cayley_body(E))
    leq = random_poset(rng, 12)
    docs["gen-poset"] = document("poset", "gen-poset", {"n": 12, "leq": leq})
    # A semilattice under the discrete topology: continuous, so topo-check
    # runs every openness condition and the order-graph check.
    topo_sg, _ = _exact_semilattice(rng, 7)
    discrete = [[x for x in range(7) if mask >> x & 1] for mask in range(1 << 7)]
    docs["gen-topology"] = document("topology-model", "gen-topology", {
        "semigroup": cayley_body(topo_sg), "opens": discrete})
    small = structure_spec(rng, "tower", 10, bank["z6"])
    k = len(small["e"])
    rho = [[0 if i == j else "1/2" for j in range(k)] for i in range(k)]
    docs["gen-spec-metric"] = document("metric-data", "gen-spec-metric", {
        "type": "spec", "spec": spec_body(small), "rho": rho})
    docs["gen-flat-metric"] = document("metric-data", "gen-flat-metric", {
        "type": "flat", "truncation": 60, "bonding": "collapse",
        "fiber": cayley_body(cyclic(3))})
    # mu_i(u, v) = u_i + v_i + c_i u_i v_i over the variables (u1, u2, v1, v2)
    coeffs = [[[1, [1, 0, 0, 0]], [1, [0, 0, 1, 0]],
               [rng.choice([-1, 1]) * 0.5, [1, 0, 1, 0]]],
              [[1, [0, 1, 0, 0]], [1, [0, 0, 0, 1]],
               [rng.choice([-1, 1]) * 0.25, [0, 1, 0, 1]]]]
    docs["gen-chart"] = document("chart-model", "gen-chart", {
        "dim": 2, "polynomials": coeffs, "radius": 1.0})
    return docs
