"""The nerves of products and joins, built on first read.

A product or a join (``coverdata.product_cover``, ``coverdata.join_cover``)
answers every descriptor from its factors' models, so its nerve
(``intersections``, ``faces``, ``component_involution``) is built only
when something reads it: ``to_json``, the ordered cochains, a flat
cocycle, ``verify``.  That read (``coverdata._LazyNerveCover``) is the
only one to load this module.
"""

from __future__ import annotations

from functools import cache

from .coverdata import C2Cover, _pair


@cache
def _filling(m: int, n: int) -> list:
    """The subsets of the cells of an ``m`` by ``n`` grid (cell ``r * n + c``)
    that meet every row and every column, in the order of their bit masks."""
    out = []
    for mask in range(1, 1 << m * n):
        cells = [k for k in range(m * n) if mask >> k & 1]
        if len({k // n for k in cells}) == m and len({k % n for k in cells}) == n:
            out.append(cells)
    return out


def _nerve_of_product(a: C2Cover, b: C2Cover):
    """``(intersections, faces, component_involution)`` of the product of
    ``a`` and ``b`` on the pair indices :func:`_pair`.

    A set of product indices intersects exactly when both projections do,
    and its components are the pairs of projection components (a product of
    connected sets being connected).
    """
    pair_name = {(i, j): _pair(i, j) for i in a.indices for j in b.indices}
    split = {ij: pair for pair, ij in pair_name.items()}
    involution = {ij: pair_name[(a.t(i), b.t(j))] for (i, j), ij in pair_name.items()}
    ids = {}

    def comp_id(ca, cb, subset):
        key = (ca, cb, subset)
        if key not in ids:
            ids[key] = f"{ca}*{cb}|" + ",".join(sorted(subset))
        return ids[key]

    intersections = {}
    comp_data = {}  # id -> (ca, cb, subset)
    for sa, comps_a in a.intersections.items():
        for sb, comps_b in b.intersections.items():
            members = [pair_name[(i, j)] for i in sorted(sa) for j in sorted(sb)]
            for cells in _filling(len(sa), len(sb)):
                subset = frozenset([members[k] for k in cells])
                cids = []
                for ca in comps_a:
                    for cb in comps_b:
                        cid = comp_id(ca, cb, subset)
                        cids.append(cid)
                        comp_data[cid] = (ca, cb, subset)
                intersections[subset] = tuple(cids)

    faces = {}
    for cid, (ca, cb, subset) in comp_data.items():
        if len(subset) < 2:
            continue
        # dropping x keeps a factor's projection when another member shares
        # x's index there; otherwise that factor takes its own face
        firsts = [split[y][0] for y in subset]
        seconds = [split[y][1] for y in subset]
        for x in subset:
            i, j = split[x]
            fa = ca if firsts.count(i) > 1 else a.face(ca, i)
            fb = cb if seconds.count(j) > 1 else b.face(cb, j)
            faces[(cid, x)] = comp_id(fa, fb, subset - {x})

    comp_inv = {}
    for cid, (ca, cb, subset) in comp_data.items():
        t_subset = frozenset(involution[x] for x in subset)
        comp_inv[cid] = comp_id(a.sigma(ca), b.sigma(cb), t_subset)
    return intersections, faces, comp_inv


def _nerve_of_join(a: C2Cover, b: C2Cover):
    """``(intersections, faces, component_involution)`` of the join of
    ``a`` and ``b``: the subsets ``I ⊔ J`` of a subset of each or ``∅``
    (``J`` running fastest), with components ``ca|cb`` (``ca`` or ``cb`` if
    the other part is empty), faces and ``σ`` taken factorwise."""
    side_a, side_b = ([(frozenset(), (None,)), *f.intersections.items()] for f in (a, b))
    sigma_a, sigma_b = ({None: None, **f.component_involution}.__getitem__ for f in (a, b))

    def joined(ca, cb):
        return cb if ca is None else ca if cb is None else f"{ca}|{cb}"

    intersections, faces, comp_inv = {}, {}, {}
    for sa, comps_a in side_a:
        for sb, comps_b in side_b:
            if not (sa or sb):
                continue
            pairs = [(ca, cb) for ca in comps_a for cb in comps_b]
            ids = intersections[sa | sb] = tuple(joined(*pair) for pair in pairs)
            for c, (ca, cb) in zip(ids, pairs):
                comp_inv[c] = joined(sigma_a(ca), sigma_b(cb))
                if len(sa) + len(sb) > 1:
                    faces.update(((c, i), joined(a.faces[ca, i] if len(sa) > 1 else None, cb)) for i in sa)
                    faces.update(((c, j), joined(ca, b.faces[cb, j] if len(sb) > 1 else None)) for j in sb)
    return intersections, faces, comp_inv
