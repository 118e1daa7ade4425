"""Paths in a finite quiver, whose products vanish on endpoint mismatch."""

from __future__ import annotations

import functools

from .algebra_core import TheoryMismatchError, _rank_table, _set, _Value, _weight_table
from .monomial_theories import (
    LeadIndex,
    Theory,
    _letter_codes,
    _word_code,
    _word_occurrences,
    _word_superpositions,
)


@functools.lru_cache(maxsize=256)
def _path_key(vertices: tuple, generators: tuple, weights: tuple):
    """The descending key on paths between these vertices under the order
    with these generators and weights, deglex when there are none: the
    fields of ``sort_key``, negated and flattened, which is sound as the
    arrow ranks follow their count. One per order, so that the indexes of
    equal orders hold one key."""
    rank = {x: -r for x, r in _rank_table(generators).items()}.__getitem__
    # The first position of a vertex, as ``tuple.index`` gives it.
    vertex = {v: -i for i, v in reversed(tuple(enumerate(vertices)))}.__getitem__

    def deglex(m):
        src, tgt, names = m
        return (-len(names), *map(rank, names), vertex(src), vertex(tgt))

    if not weights:
        return deglex
    weight = {x: -w for x, w in _weight_table(weights)[1].items()}.__getitem__
    return lambda m: (sum(map(weight, m[2])),) + deglex(m)


class _PathIndex(LeadIndex):
    """Lead index for paths: ``str.find`` places the arrow word of a lead,
    and a vertex-path lead sits where the path first visits its vertex."""

    __slots__ = ("codes",)

    def __init__(self, theory, leads, order) -> None:
        self.codes = _letter_codes(theory.generator_names())
        key = _path_key(theory.vertices, order.generators, order.weights)
        super().__init__(theory, leads, key)

    def entry(self, lead) -> tuple:
        return _word_code(self.codes, lead[2]), lead

    def site(self, m, start=0):
        src, tgt, names = m
        code = _word_code(self.codes, names)
        for i, (word, lead) in enumerate(self.entries[start:] if start else self.entries, start):
            if word:
                k = code.find(word)
            else:  # a vertex path sits at the path's first visit to its vertex
                visits = [src] + [self.theory.endpoints[name][1] for name in names]
                k = visits.index(lead[0]) if lead[0] in visits else -1
            if k >= 0:
                right = names[k + len(word) :]
                return i, ((src, lead[0], names[:k]), (lead[1], tgt, right))
        return None


class PathAlgebraTheory(Theory):
    """Paths in a finite quiver; products vanish on endpoint mismatch."""

    _fields = ("vertices", "arrows")
    keyword = "path"
    header_statements = ("vertices", "arrow")
    index_class = _PathIndex

    def __init__(self, vertices: tuple, arrows: tuple) -> None:
        _Value.__init__(self, vertices, arrows)
        # (source, target) by arrow name, the first arrow of a name winning;
        # no field, so equality, hashing and repr ignore it.
        endpoints: dict = {}
        for name, src, tgt in arrows:
            if src not in vertices or tgt not in vertices:
                raise TheoryMismatchError("arrow %s references an unknown vertex" % name)
            endpoints.setdefault(name, (src, tgt))
        _set(self, "endpoints", endpoints)

    def header_lines(self) -> list:
        return ["theory path", "vertices %s" % " ".join(self.vertices)] + [
            "arrow %s %s %s" % arrow for arrow in self.arrows
        ]

    def describe(self) -> str:
        return "path(%s;%s)" % (
            ",".join(self.vertices),
            ",".join(name for name, _, _ in self.arrows),
        )

    def generator_names(self) -> tuple:
        return tuple(name for name, _, _ in self.arrows)

    def monomial_named(self, name: str):
        """Arrows are written by name, the idempotent of vertex v as ``ev``."""
        if name in self.generator_names():
            return self.path(name)
        if name.startswith("e") and name[1:] in self.vertices:
            return self.vertex_path(name[1:])
        return None

    def arrow_endpoints(self, name: str) -> tuple:
        try:
            return self.endpoints[name]
        except KeyError:
            raise TheoryMismatchError("unknown arrow %r" % name) from None

    def vertex_path(self, v: str) -> tuple:
        if v not in self.vertices:
            raise TheoryMismatchError("unknown vertex %r" % v)
        return (v, v, ())

    def path(self, *arrow_names: str) -> tuple:
        if not arrow_names:
            raise TheoryMismatchError("a path needs arrows; use vertex_path for idempotents")
        m = self._make(tuple(arrow_names))
        if m is None:
            raise TheoryMismatchError("arrows %r do not compose" % (arrow_names,))
        return m

    def multiply(self, a, b):
        if a[1] != b[0]:
            return None
        return (a[0], b[1], a[2] + b[2])

    def _make(self, arrow_names: tuple):
        src, _ = self.arrow_endpoints(arrow_names[0])
        cur = src
        for name in arrow_names:
            s, t = self.arrow_endpoints(name)
            if s != cur:
                return None
            cur = t
        return (src, cur, arrow_names)

    def validate_monomial(self, m) -> bool:
        if not (isinstance(m, tuple) and len(m) == 3):
            return False
        src, tgt, names = m
        if src not in self.vertices:
            return False
        # Walk the arrows from src; arrow targets are vertices.
        endpoints = self.endpoints
        for name in names:
            ends = endpoints.get(name)
            if ends is None or ends[0] != src:
                return False
            src = ends[1]
        return src == tgt

    def visits(self, m) -> list:
        """List the vertices a path passes through, endpoints included."""
        src, _, names = m
        out = [src]
        for name in names:
            out.append(self.arrow_endpoints(name)[1])
        return out

    def degree(self, m) -> int:
        return len(m[2])

    def weight_sum(self, m, weights: dict) -> int:
        return sum(map(weights.__getitem__, m[2]))

    def rank_encoding(self, m, order) -> tuple:
        return (
            tuple(map(order.ranks.__getitem__, m[2])),
            self.vertices.index(m[0]),
            self.vertices.index(m[1]),
        )

    def serialize(self, m) -> str:
        src, _, names = m
        if not names:
            return "e%s" % src
        return "*".join(names)

    def apply_context(self, ctx, m):
        left, right = ctx
        if left[1] != m[0] or m[1] != right[0]:
            return None
        return (left[0], right[1], left[2] + m[2] + right[2])

    def divisions(self, mu, nu) -> list:
        src, tgt, names = mu
        nsrc, ntgt, nnames = nu
        at = _word_occurrences(names, nnames)
        if not nnames:
            # Arrow names fix the vertices around a factor; a vertex path
            # divides only where mu passes through its vertex.
            vis = self.visits(mu)
            at = [i for i in at if vis[i] == nsrc]
        n = len(nnames)
        return [((src, nsrc, names[:i]), (ntgt, tgt, names[i + n :])) for i in at]

    def overlaps(self, mu1, mu2) -> list:
        data = []
        for word, (l1, r1), (l2, r2), kind, inner in _word_superpositions(
            mu1[2], mu2[2], mu1 == mu2
        ):
            src = mu2[0] if l1 else mu1[0]
            tgt = mu2[1] if r1 else mu1[1]
            if not (mu1[2] and mu2[2]):
                # A vertex path sits only where the superposition visits it.
                vis = self.visits((src, tgt, word))
                if vis[len(l1)] != mu1[0] or vis[len(l2)] != mu2[0]:
                    continue
            ctx1 = ((src, mu1[0], l1), (mu1[1], tgt, r1))
            ctx2 = ((src, mu2[0], l2), (mu2[1], tgt, r2))
            data.append(((src, tgt, word), ctx1, ctx2, kind, inner))
        return data

    def uniform_class(self, m) -> tuple:
        return (m[0], m[1])

    def monomials_of_degree(self, d):
        if d < 0:
            return
        if d == 0:
            for v in self.vertices:
                yield (v, v, ())
            return
        def extend(path):
            if len(path[2]) == d:
                yield path
                return
            for name, s, t in self.arrows:
                if s == path[1]:
                    yield from extend((path[0], t, path[2] + (name,)))
        for v in self.vertices:
            yield from extend((v, v, ()))
