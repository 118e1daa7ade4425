"""Paths in a finite quiver, whose products vanish on endpoint mismatch."""

from __future__ import annotations

from .algebra_core import TheoryMismatchError, _set
from .monomial_theories import Theory, _CodedIndex


class _PathIndex(_CodedIndex):
    """Lead index for paths, which reduce as their codes: the source vertex
    followed, for each arrow, by the arrow and the vertex it enters. As
    vertices and arrows alternate, a lead's code, a vertex path's included,
    occurs only where the path takes its arrows or visits its vertex, and
    an overlap spans an arrow and both its vertices. Each side of a context
    lacks the lead's end vertex, read from the code."""

    __slots__ = ("vertex_codes", "into", "out_of")
    shortest_overlap = 3

    def __init__(self, theory, order) -> None:
        super().__init__(theory, order, theory.vertices)
        n, codes, ends = len(self.letters), self.codes, theory.endpoints
        self.vertex_codes = vertex = {v: chr(n + i) for i, v in enumerate(theory.vertices)}
        # An arrow followed by the vertex it enters, and its source followed by it.
        self.into = {a: codes[a] + vertex[t] for a, (_, t) in ends.items()}
        self.out_of = {a: vertex[s] + codes[a] for a, (s, _) in ends.items()}

    def code_of(self, m) -> str:
        src, tgt, names = m
        vertex = self.vertex_codes
        code = vertex[src] + "".join(map(self.into.__getitem__, names))
        # A path when each arrow leaves the vertex before it, the last entering tgt.
        fits = code == "".join(map(self.out_of.__getitem__, names)) + vertex[tgt]
        return code if fits and isinstance(names, tuple) and isinstance(m, tuple) else None

    def decode(self, code: str) -> tuple:
        name = self.names.__getitem__
        return name(code[0]), name(code[-1]), tuple(map(name, code[1::2]))

    def degree(self, code: str) -> int:
        return len(code) // 2

    def decode_context(self, ctx: tuple, code: str) -> tuple:
        left, right = ctx
        return self.decode(left + code[len(left)]), self.decode(code[~len(right)] + right)

    def encode_context(self, ctx: tuple) -> tuple:
        try:
            left, right = ctx
            return self.encode(left)[:-1], self.encode(right)[1:]
        except (TheoryMismatchError, TypeError, ValueError):  # or not two paths
            raise TheoryMismatchError(
                "context %r does not belong to %s" % (ctx, self.theory.describe())
            ) from None


class PathAlgebraTheory(Theory):
    """Paths in a finite quiver; products vanish on endpoint mismatch."""

    _fields = ("vertices", "arrows")
    keyword = "path"
    header_statements = ("vertices", "arrow")
    index_class = _PathIndex

    def __init__(self, vertices: tuple, arrows: tuple) -> None:
        Theory.__init__(self, vertices, arrows)
        for name, src, tgt in arrows:
            if src not in vertices or tgt not in vertices:
                raise TheoryMismatchError("arrow %s references an unknown vertex" % name)
        # (source, target) by arrow name; no field, so equality, hashing and
        # repr ignore it.
        _set(self, "endpoints", {name: (src, tgt) for name, src, tgt in arrows})

    def header_lines(self) -> list:
        return ["theory path", "vertices %s" % " ".join(self.vertices)] + [
            "arrow %s %s %s" % arrow for arrow in self.arrows
        ]

    def describe(self) -> str:
        return "path(%s;%s)" % (",".join(self.vertices), ",".join(self.generator_names()))

    def generator_names(self) -> tuple:
        return tuple(name for name, _, _ in self.arrows)

    def expression_names(self) -> tuple:
        """The arrows, and ``ev`` for the idempotent of each vertex v."""
        return self.generator_names() + tuple("e" + v for v in self.vertices)

    def monomial_named(self, name: str):
        """Arrows are written by name, the idempotent of vertex v as ``ev``."""
        if name in self.generator_names():
            return self.path(name)
        if name.startswith("e") and name[1:] in self.vertices:
            return self.vertex_path(name[1:])
        return None

    def vertex_path(self, v: str) -> tuple:
        if v not in self.vertices:
            raise TheoryMismatchError("unknown vertex %r" % v)
        return (v, v, ())

    def path(self, *arrow_names: str) -> tuple:
        if not arrow_names:
            raise TheoryMismatchError("a path needs arrows; use vertex_path for idempotents")
        for name in arrow_names:
            if name not in self.endpoints:
                raise TheoryMismatchError("unknown arrow %r" % name)
        m = (self.endpoints[arrow_names[0]][0], self.endpoints[arrow_names[-1]][1], arrow_names)
        if self.deglex_codec.code_of(m) is None:
            raise TheoryMismatchError("arrows %r do not compose" % (arrow_names,))
        return m

    def multiply(self, a, b):
        if a[1] != b[0]:
            return None
        return (a[0], b[1], a[2] + b[2])

    def degree(self, m) -> int:
        return len(m[2])

    def serialize(self, m) -> str:
        return "*".join(m[2]) or "e%s" % m[0]

    def apply_context(self, ctx, m):
        """None when the endpoints of paths of the theory do not meet, so
        that the product vanishes."""
        codec = self.deglex_codec
        code, encoded = codec.encode(m), codec.encode_context(ctx)
        left, right = ctx
        if left[1] != m[0] or m[1] != right[0]:
            return None
        return codec.decode(codec.apply(code, encoded))

    def uniform_class(self, m) -> tuple:
        return (m[0], m[1])
