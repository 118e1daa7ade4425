"""Independent result checks for every workload.

Nothing here imports the library: results arrive as JSON payloads from the
worker processes and are checked against closed forms, matrix
representations, stored reference bases and a rewriting routine of this
file's own. All arithmetic is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial


def tuplify(value):
    """Turn nested JSON lists back into the library's tuple encodings."""
    if isinstance(value, list):
        return tuple(tuplify(v) for v in value)
    return value


def scalar(text: str, modulus=None):
    """A coefficient as written by the worker: residue, int or Fraction."""
    if modulus:
        return int(text) % modulus
    return Fraction(text) if "/" in text else int(text)


def terms_from_payload(payload, modulus=None) -> dict:
    """Map [[monomial, "coefficient"], ...] to {monomial: scalar}."""
    return {tuplify(m): scalar(c, modulus) for m, c in payload}


# --- Groebner reference bases -------------------------------------------------


def rules_as_polynomials(rules_payload, modulus=None) -> set:
    """Each rule lead -> lower as the monic polynomial lead - lower, hashable."""
    polys = set()
    for lead, lower in rules_payload:
        poly = {tuplify(lead): 1}
        for m, c in terms_from_payload(lower, modulus).items():
            poly[m] = (-c) % modulus if modulus else -c
        polys.add(frozenset(poly.items()))
    return polys


def reference_polynomials(reference, modulus=None) -> set:
    """A stored basis, as written by make_reference.py, in the same form."""
    polys = set()
    for poly in reference:
        items = {tuple(e): scalar(c, modulus) for e, c in poly}
        polys.add(frozenset(items.items()))
    return polys


# --- Weyl algebra: closed-form normal ordering ----------------------------------


def weyl_product(p: dict, q: dict) -> dict:
    """Product of normal-ordered {(a, b): c} meaning c*x^a*y^b, with [y, x] = 1.

    Uses y^n x^m = sum_k C(n,k) C(m,k) k! x^(m-k) y^(n-k).
    """
    out: dict = {}
    for (a, b), c in p.items():
        for (cc, d), k in q.items():
            for j in range(min(b, cc) + 1):
                key = (a + cc - j, b + d - j)
                out[key] = out.get(key, 0) + c * k * comb(b, j) * comb(cc, j) * factorial(j)
    return {m: c for m, c in out.items() if c}


def weyl_power(n: int) -> dict:
    """(x + y)^n in normal order."""
    base = {(1, 0): 1, (0, 1): 1}
    result = {(0, 0): 1}
    for _ in range(n):
        result = weyl_product(result, base)
    return result


def weyl_from_words(terms: dict) -> dict | None:
    """Read word monomials x^a*y^b as (a, b); None if some word is not normal."""
    out = {}
    for word, c in terms.items():
        a = 0
        while a < len(word) and word[a] == "x":
            a += 1
        if any(ch != "y" for ch in word[a:]):
            return None
        out[(a, len(word) - a)] = c
    return out


# --- U(sl2): evaluation in the irreducible representations -----------------------


def _sl2_apply(letter: str, vec: dict, n: int) -> dict:
    """Apply e, f or h to a vector {k: c} of V(n), basis v_0..v_n.

    h v_k = (n - 2k) v_k, f v_k = v_(k+1), e v_k = k (n - k + 1) v_(k-1).
    """
    out: dict = {}
    for k, c in vec.items():
        if letter == "h":
            tgt, w = k, n - 2 * k
        elif letter == "f":
            tgt, w = k + 1, 1
        else:
            tgt, w = k - 1, k * (n - k + 1)
        if 0 <= tgt <= n and w:
            out[tgt] = out.get(tgt, 0) + c * w
    return out


def _sl2_add(acc: dict, vec: dict, scale) -> None:
    for k, c in vec.items():
        acc[k] = acc.get(k, 0) + scale * c


def sl2_word_image(word, n: int, k: int) -> dict:
    vec = {k: 1}
    for letter in reversed(word):
        vec = _sl2_apply(letter, vec, n)
        if not vec:
            break
    return vec


def sl2_power_image(linear: dict, power: int, n: int, k: int) -> dict:
    """(sum c_l * l)^power applied to v_k in V(n)."""
    vec = {k: Fraction(1)}
    for _ in range(power):
        nxt: dict = {}
        for letter, c in linear.items():
            _sl2_add(nxt, _sl2_apply(letter, vec, n), c)
        vec = nxt
    return {i: c for i, c in vec.items() if c}


def sl2_element_image(terms: dict, n: int, k: int) -> dict:
    acc: dict = {}
    for word, c in terms.items():
        _sl2_add(acc, sl2_word_image(word, n, k), c)
    return {i: c for i, c in acc.items() if c}


def sl2_is_pbw(word) -> bool:
    """Normal words under the e<f<h deglex rules are e^a f^b h^c."""
    rank = {"e": 0, "f": 1, "h": 2}
    return all(rank[a] <= rank[b] for a, b in zip(word, word[1:]))


def check_sl2_power(terms: dict, linear: dict, power: int, dims: int) -> str | None:
    if not all(sl2_is_pbw(w) for w in terms):
        return "sl2 result has a monomial outside e^a*f^b*h^c"
    for n in range(dims):
        for k in range(n + 1):
            if sl2_element_image(terms, n, k) != sl2_power_image(linear, power, n, k):
                return "sl2 result differs from the input in V(%d) on v_%d" % (n, k)
    return None


# --- weighted series: y*x = (x + x^2)*y, truncated --------------------------------


def _poly_mul_x(p: dict, q: dict, top: int) -> dict:
    out: dict = {}
    for a, c in p.items():
        for b, k in q.items():
            if a + b <= top:
                out[a + b] = out.get(a + b, 0) + c * k
    return {d: c for d, c in out.items() if c}


def series_power(n: int, top: int) -> dict:
    """(x + y)^n in normal order x^a*y^b, keeping a + b <= top.

    y^b * x = s_b(x) * y^b with s_0 = x and s_(j+1) = s_j + s_j^2, because
    y*x = (x + x^2)*y makes conjugation by y the substitution x -> x + x^2.
    """
    subst = [{1: 1}]
    for _ in range(top):
        s = subst[-1]
        nxt = dict(s)
        for d, c in _poly_mul_x(s, s, top).items():
            nxt[d] = nxt.get(d, 0) + c
        subst.append({d: c for d, c in nxt.items() if c})
    result = {(0, 0): 1}
    for _ in range(n):
        out: dict = {}
        for (a, b), c in result.items():
            if a + b + 1 <= top:
                out[(a, b + 1)] = out.get((a, b + 1), 0) + c
            for d, k in subst[b].items():
                if a + d + b <= top:
                    out[(a + d, b)] = out.get((a + d, b), 0) + c * k
        result = {m: c for m, c in out.items() if c}
    return result


# --- independent rewriting for the corpus ----------------------------------------


def _word_sites(word, sub):
    n = len(sub)
    return [i for i in range(len(word) - n + 1) if word[i : i + n] == sub]


def _magma_sites(tree, target, path=()):
    found = [path] if tree == target else []
    if not isinstance(tree, str):
        found += _magma_sites(tree[0], target, path + (0,))
        found += _magma_sites(tree[1], target, path + (1,))
    return found


def _magma_replace(tree, path, filler):
    if not path:
        return filler
    if path[0] == 0:
        return (_magma_replace(tree[0], path[1:], filler), tree[1])
    return (tree[0], _magma_replace(tree[1], path[1:], filler))


class Rewriter:
    """Rule sites and rewrites for one theory, written apart from the library.

    ``arrows`` maps each arrow of a path theory to its (source, target).
    """

    def __init__(self, theory: str, arrows=None):
        self.theory = theory
        self.arrows = arrows or {}

    def is_path(self, src, tgt, names) -> bool:
        cur = src
        for name in names:
            if self.arrows[name][0] != cur:
                return False
            cur = self.arrows[name][1]
        return cur == tgt

    def _path_sites(self, m, lead) -> list:
        visits = [m[0]] + [self.arrows[name][1] for name in m[2]]
        n = len(lead[2])
        return [
            i
            for i in _word_sites(m[2], lead[2])
            if visits[i] == lead[0] and visits[i + n] == lead[1]
        ]

    def sites(self, m, lead) -> list:
        th = self.theory
        if th == "assoc":
            return _word_sites(m, lead)
        if th == "commutative":
            return [0] if all(a <= b for a, b in zip(lead, m)) else []
        if th == "mixed":
            if not all(a <= b for a, b in zip(lead[0], m[0])):
                return []
            return _word_sites(m[1], lead[1])
        if th == "magma":
            return _magma_sites(m, lead)
        return self._path_sites(m, lead)

    def replace(self, m, site, lead, filler):
        th = self.theory
        if th == "assoc":
            return m[:site] + filler + m[site + len(lead) :]
        if th == "commutative":
            return tuple(a - b + c for a, b, c in zip(m, lead, filler))
        if th == "mixed":
            exps = tuple(a - b + c for a, b, c in zip(m[0], lead[0], filler[0]))
            word = m[1]
            return (exps, word[:site] + filler[1] + word[site + len(lead[1]) :])
        if th == "magma":
            return _magma_replace(m, site, filler)
        names = m[2]
        return (m[0], m[1], names[:site] + filler[2] + names[site + len(lead[2]) :])


class BudgetExceeded(Exception):
    pass


class Reducer:
    """Reduce to an irreducible element by a seeded random choice of site.

    Each monomial gets one random site the first time it is reduced and its
    result is memoized, so the map is linear. Every step subtracts a multiple
    of a rule, so the result is congruent to the input modulo the ideal;
    two different irreducible results for one monomial therefore prove the
    system is not confluent, whatever the strategy was.
    """

    def __init__(self, rewriter: Rewriter, rules, seed: int, budget: int = 20000):
        self.rw = rewriter
        self.rules = rules
        self.rng = random.Random(seed)
        self.memo: dict = {}
        self.budget = budget

    def all_sites(self, m) -> list:
        return [(lead, lower, s) for lead, lower in self.rules for s in self.rw.sites(m, lead)]

    def step(self, m, site) -> dict:
        lead, lower, s = site
        return {self.rw.replace(m, s, lead, w): c for w, c in lower}

    def monomial(self, m) -> dict:
        hit = self.memo.get(m)
        if hit is not None:
            return hit
        sites = self.all_sites(m)
        if not sites:
            result = {m: 1}
        else:
            self.budget -= 1
            if self.budget < 0:
                raise BudgetExceeded()
            result = self.element(self.step(m, self.rng.choice(sites)))
        self.memo[m] = result
        return result

    def element(self, terms: dict) -> dict:
        out: dict = {}
        for m, c in terms.items():
            for mm, cc in self.monomial(m).items():
                out[mm] = out.get(mm, 0) + c * cc
        return {m: c for m, c in out.items() if c}

    def irreducible(self, terms) -> bool:
        return not any(self.all_sites(m) for m in terms)


def _word_glue(u, v, gaps) -> list:
    """Words in which u and v overlap, abut or sit either side of a short gap."""
    out = []
    for t in range(1, min(len(u), len(v))):
        if u[len(u) - t :] == v[:t]:
            out.append(u + v[t:])
    for g in gaps:
        out.append(u + g + v)
    return out


def candidate_monomials(rw: Rewriter, leads, letters) -> list:
    """Monomials where two rule applications can meet: the places to look for witnesses."""
    theory = rw.theory
    cands = list(leads)
    gaps = [()] + [(x,) for x in letters] if theory == "mixed" else [()]
    for u in leads:
        for v in leads:
            if theory == "assoc":
                cands += _word_glue(u, v, gaps)
            elif theory == "commutative":
                cands.append(tuple(max(a, b) for a, b in zip(u, v)))
            elif theory == "mixed":
                lcm = tuple(max(a, b) for a, b in zip(u[0], v[0]))
                cands += [(lcm, w) for w in _word_glue(u[1], v[1], gaps)]
            elif theory == "path":
                for names in _word_glue(u[2], v[2], gaps):
                    if rw.is_path(u[0], v[1], names):
                        cands.append((u[0], v[1], names))
    seen, out = set(), []
    for m in cands:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def find_witness(rw: Rewriter, rules, letters, seed: int):
    """A monomial with two different irreducible reducts, or None.

    Every one-step reduct of every candidate is reduced under two
    independently seeded strategies.
    """
    leads = [lead for lead, _ in rules]
    strategies = [Reducer(rw, rules, seed), Reducer(rw, rules, seed + 1)]
    for m in candidate_monomials(rw, leads, letters):
        seen = set()
        for site in strategies[0].all_sites(m):
            for red in strategies:
                seen.add(frozenset(red.element(red.step(m, site)).items()))
            if len(seen) > 1:
                return m
    return None


# --- sympy: reference bases and timings --------------------------------------------


def read_polynomial_system(path: str):
    """(generators, polynomials, modulus) from a commutative system file.

    Each 'rule A -> B' becomes the polynomial A - (B), parsed by sympy so the
    library's own parser plays no part in the reference. Polynomials are
    {exponents in declaration order: coefficient} with denominators cleared,
    which keeps the ideal and lets GF(p) take the coefficients.
    """
    import sympy

    gens, texts, modulus = [], [], None
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("vars"):
                gens = line.split()[1:]
            elif line.startswith("field"):
                modulus = int(line.split()[1])
            elif line.startswith("rule"):
                lead, lower = line[len("rule") :].split("->")
                texts.append("(%s) - (%s)" % (lead, lower))
    symbols = sympy.symbols(" ".join(gens))
    names = dict(zip(gens, symbols))
    polys = []
    for text in texts:
        expr = sympy.sympify(text.replace("^", "**"), locals=names)
        poly = sympy.Poly(expr, *symbols, domain="QQ").clear_denoms()[1]
        polys.append({m: int(c) for m, c in poly.as_dict().items()})
    return gens, polys, modulus


def sympy_groebner(gens, polys, modulus):
    """Reduced basis by sympy's groebner, grlex, greatest generator first.

    ``polys`` are {exponents in the library's generator order: coefficient}.
    The library's deglex lists generators ascending (the last is greatest),
    so sympy gets them reversed.
    """
    import sympy

    symbols = sympy.symbols(" ".join(reversed(gens)))
    domain = sympy.GF(modulus) if modulus else sympy.QQ
    flipped = [
        sympy.Poly.from_dict({tuple(reversed(m)): c for m, c in p.items()}, *symbols, domain=domain)
        for p in polys
    ]
    return sympy.groebner(flipped, *symbols, order="grlex")


def basis_terms(basis, modulus):
    """sympy basis -> [[[exponents in the library's variable order], "coef"], ...] per element."""
    out = []
    for poly in basis.polys:
        # Poly.monic() would divide by the lex-leading coefficient.
        lead = poly.LC(order="grlex")
        terms = []
        for monom, coeff in poly.terms():
            if modulus:
                value = int(coeff) * pow(int(lead), -1, modulus) % modulus
            else:
                value = Fraction(str(coeff)) / Fraction(str(lead))
            terms.append([list(reversed(monom)), str(value)])
        out.append(terms)
    return out
