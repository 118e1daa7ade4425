"""The decode cache: monomials and overlap items decoded once per codec,
which no result may tell from decoding afresh."""

import functools
import random

import pytest

from diamondlemma import (
    CommutativeTheory,
    DiamondError,
    MonomialOrder,
    OrderKind,
    PrimeField,
    RationalField,
    RewritingSystem,
    check_confluence,
    complete,
    critical_ambiguities,
    normal_form,
    normal_form_with_trail,
    resolve,
)
from diamondlemma import ambiguity, completion, monomial_theories, rewriting_engine

from oracles import COPRIME_FRACTIONS, THEORIES, make_random_system, random_element, shipped_orders

CACHES = ("_term", "_keyed")
MODULES = (monomial_theories, ambiguity, rewriting_engine, completion)


def clear() -> None:
    for name in CACHES:
        getattr(monomial_theories, name).cache_clear()


def _outcome(call, *args, **kwargs):
    """What a call returns, or the class and message of the DiamondError it
    raises."""
    try:
        return call(*args, **kwargs)
    except DiamondError as exc:
        return type(exc), str(exc)


def results(s, element, before=lambda: None) -> list:
    """Every result that reads the cache, from a fresh twin of the system,
    which has listed no ambiguities yet; ``before`` runs before each call."""
    twin = RewritingSystem(s.theory, s.order, s.rules, s.field)
    before()
    out = [critical_ambiguities(twin)]
    calls = [
        functools.partial(_outcome, check_confluence, twin, 20_000),
        functools.partial(_outcome, complete, twin, max_degree=6, max_rules=4, max_steps=20_000),
        functools.partial(_outcome, normal_form, twin, element, 200),
        functools.partial(_outcome, normal_form_with_trail, twin, element, 200),
    ]
    calls += [functools.partial(_outcome, resolve, twin, amb, 200) for amb in out[0][:3]]
    for call in calls:
        before()
        out.append(call())
    return out


def systems(name, field, count):
    """(system, element) pairs under every shipped order of the theory."""
    th = THEORIES[name]
    rng = random.Random("decode-cache-%s-%s" % (name, field.describe()))
    sample = COPRIME_FRACTIONS if field == RationalField() else None
    for order in shipped_orders(th):
        for _ in range(count):
            s = make_random_system(th, order, rng, field=field, sample=sample)
            e = random_element(th, order, rng, 4, max_terms=4, field=field, sample=sample)
            yield s, e


class TestDecodeCache:
    @pytest.mark.parametrize("name", sorted(THEORIES))
    @pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["QQ", "GF7"])
    def test_cold_warm_and_small_agree(self, name, field, monkeypatch):
        """Results with the caches cleared before each call, warm, and under
        caches of three entries, which never hold more, are equal."""
        cases = list(systems(name, field, 4))
        cold = [results(s, e, clear) for s, e in cases]
        assert any(result[0] for result in cold)
        # Warm twice, so that the second run reads every key from the cache.
        for _ in range(2):
            assert [results(s, e) for s, e in cases] == cold
        assert all(getattr(monomial_theories, n).cache_info().hits for n in CACHES)
        small = {}
        for cache_name in CACHES:
            original = getattr(monomial_theories, cache_name)
            small[cache_name] = functools.lru_cache(maxsize=3)(original.__wrapped__)
            for module in MODULES:
                if getattr(module, cache_name, None) is original:
                    monkeypatch.setattr(module, cache_name, small[cache_name])
        assert [results(s, e) for s, e in cases] == cold
        for cache in small.values():
            assert 0 < cache.cache_info().currsize <= 3

    def test_keyed_by_the_order_codec(self):
        """Power products over x, y under x<y and y<x share their sort key
        function, and each code of one order decodes as another monomial
        under the other: interleaved warm runs read as cold ones."""
        th = CommutativeTheory(("x", "y"))
        orders = [MonomialOrder(OrderKind.DEGLEX, th, gens) for gens in (("x", "y"), ("y", "x"))]
        assert orders[0].codec.sort_key is orders[1].codec.sort_key
        rng = random.Random("decode-cache-orders")
        cases = []
        for _ in range(6):
            for order in orders:
                s = make_random_system(th, order, rng, lead_degree=2, sample=COPRIME_FRACTIONS)
                e = random_element(th, order, rng, 3, max_terms=6, sample=COPRIME_FRACTIONS)
                cases.append((s, e))
        cold = [results(s, e, clear) for s, e in cases]
        clear()
        assert [results(s, e) for s, e in cases] == cold
