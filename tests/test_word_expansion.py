"""Word expansion against the paths it replaced: each generator power against
binary powering, each expanded word and each word of the word check's walk
against a chain of products in the tuple-of-pairs layout, and the degree
bound checked before any power is built."""

import time

import pytest

import tuple_reference as ref
from plethysm import cli, hwv, verify
from plethysm.hwv import GeneratorWord, generators_k2, generators_k3
from plethysm.polynomials import Polynomial

GENERATORS = {2: generators_k2, 3: generators_k3}


@pytest.mark.parametrize("k", [2, 3])
def test_generator_powers_match_binary_powering(k):
    # every power that a word within the --expand limit can ask for
    limit = cli.LIMITS[f"--m for k = {k} with --expand"]
    for name, base in GENERATORS[k]().items():
        for exp in range(k * limit // base.degree() + 1):
            assert hwv._generator_power(k, name, exp) == base ** exp, (name, exp)


def _to_ref(poly: Polynomial) -> ref.Polynomial:
    return ref.Polynomial({ref.Monomial(mono.exponents()): c for mono, c in poly.terms()})


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("variant", ["sym", "alt"])
def test_words_match_a_chain_of_reference_products(k, variant):
    # each word's exponents are reached from the nearest ones already built
    # below them, one reference product with a single generator per step
    factors = [_to_ref(GENERATORS[k]()[name]) for _, name, _, _ in hwv._FACTORS[k]]
    chains = {(0,) * len(factors): ref.Polynomial.one()}

    def lower(exps, i):
        return exps[:i] + (exps[i] - 1,) + exps[i + 1:]

    # the word check's walk, each word its listed parent times one generator
    walked = dict(verify._expansions(
        w for m, v in verify._components(0, 10) for w in hwv.decompose(3, m, v).words()
    )) if k == 3 else {}

    for m in range(0 if variant == "sym" else 1, 11):
        for word in hwv.decompose(k, m, variant).words():
            steps, exps = [], word.exponents()
            while exps not in chains:
                last = max(i for i, e in enumerate(exps) if e)
                steps.append((exps, last))
                exps = lower(exps, last)
            for exps, last in reversed(steps):
                chains[exps] = chains[lower(exps, last)] * factors[last]
            poly = word.expand()
            assert poly.to_json_obj() == chains[word.exponents()].to_json_obj(), word
            assert k == 2 or walked[word.exponents()] == poly, word
            # the product rebuilds its terms only when one cancelled: none is left at zero
            assert all(coeff for _, coeff in poly.terms()), word


def test_word_expansion_checks_the_degree_before_any_power(monkeypatch):
    generators_k3()  # built before products are forbidden

    def no_product(self, other):
        raise AssertionError("a product ran")

    built = {key: len(powers) for key, powers in hwv._POWERS.items()}
    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    for expand in (GeneratorWord(0, 0, 0, 43, 0, 0, "sym").expand,
                   GeneratorWord(40, 0, 0, 23, 0, 0, "sym").expand,
                   lambda: hwv._generator_power(3, "gamma1", 86)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="total degree 258 exceeds the bound 255"):
            expand()
        assert time.perf_counter() - start < 1
    # no power was built, and none was cached
    assert {key: len(powers) for key, powers in hwv._POWERS.items()} == built
