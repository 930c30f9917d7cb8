"""The one precision-monotone cache behind the cached builders, and the
uncached ``*_gf`` builders read over it."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import polybern
from polybern import families, identities, series, umbral
from polybern.errors import PolybernError, PrecisionExceeded
from polybern.ring import LambdaPoly
from polybern.series import Series, Triangle, precision_cache

MODULES = (series, families, umbral, identities)

# The gf builders of families: each reads its family's cached table and
# checks its arguments on every call, so none is cached itself.
GFS = ("bernoulli_gf", "daehee_gf", "carlitz_gf", "poly_bernoulli_gf", "dpb_gf", "dpb_higher_gf")

# Every builder that takes a precision last, with the arguments before it.
BUILDERS = [
    (families, "elam", (Fraction(-1, 2),)),
    (families, "bernoulli_gf", ()),
    (families, "daehee_gf", ()),
    (families, "carlitz_gf", ()),
    (families, "poly_bernoulli_gf", (3,)),
    (families, "dpb_gf", (-2,)),
    (families, "dpb_higher_gf", (2, 3)),
    (families, "_table", ("dpb-higher", 2, 3)),
    (series, "_stirling1_rows", ()),
    (umbral, "bernoulli_operator", (2,)),
    (identities, "_dpb_series", (2,)),
    (identities, "_a_series", (-1,)),
    (identities, "_expm1_over_t", (Fraction(3, 5),)),
]


def _cached(module):
    # a function imported from another module is counted there only
    return {name: fn for name, fn in vars(module).items()
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}


def _clear_caches():
    for module in MODULES:
        for fn in _cached(module).values():
            fn.cache_clear()


def test_builder_list_names_every_cache():
    found = {(module.__name__, name) for module in MODULES for name in _cached(module)}
    assert found == {(module.__name__, name) for module, name, _ in BUILDERS
                     if name not in GFS}


@pytest.mark.parametrize("module, name, args", BUILDERS,
                         ids=[name for _, name, _ in BUILDERS])
def test_truncating_a_larger_build_equals_a_direct_build(module, name, args):
    build = getattr(module, name)
    _clear_caches()
    big = build(*args, 12)
    for p in range(1, 13):
        _clear_caches()
        assert big.truncate(p) == build(*args, p), p


@pytest.mark.parametrize("module, name, args", BUILDERS,
                         ids=[name for _, name, _ in BUILDERS])
def test_a_build_grown_from_a_smaller_one_equals_a_cold_build(module, name, args):
    build = getattr(module, name)
    cold = {}
    for p in range(2, 13):
        _clear_caches()
        cold[p] = build(*args, p)
    for p2 in range(2, 13):
        for p1 in range(1, p2):
            _clear_caches()
            build(*args, p1)
            assert build(*args, p2) == cold[p2], (p1, p2)


# Every cached builder that grows, with the arguments before its precision,
# and how to read its entries (rows) from its result.
GROWING = [(series._stirling1_rows, (), tuple)] + [
    (families._table, (family, k, r), lambda tbl: tbl.values)
    for family, k, r in [("bernoulli", None, 1), ("daehee", None, 1), ("carlitz", None, 1),
                         ("poly-bernoulli", 3, 1), ("poly-bernoulli", 1, 1),
                         ("poly-bernoulli", -2, 1), ("dpb", 2, 1), ("dpb-higher", -1, 1),
                         ("dpb-higher", 2, 3)]]


@pytest.mark.parametrize("build, args, entries", GROWING,
                         ids=[f"{b.__name__}{a}" for b, a, _ in GROWING])
def test_growth_keeps_the_cached_entries_themselves(build, args, entries):
    steps = [(1, 2), (1, 12), (5, 6), (5, 12), (11, 12)]
    cold = {}
    for p in {p2 for _, p2 in steps}:
        _clear_caches()
        cold[p] = entries(build(*args, p))
    for p1, p2 in steps:
        _clear_caches()
        small = entries(build(*args, p1))
        grown = entries(build(*args, p2))
        assert grown == cold[p2], (p1, p2)
        assert all(a is b for a, b in zip(small, grown[:p1], strict=True)), (p1, p2)
        # the grown result holds p2 entries, no more: one more is a miss
        misses = build.cache_info().misses
        build(*args, p2 + 1)
        assert build.cache_info().misses > misses, (p1, p2)


@pytest.mark.parametrize("family, k", [("dpb", 100), ("dpb", -100), ("carlitz", None)])
def test_tables_grown_in_steps_equal_cold_builds(family, k):
    _clear_caches()
    cold = families.table(family, 64, k=k)
    _clear_caches()
    for n in (16, 40, 64):
        grown = families.table(family, n, k=k)
    assert grown == cold


def test_one_entry_per_key_across_catalog_orders(monkeypatch):
    keys = {}

    def spy(module, name, fn):
        def recorded(*args):
            keys.setdefault((fn.__module__, fn.__name__), set()).add(args[:-1])
            return fn(*args)
        monkeypatch.setattr(module, name, recorded)

    _clear_caches()
    caches = {(module.__name__, name): fn for module in MODULES
              for name, fn in _cached(module).items()}
    for module in MODULES:
        for name, fn in _cached(module).items():
            spy(module, name, fn)
    for name in GFS:
        spy(families, name, getattr(families, name))
    # identities calls the operator through its own import of the name
    spy(identities, "bernoulli_operator", caches["polybern.umbral", "bernoulli_operator"])
    for order in range(8, 25, 4):
        for ident in identities.CATALOG_IDS:
            assert identities.verify(ident, order=order, nmax=6, max_degree=6).passed
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert sizes == {name: len(keys.get(name, ())) for name in caches}
    # a table builds no gf: only thm3 and thm4 ask for one, and lambda0 the plain one
    assert keys["polybern.families", "dpb_higher_gf"] == {(2, 1)}
    assert keys["polybern.families", "poly_bernoulli_gf"] == {(2,)}
    assert ("polybern.families", "dpb_gf") not in keys
    # a table is keyed by the k and r its family reads, never by the order; a
    # dpb table is the dpb-higher one at r = 1, the transform of poly-bernoulli
    # (bernoulli at k = 1), and carlitz reads bernoulli
    assert keys["polybern.families", "_table"] == {
        ("dpb", 2, 1), ("dpb", 1, 1), ("dpb", 0, 1), ("dpb-higher", 2, 1),
        ("dpb-higher", 1, 1), ("dpb-higher", 0, 1), ("poly-bernoulli", 2, 1),
        ("poly-bernoulli", 1, 1), ("poly-bernoulli", 0, 1), ("bernoulli", None, 1),
        ("daehee", None, 1), ("carlitz", None, 1)}


def test_smaller_requests_hit_and_larger_rebuild():
    _clear_caches()
    build = families.elam
    first = build(2, 8)
    assert build(2, 8) is first
    assert build(2, 5) == first.truncate(5)
    bigger = build(2, 10)
    assert bigger.truncate(8) == first
    info = build.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 1)
    assert build.cache_info() is not info  # a fresh record on each call
    build.cache_clear()
    info = build.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_a_table_is_cached_under_the_k_and_r_its_family_reads():
    _clear_caches()
    tbl = families.table("bernoulli", 8, k=3, r=2)
    assert (tbl.k, tbl.r) == (None, 1)
    assert families.table("bernoulli", 8) == tbl
    assert families.table("dpb", 5, k=2, r=3) == families.table("dpb", 8, k=2).truncate(5)
    assert families.table("dpb", 5, k=2).k == 2
    # each dpb build also builds its dpb-higher (r = 1) and poly-bernoulli tables
    info = families._table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 7, 4)


def test_bypass_calls_are_uncached_and_leave_the_cache_alone():
    _clear_caches()
    build = families.elam
    cached = build(1, 8)
    before = build.cache_info()
    # default precision, keyword precision, precision below 1 or not an int
    assert build(1).truncate(8) == cached
    assert build(1).precision == families.DEFAULT_PRECISION
    assert build(1, precision=4) == cached.truncate(4)
    with pytest.raises(PrecisionExceeded, match="precision must be >= 1, got 0"):
        build(1, 0)
    for precision in (2.5, 8.0, True):
        with pytest.raises(PolybernError, match="^precision must be an integer, got "):
            build(1, precision)
    assert build.cache_info() == before
    assert build(1, 8) is cached
    assert build(1, 16).truncate(8) == cached
    assert build(1, 3) == Series([1, 1, LambdaPoly([Fraction(1, 2), Fraction(-1, 2)])])


def test_decorator_keeps_the_name_and_caches_by_the_other_arguments():
    calls = []

    @precision_cache
    def build(c, precision):
        """Doc."""
        calls.append((c, precision))
        return Series([c] * precision)

    assert (build.__name__, build.__doc__) == ("build", "Doc.")
    build(1, 4), build(1, 2), build(2, 3), build(1, 6), build(1, 5)
    assert calls == [(1, 4), (2, 3), (1, 6)]
    assert build.cache_info().currsize == 2


def test_a_builder_with_a_prior_grows_from_its_cached_result():
    calls = []

    @precision_cache
    def rows(c, count, *, prior=()):
        calls.append((c, count, len(prior)))
        return Triangle(list(prior) + [(c, n) for n in range(len(prior), count)])

    first = rows(7, 3)
    grown = rows(7, 5)
    assert grown == ((7, 0), (7, 1), (7, 2), (7, 3), (7, 4))
    assert all(a is b for a, b in zip(first, grown))
    assert rows(7, 4) == grown[:4] and rows(8, 2) == ((8, 0), (8, 1))
    # a cold build is the empty prefix extended; an uncached call passes no prior
    assert rows(7, count=2) == grown[:2]
    assert calls == [(7, 3, 0), (7, 5, 3), (8, 2, 0), (7, 2, 0)]
    info = rows.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 2)


def test_an_argument_of_another_type_is_uncached():
    calls = []

    @precision_cache
    def build(c, precision):
        calls.append(c)
        return Triangle([(c,)] * precision)

    keys = (1, Fraction(1, 2), None, "1")
    for c in (*keys, True, 1.0, 0.5, *keys):
        build(c, 4)
    # a bool or a float equal to a cached key is left to the builder
    assert calls == [*keys, True, 1.0, 0.5]
    assert build.cache_info().currsize == len(keys)


def test_no_module_uses_another_cache_decorator():
    src = Path(polybern.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
                assert not names & {"lru_cache", "cache"}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in {
                    ("functools", "lru_cache"), ("functools", "cache")}, path.name
