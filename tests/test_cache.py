"""The one precision-monotone cache behind every series builder."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import polybern
from polybern import families, identities, umbral
from polybern.ring import LambdaPoly
from polybern.series import Series, precision_cache

MODULES = (families, umbral, identities)

# Every cached builder, with the arguments before its precision.
BUILDERS = [
    (families, "elam", (Fraction(-1, 2),)),
    (families, "bernoulli_gf", ()),
    (families, "daehee_gf", ()),
    (families, "carlitz_gf", ()),
    (families, "poly_bernoulli_gf", (3,)),
    (families, "dpb_gf", (-2,)),
    (families, "dpb_higher_gf", (2, 3)),
    (families, "_table", ("dpb-higher", 2, 3)),
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
    assert found == {(module.__name__, name) for module, name, _ in BUILDERS}


@pytest.mark.parametrize("module, name, args", BUILDERS,
                         ids=[name for _, name, _ in BUILDERS])
def test_truncating_a_larger_build_equals_a_direct_build(module, name, args):
    build = getattr(module, name)
    _clear_caches()
    big = build(*args, 12)
    for p in range(1, 13):
        _clear_caches()
        assert big.truncate(p) == build(*args, p), p


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
    # identities calls the operator through its own import of the name
    spy(identities, "bernoulli_operator", caches["polybern.umbral", "bernoulli_operator"])
    for order in range(8, 25, 4):
        for ident in identities.CATALOG_IDS:
            assert identities.verify(ident, order=order, nmax=6, max_degree=6).passed
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert sizes == {name: len(keys.get(name, ())) for name in caches}
    assert keys["polybern.families", "dpb_higher_gf"] == {(2, 1), (1, 1), (0, 1)}  # eq5, k0
    # a table is keyed by the k and r its family reads, never by the order
    assert keys["polybern.families", "_table"] == {
        ("dpb", 2, 1), ("dpb", 1, 1), ("dpb", 0, 1), ("dpb-higher", 2, 1),
        ("daehee", None, 1), ("carlitz", None, 1), ("poly-bernoulli", 2, 1)}


def test_smaller_requests_hit_and_larger_rebuild():
    _clear_caches()
    build = families.dpb_gf
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
    info = families._table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 2)


def test_bypass_calls_are_uncached_and_leave_the_cache_alone():
    _clear_caches()
    cached = families.dpb_gf(2, 8)
    before = families.dpb_gf.cache_info()
    # default precision, keyword precision, precision below 1
    assert families.dpb_gf(2) == families.dpb_higher_gf(2, 1, families.DEFAULT_PRECISION)
    assert families.dpb_gf(2, precision=4) == cached.truncate(4)
    assert families.bernoulli_gf().precision == families.DEFAULT_PRECISION
    assert families.elam(1, 0) == Series.one(1)
    assert families.dpb_gf.cache_info() == before
    assert families.elam.cache_info().currsize == 0
    assert families.bernoulli_gf.cache_info().currsize == 0
    assert families.dpb_gf(2, 8) is cached
    assert families.dpb_gf(2, 16).truncate(8) == cached
    assert families.elam(1, 3) == Series([1, 1, LambdaPoly([Fraction(1, 2), Fraction(-1, 2)])])


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
