"""Identity catalog: pass/fail reports, witnesses, mutation sensitivity."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import bernoulli_oracle
from polybern import cli, families, identities, series
from polybern.errors import PolybernError, UnknownIdentity
from polybern.identities import (
    CATALOG_IDS,
    bernoulli_numbers_triangular,
    check_eq5,
    check_eq17,
    check_eq18,
    check_kaneko,
    check_remark,
    check_stirling1,
    check_thm4,
    verify,
)


def perturbed(tbl: families.SequenceTable, index: int) -> families.SequenceTable:
    values = list(tbl.values)
    values[index] = values[index] + 1
    return families.SequenceTable(tbl.family, tbl.k, tbl.r, tuple(values))


def eq5_tables(p: int):
    """The k = 1 dpb, Daehee and Carlitz tables that eq5 convolves."""
    return families.table("dpb", p, k=1), families.table("daehee", p), families.table("carlitz", p)


def test_triangular_bernoulli_matches_known_values():
    assert bernoulli_numbers_triangular(9) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
        Fraction(-1, 30),
    ]
    assert bernoulli_numbers_triangular(9) == bernoulli_oracle(9)


def test_catalog_ids_complete():
    assert set(CATALOG_IDS) == {
        "eq5", "eq17", "eq18", "thm1", "thm2", "thm3", "thm4",
        "remark", "sheffer16", "sheffer23", "k0", "lambda0", "stirling1", "kaneko",
    }


PARAMS = {
    "eq5": {"lambda": "symbolic", "k": 1, "nmax": 4},
    "eq17": {"lambda": "symbolic", "k": 5, "nmax": 4},
    "eq18": {"lambda": "symbolic", "k": 5, "nmax": 4, "seed": 0,
             "ys": ["1", "-2", "3/5", "3/7"]},
    "thm1": {"lambda": "symbolic", "k": 5, "nmax": 4, "n_random": 1, "max_degree": 3,
             "seed": 0},
    "thm2": {"lambda": "symbolic", "k": 5, "n_random": 1, "max_degree": 3, "seed": 0},
    "thm3": {"lambda": "symbolic", "k": 5, "r": 3, "n_random": 1, "max_degree": 3, "seed": 0},
    "thm4": {"lambda": "symbolic", "k": 5, "r": 3, "nmax": 4, "n_random": 1, "max_degree": 3,
             "seed": 0},
    "remark": {"lambda": "symbolic", "k": 5, "r": 3, "nmax": 4},
    "sheffer16": {"lambda": "symbolic", "k": 5, "r": 1, "nmax": 4},
    "sheffer23": {"lambda": "symbolic", "k": 5, "r": 3, "nmax": 4},
    "k0": {"lambda": "symbolic", "nmax": 4},
    "lambda0": {"lambda": "symbolic", "k": 5, "nmax": 4},
    "stirling1": {"lambda": "symbolic", "k": 5, "r": 3, "nmax": 4},
    "kaneko": {"lambda": "symbolic", "k": 5, "nmax": 4},
}


@pytest.mark.parametrize("ident", CATALOG_IDS)
def test_params_keys_and_values_in_order(ident):
    # the CLI prints params unsorted, so their order is part of its output
    report = verify(ident, k=5, r=3, nmax=4, n_random=1, max_degree=3)
    assert list(report.params.items()) == list(PARAMS[ident].items())


def _readme_catalog_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Identity catalog", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")[:3]]
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_catalog_matches_records():
    rows = _readme_catalog_rows()
    assert [row[0].strip("`") for row in rows] == list(CATALOG_IDS)
    for (ident, order, reads), entry in zip(rows, identities._CATALOG.values()):
        fixed = dict(entry.fixed)
        assert reads == ", ".join(f"`--{name}`" for name in ("k", "r", "seed")
                                  if name in entry.params and name not in fixed), ident
        if "max_degree" not in entry.params:
            rule = f"`--n` + {entry.slack}"
        elif "nmax" in entry.params:
            rule = f"max(`--n`, 8) + {entry.slack}"
        else:
            rule = str(8 + entry.slack)
        assert order == rule, ident


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("fermat")


def test_polylog_order_is_bounded():
    with pytest.raises(PolybernError):
        verify("kaneko", k=families.MAX_ABS_K + 1)
    with pytest.raises(PolybernError):
        verify("k0", k=-families.MAX_ABS_K - 1)


def test_order_and_range_are_bounded():
    with pytest.raises(PolybernError, match="order r"):
        verify("remark", r=families.MAX_R + 1, nmax=4)
    top = families.MAX_CHECK_PRECISION
    with pytest.raises(PolybernError, match="nmax"):
        verify("k0", nmax=top - 1)
    with pytest.raises(PolybernError, match="order"):
        verify("thm1", order=top + 1)
    assert verify("k0", nmax=top - 2).passed
    assert verify("thm2", order=top).passed
    # the library-only sizes of the random checks are bounded too
    for kw, match in ((dict(n_random=0), "n_random"), (dict(n_random=-5), "n_random"),
                      (dict(n_random=identities.MAX_RANDOM + 1), "n_random"),
                      (dict(max_degree=-1), "max_degree"),
                      (dict(max_degree=top - 1), "max_degree"),
                      (dict(max_degree=400), "max_degree")):
        with pytest.raises(PolybernError, match=match):
            verify("thm2", **kw)
    assert verify("thm2", n_random=1, max_degree=top - 2).passed


def test_spec_examples_pass():
    assert verify("remark", k=2, r=2, nmax=10).passed
    assert verify("k0", nmax=20).passed
    assert verify("eq18", k=1, nmax=8, ys=(1, -2, Fraction(3, 5))).passed
    # the r-fold binomial convolution, not one term per composition of n
    assert verify("remark", k=2, r=40, nmax=12).passed


@pytest.mark.parametrize("ident", CATALOG_IDS)
def test_every_entry_passes_with_defaults(ident):
    report = verify(ident)
    assert report.passed, report.witness


@pytest.mark.parametrize("k", [-1, 0, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_reduced_grid(k, r):
    for ident in CATALOG_IDS:
        report = verify(ident, k=k, r=r, nmax=6, n_random=2, max_degree=5)
        assert report.passed, (ident, k, r, report.witness)


def test_full_grid_symbolic():
    for k in range(-2, 4):
        for r in (1, 2, 3):
            for ident in CATALOG_IDS:
                report = verify(ident, k=k, r=r, nmax=12, n_random=2, max_degree=6)
                assert report.passed, (ident, k, r, report.witness)


def test_numeric_lambda_mode():
    report = verify("eq5", nmax=8, lam=Fraction(1, 3))
    assert report.passed
    assert report.params["lambda"] == "1/3"
    report = verify("remark", k=1, r=2, nmax=6, lam=Fraction(-2))
    assert report.passed


def test_seed_changes_random_y():
    a = verify("eq18", seed=0)
    b = verify("eq18", seed=5)
    assert a.params["ys"][:3] == b.params["ys"][:3]
    assert a.params["ys"][3] != b.params["ys"][3]


def test_report_json_round_trip():
    for report in (verify("eq5"), verify("remark", k=1, r=2)):
        d = json.loads(json.dumps(report.to_json_dict()))
        assert d == {"id": report.id, "params": report.params, "status": "pass",
                     "witness": None}


# -- mutation sensitivity -------------------------------------------------------


def test_perturbed_carlitz_breaks_eq5_with_correct_witness():
    p = 10
    dpb1, dh, cz = eq5_tables(p)
    for n0 in range(9):
        w = check_eq5(dpb1, dh, perturbed(cz, n0), 9)
        assert w is not None and w.n == n0 and w.lhs != w.rhs


def test_perturbed_daehee_breaks_eq5_with_correct_witness():
    p = 10
    dpb1, dh, cz = eq5_tables(p)
    for n0 in range(9):
        w = check_eq5(dpb1, perturbed(dh, n0), cz, 9)
        assert w is not None and w.n == n0 and w.lhs != w.rhs


def test_perturbed_dpb1_breaks_eq5_with_correct_witness():
    p = 10
    dpb1, dh, cz = eq5_tables(p)
    for n0 in range(9):
        w = check_eq5(perturbed(dpb1, n0), dh, cz, 9)
        assert w is not None and w.n == n0 and w.lhs != w.rhs


def test_perturbed_base_table_breaks_remark():
    base = families.table("dpb", 9, k=2)
    # r = 3 takes a square and a multiply, r = 40 five squarings and a multiply
    for r in (2, 3, 40):
        higher = families.table("dpb-higher", 9, k=2, r=r)
        for n0 in range(8):
            w = check_remark(higher, perturbed(base, n0), r, 8)
            assert w is not None and w.n == n0 and w.lhs != w.rhs, (r, n0)


def test_remark_right_side_does_not_use_millers_power(monkeypatch):
    tables = [(families.table("dpb-higher", 11, k=k, r=r), families.table("dpb", 11, k=k), r)
              for k in (-2, 3) for r in (2, 3, 40)]

    def refuse(*args):
        raise AssertionError("the triangular recurrence behind Miller's power is used")

    monkeypatch.setattr(series, "_recurrence", refuse)
    for higher, base, r in tables:
        assert check_remark(higher, base, r, 10) is None


def test_perturbed_higher_table_breaks_remark_and_thm4():
    base = families.table("dpb", 9, k=2)
    higher = families.table("dpb-higher", 9, k=2, r=2)
    rng = random.Random(0)
    for n0 in range(8):
        bad = perturbed(higher, n0)
        w = check_remark(bad, base, 2, 8)
        assert w is not None and w.n == n0
        w = check_thm4(bad, 2, 2, 7, 9, rng, 1, 5)
        assert w is not None and w.n == n0
        # thm1's route: check_thm4 at r = 1 on the dpb table
        w = check_thm4(perturbed(base, n0), 2, 1, 7, 9, rng, 1, 5)
        assert w is not None and w.n == n0


def test_perturbed_tables_break_stirling1_and_kaneko():
    p, nmax = 10, 9
    higher = families.table("dpb-higher", p, k=2, r=2)
    cz = families.table("carlitz", p)
    dh = families.table("daehee", p)
    pb = families.table("poly-bernoulli", p, k=-1)
    bern = families.table("bernoulli", p)
    assert check_stirling1(higher, cz, dh, 2, 2, nmax, p) is None
    assert check_kaneko(pb, -1, nmax, p) is None
    assert check_kaneko(bern, 1, nmax, p) is None
    for n0 in range(nmax + 1):
        for tables in ((perturbed(higher, n0), cz, dh), (higher, perturbed(cz, n0), dh),
                       (higher, cz, perturbed(dh, n0))):
            w = check_stirling1(*tables, 2, 2, nmax, p)
            assert w is not None and w.n == n0 and w.lhs != w.rhs
        for tbl, k in ((perturbed(pb, n0), -1), (perturbed(bern, n0), 1)):
            w = check_kaneko(tbl, k, nmax, p)
            assert w is not None and w.n == n0 and w.lhs != w.rhs


@pytest.mark.parametrize("ident", CATALOG_IDS)
def test_every_id_refuses_an_order_r_below_one(ident, capsys):
    for r in (0, -1):
        message = f"order r must be >= 1, got {r}"
        with pytest.raises(PolybernError, match=message):
            verify(ident, r=r, nmax=2)
        assert cli.main(["verify", ident, "--r", str(r), "--n", "2"]) == 2
        assert capsys.readouterr() == ("", f"polybern: error: {message}\n")


def test_perturbed_table_breaks_eq17():
    tbl = families.table("dpb", 9, k=2)
    for n0 in range(7):
        w = check_eq17(perturbed(tbl, n0), 2, 7, 9)
        assert w is not None and w.n == n0


def test_eq18_is_structural_but_catalog_still_catches_the_mutation():
    # eq18 holds for any binomial-type family built from a single table
    # (both sides reduce to the same derivative expansion), so it cannot
    # see a corrupted table; eq17's series route does.
    tbl = families.table("dpb", 10, k=1)
    assert check_eq18(perturbed(tbl, 3), 8, (Fraction(1),)) is None
    w = check_eq17(perturbed(tbl, 3), 1, 8, 10)
    assert w is not None and w.n == 3


def test_witness_values_are_the_real_values():
    # the witness carries the actual differing values, rendered exactly
    p = 10
    dpb1, dh, cz = eq5_tables(p)
    w = check_eq5(perturbed(dpb1, 0), dh, cz, 9)
    assert w.n == 0
    assert w.lhs == "2"  # 1 + 1 after perturbation
    assert w.rhs == "1"
