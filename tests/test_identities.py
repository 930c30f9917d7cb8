"""Identity catalog: pass/fail reports, witnesses, mutation sensitivity."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import bernoulli_oracle, perturb_table
from polybern import cli, families, identities, series
from polybern.errors import PolybernError, UnknownIdentity
from polybern.identities import CATALOG_IDS, Witness, bernoulli_numbers_triangular, verify


def assert_breaks_at(n0: int, ident: str, **kw):
    """``verify`` fails at index n0, with two different rendered sides."""
    w = verify(ident, **kw).witness
    assert w is not None and w.n == n0 and w.lhs != w.rhs, (ident, kw, n0, w)


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


# -- the one comparison loop --------------------------------------------------


def test_a_check_that_compares_no_case_is_refused():
    with pytest.raises(PolybernError, match="^the check compared no case$"):
        identities._first_failure(iter(()), None)
    with pytest.raises(PolybernError, match="^the check compared no case$"):
        verify("eq18", ys=())
    assert verify("eq18", ys=(1,)).passed


@pytest.mark.parametrize("ident", CATALOG_IDS)
def test_every_id_compares_a_case_at_its_defaults(ident, monkeypatch):
    seen = []
    loop = identities._first_failure
    monkeypatch.setattr(identities, "_first_failure",
                        lambda cases, lam: loop((seen.append(c) or c for c in cases), lam))
    assert verify(ident).passed and seen


# -- mutation sensitivity: one table entry perturbed, read through verify ------


def test_perturbed_carlitz_breaks_eq5_with_correct_witness(monkeypatch):
    for n0 in range(9):
        perturb_table(monkeypatch, "carlitz", n0)
        assert_breaks_at(n0, "eq5", nmax=9)


def test_perturbed_daehee_breaks_eq5_with_correct_witness(monkeypatch):
    for n0 in range(9):
        perturb_table(monkeypatch, "daehee", n0)
        assert_breaks_at(n0, "eq5", nmax=9)


def test_perturbed_dpb1_breaks_eq5_with_correct_witness(monkeypatch):
    for n0 in range(9):
        perturb_table(monkeypatch, "dpb", n0, k=1)
        assert_breaks_at(n0, "eq5", nmax=9)


def test_perturbed_base_table_breaks_remark(monkeypatch):
    # r = 3 takes a square and a multiply, r = 40 five squarings and a multiply
    for r in (2, 3, 40):
        for n0 in range(8):
            perturb_table(monkeypatch, "dpb", n0, k=2)
            assert_breaks_at(n0, "remark", k=2, r=r, nmax=8)


def test_remark_right_side_does_not_use_millers_power(monkeypatch):
    cases = [(k, r) for k in (-2, 3) for r in (2, 3, 40)]
    for k, r in cases:  # built before the patch, the tables are cached for verify
        families.table("dpb-higher", 11, k=k, r=r)
        families.table("dpb", 11, k=k)

    def refuse(*args):
        raise AssertionError("the triangular recurrence behind Miller's power is used")

    monkeypatch.setattr(series, "_recurrence", refuse)
    for k, r in cases:
        assert verify("remark", k=k, r=r, nmax=10).passed


def test_perturbed_higher_table_breaks_remark_and_thm4(monkeypatch):
    small = dict(nmax=7, order=9, n_random=1, max_degree=5)
    for n0 in range(8):
        perturb_table(monkeypatch, "dpb-higher", n0, k=2, r=2)
        assert_breaks_at(n0, "remark", k=2, r=2, nmax=8)
        assert_breaks_at(n0, "thm4", k=2, r=2, **small)
        # thm1 runs thm4's cases at r = 1, on the dpb table
        perturb_table(monkeypatch, "dpb", n0, k=2)
        assert_breaks_at(n0, "thm1", k=2, **small)


def test_perturbed_tables_break_stirling1_and_kaneko(monkeypatch):
    nmax = 9
    assert verify("stirling1", k=2, r=2, nmax=nmax).passed
    assert verify("kaneko", k=-1, nmax=nmax).passed
    assert verify("kaneko", k=1, nmax=nmax).passed
    for n0 in range(nmax + 1):
        for family, k, r in (("dpb-higher", 2, 2), ("carlitz", None, 1), ("daehee", None, 1)):
            perturb_table(monkeypatch, family, n0, k=k, r=r)
            assert_breaks_at(n0, "stirling1", k=2, r=2, nmax=nmax)
        # at k = 1 the poly-bernoulli table is the bernoulli one
        for k in (-1, 1):
            perturb_table(monkeypatch, "poly-bernoulli", n0, k=k)
            assert_breaks_at(n0, "kaneko", k=k, nmax=nmax)


def test_perturbed_higher_table_breaks_sheffer(monkeypatch):
    # s_n is families.polynomial of the dpb-higher table: a raised entry n0
    # adds 1 to s_n0, so <g|s_n0> moves by g(0) = 1 at k = 0
    for n0 in range(7):
        perturb_table(monkeypatch, "dpb-higher", n0, k=2, r=1)
        assert_breaks_at(n0, "sheffer16", k=2, nmax=6)
        perturb_table(monkeypatch, "dpb-higher", n0, k=-1, r=2)
        assert_breaks_at(n0, "sheffer23", k=-1, r=2, nmax=6)


def test_perturbed_weight_zero_table_breaks_k0(monkeypatch):
    for n0 in range(9):
        perturb_table(monkeypatch, "dpb", n0, k=0)
        assert_breaks_at(n0, "k0", nmax=8)


@pytest.mark.parametrize("ident", CATALOG_IDS)
def test_every_id_refuses_an_order_r_below_one(ident, capsys):
    for r in (0, -1):
        message = f"order r must be >= 1, got {r}"
        with pytest.raises(PolybernError, match=message):
            verify(ident, r=r, nmax=2)
        assert cli.main(["verify", ident, "--r", str(r), "--n", "2"]) == 2
        assert capsys.readouterr() == ("", f"polybern: error: {message}\n")


def test_perturbed_table_breaks_eq17(monkeypatch):
    for k in (1, 2):  # eq18 cannot see a perturbed table at k = 1, eq17 must
        for n0 in range(8):
            perturb_table(monkeypatch, "dpb", n0, k=k)
            assert_breaks_at(n0, "eq17", k=k, nmax=7, order=9)


def test_eq18_is_structural_but_catalog_still_catches_the_mutation(monkeypatch):
    # eq18 holds for any binomial-type family built from a single table
    # (both sides reduce to the same derivative expansion), so it cannot
    # see a corrupted table; eq17's series route does.
    perturb_table(monkeypatch, "dpb", 3, k=1)
    assert verify("eq18", k=1, nmax=8, ys=(1,)).passed
    assert_breaks_at(3, "eq17", k=1, nmax=8, order=10)


def test_witness_values_are_the_real_values(monkeypatch):
    # the witness carries the actual differing values, rendered exactly
    perturb_table(monkeypatch, "dpb", 0, k=1)
    assert verify("eq5", nmax=9).witness == Witness(0, "2", "1")  # 1 + 1 after perturbation
