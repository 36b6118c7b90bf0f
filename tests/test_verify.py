import pytest

from injgen import constructions
from injgen.algebra import GradedAlgebra
from injgen.verify import check_names, run_suite

EXPECTED_CHECKS = ["zero-context", "covering-roundtrip", "tensor-formula",
                   "power-block-law", "twisted-dual", "degeneracy",
                   "corner-pd", "cleft-vanishing"]


def test_check_names():
    assert check_names() == EXPECTED_CHECKS


def test_full_suite_passes():
    reports = run_suite()
    assert [r.name for r in reports] == EXPECTED_CHECKS
    for rep in reports:
        assert rep.ok is True, (rep.name, rep.details)


def test_only_filter():
    reports = run_suite(only=["degeneracy", "zero-context"])
    assert sorted(r.name for r in reports) == ["degeneracy", "zero-context"]


def test_unknown_name_raises():
    with pytest.raises(ValueError):
        run_suite(only=["zero-context", "bogus"])


def test_degeneracy_catches_a_broken_square_zero_extension(monkeypatch):
    """The trivial extension is checked against the tensor ring truncated
    at 2, which does not go through the extension tables: with the right
    action dropped from those tables the check fails."""
    theta_tables = constructions._theta_tables

    def without_right_action(R, M, theta):
        A = theta_tables(R, M, theta)
        mult = [[{} if i >= R.dim > j else cell for j, cell in enumerate(row)]
                for i, row in enumerate(A.mult)]
        return GradedAlgebra._trusted(A.field, A.group, A.labels, A.degree, A.unit, mult)

    monkeypatch.setattr(constructions, "_theta_tables", without_right_action)
    (rep,) = run_suite(only=["degeneracy"])
    assert rep.ok is False
    assert rep.details["trivial_extension_equals_truncated_tensor_ring"] is False
