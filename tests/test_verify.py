"""Shape and determinism of the verification report (the full suite runs in
test_acceptance.py; these checks stay cheap)."""

from gasketforms import verify


def test_report_items_are_deterministic():
    assert verify.check_dz_norms() == verify.check_dz_norms()
    assert verify.check_orthogonality() == verify.check_orthogonality()
    assert verify.check_effective_length() == verify.check_effective_length()


def test_item_schema():
    for item in verify.check_lacuna_pairing():
        assert set(item) == {"name", "status", "expected", "got", "radius"}
        assert item["status"] in ("PASS", "FAIL")
        assert isinstance(item["expected"], str) and isinstance(item["got"], str)
