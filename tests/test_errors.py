"""Every kernel error carries the failing report behind it, or None."""
import pytest

from enrichkit.errors import (BaseInvalid, ConstructionFailed,
                              LowerLevelInvalid, ParseError,
                              SourceTargetInvalid)
from enrichkit.instances import bool_poset, join_monoid_v2cat, preorder_vcat
from enrichkit.report import CheckReport
from enrichkit.v2cat import check_v2functor, identity_v2functor
from enrichkit.vcat import (VCategory, check_vcategory, check_vfunctor,
                            identity_vfunctor)

from helpers import replaced, rewire


def _raised(error, check, structure):
    with pytest.raises(error) as err:
        check(structure)
    assert isinstance(err.value.report, CheckReport)
    assert not err.value.report.ok


def test_require_errors_carry_the_failing_report():
    base = bool_poset(2)
    base.assoc_table[1][("top", "top", "top")] = "u"
    _raised(BaseInvalid, check_vcategory,
            VCategory(base, {"a"}, {("a", "a"): "top"},
                      {("a", "a", "a"): "id_top"}, {"a": "id_top"}))

    # The two-point preorder with one composition element redirected.
    p = preorder_vcat(bool_poset(2), ["a", "b"],
                      {("a", "a"), ("a", "b"), ("b", "b")})
    bad = replaced(p, comp=rewire(p.comp, ("a", "a", "a"), "u"))
    _raised(SourceTargetInvalid, check_vfunctor,
            replaced(identity_vfunctor(bad), source=bad))

    w = join_monoid_v2cat(bool_poset(2))
    bad_w = replaced(w, hom=dict.fromkeys(w.hom, bad))
    _raised(LowerLevelInvalid, check_v2functor,
            replaced(identity_v2functor(w), source=bad_w))


def test_error_payloads():
    assert ConstructionFailed("x").report is None
    err = ParseError("invalid JSON: x", 3, 7)
    assert (str(err), err.line, err.column, err.report) == (
        "invalid JSON: x", 3, 7, None)
