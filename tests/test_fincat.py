import pytest

from enrichkit.errors import (CompositionUndefined, MalformedTable,
                              UnknownMorphism)
from enrichkit.fincat import FinCategory, check_category, compose
from enrichkit.instances import bool_symmetric, zmod2_symmetric

from helpers import idempotent_monoid_category, rewire


@pytest.fixture
def two():
    """The walking arrow bot -> top as a fresh category."""
    return bool_symmetric().base


@pytest.fixture
def z2_discrete():
    return zmod2_symmetric().base


def test_compose_identity_laws(two):
    assert compose(two, "id_top", "u") == "u"
    assert compose(two, "u", "id_bot") == "u"


def test_compose_mismatch(two):
    with pytest.raises(CompositionUndefined):
        compose(two, "u", "u")
    with pytest.raises(UnknownMorphism):
        compose(two, "u", "zz")


def test_check_category_passes(two, z2_discrete):
    assert check_category(two).ok
    assert check_category(z2_discrete).ok


def test_check_category_families(two):
    rep = check_category(two)
    assert set(rep.families) == {
        "identity-boundary", "composition-defined", "composition-boundary",
        "unit-left", "unit-right", "associativity"}


def test_unit_law_mutation(two):
    # comp(u, id_bot) rewired to id_bot: the unit law at (u, id_bot) breaks,
    # and because the base is thin the rewired composite also has the wrong
    # codomain, which cascades into the associativity scan.
    mutated = FinCategory(two.objects, two.morphisms, two.dom, two.cod,
                          rewire(two.comp, ("u", "id_bot"), "id_bot"),
                          two.identity)
    rep = check_category(mutated, all_witnesses=True)
    assert not rep.ok
    unit = rep.first_for("unit-right")
    assert unit is not None and unit.instance == ("u", "id_bot")
    assert rep.failing_families() == {
        "unit-right", "composition-boundary", "associativity"}


def test_single_family_mutation_possible():
    cat = idempotent_monoid_category()
    assert check_category(cat).ok
    mutated = FinCategory(cat.objects, cat.morphisms, cat.dom, cat.cod,
                          rewire(cat.comp, ("a", "e"), "e"), cat.identity)
    rep = check_category(mutated, all_witnesses=True)
    assert rep.failing_families() == {"unit-right"}


@pytest.mark.parametrize("key", [("u", "id_bot"), ("id_top", "u"),
                                 ("id_bot", "id_bot"), ("id_top", "id_top")])
def test_every_comp_rewire_detected(two, key):
    # Exhaustive single-entry mutation sensitivity over the comp table.
    for wrong in sorted(two.morphisms):
        if wrong == two.comp[key]:
            continue
        mutated = FinCategory(two.objects, two.morphisms, two.dom, two.cod,
                              rewire(two.comp, key, wrong), two.identity)
        assert not check_category(mutated).ok


def test_identity_rewire_detected(two):
    mutated = FinCategory(two.objects, two.morphisms, two.dom, two.cod,
                          two.comp, rewire(two.identity, "bot", "u"))
    assert not check_category(mutated).ok


def test_every_shipped_category_mutation_detected(two, z2_discrete):
    # Shipped categories pass, and every single-entry rewire of comp or the
    # identity table flips the check to fail.  (Only the shipped thin bases:
    # in a fixture like the idempotent monoid some rewires land on another
    # valid category.)
    for cat in (two, z2_discrete):
        assert check_category(cat).ok
        for key in sorted(cat.comp):
            for wrong in sorted(cat.morphisms):
                if wrong == cat.comp[key]:
                    continue
                mutated = FinCategory(cat.objects, cat.morphisms, cat.dom,
                                      cat.cod, rewire(cat.comp, key, wrong),
                                      cat.identity)
                assert not check_category(mutated).ok, (key, wrong)
        for obj in sorted(cat.objects):
            for wrong in sorted(cat.morphisms):
                if wrong == cat.identity[obj]:
                    continue
                mutated = FinCategory(cat.objects, cat.morphisms, cat.dom,
                                      cat.cod, cat.comp,
                                      rewire(cat.identity, obj, wrong))
                assert not check_category(mutated).ok, (obj, wrong)


def test_malformed_table(two):
    broken = FinCategory(two.objects, two.morphisms,
                         dict(two.dom, ghost="bot"), two.cod, two.comp,
                         two.identity)
    with pytest.raises(MalformedTable):
        check_category(broken)
