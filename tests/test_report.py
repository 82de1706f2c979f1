from enrichkit.report import CHUNK, ReportBuilder, equations, lift


def _instances(limit):
    """One-shot generator of (k,) that fails the test if pulled past limit."""
    for k in range(10):
        if k > limit:
            raise AssertionError(f"instance {k} pulled past index {limit}")
        yield (k,)


def _fails_on_odd(inst):
    k, = inst
    return (k, "even") if k % 2 else None


def test_family_stops_pulling_at_first_witness():
    b = ReportBuilder()
    b.family("odd", _instances(limit=1), _fails_on_odd)
    rep = b.report()
    assert rep.families["odd"] == 2
    assert [(w.instance, w.lhs, w.rhs) for w in rep.witnesses] == \
        [((1,), "1", "even")]


def test_family_all_witnesses_counts_every_instance_in_order():
    b = ReportBuilder(all_witnesses=True)
    b.family("odd", _instances(limit=9), _fails_on_odd)
    rep = b.report()
    assert rep.families["odd"] == 10
    assert [w.instance for w in rep.witnesses] == [(1,), (3,), (5,), (7,), (9,)]


def test_family_over_an_empty_iterator_records_zero():
    b = ReportBuilder()
    b.family("empty", iter(()), _fails_on_odd)
    assert b.report().families == {"empty": 0}


# -- the column engine --------------------------------------------------------

def _parity_legs(k):
    """One equation per row: k's parity against "even"."""
    return [(["odd" if n % 2 else "even" for n in k], ["even"] * len(k))]


def test_lift_propagates_missing_keys():
    comp = lift({("g", "f"): "gf"})
    assert comp(["g", "g", None], ["f", "x", "f"]) == ["gf", None, None]
    ident = lift({"a": "id_a"})
    assert ident(["a", None, "b"]) == ["id_a", None, None]


def test_equations_failure_in_a_later_chunk_counts_its_global_index():
    b = ReportBuilder()
    k = CHUNK + 5
    b.family("late", *equations(
        ((n,) for n in range(2 * CHUNK)),
        lambda col: [(list(col), [n if n != k else -1 for n in col])]))
    rep = b.report()
    assert rep.families["late"] == k + 1
    assert [(w.instance, w.lhs, w.rhs) for w in rep.witnesses] == \
        [((k,), str(k), "-1")]


def test_equations_first_failing_equation_is_the_witness():
    b = ReportBuilder()
    b.family("two", *equations(
        [("x",)], lambda col: [(["a"], ["b"]), (["c"], ["d"])]))
    w, = b.report().witnesses
    assert (w.instance, w.lhs, w.rhs) == (("x",), "a", "b")


def test_equations_undefined_lhs_fails_even_against_undefined_rhs():
    b = ReportBuilder()
    b.family("undef", *equations(
        [("x",), ("y",)], lambda col: [(["p", None], ["p", None])]))
    rep = b.report()
    assert rep.families["undef"] == 2
    assert [(w.instance, w.lhs, w.rhs) for w in rep.witnesses] == \
        [(("y",), "<undefined>", "<undefined>")]


def test_equations_all_witnesses_counts_every_row_in_order():
    b = ReportBuilder(all_witnesses=True)
    n = 2 * CHUNK + 3
    b.family("odd", *equations(((k,) for k in range(n)), _parity_legs))
    rep = b.report()
    assert rep.families["odd"] == n
    assert [w.instance for w in rep.witnesses] == \
        [(k,) for k in range(1, n, 2)]
    assert {(w.lhs, w.rhs) for w in rep.witnesses} == {("odd", "even")}


def test_equations_over_an_empty_domain_records_zero():
    b = ReportBuilder()
    b.family("empty", *equations(iter(()), _parity_legs))
    assert b.report().families == {"empty": 0}
