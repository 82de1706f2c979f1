from enrichkit.report import ReportBuilder


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
