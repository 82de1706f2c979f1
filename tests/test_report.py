import json
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enrichkit import report
from enrichkit.report import (CHUNK, ReportBuilder, const, each_row, equations,
                              lift, row_equations)


def _instances(limit):
    """One-shot generator of (k,) that fails the test if pulled past limit."""
    for k in range(10):
        if k > limit:
            raise AssertionError(f"instance {k} pulled past index {limit}")
        yield (k,)


def _fails_on_odd(inst):
    k, = inst
    return (k, "even") if k % 2 else None


def _witnesses(rep):
    return [(w.instance, w.lhs, w.rhs) for w in rep.witnesses]


def test_family_stops_pulling_at_first_witness():
    b = ReportBuilder()
    b.family("odd", *each_row(_instances(limit=1), _fails_on_odd))
    rep = b.report()
    assert rep.families["odd"] == 2
    assert _witnesses(rep) == [((1,), "1", "even")]


def test_family_all_witnesses_counts_every_instance_in_order():
    b = ReportBuilder(all_witnesses=True)
    b.family("odd", *each_row(_instances(limit=9), _fails_on_odd))
    rep = b.report()
    assert rep.families["odd"] == 10
    assert [w.instance for w in rep.witnesses] == [(1,), (3,), (5,), (7,), (9,)]


def test_family_over_an_empty_iterator_records_zero():
    b = ReportBuilder()
    b.family("empty", *each_row(iter(()), _fails_on_odd))
    assert b.report().families == {"empty": 0}


# -- the column engine --------------------------------------------------------

def _parity_legs(n):
    """One equation per row k < n: k's parity against "even"."""
    parity = lift({k: "odd" if k % 2 else "even" for k in range(n)})
    even = const("even")
    return lambda k: [(parity(k), even)]


def test_lift_propagates_missing_keys():
    comp_table, ident_table = {("g", "f"): "gf"}, {"a": "id_a"}
    # A table, and a function of the key: a tuple for two columns, the id
    # itself for one.
    for comp, ident in ((lift(comp_table), lift(ident_table)),
                        (lift(lambda key: comp_table.get(key)),
                         lift(lambda key: ident_table.get(key)))):
        b = ReportBuilder(all_witnesses=True)
        b.family("comp", *equations(
            [["g", "h"], ["f", "x"]],
            lambda g, f: [(comp(g, f), const("gf"))]))
        b.family("chain", *equations(
            [["a", "b"]],
            lambda a: [(comp(ident(a), const("f")), const("gf"))]))
        rep = b.report()
        assert rep.families == {"comp": 4, "chain": 2}
        assert _witnesses(rep) == [
            (("g", "x"), "<undefined>", "gf"),
            (("h", "f"), "<undefined>", "gf"),
            (("h", "x"), "<undefined>", "gf"),
            (("a",), "<undefined>", "gf"),
            (("b",), "<undefined>", "gf")]


@pytest.fixture
def small_chunk(monkeypatch):
    """Blocks of at most 2^10 rows: a test of block boundaries needs two
    or three blocks, not blocks of the shipped size."""
    monkeypatch.setattr(report, "CHUNK", 1 << 10)


def test_equations_failure_in_a_later_chunk_counts_its_global_index(
        small_chunk):
    chunk = report.CHUNK
    k = chunk + 5
    half = chunk // 2
    index = {(i, j): i * half + j for i in range(4) for j in range(half)}
    marked = dict(index)
    marked[(2, 5)] = -1
    ident = {n: n for n in range(2 * chunk)}
    b = ReportBuilder()
    # Blocks of CHUNK / 2 rows with the first axis fixed; row (2, 5) is
    # global row CHUNK + 5.
    b.family("late", *equations(
        [range(4), range(half)],
        lambda i, j: [(lift(index)(i, j), lift(marked)(i, j))]))
    # CHUNK rows pulled at a time.
    b.family("late-rows", *row_equations(
        ((n,) for n in range(2 * chunk)),
        lambda n: [(lift(ident)(n), lift({**ident, k: -1})(n))]))
    rep = b.report()
    assert rep.families == {"late": k + 1, "late-rows": k + 1}
    assert _witnesses(rep) == [((2, 5), str(k), "-1"), ((k,), str(k), "-1")]


def test_equations_first_failing_equation_is_the_witness():
    b = ReportBuilder()
    b.family("two", *equations(
        [["x"]], lambda col: [(const("a"), const("b")),
                              (const("c"), const("d"))]))
    w, = b.report().witnesses
    assert (w.instance, w.lhs, w.rhs) == (("x",), "a", "b")


def test_equations_undefined_lhs_fails_even_against_undefined_rhs():
    p = lift({"x": "p"})
    b = ReportBuilder()
    b.family("undef", *equations([["x", "y"]], lambda col: [(p(col), p(col))]))
    rep = b.report()
    assert rep.families["undef"] == 2
    assert _witnesses(rep) == [(("y",), "<undefined>", "<undefined>")]


def test_equations_all_witnesses_counts_every_row_in_order(small_chunk):
    b = ReportBuilder(all_witnesses=True)
    n = 2 * report.CHUNK + 3
    b.family("odd", *row_equations(((k,) for k in range(n)), _parity_legs(n)))
    rep = b.report()
    assert rep.families["odd"] == n
    assert [w.instance for w in rep.witnesses] == \
        [(k,) for k in range(1, n, 2)]
    assert {(w.lhs, w.rhs) for w in rep.witnesses} == {("odd", "even")}


def test_equations_over_an_empty_domain_records_zero():
    b = ReportBuilder()
    b.family("empty", *equations([[]], _parity_legs(1)))
    b.family("empty-axis", *equations(
        [[0, 1], []], lambda k, _: _parity_legs(2)(k)))
    b.family("empty-rows", *row_equations(iter(()), _parity_legs(1)))
    assert b.report().families == {"empty": 0, "empty-axis": 0,
                                   "empty-rows": 0}


def test_row_equations_stop_pulling_after_the_failing_block(small_chunk):
    chunk = report.CHUNK

    def rows():
        for n in range(3 * chunk):
            if n >= 2 * chunk:
                raise AssertionError(f"row {n} pulled past the failing block")
            yield (n,)
    marked = lift({n: -1 if n == chunk + 1 else n for n in range(2 * chunk)})
    b = ReportBuilder()
    b.family("second", *row_equations(rows(), lambda n: [(n, marked(n))]))
    assert b.report().families["second"] == chunk + 2


# -- broadcasting against a row-by-row reference --------------------------------
#
# An expression is ("pos", p), ("const", v) or ("lookup", table, args).  Ids
# are the integers 0..3; a lookup table of arity m holds a value in 0..3 for
# all but a few of the 4**m keys (a single id when m == 1, else an m-tuple).

IDS = range(4)


@st.composite
def _table(draw, arity):
    keys = list(IDS) if arity == 1 else list(product(IDS, repeat=arity))
    values = draw(st.lists(st.sampled_from(IDS), min_size=len(keys),
                           max_size=len(keys)))
    missing = draw(st.sets(st.sampled_from(keys), max_size=3))
    return {k: v for k, v in zip(keys, values) if k not in missing}


@st.composite
def _expr(draw, positions, depth):
    kinds = ["pos", "const"] + (["lookup"] * 2 if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pos":
        return "pos", draw(st.sampled_from(range(positions)))
    if kind == "const":
        return "const", draw(st.sampled_from(IDS))
    args = draw(st.lists(_expr(positions, depth - 1), min_size=1, max_size=3))
    return "lookup", draw(_table(len(args))), args


def _on_columns(expr, columns):
    kind = expr[0]
    if kind == "pos":
        return columns[expr[1]]
    if kind == "const":
        return const(expr[1])
    _, table, args = expr
    return lift(table)(*(_on_columns(a, columns) for a in args))


def _on_row(expr, row):
    kind = expr[0]
    if kind == "pos":
        return row[expr[1]]
    if kind == "const":
        return expr[1]
    _, table, args = expr
    key = tuple(_on_row(a, row) for a in args)
    return table.get(key[0] if len(key) == 1 else key)


def _reference(rows, eqs, all_witnesses):
    """(count, witnesses) of a family evaluated one row at a time."""
    witnesses = []
    for count, row in enumerate(rows, 1):
        for lhs, rhs in eqs:
            l, r = _on_row(lhs, row), _on_row(rhs, row)
            if l is None or l != r:
                witnesses.append((row, report._fmt(l), report._fmt(r)))
                if not all_witnesses:
                    return count, witnesses
                break
    return len(rows), witnesses


@st.composite
def _family(draw):
    axes = draw(st.lists(st.lists(st.sampled_from(IDS), max_size=4),
                         min_size=1, max_size=5))
    eqs = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(_expr(len(axes), 2))
        rhs = lhs if draw(st.booleans()) else draw(_expr(len(axes), 2))
        eqs.append((lhs, rhs))
    return axes, eqs


def _engine(domain, rows, eqs, all_witnesses):
    def legs(*columns):
        return [(_on_columns(l, columns), _on_columns(r, columns))
                for l, r in eqs]
    b = ReportBuilder(all_witnesses)
    b.family("f", *domain(rows, legs))
    rep = b.report()
    return rep.families["f"], _witnesses(rep)


def _kernel(coded):
    """Evaluate every block of ``equations`` on the coded kernel, or on the
    list kernel."""
    return mock.patch.object(report, "_coded", lambda rows, sizes: coded)


@given(_family(), st.sampled_from([1, 2, 3, 5, 8, 64, CHUNK]),
       st.booleans(), st.data())
def test_broadcast_matches_row_by_row_evaluation(family, chunk, all_witnesses,
                                                 data):
    axes, eqs = family
    rows = list(product(*axes))
    kept = data.draw(st.lists(st.booleans(), min_size=len(rows),
                              max_size=len(rows)))
    filtered = [row for row, keep in zip(rows, kept) if keep]
    for coded in (False, True):
        with mock.patch.object(report, "CHUNK", chunk), _kernel(coded):
            assert _engine(equations, axes, eqs, all_witnesses) == \
                _reference(rows, eqs, all_witnesses)
            assert _engine(row_equations, iter(filtered), eqs,
                           all_witnesses) == \
                _reference(filtered, eqs, all_witnesses)


def test_broadcast_first_failure_in_the_last_of_several_blocks():
    axes = [[0, 1, 2], [0, 1], [3, 2, 1, 0]]
    table = {key: 0 for key in product(IDS, repeat=3)}
    del table[(2, 1, 0)]
    # Fails only at the last row, (2, 1, 0), in the last of 24, 6 or 3 blocks.
    eqs = [(("lookup", table, [("pos", 0), ("pos", 1), ("pos", 2)]),
            ("const", 0))]
    for chunk, coded in product((1, 4, 8), (False, True)):
        with mock.patch.object(report, "CHUNK", chunk), _kernel(coded):
            for all_witnesses in (False, True):
                got = _engine(equations, axes, eqs, all_witnesses)
                assert got == _reference(list(product(*axes)), eqs,
                                         all_witnesses)
                assert got == (24, [((2, 1, 0), "<undefined>", "0")])


def test_broadcast_over_skipped_axes_and_interleaved_failing_equations():
    rng = random.Random(7)

    def table(arity):
        keys = IDS if arity == 1 else product(IDS, repeat=arity)
        return {k: 0 for k in keys if rng.random() > 0.1}
    axes = [list(IDS)] * 5
    pos = [("pos", p) for p in range(5)]
    # The first lookup skips an inner axis (3) and the outer one (0) of the
    # second; each equation fails at rows where the other holds.
    eqs = [(("lookup", table(4), [pos[0], pos[1], pos[2], pos[4]]),
            ("const", 0)),
           (("lookup", table(2), [pos[1], pos[3]]),
            ("lookup", table(1), [pos[2]]))]
    rows = list(product(*axes))
    for chunk, coded in product((16, 64, CHUNK), (False, True)):
        with mock.patch.object(report, "CHUNK", chunk), _kernel(coded):
            for all_witnesses in (False, True):
                assert _engine(equations, axes, eqs, all_witnesses) == \
                    _reference(rows, eqs, all_witnesses)


@pytest.mark.parametrize("coded", [False, True])
@pytest.mark.parametrize("disjoint", [False, True])
def test_broadcast_over_a_key_space_wider_than_a_byte(coded, disjoint):
    rng = random.Random(11)
    if disjoint:
        # Five columns of four values, each on its own axis of eight ids:
        # 1,024 keys, all present, over 32,768 rows.
        axes = [range(8)] * 5
        args = [("lookup", {v: v % 4 for v in range(8)}, [("pos", p)])
                for p in range(5)]
    else:
        # Five columns of four values over six axes, each sharing an axis
        # with the next: 1,024 keys over 4,096 rows.
        axes = [IDS] * 6
        add = {(a, b): (a + b) % 4 for a in IDS for b in IDS}
        args = [("lookup", add, [("pos", p), ("pos", p + 1)])
                for p in range(5)]
    keys = list(product(IDS, repeat=5))
    table = {key: rng.choice(IDS) for key in keys if rng.random() > 0.02}
    cases = [(axes, args, table, 4)]
    if disjoint:
        # The same keys over 3,125 rows of five ids, in two groups of two and
        # three columns.  Read in the order 0, 2, 4, 1, 3, the groups' axes
        # interleave: a table of each group's sum has four classes a group,
        # and a random one too many to key in a byte.  Read in reverse, the
        # second group's axes come first.  An injective table cannot be
        # coded.  Three columns of seventeen values split into no two groups
        # that fit a byte, and are looked up once per row.
        fifth = {v: v % 4 for v in range(5)}
        apart, interleaved, reverse = (
            [("lookup", fifth, [("pos", p)]) for p in order]
            for order in ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (4, 3, 2, 1, 0)))
        more = random.Random(12)
        sums = {(s, t): more.choice(IDS) for s in IDS for t in IDS
                if (s, t) != (1, 2)}
        by_sums = {key: sums[sum(key[:2]) % 4, sum(key[2:]) % 4]
                   for key in keys
                   if (sum(key[:2]) % 4, sum(key[2:]) % 4) in sums}
        cases += [([range(5)] * 5, interleaved, by_sums, 4),
                  ([range(5)] * 5, interleaved, table, 4),
                  ([range(5)] * 5, reverse, table, 4),
                  ([range(5)] * 5, apart,
                   {key: n for n, key in enumerate(keys)}, len(keys)),
                  ([range(18)] * 3,
                   [("lookup", {v: v % 17 for v in range(18)}, [("pos", p)])
                    for p in range(3)],
                   {key: more.choice(IDS)
                    for key in product(range(17), repeat=3)}, 4)]
    for axes, args, table, size in cases:
        other = {key: (value + (rng.random() < 0.01)) % size
                 for key, value in table.items()}
        eqs = [(("lookup", table, args), ("lookup", other, args))]
        rows = list(product(*axes))
        with _kernel(coded):
            for all_witnesses in (False, True):
                got = _engine(equations, axes, eqs, all_witnesses)
                assert got == _reference(rows, eqs, all_witnesses)
        assert got[1]


def test_coded_lookup_reads_each_present_key_once():
    calls = []

    def record(key):
        calls.append(key)
        return key[0]
    total = {key: sum(key) % 4 for key in product(IDS, repeat=3)}
    inc = lift(total)
    shifted = lift({key: (value + 1) % 4 for key, value in total.items()})
    half = lift({v: v % 2 for v in IDS})
    five = lift({v: v % 5 for v in range(6)})
    listed = lift({v: [v % 5] for v in range(6)})
    for name, axes, legs, want in (
            # Both arguments span all three axes: 4 of the 16 keys occur, in
            # 64 rows.
            ("shared", [IDS] * 3,
             lambda a, b, c: [(lift(record)(inc(a, b, c), shifted(a, b, c)),
                               inc(a, b, c))],
             [(0, 1), (1, 2), (2, 3), (3, 0)]),
            # Arguments on disjoint axes meet in every combination.
            ("disjoint", [IDS] * 3,
             lambda a, b, c: [(lift(record)(half(a), half(c)), half(a))],
             list(product(range(2), repeat=2))),
            # Four arguments on disjoint axes: 625 keys over 1,296 rows, read
            # once each in two groups of two.
            ("wide", [range(6)] * 4,
             lambda a, b, c, d: [(lift(record)(five(a), five(b), five(c),
                                               five(d)), five(a))],
             list(product(range(5), repeat=4))),
            # The same keys with unhashable values, laid out once per row.
            ("unhashable", [range(6)] * 4,
             lambda a, b, c, d: [(lift(lambda key: [record(key)])(
                 five(a), five(b), five(c), five(d)), listed(a))],
             list(product(range(5), repeat=4)))):
        calls.clear()
        b = ReportBuilder()
        with _kernel(True):
            b.family(name, *equations(axes, legs))
        assert b.report().ok
        assert calls == want


def test_coded_legs_over_a_byte_of_distinct_values():
    # Each leg holds 256 distinct values, None last, so no index is left
    # free to mark a None on the left: the rows x = 255 fail.
    first = lift({x: x for x in range(255)})
    b = ReportBuilder(all_witnesses=True)
    b.family("wide", *equations([range(256), range(16)],
                                lambda x, y: [(first(x), first(x))]))
    rep = b.report()
    assert rep.families["wide"] == 4096
    assert _witnesses(rep) == [((255, y), "<undefined>", "<undefined>")
                               for y in range(16)]


def test_coded_legs_undefined_in_the_same_row_fail():
    # Two axes of 64 ids make one block of CODED_ROWS rows, which is coded.
    # Both legs are undefined at (5, 7) only: the row fails there, although
    # the two legs' codes agree.
    side = 64
    assert side * side >= report.CODED_ROWS
    total = {key: sum(key) % 7 for key in product(range(side), repeat=2)
             if key != (5, 7)}
    lhs, rhs = lift(total), lift(lambda key: total.get(key))
    b = ReportBuilder()
    b.family("undef", *equations([range(side)] * 2,
                                 lambda x, y: [(lhs(x, y), rhs(x, y))]))
    rep = b.report()
    assert rep.families["undef"] == 5 * side + 8
    assert _witnesses(rep) == [((5, 7), "<undefined>", "<undefined>")]


# -- records ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def records():
    """One record of every type but Witness, by type name."""
    from enrichkit.instances import Bounds, bool_symmetric, corpus
    tower = corpus(0)["bool2"]
    out = {"Tower": tower, "KFoldMonoidal": tower.base,
           "FinCategory": tower.base.base,
           "SymmetricMonoidal": bool_symmetric(), "Bounds": Bounds(),
           "CheckReport": report.CheckReport()}
    for section in ("vcategories", "vfunctors", "vnats", "v2categories",
                    "v2functors", "v2nats", "modifications", "pastings"):
        for structure in getattr(tower, section).values():
            out[type(structure).__name__] = structure
    assert len(out) == 14
    return out


def test_equal_records_of_one_type_compare_equal(bool2):
    from enrichkit.vcat import VCategory
    e = bool2.base.identity[bool2.unit]

    def point():
        return VCategory(bool2, {"o"}, {("o", "o"): bool2.unit},
                         {("o", "o", "o"): e}, {"o": e})
    a, b = point(), point()
    assert a is not b and a == b and not a != b
    assert a != VCategory(bool2, {"o"}, {("o", "o"): bool2.unit},
                          {("o", "o", "o"): e}, {"o": "other"})


def test_records_of_different_types_with_equal_fields_differ(records):
    from enrichkit.v2cat import V2NatTransform, VModification
    from enrichkit.vcat import VNatTransform
    nat = records["VNatTransform"]
    fields = (nat.source, nat.target, nat.components)
    same = [kind(*fields)
            for kind in (VNatTransform, V2NatTransform, VModification)]
    assert same[0] == nat
    assert same[0] != same[1] and same[1] != same[2] and same[0] != same[2]


def test_structures_are_unhashable_and_keep_a_memo(records):
    for name, record in records.items():
        with pytest.raises(TypeError):
            hash(record)
        made = []
        value = report._memo(record, ("probe", name), made.append)
        assert report._memo(record, ("probe", name), made.append) is value
        assert made == [record], name
        rep = report.cached_report(record, lambda _: report.CheckReport())
        assert isinstance(rep, report.CheckReport)
        assert report.cached_report(record, None) is rep


def test_memo_build_that_raises_stores_nothing():
    # Neither on a record's first memo nor on a later miss: the next call
    # builds again.
    record = report.CheckReport()

    def failing(_):
        raise ZeroDivisionError
    for key in ("first", "later"):
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                report._memo(record, key, failing)
            assert key not in getattr(record, "_memo", {})
        report._memo(record, "kept", lambda _: 1)
    assert report._memo(record, "first", lambda _: 2) == 2


def test_witness_is_hashable_and_immutable():
    w = report.Witness("pentagon", ("a", "b"), "f", "g")
    assert w == report.Witness("pentagon", ("a", "b"), "f", "g")
    assert len({w, report.Witness("pentagon", ("a", "b"), "f", "g")}) == 1
    assert w != report.Witness("pentagon", ("a", "b"), "f", "h")
    with pytest.raises(AttributeError):
        w.lhs = "h"
    with pytest.raises(AttributeError):
        del w.lhs
    assert w.lhs == "f"
    assert repr(w) == ("Witness(diagram='pentagon', instance=('a', 'b'), "
                       "lhs='f', rhs='g')")


def test_loaded_product_twin_has_its_own_memo(preorder_p):
    from enrichkit.serialize import Tower, dumps, loads
    from enrichkit.vcat import check_vcategory, made_of, product_vcat
    doc = json.loads(dumps(Tower(preorder_p.base, vcategories={
        "P": preorder_p, "X": product_vcat(1, preorder_p, preorder_p)})))
    doc["vcategories"]["Y"] = doc["vcategories"]["X"]
    loaded = loads(json.dumps(doc)).vcategories
    made, twin = loaded["X"], loaded["Y"]
    assert twin is not made and twin == made and twin.comp is made.comp
    assert report.cached_report(made, check_vcategory).ok
    assert twin._memo is not made._memo and set(twin._memo) == {"made"}
    assert made_of(twin) is made_of(made)


def test_random_structures_record_their_attempts():
    from enrichkit.instances import random_instance
    for level in ("vcategory", "vfunctor", "v2category"):
        assert random_instance(level, 3)._generation_attempts >= 1
