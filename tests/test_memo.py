import gc
import weakref

import pytest

import quatcohom.cohomology as cohomology
from quatcohom import ReportSession, load_corpus
from quatcohom.errors import EngineError, NotSL2
from quatcohom.memo import memo
from quatcohom.report import build_report_from_session
from quatcohom.suite import run_property_suite


class _Counted:
    def __init__(self):
        self.calls = []

    @memo
    def square(self, x):
        self.calls.append(x)
        return x * x

    @memo
    def refuse(self, x):
        self.calls.append(x)
        raise NotSL2(f"no answer for {x}")

    @memo
    def fail(self, x):
        self.calls.append(x)
        raise ValueError(x)


def test_memo_computes_once_per_instance_and_arguments():
    a, b = _Counted(), _Counted()
    assert [a.square(2), a.square(3), a.square(x=2), b.square(2)] == [4, 9, 4, 4]
    # a keyword call reads the result of the positional one
    assert a.calls == [2, 3] and b.calls == [2]
    assert _Counted.square.results(a) == {(2,): 4, (3,): 9}
    assert _Counted.square.__name__ == "square"


def test_memoised_engine_error_is_raised_again_with_the_same_message():
    counted = _Counted()
    with pytest.raises(NotSL2, match="no answer for 5") as first:
        counted.refuse(5)
    with pytest.raises(NotSL2, match="no answer for 5") as second:
        counted.refuse(5)
    assert second.value is first.value
    assert counted.calls == [5]
    # an error that is not the engine's is not kept, so it is met again
    for _ in range(2):
        with pytest.raises(ValueError):
            counted.fail(7)
    assert counted.calls == [5, 7, 7]


def test_session_verdict_error_is_kept(monkeypatch):
    import quatcohom.report as report

    calls = []

    def refusing(cx, mc):
        calls.append(cx)
        raise NotSL2("no verdict here")

    monkeypatch.setattr(report, "hkt_existence", refusing)
    session = ReportSession(load_corpus("example1"))
    messages = []
    for _ in range(2):
        with pytest.raises(EngineError) as caught:
            session.verdict("hkt")
        messages.append(str(caught.value))
    assert messages == ["no verdict here"] * 2 and len(calls) == 1


def test_two_sessions_of_one_spec_share_no_cache():
    spec = load_corpus("example1")
    first, second = ReportSession(spec), ReportSession(spec)
    build_report_from_session(first)
    # the second session has computed nothing yet, and computes its own
    assert not cohomology.MatrixComplex.table.results(second.mc)
    assert first.mc.table() == second.mc.table()
    assert first.mc.table() is not second.mc.table()
    assert first.cx.operator_matrix("del", 1) is not second.cx.operator_matrix("del", 1)
    assert first.sl.jbar_decomposition() is not second.sl.jbar_decomposition()


def test_a_reported_session_is_freed_without_the_collector():
    # the stores hold no reference back to their objects, so dropping the
    # session frees everything computed for it by reference counting
    enabled = gc.isenabled()
    gc.disable()
    try:
        session = ReportSession(load_corpus("example1"))
        build_report_from_session(session)
        held = [weakref.ref(x) for x in (session, session.cx, session.cx.inst,
                                          session.mc, session.sl)]
        del session
        assert [ref() for ref in held] == [None] * len(held)
    finally:
        if enabled:
            gc.enable()


def test_matrix_complex_splits_each_degree_once(monkeypatch):
    # table(), both E2 routes and the property suite all read the split of
    # del_p through one memo: one kernel of each del_p, none again; degree
    # top + 1, where ddj out of top - 1 lands, has the empty one
    calls = []

    def counting(matrix, original=cohomology.kernel_basis):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(cohomology, "kernel_basis", counting)
    session = ReportSession(load_corpus("example3"))
    mc = session.mc
    mc.table()
    mc.e2_pages_all()
    run_property_suite(session)
    degrees = range(mc.top + 2)
    assert len(calls) == len(degrees)
    assert [sum(m == mc.delta(p) for m in calls) for p in degrees] == [1] * len(degrees)
