"""One test per acceptance criterion, each ending in a single verdict line.

Every numeric comparison is exact; the timing limits are wall-clock
budgets for a fresh computation, so these tests build their own sessions
instead of using the shared fixtures where a budget is stated.
"""

import time
from fractions import Fraction
from random import Random

from quatcohom import (
    ReportSession,
    ddj_lemma_holds,
    hkt_existence,
    load_corpus,
    non_hkt_degrees,
    run_property_suite,
    sg_existence,
    standard_omega,
    validate_hypercomplex,
)
from quatcohom.report import build_report

from support import (
    direct_sum_complex,
    random_double_complex,
    scaled_variant,
)


def _verdict(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_example1_golden_tables():
    start = time.perf_counter()
    session = ReportSession(load_corpus("example1"))
    table = session.mc.table()
    elapsed = time.perf_counter() - start

    expected_h = {1: (3, 3, 2, 4), 2: (4, 4, 5, 5), 3: (3, 3, 4, 2)}
    expected_v = {1: (0, 0, 1, 0, 1, 0), 2: (1, 1, 1, 1, 1, 1),
                  3: (0, 1, 0, 1, 0, 0)}
    for p, row in expected_h.items():
        got = (table.h_del[p], table.h_delj[p], table.h_bc[p], table.h_ae[p])
        assert got == row, f"dimension row {p}: {got} != {row}"
    for p, row in expected_v.items():
        assert (table.a[p], table.b[p], table.c[p], table.d[p], table.e[p],
                table.f[p]) == row
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _verdict(1, f"all published table entries reproduced in {elapsed:.2f}s")


def test_criterion_2_example1_verdicts(ex1):
    table = ex1.mc.table()
    assert non_hkt_degrees(table) == (0, 0, 2, 0, 0)
    assert table.dim_e1 == table.dim_e2

    hkt = hkt_existence(ex1.cx, ex1.mc)
    sg = sg_existence(ex1.cx, ex1.mc)
    assert hkt.answer is False
    assert sg.answer is False

    rep = ex1.sl.decomposition_report()
    assert rep.pure_and_full
    assert rep.jbar_plus_dim == Fraction(2)
    assert rep.jbar_minus_dim == Fraction(2)
    _verdict(2, "defect 2, both existence answers no, degenerate, "
                "pure-and-full with halves 2 and 2")


def test_criterion_3_example2_family():
    reference = build_report(load_corpus("example1"))

    def comparable(doc):
        return (doc["cohomology"], doc["decomposition"],
                doc["verdicts"]["hkt"]["answer"],
                doc["verdicts"]["strongly_gauduchon"]["answer"],
                [entry["status"] for entry in doc["suite"]])

    spec = load_corpus("example2")
    for t in (Fraction(1, 3), Fraction(1, 4), Fraction(3, 4)):
        start = time.perf_counter()
        doc = build_report(spec, {"t": t})
        elapsed = time.perf_counter() - start
        assert comparable(doc) == comparable(reference), f"t={t} deviates"
        assert elapsed < 1.0, f"t={t} took {elapsed:.2f}s, budget 1s"

    start = time.perf_counter()
    special = build_report(spec, {"t": Fraction(1, 2)})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"t=1/2 took {elapsed:.2f}s, budget 1s"
    binom = (1, 4, 6, 4, 1)
    for row in special["cohomology"]["rows"]:
        p = row["p"]
        assert (row["h_del"], row["h_del_j"], row["h_bc"], row["h_ae"]) \
            == (binom[p],) * 4
        assert all(row[k] == 0 for k in "abcdef")
        assert row["delta"] == 0
    verdict = special["verdicts"]["hkt"]
    assert verdict["answer"] == "yes"
    cert = verdict["certificate"]
    assert cert is not None and cert["positive"] and cert["hkt"]
    _verdict(3, "generic members match example 1; t=1/2 is fully "
                "degenerate with a positivity-certified metric")


def test_criterion_4_example3():
    start = time.perf_counter()
    session = ReportSession(load_corpus("example3"))
    table = session.mc.table()
    rep = session.sl.decomposition_report()
    elapsed = time.perf_counter() - start

    assert table.h_del[2] == 9
    assert not rep.pure and rep.intersection_dim == 2
    assert not rep.full and rep.complement_dim == 2
    assert table.dim_e1 == table.dim_e2
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _verdict(4, f"h_del(2) = 9, not pure (2), not full (2), degenerate; "
                f"{elapsed:.2f}s")


def test_criterion_5_property_suite_corpus_and_variants():
    start = time.perf_counter()
    rng = Random(20260822)

    runs = [
        (load_corpus("example1"), None),
        (load_corpus("torus8"), None),
        (load_corpus("example2"), {"t": Fraction(1, 3)}),
        (load_corpus("example2"), {"t": Fraction(1, 2)}),
        (load_corpus("example3"), None),
    ]

    # Coefficient perturbations with the endomorphism tables held fixed.
    # Generic perturbations destroy integrability (measured: 0 of 300
    # random mixings of the degree-two targets validate), so the surviving
    # families are rescalings of the structure constants and the declared
    # parameter; every variant is revalidated before use.
    def random_factor():
        while True:
            f = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if f != 0:
                return f

    def random_t():
        while True:
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if t not in (0, 1):
                return t

    ex1_spec = load_corpus("example1")
    ex3_spec = load_corpus("example3")
    ex2_spec = load_corpus("example2")
    for _ in range(8):
        runs.append((scaled_variant(ex1_spec, random_factor()), None))
    for _ in range(3):
        runs.append((scaled_variant(ex3_spec, random_factor()), None))
    for _ in range(6):
        runs.append((ex2_spec, {"t": random_t()}))
    for _ in range(5):
        runs.append((scaled_variant(ex2_spec, random_factor(),
                                    {"t": random_t()}), None))

    total_variants = len(runs) - 5
    assert total_variants >= 20
    for spec, bindings in runs:
        assert validate_hypercomplex(spec, bindings).ok, spec.name

    failures = []
    checks = 0
    for spec, bindings in runs:
        session = ReportSession(spec, bindings)
        results = run_property_suite(session)
        checks += len(results)
        failures.extend(
            (spec.name, bindings, r.name, r.detail)
            for r in results if r.status == "fail")
    elapsed = time.perf_counter() - start

    assert not failures, f"suite failures: {failures}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _verdict(5, f"{checks} checks over {len(runs)} instantiations "
                f"({total_variants} variants), zero failures, "
                f"{elapsed:.2f}s")


def test_criterion_6_dual_route_second_page(corpus_sessions):
    mismatches = 0
    for session in corpus_sessions:
        for p in range(session.mc.top + 1):
            session.mc.e2(p)  # raises InternalInconsistency on mismatch

    rng = Random(424242)
    complexes = []
    for _ in range(35):
        complexes.append(random_double_complex(rng, k=3))
    for i in range(35):
        complexes.append(random_double_complex(rng, k=4, conjugate=i % 2 == 0))
    for _ in range(15):
        complexes.append(random_double_complex(rng, k=5))
    for _ in range(15):
        a = random_double_complex(rng, k=4)
        b = random_double_complex(rng, k=4)
        complexes.append(direct_sum_complex(a, b))
    assert len(complexes) == 100

    for mc in complexes:
        for p in range(mc.top + 1):
            mc.e2(p)
    _verdict(6, f"quotient formula and page iteration agree on the corpus "
                f"and on {len(complexes)} random complexes; "
                f"{mismatches} mismatches")


def test_criterion_7_lemma_equivalence(corpus_sessions):
    for session in corpus_sessions:
        table = session.mc.table()
        by_equality = all(
            table.h_bc[p] + table.h_ae[p] == 2 * table.dim_e2[p]
            for p in range(table.top_degree + 1))
        assert ddj_lemma_holds(table) is by_equality
    _verdict(7, "lemma characterizations coincide on the whole corpus")
