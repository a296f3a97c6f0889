"""Runtime property suite: every structural theorem checked on one algebra.

Each check is a named, self-contained predicate producing pass, fail, or
not-applicable, with a measured witness in the detail field.  Failures
are data, not exceptions: the caller decides what a red line means.  The
checks deliberately recompute identities the library also enforces
internally, so a regression in the enforcement itself still turns a line
red here.  The exceptions are the identities the constructors establish
once and refuse to build without: `MatrixComplex` forms del^2, del_J^2
and del del_J + del_J del when it is built; `QuaternionicComplex` checks
that d of each conjugate generator is d of its generator conjugated,
which makes del_J Jbar = -Jbar del hold in every degree, and that the
top form is holomorphic and Jbar-real.  Their lines report those checks.

The suite reads everything it checks from one `ReportSession`: its
complex, matrix reduction and volume-form layer, and its existence
verdicts, which the report shares.  The scalar self-check does not depend
on the structure and runs once per process.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from .cohomology import ddj_lemma_holds
from .errors import EngineError
from .linalg import Mat, SignedPermutation, complexify, kernel_basis, rank, rref
from .metrics import classify_metric, standard_omega
from .scalars import GaussianRational, parse_rational

if TYPE_CHECKING:
    from .report import ReportSession


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    status: str  # "pass" | "fail" | "n/a"
    detail: str = ""


Outcome = Tuple[str, str]


def _run(name: str, statement: str,
         body: Callable[[], Outcome]) -> CheckResult:
    try:
        status, detail = body()
    except EngineError as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return CheckResult(name, statement, status, detail)


@functools.cache
def _scalar_arithmetic() -> Outcome:
    rng = random.Random(12345)

    def draw() -> GaussianRational:
        return GaussianRational(
            rng.randint(-9, 9), rng.randint(-9, 9)
        ) / GaussianRational(rng.randint(1, 9))

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        if (a + b) * c != a * c + b * c:
            return "fail", f"distributivity broke at {a}, {b}, {c}"
        if a * b != b * a or a + b != b + a:
            return "fail", f"commutativity broke at {a}, {b}"
        if parse_rational(str(a)) != a:
            return "fail", f"round trip broke at {a}"
    return "pass", "200 deterministic triples"


def run_property_suite(session: "ReportSession") -> List[CheckResult]:
    cx, mc, sl = session.cx, session.mc, session.sl
    table = mc.table()
    half = cx.half
    degrees = range(half + 1)
    results: List[CheckResult] = []
    add = results.append

    # -- arithmetic and linear algebra self-checks --------------------------

    add(_run("scalar-arithmetic",
             "exact scalars: ring laws and print/parse round trip",
             _scalar_arithmetic))

    def echelon_stable() -> Outcome:
        m = mc.delta(1)
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        if again != reduced or pivots != pivots2:
            return "fail", "row reduction is not idempotent"
        if rank(m) + kernel_basis(m).nrows != m.ncols:
            return "fail", "rank plus nullity misses the column count"
        return "pass", f"on the degree-one differential ({m.nrows}x{m.ncols})"

    add(_run("echelon-stability",
             "row reduction idempotent; rank plus nullity exhausts columns",
             echelon_stable))

    # -- quaternionic relations on the frame --------------------------------

    def quaternion_relations() -> Outcome:
        ident = Mat.identity(cx.dimension)
        mi = cx.inst.mat_i
        mk = cx.inst.mat_k
        if not (mk @ mk + ident).is_zero():
            return "fail", "(I J)^2 is not -Id"
        if not (mi @ mk + mk @ mi).is_zero():
            return "fail", "I does not anticommute with I J"
        return "pass", ""

    add(_run("quaternion-relations",
             "(I J)^2 = -Id and I anticommutes with I J",
             quaternion_relations))

    def first_failure(failing: Iterable[Optional[int]]) -> Outcome:
        """Fail on the basis monomial of the first p with a failing
        column, failing[p], which is None where no column fails."""
        for p, col in enumerate(failing):
            if col is not None:
                return "fail", f"failed on {cx.render_mono(cx.hol_basis(p)[col])}"
        return "pass", ""

    def signed_identity(p: int) -> SignedPermutation:
        identity = SignedPermutation.identity(len(cx.hol_basis(p)))
        return identity if p % 2 == 0 else -identity

    def jbar_involution() -> Outcome:
        # twice Jbar is M_p conj(M_p), and M_p, a signed permutation, is real
        return first_failure(
            cx.index_map("Jbar", p).compose(cx.index_map("Jbar", p))
            .first_difference(signed_identity(p)) for p in degrees)

    add(_run("jbar-involution",
             "Jbar^2 = (-1)^p on every (p,0) basis form",
             jbar_involution))

    # -- differential identities --------------------------------------------

    # MatrixComplex refuses, when it is built, a complex that fails one
    def checked_at_construction() -> Outcome:
        return "pass", ""

    add(_run("del-squared", "del^2 = 0 as matrices in every degree",
             checked_at_construction))
    add(_run("del-J-squared", "del_J^2 = 0 as matrices in every degree",
             checked_at_construction))
    add(_run("anticommutation",
             "del del_J + del_J del = 0 as matrices in every degree",
             checked_at_construction))

    # QuaternionicComplex refuses, when it is built, generators whose
    # conjugates' d is not the conjugate of theirs; with del_J built from
    # del conjugated, that carries del_J Jbar = -Jbar del to every degree
    add(_run("jbar-intertwine",
             "del_J(Jbar f) = -Jbar(del f) on every basis form",
             checked_at_construction))

    # -- dimension identities ------------------------------------------------

    def exact_sum_ae() -> Outcome:
        for p in degrees:
            value = (table.a[p] - table.b[p] + table.h_del[p]
                     - table.h_ae[p] + table.c[p])
            if value != 0:
                return "fail", f"degree {p}: sum = {value}"
        return "pass", ""

    add(_run("exact-sequence-aeppli",
             "a - b + h_del - h_AE + c = 0 in every degree",
             exact_sum_ae))

    def exact_sum_bc() -> Outcome:
        for p in degrees:
            value = (table.d[p] - table.h_bc[p] + table.h_del[p]
                     - table.e[p] + table.f[p])
            if value != 0:
                return "fail", f"degree {p}: sum = {value}"
        return "pass", ""

    add(_run("exact-sequence-bott-chern",
             "d - h_BC + h_del - e + f = 0 in every degree",
             exact_sum_bc))

    def conjugation_symmetry() -> Outcome:
        if table.h_del != table.h_delj:
            return "fail", f"h_del {table.h_del} vs h_del_J {table.h_delj}"
        return "pass", ""

    add(_run("conjugation-symmetry",
             "h_del = h_del_J in every degree",
             conjugation_symmetry))

    def pair_symmetry() -> Outcome:
        if table.b != table.d or table.c != table.e:
            return "fail", f"b {table.b} d {table.d} c {table.c} e {table.e}"
        return "pass", ""

    add(_run("pair-symmetry", "b = d and c = e in every degree", pair_symmetry))

    def degree_shift() -> Outcome:
        for p in range(half):
            if table.e[p] != table.b[p + 1] or table.c[p] != table.d[p + 1]:
                return "fail", f"degree {p}"
        return "pass", ""

    add(_run("degree-shift",
             "e(p) = b(p+1) and c(p) = d(p+1)",
             degree_shift))

    def cohomology_bound() -> Outcome:
        for p in degrees:
            if not (table.h_bc[p] + table.h_ae[p] >= 2 * table.h_del[p]
                    >= 2 * table.dim_e2[p]):
                return "fail", f"degree {p}"
        return "pass", ""

    add(_run("cohomology-bound",
             "h_BC + h_AE >= 2 h_del >= 2 dim E2 in every degree",
             cohomology_bound))

    def defect_formula() -> Outcome:
        for p in degrees:
            expect = table.a[p] + table.f[p] + 2 * (table.h_del[p] - table.dim_e2[p])
            if table.delta[p] != expect:
                return "fail", f"degree {p}: {table.delta[p]} != {expect}"
        return "pass", ""

    add(_run("defect-formula",
             "Delta = a + f + 2 (h_del - dim E2) in every degree",
             defect_formula))

    add(_run("defect-nonnegative", "Delta >= 0 in every degree",
             lambda: ("pass", "") if all(x >= 0 for x in table.delta)
             else ("fail", str(table.delta))))

    add(_run("page-monotonicity", "dim E2 <= dim E1 in every degree",
             lambda: ("pass", "")
             if all(e2 <= e1 for e1, e2 in zip(table.dim_e1, table.dim_e2))
             else ("fail", f"E1 {table.dim_e1} E2 {table.dim_e2}")))

    def dual_oracle() -> Outcome:
        for p in degrees:
            mc.e2(p)  # raises when the two routes disagree
        return "pass", f"formula and page iteration agree: {table.dim_e2}"

    add(_run("e2-dual-oracle",
             "E2 by quotient formula equals E2 by page iteration",
             dual_oracle))

    add(_run("first-degree-b", "b = 0 in degree one",
             lambda: ("pass", "") if table.b[1] == 0
             else ("fail", f"b(1) = {table.b[1]}")))

    def first_degree_parity() -> Outcome:
        if table.h_bc[1] % 2 or table.h_ae[1] % 2:
            return "fail", f"h_BC(1) = {table.h_bc[1]}, h_AE(1) = {table.h_ae[1]}"
        return "pass", ""

    add(_run("first-degree-parity",
             "h_BC and h_AE are even in degree one",
             first_degree_parity))

    def duality_dims() -> Outcome:
        for p in degrees:
            if table.h_bc[p] != table.h_ae[half - p]:
                return "fail", f"h_BC({p}) != h_AE({half - p})"
        return "pass", ""

    add(_run("duality-dimensions",
             "h_BC(p) = h_AE(2n-p) for every p",
             duality_dims))

    def lemma_equivalence() -> Outcome:
        holds = ddj_lemma_holds(table)  # raises if the two routes disagree
        return "pass", f"lemma {'holds' if holds else 'fails'} by both criteria"

    add(_run("ddj-lemma-equivalence",
             "all b vanish iff h_BC + h_AE = 2 dim E2 in every degree",
             lemma_equivalence))

    # -- volume form and star ------------------------------------------------

    # QuaternionicComplex refuses, when it is built, a top form that fails one
    add(_run("volume-holomorphic", "the coframe top form is del_bar-closed",
             checked_at_construction))
    add(_run("volume-real", "the coframe top form is Jbar-fixed",
             checked_at_construction))

    def star_involution() -> Outcome:
        for p in degrees:
            if sl.star_matrix(half - p).compose(sl.star_matrix(p)) != signed_identity(p):
                return "fail", f"degree {p}"
        return "pass", ""

    add(_run("star-involution", "star^2 = (-1)^p on (p,0)-forms",
             star_involution))

    def star_adjoint() -> Outcome:
        # star is complex-linear, so Stokes makes this adjoint the transpose
        for p in range(half):
            lhs = mc.delta(p).transpose()
            rhs = (-sl.star_matrix(half - p)).relabel_rows(
                sl.star_matrix(p + 1).relabel_columns(mc.delta(half - p - 1)))
            if not (lhs - rhs).is_zero():
                return "fail", f"degree {p}"
        return "pass", ""

    add(_run("star-adjoint",
             "the adjoint of del is -star del star in every degree",
             star_adjoint))

    def laplacian(p: int) -> Mat:
        down = mc.delta(p - 1)
        up = mc.delta(p)
        return up.transpose() @ up + down @ down.transpose()

    def star_laplacian() -> Outcome:
        # degrees p and half - p read the same two Laplacians, built once
        failing = []
        for low in range(half // 2 + 1):
            laps = {p: laplacian(p) for p in {low, half - low}}
            for p in sorted(laps):
                lhs = sl.star_matrix(p).relabel_rows(laps[p])
                rhs = sl.star_matrix(p).relabel_columns(laps[half - p])
                if not (lhs - rhs).is_zero():
                    failing.append(p)
        return ("fail", f"degree {min(failing)}") if failing else ("pass", "")

    add(_run("star-laplacian",
             "star commutes with the del-Laplacian in every degree",
             star_laplacian))

    def pairing_invertible() -> Outcome:
        for p in degrees:
            result = sl.pairing_matrix(p)
            if not result.invertible:
                return "fail", f"degree {p}: rank-deficient pairing"
        return "pass", ""

    add(_run("pairing-invertible",
             "the wedge pairing of H_BC(p) with H_AE(2n-p) is invertible",
             pairing_invertible))

    # -- metric facts --------------------------------------------------------

    std = standard_omega(cx)
    std_candidate = classify_metric(cx, std, mc)

    def aeppli_degree() -> Outcome:
        if cx.n != 2:
            return "n/a", (
                f"the bound needs quaternionic dimension 2; measured "
                f"h_AE(1) = {table.h_ae[1]}, h_del(1) = {table.h_del[1]}"
            )
        if not std_candidate.gauduchon:
            return "n/a", "the standard form is not Gauduchon here"
        shown = ", ".join(str(v) for v in sl.degree_profile(std))
        return "pass", f"degrees of the Aeppli basis classes: {shown}"

    add(_run("aeppli-degree-bound",
             "h_AE(1) <= h_del(1) + 1 and the degree map kills closed classes",
             aeppli_degree))

    def flag_monotonicity() -> Outcome:
        # the standard form, twice it, phi^{12}, and the standard form plus
        # phi^{13}: (0,1) and (0,2) are the first two (2,0) basis forms
        samples = [std, std.scale(2), Mat.from_entries(1, std.ncols, {(0, 0): 1})]
        if half >= 4:
            samples.append(std + Mat.from_entries(1, std.ncols, {(0, 1): 1}))
        for i, omega in enumerate(samples):
            # the standard form, samples[0], was classified above
            cand = classify_metric(cx, omega, mc) if i else std_candidate
            chain = (cand.hyperkahler, cand.hkt, cand.strongly_gauduchon,
                     cand.gauduchon)
            for stronger, weaker in zip(chain, chain[1:]):
                if stronger and not weaker:
                    return "fail", cx.render_coords(omega, 2)
        return "pass", f"{len(samples)} sample forms"

    add(_run("metric-flag-monotonicity",
             "hyperkahler implies hkt implies strongly Gauduchon implies Gauduchon",
             flag_monotonicity))

    def flag_decoupling() -> Outcome:
        forms = complexify(cx.hkt_space)
        for i in range(forms.nrows):
            omega = forms.block([i], range(forms.ncols))
            cand = classify_metric(cx, omega, mc)
            if cand.hkt != cand.positive:
                return "fail", cx.render_coords(omega, 2)
        return "pass", f"{forms.nrows} basis candidates"

    add(_run("hkt-flag-decoupling",
             "on the closed Jbar-real space, the hkt flag is exactly positivity",
             flag_decoupling))

    # -- quaternionic dimension 2 theorems ----------------------------------

    def pure_and_full() -> Outcome:
        report = sl.jbar_decomposition()
        return "pass", (
            f"dim H^(Jbar,+) = {report.jbar_plus_dim}, "
            f"dim H^(Jbar,-) = {report.jbar_minus_dim}"
        )

    def self_dual_split() -> Outcome:
        plus, minus, _ = sl.sd_asd_decomposition()
        return "pass", f"dims ({plus}, {minus})"

    def three_way() -> Outcome:
        verdict = session.verdict("hkt")
        return "pass", (
            f"answer {'yes' if verdict.answer else 'no'} ({verdict.method})"
        )

    def sg_matches() -> Outcome:
        hkt = session.verdict("hkt")
        sg = session.verdict("strongly-gauduchon")
        if hkt.answer != sg.answer:
            return "fail", f"hkt {hkt.answer} vs strongly Gauduchon {sg.answer}"
        return "pass", f"both {'yes' if hkt.answer else 'no'}"

    dimension_two = (
        ("odd-defects-vanish", "Delta^1 = Delta^3 = 0",
         lambda: ("pass", "") if table.delta[1] == table.delta[3] == 0
         else ("fail", str(table.delta))),
        ("middle-defect-range", "Delta^2 is 0 or 2",
         lambda: ("pass", f"Delta^2 = {table.delta[2]}")
         if table.delta[2] in (0, 2) else ("fail", str(table.delta[2]))),
        ("page-degeneration", "E1 = E2 dimension-wise",
         lambda: ("pass", "") if table.dim_e1 == table.dim_e2
         else ("fail", f"E1 {table.dim_e1} E2 {table.dim_e2}")),
        ("pure-and-full",
         "the Jbar-fixed subgroups split the middle cohomology",
         pure_and_full),
        ("self-dual-split",
         "closed (anti-)self-dual images split the middle cohomology",
         self_dual_split),
        ("hkt-three-way",
         "middle defect, degree-one parity, and certificate search agree",
         three_way),
        ("sg-equivalence",
         "strongly Gauduchon existence coincides with HKT existence",
         sg_matches),
    )
    if cx.n == 2:
        for name, statement, body in dimension_two:
            add(_run(name, statement, body))
    else:
        report = sl.jbar_decomposition()
        detail = (
            f"not applicable (n={cx.n}); intersection {report.intersection_dim}, "
            f"complement {report.complement_dim}"
        )
        for name, statement, _ in dimension_two:
            add(CheckResult(name, statement, "n/a", detail))

    return results


def suite_failed(results: List[CheckResult]) -> bool:
    return any(r.status == "fail" for r in results)
