import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from quatcohom import ReportSession, load_corpus, standard_omega
from quatcohom.cohomology import MatrixComplex
from quatcohom.errors import (DecompositionFailure, NotAeppliClosed, NotGauduchon,
                              NotHolomorphic, NotReal, NotSL2, RepresentativeDependence,
                              TheoremViolation)
from quatcohom.exterior import merge_monomials
from quatcohom.linalg import Mat, SignedPermutation, inverse, kernel_basis, row_basis
from quatcohom.model import _build_coframe, instantiate, validate_hypercomplex
from quatcohom.quaternionic import QuaternionicComplex
from quatcohom.slstructure import SLStructure
from quatcohom.suite import run_property_suite

from support import (FormRoute, affine_complex_spec, direct_sum_spec,
                     form_degree_map, reference_decomposition, reference_sd_asd)


def test_star_of_scalars_and_volume(ex1):
    # the unit and the volume form are the one basis forms of degrees 0
    # and 2n, and each is the star of the other
    sl = ex1.sl
    half = ex1.cx.half
    assert sl.star_matrix(0).mat() == Mat.identity(1)
    assert sl.star_matrix(half).mat() == Mat.identity(1)
    omega = standard_omega(ex1.cx).transpose()
    assert sl.star_matrix(2).relabel_rows(omega) == omega


def test_star_monomial_rule(ex1):
    # flat coframe: star of a monomial is the signed complementary monomial
    sl = ex1.sl
    half = ex1.cx.half
    for p in range(half + 1):
        target = ex1.cx.hol_basis(half - p)
        for col, mono in enumerate(combinations(range(half), p)):
            rest = tuple(g for g in range(half) if g not in mono)
            sign, full = merge_monomials(mono, rest)
            assert full == tuple(range(half))
            image = [sign if m == rest else 0 for m in target]
            assert sl.star_matrix(p).mat().transpose().data[col] == tuple(image)


def test_star_squares_to_sign(corpus_sessions):
    for session in corpus_sessions:
        sl = session.sl
        half = session.cx.half
        for p in range(half + 1):
            m = sl.star_matrix(half - p).mat() @ sl.star_matrix(p).mat()
            expected = Mat.identity(m.nrows).scale((-1) ** p)
            assert m == expected


def test_star_is_the_inverse_of_the_wedge_matrix(corpus_sessions):
    # the star is read as the transpose of the wedge matrix, a signed
    # permutation; elimination inverts it independently
    sessions = corpus_sessions + [ReportSession(direct_sum_spec(
        load_corpus("example1"), load_corpus("torus8")))]
    for session in sessions:
        sl = session.sl
        for p in range(session.cx.half + 1):
            assert sl.star_matrix(p).mat() == inverse(sl.wedge_matrix(p).mat())


def test_star_checks_keep_their_failure_text(monkeypatch):
    # with the targets of two columns of the star on (2,0) swapped, each
    # star check names the first degree where the same identity, written
    # as products of the faulty star's matrices, fails
    session = ReportSession(load_corpus("example1"))
    sl, mc, half = session.sl, session.mc, session.cx.half
    good = sl.star_matrix

    def flipped(p):
        perm = good(p)
        if p != 2:
            return perm
        return SignedPermutation(perm.targets[1::-1] + perm.targets[2:], perm.signs)

    monkeypatch.setattr(sl, "star_matrix", flipped)
    detail = {r.name: (r.status, r.detail) for r in run_property_suite(session)}

    def star(p):
        return flipped(p).mat()

    def laplacian(p):
        up, down = mc.delta(p), mc.delta(p - 1)
        return up.transpose() @ up + down @ down.transpose()

    failing = {
        "star-involution": [
            p for p in range(half + 1) if star(half - p) @ star(p)
            != Mat.identity(len(session.cx.hol_basis(p))).scale((-1) ** p)],
        "star-adjoint": [
            p for p in range(half) if mc.delta(p).transpose()
            != -(star(half - p) @ mc.delta(half - p - 1) @ star(p + 1))],
        "star-laplacian": [
            p for p in range(half + 1)
            if star(p) @ laplacian(p) != laplacian(half - p) @ star(p)],
    }
    assert all(failing.values())
    for name, degrees in failing.items():
        assert detail[name] == ("fail", f"degree {degrees[0]}"), name


def test_pairing_matrices_invertible(corpus_sessions):
    for session in corpus_sessions:
        half = session.cx.half
        for p in range(half + 1):
            result = session.sl.pairing_matrix(p)
            assert result.invertible
            assert result.matrix.nrows == len(result.bc_basis.data)


def test_pairing_golden_degree_one(ex1):
    result = ex1.sl.pairing_matrix(1)
    values = [[str(x) for x in row] for row in result.matrix.data]
    assert values == [["0", "1"], ["-1", "0"]]


def _first_unit_row_moved(moved):
    """The unit row e_i, a one-row matrix, of the first row i where `moved`
    is nonzero."""
    i = next(i for i, row in enumerate(moved.data) if any(row))
    return Mat.identity(moved.nrows).block([i], range(moved.nrows))


def _first_row_replaced(reps, row):
    return row.vstack(reps.block(range(1, reps.nrows), range(reps.ncols)))


def test_pairing_refuses_aeppli_representatives_that_are_not_closed(monkeypatch, ex3):
    # example3 at degree 4 is the corpus's one pairing whose Bott-Chern
    # side has exact shifts, ddj out of degree 2; the first Aeppli
    # representative is replaced by a form that ddj does not annihilate
    sl, mc, p, q = ex3.sl, ex3.mc, 4, 2
    assert not mc.ddj(p - 2).is_zero()
    reps = sl._ae_representatives(q)
    row = _first_unit_row_moved(sl.wedge_matrix(p).inverse().mat() @ mc.ddj(p - 2))
    assert not (mc.ddj(q) @ row.transpose()).is_zero()
    faulty = _first_row_replaced(reps, row)
    monkeypatch.setattr(sl, "_ae_representatives", lambda degree: faulty)
    with pytest.raises(RepresentativeDependence, match="representatives by exact forms"):
        sl.pairing_matrix(p)


def test_pairing_refuses_bott_chern_representatives_that_are_not_closed(monkeypatch, ex1):
    # the first Bott-Chern representative at degree 1 is replaced by a
    # form that pairs against the image of [del | del_J] out of degree 2
    sl, mc, p = ex1.sl, ex1.mc, 1
    q = ex1.cx.half - p
    reps = sl._bc_representatives(p)
    side = mc.delta(q - 1).hstack(mc.delta_j(q - 1))
    row = _first_unit_row_moved(sl.wedge_matrix(p).mat() @ side)
    assert not (mc.delta(p).vstack(mc.delta_j(p)) @ row.transpose()).is_zero()
    faulty = _first_row_replaced(reps, row)
    monkeypatch.setattr(sl, "_bc_representatives", lambda degree: faulty)
    with pytest.raises(RepresentativeDependence, match="dual representatives by degenerate forms"):
        sl.pairing_matrix(p)


def test_degree_map_refuses_a_degenerate_shift_that_moves_it(monkeypatch):
    # d of a constant is zero, so [del | del_J] out of degree 0 is zero on
    # every structure and the check passes; with del_J out of degree 0
    # replaced by the identity, which the covector does not annihilate,
    # the degree profile must refuse before it reads a class
    session = ReportSession(load_corpus("example1"))
    mc = session.mc
    assert mc.delta(0).hstack(mc.delta_j(0)).is_zero()
    original = mc.delta_j
    monkeypatch.setattr(mc, "delta_j", lambda p: (
        Mat.identity(mc.dim(1)) if p == 0 else original(p)))
    with pytest.raises(RepresentativeDependence, match="degree map moved"):
        session.sl.degree_profile(standard_omega(session.cx))


def test_self_dual_decomposition(ex1, ex3):
    assert ex1.sl.sd_asd_decomposition() == (2, 2, True)
    with pytest.raises(NotSL2):
        ex3.sl.sd_asd_decomposition()


def _involution_complex(rng):
    """A star S with S^2 = 1 on a small degree 2, and a complex whose
    D = del(2) has an S-invariant kernel and E = del(1) lands in it."""
    size = rng.randint(2, 6)
    order = list(range(size))
    rng.shuffle(order)
    targets, signs = list(range(size)), [1] * size
    # swapped pairs with one sign each, and signed fixed points
    for i in range(0, size, 2):
        pair = order[i:i + 2]
        if len(pair) == 2 and rng.random() < 0.6:
            a, b = pair
            targets[a], targets[b] = b, a
            signs[a] = signs[b] = rng.choice((1, -1))
        else:
            for a in pair:
                signs[a] = rng.choice((1, -1))
    star = SignedPermutation(tuple(targets), tuple(signs))
    s_mat, identity = star.mat(), Mat.identity(size)

    def draw(nrows, ncols):
        return Mat.from_rows([[rng.randint(-2, 2) for _ in range(ncols)]
                              for _ in range(nrows)], ncols=ncols)

    # D x = 0 exactly when A (x + Sx) = 0 and B (x - Sx) = 0
    d = (draw(1, size) @ (identity + s_mat)).vstack(draw(1, size) @ (identity - s_mat))
    ker = kernel_basis(d)
    width = rng.randint(1, 3)
    e = (ker.transpose() @ draw(ker.nrows, width) if ker.nrows
         else Mat.zeros(size, width))
    dims = [1, width, size, d.nrows]
    dels = [Mat.zeros(width, 1), e, d]
    mc = MatrixComplex(dims, dels, [Mat.zeros(m.nrows, m.ncols) for m in dels])
    sl = SLStructure(SimpleNamespace(n=2), mc)
    sl.star_matrix = lambda p: star
    return sl


def test_self_dual_split_by_ranks_matches_the_subspace_reference():
    # S-invariant kernels exhaust; E is random in ker D, so the images
    # meet in Im E exactly when it splits under S, and either outcome
    # must agree with the intersected and summed subspaces
    rng = random.Random(20)
    outcomes = set()
    for _ in range(60):
        sl = _involution_complex(rng)
        plus, minus, split = reference_sd_asd(sl)
        outcomes.add(split)
        if split:
            assert sl.sd_asd_decomposition() == (plus, minus, True)
        else:
            with pytest.raises(DecompositionFailure, match="direct=False, exhausts=True"):
                sl.sd_asd_decomposition()
    assert outcomes == {True, False}


def test_self_dual_split_takes_no_kernel(monkeypatch):
    import quatcohom.cohomology as cohomology
    import quatcohom.linalg as linalg
    import quatcohom.slstructure as slstructure

    session = ReportSession(load_corpus("example1"))
    for p in (1, 2):
        session.mc.rank("del", p)
    taken = []

    def counting(matrix, original=linalg.kernel_basis):
        taken.append(matrix)
        return original(matrix)

    for module in (linalg, cohomology, slstructure):
        monkeypatch.setattr(module, "kernel_basis", counting, raising=False)
    assert session.sl.sd_asd_decomposition() == (2, 2, True)
    assert taken == []


def test_self_dual_split_refuses_loci_that_miss_closed_forms(monkeypatch):
    # one more rank of del out of degree 2 leaves fewer closed forms than
    # the two loci span; a missed direct sum is drawn in the test above
    session = ReportSession(load_corpus("example1"))
    mc = session.mc
    original = mc.rank
    monkeypatch.setattr(mc, "rank", lambda name, p: original(name, p) + (
        (name, p) == ("del", 2)))
    with pytest.raises(DecompositionFailure, match="direct=True, exhausts=False"):
        session.sl.sd_asd_decomposition()


def test_jbar_decomposition_example1(ex1):
    rep = ex1.sl.decomposition_report()
    assert (rep.jbar_plus_dim, rep.jbar_minus_dim) == (2, 2)
    assert rep.pure and rep.full
    assert rep.intersection_dim == 0
    assert rep.phi_plus_dim == 2 and rep.phi_minus_dim == 2
    assert rep.representatives_plus.nrows == rep.jbar_plus_real_dim


def test_jbar_decomposition_example3(ex3):
    rep = ex3.sl.decomposition_report()
    assert not rep.pure and not rep.full
    assert rep.intersection_dim == 2
    assert rep.complement_dim == 2
    assert rep.phi_plus_dim is None
    assert str(rep.jbar_plus_dim) == "9/2"


def test_decomposition_matches_subspace_reference(corpus_sessions):
    # the engine counts the loci by ranks of stacked operators and reads
    # the minus locus off the plus one, times i; the reference intersects
    # and sums the subspaces themselves, each locus its own kernel
    sessions = corpus_sessions + [
        ReportSession(load_corpus("example2"), {"t": Fraction(2)}),
        ReportSession(direct_sum_spec(load_corpus("example1"), load_corpus("torus8")))]
    for session in sessions:
        assert session.sl.decomposition_report() == \
            reference_decomposition(session.sl)


def test_degree_profile_example1(ex1):
    omega = standard_omega(ex1.cx)
    profile = ex1.sl.degree_profile(omega)
    assert [str(v) for v in profile] == ["0", "0", "0", "1"]


def test_degree_bound_not_enforced_beyond_dimension_two(ex3):
    # h_AE(1) = 6 exceeds h_del(1) + 1 = 5 here, which is fine: the bound
    # is a dimension-two theorem and must not be applied in dimension three
    profile = ex3.sl.degree_profile(standard_omega(ex3.cx))
    assert len(profile) == ex3.mc.h_ae(1) == 6


def test_degree_map_matches_the_form_wedge_route(corpus_sessions):
    # the bilinear form (D_1 alpha)^T W Omega^{n-1} against the integral
    # of del(alpha) ^ Omega^{n-1} ^ conj(phi), wedged form by form, on
    # every Aeppli representative, in the order of the basis rows; on
    # every del-closed one the profile checks that the form vanishes, and
    # so must the wedge
    for session in corpus_sessions:
        cx, sl = session.cx, session.sl
        route = FormRoute(cx)
        omega = standard_omega(cx)
        profile = sl.degree_profile(omega)
        reps = sl._ae_representatives(1)
        assert len(profile) == reps.nrows == session.mc.h_ae(1)
        for rep, value in zip(reps.data, profile):
            assert value == form_degree_map(route, omega.data[0], rep)
        for rep in session.mc.closed(1).data:
            assert form_degree_map(route, omega.data[0], rep) == 0


def test_degree_profile_takes_one_covector(monkeypatch, ex1):
    import quatcohom.slstructure as slstructure

    powers = []

    def counting(cx, omega, original=slstructure.omega_power):
        powers.append(omega)
        return original(cx, omega)

    monkeypatch.setattr(slstructure, "omega_power", counting)
    profile = ex1.sl.degree_profile(standard_omega(ex1.cx))
    assert [str(v) for v in profile] == ["0", "0", "0", "1"]
    assert len(powers) == 1


def test_report_builds_each_class_basis_once(monkeypatch):
    # example1's standard form is Gauduchon, so the suite's pairing at
    # degree 3 and its degree map both read the degree-one Aeppli basis
    import quatcohom.slstructure as slstructure
    from quatcohom.report import build_report_from_session

    picks = Counter()

    def counting(big, small, original=slstructure.complement_basis):
        picks[big, small] += 1
        return original(big, small)

    monkeypatch.setattr(slstructure, "complement_basis", counting)
    session = ReportSession(load_corpus("example1"))
    build_report_from_session(session)
    mc = session.mc
    aeppli_one = (row_basis(kernel_basis(mc.ddj(1))), mc.delta(0).hstack(mc.delta_j(0)))
    assert picks[aeppli_one] == 1
    # one pick per basis: both bases of every degree for the pairings, and
    # the plus and minus representatives of the Jbar decomposition
    assert sum(picks.values()) == 2 * (mc.top + 1) + 2


def _ones(nrows, ncols):
    return Mat.from_rows([[1] * ncols] * nrows, ncols=ncols)


def _degree_profile_faults(mc, sl):
    """Each patch of the complex behind the degree map, with the error
    it must raise and that error's text."""
    ddj, closed, h_ae = mc.ddj, mc.closed, mc.h_ae
    # a degree-one class of nonzero degree, offered as a del-closed one
    reps = sl._ae_representatives(1)
    moved = next(reps.block([i], range(reps.ncols)) for i, value
                  in enumerate(sl.degree_profile(standard_omega(sl.cx))) if value)
    return {
        # del into the top degree vanishes on every structure, so no form
        # fails the Gauduchon equation; a nonzero ddj out of 2n-2 must
        "not-gauduchon": (
            "ddj", lambda p: _ones(1, mc.dim(p)) if p == 2 else ddj(p),
            NotGauduchon, "del del_J of Omega"),
        "not-aeppli-closed": (
            "ddj", lambda p: _ones(1, mc.dim(p)) if p == 1 else ddj(p),
            NotAeppliClosed, "not del del_J-closed"),
        "aeppli-bound": (
            "h_ae", lambda p: h_ae(p) + 2 * (p == 1),
            TheoremViolation, r"h_AE\(1\) = 6 exceeds h_del\(1\) \+ 1 = 4"),
        "closed-classes": (
            "closed", lambda p: moved if p == 1 else closed(p),
            TheoremViolation, "does not vanish on a del-closed class"),
    }


@pytest.mark.parametrize("fault", ["not-gauduchon", "not-aeppli-closed",
                                   "aeppli-bound", "closed-classes"])
def test_degree_profile_refuses_each_fault(monkeypatch, fault):
    session = ReportSession(load_corpus("example1"))
    name, patched, error, text = _degree_profile_faults(session.mc, session.sl)[fault]
    monkeypatch.setattr(session.mc, name, patched)
    with pytest.raises(error, match=text):
        session.sl.degree_profile(standard_omega(session.cx))


def test_volume_form_guard():
    # valid hypercomplex structure, but not nilpotent: the top form
    # picks up a (2n,1) differential and the complex must refuse it
    spec = affine_complex_spec()
    inst = instantiate(spec)
    with pytest.raises(NotHolomorphic, match=r"the \(2n,1\) component"):
        QuaternionicComplex(inst, _build_coframe(inst), validate_hypercomplex(spec))


def test_real_volume_form_guard(monkeypatch):
    # J with its sign flipped on phi^1, extended as an algebra map: Jbar
    # changes sign on every (p,0) form holding phi^1, the top form among
    # them, and the complex must refuse it
    good = QuaternionicComplex._j_map

    def flipped(self, p):
        perm = good(self, p)
        return SignedPermutation(perm.targets, tuple(
            -sign if 0 in mono else sign
            for mono, sign in zip(self.hol_basis(p), perm.signs)))

    monkeypatch.setattr(QuaternionicComplex, "_j_map", flipped)
    with pytest.raises(NotReal, match="^the coframe top form is not Jbar-real$"):
        QuaternionicComplex.build(load_corpus("example1"))


def test_adjoint_identity_spot_check(ex1):
    # conj-transpose of del at degree p equals -S del(2n-p-1) S
    cx, mc, sl = ex1.cx, ex1.mc, ex1.sl
    half = cx.half
    p = 1
    lhs = mc.delta(p).transpose()
    lhs = Mat.from_rows(
        [[x.conjugate() for x in row] for row in lhs.data],
        ncols=lhs.ncols)
    rhs = (sl.star_matrix(half - p).mat() @ mc.delta(half - p - 1)
           @ sl.star_matrix(p + 1).mat()).scale(-1)
    assert lhs == rhs
