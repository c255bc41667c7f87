"""Tests for the exact integer linear algebra layer."""

import itertools
import json
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from coxeter_ehrhart.ehrhart import ZonotopeFormatError, ZonotopeSpec, parse_zonotope_document
from coxeter_ehrhart.linalg import (
    _directions,
    echelon,
    int_vector,
    rank,
    rat_vector,
)
from helpers import (
    IntegerEchelon,
    chi,
    count_parallelepiped_points,
    determinant,
    dot,
    echelon_rank,
    hermite_form,
    integer_kernel_basis,
    relative_volume,
    zonotope_contains,
)


def test_int_vector_rejects_fractions():
    assert int_vector([1, -2, 0]) == (1, -2, 0)
    with pytest.raises(ValueError):
        int_vector([1, Fraction(1, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: int_vector([True, 0]),
        lambda: rat_vector([False, "1/2"]),
        lambda: ZonotopeSpec.make([(True, 0)], [0, "1/2"]),
        lambda: ZonotopeSpec.make([(1, 0)], [False, "1/2"]),
        lambda: zonotope_contains(ZonotopeSpec.make([(1, 0)]), 1, (True, 0)),
    ],
    ids=["int_vector", "rat_vector", "generator", "shift", "point"],
)
def test_vectors_reject_bool_entries(call):
    with pytest.raises(ValueError, match="entry (True|False) in"):
        call()


def test_rat_vector_accepts_mixed_input():
    assert rat_vector([1, "1/2", Fraction(2, 4)]) == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_rat_vector_names_an_entry_past_the_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    limit = sys.get_int_max_str_digits()
    digits = "3" * 641
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=r"shift\[0\] is too long to read") as raised:
            rat_vector(["1/" + digits, 0], "shift")
        assert digits not in str(raised.value)
        document = json.dumps({"generators": [[1, 0]], "shift": ["1/" + digits, 0]})
        with pytest.raises(ZonotopeFormatError, match=r"shift\[0\] is too long to read") as raised:
            parse_zonotope_document(document)
        assert digits not in str(raised.value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_entry_past_the_digit_limit_is_named_by_its_size():
    # the Fraction's repr cannot be formed, so the message shows its type and size
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=r"generators\[0\]") as raised:
            ZonotopeSpec([(Fraction(10**700, 3), 0)])
        message = str(raised.value)
        assert "Fraction of about 701 digits" in message
        assert len(message) < 200
        # any other type shows by its name alone
        with pytest.raises(ValueError) as raised:
            ZonotopeSpec([([10**700], 0)])
        assert str(raised.value) == (
            "non-integer entry list too long to show in generators[0]: expected integer entries"
        )
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "document, name",
    [
        ({"generators": [[1, 0]], "shift": ["1/" + "3" * 5001 + "x", 0]}, "shift[0]"),
        ({"generators": [["3" * 5001, 0]]}, "generators[0]"),
    ],
    ids=["shift", "generator"],
)
def test_a_long_refused_entry_is_not_echoed_in_full(document, name):
    with pytest.raises(ZonotopeFormatError) as raised:
        parse_zonotope_document(json.dumps(document))
    message = str(raised.value)
    assert name in message
    assert len(message) < 200


def test_dot_requires_matching_lengths():
    assert dot((1, 2), (3, 4)) == 11
    with pytest.raises(ValueError):
        dot((1, 2), (3,))


def test_determinant_small_cases():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1


def test_determinant_matches_permanent_style_expansion():
    rng = random.Random(1201)
    for size in (3, 4):
        for _ in range(25):
            m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
            expected = 0
            for perm in itertools.permutations(range(size)):
                sign = 1
                for a in range(size):
                    for b in range(a + 1, size):
                        if perm[a] > perm[b]:
                            sign = -sign
                term = sign
                for r, c in enumerate(perm):
                    term *= m[r][c]
                expected += term
            assert determinant(m) == expected


def test_rank_examples():
    assert rank([], dim=3) == 0
    assert rank([(0, 0)]) == 0
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank([(1, 1, 0), (0, 1, 1), (1, 0, -1)]) == 2
    assert rank([(0, 0, 0), (0, 0, 0)], dim=3) == 0
    # the third row is twice the first plus the second
    assert rank([(1, 2, 0, -1), (0, 1, 1, 2), (2, 5, 1, 0)]) == 2
    with pytest.raises(ValueError):
        rank([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        rank([(1, 2)], dim=3)


def test_relative_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        relative_volume([])
    with pytest.raises(ValueError):
        relative_volume([(1, 2), (2, 4)])


def test_relative_volume_single_vectors_exhaustive():
    for v in itertools.product(range(-2, 3), repeat=2):
        if v == (0, 0):
            continue
        assert relative_volume([v]) == count_parallelepiped_points([v])


def test_relative_volume_pairs_exhaustive_dim2():
    vecs = [v for v in itertools.product(range(-2, 3), repeat=2) if v != (0, 0)]
    for u, w in itertools.combinations(vecs, 2):
        if rank([u, w]) < 2:
            continue
        assert relative_volume([u, w]) == abs(determinant([u, w]))
        assert relative_volume([u, w]) == count_parallelepiped_points([u, w])


def test_relative_volume_sampled_dim3():
    rng = random.Random(20250816)
    checked_pairs = checked_triples = 0
    while checked_pairs < 40 or checked_triples < 40:
        k = rng.choice((2, 3))
        vecs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(k)]
        if any(v == (0, 0, 0) for v in vecs) or rank(vecs) < k:
            continue
        assert relative_volume(vecs) == count_parallelepiped_points(vecs)
        if k == 2:
            checked_pairs += 1
        else:
            checked_triples += 1


def test_relative_volume_is_sign_and_order_invariant():
    base = [(1, -1, 0), (1, 1, 2)]
    expected = relative_volume(base)
    assert relative_volume(base[::-1]) == expected
    assert relative_volume([(-1, 1, 0), (1, 1, 2)]) == expected


def test_echelon_tracks_rank_and_independence():
    ech = IntegerEchelon(3)
    ech1 = ech.try_add((1, 2, 3))
    assert ech1 is not None and ech1.rank == 1
    assert ech1.try_add((2, 4, 6)) is None
    ech2 = ech1.try_add((0, 1, 1))
    assert ech2 is not None and ech2.rank == 2
    # the parent instances are untouched (copy on extend)
    assert ech.rank == 0 and ech1.rank == 1


def test_echelon_residual_vanishes_exactly_on_span():
    rows = [(2, 0, 1), (0, 3, 1)]
    ech = IntegerEchelon(3)
    for row in rows:
        ech = ech.try_add(row)
    assert ech.residual((2, 3, 2)) == [0, 0, 0]
    assert ech.residual((4, -3, 1)) == [0, 0, 0]
    assert any(ech.residual((1, 1, 1)))


def test_echelon_random_agrees_with_rank():
    rng = random.Random(77)
    for _ in range(200):
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        ech = IntegerEchelon(d)
        added = 0
        for v in vecs:
            nxt = ech.try_add(v)
            if nxt is not None:
                ech = nxt
                added += 1
        assert added == rank(vecs, dim=d)


def test_echelon_reduces_the_rows_it_is_given_on_its_width():
    rng = random.Random(3401)
    for _ in range(400):
        cols = rng.randint(1, 6)
        width = rng.randint(0, cols)
        given = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rng.randint(0, 6))]
        copies = [list(row) for row in given]
        rows = list(given)
        r = echelon(rows, width)
        # the rank of the first `width` columns, by the helper's own echelon
        assert r == echelon_rank([row[:width] for row in given], width)
        assert all(not any(row[:width]) for row in rows[r:])
        # unimodular: the rows, carried columns and all, span the same lattice
        assert hermite_form(rows, cols) == hermite_form(given, cols)
        # reduced rows are new lists; the row objects passed in are unchanged
        assert given == copies
        assert len(rows) == len(given)


def test_directions_match_a_reference_canonical_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def reference(columns):
        # divide by the gcd, negate when the first nonzero entry is negative,
        # sum the contents; zero columns are dropped, keys in first-seen order
        out = {}
        for col in columns:
            g = gcd(*col)
            if g:
                p = [e // g for e in col]
                if next(e for e in p if e) < 0:
                    p = [-e for e in p]
                out[tuple(p)] = out.get(tuple(p), 0) + g
        return out

    @st.composite
    def column_lists(draw):
        d = draw(st.integers(1, 4))
        base = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=6))
        # negations, multiples (0 among them) and repeats of the columns drawn
        scaled = [
            tuple(k * e for e in draw(st.sampled_from(base)))
            for k in draw(st.lists(st.sampled_from((1, -1, 2, -2, 3, 0)), max_size=6 if base else 0))
        ]
        return draw(st.permutations(base + scaled))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(column_lists())
    @hypothesis.example([])
    @hypothesis.example([(0, 2, -4), (0, 0, 0), (3, 0, 1), (0, -1, 2)])
    def check(columns):
        assert list(_directions(columns).items()) == list(reference(columns).items())

    check()


def test_kernel_basis_orthogonal_and_saturated():
    rng = random.Random(4242)
    for _ in range(150):
        d = rng.randint(1, 4)
        nrows = rng.randint(0, d)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(nrows)]
        basis = integer_kernel_basis(rows, dim=d)
        # the helper's echelon, not linalg.rank, which shares the package's reduction
        assert len(basis) == d - echelon_rank(rows, d)
        for f in basis:
            for row in rows:
                assert dot(f, row) == 0
        if basis:
            assert echelon_rank(basis, d) == len(basis)
            # saturated: the basis spans the full integer kernel lattice
            assert relative_volume(basis) == 1


def test_kernel_step_folds_to_volume_and_saturated_kernel():
    rng = random.Random(5151)
    for _ in range(300):
        d = rng.randint(1, 5)
        c = rng.randint(1, 6)
        shift = [Fraction(rng.randint(-2 * c, 2 * c), c) for _ in range(d)]
        pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)) if any(v)]
        if not pool:
            continue
        # parallel and repeated draws make many steps dependent
        vectors = [tuple(rng.choice((-2, -1, 1, 2)) * x for x in rng.choice(pool)) for _ in range(6)]
        # trailing unit columns are never tried: their pairings are the
        # coordinates of the kernel basis the rows stand for; the shift's
        # pairings, unreduced, ride last
        identity = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        rows = [[*col, int(c * s)] for col, s in zip(zip(*(vectors + identity)), shift)]
        independent, chosen, volume, offset = IntegerEchelon(d), [], 1, 0
        for i, v in enumerate(vectors):
            before = [list(row) for row in rows]
            # the walk's step: echelon on the rows cut to start at the column, on it alone
            tails = [row[i - offset :] for row in rows]
            pivots = echelon(tails, 1)
            # the walk steps every column of one node from the same rows
            assert [list(row) for row in rows] == before
            extended = independent.try_add(v)
            assert (pivots == 0) == (extended is None)
            if not pivots:
                continue
            factor, rows = abs(tails[0][0]), tails[1:]
            # the child starts at the stepped column, which is all 0 there
            independent, volume, offset = extended, volume * factor, i
            assert not any(row[0] for row in rows)
            chosen.append(v)
            assert volume == relative_volume(chosen)
            kernel = tuple(row[-d - 1 : -1] for row in rows)
            reference = integer_kernel_basis(chosen, dim=d)
            assert len(kernel) == len(reference)
            assert tuple(row[-1] % c for row in rows) == tuple(int(c * dot(f, shift)) % c for f in kernel)
            if kernel:
                # both bases lie in the same rational space and both are
                # saturated, so they span the same lattice
                assert rank(list(kernel) + reference, dim=d) == len(reference)
                assert relative_volume(kernel) == 1


def test_kernel_step_carries_the_kernel_pairings_with_later_generators():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def walks(draw):
        d = draw(st.integers(1, 5))
        c = draw(st.integers(1, 6))
        shift = [Fraction(draw(st.integers(-2 * c, 2 * c)), c) for _ in range(d)]
        entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        pool = draw(st.lists(entries, min_size=1, max_size=4))
        # integer combinations of a small pool: parallel, repeated and
        # later-dependent generators are all common
        mix = st.lists(st.integers(-2, 2), min_size=len(pool), max_size=len(pool))
        gens = [
            tuple(sum(k * v[j] for k, v in zip(coeffs, pool)) for j in range(d))
            for coeffs in draw(st.lists(mix, max_size=7))
        ]
        gens = [g for g in gens if any(g)]
        tried = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
        return d, c, shift, gens, tried

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(walks())
    # (2, 2, 0) is independent of (1, 0, 0) alone and dependent once (0, 1, 0) is in
    @hypothesis.example(
        (3, 2, [Fraction(1, 2), 0, Fraction(1, 2)], [(1, 0, 0), (0, 1, 0), (2, 2, 0), (0, 0, 2)], [True] * 4)
    )
    # skips the first column; the last pick leaves rows of the residue alone
    @hypothesis.example(
        (2, 3, [Fraction(1, 3), Fraction(2, 3)], [(1, 1), (1, -1), (2, 0)], [False, True, True])
    )
    @hypothesis.example((2, 2, [Fraction(1, 2), 0], [], []))
    def check(walk):
        d, c, shift, gens, tried = walk

        def check_rows():
            """The rows pair a saturated kernel of span(chosen) with gens[offset:]
            and, last, with c * shift."""
            assert len(rows) == d - len(chosen)
            assert all(len(row) == len(gens) - offset + 1 for row in rows)
            for j, g in enumerate(gens[offset:]):
                column = [row[j] for row in rows]
                extends = independent.try_add(g) is not None
                assert extends == any(column)
                if extends:
                    assert gcd(*column) * volume == relative_volume(chosen + [g])
            pairings = (int(c * dot(f, shift)) % c for f in integer_kernel_basis(chosen, dim=d))
            assert c // gcd(c, *(row[-1] % c for row in rows)) == c // gcd(c, *pairings)

        # with no generators, d rows of the residue alone
        rows = [[*(g[i] for g in gens), int(c * s)] for i, s in enumerate(shift)]
        independent, chosen, volume, offset = IntegerEchelon(d), [], 1, 0
        check_rows()
        for i, g in enumerate(gens):
            if not tried[i]:
                continue
            before = [list(row) for row in rows]
            tails = [row[i - offset :] for row in rows]
            pivots = echelon(tails, 1)
            assert [list(row) for row in rows] == before
            extended = independent.try_add(g)
            assert (pivots == 0) == (extended is None)
            if not pivots:
                continue
            factor, rows = abs(tails[0][0]), tails[1:]
            independent, volume, offset = extended, volume * factor, i
            chosen.append(g)
            assert volume == relative_volume(chosen)
            check_rows()

    check()


def test_cross_product_with_a_primitive_vector_gates_as_its_saturated_kernel():
    """For a primitive p in Z^3, p x Z^3 is the lattice p^perp ∩ Z^3, so the
    entries of p x q and the pairings of q with a saturated kernel basis of
    p have the same gcd with every modulus c."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        p = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=3).filter(any))
        g = gcd(*p)
        q = draw(st.lists(st.integers(-30, 30), min_size=3, max_size=3))
        return tuple(x // g for x in p), tuple(q), draw(st.integers(1, 12))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    # the kernel of (1, 2, 0) is spanned by (2, -1, 0) and (0, 0, 1): pairings -1, 3
    @hypothesis.example(((1, 2, 0), (0, 1, 3), 6))
    # p x q = (4, -2, 2) and the pairings 2 and 4: both gcds with 4 are 2
    @hypothesis.example(((0, -1, -1), (2, 2, -2), 4))
    def check(case):
        p, q, c = case
        cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        assert gcd(c, *cross) == gcd(c, *(dot(f, q) for f in integer_kernel_basis([p])))

    check()


def test_minors_with_q_over_their_content_gate_as_the_saturated_kernel_in_z4():
    """For k = 1, 2 or 3 independent vectors of Z^4 (a primitive vector, a
    pair whose 2x2 minors have content h, a triple whose 3x3 minors have
    content h_3), the (k+1)x(k+1) minors of the vectors beside q, divided by
    that content, and the pairings of q with a saturated kernel basis of
    their span have the same gcd with every modulus c."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def minors(columns):
        return [
            determinant([[v[i] for v in columns] for i in chosen])
            for chosen in itertools.combinations(range(4), len(columns))
        ]

    vector = st.lists(st.integers(-4, 4), min_size=4, max_size=4).map(tuple)

    @st.composite
    def cases(draw):
        k = draw(st.integers(1, 3))
        vectors = draw(st.lists(vector, min_size=k, max_size=k).filter(lambda vs: any(minors(vs))))
        if k == 1:
            g = gcd(*vectors[0])
            vectors = [tuple(x // g for x in vectors[0])]
        q = draw(st.lists(st.integers(-30, 30), min_size=4, max_size=4).map(tuple))
        return vectors, q, draw(st.integers(1, 12))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    # the pair e_1, (1, 2, 0, 0) has h = 2 and spans e_1, e_2: with q = (0, 1, 3, 0)
    # the minors are (6, 0, 0, 0), so gcd(6, 6 / 2) = 3 is the gate of the
    # pairing 3 with e_3; without the division the gate would read 6
    @hypothesis.example(([(1, 0, 0, 0), (1, 2, 0, 0)], (0, 1, 3, 0), 6))
    # the triple e_1, e_2, (0, 0, 3, 0) has h_3 = 3 and its kernel is e_4:
    # det = 3 over 3 pairs to gate 1 with c = 6, not 3
    @hypothesis.example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0)], (0, 0, 0, 1), 6))
    # the primitive (2, 3, 0, 0) has no unit entry
    @hypothesis.example(([(2, 3, 0, 0)], (1, 1, 0, 0), 4))
    def check(case):
        vectors, q, c = case
        content = gcd(*minors(vectors))
        with_q = [m // content for m in minors([*vectors, q])]
        assert all(m % content == 0 for m in minors([*vectors, q]))
        assert gcd(c, *with_q) == gcd(c, *(dot(f, q) for f in integer_kernel_basis(vectors)))

    check()


def test_kernel_basis_of_empty_input_spans_everything():
    basis = integer_kernel_basis([], dim=3)
    assert len(basis) == 3
    assert relative_volume(basis) == 1


def test_kernel_basis_refuses_an_unknown_or_non_positive_dimension():
    with pytest.raises(ValueError, match="cannot be inferred from no vectors"):
        integer_kernel_basis([])
    for dim in (0, -1):
        with pytest.raises(ValueError, match="ambient dimension must be positive"):
            integer_kernel_basis([], dim=dim)


def test_kernel_vectors_are_primitive():
    basis = integer_kernel_basis([(2, 4, 6)], dim=3)
    assert len(basis) == 2
    for f in basis:
        assert dot(f, (2, 4, 6)) == 0


def test_chi_examples():
    half = (Fraction(1, 2), Fraction(1, 2))
    # the diagonal functional pairs integrally with the half-half shift
    for t in range(1, 7):
        assert chi(half, [(1, -1)], t) == 1
    off = (Fraction(1, 2), Fraction(0))
    for t in range(1, 7):
        assert chi(off, [(0, 1)], t) == (1 if t % 2 == 0 else 0)
    # full-rank system: every dilate meets the lattice
    for t in range(1, 5):
        assert chi(off, [(1, 0), (0, 1)], t) == 1


def test_chi_empty_span_reduces_to_shift_integrality():
    third = (Fraction(1, 3),)
    for t in range(1, 10):
        assert chi(third, [], t) == (1 if t % 3 == 0 else 0)


def test_chi_invariances():
    shift = (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    vectors = [(1, -1, 0), (0, 2, 1)]
    for t in (1, 2, 3, 4, 5, 6):
        base = chi(shift, vectors, t)
        # negating a generator spans the same line arrangement
        assert chi(shift, [(-1, 1, 0), (0, 2, 1)], t) == base
        # translating the shift by an integer vector never matters
        moved = tuple(s + k for s, k in zip(shift, (3, -2, 1)))
        assert chi(moved, vectors, t) == base
    # at t equal to the denominator lcm the shift dissolves entirely
    assert chi(shift, vectors, 6) == chi((Fraction(0),) * 3, vectors, 6) == 1


def test_chi_is_one_whenever_the_shifted_point_is_integral():
    rng = random.Random(55)
    for _ in range(50):
        d = rng.randint(1, 3)
        den = rng.choice((1, 2, 3))
        shift = tuple(Fraction(rng.randrange(den), den) for _ in range(d))
        vectors = [
            tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d))
        ]
        t = den * rng.randint(1, 3)  # t·shift is an integer vector
        assert chi(shift, vectors, t) == 1


def test_chi_validates_dilation():
    with pytest.raises(ValueError):
        chi((Fraction(1, 2),), [], 0)
    with pytest.raises(ValueError):
        chi((Fraction(1, 2),), [], -3)
