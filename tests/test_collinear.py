from fractions import Fraction

import pytest

from kellerlab import (
    CollisionWitness,
    Fp,
    LineData,
    Matrix,
    PolyMap,
    PrimeField,
    QQ,
    collision_search,
    find_rank_drop,
    verify_coefficient_rank,
    generalized_vandermonde,
    line_injectivity,
    line_restriction,
    verify_collision_obstruction,
)
from kellerlab.errors import (
    BudgetExceeded,
    PreconditionFailed,
    TheoremViolation,
    ZeroDirection,
)

from conftest import P, naive_collision_search, pmap, random_mpoly, rng_for

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


class TestLineRestriction:
    def test_square_component_over_f5(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1, degrees=[0, 1, 2])
        assert line.degrees == (0, 1, 2)
        # G(t) = (t^2 - 1, 0); -1 is 4 mod 5
        assert line.C == Matrix(F5, [[4, 0, 1], [0, 0, 0]])

    def test_default_degrees_are_the_support(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1)
        assert line.degrees == (0, 2)
        assert line.C == Matrix(F5, [[4, 1], [0, 0]])

    def test_identity_single_degree(self):
        F = PolyMap.identity(QQ, 2)
        line = line_restriction(F, [1, 0], 0)
        assert line.degrees == (1,)
        assert line.C == Matrix(QQ, [[1], [0]])

    def test_constant_map_gives_zero_matrix(self):
        F = pmap(QQ, 2, "3", "1/2")
        line = line_restriction(F, [1, 1], 0, degrees=[0, 1])
        assert line.C.is_zero()

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            line_restriction(PolyMap.identity(QQ, 2), [0, 0], 0)

    def test_reconstruction_matches_restriction(self):
        rng = rng_for("line-reconstruct")
        for field in (QQ, F5):
            for _ in range(20):
                F = PolyMap(field, 2, [random_mpoly(rng, field, 2) for _ in range(2)])
                b = [field.coerce(rng.randint(-2, 2)) for _ in range(2)]
                if all(not x for x in b):
                    b = [field.one, field.zero]
                base = field.coerce(rng.randint(-2, 2))
                line = line_restriction(F, b, base)
                anchor = F.evaluate([base * x for x in b])
                for i in range(2):
                    direct = F.components[i].restrict_to_line(b) - anchor[i]
                    assert line.component(i) == direct


class TestGenlmCheck:
    def test_worked_f5_instance(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1, degrees=[0, 1, 2])
        assert verify_coefficient_rank(line, [1, 4]) is True

    def test_zero_matrix_is_vacuously_fine(self):
        F = pmap(QQ, 2, "3", "4")
        line = line_restriction(F, [1, 0], 0, degrees=[0, 1])
        assert verify_coefficient_rank(line, [2]) is True

    def test_single_root_always_passes(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 2])
        assert verify_coefficient_rank(line, [1]) is True

    def test_unvanished_parameter_rejected(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 2])
        with pytest.raises(PreconditionFailed):
            verify_coefficient_rank(line, [2])

    def test_wrong_degree_count_rejected(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 1, 2])
        with pytest.raises(PreconditionFailed):
            verify_coefficient_rank(line, [1, -1, 0])

    def test_rank_deficient_vandermonde_rejected(self):
        # over F_3 the rows for t^1 and t^3 agree pointwise, so the
        # (0, 1, 3) Vandermonde on distinct points cannot reach rank 3
        F = pmap(F3, 1, "x1 - x1^3")
        line = line_restriction(F, [1], 0, degrees=[0, 1, 3, 4])
        with pytest.raises(PreconditionFailed) as err:
            verify_coefficient_rank(line, [0, 1, 2])
        assert "Vandermonde" in str(err.value)

    def test_constructed_random_instances_always_pass(self):
        # build C with rows proportional to the left kernel of the
        # (r+1) x r Vandermonde block, so C * A^{(r+1, r)} = 0 holds by
        # construction and every hypothesis is satisfied
        rng = rng_for("coefficient-rank-random")
        for field in (QQ, F5):
            universe = list(range(field.characteristic or 10))
            for _ in range(25):
                r = rng.randint(1, 3)
                if len(universe) <= r:
                    continue
                points = [field.coerce(x) for x in rng.sample(universe, r)]
                degrees = sorted(rng.sample(range(6), r + 1))
                # the hypothesis is full rank of the leading r x r block
                if generalized_vandermonde(field, points, degrees[:r]).rank() != r:
                    continue
                block = generalized_vandermonde(field, points, degrees)
                left_kernel = block.transpose().kernel_basis()
                assert left_kernel.ncols == 1
                v = left_kernel.column(0)
                rows = []
                for _ in range(rng.randint(1, 3)):
                    scale = field.coerce(rng.randint(-3, 3))
                    rows.append([scale * e for e in v])
                line = LineData(
                    b=(field.one,),
                    base=points[0],
                    degrees=tuple(degrees),
                    C=Matrix(field, rows, ncols=r + 1),
                )
                assert verify_coefficient_rank(line, points) is True


class TestFindRankDrop:
    def test_worked_f5_witness(self):
        F = pmap(F5, 2, "x1^2", "x2")
        result = find_rank_drop(F, [1, 0], [1, 4], [0, 1, 2])
        assert result.value == Fp(0, 5)
        # at the drop point the Jacobian rank falls below the dimension
        jac = F.jacobian().evaluate([Fp(0, 5), Fp(0, 5)])
        assert jac.rank() == 1 < 2

    def test_constant_on_line_gives_arbitrary_parameter(self):
        F = pmap(QQ, 2, "x2", "x2 + 1")
        result = find_rank_drop(F, [1, 0], [0, 1], [0, 1, 2])
        assert result.value == Fraction(0)
        assert result.derivative.is_zero()

    def test_rational_root_absent_is_an_outcome(self):
        # t^4 - t vanishes at 0 and 1, but its derivative 4t^3 - 1 has no
        # rational root; the witness lives only in an extension field
        F = pmap(QQ, 1, "x1^4 - x1")
        result = find_rank_drop(F, [1], [0, 1], [0, 1, 4])
        assert result.value is None
        assert result.derivative.support() == (0, 3)

    def test_remark_regime_fails_the_rank_hypothesis(self):
        # the (0, 1, q, q+1) degree pattern over F_q: distinct points can
        # never give the required full-rank Vandermonde block since t^q = t
        F = pmap(F3, 1, "x1 - x1^3")
        with pytest.raises(PreconditionFailed) as err:
            find_rank_drop(F, [1], [0, 1, 2], [0, 1, 3, 4])
        assert "Vandermonde" in str(err.value)

    def test_unequal_values_rejected(self):
        F = pmap(QQ, 1, "x1^2")
        with pytest.raises(PreconditionFailed):
            find_rank_drop(F, [1], [0, 1], [0, 1, 2])

    def test_uncovered_support_rejected(self):
        F = pmap(QQ, 1, "x1^4 - x1")
        with pytest.raises(PreconditionFailed):
            find_rank_drop(F, [1], [0, 1], [0, 1, 3])

    def test_found_parameter_always_drops_rank(self):
        rng = rng_for("rank-drop-prop")
        found = 0
        for _ in range(40):
            c = rng.randint(1, 4)
            F = pmap(F5, 2, f"x1^2 - {c}*x1", "x2")
            # roots of t^2 - c t: 0 and c; use those as collision params
            params = [0, c]
            result = find_rank_drop(F, [1, 0], params, [0, 1, 2])
            if result.value is None:
                continue
            found += 1
            point = [result.value * x for x in (F5.one, F5.zero)]
            jac = F.jacobian().evaluate(point)
            assert jac.rank() < 2
        assert found > 0


class TestVerifyGencr:
    def test_square_map_over_f5(self):
        F = pmap(F5, 2, "x1^2", "x2")
        witness = CollisionWitness(
            b=(Fp(1, 5), Fp(0, 5)),
            base=(Fp(0, 5), Fp(0, 5)),
            params=(Fp(1, 5), Fp(4, 5)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=True,
        )
        assert verify_collision_obstruction(F, witness) is True

    def test_characteristic_dividing_top_degree_rejected(self):
        F = pmap(F2, 1, "x1 - x1^2")
        witness = CollisionWitness(
            b=(Fp(1, 2),),
            base=(Fp(0, 2),),
            params=(Fp(0, 2), Fp(1, 2)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=False,
        )
        with pytest.raises(PreconditionFailed) as err:
            verify_collision_obstruction(F, witness)
        assert "characteristic" in str(err.value)

    def test_no_collision_rejected(self):
        F = pmap(F3, 1, "x1 + x1^2")
        witness = CollisionWitness(
            b=(Fp(1, 3),),
            base=(Fp(0, 3),),
            params=(Fp(0, 3), Fp(1, 3)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=True,
        )
        with pytest.raises(PreconditionFailed):
            verify_collision_obstruction(F, witness)


class TestLineInjectivity:
    def test_separating_first_coordinate(self):
        F = pmap(F3, 2, "x1", "x2 + x1^2")
        verdict = line_injectivity(F, [1, 1])
        assert verdict.injective and verdict.certified

    def test_zero_map_collides(self):
        F = pmap(F2, 1, "x1 - x1^2")
        verdict = line_injectivity(F, [1])
        assert not verdict.injective
        assert verdict.counterexample == (Fp(0, 2), Fp(1, 2))
        assert verdict.certified

    def test_strictly_increasing_cubic_over_q(self):
        F = pmap(QQ, 1, "x1 + x1^3")
        verdict = line_injectivity(F, [1])
        assert verdict.injective
        assert not verdict.certified  # no rational counterexample; not a proof

    def test_trivial_line(self):
        F = pmap(QQ, 2, "x1^2", "x2^2")
        verdict = line_injectivity(F, [0, 0])
        assert verdict.injective and verdict.certified

    def test_rational_collision_is_found(self):
        F = pmap(QQ, 1, "x1^3 - x1")
        verdict = line_injectivity(F, [1])
        assert not verdict.injective
        s, t = verdict.counterexample
        assert F.evaluate([s]) == F.evaluate([t]) and s != t
        assert verdict.certified

    def test_even_power_collision(self):
        F = pmap(QQ, 2, "(x1 + x2)^2", "(x1 + x2)^4")
        verdict = line_injectivity(F, [1, 0])
        assert not verdict.injective
        s, t = verdict.counterexample
        assert F.evaluate([s, Fraction(0)]) == F.evaluate([t, Fraction(0)])

    def test_constant_on_line(self):
        F = pmap(QQ, 2, "x1 - x2", "(x1 - x2)^2")
        verdict = line_injectivity(F, [1, 1])
        assert not verdict.injective
        assert verdict.counterexample == (Fraction(0), Fraction(1))

    def test_linear_component_certifies(self):
        F = pmap(QQ, 2, "x1 + x2^4", "x2 - x1^4")
        verdict = line_injectivity(F, [1, 0])
        assert verdict.injective and verdict.certified


class TestQuadraticInjectivity:
    def test_nowhere_vanishing_determinant_forces_injectivity(self):
        # for quadratic maps over a field with 1/2, a collision F(a) = F(b)
        # forces det jac F to vanish at (a + b)/2, so a determinant without
        # roots on the point space makes the map injective there; sweep that
        # exhaustively at small scale
        import itertools

        rng = rng_for("quadratic-injectivity")
        for p in (3, 5):
            field = PrimeField(p)
            points = list(itertools.product(range(p), repeat=2))
            tested = 0
            for _ in range(1500):
                F = PolyMap(
                    field,
                    2,
                    [random_mpoly(rng, field, 2, max_deg=2, max_terms=4, span=p - 1) for _ in range(2)],
                )
                if F.degree() != 2:
                    continue
                det = F.det_jacobian()
                if any(not det.evaluate(pt) for pt in points):
                    continue
                images = [F.evaluate(pt) for pt in points]
                assert len(set(images)) == len(images)
                tested += 1
            assert tested > 5


class TestCollisionSearch:
    def test_cubic_zero_map_over_f3(self):
        F = pmap(F3, 1, "x1 - x1^3")
        witnesses = collision_search(F, 3)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.params == (Fp(0, 3), Fp(1, 3), Fp(2, 3))
        assert w.degrees == (0, 1, 2, 3)
        assert w.vandermonde_rank == 3
        assert not w.det_jac_nonconstant  # det jac = 1; char 3 divides r = 3

    def test_quadratic_zero_map_over_f2(self):
        F = pmap(F2, 1, "x1 - x1^2")
        witnesses = collision_search(F, 2)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.params == (Fp(0, 2), Fp(1, 2))
        assert not w.det_jac_nonconstant  # excluded case: char 2 divides r = 2

    def test_invertible_linear_has_no_witnesses(self):
        F = pmap(F3, 2, "x1 + x2", "x2")
        assert collision_search(F, 2) == []

    def test_witness_invariants(self):
        F = pmap(F5, 2, "x1^2", "x2")
        witnesses = collision_search(F, 2)
        assert witnesses
        for w in witnesses:
            translated = F.translate(list(w.base))
            images = {translated.evaluate([a * b for b in w.b]) for a in w.params}
            assert len(images) == 1
            assert len(set(w.params)) == len(w.params)
            assert verify_collision_obstruction(F, w) is True

    def test_budget_is_enforced(self):
        F = pmap(F5, 2, "x1^2", "x2")
        with pytest.raises(BudgetExceeded) as err:
            collision_search(F, 2, budget=10)
        assert err.value.required == 2 * 25

    def test_requires_prime_field(self):
        with pytest.raises(PreconditionFailed):
            collision_search(pmap(QQ, 1, "x1^2"), 2)

    def test_deterministic_output(self):
        F = pmap(F3, 2, "x1*x2", "x2")
        first = collision_search(F, 2)
        second = collision_search(F, 2)
        assert first == second

    # n = 3 stops at F_5: over F_7 the reference loop takes seconds per map
    @pytest.mark.parametrize(
        "field,n",
        [(F, n) for F in (F2, F3, F5, F7) for n in (1, 2, 3) if F.p**n <= 125],
        ids=lambda v: repr(v) if isinstance(v, PrimeField) else f"n{v}",
    )
    def test_matches_every_base_loop_in_order(self, field, n):
        rng = rng_for(f"collide-order-{field.p}-{n}")
        found = 0
        for map_degree in (2, 3):
            for r in (2, 3):  # includes r >= map degree
                while True:
                    comps = [random_mpoly(rng, field, n, max_deg=map_degree) for _ in range(n)]
                    F = PolyMap(field, n, comps)
                    if F.degree() == map_degree:
                        break
                witnesses = collision_search(F, r)
                assert witnesses == naive_collision_search(F, r)
                found += len(witnesses)
        assert found

    def test_matches_brute_force_oracle(self):
        # count (line, image) collision pairs directly from all point pairs
        rng = rng_for("collide-oracle")
        for _ in range(10):
            F = PolyMap(F3, 2, [random_mpoly(rng, F3, 2, max_deg=2) for _ in range(2)])
            witnesses = collision_search(F, 2)
            seen = set()
            import itertools

            points = list(itertools.product(range(3), repeat=2))
            table = {pt: F.evaluate(pt) for pt in points}
            lines = set()
            for a, b in itertools.combinations(points, 2):
                delta = tuple((y - x) % 3 for x, y in zip(a, b))
                lead = next(k for k in range(2) if delta[k])
                inv = pow(delta[lead], -1, 3)
                direction = tuple((d * inv) % 3 for d in delta)
                pts = frozenset(
                    tuple((a[k] + t * direction[k]) % 3 for k in range(2)) for t in range(3)
                )
                lines.add((pts, direction))
            expected = 0
            for pts, direction in lines:
                values = {}
                for pt in pts:
                    values.setdefault(table[pt], []).append(pt)
                expected += sum(1 for group in values.values() if len(group) >= 2)
            assert len(witnesses) == expected
