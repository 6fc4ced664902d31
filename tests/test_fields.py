"""Field construction, axioms, embeddings, and wire encodings."""

from __future__ import annotations

import itertools
import pickle
from random import Random

import pytest

from jacobicode.curves import _x_classes
from jacobicode.errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
)
from jacobicode.fields import (
    FiniteField,
    default_modulus,
    extend_field,
    field_from_order,
    make_field,
    prime_power,
)
from conftest import power

BUILTIN_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
              32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
# every p^a <= 1024 with p odd and a >= 2: the fields with a q x q addition table
ODD_EXTENSION_QS = [9, 25, 27, 49, 81, 121, 125, 169, 243, 289, 343, 361, 529,
                    625, 729, 841, 961]


def builtin_field(q: int) -> FiniteField:
    return field_from_order(q)


class TestConstruction:
    def test_prime_field_needs_no_modulus(self):
        F = make_field(2, 1)
        assert (F.p, F.a, F.q) == (2, 1, 2)

    def test_f4_default_modulus_is_w2_w_1(self):
        F = make_field(2, 2)
        assert F.modulus == (1, 1, 1)

    def test_reducible_modulus_rejected(self):
        # w^2 + 1 = (w + 1)^2 over F_2
        with pytest.raises(ReducibleModulusError):
            make_field(2, 2, (1, 0, 1))

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(ReducibleModulusError):
            make_field(2, 2, (1, 1))

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            make_field(4, 1)

    def test_bools_and_floats_are_not_field_data(self):
        # True == 1 would alias F_2 and print as true in its wire form, and
        # int() would truncate a modulus coefficient 0.7 to 0
        with pytest.raises(NotPrimeError):
            make_field(True, 1)
        with pytest.raises(ValueError):
            make_field(2, True)
        with pytest.raises(ValueError):
            FiniteField.from_dict({"p": 2, "a": True})
        for modulus in [(False, True), (0.7, 1), (0, "1")]:
            with pytest.raises(ReducibleModulusError):
                make_field(2, 1, modulus)
        assert make_field(2, 1).to_dict() == {"p": 2, "a": 1, "modulus": [0, 1]}

    @pytest.mark.parametrize("q,pa", [(2, (2, 1)), (9, (3, 2)), (16, (2, 4)),
                                      (49, (7, 2)), (65537, (65537, 1))])
    def test_prime_power(self, q, pa):
        assert prime_power(q) == pa

    @pytest.mark.parametrize("q", [-4, 0, 1, 6, 12, 100])
    def test_not_prime_power(self, q):
        with pytest.raises(NotPrimeError):
            prime_power(q)
        with pytest.raises(NotPrimeError):
            field_from_order(q)

    def test_size_cap(self):
        with pytest.raises(FieldTooLargeError):
            make_field(2, 17)
        F = make_field(2, 17, allow_large=True)
        assert F.q == 1 << 17

    def test_default_moduli_are_deterministic_and_irreducible(self):
        for q in BUILTIN_QS:
            F = builtin_field(q)
            assert F.modulus == default_modulus(F.p, F.a)

    def test_wire_form_round_trip(self):
        F = make_field(3, 2)
        assert FiniteField.from_dict(F.to_dict()) == F
        assert F.to_dict() == {"p": 3, "a": 2, "modulus": [1, 0, 1]}

    def test_one_instance_per_field(self):
        F = make_field(2, 4)
        assert field_from_order(16) is F
        assert extend_field(make_field(2, 2), 2, allow_large=True).ext is F
        # the cap is checked before the cache, so both spellings share one embedding
        assert extend_field(make_field(2, 2), 2) is extend_field(make_field(2, 2), 2,
                                                                 allow_large=True)
        assert make_field(2, 4, (3, 1, 0, 0, 1)) is F  # the default modulus, unreduced
        assert pickle.loads(pickle.dumps(F)) is F
        assert FiniteField.from_dict(F.to_dict()) is F

    def test_hash_is_taken_once_from_the_spec(self):
        # the value of hash((p, a, modulus)), so no set or dict order moves
        for F in (make_field(5), make_field(2, 4), make_field(3, 2, (2, 2, 1))):
            assert hash(F) == hash((F.p, F.a, F.modulus))
        F = make_field(2, 4)
        G = FiniteField(2, 4, (3, 1, 0, 0, 1))  # the default modulus, unreduced
        assert G is not F and G == F and hash(G) == hash(F)
        assert hash(pickle.loads(pickle.dumps(G))) == hash(G)
        assert hash(make_field(2, 4, (1, 1, 1, 1, 1))) != hash(F)


class TestArithmetic:
    def test_f4_generator_squares_per_modulus(self, f4):
        w = 2  # encoding of the power-basis generator
        assert f4.mul(w, w) == 3  # w^2 = w + 1
        assert f4.inv(w) == 3  # w * (w + 1) = 1

    def test_identity_and_absorbing(self, f4):
        for x in f4.elements():
            assert f4.mul(1, x) == x
            assert f4.mul(0, x) == 0

    def test_inverse_of_zero_raises(self, f4):
        with pytest.raises(DivisionByZeroError):
            f4.inv(0)
        with pytest.raises(DivisionByZeroError):
            make_field(5, 1).inv(0)

    @pytest.mark.parametrize("q", BUILTIN_QS)
    def test_axioms_exhaustive_pairs(self, q):
        F = builtin_field(q)
        add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
        for x in range(q):
            assert add(x, 0) == x
            assert mul(x, 1) == x
            assert add(x, neg(x)) == 0
            if x:
                assert mul(x, inv(x)) == 1
            for y in range(q):
                assert add(x, y) == add(y, x)
                assert mul(x, y) == mul(y, x)

    @pytest.mark.parametrize("q", [q for q in BUILTIN_QS if q <= 16])
    def test_axioms_exhaustive_triples(self, q):
        F = builtin_field(q)
        add, mul = F.add, F.mul
        for x, y, z in itertools.product(range(q), repeat=3):
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    @pytest.mark.parametrize("q", [q for q in BUILTIN_QS if q > 16])
    def test_axioms_sampled_triples(self, q):
        F = builtin_field(q)
        add, mul = F.add, F.mul
        rng = Random(q)
        for _ in range(500):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    @pytest.mark.parametrize("q", BUILTIN_QS)
    def test_multiplicative_group_is_cyclic(self, q):
        """Some element has order exactly q - 1 (by naive repeated product)."""
        F = builtin_field(q)
        mul = F.mul
        for g in range(1, q):
            order = 1
            acc = g
            while acc != 1:
                acc = mul(acc, g)
                order += 1
            if order == q - 1:
                return
        pytest.fail(f"F_{q} has no element of order {q - 1}")

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 31])
    def test_log_tables_match_raw_product(self, q):
        F = builtin_field(q)
        log, exp2 = F.log, F.exp2
        assert isinstance(log, tuple) and isinstance(exp2, tuple)
        assert len(exp2) == 4 * (q - 1) + 1
        for x in range(q):
            for y in range(q):
                assert exp2[log[x] + log[y]] == F._raw_mul(x, y)

    @pytest.mark.parametrize("q,degree", [(q, 1) for q in BUILTIN_QS]
                             + [(q, 2) for q in (16, 25, 27, 64)])
    def test_zero_tail_absorbs_every_offset(self, q, degree):
        """exp2[log[0] + k] is 0 for 0 <= k <= 2n, and no product of nonzero
        elements, nor a nonzero x times a power g^k with k <= n, reaches it."""
        field = extend_field(builtin_field(q), degree).ext
        log, exp2, n = field.log, field.exp2, field.q - 1
        assert log[0] == 2 * n
        assert all(exp2[log[0] + k] == 0 for k in range(2 * n + 1))
        top = max(log[1:])  # the largest nonzero log bounds every such sum
        assert top == n - 1 and top + max(top, n) < 2 * n

    @pytest.mark.parametrize("q", ODD_EXTENSION_QS)
    def test_addition_is_digitwise_on_the_encoding(self, q):
        """add, neg and sub against coordinatewise arithmetic mod p.

        The axioms alone would pass a table that relabels the elements; this
        pins the wire encoding.  Every row for q <= 243, else the rows of
        each c * p^i, of q - 1 and of 64 seeded x.
        """
        F = builtin_field(q)
        p = F.p
        weights = [p ** i for i in range(F.a)]
        digits = [F.coeffs(y) for y in range(q)]

        def encode(c):
            return sum(ci * w for ci, w in zip(c, weights))

        negs = [encode([(p - c) % p for c in cy]) for cy in digits]
        assert [F.neg(y) for y in range(q)] == negs
        if q <= 243:
            rows = range(q)
        else:
            rng = Random(q)
            rows = sorted({c * w for w in weights for c in range(1, p)}
                          | {q - 1} | {rng.randrange(q) for _ in range(64)})
        for x in rows:
            cx = digits[x]
            expected = [encode([(s + t) % p for s, t in zip(cx, cy)]) for cy in digits]
            assert [F.add(x, y) for y in range(q)] == expected, x
            assert [F.sub(x, y) for y in range(q)] == [expected[negs[y]] for y in range(q)], x

    @pytest.mark.parametrize("p,a,k", [(2, 1, 1), (2, 4, 1), (2, 3, 2), (5, 1, 1),
                                       (31, 1, 1), (3, 2, 1), (5, 3, 1), (7, 2, 2)],
                             ids=["q2", "q16", "q64", "q5", "q31", "q9", "q125", "q2401"])
    def test_values_matches_term_sum(self, p, a, k):
        """Horner on the log tables against sum c_i x^i, with x^i by repeated
        products: char 2, prime, odd extensions with the q x q addition table
        and above 1024 (F_2401 as F_49^2).  The zero polynomial, a zero
        leading coefficient and x = 0 are always tried."""
        F = extend_field(make_field(p, a), k).ext
        q = F.q
        rng = Random(q)
        xs = range(q) if q <= 64 else [0, 1, q - 1] + [rng.randrange(q) for _ in range(40)]
        for coeffs in [(), (0,), (q - 1,), (1, q - 1, 0)] + [
                tuple(rng.randrange(q) for _ in range(n)) for n in range(1, 8) for _ in range(3)]:
            expected = []
            for x in xs:
                acc, power = 0, 1
                for c in coeffs:
                    acc = F.add(acc, F.mul(c, power))
                    power = F.mul(power, x)
                expected.append(acc)
            assert F.values(coeffs, xs) == expected, coeffs


class TestEmbeddings:
    def test_prime_subfield_fixed(self, f2):
        emb = extend_field(f2, 2)
        assert emb.ext.q == 4
        assert emb(0) == 0 and emb(1) == 1

    def test_f4_to_f16_preserves_order_three(self, f4):
        emb = extend_field(f4, 2)
        assert emb.ext.q == 16
        image = emb(2)  # the generator w has multiplicative order 3
        E = emb.ext
        assert E.mul(image, E.mul(image, image)) == 1 and image != 1

    def test_f3_to_f9_homomorphism_example(self):
        F3 = make_field(3, 1)
        emb = extend_field(F3, 2)
        two = emb(2)
        assert emb.ext.mul(two, two) == emb(1)

    @pytest.mark.parametrize("q", [q for q in BUILTIN_QS if q <= 64])
    def test_embedding_is_a_homomorphism_on_all_pairs(self, q):
        F = builtin_field(q)
        emb = extend_field(F, 2, allow_large=True)
        E = emb.ext
        for x in range(q):
            for y in range(q):
                assert emb(F.add(x, y)) == E.add(emb(x), emb(y))
                assert emb(F.mul(x, y)) == E.mul(emb(x), emb(y))

    def test_lift_too_large(self):
        F = make_field(2, 9)
        with pytest.raises(FieldTooLargeError):
            extend_field(F, 2)
        assert extend_field(F, 2, allow_large=True).ext.q == 1 << 18

    def test_identity_extension(self, f4):
        # a supplied modulus is kept: F_8 by x^3 + x^2 + 1, not the default
        for F in (f4, make_field(2, 3, (1, 0, 1, 1))):
            emb = extend_field(F, 1)
            assert emb.ext is F
            assert all(emb(x) == x for x in F.elements())

    def test_higher_extension_tower(self, f2):
        emb = extend_field(f2, 3)
        assert emb.ext.q == 8
        assert emb(1) == 1


class TestStructureTables:
    def test_char2_trace_solvability(self, f4):
        # z^2 + z = c is solvable iff trace_bit(c) == 0; verify by scan
        for c in f4.elements():
            solvable = any(f4.add(f4.mul(z, z), z) == c for z in f4.elements())
            assert (f4.trace_bit(c) == 0) == solvable

    def test_odd_char_squares(self):
        assert make_field(5, 1).nonzero_squares == {1, 4}

    @pytest.mark.parametrize("q", [2, 4, 5, 8, 9, 16, 25, 27, 49, 64])
    def test_nonzero_squares_match_the_scan(self, q):
        F = builtin_field(q)
        assert F.nonzero_squares == frozenset(F.mul(x, x) for x in range(1, q))

    def test_root_tables(self):
        F8 = make_field(2, 3)
        for c in F8.elements():
            z = F8.artin_schreier_roots[c]
            if z >= 0:
                assert F8.add(F8.mul(z, z), z) == c
            else:
                assert F8.trace_bit(c) == 1

    def test_installing_the_ops_builds_no_root_table(self):
        F = FiniteField(2, 5)  # a fresh instance, not the cached one
        F.quadratic_roots(0, 0)
        assert "artin_schreier_roots" not in vars(F)
        assert F.quadratic_roots(1, 0) == (0, 1)
        assert "artin_schreier_roots" not in vars(F)
        F.quadratic_roots(1, 1)
        assert "artin_schreier_roots" in vars(F)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64])
    def test_quadratic_roots_match_brute_force(self, q):
        F = builtin_field(q)
        for b in F.elements():
            for c in F.elements():
                roots = F.quadratic_roots(b, c)
                scan = [y for y in F.elements()
                        if F.add(F.mul(y, y), F.mul(b, y)) == c]
                assert sorted(roots) == scan


class TestPowerLogs:
    """The rows and the neg2 table the characteristic-2 counting kernel
    reads, cached with the x-classes in ``curves._x_classes``."""

    @staticmethod
    def rows(q, k):
        emb, classes, _ = _x_classes(field_from_order(q), k)
        E = emb.ext  # a row starts with log x
        return E, {E.exp2[row[0]]: row for _, xs in classes for row in xs}

    @pytest.mark.parametrize("q,k,sample", [(2, 1, None), (4, 1, None), (16, 1, None),
                                            (16, 2, None), (32, 2, 48), (64, 2, 48)])
    def test_rows_give_every_term(self, q, k, sample):
        """exp2[log[c] + row(x)[i - 1]] == c * x^i for every x with a row,
        every c (0 included) and 1 <= i <= 6, by the field's own operations;
        sampled x and c above F_256."""
        E, rows = self.rows(q, k)
        log, exp2, n = E.log, E.exp2, E.q - 1
        assert rows[0] == (2 * n,) * 6
        if sample is None:
            xs, cs = sorted(rows), E.elements()
        else:
            rng = Random(E.q)
            xs = [0, 1, max(rows)] + rng.sample(sorted(rows), sample)
            cs = [0, 1, n] + rng.sample(range(2, n), sample)
        for x in xs:
            row = rows[x]
            powers = [power(E, x, i) for i in range(1, 7)]
            for c in cs:
                lc = log[c]
                assert [exp2[lc + r] for r in row] == [E.mul(c, xi) for xi in powers], (x, c)

    @pytest.mark.parametrize("q", [2, 4, 16, 256, 1024, 4096])
    def test_neg2_is_the_inverse_square(self, q):
        emb, _, neg2 = _x_classes(field_from_order(q), 1)
        E = emb.ext
        assert len(neg2) == q
        assert all(E.exp2[neg2[h]] == E.inv(E.mul(h, h)) for h in range(1, q))


class TestPreimage:
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_inverts_the_embedding(self, q):
        emb = extend_field(builtin_field(q), 2)
        assert len(emb.preimage) == q
        assert all(emb.preimage[emb(x)] == x for x in range(q))
