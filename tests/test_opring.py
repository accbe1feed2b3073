import itertools
import random
from fractions import Fraction

import pytest

from mrb.core import MrbAlgebraInstance, PreconditionError, scaled_projection
from mrb.opring import FreeModuleElement, OpElement, OperatorRing, OpWord
from mrb.operated import FreeOperatedModule


@pytest.fixture(scope="module")
def ring12():
    return OperatorRing(scaled_projection((1, 2)))


def test_ring_requires_verified_instance():
    inst = scaled_projection((1,))
    fresh = MrbAlgebraInstance(inst.algebra, inst.operators, inst.weights)
    with pytest.raises(PreconditionError):
        OperatorRing(fresh)


def test_word_shape_invariant():
    with pytest.raises(ValueError):
        OpWord((0,), ("1",))


def test_free_module_elements_share_the_combination_arithmetic(ring12):
    e = (ring12.module_word((1, 0), ("2",), "x").scale(3)
         + ring12.module_word((1,), (), "x") - ring12.module_word((0,), (), "y"))
    assert type(e) is FreeModuleElement and type(-e) is FreeModuleElement
    assert type(e.scale(0)) is FreeModuleElement and e.scale(0).is_zero()
    # word-major order: the generator only breaks ties between equal words
    assert [k for k, _ in e.terms] == [
        (OpWord((0,), ()), "y"), (OpWord((1,), ()), "x"), (OpWord((1, 0), ("2",)), "x"),
    ]
    assert e.max_q_degree() == 1 and (e - e) == FreeModuleElement.zero()
    assert e != OpElement.from_dict({OpWord((1, 0), ("2",)): Fraction(3)})
    assert ring12.element((0, 1, 0), ("1", "2")).max_q_degree() == 2
    assert OpElement.zero().max_q_degree() == 0


# -- multiplication -----------------------------------------------------------

def test_multiply_unit_neutral(ring12):
    b = ring12.element((0, 1), ("2",), coeff=Fraction(3, 2))
    assert ring12.multiply(ring12.unit(), b) == b
    assert ring12.multiply(b, ring12.unit()) == b


def test_multiply_boundary_product_vanishes(ring12):
    # e1 * e2 = 0 componentwise
    assert ring12.multiply(ring12.element((0,), ()), ring12.element((1,), ())).is_zero()


def test_multiply_concatenates_and_merges(ring12):
    # (1 Q1 e1) x (e1 Q2 1) = 1 Q1 e1 Q2 1 with q_degree 2
    u = ring12.inst.algebra.unit
    a = ring12.word_element([u, (1, 0)], ["1"])
    b = ring12.word_element([(1, 0), u], ["2"])
    out = ring12.multiply(a, b)
    assert out == ring12.word_element([u, (1, 0), u], ["1", "2"])
    assert out.max_q_degree() == 2


def test_multiply_is_not_normalized(ring12):
    a = ring12.q_letter("1")
    b = ring12.multiply(ring12.element((1,), ()), ring12.q_letter("2"))
    prod = ring12.multiply(a, b)
    assert prod.max_q_degree() == 2  # the redex Q1 e2 Q2 is left in place


# -- rewriting ----------------------------------------------------------------

def test_normalize_low_degree_unchanged(ring12):
    # no rewrite rule applies below q_degree 2; the completion's Q2 = 2 Q1
    # (weights -1/2, -1 and operators P, 2P) only trades e1 Q2 e2 for 2 e1 Q1 e2
    e = ring12.element((0, 1), ("2",)) + ring12.element((1,), ()).scale(Fraction(-1, 2))
    expected = ring12.element((0, 1), ("1",), coeff=2) + ring12.element((1,), ()).scale(Fraction(-1, 2))
    report = ring12.normalize(e)
    assert report.output == expected
    assert report.applications == 0
    assert ring12.ideal_contains(e - expected, 3)
    # an element already in completed form comes back unchanged
    again = ring12.normalize(expected)
    assert again.output == expected
    assert again.applications == 0


def test_rewrite_rule_symbolic(ring12):
    # Q_a r Q_b -> P_a(r) Q_b - Q_b P_a(r) - l_b Q_a r - l_a Q_b r
    inst = ring12.inst
    u = inst.algebra.unit
    for alpha in inst.omega:
        for beta in inst.omega:
            for i in range(inst.dim):
                r = inst.algebra.basis_vector(i)
                word = ring12.word_element([u, r, u], [alpha, beta])
                p = inst.apply_operator(alpha, r)
                expected = (
                    ring12.word_element([p, u], [beta])
                    - ring12.word_element([u, p], [beta])
                    - ring12.word_element([u, r], [alpha]).scale(inst.weight(beta))
                    - ring12.word_element([u, r], [beta]).scale(inst.weight(alpha))
                )
                assert ring12.normal_form(word) == ring12.normal_form(expected)
                one_step = OpElement.zero()
                for w, c in word.terms:
                    one_step = one_step + ring12.rewrite_at(w, 1).scale(c)
                assert one_step == expected


def test_normalize_spec_value(ring12):
    # 1 Q1 e2 Q2 1 -> 1 Q1 e2 + 1/2 1 Q2 e2  (P1(e2) = 0, l2 = -1, l1 = -1/2)
    # under the rewrite rules; the completion's Q2 = 2 Q1 then gives 2 (1 Q1 e2)
    u = ring12.inst.algebra.unit
    word = ring12.word_element([u, (0, 1), u], ["1", "2"])
    rewritten = ring12.word_element([u, (0, 1)], ["1"]) \
        + ring12.word_element([u, (0, 1)], ["2"]).scale(Fraction(1, 2))
    raw = OpElement.zero()
    for w, c in word.terms:
        (nf,) = ring12.word_normal_forms(w)
        raw = raw + nf.scale(c)
    assert raw == rewritten
    expected = ring12.word_element([u, (0, 1)], ["1"]).scale(2)
    assert ring12.normal_form(word) == expected
    assert ring12.ideal_contains(rewritten - expected, 3)


def test_normalize_terminates_at_degree_one(rings):
    for name, ring in rings.items():
        for w in ring.basis_words(3):
            report = ring.normalize(OpElement.from_dict({w: Fraction(1)}))
            assert report.output.max_q_degree() <= 1, (name, w)


def test_ring_laws_after_normalization(ring12):
    rng = random.Random(2)

    def rand_elem():
        out = OpElement.zero()
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 2)
            slots = tuple(rng.randrange(2) for _ in range(k + 1))
            ops = tuple(rng.choice(ring12.inst.omega) for _ in range(k))
            out = out + ring12.element(slots, ops, coeff=Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return out

    for _ in range(20):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        left = ring12.normal_form(ring12.multiply(ring12.multiply(a, b), c))
        right = ring12.normal_form(ring12.multiply(a, ring12.multiply(b, c)))
        assert left == right
        assert ring12.normal_form(ring12.multiply(ring12.unit(), a)) == ring12.normal_form(a)
        assert ring12.normal_form(ring12.multiply(a, ring12.unit())) == ring12.normal_form(a)


def test_normal_form_idempotent_and_linear(ring12):
    rng = random.Random(17)
    words = ring12.basis_words(3)
    for _ in range(30):
        e = OpElement.zero()
        for _ in range(rng.randint(1, 4)):
            e = e + OpElement.from_dict(
                {rng.choice(words): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
            )
        nf = ring12.normal_form(e)
        assert ring12.normal_form(nf) == nf
        f = OpElement.from_dict({rng.choice(words): Fraction(rng.randint(-2, 2))})
        assert ring12.normal_form(e + f) == nf + ring12.normal_form(f)
        assert ring12.normal_form(e.scale(Fraction(-5, 3))) == nf.scale(Fraction(-5, 3))


def test_module_identity_under_normalization(rings):
    # P_a(r) Q_b s - Q_a r Q_b s - Q_b P_a(r) s - l_b Q_a r s - l_a Q_b r s
    # normalizes to zero for basis r and truncation words s
    for name in ("scaled_projection(1,2)", "upper_triangular(1,2)", "trivial(2,2)"):
        ring = rings[name]
        inst = ring.inst
        u = inst.algebra.unit
        words = ring.basis_words(1)
        for i in range(inst.dim):
            r = inst.algebra.basis_vector(i)
            for alpha in inst.omega:
                p = inst.apply_operator(alpha, r)
                for beta in inst.omega:
                    for s_word in words[:6]:
                        s = OpElement.from_dict({s_word: Fraction(1)})
                        e = ring.multiply(ring.word_element([p, u], [beta]), s)
                        e = e - ring.multiply(ring.word_element([u, r, u], [alpha, beta]), s)
                        e = e - ring.multiply(ring.word_element([u, p], [beta]), s)
                        e = e - ring.multiply(ring.word_element([u, r], [alpha]), s).scale(inst.weight(beta))
                        e = e - ring.multiply(ring.word_element([u, r], [beta]), s).scale(inst.weight(alpha))
                        assert ring.normal_form(e).is_zero(), (name, i, alpha, beta, s_word)


# -- truncated quotient oracle --------------------------------------------------

def test_oracle_degree_one_counts_all_words(rings):
    for name, ring in rings.items():
        d = ring.inst.dim
        s = len(ring.inst.omega)
        res = ring.truncated_quotient_oracle(1)
        assert res.dim == d + d * s * d, name
        assert res.relation_rank == 0


def test_oracle_trivial_one_dim():
    from mrb.core import check_mrb_identity, trivial_instance
    inst = trivial_instance(1, 1)
    check_mrb_identity(inst)
    ring = OperatorRing(inst)
    res = ring.truncated_quotient_oracle(2)
    assert res.word_count == 3
    assert res.dim == 2  # span {1, Q}
    cosets = res.basis_cosets
    assert [w.q_degree for w in cosets] == [0, 1]


def test_oracle_matches_normal_form_counts_when_confluent(rings):
    for name in ("trivial(2,2)", "trivial(3,3)", "scaled_projection(1)"):
        ring = rings[name]
        res = ring.truncated_quotient_oracle(3)
        nf_images = {}
        for w in ring.basis_words(3):
            nf_images[w] = ring.normal_form(OpElement.from_dict({w: Fraction(1)}))
        distinct_nonzero = len({e.terms for e in nf_images.values() if not e.is_zero()})
        d, s = ring.inst.dim, len(ring.inst.omega)
        assert res.dim == d + d * d * s, name
        assert distinct_nonzero == res.dim, name


def test_oracle_sees_smaller_quotient_than_rewriting_on_multi_operator(rings):
    # the recorded collapse: with >= 2 operators of nonzero weight the ideal
    # cuts below the irreducible-word count
    for name, expected_dim, irreducible in (
        ("scaled_projection(1,2)", 6, 10),
        ("scaled_projection(2,3,5)", 6, 14),
        ("upper_triangular(1,2)", 12, 21),
    ):
        ring = rings[name]
        res = ring.truncated_quotient_oracle(3)
        d, s = ring.inst.dim, len(ring.inst.omega)
        assert d + d * d * s == irreducible, name
        assert res.dim == expected_dim, name


def test_normal_form_equality_implies_ideal_membership(rings):
    # soundness: every rewrite subtracts an ideal multiple, so words with
    # equal normal forms differ by a truncated-span element
    rng = random.Random(13)
    for name, ring in rings.items():
        words = ring.basis_words(3)
        for _ in range(60):
            w1, w2 = rng.choice(words), rng.choice(words)
            nf1 = ring.normal_form(OpElement.from_dict({w1: Fraction(1)}))
            nf2 = ring.normal_form(OpElement.from_dict({w2: Fraction(1)}))
            if nf1 == nf2:
                diff = OpElement.from_dict({w1: Fraction(1)}) - OpElement.from_dict({w2: Fraction(1)})
                assert ring.ideal_contains(diff, 3), (name, w1, w2)


def test_ideal_membership_strictly_exceeds_nf_equality_on_multi_operator_instances(rings):
    # recorded finding: with two or more operators of nonzero weight the
    # raw rule set is not confluent, and the ideal collapses some degree-one
    # words that the rewrite rules keep distinct; the completion adjoins them
    ring = rings["scaled_projection(1,2)"]
    w1 = ring.element((0, 0), ("2",))           # e1 Q2 e1
    w2 = ring.element((0, 0), ("1",)).scale(2)  # 2 e1 Q1 e1
    for e in (w1, w2):
        ((word, _),) = e.terms
        # no redex: the raw rules leave the word as it is
        assert ring.word_normal_forms(word) == {OpElement.from_dict({word: Fraction(1)})}
    diff = w1 - w2
    assert ring.ideal_contains(diff, 3)    # yet the difference is in the ideal
    assert ring.normal_form(diff).is_zero()


def test_degree_one_collapse_agrees_with_module_checker(rings):
    # the ideal forces Q2 = 2 Q1 on scaled_projection(1,2); independently,
    # the module axioms only admit operator families with m2 = 2 m1 there
    from mrb.linalg import Matrix
    from mrb.modules import FdLeftModule, check_left_module, regular_left_module

    ring = rings["scaled_projection(1,2)"]
    collapse = ring.element((0, 0), ("2",)) - ring.element((0, 0), ("1",)).scale(2)
    assert ring.ideal_contains(collapse, 3)
    reg = regular_left_module(ring.inst)
    proj = Matrix([[1, 0], [0, 0]])
    verdicts = {
        alpha: check_left_module(
            FdLeftModule(ring.inst, 2, reg.action, (proj, proj.scale(alpha)))
        ).ok
        for alpha in (1, 2, 3)
    }
    assert verdicts == {1: False, 2: True, 3: False}


def test_ideal_generator_elements_are_in_truncated_span(rings):
    for name in ("scaled_projection(1,2)", "upper_triangular(1,2)"):
        ring = rings[name]
        for g in ring.ideal_generators():
            assert ring.ideal_contains(g, 3)


# -- completion -------------------------------------------------------------------

MULTI_OPERATOR = ("scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)")


def test_critical_overlaps_resolve_to_weighted_letter_difference(rings):
    # reducing 1 Q_a r Q_b s Q_c 1 at either redex first and rewriting on
    # ends in results that differ by l_b (l_a 1 Q_c rs - l_c 1 Q_a rs), which
    # the completion's seeds span; the completed forms agree
    for name in MULTI_OPERATOR:
        ring = rings[name]
        inst = ring.inst
        alg = inst.algebra
        u = alg.unit
        for i, j in itertools.product(range(inst.dim), repeat=2):
            r, s = alg.basis_vector(i), alg.basis_vector(j)
            rs = alg.multiply(r, s)
            for a, b, c in itertools.product(inst.omega, repeat=3):
                overlap = ring.word_element([u, r, s, u], [a, b, c])
                paths = []
                for pos in (1, 2):
                    out = OpElement.zero()
                    for w, k in overlap.terms:
                        for w2, k2 in ring.rewrite_at(w, pos).terms:
                            (nf,) = ring.word_normal_forms(w2)
                            out = out + nf.scale(k * k2)
                    paths.append(out)
                lb = inst.weight(b)
                expected = (
                    ring.word_element([u, rs], [c]).scale(lb * inst.weight(a))
                    - ring.word_element([u, rs], [a]).scale(lb * inst.weight(c))
                )
                assert paths[0] - paths[1] == expected, (name, i, j, a, b, c)
                assert ring.normal_form(paths[0]) == ring.normal_form(paths[1])


@pytest.mark.parametrize("name", MULTI_OPERATOR)
def test_linear_rules_are_the_oracle_degree_one_rows(rings, name):
    # a fully interreduced echelon basis is unique, so equal leading words,
    # reduced tails and membership in the oracle's span pin the rows exactly
    ring = rings[name]
    rules = ring.linear_rules()
    assert rules
    low = ring.basis_words(1)
    for lead, tail in rules.items():
        assert all(w not in rules and w.sort_key() < lead.sort_key() for w, _ in tail.terms)
    for k in (3, 4):
        oracle = ring.truncated_quotient_oracle(k)
        irreducible = {w for w in oracle.basis_cosets if w.q_degree <= 1}
        assert set(rules) == set(low) - irreducible, k
        for lead, tail in rules.items():
            assert ring.ideal_contains(OpElement.from_dict({lead: Fraction(1)}) - tail, k)


@pytest.mark.parametrize("name", MULTI_OPERATOR)
def test_completion_resolves_every_probed_discrepancy(rings, name):
    ring = rings[name]
    for k in (3, 4):
        report = ring.confluence_probe(k)
        assert not report.ok
        for disc in report.discrepancies:
            completed = {ring.normal_form(nf) for nf in disc.normal_forms}
            assert len(completed) == 1, (k, disc.word)


@pytest.mark.parametrize("name", MULTI_OPERATOR)
def test_completed_normal_form_words_count_the_oracle_dimension(rings, name):
    ring = rings[name]
    for k in (3, 4):
        words = set()
        for w in ring.basis_words(k):
            words.update(w2 for w2, _ in ring.normal_form(OpElement.from_dict({w: Fraction(1)})).terms)
        oracle = ring.truncated_quotient_oracle(k)
        assert len(words) == oracle.dim, k
        assert words == set(oracle.basis_cosets), k


# -- confluence probe -----------------------------------------------------------

def test_no_overlaps_below_degree_three(ring12):
    report = ring12.confluence_probe(2)
    assert report.probed == 0
    assert report.ok


def test_trivial_instances_locally_confluent(rings):
    for name in ("trivial(1,1)", "trivial(2,2)", "trivial(3,3)", "scaled_projection(1)"):
        report = rings[name].confluence_probe(3)
        assert report.ok, name
        assert report.probed > 0


def test_multi_operator_discrepancies_reported_with_witnesses(rings):
    for name in ("scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)"):
        ring = rings[name]
        report = ring.confluence_probe(3)
        assert not report.ok, name
        for disc in report.discrepancies:
            assert len(disc.normal_forms) > 1
            for witness in disc.witnesses:
                assert not witness.is_zero()
                # adjudication: the witness is a genuine ideal element
                assert ring.ideal_contains(witness, 3)


def test_discrepancy_matches_hand_derivation(rings):
    # two orders of Q1 e1 Q1 e1 Q2 differ by l1*(l1 Q2 - l2 Q1)(e1)
    ring = rings["scaled_projection(1,2)"]
    u = ring.inst.algebra.unit
    word_elem = ring.word_element([u, (1, 0), (1, 0), u], ["1", "1", "2"])
    words = [w for w, _ in word_elem.terms]
    witnessed = OpElement.zero()
    l1, l2 = ring.inst.weight("1"), ring.inst.weight("2")
    expected = (
        ring.word_element([u, (1, 0)], ["2"]).scale(l1 * l1)
        - ring.word_element([u, (1, 0)], ["1"]).scale(l1 * l2)
    )
    for w in words:
        nfs = sorted(ring.word_normal_forms(w), key=OpElement.sort_key)
        for nf in nfs[1:]:
            witnessed = witnessed + (nf - nfs[0])
    # the union of per-word witnesses spans the same discrepancy element
    assert not expected.is_zero()
    assert ring.ideal_contains(expected, 3)


# -- free module over generators -------------------------------------------------

def test_free_module_unit_word_fixed(ring12):
    e = ring12.module_word((0,), (), "x")
    assert ring12.free_module_normal_form(e) == e


def test_free_module_translation_of_ideal_generators():
    for c in ((1,), (1, 2)):
        inst = scaled_projection(c)
        ring = OperatorRing(inst)
        fom = FreeOperatedModule(inst, ["x"])
        for g in fom.ideal_generators(3):
            translated = ring.from_operated(g)
            assert ring.free_module_normal_form(translated).is_zero()


def test_translation_is_structural(ring12):
    fom = FreeOperatedModule(ring12.inst, ["x"])
    w = fom.element((0, 1, 0), ("1", "2"), "x")
    translated = ring12.from_operated(w)
    assert translated == ring12.module_word((0, 1, 0), ("1", "2"), "x")
    # operator application corresponds to a Q-prefixed word
    prefixed = ring12.from_operated(fom.apply_operator("2", w))
    expected = ring12.act(ring12.q_letter("2"), translated)
    assert prefixed == expected
