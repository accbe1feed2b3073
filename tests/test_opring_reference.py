"""Differential tests of the integer operator ring against its Fraction loops.

`OperatorRing` clears denominators once and computes contractions, normal
forms, products and the rows of the completion and the oracle in integers
over one denominator.  The reference below is the rational arithmetic it
replaced: each contraction emitted term by term in Fractions, normal forms
summed in Fractions, products concatenated word by word, the all-orders
search adding scaled elements, the completion and oracle rows built as
Fraction rows and eliminated by a Fraction echelon kept here, and the
ideal's generators as sums of five expanded words, from which the oracle's
rows are built.  Both must give the same elements term for term, with
`Fraction` coefficients, on every catalog instance and on two reweighted
instances whose images and weights have denominators 2 and 4.
"""

import itertools
import random
from fractions import Fraction

import pytest

from mrb import core
from mrb.core import catalog
from mrb.opring import (
    ConfluenceReport,
    Discrepancy,
    FreeModuleElement,
    OpElement,
    OperatorRing,
    OpWord,
    OracleResult,
)

HALF = Fraction(1, 2)
INSTANCES = dict(catalog())
# D = 4: weights -1/2, -1/4 and 15/4
INSTANCES["reweighted scaled_projection(2,3,5)"] = core.reweight(
    INSTANCES["scaled_projection(2,3,5)"], core.ReweightSpec.from_dict(
        {"a": {"1": HALF}, "b": {"1": -HALF, "2": HALF}, "c": {"1": -HALF, "2": -HALF, "3": -1}}))
# D = 2: weights -3/2 and -1/2 on the noncommutative algebra
INSTANCES["reweighted upper_triangular(1,2)"] = core.reweight(
    INSTANCES["upper_triangular(1,2)"], core.ReweightSpec.from_dict(
        {"a": {"1": 1, "2": 1}, "b": {"2": HALF}}))
NAMES = sorted(INSTANCES)


# -- reference: the Fraction loops ---------------------------------------------

class FractionRowSpace:
    """The elimination engine in Fractions: each pivot row kept monic, and a
    row reduced by subtracting its leading entry times the pivot row."""

    def __init__(self):
        self._pivots = {}

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def pivot_columns(self):
        return set(self._pivots)

    @staticmethod
    def _subtract(row, f, other):
        for c, v in other.items():
            nv = row.get(c, Fraction(0)) - f * v
            if nv == 0:
                row.pop(c, None)
            else:
                row[c] = nv

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            lead = max(row)
            pivot = self._pivots.get(lead)
            if pivot is None:
                return row
            self._subtract(row, row[lead], pivot)
        return row

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = Fraction(1) / row[lead]
        self._pivots[lead] = {c: v * inv for c, v in row.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    def reduced_rows(self):
        out = {}
        for lead in sorted(self._pivots):
            row = dict(self._pivots[lead])
            for c in [c for c in row if c != lead and c in out]:
                self._subtract(row, row[c], out[c])
            out[lead] = row
        return out


class Reference:
    """The operator ring's arithmetic in Fractions, term by term."""

    def __init__(self, ring: OperatorRing):
        self.ring = ring
        inst = self.inst = ring.inst
        alg, d = inst.algebra, inst.dim
        self.products = [
            [[(k, c) for k, c in enumerate(alg.structure_constants[i][j]) if c != 0] for j in range(d)]
            for i in range(d)
        ]
        self.images = {
            a: [[(k, c) for k, c in enumerate(inst.apply_operator(a, alg.basis_vector(i))) if c != 0]
                for i in range(d)]
            for a in inst.omega
        }
        self.nf_cache = {}
        self.rnf_cache = {}

    def concat(self, a: OpWord, b: OpWord):
        for t, c in self.products[a.slots[-1]][b.slots[0]]:
            yield OpWord(a.slots[:-1] + (t,) + b.slots[1:], a.ops + b.ops), c

    def multiply(self, a, b):
        cls = type(b)
        out = {}
        for wa, ca in a.terms:
            for kb, cb in b.terms:
                wb, tag = cls.split(kb)
                for w, c in self.concat(wa, wb):
                    key = cls.join(w, tag)
                    out[key] = out.get(key, Fraction(0)) + ca * cb * c
        return cls.from_dict(out)

    def rewrite_at(self, w: OpWord, pos: int) -> OpElement:
        alpha, beta = w.ops[pos - 1], w.ops[pos]
        la, lb = self.inst.weight(alpha), self.inst.weight(beta)
        left, mid, right = w.slots[pos - 1: pos + 2]
        head, tail = w.slots[: pos - 1], w.slots[pos + 2:]
        prod = self.products
        out = {}

        def emit(slots, ops, coeff):
            if coeff == 0:
                return
            nw = OpWord(slots, ops)
            out[nw] = out.get(nw, Fraction(0)) + coeff

        ops_drop_alpha = w.ops[: pos - 1] + (beta,) + w.ops[pos + 1:]
        ops_drop_beta = w.ops[:pos] + w.ops[pos + 1:]
        for p, cp in self.images[alpha][mid]:
            for t, c in prod[left][p]:
                emit(head + (t, right) + tail, ops_drop_alpha, cp * c)
            for t, c in prod[p][right]:
                emit(head + (left, t) + tail, ops_drop_alpha, -cp * c)
        for t, c in prod[mid][right]:
            emit(head + (left, t) + tail, ops_drop_beta, -lb * c)
            emit(head + (left, t) + tail, ops_drop_alpha, -la * c)
        return OpElement.from_dict(out)

    def nf_word(self, w: OpWord):
        if w.q_degree <= 1:
            return OpElement(((w, Fraction(1)),)), 0
        cached = self.nf_cache.get(w)
        if cached is not None:
            return cached
        total = {}
        apps = 1
        for w2, c in self.rewrite_at(w, 1).terms:
            nf2, a2 = self.nf_word(w2)
            apps += a2
            for w3, c3 in nf2.terms:
                total[w3] = total.get(w3, Fraction(0)) + c * c3
        result = (OpElement.from_dict(total), apps)
        self.nf_cache[w] = result
        return result

    def word_normal_forms(self, w: OpWord, budget: int = 50000):
        memo = self.rnf_cache

        def per_word(word):
            if word.q_degree <= 1:
                return frozenset([OpElement.from_dict({word: Fraction(1)})])
            cached = memo.get(word)
            if cached is not None:
                return cached
            acc = set()
            for pos in range(1, word.q_degree):
                options = [(c, sorted(per_word(w2), key=OpElement.sort_key))
                           for w2, c in self.rewrite_at(word, pos).terms]
                count = 1
                for _, opts in options:
                    count *= len(opts)
                if count > budget:
                    raise RuntimeError("confluence search budget exceeded")
                for choice in itertools.product(*(opts for _, opts in options)):
                    total = OpElement.zero()
                    for (c, _), nf in zip(options, choice):
                        total = total + nf.scale(c)
                    acc.add(total)
            result = frozenset(acc)
            memo[word] = result
            return result

        return per_word(w)

    def confluence_probe(self, max_qdegree: int) -> ConfluenceReport:
        discrepancies = []
        words = self.ring.basis_words(max_qdegree, min_qdegree=3)
        for w in words:
            nfs = sorted(self.word_normal_forms(w), key=OpElement.sort_key)
            if len(nfs) > 1:
                discrepancies.append(Discrepancy(w, tuple(nfs), tuple(nf - nfs[0] for nf in nfs[1:])))
        return ConfluenceReport(len(words), tuple(discrepancies))

    def linear_rules(self):
        ring = self.ring
        low = ring.basis_words(1)
        index = {w: i for i, w in enumerate(low)}
        space = FractionRowSpace()
        fresh = []

        def adjoin(e):
            row = {}
            for w, c in e.terms:
                for w2, c2 in self.nf_word(w)[0].terms:
                    row[index[w2]] = row.get(index[w2], Fraction(0)) + c * c2
            row = space.reduce(row)
            if row:
                space.add(row)
                fresh.append(OpElement.from_dict({low[i]: c for i, c in row.items()}))

        d, omega = self.inst.dim, self.inst.omega
        for a, c in itertools.combinations(omega, 2):
            for i, j in itertools.product(range(d), repeat=2):
                adjoin(ring.element((i, j), (c,), self.inst.weight(a))
                       - ring.element((i, j), (a,), self.inst.weight(c)))
        gens = [ring.element((i,), ()) for i in range(d)] + [ring.q_letter(a) for a in omega]
        while fresh:
            e = fresh.pop()
            for g in gens:
                adjoin(self.multiply(g, e))
                adjoin(self.multiply(e, g))
        return {
            low[lead]: OpElement.from_dict({low[i]: -c for i, c in row.items() if i != lead})
            for lead, row in space.reduced_rows().items()
        }

    def normalize(self, e, rules):
        cls = type(e)
        out = {}
        for k, c in e.terms:
            w, tag = cls.split(k)
            for w2, c2 in self.nf_word(w)[0].terms:
                for w3, c3 in rules[w2].terms if w2 in rules else ((w2, Fraction(1)),):
                    key = cls.join(w3, tag)
                    out[key] = out.get(key, Fraction(0)) + c * c2 * c3
        apps = sum(self.nf_word(cls.split(k)[0])[1] for k, _ in e.terms)
        return cls.from_dict(out), apps

    def ideal_generator(self, r_index: int, alpha: str, beta: str) -> OpElement:
        """Q_a r Q_b - P_a(r) Q_b + Q_b P_a(r) + l_b Q_a r + l_a Q_b r, as a sum
        of five expanded words."""
        ring, alg = self.ring, self.inst.algebra
        r, u = alg.basis_vector(r_index), alg.unit
        p = self.inst.apply_operator(alpha, r)
        la, lb = self.inst.weight(alpha), self.inst.weight(beta)
        return (ring.word_element([u, r, u], [alpha, beta]) - ring.word_element([p, u], [beta])
                + ring.word_element([u, p], [beta]) + ring.word_element([u, r], [alpha]).scale(lb)
                + ring.word_element([u, r], [beta]).scale(la))

    def ideal_generators(self) -> list[OpElement]:
        omega = self.inst.omega
        return [self.ideal_generator(i, a, b) for i in range(self.inst.dim)
                for a in omega for b in omega]

    def oracle(self, max_qdegree: int) -> OracleResult:
        ring = self.ring
        words = ring.basis_words(max_qdegree)
        index = {w: i for i, w in enumerate(words)}
        rows = FractionRowSpace()
        side_words = ring.basis_words(max_qdegree - 2) if max_qdegree >= 2 else []
        for g in self.ideal_generators():
            for u in side_words:
                ug = self.multiply(OpElement.from_dict({u: Fraction(1)}), g)
                for v in side_words:
                    if v.q_degree <= max_qdegree - 2 - u.q_degree:
                        ugv = self.multiply(ug, OpElement.from_dict({v: Fraction(1)}))
                        rows.add({index[w]: c for w, c in ugv.terms})
        cosets = tuple(w for w in words if index[w] not in rows.pivot_columns)
        return OracleResult(len(words) - rows.rank, cosets, len(words), rows.rank)


# -- helpers ----------------------------------------------------------------------

def fractions_only(*elements):
    for e in elements:
        assert all(type(c) is Fraction for _, c in e.terms), e


def random_element(inst, rng, max_qdegree=3, gens=()):
    """Up to five terms with rational coefficients; keyed by (word, generator)
    pairs when generators are given."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        q = rng.randint(0, max_qdegree)
        w = OpWord(tuple(rng.randrange(inst.dim) for _ in range(q + 1)),
                   tuple(rng.choice(inst.omega) for _ in range(q)))
        key = (w, rng.choice(gens)) if gens else w
        terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return (FreeModuleElement if gens else OpElement).from_dict(terms)


@pytest.fixture(params=NAMES)
def pair(request):
    """A fresh ring and its reference."""
    ring = OperatorRing(INSTANCES[request.param])
    return ring, Reference(ring)


# -- the integer ring against the reference --------------------------------------

def test_reweighted_instances_clear_denominators_two_and_four():
    assert OperatorRing(INSTANCES["reweighted upper_triangular(1,2)"])._d == 2
    assert OperatorRing(INSTANCES["reweighted scaled_projection(2,3,5)"])._d == 4


def test_contractions_and_word_normal_forms_match(pair):
    ring, ref = pair
    for w in ring.basis_words(3, min_qdegree=2):
        for pos in range(1, w.q_degree):
            step = ring.rewrite_at(w, pos)
            fractions_only(step)
            assert step == ref.rewrite_at(w, pos)
        nf, apps = ring._nf_word((w.slots, w.ops))
        den = ring._nf_den(w.q_degree)
        assert (OpElement.from_dict({OpWord(*w3): Fraction(n, den) for w3, n in nf.items()}), apps) \
            == ref.nf_word(w)


def test_ideal_generators_match_the_five_term_formula(pair):
    ring, ref = pair
    generators = ring.ideal_generators()
    fractions_only(*generators)
    assert generators == ref.ideal_generators()


def test_products_match(pair):
    ring, ref = pair
    rng = random.Random(5)
    for _ in range(25):
        a = random_element(ring.inst, rng)
        for b in (random_element(ring.inst, rng), random_element(ring.inst, rng, gens=("x", "y"))):
            product = ring.multiply(a, b)
            fractions_only(product)
            assert type(product) is type(b)
            assert product == ref.multiply(a, b)


def test_all_orders_normal_forms_and_probe_match(pair):
    ring, ref = pair
    for w in ring.basis_words(3, min_qdegree=3):
        nfs = ring.word_normal_forms(w)
        fractions_only(*nfs)
        assert nfs == ref.word_normal_forms(w)
    probe = ring.confluence_probe(3)
    assert probe == ref.confluence_probe(3)
    for disc in probe.discrepancies:
        fractions_only(*disc.normal_forms, *disc.witnesses)


def test_completion_normal_forms_and_oracle_match(pair):
    ring, ref = pair
    rules = ring.linear_rules()
    fractions_only(*rules.values())
    assert rules == ref.linear_rules()
    rng = random.Random(11)
    words = [OpElement.from_dict({w: Fraction(1)}) for w in ring.basis_words(2)]
    mixed = [random_element(ring.inst, rng, gens=gens) for gens in ((), ("x", "y")) * 15]
    for e in words + mixed:
        report = ring.normalize(e)
        fractions_only(report.output)
        assert type(report.output) is type(e)
        assert (report.output, report.applications) == ref.normalize(e, rules)
    assert ring.truncated_quotient_oracle(3) == ref.oracle(3)


# -- the left fold of `_nf_word` against the recursive reference ------------------

@pytest.mark.parametrize("name", ["scaled_projection(2,3,5)", "upper_triangular(1,2)"])
def test_word_normal_forms_match_the_recursion_to_q_degree_5(name):
    # the reference recurses once per letter and counts the applications of
    # the whole reduction tree; the fold must agree on both, word by word
    ring, ref = OperatorRing(INSTANCES[name]), Reference(OperatorRing(INSTANCES[name]))
    for w in ring.basis_words(5, min_qdegree=2):
        nf, apps = ring._nf_word(w)
        den = ring._nf_den(w.q_degree)
        assert (OpElement.from_dict({OpWord(*w3): Fraction(n, den) for w3, n in nf.items()}), apps) \
            == ref.nf_word(w)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_a_word_of_5000_letters_normalizes():
    # on scaled_projection(1,2) the word e1 Q[1] e1 Q[2] e1 ... of k
    # alternating letters has the completed normal form 2^(k // 2) e1 Q[1] e1,
    # and its reduction tree F(k + 2) - 2 contractions (F the Fibonacci
    # numbers), as the recursive reference shows for small k; the tree's
    # size grows far past the ring's few states, and the count stays the tree's
    inst = INSTANCES["scaled_projection(1,2)"]
    ring, ref = OperatorRing(inst), Reference(OperatorRing(inst))
    rules = ref.linear_rules()

    def element(k):
        return OpElement.from_dict({OpWord((0,) * (k + 1), ("1", "2") * (k // 2) + ("1",) * (k % 2)):
                                    Fraction(1)})

    def expected(k):
        return (OpElement.from_dict({OpWord((0, 0), ("1",)): Fraction(2 ** (k // 2))}),
                _fibonacci(k + 2) - 2)

    for k in range(1, 13):
        assert ref.normalize(element(k), rules) == expected(k)
    report = ring.normalize(element(5000))
    assert (report.output, report.applications) == expected(5000)
