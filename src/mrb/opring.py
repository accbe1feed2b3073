"""The ring of operator words over a verified instance, as a rewriting system.

Words alternate algebra slots and formal operator letters,
``r0 Q[w1] r1 ... Q[wk] rk`` with q_degree k.  The quotient ring divides by
the two-sided ideal generated by

    Q_a r Q_b - P_a(r) Q_b + Q_b P_a(r) + lambda_b Q_a r + lambda_a Q_b r,

read here as the degree-lowering rewrite rule

    Q_a r Q_b  ->  P_a(r) Q_b - Q_b P_a(r) - lambda_b Q_a r - lambda_a Q_b r.

Every rule application lowers q_degree by one, so reduction terminates with
all words at q_degree <= 1.  With two or more operators of nonzero weight
this rule set is not confluent (`confluence_probe` reports the raw rules'
discrepancies): the ideal holds degree-one elements that no rule reduces.
`linear_rules` completes the system by adjoining the ideal's part in
q_degree <= 1 as linear rules, and `normal_form` is the completed normal
form: rewrite, then reduce modulo those rules.  A truncated linear-algebra
oracle over the ideal span (`truncated_quotient_oracle`) is the ground truth
the completion is checked against.

`OpElement` is the one sparse combination type.  Its subclass
`FreeModuleElement` keys terms by (operator word, generator) pairs; the ring
acts on those from the left.  The same pairs are the mixable-tensor words of
the free operated module (`mrb.operated`): r1 (x) w1 (x) ... (x) rn (x) x is
the pair (r1 Q[w1] r2 ... rn, x).

Elements store slots as basis indices; words built from general algebra
vectors (including the unit, which separates adjacent operator letters in
the free product) are expanded multilinearly into basis-slot words
(`expand_word`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import MrbAlgebraInstance, PreconditionError
from .linalg import SparseRowSpace, frac, vector


@dataclass(frozen=True)
class OpWord:
    """Alternating word r0 Q[w1] r1 ... Q[wk] rk; slots are basis indices."""

    slots: tuple[int, ...]
    ops: tuple[str, ...]

    def __post_init__(self):
        if len(self.slots) != len(self.ops) + 1:
            raise ValueError("a word needs exactly one more slot than operator letters")

    @property
    def q_degree(self) -> int:
        return len(self.ops)

    def sort_key(self):
        return (self.q_degree, self.slots, self.ops)


def basis_word(inst: MrbAlgebraInstance, slots: Sequence[int], ops: Sequence[str]) -> OpWord:
    """The word with the given basis-index slots, checked against inst."""
    for i in slots:
        if not 0 <= i < inst.dim:
            raise ValueError(f"slot index {i} out of range")
    for w in ops:
        if w not in inst.omega:
            raise KeyError(f"unknown operator label {w!r}")
    return OpWord(tuple(slots), tuple(ops))


def expand_word(inst: MrbAlgebraInstance, vectors: Sequence[Sequence],
                ops: Sequence[str]) -> dict[OpWord, Fraction]:
    """Multilinear expansion of a word with general vector slots into
    basis-slot words and their coefficients."""
    if len(vectors) != len(ops) + 1:
        raise ValueError("need one more slot vector than operator letters")
    slots: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for v in vectors:
        v = vector(v)
        if len(v) != inst.dim:
            raise ValueError("slot vector has wrong length")
        slots = {s + (i,): c * a for s, c in slots.items() for i, a in enumerate(v) if a != 0}
    return {basis_word(inst, s, ops): c for s, c in slots.items()}


@dataclass(frozen=True)
class OpElement:
    """Finitely supported rational combination of operator words.

    `terms` holds (key, coefficient) pairs with nonzero coefficients, ordered
    by the class-level `key_order`, whose value leads with the key's
    q_degree.  Subclasses change only the key type and `key_order`; the
    arithmetic is shared and returns the subclass.
    """

    terms: tuple[tuple[OpWord, Fraction], ...]

    key_order = staticmethod(OpWord.sort_key)

    @classmethod
    def from_dict(cls, terms: Mapping) -> "OpElement":
        key = cls.key_order
        return cls(tuple(sorted([(k, c) for k, c in terms.items() if c], key=lambda t: key(t[0]))))

    @classmethod
    def zero(cls) -> "OpElement":
        return cls(())

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "OpElement") -> "OpElement":
        out = self.as_dict()
        for k, c in other.terms:
            out[k] = out.get(k, Fraction(0)) + c
        return self.from_dict(out)

    def __sub__(self, other: "OpElement") -> "OpElement":
        return self + (-other)

    def __neg__(self) -> "OpElement":
        return type(self)(tuple((k, -c) for k, c in self.terms))

    def scale(self, c) -> "OpElement":
        c = frac(c)
        if c == 0:
            return self.zero()
        return type(self)(tuple((k, c * a) for k, a in self.terms))

    def max_q_degree(self) -> int:
        # the last term has the largest key, hence the largest q_degree
        return self.key_order(self.terms[-1][0])[0] if self.terms else 0

    def sort_key(self):
        return tuple((self.key_order(k), c) for k, c in self.terms)


class FreeModuleElement(OpElement):
    """Combination of (operator word, generator) pairs.

    These present elements of the free module on a generator set through
    the operator ring: the ring acts on the left, generators close words on
    the right.  They are also the elements of the free operated module.
    """

    @staticmethod
    def key_order(key):
        w, gen = key
        return (w.q_degree, w.slots, w.ops, gen)


@dataclass(frozen=True)
class RewriteReport:
    input: OpElement
    output: OpElement
    applications: int
    strategy: str = "leftmost-innermost"


@dataclass(frozen=True)
class Discrepancy:
    word: OpWord
    normal_forms: tuple[OpElement, ...]
    witnesses: tuple[OpElement, ...]


@dataclass(frozen=True)
class ConfluenceReport:
    probed: int
    discrepancies: tuple[Discrepancy, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass(frozen=True)
class OracleResult:
    dim: int
    basis_cosets: tuple[OpWord, ...]
    word_count: int
    relation_rank: int


class OperatorRing:
    """Computations in the operator ring of one verified instance."""

    def __init__(self, inst: MrbAlgebraInstance):
        if not inst.verified:
            raise PreconditionError("instance must pass check_mrb_identity first")
        self.inst = inst
        alg, d = inst.algebra, inst.dim
        # sparse products e_i e_j and operator images P_a(e_i), by basis index
        self._products = [
            [[(k, c) for k, c in enumerate(alg.structure_constants[i][j]) if c != 0] for j in range(d)]
            for i in range(d)
        ]
        self._images = {
            a: [
                [(k, c) for k, c in enumerate(inst.apply_operator(a, alg.basis_vector(i))) if c != 0]
                for i in range(d)
            ]
            for a in inst.omega
        }
        self._nf_cache: dict[OpWord, tuple[OpElement, int]] = {}
        self._cnf_cache: dict[OpWord, OpElement] = {}
        self._linear_rules: dict[OpWord, OpElement] | None = None
        self._rnf_cache: dict[OpWord, frozenset[OpElement]] = {}
        self._oracle_cache: dict[int, tuple[OracleResult, SparseRowSpace, dict[OpWord, int]]] = {}

    # -- construction -------------------------------------------------------

    def word(self, slots: Sequence[int], ops: Sequence[str]) -> OpWord:
        return basis_word(self.inst, slots, ops)

    def element(self, slots: Sequence[int], ops: Sequence[str], coeff=1) -> OpElement:
        return OpElement.from_dict({self.word(slots, ops): frac(coeff)})

    def word_element(self, vectors: Sequence[Sequence], ops: Sequence[str]) -> OpElement:
        """Multilinear expansion of a word with general vector slots."""
        return OpElement.from_dict(expand_word(self.inst, vectors, ops))

    def unit(self) -> OpElement:
        return self.word_element([self.inst.algebra.unit], [])

    def q_letter(self, label: str) -> OpElement:
        """The element 1 Q[label] 1."""
        u = self.inst.algebra.unit
        return self.word_element([u, u], [label])

    # -- multiplication -----------------------------------------------------

    def _concat(self, a: OpWord, b: OpWord):
        """The words of the product a b with their coefficients; the boundary
        slots merge through the algebra product."""
        for t, c in self._products[a.slots[-1]][b.slots[0]]:
            yield OpWord(a.slots[:-1] + (t,) + b.slots[1:], a.ops + b.ops), c

    def multiply(self, a: OpElement, b: OpElement) -> OpElement:
        """Free-product multiplication; the result is not normalized."""
        out: dict[OpWord, Fraction] = {}
        for wa, ca in a.terms:
            for wb, cb in b.terms:
                for w, c in self._concat(wa, wb):
                    out[w] = out.get(w, Fraction(0)) + ca * cb * c
        return OpElement.from_dict(out)

    # -- rewriting ----------------------------------------------------------

    def rewrite_at(self, w: OpWord, pos: int) -> OpElement:
        """Contract the redex Q_a r Q_b at 1-based position pos.

        pos ranges over 1..q_degree-1; the redex is (ops[pos-1], slots[pos],
        ops[pos]).  Boundary slots are merged through the algebra product,
        so every produced word has q_degree exactly one lower.
        """
        k = w.q_degree
        if not 1 <= pos <= k - 1:
            raise ValueError("no redex at this position")
        alpha, beta = w.ops[pos - 1], w.ops[pos]
        la, lb = self.inst.weight(alpha), self.inst.weight(beta)
        left, mid, right = w.slots[pos - 1: pos + 2]
        head, tail = w.slots[: pos - 1], w.slots[pos + 2:]
        prod = self._products
        out: dict[OpWord, Fraction] = {}

        def emit(slots, ops, coeff):
            if coeff == 0:
                return
            nw = OpWord(slots, ops)
            out[nw] = out.get(nw, Fraction(0)) + coeff

        ops_drop_alpha = w.ops[: pos - 1] + (beta,) + w.ops[pos + 1:]
        ops_drop_beta = w.ops[:pos] + w.ops[pos + 1:]
        for p, cp in self._images[alpha][mid]:
            # + P_a(r) Q_b : merge P_a(r) into the left neighbour slot
            for t, c in prod[left][p]:
                emit(head + (t, right) + tail, ops_drop_alpha, cp * c)
            # - Q_b P_a(r) : merge P_a(r) into the right neighbour slot
            for t, c in prod[p][right]:
                emit(head + (left, t) + tail, ops_drop_alpha, -cp * c)
        # - lambda_b Q_a r  and  - lambda_a Q_b r : collapse the beta letter
        for t, c in prod[mid][right]:
            emit(head + (left, t) + tail, ops_drop_beta, -lb * c)
            emit(head + (left, t) + tail, ops_drop_alpha, -la * c)
        return OpElement.from_dict(out)

    def _nf_word(self, w: OpWord) -> tuple[OpElement, int]:
        """Leftmost-innermost normal form of a single word, with the size of
        its full reduction tree (deterministic, cache independent)."""
        if w.q_degree <= 1:
            return OpElement(((w, Fraction(1)),)), 0
        cached = self._nf_cache.get(w)
        if cached is not None:
            return cached
        step = self.rewrite_at(w, 1)
        total: dict[OpWord, Fraction] = {}
        apps = 1
        for w2, c in step.terms:
            nf2, a2 = self._nf_word(w2)
            apps += a2
            for w3, c3 in nf2.terms:
                total[w3] = total.get(w3, Fraction(0)) + c * c3
        result = (OpElement.from_dict(total), apps)
        self._nf_cache[w] = result
        return result

    def normal_form(self, e: OpElement) -> OpElement:
        """Completed normal form: rewrite to q_degree <= 1, then reduce
        modulo `linear_rules`.  Within the truncations checked (see
        `linear_rules`), two elements have equal normal forms exactly when
        their difference lies in the ideal."""
        out: dict[OpWord, Fraction] = {}
        for w, c in e.terms:
            for w2, c2 in self._completed_word(w).terms:
                out[w2] = out.get(w2, Fraction(0)) + c * c2
        return OpElement.from_dict(out)

    def normalize(self, e: OpElement) -> RewriteReport:
        """`normal_form`, with the number of rewrite-rule applications."""
        apps = sum(self._nf_word(w)[1] for w, _ in e.terms)
        return RewriteReport(e, self.normal_form(e), apps)

    def _completed_word(self, w: OpWord) -> OpElement:
        cached = self._cnf_cache.get(w)
        if cached is None:
            rules = self.linear_rules()
            out: dict[OpWord, Fraction] = {}
            for w2, c in self._nf_word(w)[0].terms:
                for w3, c3 in rules[w2].terms if w2 in rules else ((w2, Fraction(1)),):
                    out[w3] = out.get(w3, Fraction(0)) + c * c3
            cached = OpElement.from_dict(out)
            self._cnf_cache[w] = cached
        return cached

    # -- completion ---------------------------------------------------------

    def linear_rules(self) -> dict[OpWord, OpElement]:
        """The ideal's part in q_degree <= 1, as fully interreduced rules.

        Each leading word (the largest under `OpWord.sort_key`) maps to the
        combination of smaller words it reduces to.  The rewrite rules alone
        are not confluent once two operators have nonzero weight: the
        critical overlap 1 Q_a r Q_b s Q_c 1, reduced at either redex first,
        ends in two degree-one elements whose difference is

            lambda_b (lambda_a 1 Q_c rs - lambda_c 1 Q_a rs)

        (every other term cancels by the operator identity the instance has
        passed).  No rule reduces this difference, yet it lies in the ideal.
        The completion (Knuth-Bendix; Bokut, Chen & Qiu, JPAA 214, 2010)
        adjoins these differences, split over basis elements, and closes
        their span under multiplication on both sides by basis elements and
        operator letters, each product brought back to q_degree <= 1 by the
        rewrite rules; a product that falls back into the span is a resolved
        composition of a linear rule with a rewrite rule.  On every catalog
        instance the result equals the degree <= 1
        part of the truncated oracle at truncations 3 and 4, and the
        completed normal forms count exactly the oracle's quotient
        dimension.  Confluence of the completed system is checked there,
        not proved in general.
        """
        if self._linear_rules is None:
            self._linear_rules = self._complete()
        return self._linear_rules

    def _complete(self) -> dict[OpWord, OpElement]:
        low = self.basis_words(1)
        index = {w: i for i, w in enumerate(low)}
        space = SparseRowSpace()
        fresh: list[OpElement] = []

        def adjoin(e: OpElement) -> None:
            row: dict[int, Fraction] = {}
            for w, c in e.terms:
                for w2, c2 in self._nf_word(w)[0].terms:
                    row[index[w2]] = row.get(index[w2], Fraction(0)) + c * c2
            row = space.reduce(row)
            if row:
                space.add(row)
                fresh.append(OpElement.from_dict({low[i]: c for i, c in row.items()}))

        # seeds lambda_a e_i Q_c e_j - lambda_c e_i Q_a e_j: the overlap
        # differences with their outer algebra factors split over basis
        # elements and the common factor lambda_b dropped
        d, omega = self.inst.dim, self.inst.omega
        for a, c in itertools.combinations(omega, 2):
            for i, j in itertools.product(range(d), repeat=2):
                adjoin(
                    self.element((i, j), (c,), self.inst.weight(a))
                    - self.element((i, j), (a,), self.inst.weight(c))
                )
        gens = [self.element((i,), ()) for i in range(d)] + [self.q_letter(a) for a in omega]
        while fresh:
            e = fresh.pop()
            for g in gens:
                adjoin(self.multiply(g, e))
                adjoin(self.multiply(e, g))
        return {
            low[lead]: OpElement.from_dict({low[i]: -c for i, c in row.items() if i != lead})
            for lead, row in space.reduced_rows().items()
        }

    # -- word enumeration ---------------------------------------------------

    def basis_words(self, max_qdegree: int, min_qdegree: int = 0) -> list[OpWord]:
        d = self.inst.dim
        out = []
        for k in range(min_qdegree, max_qdegree + 1):
            for slots in itertools.product(range(d), repeat=k + 1):
                for ops in itertools.product(self.inst.omega, repeat=k):
                    out.append(OpWord(slots, ops))
        out.sort(key=OpWord.sort_key)
        return out

    # -- confluence probing -------------------------------------------------

    def word_normal_forms(self, w: OpWord, budget: int = 50000) -> frozenset[OpElement]:
        """All normal forms of a word reachable by contracting its redexes in
        any order, each occurrence reduced independently.

        Independent reduction of occurrences over-approximates the merged
        element semantics, so a singleton result certifies order independence
        while a larger set is evidence against it, to be adjudicated by the
        ideal-span oracle.
        """
        memo = self._rnf_cache

        def per_word(word: OpWord) -> frozenset[OpElement]:
            if word.q_degree <= 1:
                return frozenset([OpElement.from_dict({word: Fraction(1)})])
            cached = memo.get(word)
            if cached is not None:
                return cached
            acc: set[OpElement] = set()
            for pos in range(1, word.q_degree):
                step = self.rewrite_at(word, pos)
                options = [
                    (c, sorted(per_word(w2), key=OpElement.sort_key))
                    for w2, c in step.terms
                ]
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
        """Reduce every overlap word (q_degree >= 3) via all redex orders."""
        discrepancies = []
        probed = 0
        for w in self.basis_words(max_qdegree, min_qdegree=3):
            probed += 1
            nfs = sorted(self.word_normal_forms(w), key=OpElement.sort_key)
            if len(nfs) > 1:
                witnesses = tuple(nf - nfs[0] for nf in nfs[1:])
                discrepancies.append(Discrepancy(w, tuple(nfs), witnesses))
        return ConfluenceReport(probed, tuple(discrepancies))

    # -- truncated quotient oracle ------------------------------------------

    def ideal_generator(self, r_index: int, alpha: str, beta: str) -> OpElement:
        """Q_a r Q_b - P_a(r) Q_b + Q_b P_a(r) + l_b Q_a r + l_a Q_b r."""
        alg = self.inst.algebra
        r = alg.basis_vector(r_index)
        p = self.inst.apply_operator(alpha, r)
        u = alg.unit
        la, lb = self.inst.weight(alpha), self.inst.weight(beta)
        e = self.word_element([u, r, u], [alpha, beta])
        e = e - self.word_element([p, u], [beta])
        e = e + self.word_element([u, p], [beta])
        e = e + self.word_element([u, r], [alpha]).scale(lb)
        e = e + self.word_element([u, r], [beta]).scale(la)
        return e

    def ideal_generators(self) -> list[OpElement]:
        d = self.inst.dim
        return [
            self.ideal_generator(i, a, b)
            for i in range(d)
            for a in self.inst.omega
            for b in self.inst.omega
        ]

    def _element_row(self, e: OpElement, index: Mapping[OpWord, int]) -> dict[int, Fraction]:
        return {index[w]: c for w, c in e.terms}

    def _oracle(self, max_qdegree: int) -> tuple[OracleResult, SparseRowSpace, dict[OpWord, int]]:
        cached = self._oracle_cache.get(max_qdegree)
        if cached is not None:
            return cached
        words = self.basis_words(max_qdegree)
        index = {w: i for i, w in enumerate(words)}
        rows = SparseRowSpace()
        d = self.inst.dim
        side_words = self.basis_words(max_qdegree - 2) if max_qdegree >= 2 else []
        for i in range(d):
            for alpha in self.inst.omega:
                for beta in self.inst.omega:
                    g = self.ideal_generator(i, alpha, beta)
                    for u in side_words:
                        ug = self.multiply(OpElement.from_dict({u: Fraction(1)}), g)
                        room = max_qdegree - 2 - u.q_degree
                        for v in side_words:
                            if v.q_degree > room:
                                continue
                            ugv = self.multiply(ug, OpElement.from_dict({v: Fraction(1)}))
                            rows.add(self._element_row(ugv, index))
        cosets = tuple(w for w in words if index[w] not in rows.pivot_columns)
        result = OracleResult(
            dim=len(words) - rows.rank,
            basis_cosets=cosets,
            word_count=len(words),
            relation_rank=rows.rank,
        )
        self._oracle_cache[max_qdegree] = (result, rows, index)
        return result, rows, index

    def truncated_quotient_oracle(self, max_qdegree: int) -> OracleResult:
        """Quotient dimension of the degree-truncated word space by the part
        of the ideal visible inside the truncation.

        Generator multiples whose leading degree exceeds the truncation are
        discarded, so the span under-approximates the ideal; at small degree
        the rewriting system is compared against it for exact agreement.
        """
        if max_qdegree < 0:
            raise ValueError("max_qdegree must be nonnegative")
        return self._oracle(max_qdegree)[0]

    def ideal_contains(self, e: OpElement, max_qdegree: int) -> bool:
        """Membership of e in the truncated ideal span."""
        if e.max_q_degree() > max_qdegree:
            raise ValueError("element exceeds the truncation degree")
        _, rows, index = self._oracle(max_qdegree)
        return rows.contains(self._element_row(e, index))

    # -- free module on generators ------------------------------------------

    def module_word(self, slots: Sequence[int], ops: Sequence[str], gen: str) -> FreeModuleElement:
        return FreeModuleElement.from_dict({(self.word(slots, ops), gen): Fraction(1)})

    def act(self, a: OpElement, m: FreeModuleElement) -> FreeModuleElement:
        """Left action of the ring on free-module elements."""
        out: dict[tuple[OpWord, str], Fraction] = {}
        for wa, ca in a.terms:
            for (wm, g), cm in m.terms:
                for w, c in self._concat(wa, wm):
                    key = (w, g)
                    out[key] = out.get(key, Fraction(0)) + ca * cm * c
        return FreeModuleElement.from_dict(out)

    def free_module_normal_form(self, m: FreeModuleElement) -> FreeModuleElement:
        out: dict[tuple[OpWord, str], Fraction] = {}
        for (w, g), c in m.terms:
            for w2, c2 in self._completed_word(w).terms:
                key = (w2, g)
                out[key] = out.get(key, Fraction(0)) + c * c2
        return FreeModuleElement.from_dict(out)

    def from_operated(self, e: FreeModuleElement) -> FreeModuleElement:
        """Mixable-tensor words already are (operator word, generator) pairs,
        r1 (x) w1 (x) ... (x) rn (x) x being (r1 Q[w1] r2 ... rn, x), so
        elements of the free operated module pass through unchanged."""
        return e
