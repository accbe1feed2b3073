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

A word is one value, `OpWord`, the (slots, ops) pair the integer kernels
build and key their tables by; `words_of_degree` lists the words of one
q_degree for the ring and for the free operated module.

Elements store slots as basis indices; words built from general algebra
vectors (including the unit, which separates adjacent operator letters in
the free product) are expanded multilinearly into basis-slot words
(`expand_word`).

The ring computes in integers.  D is the lcm of the denominators of the
structure constants, the operator images and the weights; the ring keeps
them as integers times D, so one contraction has integer coefficients over
D^2, and a word of q_degree k >= 1 has its rewriting normal form as an
integer combination over D^(2(k-1)).  Products, normal forms and the rows
of the completion and the oracle clear their inputs' denominators once,
run in `int`, and divide once at the boundary: every coefficient an element
of this module holds is a `Fraction`.  Rows enter `SparseRowSpace` as integer rows, and the engine
eliminates them in integers too: its remainders, which the completion adjoins
and multiplies further, are integer multiples of the rational ones, and
scaling a row does not change its span.  Only the reduced rows that become
the linear rules are divided.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .core import MrbAlgebraInstance, PreconditionError
from .linalg import SparseRowSpace, _cleared, _frozen, frac, vector


class OpWord(namedtuple("OpWord", "slots ops")):
    """Alternating word r0 Q[w1] r1 ... Q[wk] rk; slots are basis indices.
    A named (slots, ops) pair: it equals and hashes as the plain pair."""

    __slots__ = ()

    def __new__(cls, slots: tuple[int, ...], ops: tuple[str, ...]):
        if len(slots) != len(ops) + 1:
            raise ValueError("a word needs exactly one more slot than operator letters")
        return super().__new__(cls, slots, ops)

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


def words_of_degree(inst: MrbAlgebraInstance, q: int) -> Iterator[OpWord]:
    """The words of q_degree q in product order: slots first, then letters in
    `omega` order."""
    return map(OpWord._make, itertools.product(itertools.product(range(inst.dim), repeat=q + 1),
                                                itertools.product(inst.omega, repeat=q)))


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


@_frozen
class OpElement:
    """Finitely supported rational combination of operator words.

    `terms` holds (key, coefficient) pairs with nonzero coefficients, ordered
    by the class-level `key_order`, whose value leads with the key's
    q_degree.  Subclasses change only the key type, `key_order` and the
    two hooks `split` and `join` that take a key apart into its operator
    word and a tag and put a word and a tag back together; the arithmetic,
    the ring's product and its normal form are shared and return the
    subclass.
    """

    terms: tuple[tuple[OpWord, Fraction], ...]

    key_order = staticmethod(OpWord.sort_key)

    @staticmethod
    def split(key) -> tuple[OpWord, object]:
        """The operator word of a term key and the rest of the key."""
        return key, None

    @staticmethod
    def join(word: OpWord, tag):
        """The key on `word` whose rest is `tag`."""
        return word

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

    @staticmethod
    def split(key) -> tuple[OpWord, str]:
        return key

    @staticmethod
    def join(word: OpWord, gen: str):
        return word, gen


@_frozen
class RewriteReport:
    """A normal form with its input and the number of rule applications that reached it."""

    input: OpElement
    output: OpElement
    applications: int
    strategy: str = "leftmost-innermost"


@_frozen
class Discrepancy:
    """A word with distinct normal forms and the differences that witness them."""

    word: OpWord
    normal_forms: tuple[OpElement, ...]
    witnesses: tuple[OpElement, ...]


@_frozen
class ConfluenceReport:
    """The number of words probed and the discrepancies found among them."""

    probed: int
    discrepancies: tuple[Discrepancy, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@_frozen
class OracleResult:
    """The truncated quotient: its dimension, coset representatives and ranks."""

    dim: int
    basis_cosets: tuple[OpWord, ...]
    word_count: int
    relation_rank: int


class BudgetExceeded(RuntimeError):
    """The all-orders search of `OperatorRing.word_normal_forms` met more
    combinations of normal forms at one redex than its budget allows."""

    counted = "confluence search budget exceeded: {count} combinations of normal forms at one redex"

    def __init__(self, budget: int, count: int):
        super().__init__(f"{self.counted.format(count=count)}, budget {budget}")
        self.budget, self.count = budget, count


class OracleBudgetExceeded(BudgetExceeded):
    """The truncated oracle was asked for more words than its budget allows."""

    counted = "oracle budget exceeded: {count} words in the truncation"


class ProbeBudgetExceeded(BudgetExceeded):
    """The confluence probe was asked for more words than its budget allows."""

    counted = "confluence probe budget exceeded: {count} words of q_degree 3 and more"


_BUDGET = 50000
# words of one oracle or confluence probe, 40 times the most the tests and the
# benchmark use; upper_triangular(1,2) at k = 6, 167,961 words, takes 30 s on 2 vCPUs
_WORD_BUDGET = 200000


def _collect(cls: type[OpElement], groups: Mapping[object, Mapping[OpWord, int]], den: int) -> OpElement:
    """The element of type cls whose key `cls.join(word, tag)` has
    coefficient n / den for every nonzero n = groups[tag][word]; the kernels'
    plain (slots, ops) pairs become `OpWord`s here, unchecked."""
    key = cls.key_order
    return cls(tuple(sorted(((cls.join(OpWord._make(w), tag), Fraction(n, den))
                             for tag, combo in groups.items() for w, n in combo.items() if n),
                            key=lambda t: key(t[0]))))


class OperatorRing:
    """Computations in the operator ring of one verified instance."""

    def __init__(self, inst: MrbAlgebraInstance):
        if not inst.verified:
            raise PreconditionError("instance must pass check_mrb_identity first")
        self.inst = inst
        alg, d, s = inst.algebra, inst.dim, len(inst.omega)
        vectors = [*itertools.chain(*alg.structure_constants),
                   *(inst.apply_operator(a, alg.basis_vector(i)) for a in inst.omega for i in range(d))]
        den, pairs = _cleared([*zip(inst.omega, inst.weights.values),
                               *(((r, k), c) for r, v in enumerate(vectors) for k, c in enumerate(v) if c)])
        self._d, self._d2 = den, den * den
        # D times the weights, the products e_i e_j and the images P_a(e_i),
        # the last two sparse by basis index
        self._weights = dict(pairs[:s])
        rows: list[list[tuple[int, int]]] = [[] for _ in vectors]
        for (r, k), n in pairs[s:]:
            rows[r].append((k, n))
        self._products = [rows[i * d:(i + 1) * d] for i in range(d)]
        self._images = {a: rows[d * (d + k):d * (d + k + 1)] for k, a in enumerate(inst.omega)}
        self._redexes: dict[tuple, tuple[tuple[int, int, str, int], ...]] = {}
        self._nf_cache: dict[OpWord, tuple[dict[OpWord, int], int]] = {}
        self._cnf_cache: dict[OpWord, dict[OpWord, int]] = {}
        self._linear_rules: dict[OpWord, OpElement] | None = None
        self._int_rules: tuple[int, dict[OpWord, dict[OpWord, int]]] | None = None
        self._rnf_cache: dict[OpWord, frozenset[frozenset[tuple[OpWord, int]]]] = {}
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

    def _product(self, a: Iterable[tuple[OpWord, int]],
                 b: Iterable[tuple[OpWord, int]]) -> dict[OpWord, int]:
        """The product of two integer combinations of words, over D: the
        boundary slots merge through the product table, and a pair whose
        boundary product is zero is skipped."""
        products, out = self._products, {}
        for (sa, oa), ca in a:
            head, merge = sa[:-1], products[sa[-1]]
            for (sb, ob), cb in b:
                merged = merge[sb[0]]
                if merged:
                    ops, tail, c = oa + ob, sb[1:], ca * cb
                    for t, n in merged:
                        w = (head + (t,) + tail, ops)
                        out[w] = out.get(w, 0) + c * n
        return out

    def multiply(self, a: OpElement, b: OpElement) -> OpElement:
        """Free-product multiplication a b, not normalized.  The right factor
        may be a free-module element, on which the ring acts from the left;
        the product has b's element type.  Both factors are cleared to
        integers once, and the product is divided once by their lcms and D."""
        cls = type(b)
        den_a, a_int = _cleared(a.terms)
        den_b, b_int = _cleared(b.terms)
        groups: dict[object, list[tuple[OpWord, int]]] = {}
        for key, c in b_int:
            w, tag = cls.split(key)
            groups.setdefault(tag, []).append((w, c))
        return _collect(cls, {tag: self._product(a_int, b_w) for tag, b_w in groups.items()},
                        den_a * den_b * self._d)

    act = multiply

    # -- rewriting ----------------------------------------------------------

    def _redex(self, x: int, a: str, y: int, b: str, z: int) -> tuple[tuple[int, int, str, int], ...]:
        """The contraction of x Q_a y Q_b z, as merged (left slot, right slot,
        kept letter, n) entries with n over D^2; built on first use."""
        key = (x, a, y, b, z)
        entries = self._redexes.get(key)
        if entries is None:
            products, out = self._products, {}
            for p, cp in self._images[a][y]:
                # + P_a(y) Q_b : merge P_a(y) into the left neighbour slot
                for t, c in products[x][p]:
                    out[t, z, b] = out.get((t, z, b), 0) + cp * c
                # - Q_b P_a(y) : merge P_a(y) into the right neighbour slot
                for t, c in products[p][z]:
                    out[x, t, b] = out.get((x, t, b), 0) - cp * c
            # - lambda_b Q_a y  and  - lambda_a Q_b y : collapse the b letter
            la, lb = self._weights[a], self._weights[b]
            for t, c in products[y][z]:
                out[x, t, a] = out.get((x, t, a), 0) - lb * c
                out[x, t, b] = out.get((x, t, b), 0) - la * c
            entries = tuple((left, right, kept, n) for (left, right, kept), n in out.items() if n)
            self._redexes[key] = entries
        return entries

    def _contract(self, word: OpWord, pos: int) -> list[tuple[OpWord, int]]:
        """The words of the contraction at pos with their integer
        coefficients over D^2."""
        slots, ops = word
        head, tail = slots[: pos - 1], slots[pos + 2:]
        before, after = ops[: pos - 1], ops[pos + 1:]
        x, y, z = slots[pos - 1: pos + 2]
        return [((head + (left, right) + tail, before + (kept,) + after), n)
                for left, right, kept, n in self._redex(x, ops[pos - 1], y, ops[pos], z)]

    def rewrite_at(self, w: OpWord, pos: int) -> OpElement:
        """Contract the redex Q_a r Q_b at 1-based position pos.

        pos ranges over 1..q_degree-1; the redex is (ops[pos-1], slots[pos],
        ops[pos]).  Boundary slots are merged through the algebra product,
        so every produced word has q_degree exactly one lower.  The
        coefficients come from the ring's redex table, integers over D^2
        filled on first use, and are divided by D^2 here.
        """
        if not 1 <= pos <= w.q_degree - 1:
            raise ValueError("no redex at this position")
        return _collect(OpElement, {None: dict(self._contract(w, pos))}, self._d2)

    def _nf_den(self, q_degree: int) -> int:
        """D^(2(k-1)), the denominator of the normal form of a word of
        q_degree k (1 when k <= 1)."""
        return self._d2 ** max(q_degree - 1, 0)

    def _nf_word(self, word: OpWord) -> tuple[dict[OpWord, int], int]:
        """Leftmost-innermost normal form of a single word, with the size of
        its full reduction tree (deterministic, cache independent).

        Every contraction lowers q_degree by exactly one and has integer
        coefficients over D^2, so the normal form of a word of q_degree k is
        returned as an integer combination over D^(2(k-1)) (`_nf_den`); the
        caller divides once, at the boundary.

        The leftmost redex of r0 Q[w1] r1 Q[w2] r2 ... leaves words that
        begin with one letter, r' Q[w'] r'' Q[w3] r3 ..., and share the rest,
        so the reduction is a left fold over the letters w2, w3, ...: its
        state is a combination of (left slot, letter, right slot) triples,
        each carried through `_redex` with the next letter and slot.  Beside
        each coefficient the state counts the paths of the reduction tree
        that reach the triple, so a triple whose coefficient cancels is
        still contracted, and counted, as the tree contracts it.
        """
        slots, ops = word
        if len(ops) <= 1:
            return {word: 1}, 0
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        # (left slot, letter, right slot) -> coefficient, and -> path count;
        # the first contraction's entries are distinct, each reached once
        state = {(left, kept, right): n for left, right, kept, n
                 in self._redex(slots[0], ops[0], slots[1], ops[1], slots[2])}
        paths = dict.fromkeys(state, 1)
        apps = 1
        for b, z in zip(ops[2:], slots[3:]):
            coeffs: dict[tuple[int, str, int], int] = {}
            counts: dict[tuple[int, str, int], int] = {}
            for (x, a, y), c in state.items():
                p = paths[x, a, y]
                apps += p
                for left, right, kept, n in self._redex(x, a, y, b, z):
                    key = (left, kept, right)
                    coeffs[key] = coeffs.get(key, 0) + c * n
                    counts[key] = counts.get(key, 0) + p
            state, paths = coeffs, counts
        result = ({((x, y), (a,)): c for (x, a, y), c in state.items() if c}, apps)
        self._nf_cache[word] = result
        return result

    def normal_form(self, e: OpElement) -> OpElement:
        """Completed normal form: rewrite to q_degree <= 1, then reduce
        modulo `linear_rules`.  Within the truncations checked (see
        `linear_rules`), two elements have equal normal forms exactly when
        their difference lies in the ideal.  A free-module element is
        normalized word by word, each generator kept.

        The coefficients of e are cleared to integers over their lcm L once.
        A word's completed normal form is an integer combination over
        D^(2(k-1)) R, R clearing the linear rules; each is brought to the
        largest q_degree K in e, and the sum is divided once, by
        L D^(2(K-1)) R.
        """
        if e.is_zero():
            return e
        cls = type(e)
        den, ints = _cleared(e.terms)
        top = self._nf_den(e.max_q_degree())
        groups: dict[object, dict[OpWord, int]] = {}
        for key, c in ints:
            w, tag = cls.split(key)
            acc = groups.setdefault(tag, {})
            c *= top // self._nf_den(w.q_degree)
            for w3, n in self._completed_word(w).items():
                acc[w3] = acc.get(w3, 0) + c * n
        return _collect(cls, groups, den * top * self._int_rules[0])

    free_module_normal_form = normal_form

    def normalize(self, e: OpElement) -> RewriteReport:
        """`normal_form`, with the number of rewrite-rule applications."""
        apps = sum(self._nf_word(e.split(k)[0])[1] for k, _ in e.terms)
        return RewriteReport(e, self.normal_form(e), apps)

    def _completed_word(self, word: OpWord) -> dict[OpWord, int]:
        """The completed normal form of a word of q_degree k, as an integer
        combination over D^(2(k-1)) R."""
        cached = self._cnf_cache.get(word)
        if cached is None:
            self.linear_rules()
            den, rules = self._int_rules
            out: dict[OpWord, int] = {}
            for w2, c in self._nf_word(word)[0].items():
                rule = rules.get(w2)
                if rule is None:
                    out[w2] = out.get(w2, 0) + c * den
                else:
                    for w3, c3 in rule.items():
                        out[w3] = out.get(w3, 0) + c * c3
            cached = {w: n for w, n in out.items() if n}
            self._cnf_cache[word] = cached
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
        not proved in general.  The ring also keeps the rules as integer
        rows over one denominator R, for `normal_form`.
        """
        if self._linear_rules is None:
            low, reduced = self._complete()
            rules = {lead: {i: -c for i, c in row.items() if i != lead}
                     for lead, row in reduced.items()}
            den, pairs = _cleared([((lead, i), c) for lead, rhs in rules.items() for i, c in rhs.items()])
            int_rules: dict[OpWord, dict[OpWord, int]] = {low[lead]: {} for lead in rules}
            for (lead, i), n in pairs:
                int_rules[low[lead]][low[i]] = n
            self._int_rules = den, int_rules
            self._linear_rules = {low[lead]: OpElement.from_dict({low[i]: c for i, c in rhs.items()})
                                  for lead, rhs in rules.items()}
        return self._linear_rules

    def _complete(self) -> tuple[list[OpWord], dict[int, dict[int, Fraction]]]:
        """The words of q_degree <= 1 and the reduced rows, by leading word
        index, of the ideal's span among them."""
        low = self.basis_words(1)
        index = {w: i for i, w in enumerate(low)}
        space = SparseRowSpace()
        fresh: list[list[tuple[OpWord, int]]] = []
        top = self._nf_den(2)

        def adjoin(e: dict[OpWord, int]) -> None:
            # e has q_degree <= 2; its row is the normal form over D^2
            row: dict[int, int] = {}
            for w, c in e.items():
                c *= top // self._nf_den(len(w[1]))
                for w2, c2 in self._nf_word(w)[0].items():
                    row[index[w2]] = row.get(index[w2], 0) + c * c2
            # the engine's remainder is an integer multiple of the rational
            # one, so it spans what that does
            row = space.reduce(row)
            if row:
                space.add(row)
                fresh.append([(low[i], n) for i, n in row.items()])

        # seeds lambda_a e_i Q_c e_j - lambda_c e_i Q_a e_j: the overlap
        # differences with their outer algebra factors split over basis
        # elements and the common factor lambda_b dropped
        d, omega, lam = self.inst.dim, self.inst.omega, self._weights
        for a, c in itertools.combinations(omega, 2):
            for i, j in itertools.product(range(d), repeat=2):
                adjoin({((i, j), (c,)): lam[a], ((i, j), (a,)): -lam[c]})
        gens = [[(((i,), ()), 1)] for i in range(d)]
        gens += [_cleared(self.q_letter(a).terms)[1] for a in omega]
        while fresh:
            e = fresh.pop()
            for g in gens:
                adjoin(self._product(g, e))
                adjoin(self._product(e, g))
        return low, space.reduced_rows()

    # -- word enumeration ---------------------------------------------------

    def basis_words(self, max_qdegree: int, min_qdegree: int = 0) -> list[OpWord]:
        """The words of q_degree min_qdegree..max_qdegree, sorted by
        `OpWord.sort_key`."""
        words = [w for q in range(min_qdegree, max_qdegree + 1) for w in words_of_degree(self.inst, q)]
        return sorted(words, key=OpWord.sort_key)

    # -- confluence probing -------------------------------------------------

    def _word_normal_forms(self, word: OpWord) -> frozenset[frozenset[tuple[OpWord, int]]]:
        """The normal forms of `word_normal_forms`, each as the frozenset of
        its (word, n) pairs, n over D^(2(k-1))."""
        if len(word[1]) <= 1:
            return frozenset([frozenset([(word, 1)])])
        cached = self._rnf_cache.get(word)
        if cached is not None:
            return cached
        acc: set[frozenset[tuple[OpWord, int]]] = set()
        for pos in range(1, len(word[1])):
            options = [(c, self._word_normal_forms(w2)) for w2, c in self._contract(word, pos)]
            count = prod(len(nfs) for _, nfs in options)
            if count > _BUDGET:
                raise BudgetExceeded(_BUDGET, count)
            for choice in itertools.product(*(nfs for _, nfs in options)):
                total: dict[OpWord, int] = {}
                for (c, _), nf in zip(options, choice):
                    for w3, n in nf:
                        total[w3] = total.get(w3, 0) + c * n
                acc.add(frozenset((w3, n) for w3, n in total.items() if n))
        result = frozenset(acc)
        self._rnf_cache[word] = result
        return result

    def word_normal_forms(self, w: OpWord) -> frozenset[OpElement]:
        """All normal forms of a word reachable by contracting its redexes in
        any order, each occurrence reduced independently.

        Independent reduction of occurrences over-approximates the merged
        element semantics, so a singleton result certifies order independence
        while a larger set is evidence against it, to be adjudicated by the
        ideal-span oracle.  The search runs on integer normal forms over
        D^(2(k-1)), divided once for the result.  It raises `BudgetExceeded`
        when the normal forms of one contraction's words combine in more
        than `_BUDGET` ways.
        """
        den = self._nf_den(w.q_degree)
        return frozenset(_collect(OpElement, {None: dict(nf)}, den)
                         for nf in self._word_normal_forms(w))

    def _check_word_count(self, error: type[BudgetExceeded], lo: int, hi: int) -> None:
        """Raise error before any word is built when the words of q_degree
        lo..hi are more than `_WORD_BUDGET`."""
        d, s = self.inst.dim, len(self.inst.omega)
        count = sum(d ** (q + 1) * s ** q for q in range(lo, hi + 1))
        if count > _WORD_BUDGET:
            raise error(_WORD_BUDGET, count)

    def confluence_probe(self, max_qdegree: int) -> ConfluenceReport:
        """Reduce every overlap word (q_degree >= 3) via all redex orders.
        More than `_WORD_BUDGET` such words raise `ProbeBudgetExceeded`
        before any is built."""
        self._check_word_count(ProbeBudgetExceeded, 3, max_qdegree)
        discrepancies = []
        probed = 0
        for w in self.basis_words(max_qdegree, min_qdegree=3):
            probed += 1
            if len(self._word_normal_forms(w)) > 1:
                nfs = sorted(self.word_normal_forms(w), key=OpElement.sort_key)
                witnesses = tuple(nf - nfs[0] for nf in nfs[1:])
                discrepancies.append(Discrepancy(w, tuple(nfs), witnesses))
        return ConfluenceReport(probed, tuple(discrepancies))

    # -- truncated quotient oracle ------------------------------------------

    def ideal_generator(self, r_index: int, alpha: str, beta: str) -> OpElement:
        """The rewrite rule at 1 Q_a r Q_b 1 taken as a relation: the word,
        expanded over the unit, less its contraction."""
        alg = self.inst.algebra
        e = self.word_element([alg.unit, alg.basis_vector(r_index), alg.unit], [alpha, beta])
        return e - sum((self.rewrite_at(w, 1).scale(c) for w, c in e.terms), OpElement.zero())

    def ideal_generators(self) -> list[OpElement]:
        omega = self.inst.omega
        return [self.ideal_generator(i, a, b) for i in range(self.inst.dim)
                for a in omega for b in omega]

    def _oracle(self, max_qdegree: int) -> tuple[OracleResult, SparseRowSpace, dict[OpWord, int]]:
        cached = self._oracle_cache.get(max_qdegree)
        if cached is not None:
            return cached
        self._check_word_count(OracleBudgetExceeded, 0, max_qdegree)
        words = self.basis_words(max_qdegree)
        index = {w: i for i, w in enumerate(words)}
        rows = SparseRowSpace()
        side = [(w, 1) for w in self.basis_words(max_qdegree - 2)]
        for g in self.ideal_generators():
            # the integer row of u g v spans what the rational one does
            g_int = _cleared(g.terms)[1]
            for u in side:
                ug = self._product([u], g_int).items()
                room = max_qdegree - 2 - len(u[0][1])
                for v in side:
                    if len(v[0][1]) <= room:
                        rows.add({index[w]: n for w, n in self._product(ug, [v]).items()})
        pivots = rows.pivot_columns
        cosets = tuple(w for i, w in enumerate(words) if i not in pivots)
        result = OracleResult(len(words) - rows.rank, cosets, len(words), rows.rank)
        self._oracle_cache[max_qdegree] = (result, rows, index)
        return result, rows, index

    def truncated_quotient_oracle(self, max_qdegree: int) -> OracleResult:
        """Quotient dimension of the degree-truncated word space by the part
        of the ideal visible inside the truncation.

        Generator multiples whose leading degree exceeds the truncation are
        discarded, so the span under-approximates the ideal; at small degree
        the rewriting system is compared against it for exact agreement.
        A truncation of more than `_WORD_BUDGET` words raises
        `OracleBudgetExceeded` before any word is built.
        """
        if max_qdegree < 0:
            raise ValueError("max_qdegree must be nonnegative")
        return self._oracle(max_qdegree)[0]

    def ideal_contains(self, e: OpElement, max_qdegree: int) -> bool:
        """Membership of e in the truncated ideal span."""
        if e.max_q_degree() > max_qdegree:
            raise ValueError("element exceeds the truncation degree")
        _, rows, index = self._oracle(max_qdegree)
        return rows.contains({index[w]: c for w, c in e.terms})

    # -- free module on generators ------------------------------------------

    def module_word(self, slots: Sequence[int], ops: Sequence[str], gen: str) -> FreeModuleElement:
        return FreeModuleElement.from_dict({(self.word(slots, ops), gen): Fraction(1)})

    def from_operated(self, e: FreeModuleElement) -> FreeModuleElement:
        """Mixable-tensor words already are (operator word, generator) pairs,
        r1 (x) w1 (x) ... (x) rn (x) x being (r1 Q[w1] r2 ... rn, x), so
        elements of the free operated module pass through unchanged."""
        return e
