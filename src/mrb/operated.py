"""The free operated module on a generator set, built from mixable tensors.

Words have the shape r1 (x) w1 (x) r2 (x) ... (x) rn (x) x: algebra slots
interleaved with operator labels, closed by a generator.  Such a word is the
pair (r1 Q[w1] r2 ... rn, x) of an operator word and a generator, so
elements are `mrb.opring.FreeModuleElement`s, the elements of the free
module over the operator ring, and the structure maps are that ring's left
action: the algebra element r acts as the ring element r, and the operator
m_a as 1 Q[a] 1.  The depth of a word is its slot count n, one more than
the q_degree of its operator word; operators raise depth by one and the
algebra action multiplies into the leading slot, so elements are graded by
depth.  The basis words of one depth are the ring's words of one q_degree
(`opring.words_of_degree`), closed by each generator in turn.  Slots hold
basis indices; words with general vector slots expand multilinearly, which
makes equality a coefficient comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .core import MrbAlgebraInstance
from .linalg import Vector, _frozen, frac, vector
from .modules import FdLeftModule
from .opring import FreeModuleElement, OperatorRing, OpWord, basis_word, words_of_degree


@_frozen
class GeneratorSet:
    """The distinct generator names X of a free operated module."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None


class FreeOperatedModule:
    """Mixable-tensor model of the free operated module on X."""

    def __init__(self, inst: MrbAlgebraInstance, generators: GeneratorSet | Sequence[str]):
        self.inst = inst
        self.gens = generators if isinstance(generators, GeneratorSet) else GeneratorSet(tuple(generators))

    def word(self, slots: Sequence[int], ops: Sequence[str], gen: str) -> tuple[OpWord, str]:
        w = basis_word(self.inst, slots, ops)
        self.gens.index(gen)
        return w, gen

    def element(self, slots: Sequence[int], ops: Sequence[str], gen: str, coeff=1) -> FreeModuleElement:
        return FreeModuleElement.from_dict({self.word(slots, ops, gen): frac(coeff)})

    @cached_property
    def ring(self) -> OperatorRing:
        """The operator ring whose left action the structure maps are; built
        on first use, so binding words needs no verified instance."""
        return OperatorRing(self.inst)

    # -- structure maps ------------------------------------------------------

    def act(self, r: Sequence, e: FreeModuleElement) -> FreeModuleElement:
        """r . e, the ring's left action by the algebra element r."""
        return self.ring.act(self.ring.word_element([r], []), e)

    def apply_operator(self, label: str, e: FreeModuleElement) -> FreeModuleElement:
        """1 (x) label (x) e, the ring's left action by 1 Q[label] 1; depth
        rises by exactly one."""
        return self.ring.act(self.ring.q_letter(label), e)

    # -- enumeration ---------------------------------------------------------

    def basis_words(self, max_depth: int = 4) -> list[tuple[OpWord, str]]:
        """Basis words by depth, then generator, then in `words_of_degree`
        order: slots, then labels."""
        return [(w, gen) for q in range(max_depth) for gen in self.gens.names
                for w in words_of_degree(self.inst, q)]

    def ideal_generators(self, max_depth: int = 4) -> list[FreeModuleElement]:
        """Defect elements -g . a of the coupled axiom, for each basis word a
        of depth <= max_depth and each ring ideal generator g, in that order.

        For g the generator at 1 Q_a r Q_b 1 (`OperatorRing.ideal_generator`),
        -g . a is

            P_a(r) m_b'(a) - m_a'(r m_b'(a)) - m_b'(P_a(r) a)
                - l_b m_a'(r a) - l_a m_b'(r a),

        two levels deeper than a.  The ring forms -g . e_i once per defect
        and first slot i, in integers and sorted; -g . a for a = e_i rest is
        that element with rest's slots and letters appended to every word,
        which keeps the order, so no element is sorted again.
        """
        ring, d = self.ring, self.inst.dim
        defects = [-g for g in ring.ideal_generators()]
        heads = [[ring.multiply(g, ring.element((i,), ())).terms for g in defects]
                 for i in range(d)]
        return [FreeModuleElement(tuple(
                    ((OpWord._make((w.slots + a.slots[1:], w.ops + a.ops)), gen), c) for w, c in head))
                for a, gen in self.basis_words(max_depth) for head in heads[a.slots[0]]]

    # -- universal property --------------------------------------------------

    def lift(self, images: Mapping[str, Sequence], target: FdLeftModule) -> "OperatedModuleHom":
        """The evaluator determined by generator images in the target.

        The target only needs operator structure over the same instance;
        module axioms are not assumed.
        """
        if target.inst != self.inst:
            raise ValueError("target lives over a different instance")
        missing = [g for g in self.gens.names if g not in images]
        if missing:
            raise KeyError(f"missing image for generator {missing[0]!r}")
        unknown = [g for g in images if g not in self.gens.names]
        if unknown:
            raise KeyError(f"unknown generator {unknown[0]!r}")
        resolved = tuple(vector(images[g]) for g in self.gens.names)
        for v in resolved:
            if len(v) != target.dim:
                raise ValueError("generator image has wrong dimension")
        return OperatedModuleHom(self, target, resolved)


@_frozen
class OperatedModuleHom:
    """Structural evaluator out of the free operated module.

    Evaluation follows the grading: a depth-1 word r (x) x goes to
    r . phi(x), and r1 (x) w1 (x) rest goes to r1 . m_w1(eval(rest)).
    """

    module: FreeOperatedModule
    target: FdLeftModule
    images: tuple[Vector, ...]

    def image_of(self, gen: str) -> Vector:
        return self.images[self.module.gens.index(gen)]

    def evaluate_word(self, w: OpWord, gen: str) -> Vector:
        acts, target = self.target.tables, self.target
        v = self.image_of(gen)
        for slot, op in zip(reversed(w.slots[1:]), reversed(w.ops)):
            v = target.operator(op).apply(acts[slot].apply(v))
        return acts[w.slots[0]].apply(v)

    def __call__(self, e: FreeModuleElement) -> Vector:
        out = [Fraction(0)] * self.target.dim
        for (w, gen), c in e.terms:
            for q, a in enumerate(self.evaluate_word(w, gen)):
                out[q] += c * a
        return tuple(out)
