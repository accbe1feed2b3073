"""The free operated module on a generator set, built from mixable tensors.

Words have the shape r1 (x) w1 (x) r2 (x) ... (x) rn (x) x: algebra slots
interleaved with operator labels, closed by a generator.  Such a word is the
pair (r1 Q[w1] r2 ... rn, x) of an operator word and a generator, so
elements are `mrb.opring.FreeModuleElement`s, the same type as the free
module over the operator ring.  The depth of a word is its slot count n, one
more than the q_degree of its operator word; prepending operators raises
depth by one and the algebra action multiplies into the leading slot, so
elements are graded by depth.  Slots hold basis indices; words with general
vector slots expand multilinearly, which makes equality a coefficient
comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import MrbAlgebraInstance, PreconditionError
from .linalg import Vector, frac, vector
from .modules import FdLeftModule
from .opring import FreeModuleElement, OpWord, basis_word, expand_word


@dataclass(frozen=True)
class GeneratorSet:
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

    def word_element(self, vectors: Sequence[Sequence], ops: Sequence[str], gen: str) -> FreeModuleElement:
        """Multilinear expansion of a word with general vector slots."""
        self.gens.index(gen)
        terms = expand_word(self.inst, vectors, ops)
        return FreeModuleElement.from_dict({(w, gen): c for w, c in terms.items()})

    def generator(self, name: str) -> FreeModuleElement:
        """The image of a generator, 1_R (x) x."""
        return self.word_element([self.inst.algebra.unit], [], name)

    # -- structure maps ------------------------------------------------------

    def act(self, r: Sequence, e: FreeModuleElement) -> FreeModuleElement:
        """Multiply the leading slot of every word by the algebra element r."""
        r = vector(r)
        alg = self.inst.algebra
        out: dict[tuple[OpWord, str], Fraction] = {}
        for (w, g), c in e.terms:
            prod = alg.multiply(r, alg.basis_vector(w.slots[0]))
            for t, a in enumerate(prod):
                if a == 0:
                    continue
                key = (OpWord((t,) + w.slots[1:], w.ops), g)
                out[key] = out.get(key, Fraction(0)) + c * a
        return FreeModuleElement.from_dict(out)

    def apply_operator(self, label: str, e: FreeModuleElement) -> FreeModuleElement:
        """Prepend 1_R (x) label; depth rises by exactly one."""
        if label not in self.inst.omega:
            raise KeyError(f"unknown operator label {label!r}")
        unit = self.inst.algebra.unit
        out: dict[tuple[OpWord, str], Fraction] = {}
        for (w, g), c in e.terms:
            for t, a in enumerate(unit):
                if a == 0:
                    continue
                key = (OpWord((t,) + w.slots, (label,) + w.ops), g)
                out[key] = out.get(key, Fraction(0)) + c * a
        return FreeModuleElement.from_dict(out)

    # -- enumeration ---------------------------------------------------------

    def basis_words(self, max_depth: int = 4, min_depth: int = 1) -> list[tuple[OpWord, str]]:
        """Basis words by depth, then generator, slots and labels."""
        d = self.inst.dim
        out = []
        for n in range(max(min_depth, 1), max_depth + 1):
            for gen in self.gens.names:
                for slots in itertools.product(range(d), repeat=n):
                    for ops in itertools.product(self.inst.omega, repeat=n - 1):
                        out.append((OpWord(slots, ops), gen))
        return out

    def ideal_generators(self, max_depth: int = 4) -> list[FreeModuleElement]:
        """Defect elements of the coupled axiom over basis data.

        For each basis r, each basis word a of depth <= max_depth and each
        label pair (alpha, beta):

            P_a(r) m_b'(a) - m_a'(r m_b'(a)) - m_b'(P_a(r) a)
                - l_b m_a'(r a) - l_a m_b'(r a).

        The nested m_a'(r m_b'(a)) term makes the result two levels deeper
        than a.
        """
        if not self.inst.verified:
            raise PreconditionError("instance must pass check_mrb_identity first")
        out = []
        alg = self.inst.algebra
        for a_word in self.basis_words(max_depth):
            a_elem = FreeModuleElement.from_dict({a_word: Fraction(1)})
            for i in range(alg.dim):
                r = alg.basis_vector(i)
                for alpha in self.inst.omega:
                    p_r = self.inst.apply_operator(alpha, r)
                    la = self.inst.weight(alpha)
                    for beta in self.inst.omega:
                        lb = self.inst.weight(beta)
                        mb_a = self.apply_operator(beta, a_elem)
                        ra = self.act(r, a_elem)
                        g = self.act(p_r, mb_a)
                        g = g - self.apply_operator(alpha, self.act(r, mb_a))
                        g = g - self.apply_operator(beta, self.act(p_r, a_elem))
                        g = g - self.apply_operator(alpha, ra).scale(lb)
                        g = g - self.apply_operator(beta, ra).scale(la)
                        out.append(g)
        return out

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


@dataclass(frozen=True)
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
        target = self.target
        inst = self.module.inst
        v = self.image_of(gen)
        for slot, op in zip(reversed(w.slots[1:]), reversed(w.ops)):
            v = target.action_matrix(inst.algebra.basis_vector(slot)).apply(v)
            v = target.operator(op).apply(v)
        return target.action_matrix(inst.algebra.basis_vector(w.slots[0])).apply(v)

    def __call__(self, e: FreeModuleElement) -> Vector:
        out = [Fraction(0)] * self.target.dim
        for (w, gen), c in e.terms:
            for q, a in enumerate(self.evaluate_word(w, gen)):
                out[q] += c * a
        return tuple(out)
