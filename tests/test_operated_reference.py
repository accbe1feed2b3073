"""Differential tests of the free operated module against its slot loops.

The structure maps of `FreeOperatedModule` are the operator ring's left
action, and its defect elements are ring ideal generators acting on basis
words.  The reference below is the hand-written evaluator they replaced:
the algebra action multiplied into the leading slot, each operator prefixed
over the unit's coordinates, and the defect elements assembled term by term
for each basis word, basis element and label pair.  Both must give the same
elements in the same order.
"""

import random
from fractions import Fraction
from functools import partial

import pytest

from mrb.core import catalog
from mrb.linalg import vector
from mrb.operated import FreeOperatedModule
from mrb.opring import FreeModuleElement, OpWord

CATALOG = catalog()
NAMES = sorted(CATALOG)


# -- reference evaluator: slot loops -------------------------------------------

def reference_act(inst, r, e):
    """Multiply the leading slot of every word by the algebra element r."""
    r = vector(r)
    alg = inst.algebra
    out = {}
    for (w, g), c in e.terms:
        prod = alg.multiply(r, alg.basis_vector(w.slots[0]))
        for t, a in enumerate(prod):
            if a == 0:
                continue
            key = (OpWord((t,) + w.slots[1:], w.ops), g)
            out[key] = out.get(key, Fraction(0)) + c * a
    return FreeModuleElement.from_dict(out)


def reference_apply_operator(inst, label, e):
    """Prepend 1_R (x) label."""
    if label not in inst.omega:
        raise KeyError(f"unknown operator label {label!r}")
    out = {}
    for (w, g), c in e.terms:
        for t, a in enumerate(inst.algebra.unit):
            if a == 0:
                continue
            key = (OpWord((t,) + w.slots, (label,) + w.ops), g)
            out[key] = out.get(key, Fraction(0)) + c * a
    return FreeModuleElement.from_dict(out)


def reference_ideal_generators(fom, max_depth):
    """P_a(r) m_b'(a) - m_a'(r m_b'(a)) - m_b'(P_a(r) a) - l_b m_a'(r a)
    - l_a m_b'(r a) per basis word a, basis element r and labels (a, b)."""
    inst = fom.inst
    act, op = partial(reference_act, inst), partial(reference_apply_operator, inst)
    out = []
    for a_word in fom.basis_words(max_depth):
        a_elem = FreeModuleElement.from_dict({a_word: Fraction(1)})
        for i in range(inst.dim):
            r = inst.algebra.basis_vector(i)
            for alpha in inst.omega:
                p_r = inst.apply_operator(alpha, r)
                la = inst.weight(alpha)
                for beta in inst.omega:
                    lb = inst.weight(beta)
                    mb_a = op(beta, a_elem)
                    ra = act(r, a_elem)
                    g = act(p_r, mb_a)
                    g = g - op(alpha, act(r, mb_a))
                    g = g - op(beta, act(p_r, a_elem))
                    g = g - op(alpha, ra).scale(lb)
                    g = g - op(beta, ra).scale(la)
                    out.append(g)
    return out


def _random_element(fom, rng, max_depth=3):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        n = rng.randint(1, max_depth)
        slots = tuple(rng.randrange(fom.inst.dim) for _ in range(n))
        ops = tuple(rng.choice(fom.inst.omega) for _ in range(n - 1))
        terms[(OpWord(slots, ops), rng.choice(fom.gens.names))] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 3))
    return FreeModuleElement.from_dict(terms)


# -- the ring-backed module against the reference ------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_ideal_generators_match_the_slot_loops(name):
    fom = FreeOperatedModule(CATALOG[name], ["x", "y"])
    assert fom.ideal_generators(2) == reference_ideal_generators(fom, 2)


@pytest.mark.parametrize("name", NAMES)
def test_structure_maps_match_the_slot_loops(name):
    inst = CATALOG[name]
    fom = FreeOperatedModule(inst, ["x", "y"])
    rng = random.Random(NAMES.index(name))
    for _ in range(20):
        e = _random_element(fom, rng)
        r = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(inst.dim))
        assert fom.act(r, e) == reference_act(inst, r, e)
        for label in inst.omega:
            assert fom.apply_operator(label, e) == reference_apply_operator(inst, label, e)
    with pytest.raises(KeyError, match="unknown operator label"):
        fom.apply_operator("nope", e)
