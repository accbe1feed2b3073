"""Differential tests of the free operated module against its slot loops.

The structure maps of `FreeOperatedModule` are the operator ring's left
action, and its defect elements are ring ideal generators acting on basis
words.  The reference below is the hand-written evaluator they replaced:
the algebra action multiplied into the leading slot, each operator prefixed
over the unit's coordinates, and the defect elements assembled term by term
for each basis word, basis element and label pair.  Both must give the same
elements in the same order, term for term; the defect elements are compared
at depth 3 with two generators on the catalog and on the two reweighted
instances of `test_opring_reference` with denominators 2 and 4.
"""

import random
from fractions import Fraction
from functools import partial

import pytest

from mrb.core import catalog
from mrb.linalg import vector
from mrb.operated import FreeOperatedModule
from mrb.opring import FreeModuleElement, OpWord
from test_opring_reference import INSTANCES

CATALOG = catalog()
NAMES = sorted(CATALOG)
# the catalog and its reweightings with denominators D = 2 and D = 4
REWEIGHTED = sorted(INSTANCES)


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
    - l_a m_b'(r a) per basis word a, basis element r and labels (a, b);
    the five terms are summed in one dict, and the parts that do not depend
    on all four indices are formed once."""
    inst = fom.inst
    act, op = partial(reference_act, inst), partial(reference_apply_operator, inst)
    out = []
    for a_word in fom.basis_words(max_depth):
        a_elem = FreeModuleElement.from_dict({a_word: Fraction(1)})
        mb_a = {beta: op(beta, a_elem) for beta in inst.omega}
        for i in range(inst.dim):
            r = inst.algebra.basis_vector(i)
            ra = act(r, a_elem)
            for alpha in inst.omega:
                p_r = inst.apply_operator(alpha, r)
                la = inst.weight(alpha)
                pr_a, ma_ra = act(p_r, a_elem), op(alpha, ra)
                for beta in inst.omega:
                    lb = inst.weight(beta)
                    g = {}
                    for k, e in ((1, act(p_r, mb_a[beta])), (-1, op(alpha, act(r, mb_a[beta]))),
                                 (-1, op(beta, pr_a)), (-lb, ma_ra), (-la, op(beta, ra))):
                        for key, c in e.terms:
                            g[key] = g.get(key, Fraction(0)) + k * c
                    out.append(FreeModuleElement.from_dict(g))
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

@pytest.mark.parametrize("name", REWEIGHTED)
def test_ideal_generators_match_the_slot_loops(name):
    # depth 3 and two generators: every basis word has a tail after its
    # first slot, appended to -g . e_i, and terms must match in order too
    fom = FreeOperatedModule(INSTANCES[name], ["x", "y"])
    assert fom.ideal_generators(3) == reference_ideal_generators(fom, 3)


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
