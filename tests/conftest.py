import pytest

from mrb.core import catalog, instance_to_json, scaled_projection
from mrb.opring import OperatorRing


@pytest.fixture(scope="session")
def instances():
    """Named verified catalog instances, shared across the whole run."""
    return catalog()


@pytest.fixture(scope="session")
def rings(instances):
    """One operator ring per catalog instance, with shared rewrite caches."""
    return {name: OperatorRing(inst) for name, inst in instances.items()}


@pytest.fixture(scope="session")
def sp12_regular_doc():
    """`module_to_json` of the regular module of scaled_projection(1,2) on a
    given side.  The algebra is commutative and its basis diagonalises both
    actions and both operators, so the induced Hom and tensor structures
    built from its regular modules reproduce this document."""
    inst = instance_to_json(scaled_projection((1, 2)))

    def doc(side):
        return {
            "side": side,
            "dim": 2,
            "instance": inst,
            "action": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "operators": {"1": [["1", "0"], ["0", "0"]], "2": [["2", "0"], ["0", "0"]]},
        }

    return doc
