from functools import cached_property

import pytest

from mrb.core import catalog, instance_to_json, scaled_projection
from mrb.linalg import Matrix, SparseRowSpace
from mrb.modules import FdLeftModule
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


@pytest.fixture
def rref_calls(monkeypatch):
    """The ranks of the eliminations made during the test, one per
    `SparseRowSpace.reduced_rows` call: every elimination, `Matrix.rref` and
    the kernel read-off alike, ends there.  Clear it after the setup that is
    not to be counted."""
    calls = []
    reduced_rows = SparseRowSpace.reduced_rows

    def counted(self):
        calls.append(self.rank)
        return reduced_rows(self)

    monkeypatch.setattr(SparseRowSpace, "reduced_rows", counted)
    return calls


@pytest.fixture
def map_builds(monkeypatch):
    """The modules whose structure maps were built from their action tensor
    during the test, one entry per build of `FdLeftModule.maps`."""
    calls = []
    build = FdLeftModule.maps.func

    def counted(self):
        calls.append(self)
        return build(self)

    maps = cached_property(counted)
    maps.__set_name__(FdLeftModule, "maps")
    monkeypatch.setattr(FdLeftModule, "maps", maps)
    return calls


@pytest.fixture
def permuted():
    """permuted(mod, perm) is the same module in the basis v_perm[0], v_perm[1], ..."""

    def change_basis(mod, perm):
        n = len(perm)
        action = tuple(
            tuple(tuple(block[perm[p]][perm[q]] for q in range(n)) for p in range(n))
            for block in mod.action
        )
        ops = tuple(Matrix([[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
                    for m in mod.operators)
        return type(mod)(mod.inst, n, action, ops)

    return change_basis
