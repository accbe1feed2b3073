"""Each checker of the benchmark must pass a true result and reject a
corrupted one, so that a check which passes everything is caught.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checks import (
    check_adjunction,
    check_cli,
    check_collapse,
    check_confluence,
    check_control,
    check_flat,
    check_hom,
    check_normal_forms,
    check_oracle,
    check_reweight,
    check_tensor,
    word_count,
)
from mrb import core, modules, tensor
from mrb.core import CheckReport, MrbAlgebraInstance, ReweightSpec, WeightFamily
from mrb.operated import FreeOperatedModule
from mrb.opring import FreeModuleElement, OperatorRing, OpElement, OpWord

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def sp():
    return core.catalog_instance("scaled_projection(1,2)")


@pytest.fixture(scope="module")
def ring(sp):
    return OperatorRing(sp)


def test_word_count_matches_enumeration(ring):
    assert word_count(2, 2, 0, 3) == len(ring.basis_words(3))
    assert word_count(2, 2, 3, 4) == len(ring.basis_words(4, min_qdegree=3))


def test_oracle_dimension_off_by_one(ring):
    res = ring.truncated_quotient_oracle(3)
    assert check_oracle(ring, 3, res) == []
    assert check_oracle(ring, 3, dataclasses.replace(res, dim=res.dim + 1))
    assert check_oracle(ring, 3, dataclasses.replace(res, word_count=res.word_count - 1))


def test_confluence_probe_count_and_witnesses(ring):
    report = ring.confluence_probe(3)
    assert report.discrepancies
    assert check_confluence(ring, 3, report, confluent=False) == []
    assert check_confluence(ring, 3, dataclasses.replace(report, probed=report.probed + 1), False)
    assert check_confluence(ring, 3, report, confluent=True)
    disc = report.discrepancies[0]
    zero = dataclasses.replace(disc, witnesses=(OpElement.zero(),) * len(disc.witnesses))
    assert check_confluence(ring, 3, dataclasses.replace(report, discrepancies=(zero,)), False)


def test_normal_form_not_reduced(ring):
    x = OpElement.from_dict({OpWord((0, 1, 0), ("1", "2")): Fraction(1)})
    y = OpElement.from_dict({OpWord((1, 0), ("1",)): Fraction(3)})
    nfs = [ring.normal_form(x), ring.normal_form(y)]
    assert check_normal_forms(ring, 3, [x, y], nfs) == []
    assert check_normal_forms(ring, 3, [x, y], [x, nfs[1]])
    assert check_normal_forms(ring, 3, [x, y], [nfs[0], nfs[1] + y])


def test_nonzero_generator_image(sp, ring):
    gens = FreeOperatedModule(sp, ["x"]).ideal_generators(2)
    images = [ring.free_module_normal_form(ring.from_operated(g)) for g in gens]
    assert check_collapse(images) == []
    stray = FreeModuleElement.from_dict({(OpWord((0,), ()), "x"): Fraction(1)})
    assert check_collapse(images[:-1] + [stray])
    assert check_collapse([])


def test_mis_weighted_family_accepted(sp):
    spec = ReweightSpec.from_dict({"a": {"1": 1, "2": 1}, "b": {"2": Fraction(1, 2)}})
    new_inst = core.reweight(sp, spec)
    mod = modules.reweight_module(modules.regular_left_module(sp), spec)
    report = modules.check_left_module(mod)
    assert check_reweight(sp, spec, new_inst, mod, report) == []
    shifted = MrbAlgebraInstance(new_inst.algebra, new_inst.operators,
                                 WeightFamily(new_inst.omega, (new_inst.weight("a") + 1, new_inst.weight("b"))))
    assert check_control(core.check_mrb_identity(shifted)) == []
    # a checker that stopped deciding accepts the shifted family
    assert check_control(CheckReport("mrb-identity", ()))
    # a program that combined the weights wrongly
    wrong = MrbAlgebraInstance(new_inst.algebra, new_inst.operators, shifted.weights)
    assert check_reweight(sp, spec, wrong, mod, report)


def test_flipped_preserved_verdict(sp):
    reg_r = modules.regular_right_module(sp)
    inc = modules.direct_sum([reg_r, reg_r]).inclusions[0]
    free = modules.restricted_free(sp, ["x", "y"])
    report = tensor.flatness_probe(free, [inc])
    assert check_flat(report, 2, 2) == []
    flipped = dataclasses.replace(report.probes[0], verdict="broken")
    assert check_flat(dataclasses.replace(report, probes=(flipped,)), 2, 2)
    assert check_flat(report, 3, 2)


def test_tensor_hom_and_adjunction_dimensions(sp):
    reg, reg_r = modules.regular_left_module(sp), modules.regular_right_module(sp)
    two_l = modules.direct_sum([reg, reg]).module
    two_r = modules.direct_sum([reg_r, reg_r]).module
    t = tensor.tensor_product(two_r, two_l)
    assert check_tensor(t, 2, 2, tensor.bilinearity_report(t)) == []
    assert check_tensor(t, 2, 3)
    assert check_tensor(t, 2, 2, CheckReport("bilinearity", (core.Violation("additivity-left", (0, 0)),)))
    basis = modules.hom_space(two_l, two_l)
    assert check_hom(basis, 2, 2) == []
    assert check_hom(basis[:-1], 2, 2)
    bm = modules.regular_bimodule(sp)
    base = tensor.adjunction_check(reg_r, bm, reg_r)
    rep = tensor.adjunction_check(two_r, bm, reg_r)
    assert check_adjunction(rep, 2, base) == []
    assert check_adjunction(dataclasses.replace(rep, dim_hom_hom=rep.dim_hom_hom + 1), 2, base)
    assert check_adjunction(dataclasses.replace(rep, mutually_inverse=False), 2, base)


def test_one_changed_golden_byte():
    golden = ROOT / "tests" / "golden"
    entry = json.loads((golden / "manifest.json").read_text())[0]
    expected = (golden / "expected" / f"{entry['name']}.json").read_bytes()
    assert check_cli(expected, entry["exit"], expected, entry["exit"]) == []
    changed = bytearray(expected)
    changed[len(changed) // 2] ^= 1
    assert check_cli(bytes(changed), entry["exit"], expected, entry["exit"])
    assert check_cli(expected, entry["exit"] + 1, expected, entry["exit"])


def test_tracer_binds_every_name_and_nests_spans():
    code = """
import spans
from mrb import core, modules
t = spans.Tracer()
spans.install(t)
assert modules.reweight is core.reweight, "imported names must share one wrapper"
inst = core.catalog_instance("scaled_projection(1,2)")
t.enabled, t.job = True, 7
mod = modules.reweight_module(modules.regular_left_module(inst), core.ReweightSpec.identity(inst.omega))
modules.check_left_module(mod)
t.enabled = False
names = [t.names[i] for i in t.name_id]
top = names.index("modules.reweight_module")
inner = names.index("core.reweight")
assert t.parent[top] == -1 and t.parent[inner] == top and set(t.job_id) == {7}
m = spans.per_layer(t.totals())
assert m["core.identity_checks"] == 1 and m["modules.checks"] == 1
assert m["core.self_s"] > 0 and m["modules.self_s"] > 0
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class _RaisingWorkload:
    """One round of two jobs that pass and one that raises."""

    min_rounds = 1

    def __init__(self, seed):
        pass

    def round(self):
        def boom():
            raise AttributeError("boom")

        ok = ("ok", lambda: 1, lambda out: [])
        return [ok, ("boom", boom, lambda out: []), ok]


def test_a_job_that_raises_fails_the_run(monkeypatch, capsys, tmp_path):
    import run
    import worker
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "axioms", _RaisingWorkload)
    monkeypatch.setattr(sys, "argv", ["worker.py", "axioms", "1", "0", "0", "run", str(tmp_path)])
    assert worker.main() == 0
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (res["attempted"], res["failed"], res["failures"]) == (3, 1, [])
    assert "AttributeError: boom" in res["errors"][0]

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "worker", lambda args, mode, seconds=0: {"setup_s": 0.1} if mode == "setup"
                        else res if mode == "run" else {})
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "axioms", "--seconds", "1"])
    assert run.main() == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 3, 1)
