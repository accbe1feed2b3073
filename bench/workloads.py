"""The in-process workloads: inputs made from the seed, jobs, and checks.

A workload is built once (its set-up: building and verifying the inputs) and
then yields rounds.  Every round holds the same jobs in a seeded order, with
seeded parameters, so runs of different seeds and lengths do the same mix of
work.  A job is ``(label, run, check)``: ``run()`` is the timed call into the
program and returns its result, ``check(result)`` returns failure messages
and is not timed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    combined_family,
)
from mrb import core, modules, tensor
from mrb.linalg import Matrix
from mrb.operated import FreeOperatedModule
from mrb.opring import OperatorRing, OpElement, OpWord

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


class Rewrite:
    """Operator-ring questions, each on a fresh ring."""

    name = "rewrite"
    min_rounds = 3
    multi = ("scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)")
    batch = 24

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        pool = [(n, core.catalog_instance(n)) for n in self.multi]
        pool.append(("trivial(2,2)", core.catalog_instance("trivial(2,2)")))
        for name, inst in pool[:3]:
            pool.append((f"reweighted {name}", core.reweight(inst, self._spec(inst))))
        if not all(inst.verified for _, inst in pool):
            raise RuntimeError("rewrite instance pool failed verification")
        self.pool = pool

    def _spec(self, inst) -> core.ReweightSpec:
        """A seeded reweighting with as many operators as the source, each
        nonzero and all distinct, so every seed rewrites a family of the same
        shape."""
        while True:
            spec = core.ReweightSpec.from_dict({
                f"r{i + 1}": {w: Fraction(self.rng.choice((-2, -1, 1, 2)), self.rng.randint(1, 2))
                              for w in inst.omega}
                for i in range(len(inst.omega))
            })
            ops = [m for _, m, _ in combined_family(inst, spec)]
            if len(set(ops)) == len(ops) and all(any(x for r in m for x in r) for m in ops):
                return spec

    def _element(self, inst) -> OpElement:
        terms = {}
        for _ in range(3):
            q = self.rng.randint(0, 3)
            w = OpWord(tuple(self.rng.randrange(inst.dim) for _ in range(q + 1)),
                       tuple(self.rng.choice(inst.omega) for _ in range(q)))
            terms[w] = terms.get(w, Fraction(0)) + Fraction(self.rng.randint(1, 5), self.rng.randint(1, 3))
        return OpElement.from_dict(terms)

    def round(self) -> list:
        jobs = []
        for name, inst in self.pool:
            k = 4 if (inst.dim, len(inst.omega)) == (2, 2) else 3
            confluent = name.startswith("trivial")
            jobs += [
                (f"oracle {name} k={k}", *_oracle(inst, k)),
                (f"confluence {name} k={k}", *_confluence(inst, k, confluent)),
                (f"collapse {name}", *_collapse(inst)),
            ]
            # two batches per instance put the median job inside the
            # confluence probes rather than on the step between two kinds
            for b in "AB":
                elements = [self._element(inst) for _ in range(self.batch)]
                jobs.append((f"normal forms {b} {name}", *_normal_forms(inst, elements)))
        self.rng.shuffle(jobs)
        return jobs


def _oracle(inst, k):
    def run():
        ring = OperatorRing(inst)
        return ring, ring.truncated_quotient_oracle(k)
    return run, lambda out: check_oracle(out[0], k, out[1])


def _confluence(inst, k, confluent):
    def run():
        ring = OperatorRing(inst)
        return ring, ring.confluence_probe(k)
    return run, lambda out: check_confluence(out[0], k, out[1], confluent)


def _normal_forms(inst, elements):
    def run():
        ring = OperatorRing(inst)
        return ring, [ring.normal_form(x) for x in elements]
    return run, lambda out: check_normal_forms(out[0], 3, elements, out[1])


def _collapse(inst):
    def run():
        ring = OperatorRing(inst)
        gens = FreeOperatedModule(inst, ["x"]).ideal_generators(3)
        return [ring.free_module_normal_form(ring.from_operated(g)) for g in gens]
    return run, check_collapse


class Axioms:
    """Criterion-2 property sweep: reweight, reweight the regular module,
    check the module."""

    name = "axioms"
    min_rounds = 6

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.instances = core.catalog()
        if not all(inst.verified for inst in self.instances.values()):
            raise RuntimeError("catalog failed verification")
        self.regular = {n: modules.regular_left_module(inst) for n, inst in self.instances.items()}

    def round(self) -> list:
        jobs = []
        for name, inst in self.instances.items():
            for rows in (1, 2, 3):
                spec = core.ReweightSpec.from_dict({
                    f"i{j}": {w: _coefficient(self.rng) for w in inst.omega} for j in range(rows)
                })
                jobs.append((f"reweight {name} rows={rows}",
                             *_reweight(inst, self.regular[name], spec, self.rng.random())))
        self.rng.shuffle(jobs)
        return jobs


def _reweight(inst, reg, spec, pick: float):
    def run():
        new_inst = core.reweight(inst, spec)
        mod = modules.reweight_module(reg, spec)
        return new_inst, mod, modules.check_left_module(mod)

    def check(out):
        new_inst, mod, report = out
        fails = check_reweight(inst, spec, new_inst, mod, report)
        family = combined_family(inst, spec)
        nonzero = [i for i, (_, m, _) in enumerate(family) if any(x != 0 for r in m for x in r)]
        if nonzero and not fails:
            shift = nonzero[int(pick * len(nonzero))]
            weights = tuple(lam + (1 if i == shift else 0) for i, (_, _, lam) in enumerate(family))
            control = core.MrbAlgebraInstance(
                new_inst.algebra, new_inst.operators, core.WeightFamily(new_inst.omega, weights))
            fails += check_control(core.check_mrb_identity(control))
        return fails

    return run, check


def permuted(mod, perm):
    """The same module in the basis v_perm[0], v_perm[1], ..."""
    n = len(perm)
    action = tuple(
        tuple(tuple(block[perm[p]][perm[q]] for q in range(n)) for p in range(n))
        for block in mod.action
    )
    ops = tuple(Matrix([[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
                for m in mod.operators)
    return type(mod)(mod.inst, n, action, ops)


class Tensor:
    """Module constructions of growing size, in seeded bases."""

    name = "tensor"
    min_rounds = 3
    instances = ("scaled_projection(1,2)", "scaled_projection(2,3,5)", "upper_triangular(1,2)")
    max_k = 4
    max_gens = 3
    bilinearity_ambient = 16

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.setups = []
        for name in self.instances:
            inst = core.catalog_instance(name)
            reg, reg_r = modules.regular_left_module(inst), modules.regular_right_module(inst)
            s = {"name": name, "left": {}, "right": {}, "free": {}}
            for k in range(1, self.max_k + 1):
                s["left"][k] = self._seeded(modules.direct_sum([reg] * k).module)
                s["right"][k] = self._seeded(modules.direct_sum([reg_r] * k).module)
            for n in range(1, self.max_gens + 1):
                s["free"][n] = self._seeded(modules.restricted_free(inst, [f"x{i}" for i in range(n)]))
            # sums and base changes of a module are modules: verifying the
            # summands verifies every input built from them
            if not modules.check_left_module(reg).ok or not modules.check_action_laws(reg_r).ok:
                raise RuntimeError(f"{name}: regular module failed its checker")
            s["pair"] = modules.direct_sum([reg_r, reg_r])
            s["tensor_base"] = tensor.tensor_product(reg_r, reg).dim
            s["hom_base"] = len(modules.hom_space(reg, reg))
            bm = modules.regular_bimodule(inst)
            if modules.check_bimodule(bm).ok:
                s["bimodule"] = bm
                s["adjunction_base"] = tensor.adjunction_check(reg_r, bm, reg_r)
            if name == "scaled_projection(1,2)" and (s["tensor_base"], s["hom_base"]) != (2, 2):
                raise RuntimeError("base dimensions on scaled_projection(1,2) are not 2")
            self.setups.append(s)

    def _seeded(self, mod):
        perm = list(range(mod.dim))
        self.rng.shuffle(perm)
        return permuted(mod, perm)

    def round(self) -> list:
        jobs = []
        for s in self.setups:
            name = s["name"]
            for k in range(1, self.max_k + 1):
                jobs.append((f"tensor {name} k={k}", *_tensor_job(s, k, self.bilinearity_ambient)))
                jobs.append((f"hom {name} k={k}", *_hom_job(s, k)))
            for n in range(1, self.max_gens + 1):
                inc = s["pair"].inclusions[self.rng.randrange(2)]
                jobs.append((f"flat {name} |X|={n}", *_flat_job(s, n, inc)))
            if "bimodule" in s:
                for k in range(1, self.max_k):
                    jobs.append((f"adjunction {name} k={k}", *_adjunction_job(s, k)))
        self.rng.shuffle(jobs)
        return jobs


def _tensor_job(s, k, bilinearity_ambient):
    right, left = s["right"][k], s["left"][k]
    with_report = right.dim * left.dim <= bilinearity_ambient

    def run():
        t = tensor.tensor_product(right, left)
        return t, tensor.bilinearity_report(t) if with_report else None

    return run, lambda out: check_tensor(out[0], k, s["tensor_base"], out[1])


def _hom_job(s, k):
    mod = s["left"][k]
    return (lambda: modules.hom_space(mod, mod)), (lambda out: check_hom(out, k, s["hom_base"]))


def _flat_job(s, n, inc):
    free = s["free"][n]
    return ((lambda: tensor.flatness_probe(free, [inc])),
            (lambda out: check_flat(out, n, s["tensor_base"])))


def _adjunction_job(s, k):
    right, bm, reg_r = s["right"][k], s["bimodule"], s["right"][1]
    return ((lambda: tensor.adjunction_check(right, bm, reg_r)),
            (lambda out: check_adjunction(out, k, s["adjunction_base"])))


class Cli:
    """Every golden argv, each in a fresh interpreter as a user runs mrb.

    The child times itself from just before ``import mrb.cli`` to the return
    of ``cli.main``; that is the job time.  Interpreter start-up is left out.
    """

    name = "cli"
    min_rounds = 3
    self_timed = True

    def __init__(self, seed: int, trace_dir: Path | None = None):
        self.rng = random.Random(seed)
        self.trace_dir = trace_dir
        self.jobs_started = 0
        golden = ROOT / "tests" / "golden"
        self.entries = []
        for e in json.loads((golden / "manifest.json").read_text()):
            argv = [str(golden / a) if a.startswith("inputs/") else a for a in e["argv"]]
            expected = (golden / "expected" / f"{e['name']}.json").read_bytes()
            self.entries.append((e["name"], argv, e["exit"], expected))
        paths = sorted({a for _, argv, _, _ in self.entries for a in argv if a.endswith(".json")})
        for path in paths:
            _load_document(json.loads(Path(path).read_text()))

    def round(self) -> list:
        order = list(self.entries)
        self.rng.shuffle(order)
        return [(f"mrb {name}", self._run(argv), _cli_check(expected, code))
                for name, argv, code, expected in order]

    def _run(self, argv):
        def run():
            self.jobs_started += 1
            trace = "-"
            if self.trace_dir is not None:
                trace = str(self.trace_dir / f"job{self.jobs_started:05d}.trace")
            proc = subprocess.run([sys.executable, str(CHILD), trace, *argv], cwd=ROOT,
                                  capture_output=True, timeout=120)
            lines = proc.stderr.decode().strip().splitlines()
            if not lines:
                raise RuntimeError(f"child exited {proc.returncode} without a timing line")
            try:
                info = json.loads(lines[-1])
            except ValueError:
                raise RuntimeError(f"child exited {proc.returncode}: {lines[-1]}") from None
            return proc.stdout, proc.returncode, info
        return run


def _cli_check(expected: bytes, code: int):
    return lambda out: check_cli(out[0], out[1], expected, code)


def _load_document(doc) -> None:
    """Load a golden input document through the program's own readers."""
    if "source" in doc:
        modules.module_from_json(doc["source"])
        modules.module_from_json(doc["target"])
    elif "side" in doc:
        modules.module_from_json(doc)
    else:
        core.instance_from_json(doc)


WORKLOADS = {w.name: w for w in (Rewrite, Axioms, Tensor, Cli)}
