"""Acceptance suite: every criterion exact (zero tolerance), one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.  Criterion 3 is checked against the completed normal form:
on the catalog instances with two or more operators of nonzero weight the
raw rewrite rules are not confluent, and ``OperatorRing.linear_rules``
adjoins the ideal's degree-<=1 part as linear rules so that normal-form
equality coincides with ideal membership.  Criterion 4 probes the raw rules,
records their discrepancies and adjudicates each against the oracle.
"""

import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mrb import cli
from mrb.core import (
    MrbAlgebraInstance,
    ReweightSpec,
    WeightFamily,
    check_mrb_identity,
    reweight,
    scaled_projection,
)
from mrb.linalg import Matrix, Subspace
from mrb.modules import (
    FdLeftModule,
    FdRightModule,
    ModuleHom,
    check_left_module,
    check_right_module,
    direct_sum,
    hom_module,
    hom_space,
    hom_subspace,
    lift_through_epi,
    module_constants,
    module_hom,
    quotient_module,
    regular_bimodule,
    regular_left_module,
    regular_right_module,
    restricted_free,
    restricted_lift,
    reweight_module,
)
from mrb.opring import OpElement
from mrb.operated import FreeOperatedModule
from mrb.tensor import (
    adjunction_check,
    bilinearity_report,
    direct_sum_tensor_check,
    flatness_probe,
    tensor_preserves_injection,
    tensor_product,
    tensor_unit_check,
)

SEED = 20250811


def _report(num: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {title}: {status}")
    for f in failures[:8]:
        print(f"    - {f}")
    assert not failures, f"criterion {num} failed: {failures[:3]}"


def _sub_e2_left(inst):
    reg = regular_left_module(inst)
    action = tuple(
        ((reg.action_matrix(inst.algebra.basis_vector(i)).apply((0, 1))[1],),)
        for i in range(2)
    )
    ops = tuple(Matrix([[m.entries[1][1]]]) for m in reg.operators)
    return FdLeftModule(inst, 1, action, ops)


def _sub_e2_right(inst):
    reg = regular_right_module(inst)
    action = tuple(
        ((reg.action_matrix(inst.algebra.basis_vector(i)).apply((0, 1))[1],),)
        for i in range(2)
    )
    ops = tuple(Matrix([[m.entries[1][1]]]) for m in reg.operators)
    return FdRightModule(inst, 1, action, ops)


def test_criterion_01_algebra_axiom_suite(instances):
    failures = []
    for d in (1, 2, 3):
        for s in (1, 2, 3):
            if not instances[f"trivial({d},{s})"].verified:
                failures.append(f"trivial({d},{s}) not verified")
    for c in ("1", "1,2", "2,3,5"):
        name = f"scaled_projection({c})"
        if not instances[name].verified:
            failures.append(f"{name} not verified")
    sp = scaled_projection((1,))
    bad = MrbAlgebraInstance(sp.algebra, sp.operators, WeightFamily(("1",), (Fraction(-1),)))
    rep = check_mrb_identity(bad)
    if rep.ok:
        failures.append("mis-weighted variant unexpectedly passed")
    else:
        v = rep.violations[0]
        if v.residual is None or all(x == 0 for x in v.residual):
            failures.append("mis-weighted violation lacks a nonzero residual")
        if len(v.where) != 4:
            failures.append("violation does not report a basis pair and label pair")
    _report(1, "algebra axiom suite", failures)


def test_criterion_02_reweighting_closure(instances):
    rng = random.Random(SEED)
    failures = []
    for name, inst in instances.items():
        reg = regular_left_module(inst)
        for k in range(100):
            spec = ReweightSpec.from_dict({
                f"i{j}": {
                    w: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for w in inst.omega
                }
                for j in range(rng.randint(1, 3))
            })
            try:
                out = reweight(inst, spec)
            except AssertionError:
                failures.append(f"{name} spec {k}: reweighted instance failed checker")
                continue
            if not out.verified:
                failures.append(f"{name} spec {k}: instance not verified")
            mod = reweight_module(reg, spec)
            if not check_left_module(mod).ok:
                failures.append(f"{name} spec {k}: reweighted module failed checker")
    _report(2, "reweighting closure (100 random specs per instance)", failures)


def test_criterion_03_rewriting_soundness_iff(rings):
    rng = random.Random(SEED)
    failures = []
    for name, ring in rings.items():
        words = ring.basis_words(3)
        for w in words:
            nf = ring.normalize(OpElement.from_dict({w: Fraction(1)}))
            if nf.output.max_q_degree() > 1:
                failures.append(f"{name}: {w} did not normalize to q_degree <= 1")
        nf_of = {w: ring.normal_form(OpElement.from_dict({w: Fraction(1)})) for w in words}
        mismatch_msgs = []
        for _ in range(200):
            w1, w2 = rng.choice(words), rng.choice(words)
            diff = OpElement.from_dict({w1: Fraction(1)}) - OpElement.from_dict({w2: Fraction(1)})
            member = ring.ideal_contains(diff, 3)
            equal = nf_of[w1] == nf_of[w2]
            if equal != member:
                mismatch_msgs.append(
                    f"{name}: nf-equality {equal} vs ideal-membership {member} for {w1} / {w2}"
                )
        if mismatch_msgs:
            failures.append(
                f"{name}: {len(mismatch_msgs)} of 200 sampled pairs break the iff "
                f"(first: {mismatch_msgs[0]})"
            )
    _report(3, "rewriting soundness (normal-form equality iff ideal membership)", failures)


def test_criterion_04_confluence_probe(rings):
    failures = []
    for name, ring in rings.items():
        probe = ring.confluence_probe(3)
        for disc in probe.discrepancies:
            if not disc.witnesses:
                failures.append(f"{name}: discrepancy at {disc.word} carries no witness")
                continue
            for witness in disc.witnesses:
                if witness.is_zero():
                    failures.append(f"{name}: zero witness at {disc.word}")
                elif not ring.ideal_contains(witness, 3):
                    failures.append(
                        f"{name}: witness at {disc.word} not adjudicated by the oracle"
                    )
    _report(4, "confluence probe (strategy independence or adjudicated witnesses)", failures)


def test_criterion_05_free_module_ideal_collapse(instances, rings):
    failures = []
    for name, inst in instances.items():
        ring = rings[name]
        fom = FreeOperatedModule(inst, ["x"])
        count = 0
        for g in fom.ideal_generators(3):
            image = ring.free_module_normal_form(ring.from_operated(g))
            count += 1
            if not image.is_zero():
                failures.append(f"{name}: generator image {image.terms[:2]} is nonzero")
                break
        if count == 0:
            failures.append(f"{name}: no ideal generators enumerated")
    _report(5, "free-module ideal generators collapse to zero", failures)


def test_criterion_06_module_constants_and_restricted_free():
    failures = []
    inst = scaled_projection((1, 2))
    reg = regular_left_module(inst)
    mc = module_constants(reg)
    if mc.dim != 2:
        failures.append(f"module constants of the regular module have dim {mc.dim}, expected 2")

    # rejection outside MC
    perturbed_ops = (Matrix([[1, 1], [0, 0]]), reg.operators[1])
    bad_target = FdLeftModule(inst, 2, reg.action, perturbed_ops)
    bad_mc = module_constants(bad_target)
    outside = (Fraction(1), Fraction(1))
    free1 = restricted_free(inst, ["x"])
    if bad_mc.contains(outside):
        failures.append("expected a vector outside MC for the perturbed target")
    else:
        try:
            restricted_lift(free1, [outside], bad_target)
            failures.append("restricted_lift accepted a non-constant image")
        except Exception:
            pass

    # reproduction of generator images elsewhere
    image = (Fraction(2), Fraction(-1))
    h = restricted_lift(free1, [image], reg)
    unit_coords = inst.algebra.unit
    if h(unit_coords) != image:
        failures.append("restricted_lift does not reproduce the generator image")

    # singleton restricted free is isomorphic to the regular module, with
    # mutually inverse homs found inside the hom spaces
    fw = hom_space(free1, reg)
    bw = hom_space(reg, free1)
    found = False
    coeffs = (-1, 0, 1, 2)
    for combo in itertools.product(coeffs, repeat=len(fw)):
        f = Matrix.zero(2, 2)
        for c, b in zip(combo, fw):
            f = f + b.scale(c)
        if f.rank() != 2:
            continue
        for combo2 in itertools.product(coeffs, repeat=len(bw)):
            g = Matrix.zero(2, 2)
            for c, b in zip(combo2, bw):
                g = g + b.scale(c)
            if g @ f == Matrix.identity(2) and f @ g == Matrix.identity(2):
                found = True
                break
        if found:
            break
    if not found:
        failures.append("no mutually inverse homs found between F({x}) and the regular module")
    _report(6, "module constants and restricted free modules", failures)


def test_criterion_07_hom_suite(instances):
    failures = []
    inst = scaled_projection((1, 2))
    reg = regular_left_module(inst)
    hs = hom_space(reg, reg)
    if len(hs) != 2:
        failures.append(f"hom space of the regular module has dim {len(hs)}, expected 2")
    ident = tuple(x for row in Matrix.identity(2).entries for x in row)
    if not hom_subspace(reg, reg).contains(ident):
        failures.append("identity map missing from the hom space")

    for name in ("scaled_projection(1)", "scaled_projection(1,2)",
                 "scaled_projection(2,3,5)", "trivial(2,2)"):
        base = instances[name]
        bm = regular_bimodule(base)
        data = [
            ("a", regular_right_module(base), bm, check_left_module),
            ("b", regular_left_module(base), bm, check_right_module),
            ("c", bm, regular_left_module(base), check_left_module),
            ("d", bm, regular_right_module(base), check_right_module),
        ]
        for variant, m, n, checker in data:
            out = hom_module(m, n, variant)
            rep = checker(out)
            if not rep.ok:
                failures.append(f"{name}: hom_module variant {variant} failed its checker")
    _report(7, "hom suite (all four induced structures)", failures)


def test_criterion_08_tensor_suite():
    failures = []
    inst = scaled_projection((1, 2))
    reg = regular_left_module(inst)
    reg_r = regular_right_module(inst)
    bm = regular_bimodule(inst)

    t = tensor_product(reg_r, reg)
    if t.dim != 2:
        failures.append(f"tensor of regular modules has dim {t.dim}, expected 2")
    built = [t,
             tensor_product(reg_r, _sub_e2_left(inst)),
             tensor_product(_sub_e2_right(inst), reg)]
    for k, ts in enumerate(built):
        rep = bilinearity_report(ts)
        if not rep.ok:
            failures.append(f"tensor {k}: a relation family survives the projection")

    unit_rep = tensor_unit_check(reg_r)
    if not unit_rep.isomorphism:
        failures.append("tensor unit map is not an isomorphism on the regular module")

    from mrb.tensor import tensor_left_structure, tensor_right_structure
    left_struct = tensor_left_structure(bm, tensor_product(bm.right, reg))
    if not check_left_module(left_struct).ok:
        failures.append("left structure on the tensor failed its checker")
    right_struct = tensor_right_structure(tensor_product(reg_r, bm.left), bm)
    if not check_right_module(right_struct).ok:
        failures.append("right structure on the tensor failed its checker")

    adj = adjunction_check(reg_r, bm, reg_r)
    if not adj.ok:
        failures.append("adjunction maps are not mutually inverse on the catalog triple")
    _report(8, "tensor suite", failures)


def test_criterion_09_direct_sum_and_flatness_laws():
    failures = []
    rng = random.Random(SEED)
    inst = scaled_projection((1, 2))
    reg = regular_left_module(inst)
    reg_r = regular_right_module(inst)

    # kernel additivity over 50 random hom families
    hs = hom_space(reg, reg)
    for k in range(50):
        mats = []
        for _ in range(rng.randint(2, 3)):
            m = Matrix.zero(2, 2)
            for b in hs:
                m = m + b.scale(Fraction(rng.randint(-2, 2)))
            mats.append(m)
        block = Matrix.block_diag(mats)
        lhs = block.nullspace_basis().dim
        rhs = sum(m.nullspace_basis().dim for m in mats)
        if lhs != rhs:
            failures.append(f"kernel additivity broke on family {k}")

    # tensor distributes over direct sums with additive dimensions
    q = quotient_module(reg, Subspace.spanned_by(2, [(Fraction(0), Fraction(1))]))
    for parts in ([reg], [reg, reg], [reg, q], []):
        rep = direct_sum_tensor_check(reg_r, list(parts))
        if not rep.ok:
            failures.append(f"direct-sum tensor comparison failed for {len(parts)} parts")

    # flatness of a direct sum is the conjunction of component verdicts;
    # the triangular trio supplies genuinely mixed verdicts
    sub_l = _sub_e2_left(inst)
    inc_l = module_hom(sub_l, reg, Matrix([[0], [1]]))
    zero_ops_right = FdRightModule(inst, 2, reg_r.action,
                                   (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    from mrb.core import upper_triangular_instance
    tri = upper_triangular_instance((1, 2))
    tri_reg_l = regular_left_module(tri)
    tri_m0 = FdRightModule(tri, 3, regular_right_module(tri).action,
                           (Matrix.zero(3, 3), Matrix.zero(3, 3)))
    tri_qr = quotient_module(tri_m0, Subspace.spanned_by(
        3, [(Fraction(0), Fraction(1), Fraction(0))]))
    tri_sub_action = tuple(
        ((tri_reg_l.action_matrix(tri.algebra.basis_vector(i)).apply((0, 1, 0))[1],),)
        for i in range(3)
    )
    tri_sub = FdLeftModule(tri, 1, tri_sub_action,
                           (Matrix.zero(1, 1), Matrix.zero(1, 1)))
    tri_inc = module_hom(tri_sub, tri_reg_l, Matrix([[0], [1], [0]]))
    settings = [
        ([reg_r, zero_ops_right], [inc_l]),
        ([tri_m0, tri_qr], [tri_inc]),
    ]
    saw_mixed = False
    for candidates_right, probes in settings:
        for a in candidates_right:
            for b in candidates_right:
                ds = direct_sum([a, b])
                rep_sum = flatness_probe(ds.module, probes)
                verdict_parts = [
                    flatness_probe(a, probes).probes[0].verdict == "preserved",
                    flatness_probe(b, probes).probes[0].verdict == "preserved",
                ]
                if (rep_sum.probes[0].verdict == "preserved") != all(verdict_parts):
                    failures.append("direct-sum flatness verdict is not the conjunction")
                if len(set(verdict_parts)) == 2:
                    saw_mixed = True
    if not saw_mixed:
        failures.append("conjunction law never exercised with mixed verdicts")

    # restricted free modules preserve catalog injections (free modules are flat)
    sub_r = _sub_e2_right(inst)
    inc_r = module_hom(sub_r, reg_r, Matrix([[0], [1]]))
    sum_r = direct_sum([reg_r, reg_r])
    right_injections = [inc_r, sum_r.inclusions[0]]
    for gens in (["x"], ["x", "y"]):
        free = restricted_free(inst, gens)
        for j, inj in enumerate(right_injections):
            probe = tensor_preserves_injection(free, inj, f"catalog-{j}")
            if probe.verdict != "preserved":
                failures.append(
                    f"restricted_free({len(gens)}) broke catalog injection {j}"
                )

    # modules passing the splitting lift probe pass every flatness probe
    candidates_left = [reg, sub_l, q, direct_sum([reg, q]).module]
    for idx, s_mod in enumerate(candidates_left):
        free = restricted_free(inst, [f"g{i}" for i in range(max(s_mod.dim, 1))])
        basis = hom_space(free, s_mod)
        epi = None
        for combo in itertools.product((-1, 0, 1), repeat=len(basis)):
            m = Matrix.zero(s_mod.dim, free.dim)
            for c, b in zip(combo, basis):
                m = m + b.scale(c)
            if m.rank() == s_mod.dim:
                epi = ModuleHom(free, s_mod, m)
                break
        if epi is None:
            continue  # no epi from a restricted free module: probe not applicable
        ident = module_hom(s_mod, s_mod, Matrix.identity(s_mod.dim))
        lifted = lift_through_epi(epi, ident)
        if lifted is None:
            continue  # fails the splitting probe: implication is vacuous
        rep = flatness_probe(s_mod, right_injections)
        if not rep.all_preserved:
            failures.append(f"candidate {idx} passed the lift probe but broke a flat probe")
    _report(9, "direct sum and flatness laws", failures)


def test_criterion_10_cli_determinism():
    failures = []
    golden = Path(__file__).parent / "golden"
    manifest = json.loads((golden / "manifest.json").read_text())
    if len(manifest) < 20:
        failures.append(f"only {len(manifest)} stored command/report pairs")
    for entry in manifest:
        argv = [str(golden / a) if a.startswith("inputs/") else a for a in entry["argv"]]
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli.main(argv, stdout=buf)
            outs.append((code, buf.getvalue()))
        if outs[0] != outs[1]:
            failures.append(f"{entry['name']}: consecutive runs differ")
        stored = (golden / "expected" / f"{entry['name']}.json").read_text()
        if outs[0][1] != stored or outs[0][0] != entry["exit"]:
            failures.append(f"{entry['name']}: output differs from the stored golden file")
    _report(10, "CLI determinism (byte-identical golden suite)", failures)
