"""Checkers for the outputs of the benchmark's jobs.

Each checker returns a list of failure messages; an empty list means the
output passed.  Expected values are either counted here, apart from the
program (word counts, reweighted families, dimensions of direct sums), or are
properties the method must have (idempotent normal forms, witnesses inside
the ideal, free modules are flat).  Only the CLI checker compares against
stored outputs.
"""

from __future__ import annotations

from fractions import Fraction

from mrb.opring import OpElement


def word_count(d: int, s: int, lo: int, hi: int) -> int:
    """Operator words of q-degree lo..hi over d basis slots and s letters."""
    return sum(d ** (j + 1) * s ** j for j in range(lo, hi + 1))


def _words(e: OpElement) -> set:
    return {w for w, _ in e.terms}


def check_oracle(ring, k: int, res) -> list[str]:
    fails = []
    d, s = ring.inst.dim, len(ring.inst.omega)
    expected = word_count(d, s, 0, k)
    if res.word_count != expected:
        fails.append(f"oracle word_count {res.word_count}, counted {expected}")
    if res.dim + res.relation_rank != res.word_count:
        fails.append(f"oracle dim {res.dim} + rank {res.relation_rank} != {res.word_count} words")
    if len(res.basis_cosets) != res.dim:
        fails.append(f"oracle lists {len(res.basis_cosets)} cosets for dim {res.dim}")
    if any(w.q_degree > 1 for w in res.basis_cosets):
        fails.append("oracle basis coset of q-degree above 1")
    nf_words: set = set()
    for w in ring.basis_words(k):
        nf_words |= _words(ring.normal_form(OpElement.from_dict({w: Fraction(1)})))
    if len(nf_words) != res.dim:
        fails.append(f"oracle dim {res.dim}, completed normal forms span {len(nf_words)} words")
    return fails


def check_confluence(ring, k: int, report, confluent: bool) -> list[str]:
    fails = []
    d, s = ring.inst.dim, len(ring.inst.omega)
    expected = word_count(d, s, 3, k)
    if report.probed != expected:
        fails.append(f"confluence probed {report.probed}, counted {expected}")
    if confluent and report.discrepancies:
        fails.append(f"{len(report.discrepancies)} discrepancies on confluent raw rules")
    for disc in report.discrepancies:
        if len(disc.witnesses) != len(disc.normal_forms) - 1:
            fails.append(f"discrepancy at {disc.word} lacks witnesses")
        for wt in disc.witnesses:
            if wt.is_zero():
                fails.append(f"zero witness at {disc.word}")
            elif not ring.ideal_contains(wt, k):
                fails.append(f"witness at {disc.word} outside the ideal")
        if len({ring.normal_form(nf) for nf in disc.normal_forms}) != 1:
            fails.append(f"normal forms at {disc.word} complete to different elements")
    return fails


def check_normal_forms(ring, k: int, elements, outputs) -> list[str]:
    fails = []
    if len(outputs) != len(elements):
        return [f"{len(outputs)} normal forms for {len(elements)} elements"]
    for i, (x, nf) in enumerate(zip(elements, outputs)):
        if nf.max_q_degree() > 1:
            fails.append(f"element {i}: normal form of q-degree {nf.max_q_degree()}")
        if ring.normal_form(nf) != nf:
            fails.append(f"element {i}: normal form is not idempotent")
        if not ring.ideal_contains(x - nf, k):
            fails.append(f"element {i}: x - nf(x) outside the ideal")
    for i in range(len(elements) - 1):
        if ring.normal_form(elements[i] + elements[i + 1]) != outputs[i] + outputs[i + 1]:
            fails.append(f"elements {i}, {i + 1}: normal form is not additive")
    return fails


def check_collapse(images) -> list[str]:
    if not images:
        return ["no ideal generators enumerated"]
    bad = sum(1 for im in images if not im.is_zero())
    return [f"{bad} of {len(images)} generator images are nonzero"] if bad else []


def combined_family(inst, spec):
    """Sum a_w P_w and sum a_w lambda_w for each spec row, with plain
    Fraction loops over the matrix entries."""
    d = inst.dim
    out = []
    for label, coeffs in spec.rows:
        m = [[Fraction(0)] * d for _ in range(d)]
        lam = Fraction(0)
        for old, a in coeffs:
            p = inst.p_matrix(old).entries
            for i in range(d):
                for j in range(d):
                    m[i][j] += a * p[i][j]
            lam += a * inst.weight(old)
        out.append((label, tuple(tuple(r) for r in m), lam))
    return out


def check_reweight(inst, spec, new_inst, module, module_report) -> list[str]:
    fails = []
    expected = combined_family(inst, spec)
    if new_inst.omega != tuple(label for label, _, _ in expected):
        fails.append(f"reweighted labels {new_inst.omega}")
        return fails
    for label, m, lam in expected:
        if tuple(tuple(r) for r in new_inst.p_matrix(label).entries) != m:
            fails.append(f"operator {label} differs from the combined family")
        if new_inst.weight(label) != lam:
            fails.append(f"weight {label} is {new_inst.weight(label)}, combined {lam}")
        if tuple(tuple(r) for r in module.operator(label).entries) != m:
            fails.append(f"module operator {label} differs from the combined family")
    if not new_inst.verified:
        fails.append("reweighted instance not verified")
    if not module_report.ok:
        fails.append(f"module check reports {len(module_report.violations)} violations")
    return fails


def check_control(control_report) -> list[str]:
    """The family with one weight shifted by 1 (its operator nonzero) must be
    rejected with a nonzero residual."""
    if control_report.ok:
        return ["mis-weighted family accepted by the identity checker"]
    if not any(v.residual is not None and any(x != 0 for x in v.residual)
               for v in control_report.violations):
        return ["mis-weighted family rejected without a nonzero residual"]
    return []


def check_tensor(t, k: int, base_dim: int, report=None) -> list[str]:
    fails = []
    if t.dim != k * k * base_dim:
        fails.append(f"tensor of {k} copies has dim {t.dim}, additivity gives {k * k * base_dim}")
    if report is not None and not report.ok:
        fails.append(f"bilinearity report lists {len(report.violations)} violations")
    return fails


def check_hom(basis, k: int, base_dim: int) -> list[str]:
    if len(basis) != k * k * base_dim:
        return [f"Hom of {k} copies has dim {len(basis)}, additivity gives {k * k * base_dim}"]
    return []


def check_flat(report, n_gens: int, base_dim: int) -> list[str]:
    fails = []
    expected = n_gens * base_dim
    for probe in report.probes:
        if probe.verdict != "preserved":
            fails.append(f"free module on {n_gens} generators broke {probe.name}")
        if probe.dims["rank"] != probe.dims["source_tensor"] or probe.dims["source_tensor"] != expected:
            fails.append(f"probe {probe.name}: rank {probe.dims['rank']}, source "
                         f"{probe.dims['source_tensor']}, additivity gives {expected}")
    if not report.probes:
        fails.append("no probes run")
    return fails


def check_adjunction(rep, k: int, base) -> list[str]:
    fails = []
    if rep.dim_hom_tensor != rep.dim_hom_hom:
        fails.append(f"adjunction dims {rep.dim_hom_tensor} != {rep.dim_hom_hom}")
    if rep.dim_hom_tensor != k * base.dim_hom_tensor or rep.dim_hom_hom != k * base.dim_hom_hom:
        fails.append(f"adjunction dims ({rep.dim_hom_tensor}, {rep.dim_hom_hom}) are not "
                     f"{k} x ({base.dim_hom_tensor}, {base.dim_hom_hom})")
    if not rep.mutually_inverse:
        fails.append("adjunction maps are not mutually inverse")
    return fails


def check_cli(stdout: bytes, code: int, expected: bytes, expected_code: int) -> list[str]:
    fails = []
    if stdout != expected:
        fails.append("stdout differs from the golden output")
    if code != expected_code:
        fails.append(f"exit code {code}, golden {expected_code}")
    return fails
