"""Command-line front end: one verb per construction, JSON reports on stdout.

Exit codes: 0 success / all checks clean, 1 check violations or failed
verdicts (report still emitted), 2 input errors.  Reports are emitted as
canonically ordered JSON so identical inputs produce byte-identical output;
``--pretty`` switches to indented rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import core, modules, opring, parser as expr, tensor
from .core import PreconditionError
from .linalg import Matrix, Subspace, format_rational, frac
from .modules import ClosureViolationError
from .operated import FreeOperatedModule


class InputError(ValueError):
    pass


def _message(exc: Exception) -> str:
    # str() of a KeyError is the repr of its message
    return str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")


def _load_instance(arg: str) -> core.MrbAlgebraInstance:
    if arg.endswith(".json") or arg.lstrip().startswith("{"):
        doc = _load_json(arg) if arg.endswith(".json") else json.loads(arg)
        try:
            return core.instance_from_json(doc)
        except (core.MalformedPresentationError, ValueError) as exc:
            raise InputError(str(exc))
    try:
        return core.catalog_instance(arg)
    except KeyError as exc:
        raise InputError(_message(exc))


def _verified_instance(arg: str) -> core.MrbAlgebraInstance:
    inst = _load_instance(arg)
    # catalog instances arrive verified; the latch is set only by a passing check
    if not inst.verified and not core.check_mrb_identity(inst).ok:
        raise InputError("instance fails the identity checker; run check-algebra")
    return inst


def _load_module(path: str):
    doc = _load_json(path)
    try:
        return modules.module_from_json(doc)
    except (KeyError, core.MalformedPresentationError, ValueError) as exc:
        raise InputError(f"malformed module document {path}: {exc}")


def _load_hom(path: str) -> modules.ModuleHom:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"malformed hom document {path}: not a JSON object")
    try:
        source = modules.module_from_json(doc["source"])
        target = modules.module_from_json(doc["target"])
        matrix = Matrix([[frac(x) for x in row] for row in doc["matrix"]])
        return modules.module_hom(source, target, matrix)
    except (KeyError, ValueError) as exc:
        raise InputError(f"malformed hom document {path}: {exc}")


def _matrix_json(m: Matrix):
    return [[format_rational(x) for x in row] for row in m.entries]


def _vectors_json(vectors):
    return [[format_rational(x) for x in v] for v in vectors]


# ---------------------------------------------------------------------------
# Verb handlers: each returns (exit_code, report_dict)
# ---------------------------------------------------------------------------

def _cmd_check_algebra(args):
    inst = _load_instance(args.instance)
    pres = core.check_presentation(inst.algebra)
    report = {"command": "check-algebra", "presentation": pres.to_json()}
    if not pres.ok:
        report["identity"] = None
        return 1, report
    identity = core.check_mrb_identity(inst)
    report["identity"] = identity.to_json()
    return (0 if identity.ok else 1), report


def _cmd_check_module(args):
    mod = _load_module(args.module)
    if mod.side == "bimodule":
        rep = modules.check_bimodule(mod)
    else:
        laws = modules.check_action_laws(mod)
        if not laws.ok:
            return 1, {"command": "check-module", "report": laws.to_json()}
        rep = modules.check_left_module(mod) if mod.side == "left" else modules.check_right_module(mod)
    return (0 if rep.ok else 1), {"command": "check-module", "report": rep.to_json()}


def _cmd_normalize(args):
    inst = _verified_instance(args.instance)
    ring = opring.OperatorRing(inst)
    ast = expr.parse_expression(args.expression)
    if any(t.kind == "operated" for _, t in ast.terms):
        gens = sorted({t.gen for _, t in ast.terms if t.gen is not None})
        element = expr.bind_operated_expression(ast, FreeOperatedModule(inst, gens))
        printer = expr.print_operated_element
    else:
        element = expr.bind_op_expression(ast, ring)
        printer = expr.print_free_module_element
    if isinstance(element, opring.FreeModuleElement):
        out = ring.free_module_normal_form(element)
        apps = sum(ring._nf_word(w)[1] for (w, _), _ in element.terms)
    else:
        report = ring.normalize(element)
        out, apps, printer = report.output, report.applications, expr.print_op_element
    return 0, {
        "command": "normalize",
        "input": printer(element, inst),
        "normal_form": printer(out, inst),
        "applications": apps,
        "strategy": "leftmost-innermost",
    }


def _max_qdegree(args) -> int:
    if args.max_qdegree < 0:
        raise InputError("--max-qdegree must be nonnegative")
    return args.max_qdegree


def _cmd_confluence(args):
    max_qdegree = _max_qdegree(args)
    inst = _verified_instance(args.instance)
    ring = opring.OperatorRing(inst)
    probe = ring.confluence_probe(max_qdegree)
    entries = []
    for d in probe.discrepancies:
        entries.append({
            "word": expr.print_op_word(d.word, inst),
            "normal_forms": [expr.print_op_element(nf, inst) for nf in d.normal_forms],
            "witnesses": [expr.print_op_element(wt, inst) for wt in d.witnesses],
            "witness_in_ideal": [
                ring.ideal_contains(wt, max_qdegree) for wt in d.witnesses
            ],
        })
    report = {
        "command": "confluence",
        "max_qdegree": max_qdegree,
        "probed": probe.probed,
        "discrepancies": entries,
    }
    return (0 if probe.ok else 1), report


def _cmd_oracle(args):
    max_qdegree = _max_qdegree(args)
    inst = _verified_instance(args.instance)
    ring = opring.OperatorRing(inst)
    res = ring.truncated_quotient_oracle(max_qdegree)
    return 0, {
        "command": "oracle",
        "max_qdegree": max_qdegree,
        "word_count": res.word_count,
        "relation_rank": res.relation_rank,
        "dim": res.dim,
        "basis_cosets": [expr.print_op_word(w, inst) for w in res.basis_cosets],
    }


def _cmd_quotient(args):
    mod = _load_module(args.module)
    if mod.side != "left":
        raise InputError("quotient expects a left module document")
    vectors = json.loads(args.relations)
    if not isinstance(vectors, list) or any(
            not isinstance(v, list) or len(v) != mod.dim for v in vectors):
        raise InputError(f"relations must be a JSON array of length-{mod.dim} vectors")
    sub = Subspace.spanned_by(mod.dim, [tuple(frac(x) for x in v) for v in vectors])
    out, proj = modules.quotient_module(mod, sub, with_projection=True)
    rep = modules.check_left_module(out)
    return (0 if rep.ok else 1), {
        "command": "quotient",
        "dim": out.dim,
        "module": modules.module_to_json(out),
        "projection": _matrix_json(proj.matrix),
        "report": rep.to_json(),
    }


def _cmd_direct_sum(args):
    mods = [_load_module(p) for p in args.modules]
    for m in mods:
        if m.side == "bimodule":
            raise InputError("direct-sum expects one-sided module documents")
    ds = modules.direct_sum(mods)
    return 0, {
        "command": "direct-sum",
        "dim": ds.module.dim,
        "module": modules.module_to_json(ds.module),
    }


def _cmd_mc(args):
    mod = _load_module(args.module)
    if mod.side != "left":
        raise InputError("mc expects a left module document")
    sub = modules.module_constants(mod)
    return 0, {
        "command": "mc",
        "dim": sub.dim,
        "basis": _vectors_json(sub.basis),
    }


def _cmd_restricted_free(args):
    inst = _verified_instance(args.instance)
    gens = [g.strip() for g in args.generators.split(",") if g.strip()]
    mod = modules.restricted_free(inst, gens)
    rep = modules.check_left_module(mod)
    return (0 if rep.ok else 1), {
        "command": "restricted-free",
        "generators": gens,
        "dim": mod.dim,
        "module": modules.module_to_json(mod),
        "report": rep.to_json(),
    }


def _cmd_hom(args):
    src = _load_module(args.source)
    dst = _load_module(args.target)
    basis = modules.hom_space(src, dst)
    return 0, {
        "command": "hom",
        "dim": len(basis),
        "basis": [_matrix_json(m) for m in basis],
    }


def _cmd_hom_module(args):
    m = _load_module(args.module)
    n = _load_module(args.other)
    out = modules.hom_module(m, n, args.variant)
    rep = modules.check_left_module(out) if out.side == "left" else modules.check_right_module(out)
    return (0 if rep.ok else 1), {
        "command": "hom-module",
        "variant": args.variant,
        "dim": out.dim,
        "module": modules.module_to_json(out),
        "report": rep.to_json(),
    }


def _cmd_reweight(args):
    spec_doc = json.loads(args.spec)
    rspec = core.ReweightSpec.from_dict(spec_doc)
    if args.target.endswith(".json"):
        doc = _load_json(args.target)
        if "action" in doc:
            mod = modules.module_from_json(doc)
            if mod.side != "left":
                raise InputError("reweight expects a left module document")
            out = modules.reweight_module(mod, rspec)
            rep = modules.check_left_module(out)
            return (0 if rep.ok else 1), {
                "command": "reweight",
                "kind": "module",
                "module": modules.module_to_json(out),
                "report": rep.to_json(),
            }
    inst = _verified_instance(args.target)
    out_inst = core.reweight(inst, rspec)
    rep = core.check_mrb_identity(out_inst)
    return (0 if rep.ok else 1), {
        "command": "reweight",
        "kind": "instance",
        "instance": core.instance_to_json(out_inst),
        "report": rep.to_json(),
    }


def _cmd_tensor(args):
    m = _load_module(args.right_module)
    n = _load_module(args.left_module)
    if m.side != "right" or n.side != "left":
        raise InputError("tensor expects a right module then a left module")
    t = tensor.tensor_product(m, n)
    rep = tensor.bilinearity_report(t)
    return (0 if rep.ok else 1), {
        "command": "tensor",
        "ambient_dim": t.ambient_dim,
        "dim": t.dim,
        "bilinearity": rep.to_json(),
    }


def _cmd_adjunction(args):
    m = _load_module(args.right_module)
    s = _load_module(args.bimodule)
    t = _load_module(args.other_right_module)
    if m.side != "right" or s.side != "bimodule" or t.side != "right":
        raise InputError("adjunction expects right module, bimodule, right module")
    rep = tensor.adjunction_check(m, s, t)
    return (0 if rep.ok else 1), {
        "command": "adjunction",
        "dim_hom_tensor": rep.dim_hom_tensor,
        "dim_hom_hom": rep.dim_hom_hom,
        "mutually_inverse": rep.mutually_inverse,
    }


def _cmd_flat_probe(args):
    mod = _load_module(args.module)
    if mod.side == "bimodule":
        raise InputError("flat-probe expects a one-sided module document")
    homs = [_load_hom(p) for p in args.injections]
    rep = tensor.flatness_probe(mod, homs, names=[Path(p).stem for p in args.injections])
    return 0, {"command": "flat-probe", **rep.to_json()}


def _cmd_lift(args):
    theta = _load_hom(args.epi)
    phi = _load_hom(args.hom)
    lifted = modules.lift_through_epi(theta, phi)
    report = {"command": "lift", "exists": lifted is not None}
    if lifted is not None:
        report["matrix"] = _matrix_json(lifted.matrix)
    return 0, report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-qdegree", type=int, default=3,
                        help="truncation degree for rewriting checks (default 3)")
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")

    p = argparse.ArgumentParser(prog="mrb", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("check-algebra", parents=[common])
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_check_algebra)

    sp = sub.add_parser("check-module", parents=[common])
    sp.add_argument("module")
    sp.set_defaults(func=_cmd_check_module)

    sp = sub.add_parser("normalize", parents=[common])
    sp.add_argument("instance")
    sp.add_argument("expression")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("confluence", parents=[common])
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_confluence)

    sp = sub.add_parser("oracle", parents=[common])
    sp.add_argument("instance")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("quotient", parents=[common])
    sp.add_argument("module")
    sp.add_argument("relations", help="JSON array of relation vectors")
    sp.set_defaults(func=_cmd_quotient)

    sp = sub.add_parser("direct-sum", parents=[common])
    sp.add_argument("modules", nargs="+")
    sp.set_defaults(func=_cmd_direct_sum)

    sp = sub.add_parser("mc", parents=[common])
    sp.add_argument("module")
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("restricted-free", parents=[common])
    sp.add_argument("instance")
    sp.add_argument("generators", help="comma-separated generator names")
    sp.set_defaults(func=_cmd_restricted_free)

    sp = sub.add_parser("hom", parents=[common])
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(func=_cmd_hom)

    sp = sub.add_parser("hom-module", parents=[common])
    sp.add_argument("--variant", required=True, choices=["a", "b", "c", "d"])
    sp.add_argument("module")
    sp.add_argument("other")
    sp.set_defaults(func=_cmd_hom_module)

    sp = sub.add_parser("reweight", parents=[common])
    sp.add_argument("target", help="instance (file or catalog name) or module file")
    sp.add_argument("spec", help="JSON object {new_label: {old_label: rational}}")
    sp.set_defaults(func=_cmd_reweight)

    sp = sub.add_parser("tensor", parents=[common])
    sp.add_argument("right_module")
    sp.add_argument("left_module")
    sp.set_defaults(func=_cmd_tensor)

    sp = sub.add_parser("adjunction", parents=[common])
    sp.add_argument("right_module")
    sp.add_argument("bimodule")
    sp.add_argument("other_right_module")
    sp.set_defaults(func=_cmd_adjunction)

    sp = sub.add_parser("flat-probe", parents=[common])
    sp.add_argument("module")
    sp.add_argument("injections", nargs="+", help="hom document files")
    sp.set_defaults(func=_cmd_flat_probe)

    sp = sub.add_parser("lift", parents=[common])
    sp.add_argument("epi", help="hom document for the surjection")
    sp.add_argument("hom", help="hom document to lift")
    sp.set_defaults(func=_cmd_lift)
    return p


def _emit(report: dict, pretty: bool, stream) -> None:
    if pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    stream.write(text + "\n")


def main(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    args = build_arg_parser().parse_args(argv)
    try:
        code, report = args.func(args)
    except (InputError, expr.ExpressionError, KeyError, json.JSONDecodeError) as exc:
        _emit({"command": args.verb, "error": _message(exc)}, args.pretty, stdout)
        return 2
    except (PreconditionError, ClosureViolationError, ValueError) as exc:
        _emit({"command": args.verb, "error": str(exc)}, args.pretty, stdout)
        return 1
    _emit(report, args.pretty, stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
