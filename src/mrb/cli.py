"""Command-line front end: one verb per construction, JSON reports on stdout.

Each verb is one row of ``VERBS``: its handler and its ordered arguments,
each given as an argparse name, a loader and argparse options.  The parser
is built from the table; ``main`` runs every argument's loader in table
order and calls the handler with the loaded values.

Exit codes: 0 success / all checks clean, 1 check violations or failed
verdicts (report still emitted), 2 input errors, usage errors and
arguments that do not fit together included, and a confluence search, a
confluence probe or an oracle truncation that exceeds its budget
(`opring.BudgetExceeded`; the error names the budget and the count reached),
a normal form whose count of rule applications has more digits than Python
prints, and input too deeply nested for the recursion limit; an error is
reported as ``{"command": ..., "error": ...}``.  Reports are emitted as
canonically ordered JSON so identical inputs produce byte-identical output;
``--pretty`` switches to indented rendering.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

from . import core, modules, opring, parser as expr, tensor
from .core import PreconditionError
from .linalg import Matrix, Subspace, frac
from .modules import ArgumentError, ClosureViolationError


class InputError(ValueError):
    pass


def _message(exc: Exception) -> str:
    # str() of a KeyError is the repr of its message
    return str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)


def _load_json(where: str, text: str | None = None):
    """The JSON value in text, or in the file at path `where` without one.
    Malformed JSON and a bare integer past Python's digit limit, which json
    reports as a plain ValueError, are input errors that name `where`."""
    try:
        return json.loads(Path(where).read_text() if text is None else text)
    except FileNotFoundError:
        raise InputError(f"no such file: {where}")
    except ValueError as exc:
        raise InputError(f"invalid JSON in {where}: {exc}")


# ---------------------------------------------------------------------------
# Loaders: each turns one raw argument into a checked value
# ---------------------------------------------------------------------------

def _document(arg: str):
    """The JSON document at a ``.json`` path; any other argument as given."""
    return _load_json(arg) if arg.endswith(".json") else arg


def _instance(arg: str, doc=None) -> core.MrbAlgebraInstance:
    """A catalog name, JSON instance text, or the instance document at a
    ``.json`` path; `doc` is that document when it was read already."""
    try:
        return core.load_instance(_document(arg) if doc is None else doc)
    except (KeyError, ValueError) as exc:
        raise InputError(_message(exc))


def _verified_instance(arg: str, doc=None) -> core.MrbAlgebraInstance:
    return core._require_verified(_instance(arg, doc), "instance", InputError)


_SIDE_NAMES = {"left": "a left module", "right": "a right module", "bimodule": "a bimodule"}


def _module(*sides: str):
    """Loader of a module document; given sides, it accepts only those."""
    def load(path: str, doc=None):
        doc = _load_json(path) if doc is None else doc
        try:
            mod = modules.module_from_json(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed module document {path}: {exc}")
        if sides and mod.side not in sides:
            expected = " or ".join(_SIDE_NAMES[s] for s in sides)
            raise InputError(f"{path} holds {_SIDE_NAMES[mod.side]}; expected {expected}")
        return mod
    return load


def _left_module_or_instance(arg: str):
    doc = _document(arg)
    if isinstance(doc, dict) and "action" in doc:
        return _module("left")(arg, doc)
    return _verified_instance(arg, doc)


def _hom_document(path: str) -> modules.ModuleHom:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"malformed hom document {path}: not a JSON object")
    try:
        source = modules.module_from_json(doc["source"])
        target = modules.module_from_json(doc["target"])
        rows = doc["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("matrix must be a JSON array of rows")
        return modules.module_hom(source, target, core._matrix_from_json(rows))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed hom document {path}: {exc}")


def _max_qdegree(n: int) -> int:
    if n < 0:
        raise InputError("--max-qdegree must be nonnegative")
    return n


# ---------------------------------------------------------------------------
# Verb handlers: each takes the loaded arguments and returns
# (exit_code, report_dict); main adds the "command" field
# ---------------------------------------------------------------------------

def _checked_module(mod, **report):
    """Exit code and report for a constructed module and its side's check."""
    rep = modules.check_left_module(mod)
    report.update(module=modules.module_to_json(mod), report=rep.to_json())
    return (0 if rep.ok else 1), report


def _cmd_check_algebra(inst):
    pres = core.check_presentation(inst.algebra)
    report = {"presentation": pres.to_json()}
    if not pres.ok:
        report["identity"] = None
        return 1, report
    identity = core.check_mrb_identity(inst)
    report["identity"] = identity.to_json()
    return (0 if identity.ok else 1), report


def _cmd_check_module(mod):
    if mod.side == "bimodule":
        rep = modules.check_bimodule(mod)
    else:
        # the side's check runs the action laws first and raises when they fail
        try:
            rep = modules.check_left_module(mod)
        except PreconditionError:
            rep = modules.check_action_laws(mod)
    return (0 if rep.ok else 1), {"report": rep.to_json()}


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, without printing it."""
    k = int(math.log10(n))  # the float may be off by one near a power of ten
    return k + 1 + (n >= 10 ** (k + 1)) - (n < 10 ** k)


def _cmd_normalize(inst, expression):
    ring = opring.OperatorRing(inst)
    ast = expr.parse_expression(expression)
    dotted = any(t.kind == "operated" for _, t in ast.terms)
    element = expr._bind(ast, inst, dotted)
    printer = expr.print_operated_element if dotted else expr.print_op_element
    report = ring.normalize(element)
    limit = sys.get_int_max_str_digits()
    if limit and report.applications >= 10 ** limit:
        raise InputError(f"reduction tree too large to print: {_digits(report.applications)} "
                         f"digits in its count of applications, limit {limit}")
    return 0, {
        "input": printer(element, inst),
        "normal_form": printer(report.output, inst),
        "applications": report.applications,
        "strategy": report.strategy,
    }


def _cmd_confluence(max_qdegree, inst):
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
    return (0 if probe.ok else 1), {
        "max_qdegree": max_qdegree,
        "probed": probe.probed,
        "discrepancies": entries,
    }


def _cmd_oracle(max_qdegree, inst):
    ring = opring.OperatorRing(inst)
    res = ring.truncated_quotient_oracle(max_qdegree)
    return 0, {
        "max_qdegree": max_qdegree,
        "word_count": res.word_count,
        "relation_rank": res.relation_rank,
        "dim": res.dim,
        "basis_cosets": [expr.print_op_word(w, inst) for w in res.basis_cosets],
    }


def _cmd_quotient(mod, relations):
    vectors = _load_json("relations", relations)
    if not isinstance(vectors, list) or any(
            not isinstance(v, list) or len(v) != mod.dim for v in vectors):
        raise InputError(f"relations must be a JSON array of length-{mod.dim} vectors")
    try:
        sub = Subspace.spanned_by(mod.dim, [tuple(frac(x) for x in v) for v in vectors])
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed relations: {exc}")
    out, proj = modules.quotient_module(mod, sub, with_projection=True)
    return _checked_module(out, dim=out.dim, projection=core._matrix_to_json(proj.matrix))


def _cmd_direct_sum(mods):
    ds = modules.direct_sum(mods)
    return 0, {"dim": ds.module.dim, "module": modules.module_to_json(ds.module)}


def _cmd_mc(mod):
    sub = modules.module_constants(mod)
    basis = Matrix.from_rows(sub.basis, cols=mod.dim)
    return 0, {"dim": sub.dim, "basis": core._matrix_to_json(basis)}


def _cmd_restricted_free(inst, generators):
    gens = [g.strip() for g in generators.split(",") if g.strip()]
    mod = modules.restricted_free(inst, gens)
    return _checked_module(mod, generators=gens, dim=mod.dim)


def _cmd_hom(src, dst):
    basis = modules.hom_space(src, dst)
    return 0, {"dim": len(basis), "basis": [core._matrix_to_json(m) for m in basis]}


def _cmd_hom_module(variant, m, n):
    out = modules.hom_module(m, n, variant)
    return _checked_module(out, variant=variant, dim=out.dim)


def _cmd_reweight(target, spec):
    spec_doc = _load_json("reweight spec", spec)
    try:
        rspec = core.ReweightSpec.from_dict(spec_doc)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed reweight spec: {exc}")
    if not isinstance(target, core.MrbAlgebraInstance):
        return _checked_module(modules.reweight_module(target, rspec), kind="module")
    out_inst, rep = core._reweighted(target, rspec)
    return 0, {
        "kind": "instance",
        "instance": core.instance_to_json(out_inst),
        "report": rep.to_json(),
    }


def _cmd_tensor(m, n):
    t = tensor.tensor_product(m, n)
    rep = tensor.bilinearity_report(t)
    return (0 if rep.ok else 1), {
        "ambient_dim": t.ambient_dim,
        "dim": t.dim,
        "bilinearity": rep.to_json(),
    }


def _cmd_adjunction(m, s, t):
    rep = tensor.adjunction_check(m, s, t)
    return (0 if rep.ok else 1), {
        "dim_hom_tensor": rep.dim_hom_tensor,
        "dim_hom_hom": rep.dim_hom_hom,
        "mutually_inverse": rep.mutually_inverse,
    }


def _cmd_flat_probe(mod, injections):
    names, homs = zip(*injections)
    return 0, tensor.flatness_probe(mod, homs, names=names).to_json()


def _cmd_lift(theta, phi):
    lifted = modules.lift_through_epi(theta, phi)
    report = {"exists": lifted is not None}
    if lifted is not None:
        report["matrix"] = core._matrix_to_json(lifted.matrix)
    return 0, report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_MAX_QDEGREE = ("--max-qdegree", _max_qdegree,
                {"type": int, "default": 3,
                 "help": "truncation degree for rewriting checks (default 3)"})

# verb -> (handler, its arguments as (argparse name, loader, argparse kwargs))
VERBS = {
    "check-algebra": (_cmd_check_algebra, [("instance", _instance, {})]),
    "check-module": (_cmd_check_module, [("module", _module(), {})]),
    "normalize": (_cmd_normalize, [("instance", _verified_instance, {}),
                                   ("expression", str, {})]),
    "confluence": (_cmd_confluence, [_MAX_QDEGREE, ("instance", _verified_instance, {})]),
    "oracle": (_cmd_oracle, [_MAX_QDEGREE, ("instance", _verified_instance, {})]),
    "quotient": (_cmd_quotient, [("module", _module("left"), {}),
                                 ("relations", str, {"help": "JSON array of relation vectors"})]),
    "direct-sum": (_cmd_direct_sum, [("modules", _module("left", "right"), {"nargs": "+"})]),
    "mc": (_cmd_mc, [("module", _module("left"), {})]),
    "restricted-free": (_cmd_restricted_free, [
        ("instance", _verified_instance, {}),
        ("generators", str, {"help": "comma-separated generator names"})]),
    "hom": (_cmd_hom, [("source", _module("left", "right"), {}),
                       ("target", _module("left", "right"), {})]),
    "hom-module": (_cmd_hom_module, [
        ("--variant", str, {"required": True, "choices": sorted(modules._HOM_VARIANTS)}),
        ("module", _module(), {}), ("other", _module(), {})]),
    "reweight": (_cmd_reweight, [
        ("target", _left_module_or_instance,
         {"help": "instance (file or catalog name) or module file"}),
        ("spec", str, {"help": "JSON object {new_label: {old_label: rational}}"})]),
    "tensor": (_cmd_tensor, [("right_module", _module("right"), {}),
                             ("left_module", _module("left"), {})]),
    "adjunction": (_cmd_adjunction, [("right_module", _module("right"), {}),
                                     ("bimodule", _module("bimodule"), {}),
                                     ("other_right_module", _module("right"), {})]),
    "flat-probe": (_cmd_flat_probe, [
        ("module", _module("left", "right"), {}),
        ("injections", lambda path: (Path(path).stem, _hom_document(path)),
         {"nargs": "+", "help": "hom document files"})]),
    "lift": (_cmd_lift, [("epi", _hom_document, {"help": "hom document for the surjection"}),
                         ("hom", _hom_document, {"help": "hom document to lift"})]),
}


def build_arg_parser():
    """The ``mrb`` argparse parser, built from ``VERBS``.  argparse is
    imported here, not with the package, which a library caller or a
    benchmark worker imports without parsing a command line."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors raise InputError; ``--help`` still prints and exits 0.

        Every option but ``-h`` has a long name, so an argument with one
        leading minus sign, such as the expression ``-2*e1``, is a positional
        argument.
        """

        def error(self, message):
            raise InputError(message)

        def _parse_optional(self, arg_string):
            if arg_string[:1] == "-" and arg_string[:2] not in ("--", "-h"):
                return None
            return super()._parse_optional(arg_string)

    p = _Parser(prog="mrb", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (_, arguments) in VERBS.items():
        sp = sub.add_parser(verb)
        for name, _, kwargs in arguments:
            sp.add_argument(name, **kwargs)
        sp.add_argument("--pretty", action="store_true", help="indent the JSON report")
    return p


_parser = functools.cache(build_arg_parser)


def main(argv=None, stdout=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a usage error leaves no parsed arguments: name the verb if it was given
    verb, pretty = (argv[0] if argv and argv[0] in VERBS else None), False

    def dump(report: dict) -> str:
        layout = {"indent": 2} if pretty else {"separators": (",", ":")}
        return json.dumps({"command": verb, **report}, sort_keys=True, **layout)

    try:
        args = _parser().parse_args(argv)
        verb, pretty = args.verb, args.pretty
        handler, arguments = VERBS[verb]
        values = []
        for name, load, _ in arguments:
            raw = getattr(args, name.lstrip("-").replace("-", "_"))
            values.append([load(r) for r in raw] if isinstance(raw, list) else load(raw))
        code, report = handler(*values)
        # an int past Python's digit limit for printing raises ValueError here
        text = dump(report)
    except (InputError, ArgumentError, expr.ExpressionError, KeyError, opring.BudgetExceeded) as exc:
        code, text = 2, dump({"error": _message(exc)})
    except RecursionError:
        code, text = 2, dump({"error": "input nested too deeply"})
    except (PreconditionError, ClosureViolationError, ValueError) as exc:
        code, text = 1, dump({"error": str(exc)})
    (stdout or sys.stdout).write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
