"""Command-line front end: one verb per construction, JSON reports on stdout.

Each verb is one row of ``VERBS``: its handler and its ordered arguments,
each given as a name, a loader and a spec (one word or one or more, an
option's default or "required", and a help string).  ``_parse`` reads the
command line straight off the table and returns each argument's raw text;
``main`` runs every argument's loader in table order, which converts and
checks it, and calls the handler with the loaded values.  ``-h``/``--help``
prints a verb's arguments, or the verbs, and exits 0.

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
    A file that cannot be read (missing, a directory, not readable),
    malformed JSON and a bare integer past Python's digit limit, which json
    reports as a plain ValueError, are input errors that name `where`."""
    try:
        return json.loads(Path(where).read_text() if text is None else text)
    except OSError as exc:  # no file, a directory, a file that may not be read
        raise InputError(f"no such file: {where}" if isinstance(exc, FileNotFoundError)
                         else f"cannot read {where}: {exc.strerror}")
    except ValueError as exc:
        raise InputError(f"invalid JSON in {where}: {exc}")


# ---------------------------------------------------------------------------
# Loaders: each turns one raw argument into a checked value
# ---------------------------------------------------------------------------

def _document(arg: str):
    """The JSON document at a ``.json`` path; any other argument as given."""
    return _load_json(arg) if arg.endswith(".json") else arg


def _instance(arg: str, doc=None) -> core.MrbAlgebraInstance:
    """A catalog name, JSON instance text (its first non-space character
    ``{``), or the instance document at a ``.json`` path; `doc` is that
    document, or the argument, when it was read already."""
    doc = _document(arg) if doc is None else doc
    if isinstance(doc, str) and doc.lstrip().startswith("{"):
        doc = _load_json("instance text", doc)
    try:
        return core.load_instance(doc)
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


def _max_qdegree(text: str) -> int:
    try:
        n = int(text)
    except ValueError:  # not an integer, or one past Python's digit limit
        raise InputError(f"argument --max-qdegree: invalid int value: {text!r}")
    if n < 0:
        raise InputError("--max-qdegree must be nonnegative")
    return n


def _variant(text: str) -> str:
    if text not in modules._HOM_VARIANTS:
        choices = str(sorted(modules._HOM_VARIANTS))[1:-1]
        raise InputError(f"argument --variant: invalid choice: {text!r} (choose from {choices})")
    return text


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
    out_inst = core.reweight(target, rspec)
    return 0, {
        "kind": "instance",
        "instance": core.instance_to_json(out_inst),
        "report": core.check_mrb_identity(out_inst).to_json(),
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

MANY, REQUIRED = "one or more", "required"
_FILE = (None, "module document file")
_LEFT, _RIGHT, _EITHER = _module("left"), _module("right"), _module("left", "right")
_MAX_QDEGREE = ("--max-qdegree", _max_qdegree, ("3", "truncation degree of the words (default 3)"))
_INSTANCE = ("instance", _verified_instance, (None, "catalog name, JSON text or instance file"))

# verb -> (handler, its arguments in loading order as (name, loader, (how, help))).
# A name that starts with "--" is an option, and its `how` is REQUIRED or its
# default text; any other name is a positional argument, and its `how` is
# MANY for one or more words, None for one.
VERBS = {
    "check-algebra": (_cmd_check_algebra, [("instance", _instance, _INSTANCE[2])]),
    "check-module": (_cmd_check_module, [("module", _module(), _FILE)]),
    "normalize": (_cmd_normalize, [_INSTANCE,
                                   ("expression", str, (None, "ring or module element"))]),
    "confluence": (_cmd_confluence, [_MAX_QDEGREE, _INSTANCE]),
    "oracle": (_cmd_oracle, [_MAX_QDEGREE, _INSTANCE]),
    "quotient": (_cmd_quotient, [("module", _LEFT, _FILE),
                                 ("relations", str, (None, "JSON array of relation vectors"))]),
    "direct-sum": (_cmd_direct_sum, [("modules", _EITHER, (MANY, _FILE[1]))]),
    "mc": (_cmd_mc, [("module", _LEFT, _FILE)]),
    "restricted-free": (_cmd_restricted_free, [
        _INSTANCE, ("generators", str, (None, "comma-separated generator names"))]),
    "hom": (_cmd_hom, [("source", _EITHER, _FILE), ("target", _EITHER, _FILE)]),
    "hom-module": (_cmd_hom_module, [("--variant", _variant, (REQUIRED, "a, b, c or d")),
                                     ("module", _module(), _FILE), ("other", _module(), _FILE)]),
    "reweight": (_cmd_reweight, [
        ("target", _left_module_or_instance, (None, "instance, or left module file")),
        ("spec", str, (None, "JSON object {new_label: {old_label: rational}}"))]),
    "tensor": (_cmd_tensor, [("right_module", _RIGHT, _FILE), ("left_module", _LEFT, _FILE)]),
    "adjunction": (_cmd_adjunction, [("right_module", _RIGHT, _FILE),
                                     ("bimodule", _module("bimodule"), _FILE),
                                     ("other_right_module", _RIGHT, _FILE)]),
    "flat-probe": (_cmd_flat_probe, [("module", _EITHER, _FILE), ("injections", lambda path: (
        Path(path).stem, _hom_document(path)), (MANY, "hom document files"))]),
    "lift": (_cmd_lift, [("epi", _hom_document, (None, "hom document for the surjection")),
                         ("hom", _hom_document, (None, "hom document to lift"))]),
}


def _help(verb: str | None):
    """Print the usage and the arguments of verb, or the usage of every verb
    and what ``mrb`` does without one, and exit 0."""
    for v in [verb] if verb else VERBS:
        print(f"usage: mrb {v} [-h] [--pretty]", *(
            name + " ..." * (how == MANY) if name[:2] != "--" else f"{name} VALUE"
            if how == REQUIRED else f"[{name} VALUE]" for name, _, (how, _) in VERBS[v][1]))
    rows = VERBS[verb][1] + [("--pretty", None, (None, "indent the JSON report"))] if verb else []
    print("".join(f"\n  {name:20} {text}" for name, _, (_, text) in rows) or f"\n{__doc__}")
    raise SystemExit(0)


def _option(word: str, names: list[str]):
    """The option of `names` that a command-line word gives and its ``=``
    value; the word itself for an unknown or ambiguous option or a flag
    given a value, "" for a positional argument.  Every option but ``-h``
    has a long name, which any unique prefix abbreviates, so a word with one
    leading minus sign, such as the expression ``-2*e1``, is a positional
    argument, and so is a word with a space that names no option."""
    if word[:2] != "--":
        return ("--help" if word == "-h" else word if word[:2] == "-h" else ""), None
    name, eq, value = word.partition("=")
    matches = [n for n in names if n.startswith(name)]
    if len(matches) != 1 or eq and matches[0] in ("--pretty", "--help"):
        return ("" if " " in word and not matches else word), None
    return matches[0], (value if eq else None)


def _parse(argv: list[str]):
    """The verb, ``--pretty`` and each argument's raw text (a list for MANY),
    in ``VERBS`` order, of a command line.  Options may come before, after
    or between positional words, as ``--name value`` or ``--name=value``,
    and ``--`` ends them.  The positional words fill the positional
    arguments in order, and a MANY argument takes all that are left."""
    verb = argv[0] if argv else None
    if verb not in VERBS:
        if verb == "-h" or verb and len(verb) > 2 and "--help".startswith(verb):
            _help(None)
        raise InputError(f"argument verb: invalid choice: {verb!r} (choose from {', '.join(VERBS)})"
                         if argv else "the following arguments are required: verb")
    arguments = VERBS[verb][1]
    raws = {name: None if how in (None, MANY, REQUIRED) else how for name, _, (how, _) in arguments}
    names = [name for name in raws if name[:2] == "--"] + ["--pretty", "--help"]
    cut = argv.index("--") if "--" in argv else len(argv)
    pretty, words, pos, extras = False, iter(argv[1:cut]), [], []
    for word in words:
        name, value = _option(word, names)
        pretty = pretty or name == "--pretty"
        if name == "--help":
            _help(verb)
        elif name in raws:  # an option with a value: after "=", or the next word
            raws[name] = next(words, None) if value is None else value
        elif name != "--pretty":  # a positional word, or an unknown option
            (extras if name else pos).append(word)
    pos += argv[cut + 1:]  # the positional words, in order
    for name, _, (how, _) in arguments:
        if name[:2] != "--" and pos:
            raws[name], pos = (pos, []) if how == MANY else (pos[0], pos[1:])
    missing = [name for name, raw in raws.items() if raw is None]
    if missing or extras or pos:
        raise InputError(f"the following arguments are required: {', '.join(missing)}" if missing
                         else f"unrecognized arguments: {' '.join(extras + pos)}")
    return verb, pretty, list(raws.values())


def main(argv=None, stdout=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a usage error leaves no parsed arguments: name the verb if it was given
    verb, pretty = (argv[0] if argv and argv[0] in VERBS else None), False

    def dump(report: dict) -> str:
        layout = {"indent": 2} if pretty else {"separators": (",", ":")}
        return json.dumps({"command": verb, **report}, sort_keys=True, **layout)

    try:
        verb, pretty, raws = _parse(argv)
        handler, arguments = VERBS[verb]
        code, report = handler(*[[load(r) for r in raw] if isinstance(raw, list) else load(raw)
                                 for (_, load, _), raw in zip(arguments, raws)])
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
