"""Command-line front end over corpus files.

Exit codes: 0 success or clean report, 1 violations or a failed semantic
check (any ``RuntimeError``), 2 usage, IO, parse or input errors (any
``ValueError``).  Only :func:`main` turns an exception into an exit code.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

from . import dsl
from .engine import (
    ChaseConfig,
    apply_rule,
    compose_fractions,
    match_rule,
    rules_of,
    saturate,
    trace_lines,
    transport_spec,
)
from .localizer import as_localiser, break_cycles, check_sketch_morphism, find_cycles
from .realization import check_realization
from .sketch import Sketch, validate_sketch
from .yoneda import representable


class CliError(Exception):
    """A usage-level problem; reported on stderr with exit code 2."""


def corpus_dir():
    return resources.files("limsketch") / "corpus"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _load_file(path, decls: list, env: dict[str, Sketch],
               seen: set[str]) -> None:
    """Append the declarations of ``path`` to ``decls`` unless the file is
    in ``seen``; its sketches join ``env`` for the files loaded after it."""
    key = str(Path(path).resolve())
    if key in seen:
        return
    seen.add(key)
    for d in dsl.parse_path(path, env):
        decls.append(d)
        if isinstance(d, Sketch):
            env[d.name] = d


def _load(paths) -> list:
    decls: list = []
    env: dict[str, Sketch] = {}
    seen: set[str] = set()
    for p in paths:
        _load_file(p, decls, env, seen)
    return decls


def _pick(decls, kind, name, what):
    found = [d for d in decls if isinstance(d, kind)]
    if name is not None:
        for d in found:
            if d.name == name:
                return d
        raise CliError(f"no {what} named {name!r} in the given files")
    if len(found) == 1:
        return found[0]
    if not found:
        raise CliError(f"the given files contain no {what}")
    names = ", ".join(d.name for d in found)
    raise CliError(f"several {what}s present ({names}); pick one with "
                   f"--{what.replace(' ', '-')}")


def _rules_for(decls, spec, wanted_csv, read=None):
    """Locate the localiser morphism for the spec's sketch, then filter;
    ``read`` keeps each localiser's rules by the id of its morphism."""
    sources = [d for d in decls if isinstance(d, dsl.NamedMorphism)
               and d.morphism.src == spec.over]
    if not sources:
        if wanted_csv:
            raise CliError("no morphism out of the spec's sketch was "
                           "loaded, so no rules are available")
        return []
    if len(sources) > 1:
        names = ", ".join(d.name for d in sources)
        raise CliError(f"several candidate localisers ({names}); keep one "
                       "in the loaded files")
    read = {} if read is None else read
    sigma = sources[0].morphism
    if id(sigma) not in read:
        read[id(sigma)] = rules_of(as_localiser(sigma))
    rules = read[id(sigma)]
    if not wanted_csv:
        return list(rules)
    chosen = []
    for token in wanted_csv.split(","):
        token = token.strip()
        hits = [r for r in rules if r.id == token] or \
            [r for r in rules if token in r.id]
        if len(hits) != 1:
            known = ", ".join(r.id for r in rules)
            raise CliError(f"rule {token!r} does not name exactly one of: "
                           f"{known}")
        if hits[0] not in chosen:
            chosen.append(hits[0])
    return chosen


def _write_spec(out_dir, name, spec):
    """Write a self-contained file: the sketch plus the named spec."""
    path = Path(out_dir) / f"{name}.sk"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dsl.serialize_file([dsl.canonical(spec.over),
                                        dsl.NamedSpec(name, spec)]))
    return path


def _emit_spec(args, name, spec) -> int:
    """Write ``spec`` to ``--out`` if given, then print it as text or JSON."""
    if args.out:
        print(f"wrote {_write_spec(args.out, name, spec)}")
    named = dsl.NamedSpec(name, spec)
    _emit(args, dsl.to_jsonable(named),
          lambda _: dsl.serialize(named).splitlines())
    return 0


def _emit(args, doc, lines, path=None) -> None:
    """Print a command's output, or write it to ``path``, in the
    ``--format`` it was given, the one place that reads it: the JSON dump
    of ``doc``, or the text lines that ``lines(doc)`` renders from it."""
    out = dsl.dump_json(doc) + "\n" if args.format == "json" else \
        "".join(f"{line}\n" for line in lines(doc))
    (sys.stdout.write if path is None else path.write_text)(out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    decls = _load(args.files)
    if not decls:
        raise CliError("nothing to validate in the given files")
    entries = []
    for d in decls:
        if isinstance(d, Sketch):
            kind, rep = "sketch", validate_sketch(d)
        elif isinstance(d, dsl.NamedSpec):
            kind, rep = "spec", check_realization(d.realization)
        elif isinstance(d, dsl.NamedMorphism):
            kind, rep = "morphism", check_sketch_morphism(d.morphism)
        else:
            continue
        entries.append((d.name, kind, rep))
    doc = [{"name": name, "kind": kind, "violations": dsl.to_jsonable(rep)}
           for name, kind, rep in entries]
    _emit(args, doc, lambda _: (f"{kind} {name}: {rep}"
                                for name, kind, rep in entries))
    return 0 if all(rep.ok for _, _, rep in entries) else 1


def cmd_check_real(args) -> int:
    decls = _load(args.files)
    spec = _pick(decls, dsl.NamedSpec, args.spec, "spec")
    rep = check_realization(spec.realization)
    _emit(args, dsl.to_jsonable(rep), lambda _: [f"spec {spec.name}: {rep}"])
    return 0 if rep.ok else 1


def cmd_break(args) -> int:
    decls = _load(args.files)
    sk = _pick(decls, Sketch, args.sketch, "sketch")
    plan = [a.strip() for a in args.plan.split(",")] if args.plan else None
    cycles = find_cycles(sk)
    sp, loc = break_cycles(sk, plan)
    sp_named = dsl.canonical(dataclasses.replace(sp, name=f"{sk.name}_sp"))
    sigma = dsl.NamedMorphism(
        f"{sk.name}_sigma",
        dataclasses.replace(loc.underlying, src=sp_named))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sp_path = out / f"{sk.name}_sp.sk"
    sp_path.write_text(dsl.serialize(sp_named))
    sigma_path = out / f"{sk.name}_sigma.sk"
    sigma_path.write_text(dsl.serialize_file([dsl.canonical(sk), sp_named,
                                              sigma]))
    doc = {
        "cycles": [[[a, d] for a, d in walk] for walk in cycles.cycles],
        "broken": [{"h": r.h, "c": r.c, "fresh": r.fresh}
                   for r in loc.broken],
        "files": {"sketch": str(sp_path), "sigma": str(sigma_path)},
    }
    _emit(args, doc, lambda doc: [
        *([" ".join(["cycle:", *(f"{a}({d})" for a, d in walk)])
           for walk in doc["cycles"]] or ["no cycles"]),
        *(f"broke {r['c']} via {r['fresh']} (mono {r['h']})"
          for r in doc["broken"]),
        *(f"wrote {path}" for path in doc["files"].values())])
    return 0


def cmd_saturate(args) -> int:
    decls = _load(args.files)
    spec = _pick(decls, dsl.NamedSpec, args.spec, "spec")
    rules = _rules_for(decls, spec.realization, args.rules)
    if args.max_rounds < 0:
        raise CliError(f"--max-rounds {args.max_rounds} is not a natural "
                       "number")
    cfg = ChaseConfig(max_rounds=args.max_rounds)
    res = saturate(spec.realization, rules, cfg)
    doc = dsl.to_jsonable(res)
    if args.trace:
        trace_path = Path(args.trace)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        _emit(args, doc, lambda _: trace_lines(res), trace_path)
    if args.out:
        _write_spec(args.out, f"{spec.name}_saturated", res.result)
    carriers = res.result.carrier
    doc = {**doc, "carriers": {ob: len(carriers[ob].elements)
                               for ob in res.result.over.objects}}
    _emit(args, doc, lambda doc: [
        f"status {doc['status']} rounds {doc['rounds']}",
        *(f"carrier {ob} {n}" for ob, n in sorted(doc["carriers"].items()))])
    return 0


def _step(decls, spec, token, element, read=None):
    """Apply the one rule that ``token`` selects at the match ``element``
    of ``spec``; return the rule and the step's fraction."""
    rules = _rules_for(decls, spec, token, read)
    if len(rules) != 1:
        raise CliError(f"rule {token!r} does not select exactly one rule")
    matches = {m.element: m for m in match_rule(rules[0], spec)}
    if element not in matches:
        known = ", ".join(sorted(matches)) or "none"
        raise CliError(f"no match at {element!r} for rule {rules[0].id}, so "
                       f"no unsatisfied match there (matches: {known})")
    return rules[0], apply_rule(spec, rules[0], matches[element])


def _report(args, spec, frac, name, head, doc) -> int:
    """Write ``frac.tgt`` to ``--out`` as ``name``, then print what it adds
    to ``spec``: as JSON after the keys of ``doc``, or below ``head``."""
    tgt = frac.tgt
    added = {ob: [x for x in tgt.carrier[ob] if x not in spec.carrier[ob]]
             for ob in tgt.over.objects}
    added = {ob: xs for ob, xs in added.items() if xs}
    if args.out:
        _write_spec(args.out, name, tgt)
    doc = {**doc, "certificate": frac.certificate, "added": added}
    _emit(args, doc, lambda doc: [
        f"{head} ({doc['certificate']})",
        *(f"add {ob} {' '.join(doc['added'][ob])}"
          for ob in sorted(doc["added"]))])
    return 0


def cmd_apply(args) -> int:
    decls = _load(args.files)
    spec = _pick(decls, dsl.NamedSpec, args.spec, "spec")
    rule, frac = _step(decls, spec.realization, args.rule, args.element)
    return _report(args, spec.realization, frac, f"{spec.name}_step",
                   f"applied {rule.id} at {args.element}",
                   {"rule": rule.id, "match": args.element})


def cmd_prove(args) -> int:
    script = Path(args.script)
    decls: list = []
    env: dict[str, Sketch] = {}
    seen: set[str] = set()
    spec = None
    fraction = None
    steps = 0
    read: dict = {}
    lines = dsl.read_text(script).splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        where = f"{script}:{lineno}"
        if words[0] == "use" and len(words) == 2:
            _load_file((script.parent / words[1]).resolve(), decls, env,
                       seen)
        elif words[0] == "spec" and len(words) == 2:
            spec = _pick(decls, dsl.NamedSpec, words[1], "spec").realization
        elif words[0] == "step" and len(words) == 3:
            if spec is None:
                raise CliError(f"{where}: step before any 'spec' line")
            current = fraction.tgt if fraction is not None else spec
            try:
                _, step = _step(decls, current, words[1], words[2], read)
            except (CliError, ValueError) as e:
                raise CliError(f"{where}: {e}") from e
            fraction = step if fraction is None else \
                compose_fractions(fraction, step)
            steps += 1
        else:
            raise CliError(f"{where}: unrecognised line {line!r}")
    if spec is None or fraction is None:
        raise CliError("script must name a spec and apply at least one "
                       "step")
    return _report(args, spec, fraction, "proved",
                   f"proof of {steps} step(s)", {"steps": steps})


def cmd_yoneda(args) -> int:
    decls = _load(args.files)
    sk = _pick(decls, Sketch, args.sketch, "sketch")
    rep = representable(sk, args.object)
    return _emit_spec(args, f"y_{args.object}", rep.spec)


def cmd_transport(args) -> int:
    decls = _load(args.files)
    morphism = _pick(decls, dsl.NamedMorphism, args.morphism, "morphism")
    spec = _pick(decls, dsl.NamedSpec, args.spec, "spec")
    if spec.realization.over != morphism.morphism.tgt:
        raise CliError(
            f"spec {spec.name!r} lives over "
            f"{spec.realization.over.name!r}, but morphism "
            f"{morphism.name!r} targets {morphism.morphism.tgt.name!r}")
    moved = transport_spec(morphism.morphism, spec.realization)
    return _emit_spec(args, f"{spec.name}_along_{morphism.name}", moved)


def cmd_corpus(args) -> int:
    files = sorted(p.name for p in corpus_dir().iterdir()
                   if p.name.endswith(".sk"))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in files:
            (out / name).write_text((corpus_dir() / name).read_text())
        print(f"copied {len(files)} file(s) to {out}")
        return 0
    doc = {"dir": str(corpus_dir()), "files": files}
    _emit(args, doc, lambda doc: [doc["dir"], *doc["files"]])
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="limsketch",
        description="Sketch-based logic definitions, specifications, and "
                    "chase saturation.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, files="+"):
        if files:
            p.add_argument("files", nargs=files,
                           help=".sk or .sk.json files, loaded in order")
        p.add_argument("--format", choices=("text", "json"),
                       default="text")

    p = sub.add_parser("validate",
                       help="validate every declaration in the files")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check-real",
                       help="check one specification against its sketch")
    common(p)
    p.add_argument("--spec", help="spec name when several are loaded")
    p.set_defaults(fn=cmd_check_real)

    p = sub.add_parser("break",
                       help="find cycles and break them into a span sketch")
    common(p)
    p.add_argument("--sketch", help="sketch name when several are loaded")
    p.add_argument("--plan", help="comma-separated arrows to break")
    p.add_argument("--out", default=".", help="directory for output files")
    p.set_defaults(fn=cmd_break)

    p = sub.add_parser("saturate",
                       help="chase a specification to its free theory")
    common(p)
    p.add_argument("--spec", help="spec name when several are loaded")
    p.add_argument("--rules", help="comma-separated rule ids (default all)")
    p.add_argument("--max-rounds", type=int,
                   default=ChaseConfig.max_rounds)
    p.add_argument("--trace", help="write the trace to this path")
    p.add_argument("--out", help="directory for the saturated spec file")
    p.set_defaults(fn=cmd_saturate)

    p = sub.add_parser("apply", help="apply one rule at one match")
    common(p)
    p.add_argument("rule", help="rule id (or unique fragment)")
    p.add_argument("element", help="match element in the rule's apex")
    p.add_argument("--spec", help="spec name when several are loaded")
    p.add_argument("--out", help="directory for the result spec file")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("prove",
                       help="run a proof script and compose its steps")
    p.add_argument("script", help="use/spec/step script file")
    common(p, files=None)
    p.add_argument("--out", help="directory for the final spec file")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("yoneda",
                       help="the free specification on one element")
    common(p)
    p.add_argument("object", help="object of the sketch")
    p.add_argument("--sketch", help="sketch name when several are loaded")
    p.add_argument("--out", help="directory for the spec file")
    p.set_defaults(fn=cmd_yoneda)

    p = sub.add_parser("transport",
                       help="restrict a specification along a morphism")
    common(p)
    p.add_argument("--morphism", help="morphism name")
    p.add_argument("--spec", help="spec name")
    p.add_argument("--out", help="directory for the result spec file")
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("corpus", help="locate or copy the shipped corpus")
    common(p, files=None)
    p.add_argument("--out", help="copy the corpus files to this directory")
    p.set_defaults(fn=cmd_corpus)

    return top


def main(argv=None) -> int:
    """Run one command; a failure prints one ``error:`` line (one per
    parse issue), any further lines of its message indented below it."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except dsl.ParseError as e:
        where = f"{e.path}:" if e.path else ""
        for issue in e.issues:
            print(f"error: {where}{issue}", file=sys.stderr)
        return 2
    except (CliError, OSError, ValueError) as e:
        failure, code = e, 2
    except RuntimeError as e:
        failure, code = e, 1
    print("error: " + str(failure).replace("\n", "\n  "), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
