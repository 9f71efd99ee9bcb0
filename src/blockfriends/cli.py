"""Command-line interface.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
verdict (not friends, not a design, failed check), 2 for usage or input
errors.  Verdicts go to stdout, diagnostics to stderr.  Every report is
also available as JSON via --json.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from importlib import resources
from pathlib import Path

from .blocks import format_block, mask_from_labels
from .designs import BlockDesign, DesignError, check_ground, detect_params, full_design
from .families import (
    NotFriendsError,
    build_family,
    check_alpha_hypotheses,
    check_order_preservation,
    export_hasse,
    order_relation,
    transitive_reduction,
)
from .fields import FieldError, load_field_tables, prime_field, _is_prime
from .files import load_design, load_family, save_design
from .friendship import are_friends, check_count_identity
from .profiles import check_moment_identities, profile
from .classify import analyze, analyze_level, classify_all, classify_level
from .planes import projective_plane
from .catalog import catalog


def _params_str(d: BlockDesign) -> str:
    if d.params is not None:
        p = d.params
        return f"v={p.v} b={p.b} r={p.r} k={p.k} lambda={p.lam}"
    if d.is_degenerate:
        return f"v={d.v} degenerate (k={d.k})"
    return f"v={d.v} b={d.b} k={d.k} raw family"


def _params_json(params):
    return list(params) if params else None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # drops one leading BOM
    except UnicodeDecodeError as exc:
        raise DesignError(f"{path}: {exc}") from exc


def _load(path: str, raw: bool = False) -> BlockDesign:
    text = _read_text(path)
    name = Path(path).stem
    return load_family(text, name) if raw else load_design(text, name)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_designs(outdir: Path, files, note: str) -> list[str]:
    """Write each (file name, design, comment) triple into outdir, made if
    missing, and return the paths written.  A design that save_design
    refuses (the empty-block one has no file form) is skipped with the
    note on stderr."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, d, comment in files:
        try:
            text = save_design(d, comment=comment)
        except DesignError:
            print(f"note: {note}", file=sys.stderr)
            continue
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    return written


# ---------------------------------------------------------------- commands


def cmd_verify(args) -> int:
    d = _load(args.file, raw=True)
    ok = d.params is not None
    witness = "" if ok else detect_params(d.blocks, d.v)[1]  # only a failure needs it
    payload = {
        "file": args.file,
        "is_design": ok,
        "params": _params_json(d.params),
        "witness": witness or None,
    }
    _emit(args, payload, [f"design: {_params_str(d)}" if ok else f"not a design: {witness}"])
    return 0 if ok else 1


def cmd_profile(args) -> int:
    d = _load(args.design, raw=args.family)
    try:
        labels = [int(tok) for tok in args.set.split(",") if tok.strip()]
        probe = mask_from_labels(labels, d.v)
    except ValueError as exc:
        raise DesignError(f"bad --set {args.set!r}: {exc}") from exc
    p = profile(d, probe)
    lines = [
        f"design: {d.name} ({_params_str(d)})",
        f"set: {format_block(probe)}",
        f"phi = {p}",
    ]
    payload = {
        "design": d.name,
        "params": _params_json(d.params),
        "set": sorted(labels),
        "profile": list(p.display),
        "profile_full": list(p.z),
    }
    if d.params is not None:
        ok = check_moment_identities(p, d.params)
        lines.append(f"moment identities: {'ok' if ok else 'FAILED'}")
        payload["moment_identities"] = ok
    _emit(args, payload, lines)
    return 0


def cmd_friends(args) -> int:
    d1 = _load(args.a, raw=args.family)
    d2 = _load(args.b, raw=args.family)
    verdict = are_friends(d1, d2)
    payload = {
        "a": d1.name,
        "b": d2.name,
        "friends": verdict.friends,
        "a_is_design": verdict.inputs_are_designs[0],
        "b_is_design": verdict.inputs_are_designs[1],
    }
    if verdict.friends:
        ok = check_count_identity(verdict, d1.b, d2.b)
        lines = [
            "friends: yes",
            f"phi({d1.name}, {d2.name}) = {verdict.profile_1_2}",
            f"phi({d2.name}, {d1.name}) = {verdict.profile_2_1}",
            f"count identity: {'ok' if ok else 'FAILED'}",
        ]
        payload["profile_a_b"] = list(verdict.profile_1_2.display)
        payload["profile_b_a"] = list(verdict.profile_2_1.display)
        payload["count_identity"] = ok
        _emit(args, payload, lines)
        return 0
    w = verdict.witness
    failing = (d1.name, d2.name) if w.side == 1 else (d2.name, d1.name)
    lines = [
        "friends: no",
        f"witness: profiles of {failing[0]} against blocks "
        f"{w.i + 1} and {w.j + 1} of {failing[1]} differ",
    ]
    payload["witness"] = {"side": w.side, "blocks": [w.i + 1, w.j + 1]}
    _emit(args, payload, lines)
    return 1


def _class_line(j: int, cls) -> str:
    if cls.params is not None:
        p = cls.params
        verdict = f"design ({p.v},{p.b},{p.r},{p.k},{p.lam})"
    elif cls.n in (0, cls.v):
        verdict = "degenerate design"
    elif cls.members is None:
        verdict = "members not retained"
    else:
        verdict = "not a design"
    return f"  class {j + 1}: signature {cls.signature} size {cls.size} {verdict}"


def _class_json(cls) -> dict:
    return {
        "n": cls.n,
        "signature": list(cls.signature.display),
        "size": cls.size,
        "params": _params_json(cls.params),
        "witness": cls.witness or None,
    }


def cmd_classify(args) -> int:
    parent = _load(args.parent, raw=args.family)
    keep = not args.counts_only
    if args.report and not keep:  # refused before any level is swept
        raise DesignError("analysis needs retained class members" if args.all
                          else "class members were not retained")
    lines = [f"parent: {parent.name} ({_params_str(parent)})"]
    payload: dict = {"parent": parent.name, "params": _params_json(parent.params)}
    if args.n is not None:
        levels = {args.n: classify_level(parent, args.n, keep_members=keep)}
        sub = None
    else:
        sub = classify_all(parent, keep_members=keep)
        levels = {n: sub.levels[n] for n in range(parent.v + 1)}
    payload["levels"] = {}
    for n, classes in sorted(levels.items()):
        total = sum(c.size for c in classes)
        lines.append(f"n={n}: {len(classes)} classes, {total} subsets")
        for j, cls in enumerate(classes):
            lines.append(_class_line(j, cls))
        payload["levels"][str(n)] = [_class_json(c) for c in classes]
    if args.report:
        if sub is not None:
            report = analyze(sub)
            lines.append("report:")
            for n in range(parent.v + 1):
                lines.append(
                    f"  level {n} friendly: {'yes' if report.level_friendly[n] else 'no'}"
                )
            lines.append(f"  all classes designs: {'yes' if all(report.is_design) else 'no'}")
            lines.append(f"  family pairwise friendly: {'yes' if report.family_friendly else 'no'}")
            lines.append(f"  power set partitioned: {'yes' if report.alpha_ok else 'no'}")
            lines.append(f"  conjecture verdict: {'yes' if report.conjecture else 'no'}")
            payload["report"] = {
                "level_friendly": list(report.level_friendly),
                "all_designs": all(report.is_design),
                "family_friendly": report.family_friendly,
                "alpha_ok": report.alpha_ok,
                "conjecture": report.conjecture,
            }
        else:
            rep = analyze_level(parent, levels[args.n])
            lines.append("report:")
            for j, (own, with_parent) in enumerate(
                zip(rep.self_friend, rep.friends_with_parent)
            ):
                lines.append(
                    f"  class {j + 1}: self-friend {'yes' if own else 'no'}, "
                    f"friends with parent {'yes' if with_parent else 'no'}"
                )
            lines.append(f"  level friendly: {'yes' if rep.level_friendly else 'no'}")
            payload["report"] = {
                "self_friend": list(rep.self_friend),
                "friends_with_parent": list(rep.friends_with_parent),
                "level_friendly": rep.level_friendly,
            }
    if args.emit_classes:
        outdir = Path(args.emit_classes)
        files = (
            (f"{parent.name}-n{n}-class{j + 1}.design", cls.to_family(),
             f"parent: {parent.name}\nn: {n}\nsignature: {cls.signature}")
            for n, classes in sorted(levels.items())
            for j, cls in enumerate(classes)
            if cls.members is not None
        )
        written = _write_designs(outdir, files, "skipping n=0 class (empty set has no file form)")
        lines.append(f"wrote {len(written)} class files to {outdir}")
        payload["emitted"] = written
    _emit(args, payload, lines)
    return 0


def cmd_poset(args) -> int:
    members = [_load(p) for p in args.files]
    if args.add_degenerate:
        v = members[0].v
        for extra in (full_design(v, 0), full_design(v, v)):
            if extra not in members:
                members.append(extra)
    try:
        fam = build_family(members)
    except NotFriendsError as exc:
        _emit(args, {"friendly": False, "error": str(exc)}, [f"not a friendly family: {exc}"])
        return 1
    rel = order_relation(fam)
    covering = sorted(transitive_reduction(rel))
    lines = [f"family: {len(fam.members)} members on v={fam.v}", "members:"]
    for i, d in enumerate(fam.members):
        lines.append(f"  {i}: {fam.member_label(i)} ({_params_str(d)})")
    lines.append(f"relation: {len(rel.pairs)} ordered pairs")
    lines.append("covering:")
    for (i, j) in covering:
        lines.append(f"  {fam.member_label(i)} < {fam.member_label(j)}")
    lines.append(f"order is transitive: {'yes' if rel.is_transitive else 'no'}")
    lines.append(
        f"closure antisymmetric: {'yes' if rel.closure_antisymmetric else 'no'}"
    )
    payload = {
        "v": fam.v,
        "members": [fam.member_label(i) for i in range(len(fam.members))],
        "pairs": sorted(list(p) for p in rel.pairs),
        "covering": [list(p) for p in covering],
        "transitive": rel.is_transitive,
        "closure_antisymmetric": rel.closure_antisymmetric,
    }
    code = 0
    if args.check_alpha:
        hyp = check_alpha_hypotheses(fam)
        lines.append(f"alpha hypotheses: {'ok' if hyp else 'FAILED'}")
        payload["alpha_hypotheses"] = hyp
        if hyp:
            preserved = check_order_preservation(fam)
            lines.append(f"order preservation: {'ok' if preserved else 'FAILED'}")
            payload["order_preservation"] = preserved
            code = 0 if preserved else 1
        else:
            code = 1
    if args.dot:
        dot = export_hasse(rel)
        if args.dot == "-":
            lines.append(dot.rstrip("\n"))
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")
            lines.append(f"wrote {args.dot}")
        payload["dot"] = args.dot
    _emit(args, payload, lines)
    return code


def cmd_pg(args) -> int:
    q = args.order
    if q >= 8:  # q^2 + q + 1 points: refused before any table or primality test
        check_ground(q * q + q + 1)
    if args.field_tables:
        tables = load_field_tables(_read_text(args.field_tables))
        if tables.q != q:
            raise FieldError(f"table file has q={tables.q}, asked for {q}")
    elif _is_prime(q):
        tables = prime_field(q)
    elif q == 4:
        text = resources.files("blockfriends.data").joinpath("gf4.tables").read_text()
        tables = load_field_tables(text)
    else:
        raise FieldError(
            f"{q} is not prime; supply --field-tables (only GF(4) ships bundled)"
        )
    d = projective_plane(tables)
    out = save_design(d, comment=f"projective plane of order {q}")
    Path(args.output).write_text(out, encoding="utf-8")
    _emit(
        args,
        {"order": q, "params": _params_json(d.params), "output": args.output},
        [f"wrote pg2-{q}: {_params_str(d)} -> {args.output}"],
    )
    return 0


def cmd_catalog(args) -> int:
    entries = catalog()
    if args.action == "list":
        lines = []
        payload = {"entries": []}
        for e in entries:
            if e.design is not None:
                p = e.design.params
                desc = f"design ({p.v},{p.b},{p.r},{p.k},{p.lam})"
            else:
                desc = f"family with {len(e.members)} members"
            lines.append(f"{e.name:<22} {desc:<28} {e.provenance}")
            payload["entries"].append(
                {"name": e.name, "kind": "design" if e.design else "family",
                 "provenance": e.provenance}
            )
        _emit(args, payload, lines)
        return 0
    entry = next((e for e in entries if e.name == args.name), None)
    if entry is None:
        print(f"no catalog entry named {args.name!r}", file=sys.stderr)
        return 2
    if entry.design is not None:
        Path(args.output).write_text(
            save_design(entry.design, comment=entry.provenance), encoding="utf-8"
        )
        _emit(args, {"name": entry.name, "output": args.output},
              [f"wrote {entry.name} -> {args.output}"])
        return 0
    outdir = Path(args.output)
    files = ((f"{d.name}.design", d, entry.provenance) for d in entry.members)
    written = _write_designs(outdir, files, "the empty-block member has no file form")
    _emit(args, {"name": entry.name, "written": written},
          [f"wrote {len(written)} member files to {outdir}"])
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck  # imported here: no other command needs it

    results = run_selfcheck()
    all_pass = all(ok for _, ok, _ in results)
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}" + (f": {detail}" if detail and not ok else ""))
    lines.append(f"{'all checks passed' if all_pass else 'SOME CHECKS FAILED'}  "
                 f"({sum(ok for _, ok, _ in results)}/{len(results)})")
    payload = {
        "checks": [{"name": n, "pass": ok, "detail": d or None} for n, ok, d in results],
        "all_pass": all_pass,
    }
    _emit(args, payload, lines)
    return 0 if all_pass else 1


# ---------------------------------------------------------------- parser


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(
        prog="blockfriends",
        description="Block designs: intersection profiles, friendship, "
        "friendly-family posets, power-set classification.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ap.add_argument("--threads", type=_thread_count, default=None, metavar="N",
                    help="accepted for compatibility; has no effect on work or results")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a design file against the axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("profile", help="profile of a design against a set")
    p.add_argument("design")
    p.add_argument("--set", default="", metavar="1,2,3",
                   help="comma-separated labels (empty for the empty set)")
    p.add_argument("--family", action="store_true",
                   help="load without the design axioms check")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("friends", help="decide friendship of two designs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--family", action="store_true",
                   help="load without the design axioms check")
    p.set_defaults(fn=cmd_friends)

    p = sub.add_parser("classify", help="group subsets by profile against a parent")
    p.add_argument("parent")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-n", type=int, default=None, help="one subset size")
    g.add_argument("--all", action="store_true", help="every level 0..v")
    p.add_argument("--report", action="store_true",
                   help="add design/friendship analysis")
    p.add_argument("--emit-classes", metavar="DIR", default=None,
                   help="write each class as a design file")
    p.add_argument("--counts-only", action="store_true",
                   help="keep signatures and sizes only (no members, no verdicts)")
    p.add_argument("--family", action="store_true",
                   help="load parent without the design axioms check")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("poset", help="build a friendly family and its order")
    p.add_argument("files", nargs="+")
    p.add_argument("--dot", metavar="FILE", default=None,
                   help="write the Hasse diagram as DOT ('-' for stdout)")
    p.add_argument("--check-alpha", action="store_true",
                   help="check the power-set map hypotheses and order preservation")
    p.add_argument("--add-degenerate", action="store_true",
                   help="include the empty-set and whole-set designs")
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("pg", help="construct a projective plane")
    p.add_argument("--order", type=int, required=True, metavar="Q")
    p.add_argument("--field-tables", metavar="FILE", default=None)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(fn=cmd_pg)

    p = sub.add_parser("catalog", help="bundled reference designs")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.set_defaults(fn=cmd_catalog, action="list")
    pe = psub.add_parser("export")
    pe.add_argument("name")
    pe.add_argument("-o", "--output", required=True,
                    help="file for a design, directory for a family")
    pe.set_defaults(fn=cmd_catalog, action="export")

    p = sub.add_parser("selfcheck", help="re-run the bundled reference results")
    p.set_defaults(fn=cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DesignError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
