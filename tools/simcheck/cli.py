"""simcheck command line.

    python3 tools/simcheck -p build [src/ ...]

Exit status: 0 clean, 1 findings, 2 environment/usage failure.
"""

import argparse
import os
import sys

from . import frontend as frontend_mod
from .clang_frontend import FrontendUnavailable
from .report import Finding, render_json, render_text
from .rules import RuleContext, all_rules
from .waivers import WaiverSet


def _repo_root_default():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="simcheck",
        description=(
            "AST-grounded semantic analyzer for the simulator's "
            "determinism and snapshot contracts "
            "(DESIGN.md section 15)."
        ),
    )
    ap.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="repo-relative files/directories to analyze "
        "(default: src/)",
    )
    ap.add_argument(
        "-p",
        "--build-dir",
        default=None,
        metavar="DIR",
        help="build directory containing compile_commands.json "
        "(used by the libclang frontend; the fallback frontend "
        "parses sources directly)",
    )
    ap.add_argument(
        "--root",
        default=_repo_root_default(),
        help="repository root (default: grandparent of this package)",
    )
    ap.add_argument(
        "--frontend",
        choices=("auto", "clang", "fallback"),
        default="auto",
        help="AST frontend: libclang when available (auto), forced "
        "libclang (clang, exit 2 if absent), or the pure-python "
        "parser (fallback)",
    )
    ap.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    ap.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write findings as JSON to FILE",
    )
    ap.add_argument(
        "--list-rules",
        action="store_true",
        help="list rules with their contracts and exit",
    )
    ap.add_argument(
        "--no-unused-waivers",
        action="store_true",
        help="do not report SIMCHECK-ALLOW waivers that suppressed "
        "nothing (used by fixture tests that run one rule at a "
        "time)",
    )
    args = ap.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for r in rules:
            print(f"{r.NAME}")
            print(f"    {r.CONTRACT}")
        return 0

    known = {r.NAME for r in rules}
    if args.rule:
        unknown = set(args.rule) - known
        if unknown:
            print(
                "simcheck: unknown rule(s): "
                + ", ".join(sorted(unknown)),
                file=sys.stderr,
            )
            return 2

    paths = args.paths or ["src"]
    root = os.path.abspath(args.root)
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(
                f"simcheck: no such path under {root}: {p}",
                file=sys.stderr,
            )
            return 2

    try:
        model, sources = frontend_mod.load_model(
            root,
            args.build_dir,
            paths,
            frontend=args.frontend,
        )
    except FrontendUnavailable as e:
        print(
            "simcheck: --frontend clang requested but " + str(e),
            file=sys.stderr,
        )
        return 2

    waivers = WaiverSet()
    for rel in sources:
        fm = model.files.get(rel)
        lines = fm.lines if fm is not None and fm.lines else None
        if lines is None:
            try:
                with open(
                    os.path.join(root, rel),
                    encoding="utf-8",
                    errors="replace",
                ) as f:
                    lines = f.read().splitlines()
            except OSError:
                lines = []
        waivers.scan_file(rel, lines)

    ctx = RuleContext(model, waivers, paths, rules=args.rule)
    ran = []
    for r in rules:
        if not ctx.enabled(r.NAME):
            continue
        ran.append(r.NAME)
        r.run(ctx)

    findings = list(ctx.findings)
    for rel, line, text in waivers.syntax_findings():
        findings.append(
            Finding(
                file=rel,
                line=line,
                rule="waiver-syntax",
                message="malformed waiver '"
                + text[:60]
                + "' — write `SIMCHECK-ALLOW(rule-name): reason` "
                "(both the rule and the reason are mandatory)",
            )
        )
    if not args.no_unused_waivers and args.rule is None:
        for w in waivers.unused():
            findings.append(
                Finding(
                    file=w.file,
                    line=w.line,
                    rule="unused-waiver",
                    message=f"SIMCHECK-ALLOW({w.rule}) no longer "
                    "suppresses any finding — delete it so waivers "
                    "cannot rot",
                )
            )

    meta = {
        "frontend": model.frontend,
        "rules": ran,
        "files_analyzed": len(sources),
    }
    if args.json:
        render_json(findings, meta, args.json)
    if findings:
        render_text(findings, sys.stderr)
        print(
            f"simcheck: {len(findings)} finding(s) "
            f"[frontend={model.frontend}, "
            f"{len(sources)} file(s)]",
            file=sys.stderr,
        )
        return 1
    print(
        f"simcheck: clean [frontend={model.frontend}, "
        f"{len(sources)} file(s), rules: {', '.join(ran)}]"
    )
    return 0
