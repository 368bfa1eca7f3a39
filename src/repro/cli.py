"""Command-line interface: ``repro-tic`` (temporal integrity checking).

Subcommands:

* ``check``    — decide potential satisfaction of a constraint on a history
  stored as JSON (see :mod:`repro.database.serialize` for the format).
* ``classify`` — report a formula's class (biquantified / universal /
  safety, plus the temporal-hierarchy class) and which results of the
  paper apply to it; ``--json`` for a machine-readable report.
* ``lint``     — run the static analysis passes of :mod:`repro.lint` over
  one constraint or a file of constraints; ``--json`` for machine-readable
  reports, ``--strict`` to fail on warnings too, ``--deps`` for the TIC12x
  dependence passes (with ``--vocabulary`` to compare against a schema),
  ``--hierarchy`` for the TIC13x temporal-hierarchy passes.
* ``analyze-deps`` — emit the static update–constraint dependence matrix
  (:mod:`repro.analysis`) of a constraint set as JSON.
* ``plan``     — classify a constraint set in the temporal hierarchy and
  emit the backend-dispatch plan (:mod:`repro.core.plan`) with the TIC13x
  diagnostics as JSON; ``--strict`` fails on warnings too.
* ``monitor``  — replay a history state by state through the online monitor
  (past-closed constraints on the history-less evaluator, the rest on the
  compiled progression kernel with bitset Büchi decisions) and report
  violations with their detection instants.
* ``serve``    — stream a history through the sharded
  :class:`repro.service.MonitorService`; ``--stop-at``/``--snapshot-out``
  checkpoint mid-stream and ``--resume-from`` resumes a killed run with
  identical verdicts (DESIGN.md §12).
* ``experiment`` — run one of the paper-claim experiments (E1..E9, A1..A3)
  and print its table.

Exit codes are scriptable (CI-friendly): 0 — success / no findings;
1 — analysis failure (constraint violated, lint errors, non-decidable
class under ``classify --strict``); 2 — usage or input errors (syntax
errors, unknown experiment, malformed history files).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Callable

from .analysis import UpdateDependencyIndex, idle_class, static_verdict
from .analysis.hierarchy import backend_for, classify_hierarchy
from .core.checker import check_extension
from .core.monitor import IntegrityMonitor
from .core.plan import plan_constraints
from .database.history import History
from .database.serialize import load_history
from .database.vocabulary import Vocabulary, vocabulary
from .errors import ParseError, ReproError
from .lint import (
    SetAnalyzer,
    hierarchy_passes,
    lint_constraint_set,
    lint_formula,
    lint_source,
)
from .lint.diagnostics import LintReport
from .logic.classify import classify
from .logic.formulas import Formula
from .logic.parser import parse
from .logic.safety import is_syntactically_safe, why_not_safe
from .service import MonitorService

#: Schema version of the ``lint --json`` output; bump on breaking change.
#: v2: added the top-level ``semantic`` marker (TIC100+ passes opt-in).
LINT_JSON_VERSION = 2

#: Schema version of the ``analyze-deps`` JSON output.
DEPS_JSON_VERSION = 1

#: Schema version of the ``plan`` JSON output.
#: v2: the backends are ``pasteval`` and ``progression``, and the summary
#: no longer counts constraints routed off the full pipeline.
PLAN_JSON_VERSION = 2


def _bounded_int(lowest: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers of at least ``lowest``, so a value
    below it is a usage error (exit 2) when arguments are parsed."""

    def parse_bounded(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be at least {lowest}, got {value}"
            )
        return value

    return parse_bounded


def _parse_vocabulary_spec(spec: str) -> Vocabulary:
    """Build a vocabulary from a ``Name:arity,Name:arity`` spec string."""
    predicates: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _sep, arity_text = item.partition(":")
        name = name.strip()
        if not name.isidentifier():
            raise ReproError(
                f"bad --vocabulary entry {item!r}: predicate name must be "
                "an identifier"
            )
        try:
            arity = int(arity_text)
        except ValueError:
            raise ReproError(
                f"bad --vocabulary entry {item!r}: expected Name:arity"
            ) from None
        predicates[name] = arity
    if not predicates:
        raise ReproError("--vocabulary spec declares no predicates")
    return vocabulary(predicates)


def _cmd_check(args: argparse.Namespace) -> int:
    constraint = parse(args.constraint)
    history = load_history(args.history)
    result = check_extension(
        constraint,
        history,
        assume_safety=args.assume_safety,
        method=args.method,
        want_witness=args.witness,
    )
    verdict = (
        "POTENTIALLY SATISFIED"
        if result.potentially_satisfied
        else "VIOLATED (no extension satisfies the constraint)"
    )
    print(f"history: {len(history)} state(s), R_D = "
          f"{sorted(result.reduction.relevant)}")
    print(f"ground instances: {result.reduction.assignment_count}, "
          f"phi_D size: {result.reduction.formula_size()}")
    print(verdict)
    if args.witness and result.witness is not None:
        from .database.serialize import lasso_to_dict

        print("witness extension (lasso):")
        json.dump(lasso_to_dict(result.witness), sys.stdout, indent=2)
        print()
    return 0 if result.potentially_satisfied else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    formula = parse(args.constraint)
    info = classify(formula)
    safe = is_syntactically_safe(formula)
    decidable = info.is_universal and safe
    hierarchy = classify_hierarchy(formula)
    if args.json:
        payload = {
            "formula": str(formula),
            "closed": formula.is_closed(),
            "external_universals": len(info.external_universals),
            "biquantified": info.is_biquantified,
            "universal": info.is_universal,
            "internal_quantifiers": info.internal_quantifiers,
            "has_past": info.has_past,
            "has_future": info.has_future,
            "syntactically_safe": safe,
            "why_not_safe": None if safe else why_not_safe(formula),
            "hierarchy": {
                "class": hierarchy.cls.value,
                "backend": backend_for(hierarchy.cls),
                "lookahead": hierarchy.lookahead,
                "reason": hierarchy.reason,
            },
            "decidable": decidable,
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 1 if args.strict and not decidable else 0
    print(f"formula: {formula}")
    print(f"closed sentence:      {formula.is_closed()}")
    print(f"external universals:  {len(info.external_universals)}")
    print(f"biquantified:         {info.is_biquantified}")
    print(f"universal:            {info.is_universal}")
    print(f"internal quantifiers: {info.internal_quantifiers}")
    print(f"uses past / future:   {info.has_past} / {info.has_future}")
    print(f"syntactically safe:   {safe}")
    if not safe:
        print(f"  reason: {why_not_safe(formula)}")
    depth = (
        f", lookahead {hierarchy.lookahead}"
        if hierarchy.lookahead is not None
        else ""
    )
    print(f"temporal hierarchy:   {hierarchy.cls.value}{depth} "
          f"(backend: {backend_for(hierarchy.cls)})")
    if decidable:
        print("=> decidable: extension checking in exponential time "
              "(Theorem 4.2)")
    elif info.is_biquantified and info.internal_quantifiers >= 1:
        print("=> undecidable fragment: Pi^0_2-hard with internal "
              "quantifiers (Theorem 3.2)")
    else:
        print("=> outside the classes analyzed by the paper")
    if args.strict and not decidable:
        return 1
    return 0


def _lint_inputs(target: str) -> list[str]:
    """The constraints to lint: the expression itself, or — when ``target``
    names a file — one constraint per non-blank, non-``#`` line."""
    return [source for _name, source in _named_lint_inputs(target)]


def _named_lint_inputs(target: str) -> list[tuple[str | None, str]]:
    """``(name, source)`` pairs for every constraint in ``target``.

    A constraint's name is taken from the immediately preceding comment
    when its first word is an identifier (``# fill_once: ...`` names the
    next constraint ``fill_once``); unnamed constraints get ``None`` and
    the caller falls back to positional ``c<index>`` names.
    """
    if not os.path.exists(target):
        if os.sep in target or target.endswith(".tic"):
            raise ReproError(f"file not found: {target}")
        return [(None, target)]
    pairs: list[tuple[str | None, str]] = []
    pending: str | None = None
    with open(target, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                pending = None
                continue
            if line.startswith("#"):
                first = line.lstrip("#").strip().split(None, 1)
                word = first[0].rstrip(":") if first else ""
                pending = word if word.isidentifier() else None
                continue
            pairs.append((pending, line))
            pending = None
    return pairs


def _semantic_lint_reports(
    sources: list[str], mode: str, args: argparse.Namespace
) -> list[LintReport]:
    """Set-aware semantic linting: one report per source, input order.

    Sources that fail to parse get their usual ``TIC000`` report and are
    excluded from the set analysis; the rest share one grounded analyzer
    (constraint mode) or are each checked against the ``--constraint-set``
    file (trigger mode).
    """
    names = getattr(args, "lint_names", None) or [None] * len(sources)
    vocab = getattr(args, "lint_vocabulary", None)
    deps = bool(getattr(args, "deps", False))
    hierarchy = bool(getattr(args, "hierarchy", False))
    reports: list[LintReport | None] = [None] * len(sources)
    parsed: list[tuple[int, str]] = []
    for index, source in enumerate(sources):
        try:
            parse(source)
        except ParseError:
            reports[index] = lint_source(
                source, mode=mode, domain_size=args.domain_size
            )
        else:
            parsed.append((index, source))
    if mode == "constraint":
        named = tuple(
            (names[index] or f"c{index}", parse(source))
            for index, source in parsed
        )
        set_reports = lint_constraint_set(
            named,
            vocabulary=vocab,
            domain_size=args.domain_size,
            jobs=args.jobs,
            semantic=bool(args.semantic),
            sources=[source for _index, source in parsed],
            deps=deps,
            hierarchy=hierarchy,
        )
        for (index, _source), report in zip(parsed, set_reports):
            reports[index] = report
    else:
        monitored: tuple[tuple[str, object], ...] = ()
        if args.constraint_set:
            monitored = tuple(
                (name or f"c{index}", parse(text))
                for index, (name, text) in enumerate(
                    _named_lint_inputs(args.constraint_set)
                )
            )
        for index, source in parsed:
            reports[index] = lint_formula(
                parse(source),
                source=source,
                mode="trigger",
                vocabulary=vocab,
                domain_size=args.domain_size,
                semantic=bool(args.semantic),
                constraint_set=monitored or None,
                deps=deps,
            )
    return [report for report in reports if report is not None]


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.domain_size < 0:
        raise ReproError("--domain-size must be non-negative")
    if args.constraint_set and not args.trigger:
        raise ReproError("--constraint-set requires --trigger")
    named_inputs = _named_lint_inputs(args.target)
    sources = [source for _name, source in named_inputs]
    args.lint_names = [name for name, _source in named_inputs]
    args.lint_vocabulary = (
        _parse_vocabulary_spec(args.vocabulary) if args.vocabulary else None
    )
    mode = "trigger" if args.trigger else "constraint"
    if args.semantic or args.deps or args.hierarchy:
        # The set-aware path: semantic passes share one analyzer, the
        # TIC12x set-level dependence passes see the whole constraint
        # set, and the TIC13x hierarchy passes share its analyzer for
        # the safety cross-check.
        reports = _semantic_lint_reports(sources, mode, args)
    else:
        reports = [
            lint_source(
                source,
                mode=mode,
                domain_size=args.domain_size,
                vocabulary=args.lint_vocabulary,
            )
            for source in sources
        ]
    errors = sum(len(r.errors) for r in reports)
    warnings_ = sum(len(r.warnings) for r in reports)
    infos = sum(len(r.infos) for r in reports)
    if args.json:
        payload = {
            "version": LINT_JSON_VERSION,
            "mode": mode,
            "semantic": bool(args.semantic),
            "results": [r.to_dict() for r in reports],
            "summary": {
                "constraints": len(reports),
                "error": errors,
                "warning": warnings_,
                "info": infos,
            },
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.format())
        print()
        print(
            f"{len(reports)} constraint(s): {errors} error(s), "
            f"{warnings_} warning(s), {infos} info(s)"
        )
    failed = errors > 0 or (args.strict and warnings_ > 0)
    return 1 if failed else 0


def _cmd_analyze_deps(args: argparse.Namespace) -> int:
    """Emit the static update–constraint dependence matrix as JSON."""
    named_inputs = _named_lint_inputs(args.target)
    constraints: dict[str, Formula] = {}
    for index, (name, source) in enumerate(named_inputs):
        label = name or f"c{index}"
        if label in constraints:
            label = f"{label}_{index}"
        constraints[label] = parse(source)
    vocab = _parse_vocabulary_spec(args.vocabulary) if args.vocabulary else None
    index_ = UpdateDependencyIndex(constraints)
    payload = index_.to_dict()
    constraint_block = payload["constraints"]
    assert isinstance(constraint_block, dict)
    for label, formula in constraints.items():
        entry = constraint_block[label]
        entry["idle_class"] = idle_class(formula).value
        entry["static_verdict"] = static_verdict(formula)
    dead = list(index_.dead(vocab)) if vocab is not None else []
    unmonitored = list(index_.unmonitored(vocab)) if vocab is not None else []
    document = {
        "version": DEPS_JSON_VERSION,
        "constraints": payload["constraints"],
        "relations": payload["relations"],
        "vocabulary": (
            dict(sorted(vocab.predicates.items())) if vocab is not None else None
        ),
        "dead": dead,
        "unmonitored": unmonitored,
        "summary": {
            "constraints": len(constraints),
            "relations": len(index_.relations()),
            "dead": len(dead),
            "unmonitored": len(unmonitored),
        },
    }
    json.dump(document, sys.stdout, indent=2)
    print()
    if args.strict and (dead or unmonitored):
        return 1
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Emit the backend-dispatch plan of a constraint set as JSON.

    Each constraint is classified in the temporal hierarchy
    (:mod:`repro.analysis.hierarchy`), labelled with the backend the
    monitor runs it on (:func:`repro.core.plan.plan_constraints`), and
    vetted by the TIC13x lint passes — sharing one grounded analyzer so
    the TIC131 safety cross-check and TIC132 vacuity check ground the set
    once.
    """
    named_inputs = _named_lint_inputs(args.target)
    constraints: dict[str, Formula] = {}
    for index, (name, source) in enumerate(named_inputs):
        label = name or f"c{index}"
        if label in constraints:
            label = f"{label}_{index}"
        constraints[label] = parse(source)
    if not constraints:
        raise ReproError(f"no constraints found in {args.target!r}")
    plan = plan_constraints(constraints)
    named = tuple(constraints.items())
    analyzer = SetAnalyzer(constraints=named)
    errors = warnings_ = infos = 0
    constraint_block: dict[str, dict[str, object]] = {}
    for index, (label, formula) in enumerate(named):
        report = lint_formula(
            formula,
            mode="constraint",
            passes=hierarchy_passes(),
            constraint_set=named,
            set_index=index,
            analyzer=analyzer,
        )
        errors += len(report.errors)
        warnings_ += len(report.warnings)
        infos += len(report.infos)
        entry = plan[label]
        constraint_block[label] = {
            "hierarchy": entry.hierarchy,
            "backend": entry.backend,
            "lookahead": entry.lookahead,
            "reason": entry.reason,
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
    document = {
        "version": PLAN_JSON_VERSION,
        "constraints": constraint_block,
        "plan": plan.to_dict(),
        "summary": {
            "constraints": len(named),
            "by_class": dict(sorted(plan.by_class().items())),
            "by_backend": dict(sorted(plan.by_backend().items())),
            "error": errors,
            "warning": warnings_,
            "info": infos,
        },
    }
    json.dump(document, sys.stdout, indent=2)
    print()
    failed = errors > 0 or (args.strict and warnings_ > 0)
    return 1 if failed else 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    history = load_history(args.history)
    constraints = {
        f"c{index}": parse(text) for index, text in enumerate(args.constraint)
    }
    initial = History(
        vocabulary=history.vocabulary,
        states=history.states[:1],
        constant_bindings=history.constant_bindings,
    )
    monitor = IntegrityMonitor(
        constraints,
        initial,
        assume_safety=args.assume_safety,
    )
    for state in history.states[1:]:
        report = monitor.append_state(state)
        for name in report.new_violations:
            print(f"t={report.instant}: constraint {name!r} violated "
                  f"({constraints[name]})")
    violations = monitor.violations()
    if not violations:
        print(f"no violations in {len(history)} state(s)")
        return 0
    print(f"{len(violations)} constraint(s) violated")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    history = load_history(args.history)
    if args.resume_from:
        if args.constraint:
            print("--constraint conflicts with --resume-from: the "
                  "constraint set comes from the snapshot", file=sys.stderr)
            return 2
        service = MonitorService.load(args.resume_from)
        if service.now >= len(history) - 1:
            print(f"snapshot is already at instant {service.now}; "
                  "nothing left to replay")
        states = history.states[service.now + 1:]
    else:
        if not args.constraint:
            print("--constraint is required unless --resume-from is given",
                  file=sys.stderr)
            return 2
        constraints = {
            f"c{index}": parse(text)
            for index, text in enumerate(args.constraint)
        }
        initial = History(
            vocabulary=history.vocabulary,
            states=history.states[:1],
            constant_bindings=history.constant_bindings,
        )
        service = MonitorService(
            constraints,
            initial,
            shards=args.shards,
            assume_safety=args.assume_safety,
        )
        states = history.states[1:]
    names = {}
    if not args.resume_from:
        names = {f"c{i}": text for i, text in enumerate(args.constraint)}

    async def run() -> None:
        await service.start()
        try:
            for state in states:
                if args.stop_at is not None and service.now >= args.stop_at:
                    break
                report = await service.submit_state(
                    state, session=args.session
                )
                for name in report.new_violations:
                    source = f" ({names[name]})" if name in names else ""
                    print(f"t={report.instant}: constraint {name!r} "
                          f"violated{source}")
        finally:
            await service.stop()

    asyncio.run(run())
    if args.snapshot_out:
        service.save(args.snapshot_out)
        print(f"snapshot written to {args.snapshot_out} "
              f"(instant {service.now}, {service.shard_count} shard(s))")
    violations = service.violations()
    if not violations:
        print(f"no violations through instant {service.now}")
        return 0
    print(f"{len(violations)} constraint(s) violated")
    return 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    runner = experiments.RUNNERS.get(args.name.lower())
    if runner is None:
        print(f"unknown experiment {args.name!r}; available: "
              + ", ".join(sorted(experiments.RUNNERS)))
        return 2
    runner(fast=args.fast)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tic",
        description="Temporal integrity constraint checking "
        "(Chomicki & Niwinski, PODS 1993).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide potential satisfaction")
    check.add_argument("constraint", help="constraint in concrete syntax")
    check.add_argument("history", help="path to a history JSON file")
    check.add_argument("--method", choices=("buchi", "tableau"),
                       default="buchi")
    check.add_argument("--assume-safety", action="store_true")
    check.add_argument("--witness", action="store_true",
                       help="print a witness extension when satisfiable")
    check.set_defaults(func=_cmd_check)

    cls = sub.add_parser("classify", help="classify a formula")
    cls.add_argument("constraint")
    cls.add_argument("--json", action="store_true",
                     help="machine-readable classification report "
                     "(includes the temporal-hierarchy class and "
                     "dispatch backend)")
    cls.add_argument("--strict", action="store_true",
                     help="exit 1 when the formula is outside the "
                     "decidable universal-safety class")
    cls.set_defaults(func=_cmd_classify)

    lint = sub.add_parser(
        "lint",
        help="statically analyze constraints (diagnostics with paper "
        "pointers)",
    )
    lint.add_argument(
        "target",
        help="a constraint expression, or a path to a file with one "
        "constraint per line ('#' comments allowed)",
    )
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report (schema version "
                      f"{LINT_JSON_VERSION})")
    lint.add_argument("--strict", action="store_true",
                      help="also fail (exit 1) on warning-severity "
                      "diagnostics")
    lint.add_argument("--trigger", action="store_true",
                      help="lint as a trigger condition (duality rules) "
                      "instead of a constraint")
    lint.add_argument("--domain-size", type=int, default=8,
                      help="assumed |R_D| for the grounding cost "
                      "estimate (default 8)")
    lint.add_argument("--semantic", action="store_true",
                      help="also run the TIC100+ semantic passes "
                      "(kernel-backed unsatisfiability, validity, "
                      "safety, vacuity, redundancy, conflicts)")
    lint.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the semantic pairwise "
                      "sweep of a constraint set (1 = serial, 0 = one "
                      "per CPU)")
    lint.add_argument("--constraint-set", metavar="FILE",
                      help="with --trigger --semantic: file of monitored "
                      "constraints the trigger conditions are checked "
                      "against (TIC112 conflicts)")
    lint.add_argument("--deps", action="store_true",
                      help="also run the TIC12x dependence passes (dead "
                      "constraints, unmonitored relations, polarity "
                      "monotonicity, statically idle constraints)")
    lint.add_argument("--hierarchy", action="store_true",
                      help="also run the TIC13x temporal-hierarchy "
                      "passes (class report, safety cross-check, "
                      "retired vacuity, lookahead bound, dispatch "
                      "summary)")
    lint.add_argument("--vocabulary", metavar="SPEC",
                      help="database schema as 'Name:arity,Name:arity' — "
                      "enables the vocabulary-aware passes")
    lint.set_defaults(func=_cmd_lint)

    deps = sub.add_parser(
        "analyze-deps",
        help="emit the static update-constraint dependence matrix as JSON",
    )
    deps.add_argument(
        "target",
        help="a constraint expression, or a path to a file with one "
        "constraint per line ('#' comments allowed)",
    )
    deps.add_argument("--vocabulary", metavar="SPEC",
                      help="database schema as 'Name:arity,Name:arity' — "
                      "enables the dead/unmonitored reports")
    deps.add_argument("--strict", action="store_true",
                      help="exit 1 when dead constraints or unmonitored "
                      "relations are found (requires --vocabulary)")
    deps.set_defaults(func=_cmd_analyze_deps)

    plan = sub.add_parser(
        "plan",
        help="emit the temporal-hierarchy backend-dispatch plan of a "
        "constraint set as JSON",
    )
    plan.add_argument(
        "target",
        help="a constraint expression, or a path to a file with one "
        "constraint per line ('#' comments allowed)",
    )
    plan.add_argument("--strict", action="store_true",
                      help="also fail (exit 1) on warning-severity "
                      "diagnostics (e.g. TIC132 retired-at-birth)")
    plan.set_defaults(func=_cmd_plan)

    mon = sub.add_parser("monitor", help="replay a history through the "
                         "online monitor (compiled progression kernel, "
                         "bitset Büchi decisions)")
    mon.add_argument("history", help="path to a history JSON file")
    mon.add_argument("--constraint", action="append", required=True,
                     help="constraint (repeatable)")
    mon.add_argument("--assume-safety", action="store_true")
    mon.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="stream a history through the sharded monitor service "
        "with checkpoint/resume",
    )
    serve.add_argument("history", help="path to a history JSON file")
    serve.add_argument("--constraint", action="append", default=[],
                       help="constraint (repeatable; not allowed with "
                       "--resume-from)")
    serve.add_argument("--shards", type=_bounded_int(1), default=1,
                       help="max relation-disjoint constraint shards "
                       "(default 1)")
    serve.add_argument("--session", default="cli",
                       help="session name for the stream counters "
                       "(default 'cli')")
    serve.add_argument("--assume-safety", action="store_true")
    serve.add_argument("--stop-at", type=_bounded_int(0), metavar="T",
                       help="stop after instant T (simulates a kill; "
                       "combine with --snapshot-out)")
    serve.add_argument("--snapshot-out", metavar="PATH",
                       help="write a resumable service snapshot after "
                       "the replay (or after --stop-at)")
    serve.add_argument("--resume-from", metavar="PATH",
                       help="restore the service from a snapshot and "
                       "replay only the remaining states")
    serve.set_defaults(func=_cmd_serve)

    exp = sub.add_parser("experiment", help="run a paper-claim experiment")
    exp.add_argument("name", help="experiment id, e.g. e1 or a2")
    exp.add_argument("--fast", action="store_true",
                     help="smaller parameter sweep")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as error:
        print(f"syntax error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
