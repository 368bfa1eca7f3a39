"""JSON serialization of vocabularies, histories, lassos — and monitors.

The on-disk format is deliberately plain so histories can be produced by
other tools and checked from the CLI (``repro-tic check``)::

    {
      "vocabulary": {"predicates": {"Sub": 1, "Fill": 1}, "constants": ["vip"]},
      "constant_bindings": {"vip": 7},
      "states": [
        {"Sub": [[1]]},
        {"Sub": [[1], [2]], "Fill": [[1]]}
      ]
    }

Malformed input fails loud and early: every decoder validates against the
vocabulary and raises :class:`repro.errors.StateError` naming the offending
relation and state, never a bare ``KeyError``/``TypeError`` — a corrupt
checkpoint must be distinguishable from a library bug.

**Monitor snapshots.** :func:`monitor_to_dict` / :func:`monitor_from_dict`
serialize a whole :class:`repro.core.IntegrityMonitor` mid-history.  The
paper's Lemma 4.2 loop keeps the progressed remainder as the only
history-dependent state, so the snapshot is small — remainders plus
grounding bookkeeping, no derived caches — and restoring is O(1) in the
history length (DESIGN.md §12): no reground, no prefix re-progression, no
satisfiability call.  PTL remainders are serialized *structurally*
(:func:`ptl_to_jsonable`) and decoded through the raw node constructors,
which the hash-consing metaclass interns — so restored remainders are
pointer-identical to the ones an uninterrupted run holds, and the
monitor's identity-based fixed-point tests keep working across a restart.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..errors import StateError
from ..ptl.formulas import (
    PAlways,
    PAnd,
    PEventually,
    PImplies,
    PNext,
    PNot,
    POr,
    PRelease,
    PTLFalse,
    PTLFormula,
    PTLTrue,
    PUntil,
    PWeakUntil,
    Prop,
)
from .history import History
from .lasso import LassoDatabase
from .state import DatabaseState
from .vocabulary import Vocabulary

#: Format tag written into (and required from) monitor snapshots.
MONITOR_SNAPSHOT_FORMAT = "repro-monitor-snapshot/v3"


def vocabulary_to_dict(vocabulary: Vocabulary) -> dict[str, Any]:
    return {
        "predicates": dict(vocabulary.predicates),
        "constants": sorted(vocabulary.constant_symbols),
    }


def vocabulary_from_dict(data: dict[str, Any]) -> Vocabulary:
    if not isinstance(data, Mapping):
        raise StateError(
            f"serialized vocabulary must be an object, got {type(data).__name__}"
        )
    predicates = data.get("predicates", {})
    if not isinstance(predicates, Mapping):
        raise StateError("serialized vocabulary 'predicates' must be an object")
    for pred, arity in predicates.items():
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise StateError(
                f"serialized vocabulary: relation {pred!r} declares "
                f"invalid arity {arity!r}"
            )
    return Vocabulary(
        predicates=dict(predicates),
        constant_symbols=frozenset(data.get("constants", ())),
    )


def state_to_dict(state: DatabaseState) -> dict[str, Any]:
    return {
        pred: sorted(list(args) for args in tuples)
        for pred, tuples in sorted(state.relations.items())
    }


def state_from_dict(
    vocabulary: Vocabulary, data: dict[str, Any], *, where: str = "state"
) -> DatabaseState:
    """Decode one state, validating every relation against the vocabulary.

    ``where`` names the state in error messages (``history_from_dict``
    passes the state index), so a corrupt checkpoint reports *which*
    instant and relation is broken instead of surfacing a bare
    ``KeyError`` from deep inside the vocabulary.
    """
    if not isinstance(data, Mapping):
        raise StateError(
            f"{where}: a serialized state must be an object mapping "
            f"relation names to rows, got {type(data).__name__}"
        )
    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    for pred, rows in data.items():
        arity = vocabulary.predicates.get(pred)
        if arity is None:
            raise StateError(
                f"{where}: relation {pred!r} is not in the vocabulary "
                f"(declared relations: {sorted(vocabulary.predicates)})"
            )
        if isinstance(rows, (str, bytes)) or not isinstance(rows, (list, tuple)):
            raise StateError(
                f"{where}: relation {pred!r} must map to a list of rows, "
                f"got {type(rows).__name__}"
            )
        decoded: list[tuple[int, ...]] = []
        for row in rows:
            if isinstance(row, (str, bytes)) or not isinstance(
                row, (list, tuple)
            ):
                raise StateError(
                    f"{where}: relation {pred!r} rows must be lists of "
                    f"element ids, got {row!r}"
                )
            args = tuple(row)
            if len(args) != arity:
                raise StateError(
                    f"{where}: relation {pred!r} has arity {arity}, "
                    f"got {len(args)} argument(s) in row {list(row)!r}"
                )
            for value in args:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise StateError(
                        f"{where}: relation {pred!r} has non-integer "
                        f"element {value!r} in row {list(row)!r}"
                    )
            decoded.append(args)
        relations[pred] = frozenset(decoded)
    return DatabaseState(vocabulary=vocabulary, relations=relations)


def history_to_dict(history: History) -> dict[str, Any]:
    return {
        "vocabulary": vocabulary_to_dict(history.vocabulary),
        "constant_bindings": dict(history.constant_bindings),
        "states": [state_to_dict(state) for state in history.states],
    }


def history_from_dict(data: dict[str, Any]) -> History:
    if not isinstance(data, Mapping):
        raise StateError(
            f"a serialized history must be an object, got {type(data).__name__}"
        )
    if "vocabulary" not in data:
        raise StateError("serialized history is missing the 'vocabulary' key")
    vocabulary = vocabulary_from_dict(data["vocabulary"])
    raw_states = data.get("states")
    if not isinstance(raw_states, (list, tuple)):
        raise StateError(
            "serialized history 'states' must be a list of state objects"
        )
    states = tuple(
        state_from_dict(vocabulary, entry, where=f"state {index}")
        for index, entry in enumerate(raw_states)
    )
    if not states:
        raise StateError("serialized history has no states")
    return History(
        vocabulary=vocabulary,
        states=states,
        constant_bindings=dict(data.get("constant_bindings", {})),
    )


def lasso_to_dict(lasso: LassoDatabase) -> dict[str, Any]:
    return {
        "vocabulary": vocabulary_to_dict(lasso.vocabulary),
        "constant_bindings": dict(lasso.constant_bindings),
        "stem": [state_to_dict(state) for state in lasso.stem],
        "loop": [state_to_dict(state) for state in lasso.loop],
    }


def lasso_from_dict(data: dict[str, Any]) -> LassoDatabase:
    vocabulary = vocabulary_from_dict(data["vocabulary"])
    return LassoDatabase(
        vocabulary=vocabulary,
        stem=tuple(
            state_from_dict(vocabulary, entry, where=f"stem state {index}")
            for index, entry in enumerate(data["stem"])
        ),
        loop=tuple(
            state_from_dict(vocabulary, entry, where=f"loop state {index}")
            for index, entry in enumerate(data["loop"])
        ),
        constant_bindings=dict(data.get("constant_bindings", {})),
    )


def dump_history(history: History, path: str) -> None:
    """Write a history to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history_to_dict(history), handle, indent=2, sort_keys=True)


def load_history(path: str) -> History:
    """Read a history from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return history_from_dict(json.load(handle))


# --------------------------------------------------------------------------
# PTL structural codec
# --------------------------------------------------------------------------
#
# Remainders are serialized as tagged JSON arrays and decoded through the
# *raw* node constructors (``PAnd``, ``PNot``, ...), never the smart
# constructors: the interning metaclass conses raw constructions too, so
# decoding yields the canonical interned node for each structure — which
# is exactly what the progression kernel materializes — while the smart
# constructors would additionally simplify and could change the shape the
# snapshot recorded.


def _element_to_jsonable(element: object) -> Any:
    # Local import: repro.core imports this package at module load.
    from ..core.grounding import Anon

    if isinstance(element, bool):
        raise StateError(f"cannot serialize ground element {element!r}")
    if isinstance(element, int):
        return element
    if isinstance(element, Anon):
        return ["z", element.index]
    raise StateError(f"cannot serialize ground element {element!r}")


def _element_from_jsonable(data: Any, where: str) -> Any:
    from ..core.grounding import Anon

    if isinstance(data, int) and not isinstance(data, bool):
        return data
    if (
        isinstance(data, (list, tuple))
        and len(data) == 2
        and data[0] == "z"
        and isinstance(data[1], int)
    ):
        return Anon(data[1])
    raise StateError(f"{where}: malformed ground element {data!r}")


def _prop_name_to_jsonable(name: object) -> Any:
    from ..core.grounding import EqAtom, RelAtom

    if isinstance(name, str):
        return ["s", name]
    if isinstance(name, RelAtom):
        return [
            "rel",
            name.pred,
            [_element_to_jsonable(arg) for arg in name.args],
        ]
    if isinstance(name, EqAtom):
        return [
            "eq",
            _element_to_jsonable(name.left),
            _element_to_jsonable(name.right),
        ]
    raise StateError(
        f"cannot serialize propositional letter with name {name!r} "
        f"({type(name).__name__}); snapshots support string, relational "
        "and equality letters"
    )


def _prop_name_from_jsonable(data: Any, where: str) -> Any:
    from ..core.grounding import EqAtom, RelAtom

    if not isinstance(data, (list, tuple)) or not data:
        raise StateError(f"{where}: malformed letter name {data!r}")
    tag = data[0]
    if tag == "s" and len(data) == 2 and isinstance(data[1], str):
        return data[1]
    if tag == "rel" and len(data) == 3 and isinstance(data[1], str):
        return RelAtom(
            data[1],
            tuple(
                _element_from_jsonable(arg, where) for arg in data[2]
            ),
        )
    if tag == "eq" and len(data) == 3:
        return EqAtom(
            _element_from_jsonable(data[1], where),
            _element_from_jsonable(data[2], where),
        )
    raise StateError(f"{where}: malformed letter name {data!r}")


def ptl_to_jsonable(formula: PTLFormula) -> Any:
    """One PTL formula as a JSON-ready tagged structure."""
    if isinstance(formula, PTLTrue):
        return ["true"]
    if isinstance(formula, PTLFalse):
        return ["false"]
    if isinstance(formula, Prop):
        return ["prop", _prop_name_to_jsonable(formula.name)]
    if isinstance(formula, PNot):
        return ["not", ptl_to_jsonable(formula.operand)]
    if isinstance(formula, PAnd):
        return ["and", [ptl_to_jsonable(op) for op in formula.operands]]
    if isinstance(formula, POr):
        return ["or", [ptl_to_jsonable(op) for op in formula.operands]]
    if isinstance(formula, PImplies):
        return [
            "implies",
            ptl_to_jsonable(formula.antecedent),
            ptl_to_jsonable(formula.consequent),
        ]
    if isinstance(formula, PNext):
        return ["next", ptl_to_jsonable(formula.body)]
    if isinstance(formula, PUntil):
        return [
            "until",
            ptl_to_jsonable(formula.left),
            ptl_to_jsonable(formula.right),
        ]
    if isinstance(formula, PWeakUntil):
        return [
            "weakuntil",
            ptl_to_jsonable(formula.left),
            ptl_to_jsonable(formula.right),
        ]
    if isinstance(formula, PRelease):
        return [
            "release",
            ptl_to_jsonable(formula.left),
            ptl_to_jsonable(formula.right),
        ]
    if isinstance(formula, PEventually):
        return ["eventually", ptl_to_jsonable(formula.body)]
    if isinstance(formula, PAlways):
        return ["always", ptl_to_jsonable(formula.body)]
    raise StateError(
        f"cannot serialize PTL node of type {type(formula).__name__}"
    )


def ptl_from_jsonable(data: Any, where: str = "snapshot") -> PTLFormula:
    """Decode :func:`ptl_to_jsonable` output back to the interned node.

    Raw constructors throughout — hash consing returns the canonical
    object for each structure, so two processes decoding the same
    snapshot (or one process decoding what another encoded) end up with
    pointer-identical remainders.
    """
    if not isinstance(data, (list, tuple)) or not data:
        raise StateError(f"{where}: malformed PTL node {data!r}")
    tag = data[0]
    try:
        if tag == "true":
            return PTLTrue()
        if tag == "false":
            return PTLFalse()
        if tag == "prop":
            return Prop(_prop_name_from_jsonable(data[1], where))
        if tag == "not":
            return PNot(ptl_from_jsonable(data[1], where))
        if tag == "and":
            return PAnd(
                tuple(ptl_from_jsonable(op, where) for op in data[1])
            )
        if tag == "or":
            return POr(
                tuple(ptl_from_jsonable(op, where) for op in data[1])
            )
        if tag == "implies":
            return PImplies(
                ptl_from_jsonable(data[1], where),
                ptl_from_jsonable(data[2], where),
            )
        if tag == "next":
            return PNext(ptl_from_jsonable(data[1], where))
        if tag == "until":
            return PUntil(
                ptl_from_jsonable(data[1], where),
                ptl_from_jsonable(data[2], where),
            )
        if tag == "weakuntil":
            return PWeakUntil(
                ptl_from_jsonable(data[1], where),
                ptl_from_jsonable(data[2], where),
            )
        if tag == "release":
            return PRelease(
                ptl_from_jsonable(data[1], where),
                ptl_from_jsonable(data[2], where),
            )
        if tag == "eventually":
            return PEventually(ptl_from_jsonable(data[1], where))
        if tag == "always":
            return PAlways(ptl_from_jsonable(data[1], where))
    except (IndexError, TypeError, ValueError) as exc:
        raise StateError(
            f"{where}: malformed PTL node {data!r}: {exc}"
        ) from None
    raise StateError(f"{where}: unknown PTL node tag {tag!r}")


# --------------------------------------------------------------------------
# Monitor snapshots
# --------------------------------------------------------------------------


def decode_list(data: Any, where: str, item: type | None = None) -> list[Any]:
    """``data`` as a list whose items, given ``item``, all have exactly
    that type (so ``true`` is no integer); :class:`StateError` naming
    ``where`` otherwise."""
    if not isinstance(data, (list, tuple)):
        raise StateError(f"{where} must be a list, got {data!r:.60}")
    if item is not None:
        for value in data:
            if type(value) is not item:
                raise StateError(
                    f"{where} must hold only {item.__name__} values, "
                    f"got {value!r:.60}"
                )
    return list(data)


def decode_mapping(data: Any, where: str) -> Mapping[str, Any]:
    """``data`` as a JSON object; :class:`StateError` naming ``where``
    otherwise."""
    if not isinstance(data, Mapping):
        raise StateError(f"{where} must be an object, got {data!r:.60}")
    return data


def stats_from_jsonable(data: Any, where: str) -> Any:
    """Decode a :class:`repro.core.MonitorStats` object, each known
    counter typed like its default (so a bad one cannot fail a later
    update half-way)."""
    from ..core.monitor import MonitorStats

    decode_mapping(data, where)
    for name, default in vars(MonitorStats()).items():
        if name not in data:
            continue
        value = data[name]
        if isinstance(default, dict):
            ok = isinstance(value, Mapping) and all(
                isinstance(key, str) and type(count) is int
                for key, count in value.items()
            )
        elif isinstance(default, float):
            ok = type(value) in (int, float)
        else:
            ok = type(value) is int
        if not ok:
            raise StateError(
                f"{where}: counter {name!r} has the wrong type: {value!r:.60}"
            )
    return MonitorStats.from_dict(data)


def _entry_to_jsonable(snap: Any) -> dict[str, Any]:
    from ..logic import to_str

    return {
        "name": snap.name,
        "constraint": to_str(snap.constraint),
        "backend": snap.backend,
        "remainder": ptl_to_jsonable(snap.remainder),
        "relevant": sorted(snap.relevant),
        "known_elements": sorted(snap.known_elements),
        "spare_pool": list(snap.spare_pool),
        "spare_map": sorted(snap.spare_map.items()),
        "violated_at": snap.violated_at,
        "stats": snap.stats.as_dict(),
    }


def _entry_from_jsonable(data: Any, now: int) -> Any:
    """Decode one snapshot entry of a monitor whose history ends at
    instant ``now``."""
    from ..core.monitor import EntrySnapshot
    from ..logic import parse

    if not isinstance(data, Mapping):
        raise StateError(
            f"snapshot entry must be an object, got {type(data).__name__}"
        )
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise StateError(f"snapshot entry name must be a string: {name!r}")
        where = f"snapshot entry {name!r}"
        for key in ("constraint", "backend"):
            if not isinstance(data[key], str):
                raise StateError(f"{where}: {key!r} must be a string")
        spare_map = decode_list(data["spare_map"], f"{where}: 'spare_map'")
        if any(
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or any(type(element) is not int for element in pair)
            for pair in spare_map
        ):
            raise StateError(
                f"{where}: 'spare_map' must hold [element, spare] integer "
                "pairs"
            )
        violated_at = data["violated_at"]
        if violated_at is not None and not (
            type(violated_at) is int and 0 <= violated_at <= now
        ):
            raise StateError(
                f"{where}: 'violated_at' must be null or an instant in "
                f"[0, {now}], got {violated_at!r:.60}"
            )
        return EntrySnapshot(
            name=name,
            constraint=parse(data["constraint"]),
            backend=data["backend"],
            remainder=ptl_from_jsonable(data["remainder"], where),
            relevant=frozenset(
                decode_list(data["relevant"], f"{where}: 'relevant'", int)
            ),
            known_elements=frozenset(
                decode_list(
                    data["known_elements"], f"{where}: 'known_elements'", int
                )
            ),
            spare_pool=tuple(
                decode_list(data["spare_pool"], f"{where}: 'spare_pool'", int)
            ),
            spare_map=dict(spare_map),
            violated_at=violated_at,
            stats=stats_from_jsonable(data["stats"], f"{where}: 'stats'"),
        )
    except KeyError as missing:
        raise StateError(
            f"snapshot entry is missing the {missing.args[0]!r} key"
        ) from None


def monitor_to_dict(
    monitor: Any, with_history: bool = True
) -> dict[str, Any]:
    """Serialize a running :class:`repro.core.IntegrityMonitor`.

    The snapshot holds the monitored history plus, per constraint, the
    progressed remainder and the grounding/strategy bookkeeping —
    everything :meth:`repro.core.IntegrityMonitor.from_snapshot` needs to
    resume with verdicts identical to an uninterrupted run.  Derived
    caches are deliberately not persisted; see
    :class:`repro.core.EntrySnapshot`.  ``with_history=False`` leaves
    the history out, for a container that stores one copy for all its
    monitors and hands it back to :func:`monitor_from_dict`.
    """
    data: dict[str, Any] = {
        "format": MONITOR_SNAPSHOT_FORMAT,
        "config": monitor.snapshot_config(),
        "entries": [
            _entry_to_jsonable(snap) for snap in monitor.snapshot_entries()
        ],
    }
    if with_history:
        data["history"] = history_to_dict(monitor.history)
    return data


def monitor_from_dict(
    data: dict[str, Any], history: History | None = None
) -> Any:
    """Inverse of :func:`monitor_to_dict`: rebuild the monitor, resumed.

    Validates the format tag and config before touching any entry, so a
    checkpoint from a different format (or a truncated file) fails with
    :class:`repro.errors.StateError` instead of an attribute error
    mid-restore.  A given ``history`` is used as it is, in place of the
    document's own.
    """
    from ..core.monitor import IntegrityMonitor

    if not isinstance(data, Mapping):
        raise StateError(
            f"a monitor snapshot must be an object, got {type(data).__name__}"
        )
    fmt = data.get("format")
    if fmt != MONITOR_SNAPSHOT_FORMAT:
        raise StateError(
            f"unsupported monitor snapshot format {fmt!r} "
            f"(expected {MONITOR_SNAPSHOT_FORMAT!r})"
        )
    config = data.get("config")
    if not isinstance(config, Mapping):
        raise StateError("monitor snapshot is missing its 'config' object")
    required = {"assume_safety": bool, "strategy": str, "spare": int}
    for key, kind in required.items():
        if key not in config:
            raise StateError(
                f"monitor snapshot config is missing the {key!r} key"
            )
        if type(config[key]) is not kind:
            raise StateError(
                f"monitor snapshot config {key!r} must be a "
                f"{kind.__name__}, got {config[key]!r:.60}"
            )
    if history is None:
        if "history" not in data:
            raise StateError("monitor snapshot is missing the 'history' key")
        history = history_from_dict(data["history"])
    entries = [
        _entry_from_jsonable(entry, history.now)
        for entry in decode_list(
            data.get("entries", []), "monitor snapshot 'entries'"
        )
    ]
    return IntegrityMonitor.from_snapshot(
        history,
        entries,
        assume_safety=config["assume_safety"],
        strategy=config["strategy"],
        spare=config["spare"],
    )


def dump_monitor(monitor: Any, path: str) -> None:
    """Write a monitor snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(monitor_to_dict(monitor), handle, sort_keys=True)


def load_monitor(path: str) -> Any:
    """Read a monitor snapshot from a JSON file and restore the monitor."""
    with open(path, "r", encoding="utf-8") as handle:
        return monitor_from_dict(json.load(handle))
