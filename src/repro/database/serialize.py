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
each grounding's relevant set, no derived caches — and restoring a
progressed constraint is O(1) in the history length (DESIGN.md §12): no
reground, no prefix re-progression, no satisfiability call.  Past-closed
constraints are stored as their text only and rebuilt by replaying the
history through the history-less tables.  PTL remainders are serialized
*structurally* (:func:`ptl_to_jsonable`) and decoded through the raw node
constructors, which the hash-consing metaclass interns — so restored
remainders are pointer-identical to the ones an uninterrupted run holds,
and the monitor's identity-based fixed-point tests keep working across a
restart.  A live monitor holds its remainders as progression-kernel ids;
a save encodes them from the ids into the same tree, without building
the formula nodes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import FormulaError, StateError
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ptl.progkernel import ProgressionKernel

#: Format tag written into (and required from) monitor snapshots.
MONITOR_SNAPSHOT_FORMAT = "repro-monitor-snapshot/v6"


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
    from ..core.grounding import Anon, Placeholder

    if isinstance(element, bool):
        raise StateError(f"cannot serialize ground element {element!r}")
    if isinstance(element, int):
        return element
    if isinstance(element, Anon):
        return ["z", element.index]
    if isinstance(element, Placeholder):
        return ["p", element.index]
    raise StateError(f"cannot serialize ground element {element!r}")


def _element_from_jsonable(data: Any, where: str) -> Any:
    from ..core.grounding import Anon, Placeholder

    if isinstance(data, int) and not isinstance(data, bool):
        return data
    if (
        isinstance(data, (list, tuple))
        and len(data) == 2
        and data[0] in ("z", "p")
        and isinstance(data[1], int)
    ):
        return (Anon if data[0] == "z" else Placeholder)(data[1])
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
                _element_from_jsonable(arg, where)
                for arg in decode_list(data[2], where)
            ),
        )
    if tag == "eq" and len(data) == 3:
        return EqAtom(
            _element_from_jsonable(data[1], where),
            _element_from_jsonable(data[2], where),
        )
    raise StateError(f"{where}: malformed letter name {data!r}")


#: Each node tag's class and operand count (``None``: two or more),
#: shared by both decoders; the leaves, ``prop`` in a tree and ``rel`` in
#: a table's node list, are decoded apart.
_NODES: dict[str, tuple[type, int | None]] = {
    "true": (PTLTrue, 0),
    "false": (PTLFalse, 0),
    "not": (PNot, 1),
    "and": (PAnd, None),
    "or": (POr, None),
    "implies": (PImplies, 2),
    "next": (PNext, 1),
    "until": (PUntil, 2),
    "weakuntil": (PWeakUntil, 2),
    "release": (PRelease, 2),
    "eventually": (PEventually, 1),
    "always": (PAlways, 1),
}

#: The tag of each node class, shared by both encoders.
_TAGS: dict[type, str] = {
    Prop: "prop",
    **{cls: tag for tag, (cls, _count) in _NODES.items()},
}


def _node_from_parts(
    tag: Any, operands: list[PTLFormula], data: Any, where: str
) -> PTLFormula:
    """The interned node of ``tag`` over its decoded operands, built with
    the raw constructor; :class:`StateError` on an unknown tag or a wrong
    operand count."""
    spec = _NODES.get(tag) if isinstance(tag, str) else None
    if spec is None:
        raise StateError(f"{where}: unknown PTL node tag {tag!r:.60}")
    cls, count = spec
    if len(operands) < 2 if count is None else len(operands) != count:
        raise StateError(f"{where}: malformed PTL node {data!r:.60}")
    return cls(tuple(operands)) if count is None else cls(*operands)


def _jsonable_node(cls: type, parts: list[Any]) -> Any:
    """One tagged node: ``parts`` are the encoded operands, or the name of
    a letter."""
    tag = _TAGS.get(cls)
    if tag is None:
        raise StateError(f"cannot serialize PTL node of type {cls.__name__}")
    if cls is Prop:
        return [tag, _prop_name_to_jsonable(parts[0])]
    if cls is PAnd or cls is POr:
        return [tag, parts]
    return [tag, *parts]


def ptl_to_jsonable(formula: PTLFormula) -> Any:
    """One PTL formula as a JSON-ready tagged structure."""
    if isinstance(formula, Prop):
        return _jsonable_node(Prop, [formula.name])
    return _jsonable_node(
        type(formula), [ptl_to_jsonable(op) for op in formula.children]
    )


def ptl_from_jsonable(data: Any, where: str = "snapshot") -> PTLFormula:
    """Decode :func:`ptl_to_jsonable` output back to the interned node.

    Raw constructors throughout — hash consing returns the canonical
    object for each structure, so two processes decoding the same
    snapshot (or one process decoding what another encoded) end up with
    pointer-identical remainders.
    """
    if not isinstance(data, (list, tuple)) or not data:
        raise StateError(f"{where}: malformed PTL node {data!r:.60}")
    tag, parts = data[0], list(data[1:])
    if tag == "prop" and len(parts) == 1:
        return Prop(_prop_name_from_jsonable(parts[0], where))
    if tag in ("and", "or"):
        # An n-ary node holds its operands in one list.
        if len(parts) != 1:
            raise StateError(f"{where}: malformed PTL node {data!r:.60}")
        parts = decode_list(parts[0], where)
    return _node_from_parts(
        tag, [ptl_from_jsonable(part, where) for part in parts], data, where
    )


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


def _parse_constraint(text: str, where: str) -> Any:
    """Parse a snapshot's constraint text; :class:`StateError` naming
    ``where`` if it does not parse."""
    from ..logic import parse

    try:
        return parse(text)
    except FormulaError as exc:
        raise StateError(f"{where} does not parse: {exc}") from None


def _dag_node(
    kernel: "ProgressionKernel",
    oid: int,
    nodes: list[Any],
    index: dict[int, int],
) -> int:
    """The position of kernel id ``oid`` in a node list, appending it and
    its operands (operands first) if missing; read from the kernel's id
    tables, so no formula node is built."""
    from ..core.grounding import RelAtom

    stack = [oid]
    while stack:
        top = stack[-1]
        if top in index:
            stack.pop()
            continue
        cls, operands = kernel.node(top)
        missing = [op for op in operands if op not in index]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        if cls is Prop:
            letter = kernel.formula(top)
            assert isinstance(letter, Prop)
            atom = letter.name
            if not isinstance(atom, RelAtom):
                raise StateError(
                    f"cannot serialize table letter with name {atom!r}"
                )
            node = [
                "rel",
                atom.pred,
                *(_element_to_jsonable(arg) for arg in atom.args),
            ]
        else:
            tag = _TAGS.get(cls)
            if tag is None:
                raise StateError(
                    f"cannot serialize PTL node of type {cls.__name__}"
                )
            node = [tag, *(index[op] for op in operands)]
        index[top] = len(nodes)
        nodes.append(node)
    return index[oid]


def _nodes_from_jsonable(data: Any, where: str) -> list[PTLFormula]:
    """Decode a table's node list: each node names earlier ones by
    position, and is built with the raw constructors (so interned)."""
    from ..core.grounding import RelAtom

    nodes: list[PTLFormula] = []
    for node in decode_list(data, f"{where}: 'nodes'"):
        if not isinstance(node, list) or not node:
            raise StateError(f"{where}: malformed node {node!r:.60}")
        tag, args = node[0], node[1:]
        if tag == "rel" and args and isinstance(args[0], str):
            nodes.append(
                Prop(
                    RelAtom(
                        args[0],
                        tuple(
                            _element_from_jsonable(arg, where)
                            for arg in args[1:]
                        ),
                    )
                )
            )
            continue
        if not all(type(arg) is int and 0 <= arg < len(nodes) for arg in args):
            raise StateError(f"{where}: malformed node {node!r:.60}")
        nodes.append(
            _node_from_parts(tag, [nodes[arg] for arg in args], node, where)
        )
    return nodes


def _rows_to_jsonable(
    kernel: "ProgressionKernel",
    rows: Any,
    nodes: list[Any],
    index: dict[int, int],
) -> list[Any]:
    """Table rows in canonical order: tuples sorted, rows by their first
    tuple, and each state's nodes appended in that order."""
    from ..core.lifted import tuple_key

    ordered = sorted(
        ((sorted(tuples, key=tuple_key), oid) for oid, tuples in rows),
        key=lambda row: tuple_key(row[0][0]),
    )
    return [
        [
            _dag_node(kernel, oid, nodes, index),
            [[_element_to_jsonable(value) for value in t] for t in tuples],
        ]
        for tuples, oid in ordered
    ]


def _rows_from_jsonable(
    data: Any,
    nodes: list[PTLFormula],
    kernel: "ProgressionKernel",
    where: str,
) -> tuple[Any, ...]:
    """Decode table rows into (id of ``kernel``, tuples) pairs."""
    rows = []
    for row in decode_list(data, where):
        if (
            not isinstance(row, list)
            or len(row) != 2
            or type(row[0]) is not int
            or not 0 <= row[0] < len(nodes)
        ):
            raise StateError(f"{where}: malformed row {row!r:.60}")
        tuples = tuple(
            tuple(
                _element_from_jsonable(value, where)
                for value in decode_list(values, where)
            )
            for values in decode_list(row[1], where)
        )
        rows.append((kernel.intern(nodes[row[0]]), tuples))
    return tuple(rows)


def _entry_to_jsonable(snap: Any) -> dict[str, Any]:
    """One entry: its table's states once each, as a node list, and its
    rows in canonical order, so a load-then-save writes the same bytes."""
    from ..logic import to_str

    nodes: list[Any] = []
    index: dict[int, int] = {}
    states = _rows_to_jsonable(snap.kernel, snap.states, nodes, index)
    witnesses = _rows_to_jsonable(snap.kernel, snap.witnesses, nodes, index)
    return {
        "name": snap.name,
        "constraint": to_str(snap.constraint),
        "relevant": sorted(snap.relevant),
        "violated_at": snap.violated_at,
        "stats": snap.stats.as_dict(),
        "nodes": nodes,
        "states": states,
        "witnesses": witnesses,
    }


def _entry_from_jsonable(
    data: Any, history: History, kernel: "ProgressionKernel"
) -> Any:
    """Decode one snapshot entry of a monitor over ``history``, its
    states interned into ``kernel``."""
    from ..core.monitor import EntrySnapshot

    if not isinstance(data, Mapping):
        raise StateError(
            f"snapshot entry must be an object, got {type(data).__name__}"
        )
    now = history.now
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise StateError(f"snapshot entry name must be a string: {name!r}")
        where = f"snapshot entry {name!r}"
        if not isinstance(data["constraint"], str):
            raise StateError(f"{where}: 'constraint' must be a string")
        violated_at = data["violated_at"]
        if violated_at is not None and not (
            type(violated_at) is int and 0 <= violated_at <= now
        ):
            raise StateError(
                f"{where}: 'violated_at' must be null or an instant in "
                f"[0, {now}], got {violated_at!r:.60}"
            )
        constraint = _parse_constraint(
            data["constraint"], f"{where}: 'constraint'"
        )
        nodes = _nodes_from_jsonable(data["nodes"], where)
        bindings = history.constant_bindings
        return EntrySnapshot(
            name=name,
            constraint=constraint,
            relevant=frozenset(
                decode_list(data["relevant"], f"{where}: 'relevant'", int)
            ),
            constants=frozenset(
                bindings[constant.name]
                for constant in constraint.constants()
                if constant.name in bindings
            ),
            kernel=kernel,
            states=_rows_from_jsonable(
                data["states"], nodes, kernel, f"{where}: 'states'"
            ),
            witnesses=_rows_from_jsonable(
                data["witnesses"], nodes, kernel, f"{where}: 'witnesses'"
            ),
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

    The snapshot holds the settings, the registration ``order``, the
    text of every past-closed constraint (``past``) and, per progressed
    constraint, the progressed remainder and its grounding's relevant
    set (``entries``) — everything
    :meth:`repro.core.IntegrityMonitor.from_snapshot` needs to resume
    with verdicts identical to an uninterrupted run.  Each constraint
    text is written once.  Derived caches are deliberately not
    persisted; see :class:`repro.core.EntrySnapshot`.
    ``with_history=False`` leaves the history out, for a container that
    stores one copy for all its monitors and hands it back to
    :func:`monitor_from_dict`.
    """
    from ..logic import to_str

    entries = monitor.snapshot_entries()
    progressed = {snap.name for snap in entries}
    data: dict[str, Any] = {
        "format": MONITOR_SNAPSHOT_FORMAT,
        "config": monitor.snapshot_config(),
        "order": list(monitor.constraints),
        "past": {
            name: to_str(formula)
            for name, formula in monitor.constraints.items()
            if name not in progressed
        },
        "entries": [_entry_to_jsonable(snap) for snap in entries],
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
    from ..ptl.progkernel import ProgressionKernel

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
    if "assume_safety" not in config:
        raise StateError(
            "monitor snapshot config is missing the 'assume_safety' key"
        )
    if type(config["assume_safety"]) is not bool:
        raise StateError(
            "monitor snapshot config 'assume_safety' must be a bool, got "
            f"{config['assume_safety']!r:.60}"
        )
    try:
        order = decode_list(data["order"], "monitor snapshot 'order'", str)
        past = decode_mapping(data["past"], "monitor snapshot 'past'")
        raw_entries = decode_list(
            data["entries"], "monitor snapshot 'entries'"
        )
    except KeyError as exc:
        raise StateError(
            f"monitor snapshot is missing the {exc.args[0]!r} key"
        ) from None
    for name, text in past.items():
        if not isinstance(text, str):
            raise StateError(
                f"monitor snapshot past constraint {name!r} must be a string"
            )
    if history is None:
        if "history" not in data:
            raise StateError("monitor snapshot is missing the 'history' key")
        history = history_from_dict(data["history"])
    # The decoded states are interned into the kernel the restored monitor
    # adopts as its own.
    kernel = ProgressionKernel()
    return IntegrityMonitor.from_snapshot(
        history,
        order,
        {
            name: _parse_constraint(
                text, f"monitor snapshot past constraint {name!r}"
            )
            for name, text in past.items()
        },
        [
            _entry_from_jsonable(entry, history, kernel)
            for entry in raw_entries
        ],
        assume_safety=config["assume_safety"],
    )
