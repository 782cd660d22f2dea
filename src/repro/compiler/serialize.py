"""Program (de)serialization to JSON.

A compiled :class:`Program` is one column per command field, written as
a plain command list, so it round-trips losslessly through JSON.  This
decouples compilation from simulation -- compile once, archive the
program, replay it later or on another machine description (the
simulator only needs core counts to match).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from repro.compiler.program import CommandKind, Program, ProgramColumns

FORMAT_VERSION = 1

#: keys every command entry must carry (``layer`` and ``tag`` default to "")
_COMMAND_KEYS = ("cid", "core", "kind", "deps", "bytes", "macs", "cycles")
#: command keys whose value must be an int
_INT_KEYS = ("cid", "core", "bytes", "macs")


def _is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def program_to_dict(program: Program) -> Dict:
    """Plain-dict form of a program, read from its columns."""
    cols = program.columns()
    return {
        "format": "repro-program",
        "version": FORMAT_VERSION,
        "num_cores": program.num_cores,
        "commands": [
            {
                "cid": cid,
                "core": core,
                "kind": kind.value,
                "deps": list(deps),
                "bytes": num_bytes,
                "macs": macs,
                "cycles": cycles,
                "layer": layer,
                "tag": tag,
            }
            for cid, core, kind, deps, num_bytes, macs, cycles, layer, tag in zip(
                cols.cid, cols.core, cols.kind, cols.deps, cols.num_bytes,
                cols.macs, cols.cycles, cols.layer, cols.tag,
            )
        ],
    }


def program_from_dict(data: Dict) -> Program:
    """Rebuild a program; validates structure and content.

    Values are taken as written, never coerced: ``cid``, ``core``,
    ``bytes``, ``macs``, every ``deps`` entry and ``num_cores`` (at
    least 0) must be ints (bools refused), ``cycles`` a number and
    ``layer`` and ``tag`` (optional) strings, or a ``ValueError`` names
    the field and the command.  The program is made from the columns
    read (:meth:`ProgramColumns.of_fields`); no ``Command`` is built.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-program":
        raise ValueError("not a repro program document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported program format version {data.get('version')!r}"
        )
    num_cores = data.get("num_cores")
    if not _is_int(num_cores):
        raise ValueError(f"field 'num_cores' must be an int, got {num_cores!r}")
    if num_cores < 0:
        raise ValueError(f"field 'num_cores' must be >= 0, got {num_cores}")
    entries = data.get("commands")
    if not isinstance(entries, list):
        raise ValueError(f"field 'commands' must be a list, got {entries!r}")
    fields: List[List] = [[] for _ in range(9)]
    cids, cores, kinds, deps_of, num_bytes, macs, cycles_of, layers, tags = fields
    for pos, entry in enumerate(entries):
        where = f"command {pos}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        missing = [key for key in _COMMAND_KEYS if key not in entry]
        if missing:
            raise ValueError(f"{where}: missing field(s) {', '.join(map(repr, missing))}")
        for key in _INT_KEYS:
            if not _is_int(entry[key]):
                raise ValueError(f"{where}: field {key!r} must be an int, got {entry[key]!r}")
        deps = entry["deps"]
        if not isinstance(deps, list) or not all(map(_is_int, deps)):
            raise ValueError(f"{where}: field 'deps' must be a list of ints, got {deps!r}")
        cycles = entry["cycles"]
        if isinstance(cycles, bool) or not isinstance(cycles, (int, float)):
            raise ValueError(f"{where}: field 'cycles' must be a number, got {cycles!r}")
        try:
            kind = CommandKind(entry["kind"])
        except ValueError:
            raise ValueError(f"{where}: unknown kind {entry['kind']!r}") from None
        layer, tag = entry.get("layer", ""), entry.get("tag", "")
        for key, text in (("layer", layer), ("tag", tag)):
            if not isinstance(text, str):
                raise ValueError(f"{where}: field {key!r} must be a string, got {text!r}")
        cids.append(entry["cid"])
        cores.append(entry["core"])
        kinds.append(kind)
        deps_of.append(tuple(deps))
        num_bytes.append(entry["bytes"])
        macs.append(entry["macs"])
        cycles_of.append(float(cycles))
        layers.append(layer)
        tags.append(tag)
    program = Program._of_columns(num_cores, ProgramColumns.of_fields(*fields))
    program.validate()
    return program


def save_program(program: Program, path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(program_to_dict(program)))
    return path


def load_program(path: Union[str, pathlib.Path]) -> Program:
    return program_from_dict(json.loads(pathlib.Path(path).read_text()))
