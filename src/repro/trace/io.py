"""Persistence of traces: generate once, replay everywhere.

Block traces and line-event traces are the expensive artefacts of the
pipeline.  Each is stored as an *entry directory*: a ``meta.json`` record
plus one raw ``.npy`` file per array, saved in the canonical replay
dtypes.  Loads open the members with ``mmap`` and return **read-only views
backed by the page cache** — no decompression, no copies, and every
process mapping the same entry shares the same physical pages.

An entry may carry a *cache key*: an opaque string recording what the
trace was derived from.  The persistent artifact cache
(:class:`repro.engine.store.TraceStore`) stamps every entry with its full
content key and passes ``expected_key`` on load, so a stale or colliding
entry raises :class:`~repro.errors.TraceError` instead of silently feeding
a wrong trace into an experiment.  Loaded arrays are marked non-writeable:
trace arrays are shared inputs (mmap'd files), and no engine tier may
mutate them.
"""

from __future__ import annotations

import json
import mmap
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.trace.events import LineEventTrace
from repro.trace.executor import BlockTrace

__all__ = [
    "save_events",
    "load_events",
    "save_block_trace",
    "load_block_trace",
]

#: The ``kind`` tag of each entry's meta record.  The ``-v2`` suffix names
#: the entry format (store format 2), so existing entries stay loadable.
_EVENTS_KIND = "repro-line-events-v2"
_BLOCKS_KIND = "repro-block-trace-v2"

#: Canonical member dtypes of an entry.  Saving normalises to these, so
#: loads hand the replay kernels mmap'd views directly — no ``.astype``
#: copies on the hot path.
_EVENT_MEMBERS: Tuple[Tuple[str, type], ...] = (
    ("line_addrs", np.int64),
    ("counts", np.int32),
    ("slots", np.int16),
)
_BLOCK_MEMBERS: Tuple[Tuple[str, type], ...] = (("uids", np.int32),)


def _read_only(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:
        array.setflags(write=False)
    return array


def _save_entry(
    entry: Path,
    kind: str,
    key: str,
    scalars: Dict[str, Any],
    members: Dict[str, np.ndarray],
) -> None:
    entry = Path(entry)
    entry.mkdir(parents=True, exist_ok=True)
    for name, array in members.items():
        np.save(entry / f"{name}.npy", array)
    meta = {"kind": kind, "cache_key": key, **scalars}
    (entry / "meta.json").write_text(json.dumps(meta, sort_keys=True))


def _load_meta(
    entry: Path, expected_kind: str, what: str, expected_key: Optional[str]
) -> Dict[str, Any]:
    try:
        meta = json.loads((entry / "meta.json").read_text())
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise TraceError(f"{entry} is missing its meta record") from exc
    except ValueError as exc:
        raise TraceError(f"{entry} has a corrupt meta record: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("kind") != expected_kind:
        raise TraceError(f"{entry} is not a {what} entry")
    if expected_key is not None and meta.get("cache_key", "") != expected_key:
        raise TraceError(
            f"{entry} was derived under a different key (stale cache entry)"
        )
    return meta


def _mmap_member(member: Path) -> Optional[np.ndarray]:
    """Map a 1-d ``.npy`` file read-only; ``None`` when the fast path can't.

    ``np.load(mmap_mode=...)`` constructs an ``np.memmap`` — ~90us of
    Python per member, which dominates a warm load.  Parsing the
    header and wrapping an ``mmap.mmap`` in ``np.frombuffer`` maps the
    same pages in a fraction of that, keeping warm loads a near-constant
    few file opens.  Raises ``FileNotFoundError``/``OSError`` like
    ``open``; returns ``None`` on format surprises (exotic ``.npy``
    version, object dtype, not 1-d) so the caller can fall back.
    """
    from numpy.lib import format as npy_format

    with open(member, "rb") as stream:
        version = npy_format.read_magic(stream)
        if version == (1, 0):
            shape, fortran, dtype = npy_format.read_array_header_1_0(stream)
        elif version == (2, 0):
            shape, fortran, dtype = npy_format.read_array_header_2_0(stream)
        else:
            return None
        if dtype.hasobject or len(shape) != 1:
            return None
        offset = stream.tell()
        buffer = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(buffer, dtype=dtype, count=shape[0], offset=offset)


def _load_member(entry: Path, name: str, dtype: type) -> np.ndarray:
    member = entry / f"{name}.npy"
    try:
        array = _mmap_member(member)
    except FileNotFoundError as exc:
        raise TraceError(f"{entry} is missing member {name}") from exc
    except ValueError:
        # Torn header, or a platform that cannot map this file.
        array = None
    if array is None:
        # Fall back to a plain load, which re-raises on genuinely corrupt
        # members; transient OSErrors keep propagating to the caller.
        try:
            array = np.load(member, allow_pickle=False)
        except ValueError as exc:
            raise TraceError(f"{entry} member {name} is corrupt: {exc}") from exc
    if array.dtype != np.dtype(dtype) or array.ndim != 1:
        raise TraceError(
            f"{entry} member {name} has dtype {array.dtype}/{array.ndim}d, "
            f"expected 1-d {np.dtype(dtype)}"
        )
    return _read_only(array)


def save_events(
    events: LineEventTrace, path: Union[str, Path], key: str = ""
) -> None:
    """Write a line-event trace as an mmap-able entry directory."""
    _save_entry(
        Path(path),
        _EVENTS_KIND,
        key,
        {"line_size": int(events.line_size)},
        {
            name: np.ascontiguousarray(getattr(events, name), dtype=dtype)
            for name, dtype in _EVENT_MEMBERS
        },
    )


def load_events(
    path: Union[str, Path], expected_key: Optional[str] = None
) -> LineEventTrace:
    """Read a line-event entry written by :func:`save_events` as read-only
    mmap'd views.

    ``expected_key`` (when given) must match the key the entry was saved
    with.  A mismatch, and any corrupt, missing or foreign entry, raises
    :class:`TraceError` so cache consumers re-derive; transient filesystem
    errors (e.g. permissions) propagate as :class:`OSError` so callers can
    keep the entry.
    """
    entry = Path(path)
    meta = _load_meta(entry, _EVENTS_KIND, "line-event trace", expected_key)
    try:
        line_size = int(meta["line_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{entry} has a corrupt line_size record") from exc
    arrays = {
        name: _load_member(entry, name, dtype) for name, dtype in _EVENT_MEMBERS
    }
    return LineEventTrace(line_size=line_size, **arrays)


def save_block_trace(
    trace: BlockTrace, path: Union[str, Path], key: str = ""
) -> None:
    """Write a block trace as an mmap-able entry directory."""
    _save_entry(
        Path(path),
        _BLOCKS_KIND,
        key,
        {
            "program_name": str(trace.program_name),
            "num_instructions": int(trace.num_instructions),
            "num_program_runs": int(trace.num_program_runs),
        },
        {
            name: np.ascontiguousarray(getattr(trace, name), dtype=dtype)
            for name, dtype in _BLOCK_MEMBERS
        },
    )


def load_block_trace(
    path: Union[str, Path], expected_key: Optional[str] = None
) -> BlockTrace:
    """Read a block-trace entry written by :func:`save_block_trace` as
    read-only mmap'd views.

    ``expected_key`` and error behaviour match :func:`load_events`.
    """
    entry = Path(path)
    meta = _load_meta(entry, _BLOCKS_KIND, "block-trace", expected_key)
    try:
        program_name = str(meta["program_name"])
        num_instructions = int(meta["num_instructions"])
        num_program_runs = int(meta["num_program_runs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{entry} has a corrupt scalar record") from exc
    return BlockTrace(
        program_name=program_name,
        uids=_load_member(entry, "uids", np.int32),
        num_instructions=num_instructions,
        num_program_runs=num_program_runs,
    )
