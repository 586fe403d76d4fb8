"""Append-only checkpoint journal for sweep cells and streamed tiles.

A city-scale sweep is hours of work; a SIGKILL (preemption, OOM, operator)
must not throw it away.  The journal records every completed cell as one
JSONL line keyed by the cell's *content fingerprint* — a SHA-256 over the
workload profile, seed, evaluator identities and the result-determining
fields of the cell's :class:`~repro.context.RunContext` — so a restarted
run with ``--resume`` replays exactly the cells whose inputs are unchanged
and recomputes everything else.  Because every evaluator is a pure
function of those inputs, a replayed result is bit-identical to a
recomputed one, and a resumed sweep's figure output is byte-identical to
an uninterrupted run's (enforced by the crash-resume CI smoke job).

Format (one JSON object per line)::

    {"kind": "header", "version": 1}
    {"kind": "cell", "key": "<sha256 hex>", "data": "<base64 pickle>"}

Crash tolerance: each append is flushed and fsynced, and the loader
ignores a truncated or corrupt final line, so a journal written up to the
moment of a ``kill -9`` loads cleanly.  Only the dispatching process
writes; workers never touch the journal.

``--journal PATH`` without ``--resume`` starts the journal fresh (the
file is truncated on the first open of the process); with ``--resume``
existing entries are loaded and replayed.  Cells that cannot be
fingerprinted — callable evaluators, whose identity the journal cannot
capture — always run live and are never recorded.
"""

from __future__ import annotations

import atexit
import base64
import hashlib
import json
import os
import pickle
from typing import Any, Dict, IO, Optional, Tuple

from repro.context import RunContext

__all__ = ["Journal", "context_fingerprint", "fingerprint", "journal_for"]

_JOURNAL_VERSION = 1

#: RunContext fields that determine results.  Runtime knobs (retry/timeout
#: config, the journal settings themselves), telemetry, tracing and cache
#: capacities are deliberately excluded: they change how a run executes or
#: reports, never what it computes, so a resumed run may replay cells
#: recorded under different values of them.
_RESULT_FIELDS: Tuple[str, ...] = (
    "reference",
    "lp_backend",
    "lp_fallback_backends",
    "seed",
    "shards",
)


def context_fingerprint(context: RunContext) -> Tuple[Any, ...]:
    """The result-determining slice of a context, as a hashable tuple."""
    return tuple(
        (name, getattr(context, name)) for name in _RESULT_FIELDS
    )


def fingerprint(*parts: Any) -> str:
    """SHA-256 over the canonical repr of ``parts``.

    Every part must have a deterministic ``repr`` (frozen dataclasses of
    primitives, tuples, strings, numbers) — the callers build keys only
    from such values.
    """
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class Journal:
    """One append-only JSONL checkpoint file.

    :param path: journal location.
    :param resume: load existing entries for replay; when ``False`` the
        file is truncated and started fresh.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        self._entries: Dict[str, bytes] = {}
        if resume and os.path.exists(path):
            self._load(path)
        self._handle: IO[str] = open(path, "a" if resume else "w")
        if not resume or os.path.getsize(path) == 0:
            self._append({"kind": "header", "version": _JOURNAL_VERSION})

    def _load(self, path: str) -> None:
        """Read every parseable entry; tolerate a torn final line."""
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves at most one torn line;
                    # anything before it already hit the disk fsynced.
                    continue
                if entry.get("kind") != "cell":
                    continue
                key = entry.get("key")
                data = entry.get("data")
                if not isinstance(key, str) or not isinstance(data, str):
                    continue
                try:
                    self._entries[key] = base64.b64decode(data, validate=True)
                except (ValueError, TypeError):
                    continue

    def _append(self, entry: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        """The recorded value for ``key``, or ``None``."""
        blob = self._entries.get(key)
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except Exception:
            # A journal written by an incompatible version: recompute.
            return None

    def record(self, key: str, value: Any) -> None:
        """Durably append one completed cell (flush + fsync)."""
        blob = pickle.dumps(value)
        self._entries[key] = blob
        self._append(
            {
                "kind": "cell",
                "key": key,
                "data": base64.b64encode(blob).decode("ascii"),
            }
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Open journals keyed by absolute path.  A multi-sweep invocation
#: (``all-figures``, repeated ``run_cells`` calls) shares one handle per
#: path, so a fresh (non-resume) run truncates once — at the first open —
#: and appends from then on.
_OPEN_JOURNALS: Dict[str, Journal] = {}


def journal_for(path: Optional[str], resume: bool = False) -> Optional[Journal]:
    """The process-wide journal for ``path`` (opened on first use).

    :param path: journal file location; ``None`` disables journaling.
    :param resume: honoured on the first open of each path only.
    """
    if path is None:
        return None
    key = os.path.abspath(path)
    journal = _OPEN_JOURNALS.get(key)
    if journal is None:
        journal = Journal(path, resume=resume)
        _OPEN_JOURNALS[key] = journal
    return journal


def _close_journals() -> None:
    while _OPEN_JOURNALS:
        _, journal = _OPEN_JOURNALS.popitem()
        journal.close()


atexit.register(_close_journals)
