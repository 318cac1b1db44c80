"""Write-ahead epoch journal: the controller's durable commit log.

The paper's controller (Section II-A) re-plans every unfinished job each
epoch, so all of its state is the per-job lifecycle bookkeeping plus the
loop cursor — exactly what :class:`EpochJournal` persists.  The format
is JSONL: one header line describing the immutable run inputs (network,
jobs, horizon, configuration, fault timeline), then one line per
committed epoch carrying the mutable state *after* that epoch executed.

Durability model
----------------

Every line is wrapped as ``{"v": 1, "crc": ..., "data": {...}}`` where
``crc`` is the CRC-32 of the canonical JSON encoding of ``data``.
:meth:`EpochJournal.create` writes the header atomically (temp file,
fsync, rename, directory fsync).  Each commit then writes one line at
the byte offset where the last committed line ends, cuts the file
there and fsyncs it, so a commit costs one line's bytes however long
the journal is.  A crash mid-write leaves a *torn tail* (the last line
cut short or corrupted); :meth:`EpochJournal.append_torn` makes one on
purpose for crash testing.  :func:`read_journal` drops everything from
the first invalid line on, reporting ``truncated=True``, and the next
commit overwrites the torn bytes.  A failed write is cut back to the
committed end, so after an ENOSPC or EIO the file holds exactly the
committed lines.

Append lock
-----------

Each handle writes at its own committed end, so two writers
interleaving on one journal overwrite and truncate each other's lines.
Opening a journal for appending therefore takes an exclusive
``<path>.lock`` file holding the owner's PID (written and fsynced
before use).  A second opener from a *different live process* raises
:class:`~repro.errors.JournalLockedError`; locks whose owner PID is
dead (a crashed controller) or is the opener's own process (the
in-process crash-test resume path) are stale and stolen.  The lock is
released by :meth:`EpochJournal.close` — which the simulator and the
reservation service call on normal completion — and otherwise expires
with its owning process.

Record kinds
------------

The simulator journals ``"epoch"`` records; the reservation service
journals ``"batch"`` records through the same machinery.  Writers pick
the kind per :meth:`EpochJournal.append`, readers declare the kind they
expect via ``read_journal(..., entry_kind=...)`` — a record of any
other kind truncates the replay there, exactly like a corrupt line.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import (
    JournalError,
    JournalLockedError,
    JournalWriteError,
    ValidationError,
)

__all__ = [
    "SCHEMA_VERSION",
    "EpochJournal",
    "JournalReplay",
    "read_journal",
]

#: Journal schema version; readers reject anything newer than they know.
SCHEMA_VERSION = 1


def _canonical(data: dict) -> str:
    """Canonical JSON encoding: the byte string the CRC signs."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _wrap(data: dict) -> str:
    """One journal line for ``data``, CRC included."""
    payload = _canonical(data)
    crc = zlib.crc32(payload.encode("utf-8"))
    return _canonical({"v": SCHEMA_VERSION, "crc": crc, "data": data})


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _lock_path(path: Path) -> Path:
    return path.with_name(path.name + ".lock")


def _acquire_lock(path: Path) -> Path:
    """Take the journal's exclusive PID lock file, or raise.

    Creation is ``O_CREAT | O_EXCL`` so two racing openers cannot both
    win; the PID is fsynced before the lock counts as held.  Stale
    locks (dead owner, unreadable contents) and same-PID locks (an
    abandoned handle from an earlier, crashed run of *this* process)
    are stolen.
    """
    lock = _lock_path(path)
    me = os.getpid()
    for _ in range(3):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                owner = int(lock.read_text().split()[0])
            except (OSError, ValueError, IndexError):
                owner = None  # unreadable or torn lock: stale
            if owner is not None and owner != me and _pid_alive(owner):
                raise JournalLockedError(
                    f"journal {path} is locked by live process {owner} "
                    f"(lock file {lock}); a second controller must not "
                    "interleave appends — resume there or wait for it "
                    "to finish",
                    owner_pid=owner,
                )
            try:
                lock.unlink()
            except FileNotFoundError:
                pass
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{me}\n")
            fh.flush()
            os.fsync(fh.fileno())
        return lock
    raise JournalLockedError(
        f"journal {path}: lost the lock race at {lock} three times in a row"
    )


def _unwrap(line: bytes) -> dict | None:
    """Decode and CRC-check one line; ``None`` if torn or corrupt."""
    try:
        wrapper = json.loads(line)
    except ValueError:  # bad JSON or bytes that are not UTF-8
        return None
    if not isinstance(wrapper, dict):
        return None
    data = wrapper.get("data")
    crc = wrapper.get("crc")
    if not isinstance(data, dict) or not isinstance(crc, int):
        return None
    if zlib.crc32(_canonical(data).encode("utf-8")) != crc:
        return None
    return data


@dataclass(frozen=True)
class JournalReplay:
    """Everything :func:`read_journal` recovered from disk.

    Attributes
    ----------
    header:
        The run's immutable inputs (``kind == "header"`` record).
    entries:
        Committed epoch records, in commit order.
    truncated:
        True when a torn or corrupt tail was dropped during recovery.
    """

    header: dict
    entries: tuple[dict, ...] = ()
    truncated: bool = False

    @property
    def last_entry(self) -> dict | None:
        """The most recent committed epoch state, or ``None``."""
        return self.entries[-1] if self.entries else None


def read_journal(path: str | Path, entry_kind: str = "epoch") -> JournalReplay:
    """Recover a journal from disk, tolerating a torn tail.

    ``entry_kind`` is the record kind the caller expects after the
    header (``"epoch"`` for simulator journals, ``"batch"`` for
    reservation-service journals); a record of any other kind counts as
    a corrupt tail and truncates the replay.

    Raises :class:`~repro.errors.JournalError` when the journal is
    unusable outright: missing file, empty file, invalid or wrong-kind
    first line, or an unsupported schema version.  Any invalid line
    *after* a valid header merely truncates the replay there.
    """
    return _scan(Path(path), entry_kind)[0]


def _scan(path: Path, entry_kind: str) -> tuple[JournalReplay, int]:
    """The replay plus the byte length of the valid lines and newlines."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise JournalError(f"no journal at {path}") from None
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    if not raw:
        raise JournalError(f"journal {path} is empty")
    lines = raw.split(b"\n")
    header = _unwrap(lines[0])
    if header is None or header.get("kind") != "header":
        raise JournalError(
            f"journal {path} has no valid header line; it is not a journal "
            "or its header was corrupted beyond recovery"
        )
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise JournalError(
            f"journal {path} uses schema version {schema!r}; this reader "
            f"understands version {SCHEMA_VERSION}"
        )
    entries: list[dict] = []
    for line in lines[1:]:
        data = _unwrap(line)
        if data is None or data.get("kind") != entry_kind:
            break
        entries.append(data)
    end = sum(len(line) + 1 for line in lines[: 1 + len(entries)])
    replay = JournalReplay(
        header=header, entries=tuple(entries), truncated=end < len(raw)
    )
    return replay, end


class EpochJournal:
    """Append-only epoch journal: one fsynced line per commit.

    Use :meth:`create` for a fresh run (writes the header immediately)
    or :meth:`open_existing` to continue one.  The handle keeps only the
    byte offset where the last committed line ends and the number of
    committed entries.

    Both constructors take the exclusive append lock (module docstring);
    a second live process opening the same path raises
    :class:`~repro.errors.JournalLockedError`.  :meth:`close` releases
    the lock; an unclosed journal's lock dies with its process.
    """

    def __init__(self, path: str | Path, entry_kind: str = "epoch") -> None:
        self.path = Path(path)
        self.entry_kind = entry_kind
        self._end = 0
        self._entries = 0
        self._lock = _acquire_lock(self.path)
        self._closed = False
        #: Optional chaos hook (see :mod:`repro.chaos.inject`): called as
        #: ``fault_injector(path, line)`` before each appended line is
        #: written, never for the header.  It may raise :class:`OSError`
        #: (surfaced as :class:`~repro.errors.JournalWriteError`) or
        #: return replacement text — typically a torn prefix — which is
        #: written and *then* reported as a failed append (the bytes
        #: landed, the ack did not).  ``None`` in production.
        self.fault_injector = None

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, path: str | Path, header: dict, entry_kind: str = "epoch"
    ) -> "EpochJournal":
        """Start a fresh journal at ``path``; commits the header line."""
        if not isinstance(header, dict):
            raise ValidationError("journal header must be a dict")
        record = dict(header)
        record["kind"] = "header"
        record["schema"] = SCHEMA_VERSION
        data = f"{_wrap(record)}\n".encode("utf-8")
        journal = cls(path, entry_kind)
        tmp = journal.path.with_name(journal.path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, journal.path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise JournalWriteError(
                f"journal {journal.path}: header write failed ({exc})",
                path=str(journal.path),
            ) from exc
        journal._end = len(data)
        try:
            dir_fd = os.open(journal.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass  # some platforms cannot open or fsync a directory
        return journal

    @classmethod
    def open_existing(
        cls, path: str | Path, entry_kind: str = "epoch"
    ) -> "EpochJournal":
        """Reopen a journal for appending, dropping any torn tail.

        Rewrites the last valid line's newline (restoring it if it was
        lost) and cuts the file after it.
        """
        replay, end = _scan(Path(path), entry_kind)
        journal = cls(path, entry_kind)
        journal._entries = len(replay.entries)
        journal._end = end - 1
        journal._write("", commit=True)
        return journal

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Committed epoch entries (the header does not count)."""
        return self._entries

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released this handle."""
        return self._closed

    def close(self) -> None:
        """Release the append lock; further appends raise.

        Idempotent.  Only the normal-completion paths call this — a
        crashed run leaves its lock behind on purpose, and the stale
        rules in :func:`_acquire_lock` let the resume steal it.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._lock.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "EpochJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _line(self, entry: dict) -> str:
        """The journal line for ``entry``, tagged with this journal's kind."""
        if not isinstance(entry, dict):
            raise ValidationError("journal entry must be a dict")
        if self._closed:
            raise JournalError(
                f"journal {self.path} is closed; reopen it with "
                "EpochJournal.open_existing to append again"
            )
        record = dict(entry)
        record["kind"] = self.entry_kind
        return _wrap(record)

    def append(self, entry: dict) -> None:
        """Durably commit one record (of this journal's entry kind).

        On :class:`~repro.errors.JournalWriteError` the committed end
        does not move: the entry was never committed, and the next
        append writes over whatever bytes this one left behind.
        """
        self._write(self._line(entry), commit=True)
        self._entries += 1

    def append_torn(self, entry: dict) -> None:
        """Write the first half of ``entry``'s line and no newline.

        The on-disk shape a crash mid-append leaves, for the
        ``mid-journal`` crash point.  The entry is not committed.
        """
        line = self._line(entry)
        self._write(line[: max(1, len(line) // 2)], commit=False)

    # ------------------------------------------------------------------
    def _write(self, line: str, *, commit: bool) -> None:
        """Write ``line`` at the committed end, cut the file there, fsync.

        ``commit`` adds the newline and moves the committed end past it.
        An :class:`OSError` (disk full, I/O error, an injected fault)
        cuts the file back to the committed end, best effort, and is
        re-raised as :class:`~repro.errors.JournalWriteError`.
        """
        torn = None
        try:
            if self.fault_injector is not None:
                torn = self.fault_injector(self.path, line)
            text = line + "\n" if commit else line
            data = (text if torn is None else torn).encode("utf-8")
            with open(self.path, "r+b") as fh:
                fh.seek(self._end)
                fh.write(data)
                fh.truncate()
                os.fsync(fh.fileno())
        except OSError as exc:
            try:
                os.truncate(self.path, self._end)
            except OSError:
                pass
            raise JournalWriteError(
                f"journal {self.path}: append could not be made durable "
                f"({exc}); the last durable commit is still on disk",
                path=str(self.path),
            ) from exc
        if torn is not None:
            raise JournalWriteError(
                f"journal {self.path}: injected torn write — partial bytes "
                "reached disk but the append was never acknowledged",
                path=str(self.path),
            )
        if commit:
            self._end += len(data)

    def __repr__(self) -> str:
        return f"EpochJournal({str(self.path)!r}, entries={self.num_entries})"
