"""Durability for the distributed runtime: per-superstep checkpoints.

A :class:`Checkpoint` freezes everything the coordinator needs to
restart a computation at a superstep barrier: every worker's vertex
values, halted set and pending inbox (messages already routed and due
for delivery at ``superstep``), plus the merged aggregator values from
the superstep before. Recovery is therefore a pure rewind — restore
all shards and replay — which is what makes a recovered run
byte-identical to a fault-free one.

Integrity: every stored checkpoint carries a content checksum
(``sha256:<hex>``), written at save time and verified on load by both
stores. A checkpoint whose stored and recomputed checksums disagree —
or whose stored form no longer parses as a checkpoint — raises
:class:`CheckpointCorrupt`, which the recovery supervisor treats as
"fall back to the previous checkpoint", never as good state.

Two stores implement the pluggable interface:

* :class:`InMemoryCheckpointStore` — one pickled blob plus its sha256
  per checkpoint, in the coordinator's process; survives worker kills
  (the simulated failure domain), not process death.
* :class:`JsonCheckpointStore` — one JSON file per checkpoint in a
  directory, checksummed over the canonical JSON of the rest of the
  payload; survives the process, at the cost of requiring vertex
  ids, messages and values to be JSON-representable (ints, strings,
  floats including ``inf``, lists, dicts). Saves are atomic
  (temp file + ``os.replace``), so a crash mid-save can never leave a
  torn latest checkpoint — the previous bytes stay intact until the
  new ones are fully on disk.

Both stores expose a ``corrupt(superstep, mode)`` hook used by the
chaos harness to simulate storage damage, and ``prune(keep_last=n)``
so long chaos runs don't accumulate unbounded checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError

#: checksum scheme identifier embedded in every payload.
CHECKSUM_ALGORITHM = "sha256"


class CheckpointCorrupt(ReproError):
    """A checkpoint failed integrity validation on load."""

    def __init__(self, message: str, superstep: int | None = None):
        super().__init__(message)
        self.superstep = superstep


def _digest(data: bytes) -> str:
    return f"{CHECKSUM_ALGORITHM}:{hashlib.sha256(data).hexdigest()}"


def payload_checksum(body: dict[str, Any]) -> str:
    """``sha256:<hex>`` over the canonical JSON encoding of ``body``
    (``sort_keys`` + compact separators)."""
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return _digest(encoded.encode("utf-8"))


@dataclass
class Checkpoint:
    """State at a superstep barrier; ``superstep`` is the next one to run."""

    superstep: int
    worker_states: list[dict[str, Any]]
    previous_aggregates: dict[str, Any]

    def body(self) -> dict[str, Any]:
        """The JSON-ready payload, minus the checksum (vertex-keyed
        maps become pair lists)."""
        return {
            "superstep": self.superstep,
            "previous_aggregates": dict(self.previous_aggregates),
            "workers": [
                {
                    "values": [[v, val] for v, val
                               in state["values"].items()],
                    "halted": list(state["halted"]),
                    "inbox": [[v, list(msgs)] for v, msgs
                              in state["inbox"].items()],
                }
                for state in self.worker_states
            ],
        }

    def to_payload(self) -> dict[str, Any]:
        """The full payload: body plus its content checksum."""
        payload = self.body()
        payload["checksum"] = payload_checksum(payload)
        return payload

    @classmethod
    def verify_payload(cls, payload: dict[str, Any], *,
                       where: str = "checkpoint") -> None:
        """Raise :class:`CheckpointCorrupt` if the payload's stored
        checksum does not match its content (legacy payloads without a
        checksum pass, for compatibility with pre-integrity files)."""
        stored = payload.get("checksum")
        if stored is None:
            return
        body = {key: value for key, value in payload.items()
                if key != "checksum"}
        computed = payload_checksum(body)
        if computed != stored:
            raise CheckpointCorrupt(
                f"{where}: checksum mismatch "
                f"(stored {stored}, computed {computed})",
                superstep=payload.get("superstep"))

    @classmethod
    def from_payload(cls, payload: dict[str, Any], *,
                     where: str = "checkpoint") -> "Checkpoint":
        cls.verify_payload(payload, where=where)
        return cls(
            superstep=payload["superstep"],
            previous_aggregates=dict(payload["previous_aggregates"]),
            worker_states=[
                {
                    "values": {v: val for v, val in worker["values"]},
                    "halted": set(worker["halted"]),
                    "inbox": {v: list(msgs)
                              for v, msgs in worker["inbox"]},
                }
                for worker in payload["workers"]
            ])


class CheckpointStore:
    """Interface: persist checkpoints, hand back the latest on demand.

    A store implements ``save``, ``load``, ``supersteps``, ``discard``
    and ``corrupt``; ``load_latest``, ``prune`` and ``clear`` are built
    on those. ``save`` returns the number of bytes stored so the
    coordinator can feed the ``dist.checkpoint_bytes`` counter.
    ``load`` must validate integrity and raise
    :class:`CheckpointCorrupt` rather than return damaged state.
    """

    def save(self, checkpoint: Checkpoint) -> int:
        raise NotImplementedError

    def load(self, superstep: int) -> Checkpoint:
        raise NotImplementedError

    def supersteps(self) -> list[int]:
        """Stored supersteps, oldest first."""
        raise NotImplementedError

    def discard(self, superstep: int) -> None:
        """Drop one stored checkpoint; an absent one is not an error."""
        raise NotImplementedError

    def corrupt(self, superstep: int, mode: str = "garble") -> None:
        """Chaos hook: damage a stored checkpoint in place so the next
        load raises :class:`CheckpointCorrupt` (``garble`` alters the
        content, ``truncate`` cuts it short). Simulation-only — never
        called on real data."""
        raise NotImplementedError

    def load_latest(self) -> Checkpoint | None:
        saved = self.supersteps()
        return self.load(saved[-1]) if saved else None

    def prune(self, keep_last: int) -> list[int]:
        """Drop all but the newest ``keep_last`` checkpoints; return
        the supersteps that were removed."""
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        dropped = self.supersteps()[:-keep_last]
        for superstep in dropped:
            self.discard(superstep)
        return dropped

    def clear(self) -> None:
        for superstep in self.supersteps():
            self.discard(superstep)


class InMemoryCheckpointStore(CheckpointStore):
    """One pickled blob plus its sha256 per superstep (the default
    store).

    Pickle takes any vertex, value or message type, keeps tuples as
    tuples, and the stored bytes are immutable, so a saved snapshot is
    isolated from later mutation of the live state. A value pickle
    rejects (a lambda, say) therefore fails at ``save`` — the barrier —
    rather than later at recovery. The blobs never leave this process,
    so ``pickle.loads`` only ever sees bytes this store wrote.
    """

    def __init__(self):
        self._blobs: dict[int, tuple[str, bytes]] = {}

    def save(self, checkpoint: Checkpoint) -> int:
        blob = pickle.dumps(checkpoint, pickle.HIGHEST_PROTOCOL)
        self._blobs[checkpoint.superstep] = (_digest(blob), blob)
        return len(blob)

    def load(self, superstep: int) -> Checkpoint:
        stored, blob = self._blobs[superstep]
        computed = _digest(blob)
        if computed != stored:
            raise CheckpointCorrupt(
                f"in-memory checkpoint {superstep}: checksum mismatch "
                f"(stored {stored}, computed {computed})",
                superstep=superstep)
        return pickle.loads(blob)

    def supersteps(self) -> list[int]:
        return sorted(self._blobs)

    def discard(self, superstep: int) -> None:
        self._blobs.pop(superstep, None)

    def corrupt(self, superstep: int, mode: str = "garble") -> None:
        digest, blob = self._blobs[superstep]
        if mode == "truncate":
            blob = blob[:len(blob) // 2]
        elif mode == "garble":
            middle = len(blob) // 2
            blob = (blob[:middle] + bytes([blob[middle] ^ 0xFF])
                    + blob[middle + 1:])
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        self._blobs[superstep] = (digest, blob)


class JsonCheckpointStore(CheckpointStore):
    """One ``checkpoint-NNNNNN.json`` file per superstep barrier."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, superstep: int) -> str:
        return os.path.join(self.directory,
                            f"checkpoint-{superstep:06d}.json")

    def save(self, checkpoint: Checkpoint) -> int:
        """Atomic write: encode, land on a temp file, ``os.replace``.

        A crash anywhere before the replace leaves the previous
        checkpoint file (if any) byte-for-byte intact; the replace
        itself is atomic on POSIX and Windows.
        """
        encoded = json.dumps(checkpoint.to_payload())
        path = self._path(checkpoint.superstep)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        return len(encoded.encode("utf-8"))

    def load(self, superstep: int) -> Checkpoint:
        path = self._path(superstep)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise CheckpointCorrupt(
                f"checkpoint file {path} is not valid JSON "
                f"(torn or truncated write?): {exc}",
                superstep=superstep) from exc
        try:
            return Checkpoint.from_payload(payload, where=path)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(
                f"checkpoint file {path} is not a checkpoint payload: "
                f"{exc!r}", superstep=superstep) from exc

    def supersteps(self) -> list[int]:
        found = []
        for name in os.listdir(self.directory):
            stem = name[len("checkpoint-"):-len(".json")]
            # only names _path() writes, so load() finds every one listed
            path = os.path.join(self.directory, name)
            if stem.isdecimal() and path == self._path(int(stem)):
                found.append(int(stem))
        return sorted(found)

    def discard(self, superstep: int) -> None:
        try:
            os.remove(self._path(superstep))
        except FileNotFoundError:
            pass  # lost a race with another cleaner — already gone

    def corrupt(self, superstep: int, mode: str = "garble") -> None:
        path = self._path(superstep)
        if mode == "truncate":
            with open(path, encoding="utf-8") as handle:
                data = handle.read()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(data[:max(1, len(data) // 2)])
        elif mode == "garble":
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            payload["previous_aggregates"]["__garbled__"] = 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
