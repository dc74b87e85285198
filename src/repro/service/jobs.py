"""Job specifications and stable, content-derived job identity.

A job id is the truncated SHA-256 of the spec's canonical JSON form:
the same work submitted twice — including after a server crash — maps
to the same id, which is what makes re-attach work with no server-side
registry surviving the crash.  Everything that changes the output
(operator, inputs, format, keys, aggregates, k) or the durable work
fingerprint (memory, fan-in, codec…) is part of the
identity; purely ephemeral knobs (nothing today) would not be.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import ALGORITHMS
from repro.core.records import FORMAT_NAMES
from repro.engine.spill_codec import validate_codec

__all__ = ["JOB_OPS", "STORE_OPS", "JobSpec", "job_id_for"]

#: Operators a job may run: the CLI's file-to-file subcommands, plus
#: the store jobs (DESIGN.md §17) that run against a server-side store
#: directory under the same pool-granted memory budget.
JOB_OPS = (
    "sort", "distinct", "agg", "topk", "join",
    "store_ingest", "store_scan", "store_compact",
)

#: The ops that act on a store directory instead of sorting a file.
STORE_OPS = ("store_ingest", "store_scan", "store_compact")

#: Store ops that read no input file (they only need the directory).
_INPUTLESS_OPS = ("store_scan", "store_compact")

#: Hex digits kept from the SHA-256 — plenty against collisions at
#: service scale, short enough to paste into a terminal.
_ID_HEX = 16

KeyColumns = Union[int, Tuple[int, ...]]


def _normalise_key(value: Any) -> Optional[KeyColumns]:
    """One column (int) or several (tuple) from any JSON-ish shape."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"key columns must be integers, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        columns = tuple(int(column) for column in value)
        if not columns or any(column < 0 for column in columns):
            raise ValueError(f"key columns must be >= 0, got {value!r}")
        return columns[0] if len(columns) == 1 else columns
    raise ValueError(f"key columns must be an int or a list, got {value!r}")


def _key_payload(key: Optional[KeyColumns]) -> Optional[list]:
    if key is None:
        return None
    return [key] if isinstance(key, int) else list(key)


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one job (and to name it).

    ``input``/``right_input``/``output`` are server-side paths: the
    service reads and writes files on its own filesystem, it does not
    ship data over the protocol (results stream back on request).
    ``output`` is optional — without it the result is published under
    the job's spool directory and fetched with ``result``.
    """

    op: str
    input: str
    output: Optional[str] = None
    right_input: Optional[str] = None
    store: Optional[str] = None
    tenant: str = "default"
    fmt: str = "int"
    key: Optional[KeyColumns] = None
    right_key: Optional[KeyColumns] = None
    by: str = "record"
    aggregates: Tuple[str, ...] = ("count",)
    value: Optional[int] = None
    k: int = 0
    memory: int = 10_000
    algorithm: str = "2wrs"
    fan_in: int = 8
    spill_codec: str = "none"

    def validate(self) -> None:
        if self.op not in JOB_OPS:
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {', '.join(JOB_OPS)}"
            )
        if not self.input and self.op not in _INPUTLESS_OPS:
            raise ValueError("job needs an input path")
        if self.op in STORE_OPS and not self.store:
            raise ValueError(f"{self.op} jobs need a store directory")
        if self.op not in STORE_OPS and self.store:
            raise ValueError(
                f"store only applies to the store_* ops, not {self.op}"
            )
        if self.op == "join" and not self.right_input:
            raise ValueError("join jobs need a right_input path")
        if self.op != "join" and self.right_input:
            raise ValueError(f"right_input only applies to join, not {self.op}")
        if self.op == "topk" and self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {self.fan_in}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.fmt not in FORMAT_NAMES:
            raise ValueError(
                f"unknown record format {self.fmt!r}; known: "
                f"{', '.join(FORMAT_NAMES)}"
            )
        validate_codec(self.spill_codec)
        if self.key is not None and self.fmt not in ("csv", "tsv"):
            raise ValueError(
                f"key columns only apply to csv/tsv, not {self.fmt!r}"
            )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """A validated spec from a submit message's ``job`` object.

        ``checksum`` and ``binary_spill`` are accepted and ignored:
        spill blocks are always checksummed, csv/tsv rows always spill
        as key bytes, and older clients and ``job.json`` files send
        both.
        """
        known = {
            "op", "input", "output", "right_input", "store", "tenant",
            "format", "key", "right_key", "by", "aggregates", "value",
            "k", "memory", "algorithm", "fan_in", "binary_spill",
            "spill_codec", "checksum",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(unknown)}")
        aggregates = payload.get("aggregates") or ["count"]
        spec = cls(
            op=str(payload.get("op", "")),
            # An absent input stays "" (validate decides whether the op
            # needs one) — abspath("") would silently become the cwd.
            input=(
                os.path.abspath(str(payload["input"]))
                if payload.get("input")
                else ""
            ),
            output=(
                os.path.abspath(str(payload["output"]))
                if payload.get("output")
                else None
            ),
            right_input=(
                os.path.abspath(str(payload["right_input"]))
                if payload.get("right_input")
                else None
            ),
            store=(
                os.path.abspath(str(payload["store"]))
                if payload.get("store")
                else None
            ),
            tenant=str(payload.get("tenant", "default")),
            fmt=str(payload.get("format", "int")),
            key=_normalise_key(payload.get("key")),
            right_key=_normalise_key(payload.get("right_key")),
            by=str(payload.get("by", "record")),
            aggregates=tuple(str(name) for name in aggregates),
            value=(
                int(payload["value"])
                if payload.get("value") is not None
                else None
            ),
            k=int(payload.get("k", 0)),
            memory=int(payload.get("memory", 10_000)),
            algorithm=str(payload.get("algorithm", "2wrs")),
            fan_in=int(payload.get("fan_in", 8)),
            spill_codec=str(payload.get("spill_codec", "none")),
        )
        spec.validate()
        return spec

    def to_payload(self) -> Dict[str, Any]:
        """The canonical JSON form (also what ``job.json`` persists)."""
        return {
            "op": self.op,
            "input": self.input,
            "output": self.output,
            "right_input": self.right_input,
            "store": self.store,
            "tenant": self.tenant,
            "format": self.fmt,
            "key": _key_payload(self.key),
            "right_key": _key_payload(self.right_key),
            "by": self.by,
            "aggregates": list(self.aggregates),
            "value": self.value,
            "k": self.k,
            "memory": self.memory,
            "algorithm": self.algorithm,
            "fan_in": self.fan_in,
            "spill_codec": self.spill_codec,
        }


def job_id_for(spec: JobSpec) -> str:
    """Stable id: truncated SHA-256 over the canonical spec JSON."""
    canonical = json.dumps(spec.to_payload(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_ID_HEX]
