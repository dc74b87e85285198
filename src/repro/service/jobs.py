"""Job specifications and stable, content-derived job identity.

A job id is the truncated SHA-256 of the spec's canonical JSON form:
the same work submitted twice — including after a server crash — maps
to the same id, which is what makes re-attach work with no server-side
registry surviving the crash.  Everything that changes the output
(operator, inputs, format, keys, aggregates, k) or the durable work
fingerprint (memory, fan-in, codec…) is part of the
identity.  The execution knobs only the CLI sets (block sizes, worker
processes, the 2WRS factors; DESIGN.md §16) are not part of a job.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.engine.job import DEFAULTS, OPS, KeyColumns, OpSpec

__all__ = ["JOB_OPS", "STORE_OPS", "JobSpec", "job_id_for"]

#: The ops that act on a store directory instead of sorting a file.
STORE_OPS = ("store_ingest", "store_scan", "store_compact")

#: Operators a job may run: the CLI's file-to-file subcommands, plus
#: the store jobs (DESIGN.md §17) that run against a server-side store
#: directory under the same pool-granted memory budget.
JOB_OPS = OPS + STORE_OPS

#: Store ops that read no input file (they only need the directory).
_INPUTLESS_OPS = ("store_scan", "store_compact")

#: Hex digits kept from the SHA-256 — plenty against collisions at
#: service scale, short enough to paste into a terminal.
_ID_HEX = 16


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


def _path(payload: Dict[str, Any], name: str) -> Optional[str]:
    # An absent path stays None — abspath("") would silently become
    # the cwd.
    value = payload.get(name)
    return os.path.abspath(str(value)) if value else None


@dataclass(frozen=True)
class JobSpec(OpSpec):
    """Everything needed to run one job (and to name it): the op
    description, its server-side paths and the tenant.

    ``input``/``right_input``/``output`` are server-side paths: the
    service reads and writes files on its own filesystem, it does not
    ship data over the protocol (results stream back on request).
    ``output`` is optional — without it the result is published under
    the job's spool directory and fetched with ``result``.
    """

    input: str = ""
    output: Optional[str] = None
    right_input: Optional[str] = None
    store: Optional[str] = None
    tenant: str = "default"

    def validate(self, ops: Sequence[str] = JOB_OPS) -> None:
        super().validate(ops)
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
            raise ValueError(
                f"right_input only applies to join, not {self.op}"
            )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """A validated spec from a submit message's ``job`` object.

        Absent fields take the defaults of :data:`~repro.engine.job
        .DEFAULTS`; an unknown field is an error.
        """
        unknown = sorted(set(payload) - _PAYLOAD_KEYS)
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(unknown)}")
        value = payload.get("value")
        spec = cls(
            op=str(payload.get("op", "")),
            input=_path(payload, "input") or "",
            output=_path(payload, "output"),
            right_input=_path(payload, "right_input"),
            store=_path(payload, "store"),
            tenant=str(payload.get("tenant", "default")),
            fmt=str(payload.get("format", DEFAULTS.fmt)),
            key=_normalise_key(payload.get("key")),
            right_key=_normalise_key(payload.get("right_key")),
            by=str(payload.get("by", DEFAULTS.by)),
            aggregates=tuple(
                str(name)
                for name in payload.get("aggregates") or DEFAULTS.aggregates
            ),
            value=int(value) if value is not None else None,
            k=int(payload.get("k", DEFAULTS.k)),
            memory=int(payload.get("memory", DEFAULTS.memory)),
            algorithm=str(payload.get("algorithm", DEFAULTS.algorithm)),
            fan_in=int(payload.get("fan_in", DEFAULTS.fan_in)),
            spill_codec=str(payload.get("spill_codec", DEFAULTS.spill_codec)),
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


#: The fields of a canonical payload, which are all a submit may send.
_PAYLOAD_KEYS = frozenset(JobSpec().to_payload())


def job_id_for(spec: JobSpec) -> str:
    """Stable id: truncated SHA-256 over the canonical spec JSON."""
    canonical = json.dumps(spec.to_payload(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_ID_HEX]
