"""Profile containers: block and edge execution counts with JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from repro.errors import ProfileError

__all__ = ["ProfileData"]


@dataclass(frozen=True)
class ProfileData:
    """Execution counts gathered from a profiling run.

    ``block_counts`` maps block uid -> number of executions;
    ``edge_counts`` maps (src uid, dst uid) -> number of traversals;
    ``num_instructions`` is the total dynamic instruction count of the run.
    """

    program_name: str
    input_name: str
    block_counts: Dict[int, int]
    edge_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    num_instructions: int = 0

    def count_of(self, uid: int) -> int:
        return self.block_counts.get(uid, 0)

    def hottest_blocks(self, limit: int = 10) -> Tuple[Tuple[int, int], ...]:
        """The ``limit`` most-executed (uid, count) pairs, hottest first."""
        ranked = sorted(self.block_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(ranked[:limit])

    @property
    def coverage(self) -> float:
        """Fraction of profiled blocks executed at least once."""
        if not self.block_counts:
            return 0.0
        executed = sum(1 for count in self.block_counts.values() if count > 0)
        return executed / len(self.block_counts)

    # ------------------------------------------------------------------
    # Persistence (profiles are the only artefact the compiler pass needs,
    # so they get a stable on-disk format).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The JSON-ready record :meth:`save` writes."""
        return {
            "program": self.program_name,
            "input": self.input_name,
            "num_instructions": self.num_instructions,
            "block_counts": {str(uid): count for uid, count in self.block_counts.items()},
            "edge_counts": {
                f"{src}->{dst}": count
                for (src, dst), count in self.edge_counts.items()
            },
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileData":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ProfileError(f"cannot load profile from {path}: {exc}") from exc
        return cls.from_payload(payload, path)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any], source: Union[str, Path]) -> "ProfileData":
        """Rebuild a profile from a :meth:`to_payload` record read from ``source``."""
        try:
            edge_counts: Dict[Tuple[int, int], int] = {}
            for key, count in payload.get("edge_counts", {}).items():
                src, _, dst = key.partition("->")
                edge_counts[(int(src), int(dst))] = int(count)
            return cls(
                program_name=payload["program"],
                input_name=payload["input"],
                block_counts={
                    int(uid): int(count)
                    for uid, count in payload["block_counts"].items()
                },
                edge_counts=edge_counts,
                num_instructions=int(payload.get("num_instructions", 0)),
            )
        except (KeyError, ValueError) as exc:
            raise ProfileError(f"malformed profile file {source}: {exc}") from exc
