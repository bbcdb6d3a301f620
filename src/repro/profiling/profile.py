"""Profile artifacts.

An :class:`InterleaveProfile` is the output of the paper's first two analysis
steps: per-static-branch execution statistics plus the pairwise interleave
counts that become the edges of the branch conflict graph.  Profiles are
JSON-serializable so they can be cached, inspected and merged across input
sets (the paper's §5.2 cumulative-profile approach).  The artifact store
keeps them as columns instead (:meth:`InterleaveProfile.to_columns`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

PathLike = Union[str, Path]
PairKey = Tuple[int, int]

_FORMAT_VERSION = 1

#: column name -> dtype of :meth:`InterleaveProfile.to_columns`.
PROFILE_COLUMNS = {
    "branch_pc": np.uint64,
    "branch_executions": np.int64,
    "branch_taken": np.int64,
    "pair_a": np.uint64,
    "pair_b": np.uint64,
    "pair_count": np.int64,
}


@dataclass
class BranchStats:
    """Dynamic statistics for one static conditional branch."""

    executions: int = 0
    taken: int = 0

    @property
    def taken_rate(self) -> float:
        """Fraction of dynamic instances that were taken."""
        if self.executions == 0:
            return 0.0
        return self.taken / self.executions


def pair_key(a: int, b: int) -> PairKey:
    """Canonical unordered key for a branch pair."""
    return (a, b) if a <= b else (b, a)


@dataclass
class InterleaveProfile:
    """Per-branch stats and pairwise interleave counts for one profile run.

    Attributes:
        branches: static branch PC -> :class:`BranchStats`.
        pairs: canonical (low PC, high PC) -> interleave count, i.e. how many
            dynamic re-executions observed the other branch in between.
        instructions: instructions retired during the profiled run (0 when
            the trace source does not track it).
        name: provenance label.
    """

    branches: Dict[int, BranchStats] = field(default_factory=dict)
    pairs: Dict[PairKey, int] = field(default_factory=dict)
    instructions: int = 0
    name: str = "<profile>"

    @property
    def static_branch_count(self) -> int:
        return len(self.branches)

    @property
    def dynamic_branch_count(self) -> int:
        return sum(s.executions for s in self.branches.values())

    def execution_count(self, pc: int) -> int:
        """Dynamic execution count for a static branch (0 if unseen)."""
        stats = self.branches.get(pc)
        return stats.executions if stats else 0

    def taken_rate(self, pc: int) -> float:
        """Taken fraction for a static branch (0.0 if unseen)."""
        stats = self.branches.get(pc)
        return stats.taken_rate if stats else 0.0

    def interleave_count(self, a: int, b: int) -> int:
        """Interleave count for an unordered branch pair."""
        return self.pairs.get(pair_key(a, b), 0)

    def hot_branches(self, limit: int) -> List[int]:
        """The *limit* most frequently executed static branches."""
        ranked = sorted(
            self.branches.items(),
            key=lambda item: (-item[1].executions, item[0]),
        )
        return [pc for pc, _ in ranked[:limit]]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        payload = {
            "format": "interleave-profile",
            "version": _FORMAT_VERSION,
            "name": self.name,
            "instructions": self.instructions,
            "branches": {
                str(pc): [s.executions, s.taken]
                for pc, s in self.branches.items()
            },
            "pairs": [
                [a, b, count] for (a, b), count in self.pairs.items()
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "InterleaveProfile":
        """Deserialize a profile written by :meth:`to_json`.

        Raises:
            ValueError: on a wrong format marker or version.
        """
        payload = json.loads(text)
        if payload.get("format") != "interleave-profile":
            raise ValueError("not an interleave-profile document")
        if payload.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported profile version {payload.get('version')}"
            )
        branches = {
            int(pc): BranchStats(executions=ex, taken=tk)
            for pc, (ex, tk) in payload["branches"].items()
        }
        pairs = {
            pair_key(int(a), int(b)): int(count)
            for a, b, count in payload["pairs"]
        }
        return cls(
            branches=branches,
            pairs=pairs,
            instructions=int(payload.get("instructions", 0)),
            name=str(payload.get("name", "<profile>")),
        )

    def save(self, path: PathLike) -> None:
        """Write the profile to *path* as JSON."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "InterleaveProfile":
        """Read a profile written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_columns(self) -> Dict[str, np.ndarray]:
        """The branch stats and pair counts as :data:`PROFILE_COLUMNS` arrays.

        Rows keep the dicts' iteration order, so :meth:`from_columns`
        rebuilds a profile that iterates exactly like this one.
        """
        stats = list(self.branches.values())
        values = {
            "branch_pc": list(self.branches),
            "branch_executions": [s.executions for s in stats],
            "branch_taken": [s.taken for s in stats],
            "pair_a": [a for a, _ in self.pairs],
            "pair_b": [b for _, b in self.pairs],
            "pair_count": list(self.pairs.values()),
        }
        return {
            key: np.array(values[key], dtype=dtype)
            for key, dtype in PROFILE_COLUMNS.items()
        }

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        instructions: int = 0,
        name: str = "<profile>",
    ) -> "InterleaveProfile":
        """Rebuild a profile from :meth:`to_columns` arrays.

        Counts and PCs come back as Python ``int``s.

        Raises:
            KeyError: on a missing column.
            ValueError: when the branch or pair columns differ in length.
        """
        pcs, executions, taken, a, b, counts = (
            columns[key].tolist() for key in PROFILE_COLUMNS
        )
        if not len(pcs) == len(executions) == len(taken):
            raise ValueError("branch columns differ in length")
        if not len(a) == len(b) == len(counts):
            raise ValueError("pair columns differ in length")
        return cls(
            branches={
                pc: BranchStats(ex, tk)
                for pc, ex, tk in zip(pcs, executions, taken)
            },
            pairs=dict(zip(zip(a, b), counts)),
            instructions=instructions,
            name=name,
        )

    def restricted_to(self, pcs: Iterable[int]) -> "InterleaveProfile":
        """A copy containing only the given static branches and their pairs."""
        keep = set(pcs)
        return InterleaveProfile(
            branches={
                pc: BranchStats(s.executions, s.taken)
                for pc, s in self.branches.items()
                if pc in keep
            },
            pairs={
                key: count
                for key, count in self.pairs.items()
                if key[0] in keep and key[1] in keep
            },
            instructions=self.instructions,
            name=f"{self.name}(restricted)",
        )
