"""Privileges and reduction operators (Section 2).

Tasks must declare a privilege on each collection argument: ``READ``,
``WRITE``, ``READ_WRITE``, or ``REDUCE`` with a commutative operator.
Privileges drive both the safety analysis of index launches (Section 3) and
the computation of inter-launch data dependencies (Section 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["Privilege", "ReductionOp", "REDUCTION_OPS", "PrivilegeSpec"]


class Privilege(enum.Enum):
    """Access privilege a task declares on a collection argument."""

    READ = "reads"
    WRITE = "writes"
    READ_WRITE = "reads writes"
    REDUCE = "reduces"

    @property
    def is_read_only(self) -> bool:
        """True for READ: may share data freely with other readers."""
        return self is Privilege.READ

    @property
    def writes(self) -> bool:
        """True when the privilege may mutate data (WRITE/READ_WRITE/REDUCE)."""
        return self is not Privilege.READ

    @property
    def reads(self) -> bool:
        """True when the privilege observes prior data (READ/READ_WRITE)."""
        return self in (Privilege.READ, Privilege.READ_WRITE)


@dataclass(frozen=True)
class ReductionOp:
    """A commutative, associative reduction operator.

    ``apply`` folds a contribution into the current value elementwise;
    ``identity`` is the operator's unit.  Commutativity is what lets
    same-operator reductions from parallel tasks interleave safely
    (cross-check rule 1 of Section 3).
    """

    name: str
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity: float

    def fold_at(self, store: np.ndarray, idx: np.ndarray, values) -> None:
        """Fold ``values`` into ``store[idx]``.

        The built-in operators go through ``np.ufunc.at``, which applies
        repeated indices one after another in index-array order — that
        order is part of the serial/parallel byte-identity contract, so
        every reduction, live or replayed, is applied here.
        """
        ufunc = _UFUNCS.get(self.name)
        if ufunc is not None:
            ufunc.at(store, idx, values)
        else:
            store[idx] = self.apply(store[idx], values)

    def __repr__(self) -> str:
        return f"ReductionOp({self.name!r})"


_UFUNCS = {"+": np.add, "*": np.multiply, "min": np.minimum, "max": np.maximum}

REDUCTION_OPS: Dict[str, ReductionOp] = {
    "+": ReductionOp("+", lambda acc, v: acc + v, 0.0),
    "*": ReductionOp("*", lambda acc, v: acc * v, 1.0),
    "min": ReductionOp("min", np.minimum, float("inf")),
    "max": ReductionOp("max", np.maximum, float("-inf")),
}


@dataclass(frozen=True)
class PrivilegeSpec:
    """A privilege plus its reduction operator when ``privilege`` is REDUCE."""

    privilege: Privilege
    redop: Optional[ReductionOp] = None

    def __post_init__(self):
        if self.privilege is Privilege.REDUCE and self.redop is None:
            raise ValueError("REDUCE privilege requires a reduction operator")
        if self.privilege is not Privilege.REDUCE and self.redop is not None:
            raise ValueError("only REDUCE privileges carry a reduction operator")

    @classmethod
    def parse(cls, spec: str) -> "PrivilegeSpec":
        """Parse ``"reads"``, ``"writes"``, ``"reads writes"``, or ``"reduces +"``."""
        spec = spec.strip()
        if spec.startswith("reduce"):
            parts = spec.split()
            if len(parts) != 2 or parts[1] not in REDUCTION_OPS:
                raise ValueError(
                    f"reduction spec must be 'reduces <op>' with op in "
                    f"{sorted(REDUCTION_OPS)}, got {spec!r}"
                )
            return cls(Privilege.REDUCE, REDUCTION_OPS[parts[1]])
        normalized = " ".join(sorted(spec.split(), reverse=True))
        table = {
            "reads": Privilege.READ,
            "writes": Privilege.WRITE,
            "reads writes": Privilege.READ_WRITE,
            "writes reads": Privilege.READ_WRITE,
        }
        if spec in table:
            return cls(table[spec])
        if normalized in table:
            return cls(table[normalized])
        raise ValueError(f"unknown privilege spec {spec!r}")

    def compatible_with(self, other: "PrivilegeSpec") -> bool:
        """Whether two parallel accesses under these privileges never interfere.

        True when both are read-only, or both are reductions with the same
        operator (Section 3, cross-check rule 1).
        """
        if self.privilege.is_read_only and other.privilege.is_read_only:
            return True
        if (
            self.privilege is Privilege.REDUCE
            and other.privilege is Privilege.REDUCE
            and self.redop is not None
            and other.redop is not None
            and self.redop.name == other.redop.name
        ):
            return True
        return False

    def __repr__(self) -> str:
        if self.privilege is Privilege.REDUCE:
            return f"PrivilegeSpec(reduces {self.redop.name})"
        return f"PrivilegeSpec({self.privilege.value})"
