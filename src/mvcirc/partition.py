"""Partitions of {0..n-1} in canonical class-id form.

The canonical form assigns class ids in first-occurrence order, so two
partitions describe the same equivalence relation iff their id vectors are
equal.  Partitions double as congruences once they are checked to be closed
under an algebra's operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ParseError, parse_int


def _canonical(ids: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for x in ids:
        if x not in relabel:
            relabel[x] = len(relabel)
        out.append(relabel[x])
    return tuple(out)


class Classes:
    """A partition of {0..n-1} grown one merge at a time: label[x] is the
    class of x, members[c] the elements of class c, and queue the pairs
    whose merges joined two classes, which span every class.  A merge
    relabels the smaller class, so an element changes class at most
    log2(n) times; callers read label directly in their own loops."""

    def __init__(self, n: int) -> None:
        self.label = list(range(n))
        self.members = [[x] for x in range(n)]
        self.queue: list[tuple[int, int]] = []

    def merge(self, a: int, b: int) -> None:
        """Join the classes of a and b, queueing (a, b) when they differ."""
        label, members = self.label, self.members
        keep, drop = label[a], label[b]
        if keep == drop:
            return
        if len(members[keep]) < len(members[drop]):
            keep, drop = drop, keep
        for x in members[drop]:
            label[x] = keep
        members[keep] += members[drop]
        members[drop] = []
        self.queue.append((a, b))


@dataclass(frozen=True, order=True)
class Partition:
    ids: tuple[int, ...]

    @staticmethod
    def from_ids(ids: Sequence[int]) -> "Partition":
        return Partition(_canonical(ids))

    @staticmethod
    def zero(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def one(n: int) -> "Partition":
        return Partition((0,) * n)

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        classes = Classes(n)
        for a, b in pairs:
            classes.merge(a, b)
        return Partition.from_ids(classes.label)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def num_classes(self) -> int:
        """Read off the ids once per partition; not a compared field."""
        return max(self.ids) + 1 if self.ids else 0

    def same(self, a: int, b: int) -> bool:
        return self.ids[a] == self.ids[b]

    def class_of(self, a: int) -> int:
        return self.ids[a]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.ids):
            out[c].append(x)
        return out

    def leq(self, other: "Partition") -> bool:
        """self refines other: every self-class sits inside an other-class."""
        if self.n != other.n:
            raise ValueError("partitions over different universes")
        seen: dict[int, int] = {}
        for x in range(self.n):
            c = self.ids[x]
            if c in seen:
                if other.ids[x] != seen[c]:
                    return False
            else:
                seen[c] = other.ids[x]
        return True

    def meet(self, other: "Partition") -> "Partition":
        if self.n != other.n:
            raise ValueError("partitions over different universes")
        return Partition(_canonical(list(zip(self.ids, other.ids))))  # type: ignore[arg-type]

    def spanning_pairs(self) -> list[tuple[int, int]]:
        """(u, v) for the first member u of each class and each other member
        v: the least pair list whose equivalence closure is self."""
        first: dict[int, int] = {}
        return [(first[c], v) for v, c in enumerate(self.ids) if first.setdefault(c, v) != v]

    def is_zero(self) -> bool:
        return self.num_classes == self.n

    def is_one(self) -> bool:
        return self.num_classes <= 1

    def __str__(self) -> str:
        return "{" + "|".join(" ".join(str(x) for x in cls) for cls in self.classes()) + "}"

    @staticmethod
    def parse(text: str, n: int) -> "Partition":
        """Parse the {0 2|1 3} display form; singleton classes may be omitted.
        A token that is no integer, an element out of range and an element
        listed twice raise ParseError."""
        body = text.strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        pairs: list[tuple[int, int]] = []
        seen: set[int] = set()
        for chunk in body.split("|"):
            elems = [parse_int(tok, "element", None) for tok in chunk.split()]
            for x in elems:
                if not 0 <= x < n:
                    raise ParseError(f"element {x} out of range for size {n}")
                if x in seen:
                    raise ParseError(f"element {x} listed twice")
                seen.add(x)
            pairs.extend((elems[0], x) for x in elems[1:])
        return Partition.from_pairs(n, pairs)
