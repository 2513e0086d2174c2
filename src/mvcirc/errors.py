"""Exception types, the parsers' integer reader and the three-valued answer."""

from __future__ import annotations

import enum


class MvcircError(Exception):
    """Base class for all package errors."""


class UnknownOp(MvcircError):
    pass


class UnboundVariable(MvcircError):
    pass


class ElementOutOfRange(MvcircError):
    pass


class CapExceeded(MvcircError):
    """A closure grew past its cap: algebra.CLONE_CAP polynomial tables or
    congruence.LATTICE_CAP congruences."""

    def __init__(self, count: int, what: str = "closure"):
        super().__init__(f"{what} exceeded cap at {count} entries")
        self.count = count


class NotACongruence(MvcircError):
    pass


class UntypedLattice(MvcircError):
    pass


class ParseError(MvcircError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} at line {line}")
        self.line = line


def parse_int(tok: str, what: str, line: int | None) -> int:
    """tok as an integer, else a ParseError naming what it should be."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", line) from None


class ForwardReference(ParseError):
    pass


class ArityMismatch(MvcircError):
    pass


class UnboundInput(MvcircError):
    pass


class BudgetExceeded(MvcircError):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"would need {needed} evaluations, budget is {budget}")
        self.needed = needed
        self.budget = budget


class NotDlLike(MvcircError):
    pass


class NotMalcev(MvcircError):
    pass


class NotAffine(MvcircError):
    pass


class NotSupernilpotent(MvcircError):
    pass


class UnsupportedKind(MvcircError, TypeError):
    """A fast route was asked for a problem kind it does not decide."""


class InvalidWitness(MvcircError):
    pass


class NotPermutationWarning(UserWarning):
    """The translation x -> d(x, y, a) is not a permutation for some y."""


class Tri(enum.Enum):
    """Three-valued answer: cap-bounded searches may come back undecided."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against accidental truthiness
        raise TypeError("Tri is three-valued; compare against Tri.YES/NO/UNKNOWN explicitly")
