"""LTNC008 clean twin: set reads in ascending order, or no order read."""

from typing import Iterable


class Index:
    def __init__(self, k: int) -> None:
        self.buckets: dict[int, set[int]] = {}
        self.by_native: list[set[int]] = [set() for _ in range(k)]
        self.decoded: set[int] = set()
        self.pids: list[int] = []

    def pool(self, degree: int) -> list[int]:
        return sorted(self.buckets[degree])

    def peel_order(self, native: int) -> list[int]:
        return sorted(self.by_native[native])

    def lowest_decoded(self) -> int:
        return min(self.decoded)

    def stats(self, native: int) -> tuple[int, bool, list[int], list[int]]:
        # Size, membership, the dict's keys (insertion order) and a list
        # copy are not set-order reads.
        held = len(self.decoded) + len(self.by_native[native])
        return held, native in self.decoded, list(self.buckets), list(self.pids)


def first_of(support: Iterable[int]) -> int:
    # The parameter is annotated as an iterable here, not as a set.
    return next(iter(support))


def halves(support: set[int]) -> tuple[list[int], list[int]]:
    ordered = sorted(support)
    return ordered[: len(ordered) // 2], list(ordered[len(ordered) // 2 :])
