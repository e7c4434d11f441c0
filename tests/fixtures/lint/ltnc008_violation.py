"""LTNC008 fixture: set contents read in CPython's hash order."""


class Index:
    def __init__(self, k: int) -> None:
        self.buckets: dict[int, set[int]] = {}
        self.by_native: list[set[int]] = [set() for _ in range(k)]
        self.decoded: set[int] = set()

    def pool(self, degree: int) -> tuple[int, ...]:
        return tuple(frozenset(self.buckets[degree]))

    def peel_order(self, native: int) -> list[int]:
        return list(self.by_native[native])

    def any_decoded(self) -> int:
        return next(iter(self.decoded))


def first_of(support: set[int]) -> int:
    return next(iter(support), -1)


def pairs(a: int, b: int) -> list[int]:
    return list({a, b}) + list({x + 1 for x in (a, b)})
