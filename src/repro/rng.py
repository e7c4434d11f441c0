"""Deterministic random-number management.

Every stochastic component of the library takes a :class:`numpy.random.
Generator`.  Experiments need many independent streams (one per node,
one per scheme, one per Monte-Carlo run) that are reproducible from a
single integer seed; :func:`spawn` and :func:`derive` provide that
without global state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "derive", "derive_seed", "spawn"]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` for OS entropy.  This lets public APIs take a single
    ``rng`` argument of any of those three kinds.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator from *seed* and a key path.

    The same ``(seed, path)`` always yields the same stream, and
    distinct paths yield statistically independent streams.  Strings in
    the path are hashed stably (not with :func:`hash`, which is salted
    per process).
    """
    return np.random.default_rng(np.random.SeedSequence(_path_words(seed, path)))


def _path_words(seed: int, path: tuple[int | str, ...]) -> list[int]:
    """The 32-bit entropy words encoding a ``(seed, path)`` pair."""
    words: list[int] = [seed & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            acc = 2166136261
            for ch in part.encode("utf-8"):
                acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
            words.append(acc)
        else:
            words.append(int(part) & 0xFFFFFFFF)
    return words


def derive_seed(seed: int, *path: int | str) -> int:
    """Derive a stable 63-bit integer seed from *seed* and a key path.

    The integer form of :func:`derive`: the same ``(seed, path)``
    always yields the same integer, which can cross process boundaries
    (multiprocessing workers, JSON trial manifests, shell reruns) and
    be handed to :func:`make_rng` or a simulator ``seed=`` argument to
    reproduce a trial standalone.
    """
    state = np.random.SeedSequence(_path_words(seed, path)).generate_state(
        1, np.uint64
    )
    return int(state[0] >> 1)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split *rng* into *n* independent child generators."""
    seq = rng.bit_generator.seed_seq
    if not isinstance(seq, np.random.SeedSequence):  # pragma: no cover
        seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return [np.random.default_rng(child) for child in seq.spawn(n)]
