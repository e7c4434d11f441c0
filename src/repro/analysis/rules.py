"""The determinism-contract rules (LTNC001–LTNC008).

Each rule encodes one invariant the repo's reproduction claims rest on,
with the contract's origin noted next to it.  Rules are deliberately
syntactic: they inspect the AST of one module at a time, never import
the code under analysis, and prefer a rare false positive (silenced
with an audited inline suppression) over a silent false negative in a
hot path.  Aliased imports (``import time as t``) can evade them; the
point is catching the overwhelmingly common direct spelling at review
time, not adversarial obfuscation.

Scope: every rule applies under ``src/repro/`` only.  Tests and
benchmarks legitimately use wall clocks, ``random`` and raw writes;
the library must not.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import Finding, Module
from repro.analysis.schemas import contracts_for_path

__all__ = [
    "RULES",
    "RULES_BY_CODE",
    "Rule",
    "dotted_name",
]

_SRC_PREFIX = "src/repro/"


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Rule:
    """One lintable contract: a code, a scope, and an AST check."""

    code: str = "LTNC000"
    name: str = "base"
    summary: str = ""
    #: Logical paths exempt from this rule (the sanctioned call sites).
    allow: frozenset[str] = frozenset()

    def applies(self, logical: str) -> bool:
        return logical.startswith(_SRC_PREFIX) and logical not in self.allow

    def check(self, mod: Module) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> dict[str, object]:
        return {
            "code": self.code,
            "name": self.name,
            "summary": self.summary,
            "allow": sorted(self.allow),
        }


class DirectRandomnessRule(Rule):
    """LTNC001 — randomness flows only through ``repro.rng``.

    Worker-count and shard-count invariance hold because every stream
    is derived from the trial seed tree (PR 1); one ``random.random()``
    or stray ``np.random.default_rng()`` silently breaks both.
    """

    code = "LTNC001"
    name = "no-direct-randomness"
    summary = (
        "import random / numpy.random use is banned in src/; derive "
        "streams via repro.rng (make_rng/derive/spawn)"
    )
    allow = frozenset({"src/repro/rng.py"})

    def check(self, mod: Module) -> Iterator[Finding]:
        numpy_aliases = {"numpy"}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy" and alias.asname:
                        numpy_aliases.add(alias.asname)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield mod.finding(
                            self.code,
                            node,
                            "stdlib `random` is seed-tree-unaware; use "
                            "repro.rng",
                        )
                    elif alias.name == "numpy.random":
                        yield mod.finding(
                            self.code,
                            node,
                            "import numpy.random directly creates "
                            "unmanaged streams; use repro.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield mod.finding(
                        self.code,
                        node,
                        "stdlib `random` is seed-tree-unaware; use repro.rng",
                    )
                elif module == "numpy.random" or module.startswith(
                    "numpy.random."
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        "from numpy.random import ... bypasses the "
                        "repro.rng derive tree",
                    )
                elif module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        "from numpy import random bypasses the repro.rng "
                        "derive tree",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) >= 3
                    and parts[0] in numpy_aliases
                    and parts[1] == "random"
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        f"call to {dotted} creates an unmanaged stream; "
                        "use repro.rng.make_rng/derive",
                    )


class WallClockRule(Rule):
    """LTNC002 — worker/simulator code reads monotonic clocks only.

    Traces, spans and phase profiles timestamp with ``time.monotonic``
    / ``perf_counter`` offsets (PR 7) so artifacts stay byte-stable
    across NTP steps and hosts; wall-clock reads belong only to
    explicitly host-side surfaces.
    """

    code = "LTNC002"
    name = "monotonic-clocks-only"
    summary = (
        "time.time/gmtime/localtime/ctime and datetime.now/utcnow/today "
        "are banned outside the host-side allowlist; workers use "
        "time.monotonic/perf_counter"
    )
    #: perfbench stamps --history-dir filenames with UTC wall time —
    #: an operator-facing CLI artifact name, never worker state.
    allow = frozenset({"src/repro/experiments/perfbench.py"})

    _banned = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.ctime",
            "time.localtime",
            "time.gmtime",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and any(
                    alias.name in ("time", "time_ns") for alias in node.names
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        "from time import time hides a wall-clock read; "
                        "import the module and use time.monotonic",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in self._banned:
                    yield mod.finding(
                        self.code,
                        node,
                        f"{dotted}() reads the wall clock; worker code is "
                        "monotonic-only (time.monotonic/perf_counter)",
                    )


class AtomicArtifactRule(Rule):
    """LTNC003 — artifacts are written atomically, never torn.

    A crash mid-write must not leave truncated JSON for a checkpoint
    resume or a progress poller to trust (PR 6); every artifact goes
    through :func:`repro.fileio.atomic_write_text`, whose temp-file
    handle comes from ``os.fdopen`` and so needs no exemption.
    """

    code = "LTNC003"
    name = "atomic-artifact-writes"
    summary = (
        "open(..., 'w')/json.dump/Path.write_text are banned in src/; "
        "serialise with json.dumps and write via atomic_write_text"
    )
    #: tracer streams records line-by-line as they happen (an append-
    #: only log, unreadable-tail-tolerant by design).
    allow = frozenset({"src/repro/obs/tracer.py"})

    _openers = frozenset({"open", "io.open", "gzip.open"})

    @staticmethod
    def _write_mode(node: ast.Call) -> str | None:
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(ch in mode.value for ch in "wax")
        ):
            return mode.value
        return None

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in self._openers:
                mode = self._write_mode(node)
                if mode is not None:
                    yield mod.finding(
                        self.code,
                        node,
                        f"{dotted}(..., {mode!r}) writes non-atomically; "
                        "build the text and use atomic_write_text",
                    )
            elif dotted is not None and dotted.endswith("json.dump"):
                yield mod.finding(
                    self.code,
                    node,
                    "json.dump streams into a raw file handle; use "
                    "json.dumps + atomic_write_text",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield mod.finding(
                    self.code,
                    node,
                    f"Path.{node.func.attr} truncates in place; use "
                    "atomic_write_text",
                )


class ObsIsolationRule(Rule):
    """LTNC004 — observability never perturbs the simulation.

    ``repro.obs`` is zero-cost when disabled and invisible when
    enabled: no rng draws, no OpCounter charges (PR 7's byte-identical
    goldens depend on it).  Importing ``repro.rng`` or touching
    OpCounters from an obs module would let tracing change results.
    """

    code = "LTNC004"
    name = "obs-isolation"
    summary = (
        "repro.obs modules must not import repro.rng/repro.costmodel "
        "or reference OpCounter (zero-cost-when-disabled contract)"
    )

    def applies(self, logical: str) -> bool:
        return logical.startswith("src/repro/obs/")

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.rng" or alias.name.startswith(
                        "repro.costmodel"
                    ):
                        yield mod.finding(
                            self.code,
                            node,
                            f"obs must not import {alias.name} "
                            "(observability cannot touch rng/cost state)",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
                if (
                    module == "repro.rng"
                    or module.startswith("repro.costmodel")
                    or (module == "repro" and names & {"rng", "costmodel"})
                    or (module == "repro" and "OpCounter" in names)
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        f"obs must not import from {module or 'repro'} "
                        "(observability cannot touch rng/cost state)",
                    )
            elif isinstance(node, ast.Name) and node.id == "OpCounter":
                yield mod.finding(
                    self.code,
                    node,
                    "obs code references OpCounter; counter totals are "
                    "golden-pinned and must not move when tracing",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "OpCounter":
                yield mod.finding(
                    self.code,
                    node,
                    "obs code references OpCounter; counter totals are "
                    "golden-pinned and must not move when tracing",
                )


class EnvGatewayRule(Rule):
    """LTNC005 — the process environment is read in exactly one place.

    Environment knobs change workload identity (``LTNC_SCALE`` picks
    the profile baked into goldens); scattering ``os.environ`` reads
    makes the set of reproducibility-relevant variables unknowable.
    ``repro.config`` is the single sanctioned gateway.
    """

    code = "LTNC005"
    name = "env-gateway"
    summary = (
        "os.environ/os.getenv reads are banned outside repro.config; "
        "go through repro.config.env_str"
    )
    allow = frozenset({"src/repro/config.py"})

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute):
                if dotted_name(node) == "os.environ":
                    yield mod.finding(
                        self.code,
                        node,
                        "os.environ read outside the gateway; use "
                        "repro.config.env_str",
                    )
            elif isinstance(node, ast.Call):
                if dotted_name(node.func) == "os.getenv":
                    yield mod.finding(
                        self.code,
                        node,
                        "os.getenv read outside the gateway; use "
                        "repro.config.env_str",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names
                ):
                    yield mod.finding(
                        self.code,
                        node,
                        "importing environ/getenv bypasses the gateway; "
                        "use repro.config.env_str",
                    )


class SchemaRegistryRule(Rule):
    """LTNC006 — schema constants live in (and match) the registry.

    Every schema-versioned artifact declares ``*_FORMAT``/``*_VERSION``
    constants; :mod:`repro.analysis.schemas` is the single place that
    pairs each writer with its validator.  This rule fails when a
    writer's constants drift from the registry or a new schema constant
    appears unregistered (the runtime half is ``verify_registry``).
    """

    code = "LTNC006"
    name = "schema-registry"
    summary = (
        "*_FORMAT/*_VERSION artifact constants must be declared in and "
        "match repro.analysis.schemas.SCHEMAS"
    )

    _const_re = re.compile(r"^[A-Z][A-Z0-9_]*_(FORMAT|VERSION)$")

    def check(self, mod: Module) -> Iterator[Finding]:
        contracts = contracts_for_path(mod.logical)
        expected: dict[str, object] = {}
        for contract in contracts:
            expected[contract.version_const] = contract.version
            if contract.format_const is not None:
                expected[contract.format_const] = contract.format
        seen: set[str] = set()
        for node in mod.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not isinstance(value, ast.Constant):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                is_schema_const = bool(self._const_re.match(name)) or (
                    isinstance(value.value, str)
                    and value.value.startswith("ltnc-")
                )
                if not is_schema_const:
                    continue
                seen.add(name)
                if name not in expected:
                    yield mod.finding(
                        self.code,
                        node,
                        f"schema constant {name} = {value.value!r} is not "
                        "registered in repro.analysis.schemas.SCHEMAS",
                    )
                elif expected[name] != value.value:
                    yield mod.finding(
                        self.code,
                        node,
                        f"{name} = {value.value!r} disagrees with the "
                        f"registry ({expected[name]!r}); bump both "
                        "together",
                    )
        for contract in contracts:
            for const in (contract.version_const, contract.format_const):
                if const is not None and const not in seen:
                    yield mod.finding(
                        self.code,
                        mod.tree,
                        f"registered constant {const} ({contract.artifact}) "
                        "is missing from this module",
                    )


class SortedJsonRule(Rule):
    """LTNC007 — JSON artifacts serialise with canonical key order.

    Byte-identical artifacts across resume cycles and worker splits
    (PR 6's checkpoint fingerprints, PR 8's mergeable telemetry) hold
    only if serialisation is insertion-order-independent; a
    ``json.dumps`` without ``sort_keys=True`` byte-churns the artifact
    the moment a writer builds its dict in a different order.  Calls
    forwarding ``**kwargs`` are skipped — the key-order decision is the
    caller's and not statically knowable.
    """

    code = "LTNC007"
    name = "sorted-json"
    summary = (
        "json.dumps in src/ must pass sort_keys=True (canonical key "
        "order keeps artifacts byte-stable); **kwargs pass-throughs "
        "are exempt"
    )

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted != "json.dumps" and not (
                dotted is not None and dotted.endswith(".json.dumps")
            ):
                continue
            sort_kw: ast.expr | None = None
            forwards_kwargs = False
            for kw in node.keywords:
                if kw.arg is None:
                    forwards_kwargs = True
                elif kw.arg == "sort_keys":
                    sort_kw = kw.value
            if sort_kw is None:
                if forwards_kwargs:
                    continue
                yield mod.finding(
                    self.code,
                    node,
                    "json.dumps without sort_keys=True serialises in "
                    "dict insertion order; artifacts must use canonical "
                    "key order",
                )
            elif isinstance(sort_kw, ast.Constant) and sort_kw.value is not True:
                yield mod.finding(
                    self.code,
                    node,
                    f"sort_keys={sort_kw.value!r} disables canonical key "
                    "order; artifacts must serialise sorted",
                )


def _is_set_type(node: ast.expr) -> bool:
    """True for a ``set``/``frozenset`` annotation, bare or subscripted."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("set", "frozenset")


def _holds_sets(node: ast.expr) -> bool:
    """True for a container of sets: ``list[set[int]]``,
    ``dict[int, frozenset[int]]`` (the item type is the last argument)."""
    if not isinstance(node, ast.Subscript) or _is_set_type(node):
        return False
    args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    types = [a for a in args if not isinstance(a, ast.Constant)]  # drop `...`
    return bool(types) and _is_set_type(types[-1])


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of *scope*, yielding nested functions without entering them."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _declared(
    node: ast.expr, names: dict[str, ast.expr], attrs: dict[str, ast.expr]
) -> ast.expr | None:
    """The annotation of a name or attribute, if this module gives one."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        return attrs.get(node.attr)
    return None


class SetOrderRule(Rule):
    """LTNC008 — LTNC reads its sets in a stated order.

    CPython iterates a set of ints in hash-table order, a function of
    the set's whole insertion and deletion history that the language
    does not define (PyPy iterates in insertion order).  The recoder's
    uniform picks, the refinement's argmin ties and the belief
    propagation peel order all index into such sets, so each read
    takes ascending id order: ``sorted(E)`` or ``min(E)``, never a
    ``list(E)``/``tuple(E)`` snapshot or ``next(iter(E))``.  ``E`` is
    set-typed when it is a ``set(...)``/``frozenset(...)`` call, a set
    display or comprehension, or a name, attribute or subscript that
    this module annotates as a set or as a container of sets.
    """

    code = "LTNC008"
    name = "set-order"
    summary = (
        "list(E)/tuple(E)/next(iter(E)) over a set materialises CPython's "
        "hash order under core/, lt/ and baselines/; read it with "
        "sorted(E) or min(E)"
    )

    def applies(self, logical: str) -> bool:
        return logical.startswith(
            ("src/repro/core/", "src/repro/lt/", "src/repro/baselines/")
        )

    def check(self, mod: Module) -> Iterator[Finding]:
        # Attribute annotations (``self.x: T`` and class-body fields)
        # hold module-wide; name annotations hold in their scope.
        attrs: dict[str, ast.expr] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                attrs[node.target.attr] = node.annotation
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        attrs[stmt.target.id] = stmt.annotation
        yield from self._check_scope(mod, mod.tree, {}, attrs)

    def _check_scope(
        self,
        mod: Module,
        scope: ast.AST,
        outer: dict[str, ast.expr],
        attrs: dict[str, ast.expr],
    ) -> Iterator[Finding]:
        names = dict(outer)
        if isinstance(scope, _SCOPES):
            arguments = scope.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            ):
                if arg.annotation is None:
                    names.pop(arg.arg, None)
                else:
                    names[arg.arg] = arg.annotation
        own = list(_scope_nodes(scope))
        for node in own:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names[node.target.id] = node.annotation

        def is_set(node: ast.expr) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                return isinstance(node.func, ast.Name) and node.func.id in (
                    "set",
                    "frozenset",
                )
            if isinstance(node, ast.Subscript):
                container = _declared(node.value, names, attrs)
                return container is not None and _holds_sets(container)
            annotation = _declared(node, names, attrs)
            return annotation is not None and _is_set_type(annotation)

        for node in own:
            if isinstance(node, _SCOPES):
                yield from self._check_scope(mod, node, names, attrs)
                continue
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.args
            ):
                continue
            func, arg = node.func.id, node.args[0]
            if func in ("list", "tuple") and is_set(arg):
                read = f"{func}(...)"
            elif (
                func == "next"
                and isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "iter"
                and arg.args
                and is_set(arg.args[0])
            ):
                read = "next(iter(...))"
            else:
                continue
            yield mod.finding(
                self.code,
                node,
                f"{read} over a set reads CPython's hash order; use "
                "sorted(...) or min(...) for a stated order",
            )


RULES: tuple[Rule, ...] = (
    DirectRandomnessRule(),
    WallClockRule(),
    AtomicArtifactRule(),
    ObsIsolationRule(),
    EnvGatewayRule(),
    SchemaRegistryRule(),
    SortedJsonRule(),
    SetOrderRule(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in RULES}
