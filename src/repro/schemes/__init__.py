"""First-class pluggable coding schemes (§IV-A) behind one registry.

:mod:`~repro.schemes.descriptor` defines :class:`CodingScheme` — the
descriptor bundling a scheme's node/source factories, capability
flags, typed knob schema, experiment defaults and cost probe — plus
the :class:`SchemeNode` protocol all schemes implement.
:mod:`~repro.schemes.registry` maps names to descriptors
(:func:`register_scheme` / :func:`get_scheme` / :func:`resolve` /
:func:`available_schemes`); :mod:`~repro.schemes.builtin` registers
the paper's WC / RLNC / LTNC evaluation schemes, the ``rndlt``
structure-destroying baseline and the density-limited ``sparse_rlnc``
variant on import.

Every dispatch site — the epidemic and catalogue simulators, scenario
and content specs, the figure harnesses, the CLI — resolves schemes
here, so registering a descriptor is all it takes to plug a new
scheme into the whole stack (README: "Adding a coding scheme").
"""

from repro.schemes.descriptor import (
    CodingScheme,
    CostProbe,
    Knob,
    SchemeNode,
)
from repro.schemes.registry import (
    available_schemes,
    get_scheme,
    register_scheme,
    resolve,
    unregister_scheme,
)
from repro.schemes import builtin  # noqa: F401  (registers built-ins)
from repro.schemes.builtin import WARM_FILL

__all__ = [
    "CodingScheme",
    "CostProbe",
    "Knob",
    "SchemeNode",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "resolve",
    "unregister_scheme",
    "WARM_FILL",
]
