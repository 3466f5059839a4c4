"""Exact computation with weak units of Picard groupoids and 2-groupoids.

The library works over finitely generated abelian groups in exact integer
arithmetic.  A 2-term complex of such groups presents a strict Picard
groupoid, a 3-term complex a strict Picard 2-groupoid; their units form
contractible structures whose representing complexes, descent cocycles and
classification groups this package builds and verifies, together with the
nonabelian crossed-module analogue.

Each layer runs only when first used.  ``groups`` (elements,
homomorphisms and complexes as values), ``tables`` (finite groups and
crossed modules by table, as parsed), ``coded`` (table-coded abelian
groups, the unit-groupoid scan), ``covers``, ``console`` (text output and
the argparse fallback), ``abelian`` (Smith forms, kernels, direct sums),
``complexes`` (homology, models, unit complexes), ``crossed``,
``point_models`` and ``cech`` are registered as lazy modules from
``_LAYERS``, which says what each imports; their bodies execute on first
attribute access, and the public names below resolve through
``__getattr__``.  Every command executes ``cli``, ``specfile``,
``reporting`` and ``verification``, and these layers on top, where its
report handlers live too: ``units`` and ``contractible`` execute
``groups``, ``coded`` and ``point_models``; ``homology``, ``unit-complex``
and ``qiso`` execute ``groups``, ``abelian`` and ``complexes``;
``crossed-verify`` executes ``tables`` and ``crossed``; ``crossed-units``
adds ``coded`` for its unit scan, and ``covers`` and ``cech`` for its
nerve; ``cech-classify`` executes ``groups``, ``coded``, ``covers``,
``abelian``, ``complexes`` and ``cech``, and on a 3-term complex all but
``coded``, which only the scans of a 2-term complex use.  Only ``--text``
output and a command line that ``cli`` leaves to argparse execute
``console``.  Parsing executes no other layer than ``groups``, ``tables``
and ``covers``: an input with a nerve adds ``covers``, and one refused
before it builds a group or cover executes none.  Digests use the
interpreter's built-in SHA-256 (see ``verification``), so no command loads
OpenSSL.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# the lazy layers, lowest first, each with the layers it imports names from
# (executed with it) and those it binds as modules (executed on first use)
_LAYERS = {
    "groups": ((), ("abelian",)),
    "tables": ((), ()),
    "coded": ((), ()),
    "covers": ((), ()),
    "console": ((), ()),
    "abelian": (("groups",), ()),
    "complexes": (("groups", "abelian"), ()),
    "crossed": (("tables",), ("coded", "cech")),
    "point_models": (("groups", "coded"), ()),
    "cech": (("covers",), ("groups", "abelian", "complexes", "coded")),
}

# the public names, by the module that defines them
_EXPORTS = {
    "abelian": (
        "cokernel", "direct_sum", "direct_sum_many", "is_isomorphism",
        "kernel", "lift_through", "smith_normal_form", "solve"),
    "cech": (
        "CocycleError", "Nerve", "cech_nerve", "classify_h0",
        "cocycle_of_unit", "torsor_classes", "unit_cocycles",
        "unit_of_cocycle"),
    "complexes": (
        "StrictMorphism", "cone", "cone_comparison", "homology",
        "identity_model", "is_quasi_isomorphism", "kernel_model",
        "kernel_sum_model", "sum_model", "truncate_shift", "unit_complex_1",
        "unit_complex_2"),
    "covers": ("Cover", "cover_of_parts", "point_cover"),
    "crossed": (
        "enumerate_units_nonabelian", "h0_group_law", "pi0_order",
        "pi1_order", "unit_crossed_module", "verify_crossed_module"),
    "groups": ("Complex", "FgAbGroup", "GroupElem", "GroupHom"),
    "point_models": (
        "enumerate_units_1", "enumerate_units_2", "verify_contractible_1",
        "verify_contractible_2"),
    "reporting": ("run",),
    "specfile": ("ComplexSpecFile", "SpecError", "parse_spec"),
    "tables": ("CrossedModule", "FiniteGroup"),
    "verification": ("CapExceeded", "FinitenessError", "Report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = tuple(_HOME)


def _lazy(name):
    """Register unital.<name> in sys.modules without executing it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _LAYERS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
