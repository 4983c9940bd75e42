"""Sequence spaces over multiplicative arithmetic.

The ground arithmetic replaces addition with multiplication: numbers live on
the positive half-line, 1 plays the role of zero, e the role of one, and
every operation acts on logarithms.  On top of it sit lazy positive
sequences, a multiplicative difference operator of arbitrary order, window
classifiers for the bounded / convergent / null difference spaces, and the
four multiplier-dual tests.

``import geomseq`` loads at once the core that every use needs: ``errors``,
``garith``, ``exprdsl`` and ``gseq``, with numpy.  ``gdiff``, ``spaces``,
``duals`` and ``catalog`` load on first use of one of their names or of the
module itself; ``geomseq.__all__`` and ``from geomseq import *`` load all
four.  So a command-line call imports only the modules its command uses.

Quick tour::

    >>> from geomseq import seq_from_expr, delta_binomial, term
    >>> x = seq_from_expr("exp(k^2)")
    >>> term(delta_binomial(x, 2), 7).log_value
    2.0
"""

from importlib import import_module as _import_module

# Each module's __all__ is its one list of public names; the package
# re-exports every one of them.
from .errors import *  # noqa: F403
from .garith import *  # noqa: F403
from .exprdsl import *  # noqa: F403
from .gseq import *  # noqa: F403
from . import errors, exprdsl, garith, gseq

__version__ = "0.1.0"

#: Loaded on first use.  Each imports only the core and modules before it,
#: so a name is looked for in no module its home does not load anyway.
_DEFERRED = ("gdiff", "spaces", "duals", "catalog")


def _load(module: str):
    return _import_module(f".{module}", __name__)  # the import binds it here


def __getattr__(name: str):
    """A submodule, a deferred module's public name or the package's
    ``__all__``, imported on first use and bound here, so it is looked up once."""
    if name == "__all__":
        value = [n for module in (errors, garith, exprdsl, gseq, *map(_load, _DEFERRED))
                 for n in module.__all__]
    else:
        value = _find(name) if name.isidentifier() and not name.startswith("_") else None
        if value is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _find(name: str):
    """The submodule ``name``, else the public ``name`` of a deferred module, else None."""
    try:
        return _load(name)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    return next((getattr(m, name) for m in map(_load, _DEFERRED) if name in m.__all__), None)


def __dir__():
    return sorted({*globals(), *_DEFERRED, *__getattr__("__all__")})
