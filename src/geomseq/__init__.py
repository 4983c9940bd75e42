"""Sequence spaces over multiplicative arithmetic.

The ground arithmetic replaces addition with multiplication: numbers live on
the positive half-line, 1 plays the role of zero, e the role of one, and
every operation acts on logarithms.  On top of it sit lazy positive
sequences, a multiplicative difference operator of arbitrary order, window
classifiers for the bounded / convergent / null difference spaces, and the
four multiplier-dual tests.

Quick tour::

    >>> from geomseq import seq_from_expr, delta_binomial, term
    >>> x = seq_from_expr("exp(k^2)")
    >>> term(delta_binomial(x, 2), 7).log_value
    2.0
"""

# Each module's __all__ is its one list of public names; the package
# re-exports every one of them.
from .errors import *  # noqa: F403
from .garith import *  # noqa: F403
from .exprdsl import *  # noqa: F403
from .gseq import *  # noqa: F403
from .gdiff import *  # noqa: F403
from .spaces import *  # noqa: F403
from .duals import *  # noqa: F403
from .catalog import *  # noqa: F403
from . import catalog, duals, errors, exprdsl, garith, gdiff, gseq, spaces

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, garith, exprdsl, gseq, gdiff, spaces, duals, catalog)
    for name in module.__all__
]
