"""Exact computations with finite-type knot invariants.

The package makes the two standard difference calculi on knot diagrams
executable with exact arithmetic: iterated crossing-switch differences
(with type tests for the Conway coefficient c2 and the Jones derivative
j3), iterated detour differences over switch-region families, the
encoding of marked double points as detour families with a checkable
equality between the two difference sums, chord-diagram spaces modulo
the four-term and framing-independence relations, and Hopf-pair bracelet
links with a linking-matrix detector.  Everything answers in integers,
rationals, or Laurent polynomials; nothing is ever rounded.

The root re-exports each module's ``__all__``; those lists are the only
record of what is public.
"""

from . import bracelets, chord_algebra, diagram, exact_math
from . import goussarov, invariants, tables, vassiliev
from .bracelets import *  # noqa: F401,F403
from .chord_algebra import *  # noqa: F401,F403
from .diagram import *  # noqa: F401,F403
from .exact_math import *  # noqa: F401,F403
from .goussarov import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403
from .vassiliev import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        bracelets, chord_algebra, diagram, exact_math, goussarov, invariants, tables, vassiliev
    )
    for name in module.__all__
]
