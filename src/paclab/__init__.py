"""Simulation and verification laboratory for learning over finite domains.

Everything is built around exact arithmetic on small discrete
distributions: hypothesis classes are label matrices, errors are inner
products, and conditioning renormalizes mass on an agreement region. On top
of that sit the minimization engine, the disagreeing-pair training loop
with its diagnostics, a hard-instance adversary for proper learners, and a
config-driven experiment runner with reproducible seeded trials.

The package re-exports every public name of its library modules; each
module's __all__ is the one list of its public names. The runner, config
and cli modules are imported only when used.
"""

__version__ = "0.1.0"

from . import adversary, core, engine, experts, fixtures, identities, measures
from .adversary import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .experts import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (adversary, core, engine, experts, fixtures, identities, measures)
    for name in module.__all__
]
