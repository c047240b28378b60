"""Piecewise-linear heteroclinic-cycle model between two saddle-foci.

The package builds exact section-to-section hitting times for the flow,
diagnoses their asymptotic identities, certifies historic (two-limit)
behavior of time averages, constructs the adjusted time sequence, and
replays it on a second system to test topological conjugacy.
"""

from . import adjusted, birkhoff, conjugacy, diagnostics, errors, flow, hitting, params
from .adjusted import *  # noqa: F403
from .birkhoff import *  # noqa: F403
from .conjugacy import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .flow import *  # noqa: F403
from .hitting import *  # noqa: F403
from .params import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (adjusted, birkhoff, conjugacy, diagnostics, errors, flow, hitting, params)
    for name in module.__all__
]
