"""unirep: unit-interval representation of multivariate function families.

Build table-kernel families over discrete probability spaces, transfer
them to step kernels on ([0,1], Lebesgue) so that all joint laws of
evaluations at iid points are preserved, sample the induced
exchangeable arrays and random graphs deterministically, and verify the
preservation exactly (small instances) or statistically (at scale).

Each public name is declared once, in its submodule's ``__all__``; the
package re-exports all of them.
"""

from . import equivalence, errors, kernels, representation, sampling, spaces, specfile
from .equivalence import *  # noqa: F403
from .errors import *  # noqa: F403
from .kernels import *  # noqa: F403
from .representation import *  # noqa: F403
from .sampling import *  # noqa: F403
from .spaces import *  # noqa: F403
from .specfile import *  # noqa: F403

__version__ = "0.1.0"

_SUBMODULES = (equivalence, errors, kernels, representation, sampling, spaces, specfile)
__all__ = sorted(name for module in _SUBMODULES for name in module.__all__)
