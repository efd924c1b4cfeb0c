"""Fisher-Rao distances between band-limited signals observed in Gaussian noise.

Signals are represented by their complex spectra on a discrete frequency
band and identified with the means of circular complex Gaussian observation
laws.  The package computes the information metric of parametric signal
charts, the connection symbols, closed-form geodesics and distances on the
full band manifold and on the known-magnitude submanifold, and verifies
every closed form against an independent numerical oracle.
"""

# Each module's __all__ is its public surface; the package re-exports them all.
from . import band, distances, figures, geodesics, metric, models
from .band import *  # noqa: F403
from .distances import *  # noqa: F403
from .figures import *  # noqa: F403
from .geodesics import *  # noqa: F403
from .metric import *  # noqa: F403
from .models import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(band.__all__ + distances.__all__ + figures.__all__ + geodesics.__all__ + metric.__all__ + models.__all__)
