"""Two-state multinomial hidden Markov models near the i.i.d. boundary.

Parametrizations, the law of three consecutive observations, exact
filtering and likelihoods, minimum-distance estimation, and Monte-Carlo
rate experiments locating the learnability frontier.  The package re-exports
every library module's ``__all__``.
"""

from .errors import *
from .estimator import *
from .experiments import *
from .filter_kl import *
from .params import *
from .simulate import *
from .triple_law import *

__version__ = "0.1.0"
