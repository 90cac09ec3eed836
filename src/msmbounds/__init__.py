"""Partial-identification bounds for treatment effects under bounded
odds-ratio confounding: shared types in ``core``, nuisance fits in
``learners``, cross-fitted estimates and Wald limits in ``estimator``, and
simulators, ground truth and the coverage harness in ``coverage``."""

__version__ = "0.1.0"

from . import core, learners, estimator, coverage

# Each module's ``__all__`` is the one list of its public names.
__all__ = ["__version__", *(name for m in (core, learners, estimator, coverage) for name in m.__all__)]

from .core import *  # noqa: E402, F403
from .learners import *  # noqa: E402, F403
from .estimator import *  # noqa: E402, F403
from .coverage import *  # noqa: E402, F403
