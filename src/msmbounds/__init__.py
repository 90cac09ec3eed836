"""Partial-identification bounds for treatment effects under bounded
odds-ratio confounding, with cross-fitted influence-function estimators,
Wald inference, and a coverage harness whose ground truth is a quadrature
or, for a finite discrete process, the greedy sharp-bound oracle."""

__version__ = "0.1.0"

from . import core, cvar, learners, estimator, oracle, coverage

# Each module's ``__all__`` is the one list of its public names.
__all__ = ["__version__", *(name for m in (core, cvar, learners, estimator, oracle, coverage) for name in m.__all__)]

from .core import *  # noqa: E402, F403
from .cvar import *  # noqa: E402, F403
from .learners import *  # noqa: E402, F403
from .estimator import *  # noqa: E402, F403
from .oracle import *  # noqa: E402, F403
from .coverage import *  # noqa: E402, F403
