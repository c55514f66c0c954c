"""Exact likelihood inference for integrated signal-plus-noise observations.

The observed data are increments of X_t = X_0 + int f(alpha, s) ds +
int sigma(beta, s) dW_s read at deterministic, possibly uneven instants.
Increments are independent Gaussians whose means and variances are exact
time integrals of the drift and variance rates, so the likelihood, its
score, the information, and (for linear drifts) the MLE itself are all
available in closed form.  On top of the inference layer sits a
seeded Monte-Carlo harness that checks distributional claims about the
estimators at desk scale.
"""

from .errors import *
from .model import *
from .sampling import *
from .increments import *
from .simulate import *
from .likelihood import *
from .information import *
from .estimate import *
from .experiments import *

__version__ = "0.1.0"
