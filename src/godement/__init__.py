"""Matrix-valued positive definite functions on finite groups.

Convolution *-algebra, positive definiteness certification, spectral
and iterative convolution square roots, and executable theorem suites.
Spectral work is done block by block in a Fourier basis of the group
(see fourier), which keeps groups of a few hundred elements, such as S5
and its products, at millisecond cost for small matrix dimension.  Each module's __all__
lists its public names, and the package re-exports all of them.
"""

from .groups import *
from .matfun import *
from .fourier import *
from .operators import *
from .reps import *
from .roots import *
from .theorems import *

__version__ = "0.1.0"
