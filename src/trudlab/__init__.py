"""trudlab: numerical laboratory for Trudinger-type doubly nonlinear diffusion.

Modules
-------
exponent      the exponent law (g, k, d) that finite p and infinity share
operators     radial p-/infinity-Laplacian and the parabolic residuals
barriers      closed-form sub/super-solution catalog with sign verification
eigensolver   first eigenvalue and delta-boundary problem on balls (shooting)
pde           log-implicit and direct-implicit (BDF2) radial time stepping
experiments   scripted decay / flattening / unbounded-domain studies
artifacts     collision-free output file naming
cli           command-line front end
"""

from .exponent import INFINITY, Exponent
from .grids import RadialGrid, SpaceTimeField

__version__ = "0.1.0"

__all__ = ["Exponent", "INFINITY", "RadialGrid", "SpaceTimeField", "__version__"]
