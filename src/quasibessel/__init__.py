"""Fractional power-series solver for quasi-Bessel equations.

Constructs, screens, and evaluates series solutions
u(x) = sum_n c_n x^(gamma + s*n) of

    sum_i d_i x^(alpha_i + p_i) D^alpha_i u(x) + (x^beta - nu^2) u(x) = 0

for Caputo and Riemann-Liouville derivatives, including the reductions of
constant-coefficient and power-factor equations to this form.

The public names are those that each of the six modules below declares in
its own ``__all__``; the package re-exports every one of them, and its
``__all__`` is those lists joined in module order.
"""

from . import characteristic, equation, gammafn, rational, series, specialfn
from .characteristic import *
from .equation import *
from .gammafn import *
from .rational import *
from .series import *
from .specialfn import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (characteristic, equation, gammafn, rational, series, specialfn)
    for name in module.__all__
]
