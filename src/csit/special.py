"""Real-argument special functions used by the transform kernels.

shi and si are the hyperbolic and ordinary sine integrals

    shi(z) = integral_0^z sinh(t)/t dt,    si(z) = integral_0^z sin(t)/t dt,

both odd, both zero at the origin.  sinc_kernel is the unnormalized
cardinal sine sin(w)/w with the removable singularity filled in.

scipy is imported inside shi and si, on first use: the routes that never
evaluate a sine integral (advection, the frequency estimators, the
quadrature transform) then start without it.  ``scipy.special`` is the
only part of scipy the package loads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shi", "si", "sinc_kernel"]

# sinh overflows float64 near 710; shi(z) ~ e^z/(2z) overflows shortly after
_SHI_OVERFLOW = 713.0


def shi(z):
    """Hyperbolic sine integral, elementwise on real input.

    Raises
    ------
    OverflowError
        If ``|z|`` is large enough that sinh exceeds the float64 range.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(np.abs(z) > _SHI_OVERFLOW):
        raise OverflowError(
            f"shi argument exceeds the representable range (|z| > {_SHI_OVERFLOW:g})"
        )
    from scipy.special import shichi

    out = shichi(z)[0]
    return out if out.ndim else float(out)


def si(z):
    """Sine integral, elementwise on real input; si(z) -> pi/2 as z -> inf."""
    from scipy.special import sici

    z = np.asarray(z, dtype=np.float64)
    out = sici(z)[0]
    return out if out.ndim else float(out)


def sinc_kernel(w):
    """sin(w)/w with sinc_kernel(0) == 1, elementwise on real input."""
    w = np.asarray(w, dtype=np.float64)
    out = np.sinc(w / np.pi)
    return out if out.ndim else float(out)
