"""Helpers shared by the test modules."""

import numpy as np

from loopshift import Polynomial


def poly_from_roots(roots, leading: float = 1.0) -> Polynomial:
    """Real polynomial ``leading * prod(z - r)``; imaginary residue left by a
    conjugate-closed root set is discarded."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0.0j]))
    return Polynomial(tuple((leading * acc).real))
