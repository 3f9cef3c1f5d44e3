"""Tensor Gauss-Hermite quadrature for ``E f(G)``, kept as a test oracle.

The library takes Gaussian expectations of polynomials exactly, through
``correctors.gaussian_expect_poly``.  The quadrature here is an independent
float route to the same numbers, and it also integrates callables that are
not polynomials.
"""

import math

import numpy as np


def gauss_hermite(f, dim: int = 1, nodes: int = 64) -> float:
    """``E f(G)`` for standard Gaussian G by tensor Gauss-Hermite quadrature.

    Probabilists' weight; exact for polynomials of per-axis degree
    ``<= 2*nodes - 1``.  For ``dim == 1`` the integrand receives a flat
    array of points, otherwise an array of shape ``(K, dim)``.
    """
    if nodes < 2:
        raise ValueError("nodes must be >= 2")
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    norm = math.sqrt(2 * math.pi)
    if dim == 1:
        return float(np.sum(w * np.asarray(f(x))) / norm)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return float(np.sum(wts * np.asarray(f(pts))) / norm**dim)
