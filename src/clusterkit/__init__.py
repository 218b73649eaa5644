"""Exact-arithmetic workbench for cluster algebras of geometric type.

Subpackage layout, roughly bottom-up:

    laurent    integer Laurent polynomials and tropical monomial arithmetic
    lattice    integer linear algebra (Hermite form, kernels, solving)
    seeds      extended exchange matrices, seeds, mutation, hatted variables
    orbits     rescaling action and seed-orbit equivalence
    quasihom   monomial maps between patterns, verification, construction, nerves
    patterns   exchange-graph exploration, star neighborhoods, quasi-automorphisms
    surfaces   annulus triangulation fixture and lamination/shear checks
    grassmann  Pluecker and band-matrix fixtures and the flat-to-band map
    cli        command line entry points

All arithmetic is exact: integers and integer exponent vectors throughout,
with fraction-free elimination in the linear algebra.
"""

__version__ = "0.1.0"
