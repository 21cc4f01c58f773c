"""Independent references the tests check the package against.

`nu_engine` derives the Nikiforov-Uvarov reduction from its defining
polynomials; `jacobi_forms` holds the alternative forms of the Jacobi
polynomial and 1F1; `wavefunction_checks` the PT inner product by quadrature
and a node counter. The package imports none of them.
"""
