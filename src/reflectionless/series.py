"""Empty: the series layer is gone.

Jacobi reconstruction reads the half-line measures' moments in the free
basis U_k(x/2) straight off the moments of sigma, so no truncated series
algebra is left.  The module stays importable because the benchmark's cache
reset and tracer import it by name.
"""
