"""Exact arithmetic for Eisenstein congruence primes and Iwasawa invariants.

Modules:
  quadfield   real quadratic fields, units, factored ideals
  characters  Kronecker characters, induced Hecke characters
  lseries     exact L-values at non-positive integers
  eisenstein  Eisenstein coefficient systems, congruence scanner
  iwasawa     O[[T]] at finite precision, Weierstrass preparation
  measures    distributions on unit towers, Kubota-Leopoldt branches
  cli         batch front end with JSON reports
"""

__version__ = "0.1.0"
