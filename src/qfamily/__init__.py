"""qfamily: a calculus for the two-party quantum protocol family.

Layers, each imported as its module (`from qfamily.grammar import parse_ri`):

- `algebra`: exact-rational resource vectors and inequalities over the
  entropic generators {1, H(A), H(B), H(E)}, canonicalization, duality.
- `grammar`: ASCII grammar and JSON wire format for inequalities.
- `derivation`: composition/cancellation/coherentification rewrites,
  the scripted family derivations, replayable proof traces.
- `entropy`: purifications, channel dilations, von Neumann entropies,
  numeric evaluation of entropic expressions.
- `channels`: standard channel families, named-object registry, rate
  tables and parameter sweeps.
- `circuits`: exact state-vector runs of the noiseless protocols with
  resource ledgers.
- `cli`: the `qfamily` command.
"""
