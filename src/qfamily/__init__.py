"""qfamily: a calculus for the two-party quantum protocol family.

Layers:

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

from .algebra import (
    CBIT,
    COBIT,
    EBIT,
    EntropicExpr,
    Gen,
    HALF,
    H_A,
    H_B,
    H_E,
    I_AB,
    I_AE,
    I_COH,
    Mode,
    NOISY_CHANNEL,
    NOISY_STATE,
    QUBIT_CHANNEL,
    ResourceInequality,
    ResourceKind,
    ResourceTag,
    ResourceVector,
    RuleFlags,
    canonicalize,
    dual,
    noisy_channel,
    noisy_state,
    vec,
)
from .derivation import (
    COHERENT_SD,
    COHERENT_TP,
    DerivationStep,
    PRIMITIVES,
    StepKind,
    append,
    apply_rule_I,
    apply_rule_O,
    cancel,
    derive_family,
    prepend,
    replay,
    waste,
)
from .entropy import (
    DensityOp,
    QuantumChannel,
    TripartitePureState,
    channel_state,
    evaluate,
    evaluate_raw,
    maximally_entangled,
    purify,
    reduced,
    stinespring,
)
from .grammar import format_ri, parse_ri, ri_from_json, ri_to_json

__version__ = "0.1.0"
