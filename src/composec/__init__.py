"""composec: composable-security verification over finite stochastic processes.

The package models protocols and functionalities as finite column-stochastic
processes with explicit parties, rounds and causality, checks simulation-based
security by solving for simulators with an exact rational simplex, proves the
one-time pad secure over any finite group, and certifies the commitment /
oblivious-transfer and broadcast impossibility theorems by LP infeasibility
with machine-checkable Farkas certificates.
"""

from .errors import ComposecError
from .stoch import (
    Alphabet,
    Dist,
    Kernel,
    channel_distance,
    compose,
    copy_map,
    delete,
    identity,
    make_kernel,
    marginalize,
    permutation,
    point,
    structural,
    swap,
    tensor,
    uniform,
)
from .lp import (
    FarkasCert,
    Feasible,
    Infeasible,
    LinearProgram,
    LpBuilder,
    Optimal,
    minimize,
    solve_feasible,
    verify,
)
from .comb import (
    Behavior,
    CombKernels,
    Network,
    PortSpec,
    Signature,
    behavior_distance,
    behavior_equal,
    canonical,
    flatten,
    link,
    make_behavior,
    make_signature,
    observationally_equal,
    realize,
    tensor_behavior,
)
from .resources import (
    Converter,
    Protocol,
    Resource,
    apply_protocol,
    identity_protocol,
    lift_deterministic,
    par_compose,
    seq_compose,
)
from .attacks import (
    Attack,
    Colluding,
    Maximal,
    Minimal,
    PerParty,
    SecurityReport,
    Simulator,
    SimulatorCert,
    apply_attack,
    attack_model_axiom_suite,
    check_secure_with,
    compose_certs,
    dummy_attack,
    min_epsilon,
    search_simulator,
    semi_honest_attack,
)
from .hopf import (
    FiniteGroup,
    OtpInstance,
    build_otp,
    group_kernels,
    group_make,
    hopf_axiom_suite,
    loop_make,
    otp_correctness,
    otp_security,
    stream_cipher_demo,
)
from .nogo import (
    NogoVerdict,
    broadcast_contradiction_oracle,
    broadcast_resource,
    commitment_resource,
    doubled_middle,
    min_split_advantage,
    ot_resource,
    split,
    split_check,
    tripartite_completion,
    tripartite_split_check,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Dist", "Kernel", "channel_distance", "compose", "copy_map",
    "delete", "identity", "make_kernel", "marginalize",
    "permutation", "point", "structural", "swap", "tensor", "uniform",
    "FarkasCert", "Feasible", "Infeasible", "LinearProgram", "LpBuilder",
    "Optimal", "minimize", "solve_feasible", "verify",
    "Behavior", "CombKernels", "Network", "PortSpec", "Signature",
    "behavior_distance", "behavior_equal", "canonical",
    "flatten", "link", "make_behavior", "make_signature",
    "observationally_equal", "realize", "tensor_behavior",
    "Converter", "Protocol", "Resource", "apply_protocol", "identity_protocol",
    "lift_deterministic", "par_compose", "seq_compose",
    "Attack", "Colluding", "Maximal", "Minimal", "PerParty", "SecurityReport",
    "Simulator", "SimulatorCert", "apply_attack", "attack_model_axiom_suite",
    "check_secure_with", "compose_certs", "dummy_attack", "min_epsilon",
    "search_simulator", "semi_honest_attack",
    "FiniteGroup", "OtpInstance", "build_otp", "group_kernels", "group_make",
    "hopf_axiom_suite", "loop_make", "otp_correctness", "otp_security",
    "stream_cipher_demo",
    "NogoVerdict", "broadcast_contradiction_oracle", "broadcast_resource",
    "commitment_resource", "doubled_middle", "min_split_advantage",
    "ot_resource", "split", "split_check",
    "tripartite_completion", "tripartite_split_check",
    "ComposecError",
]
