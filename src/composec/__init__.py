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
    make_behavior,
    make_signature,
    realize,
    tensor_behavior,
)
from .resources import (
    Converter,
    Protocol,
    apply_protocol,
    lift_deterministic,
    par_compose,
    seq_compose,
)
from .attacks import (
    SecurityReport,
    Simulator,
    SimulatorCert,
    check_secure_with,
    compose_certs,
    dummy_attack,
    min_epsilon,
    search_simulator,
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
    min_split_advantage,
    ot_resource,
    split_check,
    tripartite_split_check,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Kernel", "channel_distance", "compose", "copy_map",
    "delete", "identity", "make_kernel", "marginalize",
    "permutation", "point", "structural", "tensor", "uniform",
    "FarkasCert", "Feasible", "Infeasible", "LinearProgram", "LpBuilder",
    "Optimal", "minimize", "solve_feasible", "verify",
    "Behavior", "CombKernels", "Network", "PortSpec", "Signature",
    "behavior_distance", "behavior_equal", "canonical",
    "flatten", "make_behavior", "make_signature",
    "realize", "tensor_behavior",
    "Converter", "Protocol", "apply_protocol",
    "lift_deterministic", "par_compose", "seq_compose",
    "SecurityReport", "Simulator", "SimulatorCert",
    "check_secure_with", "compose_certs", "dummy_attack", "min_epsilon",
    "search_simulator",
    "FiniteGroup", "OtpInstance", "build_otp", "group_kernels", "group_make",
    "hopf_axiom_suite", "loop_make", "otp_correctness", "otp_security",
    "stream_cipher_demo",
    "NogoVerdict", "broadcast_contradiction_oracle", "broadcast_resource",
    "commitment_resource", "min_split_advantage",
    "ot_resource", "split_check", "tripartite_split_check",
    "ComposecError",
]
