"""Douglas-Rachford iteration on the two-lines/one-line feasibility geometry.

Library layout:

- ``geometry``: the problem config, region labels, D3, input checks.
- ``dr``: the DR operators (closed-form, multi-valued, reversed) and the
  step arithmetic and tie test.
- ``lyapunov``: local/global Lyapunov functions, certificates, increase balls.
- ``robust``: sigma-perturbed steps, traces, and the KL decay bound checkers.
- ``cycles``: cycle certificates, float proofs that an orbit never converges.
- ``experiments``: trace simulation, cycle detection, rasters, parameter sweeps.
- ``exports``: PGM/CSV/JSON writers with atomic file replacement.
- ``cli``: the ``drlines`` command-line front end.
"""
from .cycles import CycleCertificate
from .dr import (
    DrStep,
    dr_multivalued,
    dr_reversed,
    dr_two_lines,
)
from .experiments import (
    Budget,
    ConvergedTo,
    Cycle,
    EnumerateTree,
    FirstBranch,
    PairOutcome,
    RasterGrid,
    SeededRandom,
    SweepGrid,
    Trace,
    certified_budget,
    certify_cycle,
    detect_cycle,
    find_period_brent,
    make_theta_grid,
    rasterize,
    simulate,
    simulate_tree,
    sweep,
)
from .exports import (
    certificate_json,
    parse_certificate_json,
    pgm_bytes,
    raster_csv,
    sweep_csv,
    trace_csv,
    write_pgm,
)
from .geometry import (
    BisectorData,
    ProblemConfig,
    Region,
    TIE_TOL,
    bisector_data,
    distance_to_D3,
)
from .lyapunov import (
    Infeasible,
    IncreaseBall,
    LyapunovCertificate,
    certify,
    decrease_check,
    increase_ball,
    sandwich_bounds,
    v_global,
    v_local,
    verify_ball_bruteforce,
    verify_containment,
)
from .robust import (
    PerturbationSpec,
    PerturbedLanes,
    PerturbedTrace,
    check_kl_bound,
    check_lemma_sigma,
    kl_beta,
    rate_ratio,
    run_perturbed,
    run_perturbed_many,
    sigma,
)

__version__ = "0.1.0"
