"""Coherence measures, channel audits, and interference demos for small
dense quantum systems. All entropic quantities are in bits and all
angles are radians.
"""

from . import errors
from .linalg import (
    Spectrum,
    frobenius_distance,
    hermitian_eig,
    trace_distance,
)
from .states import (
    DensityMatrix,
    DiagonalState,
    PureState,
    apply_unitary,
    glauber_truncated,
    haar_unitary,
    hadamard,
    make_density,
    maximally_coherent,
    maximally_mixed,
    qubit_pair,
    random_channel,
    random_density,
)
from .measures import (
    CoherenceReport,
    coherence_report,
    ibiqc_coherence,
    l1_coherence,
    min_distance_coherence,
    rel_ent_coherence,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .channels import (
    AuditReport,
    KrausFlags,
    KrausSet,
    apply_channel,
    audit_conditions,
    classify_kraus,
    selective_counterexample,
    selective_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CoherenceReport",
    "DensityMatrix",
    "DiagonalState",
    "KrausFlags",
    "KrausSet",
    "PureState",
    "Spectrum",
    "apply_channel",
    "apply_unitary",
    "audit_conditions",
    "classify_kraus",
    "coherence_report",
    "errors",
    "frobenius_distance",
    "glauber_truncated",
    "haar_unitary",
    "hadamard",
    "hermitian_eig",
    "ibiqc_coherence",
    "l1_coherence",
    "make_density",
    "maximally_coherent",
    "maximally_mixed",
    "min_distance_coherence",
    "qubit_pair",
    "random_channel",
    "random_density",
    "rel_ent_coherence",
    "relative_entropy",
    "selective_counterexample",
    "selective_outcomes",
    "shannon_entropy",
    "trace_distance",
    "von_neumann_entropy",
]
