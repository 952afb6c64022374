"""Exact calculator for Whitehead groups and rational K-theory ranks of
Hilbert modular groups PSL2/SL2 of real quadratic integer rings.

The pipeline: enumerate the elliptic torsion a field allows
(:mod:`~hilbertmod.quadfield`), count representations of the finite cyclic
stabilizers (:mod:`~hilbertmod.cyclicreps`), turn those into K-theory rank
tables (:mod:`~hilbertmod.finitek`), and assemble Whitehead-group
expressions and rank differences (:mod:`~hilbertmod.assembler`), with the
chain-level spectral machinery mirrored symbolically in
:mod:`~hilbertmod.pchain`.  All arithmetic is exact.
"""

from .abgroups import AbGroupExpr
from .assembler import (
    ClassCounts,
    GroupData,
    MissingAbelianizationError,
    MissingClassDataError,
    Mode,
    class_counts_for_field,
    group_data_for_field,
    rank_diff,
    rank_diff_from_case_table,
    whitehead_psl,
    whitehead_sl,
)
from .classnumbers import reduced_forms
from .cyclicreps import RepCounts, c_count, kp_count, q_count, r_count, rep_counts, rp_count
from .finitek import RankCase, rank_H_BM, rank_K_cyclic, wh_cyclic
from .pchain import (
    OrbitPoset,
    SubgroupPoset,
    build_E1,
    enumerate_pchains,
    psl_poset,
    rank_E1_column,
    sl_poset,
)
from .quadfield import FieldSpec, TraceCandidate, allowed_orders, elliptic_trace_candidates

__version__ = "0.1.0"
