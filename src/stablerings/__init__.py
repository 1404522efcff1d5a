"""Exact workbench for one-dimensional stable local ring models."""

__version__ = "0.1.0"

from .numsg import (  # noqa: F401
    NAT,
    NumericalSemigroup,
    apery_set,
    enumerate_semigroups,
    from_gaps,
    from_generators,
    invariants,
)
from .relideal import (  # noqa: F401
    RelativeIdeal,
    TowerReport,
    blowup_tower,
    end_semigroup,
    enumerate_normalized_ideals,
    ideal_sum,
    is_stable,
    make_ideal,
    max_ideal,
    minimal_generator_count,
    nfold,
    translate,
)
from .ringlab import (  # noqa: F401
    StableRingReport,
    greither_check,
    hilbert_function,
    is_monomial_quadratic,
    minimal_multiplicity_check,
    multiplicity_via_hilbert,
    sally_check,
    stable_ring_report,
    two_generator_check,
)
from .quadalg import (  # noqa: F401
    HandelmanClass,
    StructureAlgebra,
    algebra_from_table,
    classify_handelman,
    is_quadratic_over_base,
    maximal_ideal_count,
)
from .idealization import (  # noqa: F401
    IdealizationIdeal,
    IdealizationRing,
    RingElement,
    TruncatedSeries,
    hilbert_length,
    hilbert_lengths,
    ideal_from_generators,
    ideal_power,
    ideal_product,
    is_stable_ideal,
    make_ring,
    square_zero_prime_check,
    stability_sweep,
)
