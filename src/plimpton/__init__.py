"""Exact sexagesimal arithmetic and reconstruction of Plimpton 322."""

from .sexagesimal import (
    ONE,
    RegularNumber,
    SexValue,
    SexagesimalError,
    factor_2_3_5,
    from_fraction,
    is_regular,
    mul,
    parse_sex,
    reciprocal,
    regular_from_int,
    render_sex,
    sub,
)
from .pairs import (
    CRITERIA,
    Correction,
    ReciprocalPair,
    enumerate_pairs,
)
from .rows import (
    RowCandidate,
    XYPair,
    build_row,
)
from .hypotheses import (
    PRINTED_TABLES,
    LinkChain,
    generate,
    link_to_standard,
    phillips_pairs,
    printed_corrections,
    printed_pairs,
    standard_table,
)
from .tablet import (
    PROPERTIES,
    DiffReport,
    ErrorAnnotation,
    TabletCell,
    TabletRowRecord,
    diff_against,
    error_annotations,
    tablet_data,
    verify_properties,
)

__version__ = "0.1.0"
