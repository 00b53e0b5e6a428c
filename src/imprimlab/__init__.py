"""imprimlab: exact matrix groups over prime fields, systems of
imprimitivity, wreath products, and verification scenarios."""

from .errors import ImprimlabError, limits
from .groups import (
    BlockSystem,
    MatrixGroup,
    PermGroup,
    Permutation,
    block_systems,
    cyclic_group,
    general_linear_group,
    has_pair_partition,
    symmetric_group,
)
from .imprim import (
    ImprimitivitySystem,
    all_systems,
    coordinate_system,
    is_refinement,
    is_primitive_linear,
    is_system,
    nonrefinable,
    nonrefinable_systems,
    nonrefinable_via_stabilizer,
    subspace_orbit,
)
from .linalg import (
    Matrix,
    Subspace,
    direct_sum_check,
    ff_inv,
    gaussian_binomial,
)
from .reprs import (
    Character,
    hom_dimension,
    induced_module,
    is_irreducible,
    restrict_to_block,
    spin,
)
from .verify import (
    VerificationReport,
    induced_example_report,
    maximal_solvable_witness,
    wreath_inclusion_report,
    wreath_uniqueness_report,
)
from .wreath import (
    ExceptionalCensus,
    WreathSpec,
    expected_exceptional_systems,
    is_exceptional,
    wreath_product,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSystem",
    "Character",
    "ExceptionalCensus",
    "ImprimitivitySystem",
    "ImprimlabError",
    "Matrix",
    "MatrixGroup",
    "PermGroup",
    "Permutation",
    "Subspace",
    "VerificationReport",
    "WreathSpec",
    "all_systems",
    "block_systems",
    "coordinate_system",
    "cyclic_group",
    "direct_sum_check",
    "expected_exceptional_systems",
    "ff_inv",
    "gaussian_binomial",
    "general_linear_group",
    "has_pair_partition",
    "hom_dimension",
    "induced_example_report",
    "induced_module",
    "is_exceptional",
    "is_irreducible",
    "is_primitive_linear",
    "is_refinement",
    "is_system",
    "limits",
    "maximal_solvable_witness",
    "nonrefinable",
    "nonrefinable_systems",
    "nonrefinable_via_stabilizer",
    "restrict_to_block",
    "spin",
    "subspace_orbit",
    "symmetric_group",
    "wreath_inclusion_report",
    "wreath_product",
    "wreath_uniqueness_report",
]
