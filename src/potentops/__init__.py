"""Dense state-vector toolkit for pre- and post-selected quantum systems:
weak values, modular values, potent values and potent operators, qubit and
Gaussian-pointer meters, and post-selected superpositions of time evolutions.
"""

from .linalg import (
    evolution_operators,
    fidelity,
    hermitian_exponential,
    normalize,
    partial_matrix_element,
    tensor_product,
)
from .meters import (
    GaussianPointer,
    Grid,
    PointerShiftReport,
    QubitMeter,
    build_gaussian_pointer,
    pointer_shift_sweep,
    pointer_statistics,
)
from .pps import (
    PotentOperator,
    PotentValueSet,
    PrePostSelection,
    apparatus_state_from_potent_values,
    conditional_unitary,
    joint_evolve_and_postselect,
    kraus_slices,
    modular_value,
    potent_completeness_residual,
    potent_operator,
    potent_operator_apparatus_controlled,
    potent_operator_system_controlled,
    potent_values,
    weak_value,
)
from .timemachine import (
    EvolutionFamily,
    SuperpositionSpec,
    TimeTranslationSpec,
    effective_parameter_fit,
    potent_time_superposition,
    superposed_evolution,
    time_translation_machine,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
