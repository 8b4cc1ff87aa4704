"""difflat: flatness analysis and exact linearization of discrete-time
two-input nonlinear systems.

Given x+ = f(x, u) and a candidate flat output, the library computes relative
degrees and backward depths, builds the tower of output shifts, inverts it
into the parameterizing map, classifies the candidate (linearizing /
forward-flat / backward-flat / general), constructs the linearizing dynamic
extension (prolongation, prelongation, or both), and certifies the result
numerically along simulated trajectories.
"""

from .expr import (
    Expr, Num, Par, Var, add, cos, cot, differentiate, div, evaluate,
    jacobian, mul, neg, num, par, pow_, sin, sub, substitute, tan, to_text,
    var, vars_of,
)
from .parsing import DimTable, ParseError, parse_expression
from .model import (
    ExtensionChoice, ModelError, SystemModel, ValidationReport,
    choose_extension, invert_extension, validate,
)
from .numeric import (
    ResidualReport, Trajectory, numeric_rank, simulate,
    verify_parameterization,
)
from .analysis import (
    AnalysisError, AnalysisReport, AnalyzeOptions, Classification,
    ClassificationError, FlatCandidate, Parameterization, ShiftIndices,
    Tower, analyze, backward_depths, build_tower, classify, invert_tower,
    normalize_inputs, relative_degrees,
)
from .extension import (
    Certificate, ExtendedSystem, ExtensionError, build_combined,
    certify_linearizing, truncated,
)
from .sysfile import (
    SystemFile, SystemFileError, load_system, loads_system, print_system,
)
from . import systems

__version__ = "0.1.0"
