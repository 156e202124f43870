"""deqlab: vanilla ReLU deep equilibrium models with the theory toolkit.

Library layout:

- linalg: dense matrix kernels (spectral norm, least symmetric eigenvalue,
  Gram products)
- data: dataset generation, normalization, and the CSV schemas
- model: DEQ parameters, initialization, the unrolled forward and its limit
- grad: implicit-differentiation gradients via an adjoint fixed point
- kernel: population Gram matrices, their infinite-depth limit, and the
  width/depth suggestions they imply
- condition: over-parameterization condition and norm-inequality checks
- train: full-batch gradient descent with convergence-theory monitors,
  and its checkpoints
- concentration: Monte Carlo experiments comparing finite models to the
  population kernel
- reporting: the one result-table writer, SVG plots and the run.json
  manifest
- config: experiment YAML and overrides, validated at load
- cli: `deqlab` command-line front end
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    DeqlabError,
    InputError,
    TrainingAssertionError,
    WellPosednessError,
)

__all__ = [
    "AssumptionError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateInputError",
    "DeqlabError",
    "InputError",
    "TrainingAssertionError",
    "WellPosednessError",
    "__version__",
]
