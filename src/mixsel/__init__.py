"""Model-based clustering of mixed-type data with variable selection.

Two selection engines over latent class models (within-component independent
Gaussian / Poisson / multinomial margins, missing-at-random cells):

* a penalized EM maximizing any `loglik - nu * c` criterion (BIC, AIC),
* an alternating optimizer maximizing the integrated complete-data
  likelihood over partitions and relevance vectors (MICL).
"""

__version__ = "0.1.0"

from .data import (CAT, CONT, INT, AllMissingColumn, ColumnGroups, DataError,
                   Dataset, Hyperparameters, Model, NegativeInteger,
                   OutOfRangeCategorical, Parameters, VariableKind, validate)
from .em import (EmConfig, EmError, EmResult, EmptyComponent, e_step, m_step,
                 observed_loglik, penalized_m_step, run_em, run_em_from,
                 run_penalized_em)
from .criteria import (CRITERIA, SelectionReport, bic, count_params, map_partition,
                       select_model)
from .micl import (MarginalTables, MiclState, log_dirichlet_proportion_term,
                   log_integrated_complete, log_marginal_variable,
                   partition_step, run_micl)
from .simulate import (InvalidShape, LengthMismatch, NoRoot, ScenarioSpec, ari,
                       calibrate_delta, gen_continuous, gen_mixed, generate,
                       inject_mcar)
from .campaign import run_campaign, summarize
from .io import read_csv, read_partition, read_schema, write_csv, write_schema

__all__ = [name for name in dir() if not name.startswith("_")]
