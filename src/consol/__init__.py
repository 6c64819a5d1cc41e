"""Convex neuro-symbolic regression: a structured equation-learner network
whose architecture is found by deep Q-learning with input-convex value
networks, plus numerical probes of the convexity claims that make the
search tractable."""

from .equations import CanonicalEquation, Term, canonicalize, equation_from_json_obj
from .errors import (ConsistencyError, ConsolError, DegenerateError,
                     DomainError, EpisodeAborted, ShapeError, StructureError)
from .icnn import IcnnParams, icnn_fit, icnn_forward, init_icnn
from .local_net import (LocalStructure, LocalWeights, TrainConfig,
                        extract_equation, fit, forward, make_structure,
                        three_layer_structure)
from .metrics import e_c, nrmse
from .q_learning import (QLearnConfig, ReplayBuffer, SearchSpace,
                         rollout_episode, run_search, three_layer_space)
from .search_mdp import (ActionVec, ConstraintConfig, StateVec,
                         check_constraints, discretize, transition)
from .symbols import SymbolLibrary, make_library

__version__ = "0.1.0"
