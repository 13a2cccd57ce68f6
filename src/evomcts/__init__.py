"""Monte Carlo tree search with evolved selection formulas.

Fixed UCB1 agents and a (1, lambda) evolution strategy over selection
expressions compete on five 1-D benchmark functions turned into
Bernoulli-reward bisection environments; analysis bins where each agent
expanded its search tree over time.

The API lives in the submodules: ``bench`` (environments), ``expr``
(formulas), ``mcts`` (search), ``siea`` (evolution), ``analysis``
(histograms and exports) and ``cli`` (the experiment grid).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
