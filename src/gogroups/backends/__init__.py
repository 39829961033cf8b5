from .base import Mono, SubgroupBackend, evaluate_word
from .finite import FiniteGroup, FiniteSubgroup
from .abelian import AbelianGroup, AbelianSubgroup
from .free import FreeGroup, FreeSubgroup, StallingsAutomaton
from .rational import CosetNFA, PowerPattern, coset_nfa

__all__ = [
    "Mono", "SubgroupBackend", "evaluate_word",
    "FiniteGroup", "FiniteSubgroup",
    "AbelianGroup", "AbelianSubgroup",
    "FreeGroup", "FreeSubgroup", "StallingsAutomaton",
    "CosetNFA", "PowerPattern", "coset_nfa",
]
