"""Epistemic logic with intensional group names."""

from .errors import (
    BudgetExceededError,
    LogicError,
    ModelFormatError,
    NotReflexiveError,
    ParseError,
    UndeclaredSymbolError,
    UnsupportedFragmentError,
)
from .formula import (
    B,
    C,
    Closure,
    D,
    E,
    FALSE,
    Formula,
    Iff,
    Implies,
    And,
    Bot,
    Not,
    Or,
    Prop,
    S,
    TRUE,
    Top,
    agents_in,
    closure,
    desugar,
    modal_depth,
    names_in,
    parse_formula,
    print_formula,
    props_in,
    walk,
)

__version__ = "0.1.0"
