"""Rule framework and registry for the model checker.

Every rule is a subclass of :class:`Rule` with a stable ``rule_id`` (the id
the MCF uses to enable/disable it), a default severity, and a ``check``
generator yielding :class:`~repro.checker.diagnostics.Diagnostic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.checker.diagnostics import Diagnostic, Severity
from repro.lang.evaluator import INTRINSICS
from repro.lang.types import Type
from repro.uml.model import Model

#: Names implicitly available to guards/costs/fragments at evaluation time.
INTRINSIC_VARIABLES: dict[str, Type] = {name: Type.INT for name in INTRINSICS}


@dataclass
class CheckContext:
    """Everything a rule may consult."""

    model: Model
    params: dict[str, str] = field(default_factory=dict)

    def global_types(self) -> dict[str, Type]:
        """Declared model variables plus intrinsics, for name resolution."""
        types = dict(INTRINSIC_VARIABLES)
        for variable in self.model.variables:
            types[variable.name] = variable.type
        return types


class Rule:
    """Base class for checker rules."""

    rule_id: str = ""
    default_severity: Severity = Severity.ERROR
    description: str = ""

    def __init__(self, severity: Severity | None = None) -> None:
        self.severity = severity or self.default_severity

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, message: str, element_id: int | None = None,
             diagram: str | None = None,
             diagram_id: int | None = None,
             severity: Severity | None = None) -> Diagnostic:
        return Diagnostic(self.rule_id, severity or self.severity,
                          message, element_id, diagram, diagram_id)


#: Registry of rule classes, populated by the decorator below.
ALL_RULES: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in ALL_RULES:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    ALL_RULES[rule_class.rule_id] = rule_class
    return rule_class


def rule_ids() -> list[str]:
    """All registered rule ids (import side effect: loads rule modules)."""
    _load_rule_modules()
    return sorted(ALL_RULES)


def _load_rule_modules() -> None:
    # Rule modules self-register on import.
    from repro.checker import semantics, structural  # noqa: F401
