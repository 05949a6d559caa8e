"""The model root: diagrams, variables, cost functions.

The paper's sample model (Fig. 7) holds global variables ``GV`` and ``P``
"as properties of the model", cost functions associated to performance
modeling elements, a main activity diagram and the sub-diagram ``SA``.
:class:`Model` is that container; the transformation (Fig. 5) consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ModelError
from repro.lang.ast import FunctionDef, Param
from repro.lang.parser import parse_expression, parse_function_body
from repro.lang.types import Type
from repro.uml.diagram import ActivityDiagram
from repro.uml.element import Element, NamedElement
from repro.util.ids import GENERATED_NAMES, is_valid_identifier


def _check_identifier(what: str, name: str) -> None:
    """Generated code binds this name as is, in C++ and in Python, in the
    scope where it binds its own names."""
    if not is_valid_identifier(name):
        raise ModelError(
            f"{what} {name!r} is not an identifier (ASCII letters, digits "
            "and underscores, not a C++ or Python keyword)")
    for target, names in GENERATED_NAMES.items():
        if name in names:
            raise ModelError(
                f"{what} {name!r} is a name the generated {target} binds "
                "for itself")


@dataclass
class VariableDeclaration:
    """A model-level variable: name, type, optional initializer source.

    ``scope`` is ``"global"`` (Fig. 5 lines 9-12) or ``"local"`` (lines
    20-23: locals of the generated program's main function).
    """

    name: str
    type: Type
    init: str | None = None
    scope: str = "global"

    def __post_init__(self) -> None:
        _check_identifier("variable name", self.name)
        if self.scope not in ("global", "local"):
            raise ModelError(
                f"variable {self.name!r}: scope must be 'global' or "
                f"'local', got {self.scope!r}")
        if self.type is Type.VOID:
            raise ModelError(f"variable {self.name!r} cannot have type void")
        if self.init is not None:
            parse_expression(self.init)  # fail fast on malformed initializers

    def init_expr(self):
        return parse_expression(self.init) if self.init is not None else None


class CostFunction:
    """A named cost function attached to the model.

    The body is kept as source text (what the Teuta user typed into the
    cost-function dialog, Fig. 7(c)) and parsed on construction.  Parameters
    use C syntax: ``int pid, double n``.
    """

    def __init__(self, name: str, body: str,
                 params: str = "",
                 return_type: Type = Type.DOUBLE) -> None:
        _check_identifier("cost function name", name)
        self.name = name
        self.body_source = body
        self.params_source = params
        parsed_params = _parse_params(name, params)
        self.definition: FunctionDef = parse_function_body(
            name, body, parsed_params, return_type)

    @property
    def arity(self) -> int:
        return self.definition.arity

    def __repr__(self) -> str:
        return f"<CostFunction {self.definition.signature()}>"


def _parse_params(function_name: str, params: str) -> tuple[Param, ...]:
    params = params.strip()
    if not params:
        return ()
    out: list[Param] = []
    for chunk in params.split(","):
        pieces = chunk.split()
        if len(pieces) != 2:
            raise ModelError(
                f"cost function {function_name!r}: malformed parameter "
                f"{chunk.strip()!r} (expected 'type name')")
        type_name, param_name = pieces
        _check_identifier(f"cost function {function_name!r}: parameter",
                          param_name)
        try:
            param_type = Type.from_name(type_name)
        except ValueError as exc:
            raise ModelError(
                f"cost function {function_name!r}: {exc}") from exc
        if param_type is Type.VOID:
            raise ModelError(
                f"cost function {function_name!r}: parameter "
                f"{param_name!r} cannot be void")
        out.append(Param(param_type, param_name))
    return tuple(out)


class Model(NamedElement):
    """A performance model: diagrams + variables + cost functions."""

    metaclass = "Model"

    def __init__(self, element_id: int, name: str) -> None:
        super().__init__(element_id, name)
        self._diagrams: dict[str, ActivityDiagram] = {}
        self.main_diagram_name: str | None = None
        self.variables: list[VariableDeclaration] = []
        self.cost_functions: dict[str, CostFunction] = {}

    # -- diagrams ----------------------------------------------------------

    def add_diagram(self, diagram: ActivityDiagram,
                    main: bool = False) -> ActivityDiagram:
        if diagram.name in self._diagrams:
            raise ModelError(
                f"model {self.name!r} already has a diagram named "
                f"{diagram.name!r}")
        self._diagrams[diagram.name] = diagram
        self._adopt(diagram)
        if main or self.main_diagram_name is None:
            self.main_diagram_name = diagram.name
        return diagram

    @property
    def diagrams(self) -> list[ActivityDiagram]:
        return list(self._diagrams.values())

    def diagram(self, name: str) -> ActivityDiagram:
        try:
            return self._diagrams[name]
        except KeyError:
            raise ModelError(
                f"model {self.name!r} has no diagram named {name!r}"
            ) from None

    def has_diagram(self, name: str) -> bool:
        return name in self._diagrams

    @property
    def main_diagram(self) -> ActivityDiagram:
        if self.main_diagram_name is None:
            raise ModelError(f"model {self.name!r} has no diagrams")
        return self.diagram(self.main_diagram_name)

    # -- variables -----------------------------------------------------------

    def add_variable(self, declaration: VariableDeclaration
                     ) -> VariableDeclaration:
        if any(v.name == declaration.name for v in self.variables):
            raise ModelError(
                f"model {self.name!r} already declares variable "
                f"{declaration.name!r}")
        self.variables.append(declaration)
        return declaration

    def global_variables(self) -> list[VariableDeclaration]:
        return [v for v in self.variables if v.scope == "global"]

    def local_variables(self) -> list[VariableDeclaration]:
        return [v for v in self.variables if v.scope == "local"]

    def variable(self, name: str) -> VariableDeclaration:
        for declaration in self.variables:
            if declaration.name == name:
                return declaration
        raise ModelError(f"model {self.name!r} has no variable {name!r}")

    # -- cost functions ------------------------------------------------------

    def add_cost_function(self, function: CostFunction) -> CostFunction:
        if function.name in self.cost_functions:
            raise ModelError(
                f"model {self.name!r} already defines cost function "
                f"{function.name!r}")
        self.cost_functions[function.name] = function
        return function

    def cost_function(self, name: str) -> CostFunction:
        try:
            return self.cost_functions[name]
        except KeyError:
            raise ModelError(
                f"model {self.name!r} has no cost function {name!r}"
            ) from None

    def function_defs(self) -> dict[str, FunctionDef]:
        """Parsed definitions of all cost functions, keyed by name."""
        return {name: cf.definition
                for name, cf in self.cost_functions.items()}

    # -- tree ----------------------------------------------------------------

    def owned_elements(self) -> Iterator[Element]:
        yield from self._diagrams.values()

    def all_nodes(self):
        """Every activity node across all diagrams."""
        for diagram in self._diagrams.values():
            yield from diagram.nodes

    def element_by_id(self, element_id: int) -> Element:
        for element in self.iter_tree():
            if element.id == element_id:
                return element
        raise ModelError(
            f"model {self.name!r} has no element with id {element_id}")

    def max_element_id(self) -> int:
        return max((e.id for e in self.iter_tree()), default=0)

    def statistics(self) -> dict[str, int]:
        """Size summary used by benches and reports."""
        nodes = sum(len(d) for d in self._diagrams.values())
        edges = sum(len(d.edges) for d in self._diagrams.values())
        return {
            "diagrams": len(self._diagrams),
            "nodes": nodes,
            "edges": edges,
            "variables": len(self.variables),
            "cost_functions": len(self.cost_functions),
        }
