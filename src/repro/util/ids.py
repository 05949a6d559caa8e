"""Identifier utilities.

The UML model assigns every element a unique integer id (the ``id`` tag of
``<<action+>>`` in Fig. 1 of the paper).  :class:`IdGenerator` hands those
out deterministically.  The transformation maps UML element *names* to C++
identifiers (Fig. 4 maps action ``Kernel6`` to instance ``kernel6``);
:func:`mangle_identifier` implements that mapping for arbitrary names.
"""

from __future__ import annotations

import keyword
import re

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# C++ keywords that a mangled identifier must avoid.  (Python keywords are
# handled via the keyword module; the generated Python shares the mangling.)
_CPP_KEYWORDS = frozenset(
    """
    alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char16_t char32_t class compl const constexpr const_cast continue
    decltype default delete do double dynamic_cast else enum explicit export
    extern false float for friend goto if inline int long mutable namespace
    new noexcept not not_eq nullptr operator or or_eq private protected
    public register reinterpret_cast return short signed sizeof static
    static_assert static_cast struct switch template this thread_local throw
    true try typedef typeid typename union unsigned using virtual void
    volatile wchar_t while xor xor_eq
    """.split()
)

#: Per target, as messages name it, the names its generated text binds
#: beside the model's own: the Python module's process store, runtime
#: context, C division helpers and builtins table, which share
#: ``pmp_main`` with model locals and cost-function parameters, and the
#: skeleton's communicator, which shares ``run()`` with every model
#: variable.  A model name that is one of them would shadow the binding.
GENERATED_NAMES: dict[str, frozenset[str]] = {
    "Python module": frozenset({"v", "ctx", "c_div", "c_mod", "_bi"}),
    "skeleton": frozenset({"comm"}),
}


class IdGenerator:
    """Deterministic source of unique integer ids.

    A fresh generator starts at ``start`` and increments by one for each
    call.  ``reserve`` lets a reader that loads explicit ids from XML keep
    the generator ahead of everything already used.
    """

    def __init__(self, start: int = 1) -> None:
        if start < 0:
            raise ValueError("id generator must start at a non-negative id")
        self._next = start

    def next_id(self) -> int:
        """Return the next unused id."""
        value = self._next
        self._next += 1
        return value

    def reserve(self, used_id: int) -> None:
        """Ensure future ids are strictly greater than ``used_id``."""
        if used_id >= self._next:
            self._next = used_id + 1

    @property
    def peek(self) -> int:
        """The id the next call to :meth:`next_id` would return."""
        return self._next


def is_valid_identifier(name: str) -> bool:
    """Return True if ``name`` is usable as an identifier in both C++ and
    Python without mangling."""
    return bool(
        _IDENT_RE.fullmatch(name)
        and name not in _CPP_KEYWORDS
        and not keyword.iskeyword(name)
    )


def mangle_identifier(name: str, *, lower_first: bool = False) -> str:
    """Map an arbitrary UML element name to a legal C++/Python identifier.

    The paper's Fig. 4 maps the UML action name ``Kernel6`` to the C++
    instance name ``kernel6``; ``lower_first=True`` reproduces that
    convention (only the first character is lowered, matching the figure).
    Characters that are illegal in identifiers become underscores; a
    leading digit gains an underscore prefix; reserved words gain a
    trailing underscore.
    """
    if not name:
        return "_"
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if out[0].isdigit():
        out = "_" + out
    if lower_first and out[0].isalpha():
        out = out[0].lower() + out[1:]
    if out in _CPP_KEYWORDS or keyword.iskeyword(out):
        out += "_"
    return out


def unique_name(base: str, taken: set[str]) -> str:
    """Return ``base`` or ``base_2``, ``base_3``, ... — first not in ``taken``.

    The caller owns updating ``taken``; this function does not mutate it.
    """
    if base not in taken:
        return base
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"
