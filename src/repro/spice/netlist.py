"""Circuit and element containers for the SPICE-class simulator.

A :class:`Circuit` is a flat collection of elements connected at named
nodes.  Node ``"0"`` (alias ``"gnd"``) is ground and is eliminated from the
equation system.  Elements are objects implementing the small interface
defined by :class:`Element`; the simulator is formulated charge-oriented:

    F(x, t) = I(x, t) + d/dt Q(x) - 0 = 0

where ``x`` stacks node voltages and branch currents, ``I`` collects
resistive currents, source currents and branch constraint residuals, and
``Q`` collects capacitor charges (node rows) and inductor fluxes (branch
rows).  Each element contributes to ``I``, ``Q`` and their Jacobians
through :meth:`Element.load`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..errors import NetlistError

GROUND_NAMES = ("0", "gnd", "GND", "Gnd")


def canonical_node(name: str) -> str:
    """Return the canonical spelling of a node name (ground becomes "0")."""
    if name in GROUND_NAMES:
        return "0"
    return name


class Element:
    """Base class for circuit elements.

    Subclasses set :attr:`name` (unique within a circuit, conventionally
    starting with the SPICE type letter) and :attr:`nodes` (canonical node
    names in terminal order), and implement :meth:`load`.
    """

    #: Number of extra unknowns (branch currents) this element adds.
    num_branches = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = name
        self.nodes = tuple(canonical_node(n) for n in nodes)
        #: Equation indices of the terminals, -1 for ground.  Filled in by
        #: :meth:`Circuit.assign_indices`.
        self.node_index: tuple[int, ...] = ()
        #: Equation indices of this element's branch currents.
        self.branch_index: tuple[int, ...] = ()

    def bind(self, node_index: Sequence[int], branch_index: Sequence[int]) -> None:
        """Record the equation indices assigned by the circuit."""
        self.node_index = tuple(node_index)
        self.branch_index = tuple(branch_index)

    # -- simulator interface -------------------------------------------------

    def load(self, ctx) -> None:
        """Add this element's contributions to the equation system.

        ``ctx`` is a :class:`repro.spice.mna.LoadContext`.  Implementations
        read the candidate solution through ``ctx.voltage(i)`` /
        ``ctx.x[i]`` and call ``ctx.add_i``, ``ctx.add_g``, ``ctx.add_q``
        and ``ctx.add_c``.
        """
        raise NotImplementedError

    def is_nonlinear(self) -> bool:
        """Whether the element's I or Q depends nonlinearly on ``x``."""
        return False

    # -- compiled-engine capability hooks --------------------------------------
    #
    # The compiled engine (:mod:`repro.spice.engine`) partitions elements at
    # compile time.  The default hooks classify any element by
    # :meth:`is_nonlinear` / :meth:`has_time_varying_rhs` alone; sources
    # add :meth:`rhs_rows` source-vector entries.  The nonlinear elements
    # (BJT, diode) split ``load`` into ``load_static``, their constant
    # ohmic parasitics, stamped once into the cached matrices, and
    # ``load_dynamic``, the stamp reference of the engine's device group.

    def is_linear(self) -> bool:
        """Whether I and Q are linear (affine) functions of ``x``."""
        return not self.is_nonlinear()

    def has_time_varying_rhs(self) -> bool:
        """Whether the residual has an x-independent part that depends on
        time or ``source_scale`` (true for independent V/I sources)."""
        return False

    def load_static(self, ctx) -> None:
        """Stamp the contributions that are constant for a fixed topology:
        Jacobian entries independent of ``x``/time and their (linear)
        residual terms.  Called once at engine compile time, on a probe
        context with ``x = 0`` and ``source_scale = 0`` — so for a linear
        element (independent sources included) the plain :meth:`load`
        stamps exactly the constant Jacobian."""
        if self.is_linear():
            self.load(ctx)

    # -- convenience ---------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.nodes}>"


class Circuit:
    """A flat netlist: a set of named elements connected at named nodes.

    >>> from repro.spice.elements import Resistor, VoltageSource
    >>> ckt = Circuit("divider")
    >>> _ = ckt.add(VoltageSource("V1", ("in", "0"), dc=10.0))
    >>> _ = ckt.add(Resistor("R1", ("in", "out"), 1e3))
    >>> _ = ckt.add(Resistor("R2", ("out", "0"), 1e3))
    """

    def __init__(self, title: str = "untitled"):
        self.title = title
        self._elements: dict[str, Element] = {}
        #: Node name -> equation index.  Ground is absent (index -1).
        self.node_map: dict[str, int] = {}
        self.num_unknowns = 0
        self._dirty = True
        #: Bumped on every topology/value change; compiled engines compare
        #: it against the generation they were built from.
        self._generation = 0

    # -- construction --------------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add an element; returns it for chaining.

        Raises :class:`~repro.errors.NetlistError` on a duplicate name.
        """
        key = element.name.upper()
        if key in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._elements[key] = element
        self._dirty = True
        self._generation += 1
        return element

    def remove(self, name: str) -> Element:
        """Remove and return the element called ``name``."""
        try:
            element = self._elements.pop(name.upper())
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None
        self._dirty = True
        self._generation += 1
        return element

    def invalidate(self) -> None:
        """Mark cached compiled state stale after mutating an element value
        in place (e.g. changing a resistance, or giving a source another
        waveform): the compile folds element values, DC source levels
        included, into the engine's own lane.  Sweeps leave the circuit
        alone and solve other levels as other lanes of the engine
        (:meth:`repro.spice.engine.CompiledCircuit.at_levels`)."""
        self._generation += 1

    def element(self, name: str) -> Element:
        """Look up an element by (case-insensitive) name."""
        try:
            return self._elements[name.upper()]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> list[Element]:
        return list(self._elements.values())

    def nodes(self) -> list[str]:
        """All non-ground node names, in equation order."""
        self.assign_indices()
        return sorted(self.node_map, key=self.node_map.get)

    # -- equation numbering ---------------------------------------------------

    def assign_indices(self) -> int:
        """Number node voltages then branch currents; return system size.

        Idempotent; re-run automatically after the circuit changes.
        """
        if not self._dirty:
            return self.num_unknowns
        self.node_map = {}
        for element in self._elements.values():
            for node in element.nodes:
                if node != "0" and node not in self.node_map:
                    self.node_map[node] = len(self.node_map)
        next_index = len(self.node_map)
        for element in self._elements.values():
            node_index = [
                -1 if n == "0" else self.node_map[n] for n in element.nodes
            ]
            branch_index = list(range(next_index, next_index + element.num_branches))
            next_index += element.num_branches
            element.bind(node_index, branch_index)
        self.num_unknowns = next_index
        self._dirty = False
        self._validate()
        return self.num_unknowns

    def _validate(self) -> None:
        if not self._elements:
            raise NetlistError("circuit is empty")
        has_ground = any("0" in e.nodes for e in self._elements.values())
        if not has_ground:
            raise NetlistError("circuit has no ground (node '0') connection")

    # -- result helpers --------------------------------------------------------

    def node_index(self, name: str) -> int:
        """Equation index of a node (-1 for ground)."""
        self.assign_indices()
        name = canonical_node(name)
        if name == "0":
            return -1
        try:
            return self.node_map[name]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    def branch_index(self, element_name: str, branch: int = 0) -> int:
        """Equation index of an element's ``branch``-th current unknown."""
        self.assign_indices()
        element = self.element(element_name)
        if not element.branch_index:
            raise NetlistError(
                f"element {element_name!r} carries no branch current unknown"
            )
        if not 0 <= branch < len(element.branch_index):
            raise NetlistError(
                f"element {element_name!r} has "
                f"{len(element.branch_index)} branch unknown(s); "
                f"branch index {branch} is out of range"
            )
        return element.branch_index[branch]

    def branch_elements(self) -> list[str]:
        """Names of the elements that carry branch current unknowns."""
        self.assign_indices()
        return [e.name for e in self._elements.values() if e.branch_index]

    def unknown_name(self, index: int) -> str:
        """Human name of equation unknown ``index``.

        Nodes read ``V(name)``; branch currents ``I(element)`` (with a
        ``#k`` suffix for elements carrying several).  Used by the
        convergence forensics to point at the worst-behaved unknown.
        """
        self.assign_indices()
        if 0 <= index < len(self.node_map):
            for name, node_index in self.node_map.items():
                if node_index == index:
                    return f"V({name})"
        for element in self._elements.values():
            for k, branch_index in enumerate(element.branch_index):
                if branch_index == index:
                    if len(element.branch_index) == 1:
                        return f"I({element.name})"
                    return f"I({element.name}#{k})"
        return f"unknown[{index}]"

    def nonlinear_elements(self) -> list[Element]:
        """The elements requiring Newton iteration (BJTs, diodes)."""
        return [e for e in self._elements.values() if e.is_nonlinear()]

    def is_linear(self) -> bool:
        """True when no element is nonlinear (one LU solve suffices)."""
        return not self.nonlinear_elements()

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements at once (same checks as :meth:`add`)."""
        for element in elements:
            self.add(element)
