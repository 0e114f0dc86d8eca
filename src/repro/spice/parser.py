"""SPICE deck parser.

Parses the classic card format into a :class:`~repro.spice.netlist.Circuit`
plus an analysis list:

* title on the first line; ``*`` comment lines; ``+`` continuations;
  inline ``$`` comments; case-insensitive everywhere,
* elements R, C, L, V, I, E, G, F, H, D, Q and X (subcircuit calls),
* ``.MODEL`` cards for D / NPN / PNP,
* ``.SUBCKT`` / ``.ENDS`` definitions, flattened at instantiation with
  dotted names (``X1.R3``, node ``X1.n4``),
* analysis cards ``.OP``, ``.DC``, ``.AC``, ``.TRAN`` and ``.END``.

The geometry generator (:mod:`repro.geometry.generator`) emits decks in
this format, closing the paper's Fig. 10 loop: schematic in, model cards
out, simulation on the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..devices.parameters import GummelPoonParameters
from ..errors import ParseError
from ..units import parse_value
from .engine import SparseLUSolver
from .netlist import Circuit
from .elements import (
    BJT,
    CCCS,
    CCVS,
    Capacitor,
    CurrentSource,
    DC,
    Diode,
    DiodeModel,
    Inductor,
    PWL,
    Pulse,
    Resistor,
    Sine,
    VCCS,
    VCVS,
    VoltageSource,
)


@dataclass
class AnalysisCard:
    """One parsed analysis request (.OP/.DC/.AC/.TRAN)."""

    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class Deck:
    """A parsed deck: circuit, models, analyses and solver options.

    ``options`` holds the recognized ``.OPTIONS`` settings (lower-cased
    names: ``reltol``, ``vntol``, ``abstol``, ``itl1``, ``gmin``);
    unrecognized options are accepted and ignored, as SPICE does.
    """

    title: str
    circuit: Circuit
    models: dict
    analyses: list[AnalysisCard]
    options: dict = field(default_factory=dict)


@dataclass
class _Subckt:
    name: str
    ports: list[str]
    body: list[tuple[int, str]]  # (line number, logical line)


def parse_deck(text: str) -> Deck:
    """Parse deck text into a :class:`Deck`."""
    return _Parser(text).parse()


def parse_file(path) -> Deck:
    """Parse a deck file from disk (see :func:`parse_deck`)."""
    with open(path) as handle:
        return parse_deck(handle.read())


_WAVEFORM_NAMES = ("SIN", "PULSE", "PWL", "DC", "AC")


class _Parser:
    def __init__(self, text: str):
        raw = text.splitlines()
        if not raw:
            raise ParseError("empty deck")
        # SPICE semantics: the first line is the title, unconditionally.
        self.title = raw[0].strip().lstrip("*").strip() or "untitled"
        self.lines = _logical_lines("\n".join(raw[1:]), first_line=2)
        self.models: dict[str, object] = {}
        self.subckts: dict[str, _Subckt] = {}
        self.analyses: list[AnalysisCard] = []
        self.options: dict = {}
        #: deferred (constructor, lineno) for current-controlled sources.
        self._deferred: list = []

    def parse(self) -> Deck:
        if not self.lines:
            raise ParseError("deck has no content after the title line")
        body = self.lines
        circuit = Circuit(self.title)

        # Pass 1: models and subckt definitions.
        remaining: list[tuple[int, str]] = []
        i = 0
        while i < len(body):
            lineno, line = body[i]
            upper = line.upper()
            if upper.startswith(".MODEL"):
                self._parse_model(line, lineno)
            elif upper.startswith(".SUBCKT"):
                i = self._parse_subckt(body, i)
                continue
            else:
                remaining.append((lineno, line))
            i += 1

        # Pass 2: elements and analyses.
        for lineno, line in remaining:
            if line.startswith("."):
                self._parse_dot_card(line, lineno)
            else:
                self._parse_element(circuit, line, lineno, prefix="", node_map={})
        for build in self._deferred:
            build(circuit)
        self._deferred.clear()
        if "permc" in self.options:
            # Rides on the circuit so engine compilation — which never
            # sees the deck — can configure the sparse LU's ordering.
            circuit._permc_spec = self.options["permc"]
        return Deck(self.title, circuit, self.models, self.analyses,
                    self.options)

    # -- models and subcircuits ------------------------------------------------

    def _parse_model(self, line: str, lineno: int) -> None:
        match = re.match(
            r"\.MODEL\s+(\S+)\s+(\w+)\s*(?:\((.*)\))?\s*$",
            line, re.IGNORECASE | re.DOTALL,
        )
        if not match:
            raise ParseError(f"malformed .MODEL card: {line!r}", lineno)
        name, kind, params_text = match.groups()
        params = _parse_assignments(params_text or "", lineno)
        kind = kind.upper()
        if kind in ("NPN", "PNP"):
            model = GummelPoonParameters.from_card_params(name, kind.lower(), params)
        elif kind == "D":
            model = DiodeModel.from_card_params(name, params)
        else:
            raise ParseError(f"unsupported model type {kind!r}", lineno)
        self.models[name.upper()] = model

    def _parse_subckt(self, body: list[tuple[int, str]], start: int) -> int:
        lineno, header = body[start]
        words = header.split()
        if len(words) < 3:
            raise ParseError(".SUBCKT needs a name and at least one port", lineno)
        name = words[1].upper()
        ports = [w for w in words[2:]]
        inner: list[tuple[int, str]] = []
        i = start + 1
        while i < len(body):
            inner_lineno, line = body[i]
            if line.upper().startswith(".ENDS"):
                self.subckts[name] = _Subckt(name, ports, inner)
                return i + 1
            if line.upper().startswith(".SUBCKT"):
                raise ParseError("nested .SUBCKT definitions are not supported",
                                 inner_lineno)
            inner.append((inner_lineno, line))
            i += 1
        raise ParseError(f".SUBCKT {name} has no matching .ENDS", lineno)

    # -- analyses ----------------------------------------------------------------

    def _parse_dot_card(self, line: str, lineno: int) -> None:
        words = line.split()
        card = words[0].upper()
        if card == ".END":
            return
        if card == ".OP":
            self.analyses.append(AnalysisCard("op"))
        elif card == ".DC":
            if len(words) != 5:
                raise ParseError(".DC needs: source start stop step", lineno)
            self.analyses.append(AnalysisCard("dc", {
                "source": words[1],
                "start": parse_value(words[2]),
                "stop": parse_value(words[3]),
                "step": parse_value(words[4]),
            }))
        elif card == ".AC":
            if len(words) != 5:
                raise ParseError(".AC needs: type points fstart fstop", lineno)
            self.analyses.append(AnalysisCard("ac", {
                "sweep": words[1].lower(),
                "points": int(parse_value(words[2])),
                "start": parse_value(words[3]),
                "stop": parse_value(words[4]),
            }))
        elif card == ".TRAN":
            if len(words) < 3:
                raise ParseError(".TRAN needs: step stop", lineno)
            self.analyses.append(AnalysisCard("tran", {
                "step": parse_value(words[1]),
                "stop": parse_value(words[2]),
            }))
        elif card == ".TF":
            # .TF V(out) VIN
            if len(words) != 3:
                raise ParseError(".TF needs: V(node) source", lineno)
            self.analyses.append(AnalysisCard("tf", {
                "output": _output_node(words[1], lineno),
                "source": words[2],
            }))
        elif card == ".NOISE":
            # .NOISE V(out) VS DEC 10 1k 1G
            if len(words) != 7:
                raise ParseError(
                    ".NOISE needs: V(node) source type points fstart fstop",
                    lineno,
                )
            self.analyses.append(AnalysisCard("noise", {
                "output": _output_node(words[1], lineno),
                "source": words[2],
                "sweep": words[3].lower(),
                "points": int(parse_value(words[4])),
                "start": parse_value(words[5]),
                "stop": parse_value(words[6]),
            }))
        elif card == ".FOUR":
            # .FOUR 1MEG V(out)  — applies to the preceding .TRAN
            if len(words) != 3:
                raise ParseError(".FOUR needs: fundamental V(node)", lineno)
            self.analyses.append(AnalysisCard("four", {
                "fundamental": parse_value(words[1]),
                "output": _output_node(words[2], lineno),
            }))
        elif card in (".OPTIONS", ".OPTION"):
            # Recognized solver options feed the runner's Tolerances;
            # everything else (bare flags like ACCT, unknown settings)
            # is accepted and ignored, as SPICE does.
            recognized = ("reltol", "vntol", "abstol", "itl1", "gmin")
            rest = line.split(None, 1)[1] if len(words) > 1 else ""
            for name, value in re.findall(r"(\w+)\s*=\s*(\S+)", rest):
                if name.lower() == "solver":
                    # String-valued: picks the engine assembly backend.
                    backend = value.lower()
                    if backend not in ("auto", "dense", "sparse"):
                        raise ParseError(
                            f".OPTIONS SOLVER must be auto, dense or "
                            f"sparse (got {value})", lineno,
                        )
                    self.options["solver"] = backend
                elif name.lower() == "permc":
                    # Fill-reducing ordering for the sparse LU.
                    spec = value.upper()
                    specs = SparseLUSolver.PERMC_SPECS
                    if spec not in specs:
                        raise ParseError(
                            f".OPTIONS PERMC must be "
                            f"{', '.join(specs[:-1])} or {specs[-1]} "
                            f"(got {value})", lineno,
                        )
                    self.options["permc"] = spec
                elif name.lower() in recognized:
                    try:
                        self.options[name.lower()] = parse_value(value)
                    except Exception:
                        raise ParseError(
                            f"bad .OPTIONS value {name}={value}", lineno
                        ) from None
        elif card in (".IC", ".NODESET", ".PRINT", ".PLOT", ".PROBE"):
            pass  # accepted and ignored, as many decks carry them
        else:
            raise ParseError(f"unsupported card {card}", lineno)

    # -- elements ------------------------------------------------------------------

    def _parse_element(
        self, circuit: Circuit, line: str, lineno: int,
        prefix: str, node_map: dict[str, str],
    ) -> None:
        words = _split_with_groups(line, lineno)
        name = prefix + words[0]
        letter = words[0][0].upper()

        def node(raw: str) -> str:
            return node_map.get(raw, prefix + raw if raw not in ("0", "gnd", "GND")
                                else raw)

        try:
            if letter == "R":
                circuit.add(Resistor(name, (node(words[1]), node(words[2])),
                                     parse_value(words[3])))
            elif letter == "C":
                ic = _pop_ic(words)
                circuit.add(Capacitor(name, (node(words[1]), node(words[2])),
                                      parse_value(words[3]), ic=ic))
            elif letter == "L":
                ic = _pop_ic(words)
                circuit.add(Inductor(name, (node(words[1]), node(words[2])),
                                     parse_value(words[3]), ic=ic))
            elif letter in ("V", "I"):
                self._parse_source(circuit, letter, name, words, node, lineno)
            elif letter == "E":
                circuit.add(VCVS(name, tuple(node(w) for w in words[1:5]),
                                 parse_value(words[5])))
            elif letter == "G":
                circuit.add(VCCS(name, tuple(node(w) for w in words[1:5]),
                                 parse_value(words[5])))
            elif letter in ("F", "H"):
                out_nodes = (node(words[1]), node(words[2]))
                control_name = (prefix + words[3]).upper()
                coeff = parse_value(words[4])
                cls = CCCS if letter == "F" else CCVS

                def build(ckt, name=name, out_nodes=out_nodes,
                          control_name=control_name, coeff=coeff, cls=cls,
                          lineno=lineno):
                    try:
                        control = ckt.element(control_name)
                    except Exception:
                        raise ParseError(
                            f"controlling source {control_name} not found", lineno
                        ) from None
                    ckt.add(cls(name, out_nodes, control, coeff))

                self._deferred.append(build)
            elif letter == "D":
                model = self._lookup_model(words[3], DiodeModel, lineno)
                area = parse_value(words[4]) if len(words) > 4 else 1.0
                circuit.add(Diode(name, (node(words[1]), node(words[2])),
                                  model, area=area))
            elif letter == "Q":
                self._parse_bjt(circuit, name, words, node, lineno)
            elif letter == "X":
                self._instantiate_subckt(circuit, name, words, node, lineno)
            else:
                raise ParseError(f"unknown element type {words[0]!r}", lineno)
        except IndexError:
            raise ParseError(f"too few fields on element line: {line!r}",
                             lineno) from None

    def _parse_bjt(self, circuit, name, words, node, lineno) -> None:
        # Q name c b e [s] model [area]
        fields = words[1:]
        # The model name is the first field that names a known model.
        model_pos = None
        for pos in range(3, min(len(fields), 5)):
            if fields[pos].upper() in self.models:
                model_pos = pos
                break
        if model_pos is None:
            raise ParseError(
                f"BJT {name}: no .MODEL found among fields {fields[3:5]}", lineno
            )
        nodes = tuple(node(w) for w in fields[:model_pos])
        model = self._lookup_model(fields[model_pos], GummelPoonParameters, lineno)
        area = (parse_value(fields[model_pos + 1])
                if len(fields) > model_pos + 1 else 1.0)
        circuit.add(BJT(name, nodes, model, area=area))

    def _parse_source(self, circuit, letter, name, words, node, lineno) -> None:
        nodes = (node(words[1]), node(words[2]))
        rest = words[3:]
        waveform = DC(0.0)
        ac_mag = 0.0
        ac_phase = 0.0
        i = 0
        while i < len(rest):
            token = rest[i]
            upper = token.upper()
            if upper == "DC":
                waveform = DC(parse_value(rest[i + 1]))
                i += 2
            elif upper == "AC":
                ac_mag = parse_value(rest[i + 1])
                if i + 2 < len(rest) and _is_number(rest[i + 2]):
                    ac_phase = parse_value(rest[i + 2])
                    i += 3
                else:
                    i += 2
            elif upper.startswith("SIN("):
                args = _group_args(token, lineno)
                waveform = Sine(*args)
                i += 1
            elif upper.startswith("PULSE("):
                args = _group_args(token, lineno)
                waveform = Pulse(*args)
                i += 1
            elif upper.startswith("PWL("):
                args = _group_args(token, lineno)
                if len(args) % 2:
                    raise ParseError("PWL needs an even number of values", lineno)
                points = list(zip(args[0::2], args[1::2]))
                waveform = PWL(points)
                i += 1
            elif _is_number(token):
                waveform = DC(parse_value(token))
                i += 1
            else:
                raise ParseError(f"unexpected source field {token!r}", lineno)
        cls = VoltageSource if letter == "V" else CurrentSource
        circuit.add(cls(name, nodes, dc=waveform, ac_mag=ac_mag,
                        ac_phase_deg=ac_phase))

    def _instantiate_subckt(self, circuit, name, words, node, lineno) -> None:
        subckt_name = words[-1].upper()
        subckt = self.subckts.get(subckt_name)
        if subckt is None:
            raise ParseError(f"unknown subcircuit {words[-1]!r}", lineno)
        outer_nodes = [node(w) for w in words[1:-1]]
        if len(outer_nodes) != len(subckt.ports):
            raise ParseError(
                f"subcircuit {subckt.name} has {len(subckt.ports)} ports, "
                f"{len(outer_nodes)} given", lineno,
            )
        inner_prefix = name + "."
        port_map = dict(zip(subckt.ports, outer_nodes))
        for inner_lineno, line in subckt.body:
            self._parse_element(circuit, line, inner_lineno,
                                prefix=inner_prefix, node_map=port_map)

    def _lookup_model(self, name: str, expected_type, lineno: int):
        model = self.models.get(name.upper())
        if model is None:
            raise ParseError(f"unknown model {name!r}", lineno)
        if not isinstance(model, expected_type):
            raise ParseError(
                f"model {name!r} is a {type(model).__name__}, "
                f"expected {expected_type.__name__}", lineno,
            )
        return model


# -- lexical helpers ---------------------------------------------------------------


def _output_node(token: str, lineno: int) -> str:
    """Parse the ``V(node)`` operand of .TF/.NOISE/.FOUR cards."""
    match = re.match(r"^V\((\S+)\)$", token, re.IGNORECASE)
    if not match:
        raise ParseError(f"expected V(node), got {token!r}", lineno)
    return match.group(1)


def _logical_lines(text: str, first_line: int = 1) -> list[tuple[int, str]]:
    """Strip comments, join continuations; returns (lineno, line) pairs."""
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.split("$", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("*") or stripped.startswith(";"):
            continue
        if stripped.startswith("+"):
            if not lines:
                raise ParseError("continuation line with nothing to continue",
                                 lineno)
            prev_no, prev = lines[-1]
            lines[-1] = (prev_no, prev + " " + stripped[1:].strip())
        else:
            lines.append((lineno, stripped))
    return lines


def _split_with_groups(line: str, lineno: int) -> list[str]:
    """Split on whitespace but keep ``NAME( ... )`` groups as one token."""
    tokens: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        start = i
        depth = 0
        while i < n and (depth > 0 or not line[i].isspace()):
            if line[i] == "(":
                depth += 1
            elif line[i] == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ')'", lineno)
            i += 1
        if depth != 0:
            raise ParseError("unbalanced '('", lineno)
        tokens.append(line[start:i])
    return tokens


def _group_args(token: str, lineno: int) -> list[float]:
    """Parse ``NAME(a b c)`` (or comma-separated) into float args."""
    match = re.match(r"^\w+\((.*)\)$", token, re.DOTALL)
    if not match:
        raise ParseError(f"malformed function token {token!r}", lineno)
    inner = match.group(1).replace(",", " ")
    return [parse_value(w) for w in inner.split()]


def _parse_assignments(text: str, lineno: int) -> dict[str, float]:
    """Parse ``A=1 B=2u`` parameter lists."""
    params: dict[str, float] = {}
    words = text.replace("=", " = ").split()
    i = 0
    while i < len(words):
        if i + 2 >= len(words) or words[i + 1] != "=":
            raise ParseError(f"expected NAME=VALUE, got {words[i]!r}", lineno)
        params[words[i].upper()] = parse_value(words[i + 2])
        i += 3
    return params


def _is_number(token: str) -> bool:
    try:
        parse_value(token)
        return True
    except Exception:
        return False


def _pop_ic(words: list[str]) -> float | None:
    """Extract a trailing ``IC=value`` field, if present."""
    for i, word in enumerate(words):
        if word.upper().startswith("IC="):
            value = parse_value(word.split("=", 1)[1])
            del words[i]
            return value
    return None
