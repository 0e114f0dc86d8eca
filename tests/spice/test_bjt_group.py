"""Differential fuzzing of the vectorized device group against its stamp
reference.

A ``hypothesis`` strategy draws groups of up to six BJTs, each with its
own model card — npn or pnp, with or without RB, an external B-C
fraction (``XCJC < 1``), a substrate junction, finite or infinite Early
voltages, a bias-dependent transit time or none — and up to three
diodes, each with or without RS, CJO and TT, of its own N and area (a
group has at least one device, and may hold diodes only), added in a
drawn order and wired to a small shared node pool (every emitter and
every diode anode is private), plus a few successive random solutions.
Over evaluations that share one limits dict, as an analysis does:

* ``CompiledCircuit.evaluate`` matches the per-element reference
  :func:`~repro.spice.mna.load_circuit`: its stamps within the error
  bound of a floating-point sum (the two add the same terms in
  different orders), its per-device limiting history at
  ``TestStampingEquivalence``'s tolerances, and a limiting diode flags
  the evaluation as its reference does;
* a charges-only evaluation right after a full one, under the same
  limits dict and gmin, is that evaluation's charges linearized to the
  new point, ``q(x0) + C(x0) (x1 - x0)``, and leaves the limiting
  history alone; under another limits dict or another gmin it is a
  full evaluation, bit for bit;
* every lane of ``evaluate_stacked`` is scalar ``evaluate``, bit for
  bit, history and limiting flag included, while each stack mixes
  lanes that take the kernel's shortcuts (no junction limited, no
  exponent above ``EXP_LIMIT``) with lanes that do not;
* with lane stamps, each lane carrying its own temperature and
  resistor scale, every lane of ``evaluate_stacked``, and the scalar
  ``evaluate`` under that lane's stamps, is the ``evaluate`` of an
  engine compiled from that lane's circuit, bit for bit, with history
  and without; so is ``evaluate`` under a diode deck's temperature
  variant, whose lane carries its own diode parameters;
* a charges-only evaluation under other stamps than the last full one
  is a full evaluation, bit for bit.

The decks alone exercise one-BJT groups, the 20-BJT ring and a single
pnp, which leaves most columns of the stamp gather table's rarer rows
(external B-C, substrate, base resistance) on one parameter set.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from repro.devices import GummelPoonParameters
from repro.devices.gummel_poon import EXP_LIMIT
from repro.devices.temperature import at_temperature, celsius
from repro.errors import AnalysisError
from repro.spice import Circuit, compile_circuit
from repro.spice.elements import BJT, Diode, DiodeModel, Resistor
from repro.spice.engine import (
    _D_PARAMS, BJTGroup, LaneStamps, _diode_columns)
from repro.spice.mna import LoadContext, load_circuit
from repro.spice.temperature import _diode_model_at, circuit_at_temperature

from .test_engine import by_device

#: Collector, base and substrate nodes are drawn from this pool.
NODES = ("0", "a", "b", "c", "d")


def _bits(x) -> np.ndarray:
    values = getattr(x, "values", x)
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@st.composite
def models(draw):
    either = lambda off, on: draw(st.sampled_from((off, on)))  # noqa: E731
    return GummelPoonParameters(
        name="QF",
        polarity=either("npn", "pnp"),
        IS=draw(st.floats(1e-17, 1e-15)),
        BF=draw(st.floats(20.0, 200.0)),
        BR=draw(st.floats(0.5, 5.0)),
        NF=draw(st.floats(0.95, 1.1)),
        NR=draw(st.floats(0.95, 1.1)),
        ISE=either(0.0, 5e-15), NE=2.0,
        ISC=either(0.0, 1e-14), NC=2.0,
        VAF=either(math.inf, draw(st.floats(10.0, 80.0))),
        VAR=either(math.inf, draw(st.floats(2.0, 10.0))),
        IKF=either(math.inf, 8e-3), IKR=either(math.inf, 1e-2),
        RB=either(0.0, draw(st.floats(20.0, 200.0))),
        RBM=either(None, 10.0),
        RE=either(0.0, 3.0), RC=either(0.0, 60.0),
        # A grading coefficient of exactly 0.5: numpy's power takes a
        # sqrt for a broadcast exponent of 0.5 and pow otherwise.
        CJE=45e-15, VJE=0.9, MJE=either(0.35, 0.5),
        CJC=30e-15, VJC=0.7, MJC=either(0.33, 0.5),
        XCJC=either(1.0, draw(st.floats(0.2, 0.95))),
        CJS=either(0.0, 70e-15), VJS=0.6, MJS=either(0.4, 0.5),
        TF=either(0.0, 9e-12), XTF=either(0.0, 2.0),
        VTF=either(math.inf, 2.0), ITF=either(0.0, 8e-3),
        TR=either(0.0, 1e-9),
    )


@st.composite
def diode_models(draw):
    either = lambda off, on: draw(st.sampled_from((off, on)))  # noqa: E731
    return DiodeModel(
        name="DF",
        IS=draw(st.floats(1e-16, 1e-13)),
        N=draw(st.floats(0.95, 1.3)),
        RS=either(0.0, draw(st.floats(1.0, 50.0))),
        CJO=either(0.0, draw(st.floats(1e-15, 2e-12))),
        VJ=draw(st.floats(0.6, 1.0)),
        M=either(0.5, draw(st.floats(0.3, 0.5))),
        TT=either(0.0, draw(st.floats(1e-12, 1e-9))),
    )


@st.composite
def groups(draw):
    """``(circuit, mode, seed, scale)``: a device group with one load
    resistor to ground, and the recipe for its random solutions."""
    circuit = Circuit("bjt_group")
    circuit.add(Resistor("RL", ("a", "0"), 1e3))
    devices = []
    bjts = draw(st.integers(0, 6))
    for k in range(bjts):
        collector, base = draw(st.lists(st.sampled_from(NODES), min_size=2,
                                        max_size=2, unique=True))
        substrate = draw(st.sampled_from(NODES))
        devices.append(BJT(f"Q{k}", (collector, base, f"e{k}", substrate),
                           draw(models())))
    for k in range(draw(st.integers(0 if bjts else 1, 3))):
        devices.append(Diode(f"D{k}", (f"p{k}", draw(st.sampled_from(NODES))),
                             draw(diode_models()),
                             area=draw(st.floats(0.5, 4.0))))
    for device in draw(st.permutations(devices)):
        circuit.add(device)
    return (circuit, draw(st.sampled_from(("dense", "sparse"))),
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from((0.3, 0.9))))


class _TermMagnitudes(LoadContext):
    """The reference stamp walk with every term it adds replaced by its
    magnitude: entry by entry, ``Σ|terms|`` of the sum the walk forms.
    A conductance or capacitance stamp counts its current or charge as
    ``|g|·(|vp|+|vn|)``: the engine's ``G0 @ x`` adds the two products
    separately.  A BJT's emitter current ``-sign·(ic + ib)`` counts as
    ``|ic| + |ib|``, the terms it sums, which cancel where the emitter
    current is small against the collector and base currents.  A
    diode's companion current ``current + g·(v_raw − v_lim)`` counts as
    ``|current| + |g·(v_raw − v_lim)|``, and its charge the same way:
    the terms cancel under limiting."""

    def load(self, element) -> None:
        """Walk ``element``'s stamps; its currents and charges land once
        it is done."""
        self._currents, self._charges, self._g, self._c = [], [], [], []
        element.load(self)
        if isinstance(element, BJT):
            # load_dynamic stamps ic and ib, then the emitter's
            # -sign·(ic + ib), last of all its currents.
            (_, ic), (_, ib), (emitter, _) = self._currents[-3:]
            self._currents[-1] = (emitter, abs(ic) + abs(ib))
        elif isinstance(element, Diode):
            # load_dynamic stamps +-(current + g·dv) at the junction's
            # rows, and the charge the same way with c, last of all.
            (p, _), (n, _) = self._currents[-2:]
            dv = (self.voltage(p) - self.voltage(n)
                  - self.limits[element.name])
            for stamps, slope in ((self._currents, self._g[-4]),
                                  (self._charges, self._c[-4])):
                term = slope * dv
                magnitude = abs(stamps[-2][1] - term) + abs(term)
                stamps[-2:] = [(p, magnitude), (n, magnitude)]
        for row, value in self._currents:
            super().add_i(row, abs(value))
        for row, value in self._charges:
            super().add_q(row, abs(value))

    def add_i(self, row, value):
        self._currents.append((row, value))

    def add_g(self, row, col, value):
        self._g.append(value)
        super().add_g(row, col, abs(value))

    def add_q(self, row, value):
        self._charges.append((row, value))

    def add_c(self, row, col, value):
        self._c.append(value)
        super().add_c(row, col, abs(value))

    def _stamp_pair(self, p, n, value, add_vec, add_mat):
        magnitude = abs(value) * (abs(self.voltage(p)) + abs(self.voltage(n)))
        for row in (p, n):
            add_vec(row, magnitude)
            for col in (p, n):
                add_mat(row, col, value)

    def stamp_conductance(self, p, n, g):
        self._stamp_pair(p, n, g, self.add_i, self.add_g)

    def stamp_capacitance(self, p, n, c):
        self._stamp_pair(p, n, c, self.add_q, self.add_c)


def _term_magnitudes(circuit, x, limits) -> LoadContext:
    """``Σ|terms|`` of every entry :func:`load_circuit` sums at ``x``;
    ``limits`` must follow the reference walk's limiting history."""
    ctx = _TermMagnitudes(circuit.assign_indices(), x, None, 1e-12)
    ctx.limits = limits
    for element in circuit:
        ctx.load(element)
    return ctx


def _assert_within_sum_error(ref, ctx, magnitudes, rtol=1e-12, atol=1e-18):
    """``|engine - ref| <= rtol * Σ|terms| + atol`` per entry: the error
    bound of two floating-point sums of the same terms taken in
    different orders.  Against a flat ``rtol * |ref|`` it widens only
    where the terms cancel."""
    for attr in ("i_vec", "g_mat", "q_vec", "c_mat"):
        error = np.abs(np.asarray(getattr(ref, attr))
                       - np.asarray(getattr(ctx, attr)))
        bound = rtol * np.asarray(getattr(magnitudes, attr)) + atol
        assert np.all(error <= bound), (attr, float(np.max(error / bound)))


def _assert_group_matches_stamp_reference(circuit, mode, seed, scale,
                                          evaluations):
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    rng = np.random.default_rng(seed)
    limits_ref, limits, limits_terms = {}, {}, {}
    for _ in range(evaluations):
        x = scale * rng.standard_normal(size)
        ref = load_circuit(circuit, x, limits=limits_ref)
        terms = _term_magnitudes(circuit, x, limits_terms)
        ctx = engine.evaluate(x, limits=limits)
        _assert_within_sum_error(ref, ctx, terms)
        # The BJT reference reports no limiting; a diode's does.
        assert ctx.limited >= ref.limited
        if not any(isinstance(e, BJT) for e in circuit):
            assert ctx.limited == ref.limited
        named = by_device(limits)
        assert named.keys() == limits_ref.keys()
        for name, history in limits_ref.items():
            np.testing.assert_allclose(history, named[name],
                                       rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(case=groups(), evaluations=st.integers(3, 4))
def test_group_matches_stamp_reference(case, evaluations):
    _assert_group_matches_stamp_reference(*case, evaluations)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_stamp_reference_where_device_currents_cancel(mode):
    """A seeded group where a flat ``rtol=1e-12`` comparison fails on
    correct code: at the third evaluation the currents into Q2's
    internal emitter sum to 8.1e-6 A from terms of 0.48 A in magnitude,
    and the engine's and the reference's orders of summation differ by
    twice that flat bound.  The sum error bound holds with a wide
    margin."""
    def model(**values):
        return GummelPoonParameters(name="QF", **values)

    circuit = Circuit("bjt_group")
    circuit.add(Resistor("RL", ("a", "0"), 1e3))
    circuit.add(BJT("Q0", ("c", "a", "e0", "d"),
                    model(polarity="pnp", RE=3.0, RC=60.0)))
    circuit.add(BJT("Q1", ("d", "b", "e1", "a"),
                    model(polarity="pnp", RC=60.0)))
    circuit.add(BJT("Q2", ("b", "c", "e2", "a"), model(RE=3.0, RC=60.0)))
    circuit.add(BJT("Q3", ("a", "d", "e3", "a"),
                    model(polarity="pnp", RB=100.0, RE=3.0, RC=60.0)))
    _assert_group_matches_stamp_reference(circuit, mode, seed=4, scale=0.9,
                                          evaluations=3)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_stamp_reference_where_the_emitter_sum_cancels(mode):
    """A seeded group whose emitter stamp cancels: at the second
    evaluation Q0's collector and base currents are -/+2.4e11 A and its
    emitter current ``-(ic + ib)`` is 6.7e4 A.  The engine and the
    reference round ``ic`` and ``ib`` differently, so their emitter
    stamps differ by 458 times the bound of the stamp's magnitude
    alone; counted by its terms, ``|ic| + |ib|``, the bound holds with
    a wide margin."""
    def model(**values):
        return GummelPoonParameters(
            name="QF", NE=2.0, IKR=0.01, RBM=10.0, CJE=45e-15, VJE=0.9,
            MJE=0.35, CJC=30e-15, VJC=0.7, VJS=0.6, MJS=0.4, **values)

    circuit = Circuit("bjt_group")
    circuit.add(Resistor("RL", ("a", "0"), 1e3))
    circuit.add(BJT("Q0", ("b", "0", "e0", "c"), model(
        IS=2.4740874715502323e-16, BF=51.29705696048225,
        NF=0.9939321043581433, VAF=40.95212232381178, IKF=8e-3,
        BR=2.367160022048088, NR=1.0216595803665005,
        VAR=4.638764623421113, ISC=1e-14, RB=199.35352255560514, RE=3.0,
        CJS=70e-15, TF=9e-12, XTF=2.0, ITF=8e-3)))
    circuit.add(BJT("Q1", ("c", "d", "e1", "b"), model(
        IS=3.4666847753909195e-16, BF=198.6397806449565,
        NF=1.0332988950223245, ISE=5e-15, BR=2.375634223708891,
        NR=1.081518081088159, RB=90.55065987654474)))
    _assert_group_matches_stamp_reference(circuit, mode, seed=2651459305,
                                          scale=0.9, evaluations=2)


@settings(max_examples=30, deadline=None)
@given(case=groups())
def test_charge_replay_is_the_last_evaluation_linearized(case):
    circuit, mode, seed, scale = case
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    n = sum(isinstance(e, (BJT, Diode)) for e in circuit)
    x0, x1 = scale * np.random.default_rng(seed).standard_normal((2, size))
    limits = {}
    full = engine.evaluate(x0, limits=limits)
    expected = np.array(full.q_vec) + np.asarray(full.c_mat) @ (x1 - x0)
    snapshot = dict(limits)

    # Under the last evaluation's limits dict and gmin: a replay.
    before = engine.stats.bypassed_evals
    replay = engine.evaluate(x1, limits=limits, charges_only=True)
    np.testing.assert_allclose(replay.q_vec, expected, rtol=1e-12,
                               atol=1e-24)
    assert engine.stats.bypassed_evals - before == n
    assert limits.keys() == snapshot.keys()
    for key, history in snapshot.items():
        assert limits[key] is history

    # Under another limits dict (a copy of the last one), or another
    # gmin: a full evaluation.
    for copied, gmin in ((True, 1e-12), (False, 1e-9)):
        anchored = {}
        engine.evaluate(x0, limits=anchored)
        other = dict(anchored) if copied else anchored
        before = engine.stats.bypassed_evals
        got = np.array(engine.evaluate(x1, limits=other, gmin=gmin,
                                       charges_only=True).q_vec)
        assert engine.stats.bypassed_evals == before
        ref = engine.evaluate(x1, limits=dict(snapshot), gmin=gmin)
        np.testing.assert_array_equal(_bits(got), _bits(ref.q_vec))


#: The forward bias the stacked test puts on the first device's B-E
#: junction or diode junction: ``HOT / (NF vt)`` and ``HOT / (N vt)``
#: exceed ``EXP_LIMIT`` for every drawn NF and N.
HOT = 3.0


@settings(max_examples=30, deadline=None)
@given(case=groups(), lanes=st.integers(1, 4), evaluations=st.integers(3, 4))
def test_stacked_lanes_are_scalar_bit_for_bit(case, lanes, evaluations):
    _assert_stacked_lanes_are_scalar(*case, lanes, evaluations)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_stacked_one_bjt_with_grading_half_is_scalar(mode):
    """One BJT whose junctions all grade at exactly 0.5, eight lanes
    over the engine's shared parameters: the stacked depletion power
    then broadcasts a one-column exponent across the lanes, the layout
    in which numpy's power may round a 0.5 exponent as a sqrt."""
    circuit = Circuit("bjt_group")
    circuit.add(Resistor("RL", ("a", "0"), 1e3))
    circuit.add(BJT("Q0", ("a", "b", "e0", "c"), GummelPoonParameters(
        name="QF", CJE=45e-15, MJE=0.5, CJC=30e-15, MJC=0.5, XCJC=0.6,
        CJS=70e-15, MJS=0.5, TF=9e-12, RB=100.0)))
    _assert_stacked_lanes_are_scalar(circuit, mode, seed=7, scale=0.9,
                                     lanes=5, evaluations=3)


def _assert_stacked_lanes_are_scalar(circuit, mode, seed, scale, lanes,
                                     evaluations):
    """Three fixed lanes ride in every stack, so each one mixes the
    kernel's two shortcuts with its general paths: a quiet lane (all
    zero: nothing limited, ordinary exponents), a held lane (the first
    device at ``vbe = HOT`` throughout: its exponent above
    ``EXP_LIMIT``, never limited) and a jumping lane (the same point,
    from a zero history: limited at every evaluation)."""
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    hot = np.zeros(size)
    first = circuit.element(engine._bjt_group.names[0])
    if isinstance(first, BJT):
        assert HOT / (first.params.NF * first._vt) > EXP_LIMIT
        # Its emitter (never ground) HOT below the base.
        hot[first._internal_indices()[2]] = -first.params.sign * HOT
    else:
        assert HOT / (first.model.N * first._vt) > EXP_LIMIT
        # Its junction's anode (never ground) HOT above the cathode.
        hot[(first.branch_index or first.node_index)[0]] = HOT
    quiet, held, jump = range(3)
    lanes += 3
    rng = np.random.default_rng(seed)
    history = engine.new_history(lanes)
    history[jump] = 0.0
    limits = [{} for _ in range(lanes)]
    limits[jump][engine._bjt_group] = np.zeros_like(history[jump])
    for _ in range(evaluations):
        x_stack = scale * rng.standard_normal((lanes, size))
        x_stack[quiet] = 0.0
        x_stack[held] = x_stack[jump] = hot
        stacked = engine.evaluate_stacked(x_stack, history=history,
                                          with_c=True)
        assert history[held][0, 0] == HOT
        assert history[jump][0, 0] < 1.0
        assert stacked.limited[jump] and not stacked.limited[quiet]
        for k in range(lanes):
            ctx = engine.evaluate(x_stack[k], limits=limits[k])
            assert ctx.limited == stacked.limited[k]
            for name, lane, scalar in (
                ("i", stacked.i[k], ctx.i_vec), ("g", stacked.g[k], ctx.g_mat),
                ("q", stacked.q[k], ctx.q_vec), ("c", stacked.c[k], ctx.c_mat),
            ):
                np.testing.assert_array_equal(_bits(lane), _bits(scalar),
                                              err_msg=name)
            [group] = [key for key in limits[k] if isinstance(key, BJTGroup)]
            np.testing.assert_array_equal(_bits(history[k]),
                                          _bits(limits[k][group]))


def _lane_circuit(circuit: Circuit, temp: float, r_scale: float) -> Circuit:
    """``circuit`` with every BJT and diode re-modelled at ``temp`` (K)
    and every resistor scaled by ``r_scale``: a temperature x R-scale
    corner."""
    lane = Circuit(f"{circuit.title} @ {temp:.2f} K x {r_scale}")
    for element in circuit:
        if isinstance(element, BJT):
            lane.add(BJT(element.name, element.nodes,
                         at_temperature(element.model, temp),
                         area=element.area))
        elif isinstance(element, Diode):
            lane.add(Diode(element.name, element.nodes,
                           _diode_model_at(element.model, temp),
                           area=element.area))
        else:
            lane.add(Resistor(element.name, element.nodes,
                              element.resistance * r_scale))
    return lane


@settings(max_examples=30, deadline=None)
@given(case=groups(),
       corners=st.lists(st.tuples(st.floats(233.15, 398.15),
                                  st.floats(0.5, 2.0)),
                        min_size=1, max_size=4),
       with_history=st.booleans(), evaluations=st.integers(2, 3))
def test_lane_stamps_are_each_lanes_own_engine(case, corners, with_history,
                                               evaluations):
    circuit, mode, seed, scale = case
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    circuits = [_lane_circuit(circuit, temp, r_scale)
                for temp, r_scale in corners]
    lanes = LaneStamps.concat([engine.lane_stamps(c) for c in circuits])
    # Each lane's reference: an engine compiled from its own circuit.
    own = [compile_circuit(c, mode=mode) for c in circuits]
    assert len(lanes) == len(own)
    history = engine.new_history(len(own)) if with_history else None
    limits = [{} for _ in own]
    stamped_limits = [{} for _ in own]
    rng = np.random.default_rng(seed)
    for _ in range(evaluations):
        x_stack = scale * rng.standard_normal((len(own), size))
        stacked = engine.evaluate_stacked(x_stack, history=history,
                                          with_c=True, lanes=lanes)
        for k, lane_engine in enumerate(own):
            ctx = lane_engine.evaluate(
                x_stack[k], limits=limits[k] if with_history else {})
            # The scalar path: the lane's stamps on the one engine.
            stamped = engine.evaluate(
                x_stack[k], limits=stamped_limits[k] if with_history else {},
                stamps=lanes.take([k]))
            for name, lane, scalar, under in (
                ("i", stacked.i[k], ctx.i_vec, stamped.i_vec),
                ("g", stacked.g[k], ctx.g_mat, stamped.g_mat),
                ("q", stacked.q[k], ctx.q_vec, stamped.q_vec),
                ("c", stacked.c[k], ctx.c_mat, stamped.c_mat),
            ):
                np.testing.assert_array_equal(_bits(lane), _bits(scalar),
                                              err_msg=name)
                np.testing.assert_array_equal(_bits(under), _bits(scalar),
                                              err_msg=name)
            if with_history:
                [group] = [key for key in limits[k]
                           if isinstance(key, BJTGroup)]
                np.testing.assert_array_equal(_bits(history[k]),
                                              _bits(limits[k][group]))
                np.testing.assert_array_equal(
                    _bits(stamped_limits[k][engine._bjt_group]),
                    _bits(limits[k][group]))


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_diode_lane_stamps_are_the_variants_own_engine(mode):
    """A diode deck's temperature variant under its lane stamps: the
    lane carries the variant's re-modelled diode's parameters, which the
    one engine's ``evaluate`` stamps in place of its own."""
    circuit = _pair(GummelPoonParameters(name="QN", CJE=45e-15, TF=9e-12))
    circuit.add(Diode("D1", ("a", "b"),
                      DiodeModel(name="DC", IS=1e-14, CJO=5e-15, TT=1e-9)))
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    hot = circuit_at_temperature(circuit, celsius(85.0))
    stamps = engine.lane_stamps(hot)
    _, diode = _diode_columns([hot.element("D1")], size)
    np.testing.assert_array_equal(stamps.params[_D_PARAMS, 0, -1],
                                  diode[_D_PARAMS, 0])
    assert stamps.params[0, 0, -1] != engine.stamps.params[0, 0, -1]
    own = compile_circuit(hot, mode=mode)
    limits, stamped_limits = {}, {}
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = 0.9 * rng.standard_normal(size)
        ctx = own.evaluate(x, limits=limits)
        stamped = engine.evaluate(x, limits=stamped_limits, stamps=stamps)
        for name in ("i_vec", "g_mat", "q_vec", "c_mat"):
            np.testing.assert_array_equal(
                _bits(getattr(stamped, name)), _bits(getattr(ctx, name)),
                err_msg=name)
        np.testing.assert_array_equal(
            _bits(stamped_limits[engine._bjt_group]),
            _bits(limits[own._bjt_group]))
    # The engine's own lane is untouched: its default evaluation is
    # still the deck's own.
    reference = compile_circuit(circuit, mode=mode).evaluate(x, limits={})
    np.testing.assert_array_equal(
        _bits(engine.evaluate(x, limits={}).i_vec), _bits(reference.i_vec))


@settings(max_examples=30, deadline=None)
@given(case=groups(), corner=st.tuples(st.floats(233.15, 398.15),
                                       st.floats(0.5, 2.0)))
def test_charge_replay_never_crosses_stamps(case, corner):
    """A charges-only evaluation right after a full one, under the same
    limits dict and gmin but other stamps, re-evaluates the devices:
    its charges are that full evaluation's, bit for bit.  Either way
    round: the engine's own stamps after a lane's, a lane's after the
    engine's own."""
    circuit, mode, seed, scale = case
    size = circuit.assign_indices()
    engine = compile_circuit(circuit, mode=mode)
    lane = engine.lane_stamps(_lane_circuit(circuit, *corner))
    x0, x1 = scale * np.random.default_rng(seed).standard_normal((2, size))
    for first, then in ((lane, None), (None, lane)):
        limits = {}
        engine.evaluate(x0, limits=limits, stamps=first)
        snapshot = dict(limits)
        before = engine.stats.bypassed_evals
        got = np.array(engine.evaluate(x1, limits=limits, stamps=then,
                                       charges_only=True).q_vec)
        assert engine.stats.bypassed_evals == before
        ref = engine.evaluate(x1, limits=snapshot, stamps=then)
        np.testing.assert_array_equal(_bits(got), _bits(ref.q_vec))


def _pair(model: GummelPoonParameters) -> Circuit:
    circuit = Circuit("pair")
    circuit.add(Resistor("RL", ("a", "0"), 1e3))
    circuit.add(BJT("Q0", ("a", "b", "e0", "0"), model))
    circuit.add(BJT("Q1", ("b", "a", "e1", "0"), model))
    return circuit


def test_lane_stamps_need_the_engines_topology():
    npn = GummelPoonParameters(name="QN")
    engine = compile_circuit(_pair(npn))
    # A corner of the same circuit is a lane; the reindexed, the
    # reordered, the grown and the re-polarized are not.
    assert len(engine.lane_stamps(_lane_circuit(_pair(npn), 350.0, 1.2))) == 1
    moved = _pair(npn)
    moved.remove("RL")
    moved.add(Resistor("RL", ("b", "0"), 1e3))
    swapped = Circuit("swapped")
    for name in ("Q1", "Q0", "RL"):
        swapped.add(_pair(npn).element(name))
    grown = _pair(npn)
    grown.add(Resistor("R2", ("a", "b"), 1e3))
    flipped = _pair(GummelPoonParameters(name="QP", polarity="pnp"))
    for circuit in (moved, swapped, grown, flipped):
        with pytest.raises(AnalysisError):
            engine.lane_stamps(circuit)
    # A diode rides in its lane: the group's last column.
    clamped = _pair(npn)
    clamped.add(Diode("D1", ("a", "0"), DiodeModel(name="DC")))
    lane = compile_circuit(clamped).lane_stamps(clamped)
    _, diode = _diode_columns([clamped.element("D1")],
                              clamped.assign_indices())
    np.testing.assert_array_equal(lane.params[:, 0, 2], diode[:, 0])
