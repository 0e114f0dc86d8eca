"""Deck-runner and CLI tests."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import (
    ACResult,
    DeckRun,
    OperatingPointResult,
    TransientResult,
    run_deck,
)
from repro.spice.analysis import DCSweepResult, Simulator
from repro.spice.dcop import solve_dc
from repro.spice.elements import DC
from repro.spice.engine import compile_circuit
from repro.spice.parser import parse_deck

DECK_DIR = Path(__file__).resolve().parents[2] / "examples" / "decks"

FULL_DECK = """runner exercise
V1 in 0 DC 5 AC 1
R1 in out 1k
C1 out 0 1n
.OP
.DC V1 0 5 1
.AC DEC 5 1k 10MEG
.TRAN 10u 200u
.END
"""


class TestRunDeck:
    def test_runs_all_cards_in_order(self):
        run = run_deck(FULL_DECK)
        kinds = [type(r) for r in run.results]
        assert kinds == [OperatingPointResult, DCSweepResult, ACResult,
                         TransientResult]

    def test_op_result_correct(self):
        run = run_deck(FULL_DECK)
        op = run.first(OperatingPointResult)
        assert op.voltage("out") == pytest.approx(5.0, rel=1e-6)

    def test_dc_sweep_values(self):
        run = run_deck(FULL_DECK)
        sweep = run.first(DCSweepResult)
        assert list(sweep.sweep_values) == [0, 1, 2, 3, 4, 5]
        # C1 is open at DC: V(out) follows V1 at every point.
        np.testing.assert_allclose(sweep.voltage("out"),
                                   sweep.sweep_values, rtol=1e-6,
                                   atol=1e-9)

    def test_ac_pole(self):
        run = run_deck(FULL_DECK)
        ac = run.first(ACResult)
        import numpy as np

        # pole at 1/(2*pi*1k*1n) ~ 159 kHz: last point well past it
        mags = np.abs(ac.voltage("out"))
        assert mags[0] == pytest.approx(1.0, rel=1e-3)
        assert mags[-1] < 0.05

    def test_missing_result_kind(self):
        run = run_deck("op only\nV1 a 0 1\nR1 a 0 1k\n.OP\n.END\n")
        with pytest.raises(AnalysisError):
            run.first(ACResult)

    def test_deck_without_analyses_rejected(self):
        with pytest.raises(AnalysisError):
            run_deck("no cards\nV1 a 0 1\nR1 a 0 1k\n.END\n")

    def test_summary_text(self):
        run = run_deck(FULL_DECK)
        text = run.summary()
        assert ".OP" in text
        assert ".AC sweep" in text
        assert ".TRAN" in text
        assert "V(out)" in text


CE_DECK = (DECK_DIR / "ce_stage.cir").read_text()

#: A resistive divider: V(out) = V1 * R2 / (R1 + R2).
DIVIDER = """resistive divider
V1 in 0 DC 10
R1 in out 1k
R2 out 0 3k
{card}
.END
"""


class TestDCSweep:
    """``.DC`` solves each level as a lane of the compiled engine: every
    point is the operating point of the deck written at that level."""

    def test_every_point_is_the_deck_at_that_level(self):
        """Each point against a fresh solve of the deck written at that
        level, from the sweep's own warm start (the previous point), and
        against that deck's residual."""
        deck = CE_DECK.replace(".OP", ".DC VB 0.7 0.9 0.1", 1)
        sweep = run_deck(deck).first(DCSweepResult)
        assert len(sweep.sweep_values) == 3
        np.testing.assert_allclose(sweep.voltage("b"), [0.7, 0.8, 0.9],
                                   rtol=1e-12)
        start = None
        for level, state in zip(sweep.sweep_values, sweep.states):
            written = CE_DECK.replace("VB b 0 DC 0.8",
                                      f"VB b 0 DC {float(level)!r}")
            assert written != CE_DECK
            circuit = parse_deck(written).circuit
            fresh = solve_dc(circuit, x0=start)
            np.testing.assert_allclose(state, fresh, rtol=1e-6, atol=1e-9)
            residual = compile_circuit(circuit).evaluate(state, limits={})
            assert np.max(np.abs(residual.i_vec)) < 1e-6
            start = state

    def test_divider_sweep_matches_its_closed_form(self):
        sweep = run_deck(DIVIDER.format(card=".DC V1 -5 20 5")).first(
            DCSweepResult)
        levels = sweep.sweep_values
        assert list(levels) == [-5, 0, 5, 10, 15, 20]
        # To the 1e-12 S node shunts' share, 1e-12 S x 750 ohm.
        np.testing.assert_allclose(sweep.voltage("out"),
                                   levels * 3e3 / (1e3 + 3e3), rtol=1e-8,
                                   atol=1e-12)
        np.testing.assert_allclose(sweep.voltage("in"), levels, rtol=1e-12,
                                   atol=1e-12)

    def test_sweep_leaves_the_source_and_engine_alone(self):
        circuit = parse_deck(DIVIDER.format(card=".OP")).circuit
        simulator = Simulator(circuit)
        source = circuit.element("V1")
        waveform = source.waveform
        simulator.dc_sweep("V1", [1.0, 2.0])
        assert source.waveform is waveform
        assert simulator.operating_point().voltage("out") == \
            pytest.approx(7.5, rel=1e-8)

    def test_sweeps_set_dc_sources_only(self):
        """The deck evaluators' rule: a sweep sets the level of an
        independent source with a DC waveform, and nothing else."""
        pulsed = DIVIDER.format(card=".DC V1 0 5 1").replace(
            "V1 in 0 DC 10", "V1 in 0 PULSE(0 10 1n 1n 1n 5n 10n)")
        with pytest.raises(AnalysisError, match="DC source levels only"):
            run_deck(pulsed)
        simulator = Simulator(parse_deck(DIVIDER.format(card=".OP")).circuit)
        with pytest.raises(AnalysisError, match="'R1' is not an "
                                                "independent source"):
            simulator.dc_sweep("R1", [1.0])

    def test_waveform_edit_answers_after_invalidate(self):
        circuit = parse_deck(
            DIVIDER.format(card=".OP").replace("3k", "1k")).circuit
        simulator = Simulator(circuit)
        assert simulator.operating_point().voltage("out") == \
            pytest.approx(5.0, rel=1e-8)
        circuit.element("V1").waveform = DC(20)
        circuit.invalidate()
        assert simulator.operating_point().voltage("out") == \
            pytest.approx(10.0, rel=1e-8)


class TestCLI:
    def test_run_command(self, tmp_path, capsys):
        from repro.cli import main

        deck = tmp_path / "test.cir"
        deck.write_text("cli deck\nV1 a 0 2\nR1 a 0 1k\n.OP\n.END\n")
        assert main(["run", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "V(a) = 2" in out

    def test_run_missing_file(self, capsys):
        from repro.cli import main

        assert main(["run", "/nonexistent.cir"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_bad_deck(self, tmp_path, capsys):
        from repro.cli import main

        deck = tmp_path / "bad.cir"
        deck.write_text("bad\nR1 a 0\n.OP\n.END\n")
        assert main(["run", str(deck)]) == 1

    def test_generate_command(self, capsys):
        from repro.cli import main

        assert main(["generate", "N1.2-12D", "N1.2-6S"]) == 0
        out = capsys.readouterr().out
        assert ".MODEL QN1P2_12D NPN(" in out
        assert ".MODEL QN1P2_6S NPN(" in out

    def test_generate_bad_shape(self, capsys):
        from repro.cli import main

        assert main(["generate", "XYZZY"]) == 1

    def test_shapes_command(self, capsys):
        from repro.cli import main

        assert main(["shapes"]) == 0
        out = capsys.readouterr().out
        assert "N1.2-12D" in out
        assert "XCJC" in out


class TestCLISelect:
    def test_select_command(self, capsys):
        from repro.cli import main

        assert main(["select", "4m"]) == 0
        out = capsys.readouterr().out
        assert "shape selection at Ic = 4.00 mA" in out
        assert out.strip().endswith(tuple(
            ["N1.2-" + s for s in ("6S", "6D", "12D", "24D", "48D")]
        )) or "->" in out

    def test_select_bad_current(self, capsys):
        from repro.cli import main

        assert main(["select", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestExtendedCards:
    def test_tf_card(self):
        run = run_deck("""tf card
V1 in 0 DC 10
R1 in out 3k
R2 out 0 1k
.TF V(out) V1
.END
""")
        from repro.spice.analysis import TransferFunction

        tf = run.first(TransferFunction)
        assert tf.gain == pytest.approx(0.25, rel=1e-6)
        assert "Rin" in run.summary()

    def test_tf_card_takes_the_deck_gmin(self):
        from repro.spice import parse_deck
        from repro.spice.analysis import TransferFunction, transfer_function

        deck = (DECK_DIR / "ce_stage.cir").read_text().replace(
            ".OP", ".OPTIONS GMIN=1e-6\n.OP", 1)
        gain = run_deck(deck).first(TransferFunction).gain
        assert gain == transfer_function(
            parse_deck(deck).circuit, "VB", "c", gmin=1e-6).gain
        assert gain != transfer_function(
            parse_deck(deck).circuit, "VB", "c").gain

    def test_tf_and_noise_cards_take_the_deck_tolerances(self):
        from repro.spice import NoiseResult, Tolerances, parse_deck
        from repro.spice.analysis import TransferFunction, transfer_function
        from repro.spice.noise import solve_noise

        deck = (DECK_DIR / "ce_stage.cir").read_text().replace(
            ".OP", ".OPTIONS RELTOL=1e-6\n.OP", 1).replace(
            ".AC", ".NOISE V(c) VB DEC 2 1MEG 10MEG\n.AC", 1)
        run = run_deck(deck)
        tight = Tolerances(reltol=1e-6)
        circuit = parse_deck(deck).circuit
        gain = run.first(TransferFunction).gain
        assert gain == transfer_function(circuit, "VB", "c",
                                         tolerances=tight).gain
        assert gain != transfer_function(circuit, "VB", "c").gain
        noise = run.first(NoiseResult).output_density
        freqs = [1e6, 10 ** 6.5, 1e7]
        assert noise.tobytes() == solve_noise(
            circuit, "c", freqs, input_source="VB",
            tolerances=tight).output_density.tobytes()

    def test_noise_card(self):
        run = run_deck("""noise card
V1 in 0 DC 0 AC 1
R1 in out 10k
R2 out 0 10k
.NOISE V(out) V1 DEC 5 1k 1MEG
.END
""")
        from repro.spice import NoiseResult

        noise = run.first(NoiseResult)
        # 5k parallel resistance thermal noise
        assert noise.output_density[0] == pytest.approx(
            4 * 1.380649e-23 * 300.15 * 5e3, rel=1e-6
        )
        assert ".NOISE" in run.summary()

    def test_four_card_after_tran(self):
        run = run_deck("""four card
V1 in 0 SIN(0 1 1MEG)
R1 in out 1k
R2 out 0 1k
.TRAN 2n 5u
.FOUR 1MEG V(out)
.END
""")
        from repro.spice import FourierResult

        fourier = run.first(FourierResult)
        assert fourier.amplitude(1) == pytest.approx(0.5, rel=0.01)
        assert "THD" in run.summary()

    def test_four_without_tran_rejected(self):
        with pytest.raises(AnalysisError):
            run_deck("""bad four
V1 in 0 SIN(0 1 1MEG)
R1 in 0 1k
.FOUR 1MEG V(in)
.END
""")

    def test_malformed_cards_rejected(self):
        from repro.errors import ParseError
        from repro.spice import parse_deck

        with pytest.raises(ParseError):
            parse_deck("t\nV1 a 0 1\nR1 a 0 1\n.TF out V1\n.END\n")
        with pytest.raises(ParseError):
            parse_deck("t\nV1 a 0 1\nR1 a 0 1\n.NOISE V(a) V1 DEC 5\n.END\n")
        with pytest.raises(ParseError):
            parse_deck("t\nV1 a 0 1\nR1 a 0 1\n.FOUR V(a)\n.END\n")
