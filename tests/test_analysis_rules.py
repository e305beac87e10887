"""One failing fixture per analysis rule: every rule id must fire.

``TRIGGERS`` maps each registered rule id to a builder returning a minimal
context that violates exactly that rule's invariant; the completeness test
pins the mapping to the registry so adding a rule without a trigger test
fails loudly.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    Analyzer,
    AnalysisContext,
    DEFAULT_REGISTRY,
    GeometrySpec,
    LayoutView,
    ProgramView,
)
from repro.analysis.context import _energy_mapping
from repro.energy.params import EnergyParams
from repro.isa.instructions import Condition, Instruction, Opcode
from repro.isa.registers import Register
from repro.layout.layouts import Layout
from repro.program import ProgramBuilder
from repro.program.basic_block import BasicBlock, BlockKind
from repro.program.function import Function

ALU = Instruction(Opcode.ADD, rd=Register.R1, rn=Register.R2, rm=Register.R3)
RET = Instruction(Opcode.RET)


def _block(uid, label, function, instructions, kind, **kwargs):
    return BasicBlock(
        uid=uid,
        label=label,
        function=function,
        instructions=tuple(instructions),
        kind=kind,
        **kwargs,
    )


def _view(*functions, entry=None):
    return AnalysisContext(
        subject="t", program=ProgramView("t", list(functions), entry=entry)
    )


# ---------------------------------------------------------------------------
# Program rules
# ---------------------------------------------------------------------------
def _trigger_p001():
    # A RETURN-kind block with no instructions at all.
    block = _block(0, "a", "main", (), BlockKind.RETURN)
    return _view(Function("main", (block,)))


def _trigger_p002():
    # Claims to jump but ends in an ALU instruction.
    block = _block(0, "a", "main", (ALU,), BlockKind.JUMP, taken_label="a")
    return _view(Function("main", (block,)))


def _trigger_p003():
    # A branch buried before the end of the block.
    inner = Instruction(Opcode.B, target="a")
    block = _block(0, "a", "main", (inner, ALU, RET), BlockKind.RETURN)
    return _view(Function("main", (block,)))


def _trigger_p004():
    # Falls through to a label nobody defines.
    block = _block(0, "a", "main", (ALU,), BlockKind.FALLTHROUGH, fall_label="ghost")
    done = _block(1, "b", "main", (RET,), BlockKind.RETURN)
    return _view(Function("main", (block, done)))


def _trigger_p005():
    # Two blocks claim 'join' as their fall-through successor.
    a = _block(0, "a", "main", (ALU,), BlockKind.FALLTHROUGH, fall_label="join")
    b = _block(1, "b", "main", (ALU,), BlockKind.FALLTHROUGH, fall_label="join")
    join = _block(2, "join", "main", (RET,), BlockKind.RETURN)
    return _view(Function("main", (a, b, join)))


def _trigger_p006():
    call = Instruction(Opcode.BL, target="ghost")
    a = _block(0, "a", "main", (call,), BlockKind.CALL, fall_label="b", callee="ghost")
    b = _block(1, "b", "main", (RET,), BlockKind.RETURN)
    return _view(Function("main", (a, b)))


def _trigger_p007():
    # Loops forever: no return, no unconditional jump.
    branch = Instruction(Opcode.B, condition=Condition.NE, target="a")
    a = _block(
        0, "a", "main", (ALU, branch), BlockKind.CONDJUMP,
        taken_label="a", fall_label="a",
    )
    return _view(Function("main", (a,)))


def _trigger_p008():
    main = Function("main", (_block(0, "a", "main", (RET,), BlockKind.RETURN),))
    dead = Function("dead", (_block(1, "d", "dead", (RET,), BlockKind.RETURN),))
    return _view(main, dead, entry="main")


# ---------------------------------------------------------------------------
# Layout / WPA rules
# ---------------------------------------------------------------------------
def _trigger_l001():
    layout = LayoutView("p", {0: 0, 1: 8}, {0: 16, 1: 8})
    return AnalysisContext(subject="p", layout=layout)


def _trigger_l002():
    layout = LayoutView("p", {0: 6}, {0: 8})
    return AnalysisContext(subject="p", layout=layout)


def _hot_cold_program():
    """cold entry chain first, hot loop chain second (separate chains)."""
    builder = ProgramBuilder("hotcold")
    main = builder.function("main")
    main.block("cold", 2, jump="hot")
    main.block("filler", 300, ret=True)  # dead weight between the chains
    main.block("hot", 8, ret=True)
    return builder.build(entry="main")


def _trigger_l003():
    program = _hot_cold_program()
    layout = Layout.from_order(
        program, [block.uid for block in program.blocks()], description="original"
    )
    counts = {program.uid_of_label("main", "hot"): 1000}
    return AnalysisContext(
        subject="hotcold",
        program=ProgramView.from_program(program),
        layout=LayoutView.from_layout(layout),
        block_counts=counts,
    )


def _trigger_l004():
    return AnalysisContext(subject="p", wpa_size=1536, page_size=1024)


def _displaced_context():
    program = _hot_cold_program()
    layout = Layout.from_order(
        program, [block.uid for block in program.blocks()], description="original"
    )
    counts = {
        program.uid_of_label("main", "cold"): 1,
        program.uid_of_label("main", "hot"): 1000,
    }
    # 'cold'+'filler' fill the first KB; 'hot' lands beyond the 1KB WPA.
    return AnalysisContext(
        subject="hotcold",
        program=ProgramView.from_program(program),
        layout=LayoutView.from_layout(layout),
        block_counts=counts,
        wpa_size=1024,
        page_size=1024,
    )


def _trigger_l006():
    return _displaced_context()


def _trigger_l007():
    return _displaced_context()


# ---------------------------------------------------------------------------
# Config rules
# ---------------------------------------------------------------------------
def _trigger_c001():
    geometry = GeometrySpec(size_bytes=32 * 1024, ways=32, line_size=32)
    return AnalysisContext(
        subject="c", geometry=geometry,
        energy=_energy_mapping(EnergyParams(way_mux_pj=1e6)),
    )


def _trigger_c002():
    return AnalysisContext(
        subject="c", energy=_energy_mapping(EnergyParams(l0_read_pj=500.0))
    )


def _trigger_c003():
    return AnalysisContext(subject="c", geometry=GeometrySpec(3000, 3, 24))


TRIGGERS = {
    "P001": _trigger_p001,
    "P002": _trigger_p002,
    "P003": _trigger_p003,
    "P004": _trigger_p004,
    "P005": _trigger_p005,
    "P006": _trigger_p006,
    "P007": _trigger_p007,
    "P008": _trigger_p008,
    "L001": _trigger_l001,
    "L002": _trigger_l002,
    "L003": _trigger_l003,
    "L004": _trigger_l004,
    "L006": _trigger_l006,
    "L007": _trigger_l007,
    "C001": _trigger_c001,
    "C002": _trigger_c002,
    "C003": _trigger_c003,
}


def test_every_registered_rule_has_a_trigger():
    from tests.test_verify_rules import V_TRIGGERS

    assert set(TRIGGERS) | set(V_TRIGGERS) == set(DEFAULT_REGISTRY.ids())
    assert not set(TRIGGERS) & set(V_TRIGGERS)


@pytest.mark.parametrize("rule_id", sorted(TRIGGERS))
def test_rule_fires_on_its_trigger(rule_id):
    diagnostics = Analyzer().run(TRIGGERS[rule_id]())
    fired = {diagnostic.rule_id for diagnostic in diagnostics}
    assert rule_id in fired


@pytest.mark.parametrize("rule_id", sorted(TRIGGERS))
def test_rule_respects_default_severity(rule_id):
    diagnostics = Analyzer().run(TRIGGERS[rule_id]())
    expected = DEFAULT_REGISTRY.get(rule_id).severity
    for diagnostic in diagnostics:
        if diagnostic.rule_id == rule_id:
            assert diagnostic.severity is expected


def test_rules_carry_suggestions_and_locations():
    diagnostics = Analyzer().run(_trigger_p008())
    target = [d for d in diagnostics if d.rule_id == "P008"]
    assert target and target[0].suggestion
    assert target[0].location.kind == "program"
    assert target[0].location.name == "t"
    assert "dead" in target[0].message


def test_clean_toy_program_has_no_program_diagnostics():
    builder = ProgramBuilder("ok")
    fn = builder.function("main")
    fn.block("a", 2)
    fn.block("b", 1, ret=True)
    program = builder.build()
    context = AnalysisContext.for_program(program)
    assert Analyzer(select=("P",)).run(context) == []

