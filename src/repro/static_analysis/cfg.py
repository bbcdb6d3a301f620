"""Control-flow graph construction over assembled programs.

The CFG is the substrate every other static pass consumes: basic blocks
split at branch targets and control transfers, edges derived from the
terminator kind, and the call/function structure recovered from ``jal``
links.  Nothing here looks at a trace — the point of the subsystem is to
predict branch behaviour *without* running the program.

Computed-jump conservatism: ``jalr`` has no static target, so its
successors are taken to be every address-taken text label (the assembler
records ``.word label`` jump-table entries on the
:class:`~repro.isa.program.Program`); a non-linking ``jalr`` with no known
table is treated as a return.  Linking jumps (``call``) get a fallthrough
edge — the callee is assumed to return — and the call target is recorded
as a function entry rather than an intra-procedural edge, so loops never
leak across function boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..isa.instructions import Instruction
from ..isa.program import INSTRUCTION_SIZE, Program


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line instruction run.

    Attributes:
        index: block id (position in address order).
        start: index of the first instruction (into ``program.instructions``).
        end: one past the last instruction.
        successors: block ids control may transfer to.
        is_padding: True if every instruction is the assembler's ``.skip``
            filler (never-executed scatter padding between functions).
    """

    index: int
    start: int
    end: int
    successors: Tuple[int, ...] = ()
    is_padding: bool = False

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class ControlFlowGraph:
    """Basic blocks, edges and function structure of one program.

    Attributes:
        program: the analysed program.
        blocks: all basic blocks in address order.
        entry: block id of the program entry point.
        function_entries: block ids that start a function (the entry point
            and every ``call`` target).
        indirect_targets: blocks whose address is taken (jump-table
            labels).  They stay inside their enclosing function — they are
            extra reachability roots, not function boundaries.
        call_sites: (caller block id, callee entry block id) pairs.
        predecessors: reverse edges, by block id.
    """

    program: Program
    blocks: List[BasicBlock]
    entry: int
    function_entries: FrozenSet[int]
    indirect_targets: FrozenSet[int]
    call_sites: Tuple[Tuple[int, int], ...]
    predecessors: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _block_of: Dict[int, int] = field(default_factory=dict)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def edge_count(self) -> int:
        return sum(len(b.successors) for b in self.blocks)

    def block_at(self, instr_index: int) -> BasicBlock:
        """The block containing the instruction at *instr_index*."""
        return self.blocks[self._block_of[instr_index]]

    def block_at_address(self, address: int) -> BasicBlock:
        """The block containing the instruction at byte *address*."""
        return self.block_at(self.program.index_of(address))

    def terminator(self, block: BasicBlock) -> Instruction:
        """The last instruction of *block*."""
        return self.program.instructions[block.end - 1]

    def address_of(self, block: BasicBlock) -> int:
        """Byte address of the first instruction of *block*."""
        return self.program.address_of(block.start)

    def conditional_branches(self) -> List[Tuple[int, int]]:
        """(branch PC, owning block id) for every conditional branch."""
        found = []
        for block in self.blocks:
            for i in range(block.start, block.end):
                if self.program.instructions[i].is_conditional_branch:
                    found.append((self.program.address_of(i), block.index))
        return found

    def reachable_blocks(self) -> Set[int]:
        """Block ids reachable from the entry, a function entry, or an
        address-taken label (the conservative root set)."""
        seen: Set[int] = set()
        frontier = [self.entry, *self.function_entries, *self.indirect_targets]
        while frontier:
            block_id = frontier.pop()
            if block_id in seen:
                continue
            seen.add(block_id)
            frontier.extend(self.blocks[block_id].successors)
        return seen

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All (source block id, destination block id) edges."""
        for block in self.blocks:
            for succ in block.successors:
                yield block.index, succ


def _padding_run(instr: Instruction) -> bool:
    """True for the assembler's `.skip` filler word (a canonical nop)."""
    return (
        instr.opcode.name == "ADDI"
        and instr.rd == 0
        and instr.rs1 == 0
        and instr.imm == 0
    )


def build_cfg(program: Program) -> ControlFlowGraph:
    """Build the control-flow graph of *program*.

    Leaders are the entry point, every static branch/jump target, every
    call target and address-taken label, and every instruction following a
    control transfer.  Successor edges follow the terminator semantics
    described in the module docstring.
    """
    instrs = program.instructions
    n = len(instrs)
    if n == 0:
        entry_block = BasicBlock(index=0, start=0, end=0)
        return ControlFlowGraph(
            program=program,
            blocks=[entry_block],
            entry=0,
            function_entries=frozenset(),
            indirect_targets=frozenset(),
            call_sites=(),
            predecessors={0: ()},
            _block_of={},
        )

    jump_targets = program.jump_table_targets()
    entry_index = _safe_index(program, program.entry_point) or 0

    # -- leaders ----------------------------------------------------------
    leaders: Set[int] = {0, entry_index}
    call_target_indices: Set[int] = set()
    for i, instr in enumerate(instrs):
        if instr.is_conditional_branch or instr.is_direct_jump:
            target = _safe_index(program, program.address_of(i) + instr.imm)
            if target is not None:
                leaders.add(target)
                if instr.is_call:
                    call_target_indices.add(target)
        if (instr.is_control or instr.is_halt) and i + 1 < n:
            leaders.add(i + 1)
    for address in jump_targets:
        leaders.add(program.index_of(address))

    ordered = sorted(leaders)
    block_index_of_leader = {leader: i for i, leader in enumerate(ordered)}

    # -- blocks and edges -------------------------------------------------
    blocks: List[BasicBlock] = []
    block_of: Dict[int, int] = {}
    call_sites: List[Tuple[int, int]] = []
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else n
        for i in range(start, end):
            block_of[i] = bi
        terminator = instrs[end - 1]
        successors: List[int] = []

        def link(instr_index: Optional[int]) -> None:
            if instr_index is not None and instr_index in block_index_of_leader:
                successors.append(block_index_of_leader[instr_index])

        term_addr = program.address_of(end - 1)
        if terminator.is_conditional_branch:
            link(_safe_index(program, term_addr + terminator.imm))
            if end < n:
                link(end)
        elif terminator.is_direct_jump:
            target = _safe_index(program, term_addr + terminator.imm)
            if terminator.is_call:
                if target is not None:
                    call_sites.append((bi, block_index_of_leader[target]))
                if end < n:
                    link(end)  # the callee returns here
            else:
                link(target)
        elif terminator.is_indirect_jump:
            if terminator.is_call:
                # indirect call: conservatively, any jump-table label
                # could be the callee; control resumes at the fallthrough
                for address in sorted(jump_targets):
                    call_sites.append(
                        (bi, block_index_of_leader[program.index_of(address)])
                    )
                if end < n:
                    link(end)
            elif not terminator.is_return:
                # computed jump: conservatively, any jump-table label
                for address in sorted(jump_targets):
                    link(program.index_of(address))
            # returns have no intra-procedural successors
        elif terminator.is_halt:
            pass
        elif end < n:
            link(end)  # plain fallthrough into the next leader

        padding = all(_padding_run(instrs[i]) for i in range(start, end))
        blocks.append(
            BasicBlock(
                index=bi,
                start=start,
                end=end,
                successors=tuple(dict.fromkeys(successors)),
                is_padding=padding,
            )
        )

    # de-duplicate call sites, preserve discovery order
    unique_calls = tuple(dict.fromkeys(call_sites))
    function_entries = frozenset(
        {block_index_of_leader[entry_index]}
        | {block_index_of_leader[i] for i in call_target_indices}
    )
    indirect_targets = frozenset(
        block_index_of_leader[program.index_of(address)]
        for address in jump_targets
    )

    predecessors: Dict[int, List[int]] = {b.index: [] for b in blocks}
    for block in blocks:
        for succ in block.successors:
            predecessors[succ].append(block.index)

    return ControlFlowGraph(
        program=program,
        blocks=blocks,
        entry=block_index_of_leader[entry_index],
        function_entries=function_entries,
        indirect_targets=indirect_targets,
        call_sites=unique_calls,
        predecessors={
            bid: tuple(preds) for bid, preds in predecessors.items()
        },
        _block_of=block_of,
    )


def _safe_index(program: Program, address: int) -> Optional[int]:
    """Instruction index of *address*, or None when it leaves the text
    segment (the lint pass reports those as branch-to-data)."""
    offset = address - program.text_base
    if offset % INSTRUCTION_SIZE:
        return None
    index = offset // INSTRUCTION_SIZE
    if not 0 <= index < len(program.instructions):
        return None
    return index
