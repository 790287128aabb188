"""CFG simplification: jump threading and block merging.

The front end's structured lowering leaves label-only blocks and long
jump chains (every ``end``/``endif`` label becomes a block whose body is
a single jump).  On a lock-step LIW machine each of those costs a full
cycle, so the scheduler wants them gone:

- **jump threading** — an edge into a block that only jumps is
  redirected to the jump's target;
- **block merging** — a block whose single successor has no other
  predecessor is fused with it, giving the list scheduler longer
  straight-line stretches to pack.

Both passes preserve the program's execution order exactly (they remove
only unconditional control transfers), so interpreter and executor
outputs are unchanged.  Neither changes its input: rewritten
terminators and all surviving blocks are new objects (instruction lists
of untouched blocks, and of blocks whose branch targets stay, are
shared), so the ``Cfg`` that lowering produced, and a pass cache may
hold, stays valid.
"""

from __future__ import annotations

from dataclasses import replace

from . import tac
from .cfg import BasicBlock, Cfg


def _is_trivial_jump(block: BasicBlock) -> bool:
    return len(block.instrs) == 1 and isinstance(block.instrs[0], tac.Jump)


def thread_jumps(cfg: Cfg) -> Cfg:
    """Redirect branches through jump-only blocks to their final target."""
    # Resolve each block to its ultimate non-trivial target.  A jump
    # already retargeted is followed to its new target.
    final_target: dict[str, str] = {}
    retargeted: dict[str, list[tac.TacInstr]] = {}
    by_label = {block.label: block for block in cfg.blocks}

    def resolve(label: str, seen: frozenset[str]) -> str:
        if label in final_target:
            return final_target[label]
        if label in seen:  # jump cycle (infinite loop): leave as is
            return label
        block = by_label[label]
        if _is_trivial_jump(block):
            jump = retargeted.get(label, block.instrs)[0]
            target = resolve(
                jump.target, seen | {label}  # type: ignore[attr-defined]
            )
        else:
            target = label
        final_target[label] = target
        return target

    for block in cfg.blocks:
        last = block.instrs[-1]
        if not last.TARGETS:
            continue
        # Only a jump-only block can reach itself through jump-only
        # blocks, so seeding ``seen`` with the block's own label changes
        # nothing for a CJump.
        seen = frozenset({block.label})
        moved: dict[str, str] = {}
        for slot in last.TARGETS:
            target = resolve(getattr(last, slot), seen)
            if target != getattr(last, slot):
                moved[slot] = target
        if moved:  # a terminator whose targets stay is kept, not copied
            new = replace(last, **moved)
            retargeted[block.label] = block.instrs[:-1] + [new]
    return _rebuild(cfg, retargeted)


def merge_blocks(cfg: Cfg) -> Cfg:
    """Fuse straight-line chains: A ends in a jump to B, B has only A as
    predecessor — append B's instructions to A."""
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            last = block.instrs[-1]
            if not isinstance(last, tac.Jump):
                continue
            succ = cfg.blocks[block.succs[0]]
            # Never absorb the entry block (it has an implicit program-
            # start predecessor) or a self-loop.
            if succ is block or succ.index == 0 or len(succ.preds) != 1:
                continue
            cfg = _rebuild(
                cfg,
                {
                    block.label: block.instrs[:-1] + succ.instrs,
                    # unreachable now; dropped by the rebuild
                    succ.label: [tac.Halt()],
                },
            )
            changed = True
            break
    return cfg


def _rebuild(cfg: Cfg, rewritten: dict[str, list[tac.TacInstr]]) -> Cfg:
    """A new ``Cfg`` of new blocks: ``cfg``'s blocks with the
    instruction lists in ``rewritten`` (by label) swapped in,
    unreachable blocks dropped, and indices and edges recomputed."""
    code = {b.label: rewritten.get(b.label, b.instrs) for b in cfg.blocks}
    targets: dict[str, tuple[str, ...]] = {}  # of the reachable blocks
    stack = [cfg.blocks[0].label]
    while stack:
        label = stack.pop()
        if label in targets:
            continue
        targets[label] = code[label][-1].targets()
        stack.extend(reversed(targets[label]))

    # Stable order: keep original relative order of surviving blocks.
    labels = [b.label for b in cfg.blocks if b.label in targets]
    index_of = {label: i for i, label in enumerate(labels)}
    blocks: list[BasicBlock] = []
    for i, label in enumerate(labels):
        succs: list[int] = []
        for target in targets[label]:
            if index_of[target] not in succs:  # a CJump's arms may meet
                succs.append(index_of[target])
        blocks.append(BasicBlock(i, label, code[label], succs))
    for b in blocks:
        for s in b.succs:
            blocks[s].preds.append(b.index)
    return Cfg(cfg.name, blocks, cfg.arrays, cfg.scalars, cfg.const_table)


def simplify_cfg(cfg: Cfg) -> Cfg:
    """Thread jumps, then merge straight-line chains, to fixpoint."""
    before = -1
    while before != len(cfg.blocks):
        before = len(cfg.blocks)
        cfg = thread_jumps(cfg)
        cfg = merge_blocks(cfg)
    return cfg
