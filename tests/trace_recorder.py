"""A trace sink that expands the executor's block trace into one
:class:`~repro.liw.AccessEvent` per executed word (tests / small runs
only: it keeps every event)."""

from __future__ import annotations

from repro.liw import AccessEvent, ArrayTouch, TraceChunk


class TraceRecorder:
    """Stores the access event of every word that completed, in order."""

    def __init__(self) -> None:
        self.events: list[AccessEvent] = []

    def consume(self, chunk: TraceChunk) -> None:
        indices = iter(chunk.indices)
        entries = [(block, len(block.words)) for block in chunk.blocks]
        if chunk.stop is not None:
            entries.append(chunk.stop)
        for block, completed in entries:
            for word in block.words[:completed]:
                self.events.append(AccessEvent(
                    word.sources,
                    tuple(
                        ArrayTouch(array, next(indices), is_store)
                        for array, is_store in word.touches
                    ),
                    word.dests,
                    word.transfers,
                ))
