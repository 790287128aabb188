"""The :class:`Frontend` protocol and the frontend registry.

A *frontend* is the pluggable source-language section of the pipeline:
everything from source text down to the TAC + CFG artifacts.  From the
``simplify`` pass onward the pipeline is frontend-agnostic — renaming,
Fig. 4–6 storage allocation, LIW scheduling, and the memory simulator
never look at the source language — so a frontend only has to publish
the ``tac`` and ``cfg`` artifacts and the rest of the machinery runs
unchanged.

Two frontends are registered:

``mini``
    :class:`~repro.frontends.minilang.MiniLangFrontend` — the original
    Pascal-style mini-language.  Its :meth:`Frontend.passes` returns the
    *existing* PARSE/UNROLL/SEMA/LOWER pass objects verbatim, so the
    default path is byte-identical to the pre-frontend pipeline: same
    pass names, same config keys, same chained fingerprints.
``python``
    :class:`~repro.frontends.pybytecode.PyBytecodeFrontend` — compiles
    a real Python function via CPython bytecode: ``compile`` + ``dis``,
    basic-block CFG from jump targets, symbolic evaluation-stack
    destackification into TAC temporaries.

Frontend names are validated by the ``frontend`` knob of
:mod:`repro.passes.knobs`, so the CLI, :class:`repro.service.BatchJob`
and the server protocol fail a bad name with the same typed error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..passes.knobs import KNOB

if TYPE_CHECKING:
    from ..ir.tac import TacProgram
    from ..passes.artifacts import PipelineOptions
    from ..passes.manager import Pass

#: The frontend the pipeline uses when none is named.  Jobs and
#: requests enter ``frontend`` into cache keys only when it differs
#: from this, so every pre-frontend key is unchanged.
DEFAULT_FRONTEND: str = KNOB["frontend"].default


@runtime_checkable
class Frontend(Protocol):
    """One source language's section of the pipeline.

    ``passes()`` returns the pass objects that take the ``source``
    artifact to ``tac`` + ``cfg``; each pass carries its own
    fingerprint contribution through the ordinary
    ``Pass.config_keys`` mechanism, so two frontends with different
    pass names/configs can never collide in the artifact cache.
    ``to_tac`` is the one-shot convenience used by tests and tools
    that want TAC without running a pass manager.
    """

    @property
    def name(self) -> str:
        """Registry name (``mini``, ``python``)."""
        ...

    @property
    def source_kind(self) -> str:
        """Human-readable description of accepted source text."""
        ...

    def passes(self) -> "tuple[Pass, ...]":
        """The source -> tac/cfg section of the pass pipeline."""
        ...

    def to_tac(
        self, source: str, options: "PipelineOptions | None" = None
    ) -> "TacProgram":
        """One-shot lowering of ``source`` to a :class:`TacProgram`."""
        ...


FRONTENDS: dict[str, Frontend] = {}


def register_frontend(frontend: Frontend) -> Frontend:
    """Register ``frontend`` under its :attr:`Frontend.name`."""
    FRONTENDS[frontend.name] = frontend
    return frontend


def frontend_names() -> tuple[str, ...]:
    _ensure_loaded()
    return tuple(sorted(FRONTENDS))


def validate_frontend_name(name: str) -> str:
    """The ``frontend`` knob's validation: returns ``name``, or raises
    :class:`~repro.frontends.errors.UnknownFrontendError`."""
    return KNOB["frontend"].parse(name)


def get_frontend(name: str) -> Frontend:
    """Look up a registered frontend by name."""
    validate_frontend_name(name)
    return FRONTENDS[name]


_LOADED = False


def _ensure_loaded() -> None:
    """Import the built-in frontend modules (registration side effect).

    Lazy so this module stays import-cycle-free: ``minilang`` imports
    the lang/ir pass wrappers, which import ``repro.passes``."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from . import minilang, pybytecode  # noqa: F401
