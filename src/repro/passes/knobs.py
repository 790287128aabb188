"""Every compile knob, declared once: its type, default, validation and
error message, the sites that carry it, its key policies and its flag.

Every knob is a :class:`~repro.passes.artifacts.PipelineOptions` field
(``option="strategy_knobs"``: handed to the strategies, only when set);
``job`` knobs are also fields of :class:`repro.service.BatchJob`, of
server compile requests and of the server client.  A key policy says
when the batch service's source key or job key records the value:
``always``, ``non_default`` (older keys stay valid) or ``never``.
Choices are read from their registries when a value is checked, so
this module imports nothing else from the package.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from ..liw.machine import MachineConfig
    from .artifacts import PipelineOptions

ALWAYS, NON_DEFAULT, NEVER = "always", "non_default", "never"


class KnobError(ValueError):
    """A knob value outside its declared type, range or choices."""


@dataclass(frozen=True, slots=True)
class Knob:
    """One compile knob and every site that carries it."""

    name: str
    type: type
    default: Any
    message: str  # ``{value!r}`` and ``{valid}`` are filled in
    check: Callable[[Any], bool] | None = None  # on a typed, non-null value
    choices: Callable[[], Sequence[str]] | None = None
    normalize: Callable[[str], str] = str  # spelling of a choice
    nullable: bool = False
    option: str = ""  # the PipelineOptions field, if not ``name``
    job: bool = False
    source_key: str = NEVER
    job_key: str = NEVER
    only_with: str | None = None  # keys record it only if that is set too
    in_key: Callable[[Any, "MachineConfig"], object] | None = None
    flag: str | None = None
    help: str = ""
    error: Callable[[str], ValueError] = KnobError

    def parse(self, value: object) -> Any:
        """``value`` validated and normalized, or raise :attr:`error`."""
        if self.choices is not None:
            value = self.normalize(str(value))
            ok = value in self.choices()
        elif value is None:
            ok = self.nullable
        else:
            ok = isinstance(value, self.type) and (
                self.type is bool or not isinstance(value, bool)
            ) and (self.check is None or self.check(value))
        if not ok:
            valid = list(self.choices()) if self.choices else None
            raise self.error(self.message.format(value=value, valid=valid))
        return value

    def parse_text(self, text: str) -> Any:
        """:meth:`parse` of command-line text; numbers are converted
        first (text that does not convert fails the type check)."""
        value: object = text
        if self.type in (int, float):
            with suppress(ValueError):
                value = self.type(text)
        return self.parse(value)


def _registry(path: str) -> Callable[[], Sequence[str]]:
    """The choices held by ``module:attr``: a tuple, the sorted keys of
    a dict, or what a function returns."""

    def choices() -> Sequence[str]:
        module, _, attr = path.partition(":")
        found = getattr(import_module(module), attr)
        found = found() if callable(found) else found
        return sorted(found) if isinstance(found, dict) else found

    return choices


def _unknown_frontend(message: str) -> ValueError:
    from ..frontends.errors import UnknownFrontendError

    return UnknownFrontendError(message)


#: Ordered as the server protocol checks them.
KNOBS: tuple[Knob, ...] = (
    Knob("strategy", str, "STOR1",
         "unknown strategy {value!r} (valid: {valid})",
         choices=_registry("repro.core.strategies:STRATEGIES"),
         normalize=str.upper, job=True, source_key=ALWAYS, job_key=ALWAYS,
         flag="--strategy", help="storage-assignment strategy"),
    Knob("method", str, "hitting_set",
         "unknown method {value!r} (valid: {valid})",
         choices=_registry("repro.core.strategies:METHODS"), job=True,
         source_key=ALWAYS, job_key=ALWAYS, flag="--method",
         help="copy-duplication method"),
    Knob("unroll", int, 1, "unroll must be an int in 1..64",
         check=lambda v: 1 <= v <= 64, job=True, source_key=ALWAYS,
         flag="--unroll", help="unroll factor"),
    Knob("seed", int, 0, "seed must be an int", job=True, source_key=ALWAYS,
         job_key=ALWAYS, flag="--seed", help="strategy tie-break seed"),
    Knob("k", int, None, "k must be a positive int or null",
         check=lambda v: v > 0, nullable=True, job=True, source_key=ALWAYS,
         job_key=ALWAYS, in_key=lambda v, m: m.k if v is None else v),
    Knob("max_atom_nodes", int, None,
         "max_atom_nodes must be a positive int or null",
         check=lambda v: v > 0, nullable=True, option="strategy_knobs",
         job=True, source_key=NON_DEFAULT, job_key=NON_DEFAULT,
         flag="--max-atom-nodes", help="clique-separator decomposition bound"),
    # Accepted for compatibility only: its one legal value is the
    # default, which pipeline_options never forwards.
    Knob("runner", str, "serial", "unknown runner {value!r} (valid: {valid})",
         choices=_registry("repro.core.workunits:RUNNERS"),
         option="strategy_knobs", job=True),
    Knob("array_layout", str, "fixed",
         "unknown array_layout {value!r} (valid: {valid})",
         choices=_registry("repro.core.arraylayout:ARRAY_LAYOUT_MODES"),
         job=True, source_key=NON_DEFAULT, job_key=NON_DEFAULT,
         flag="--array-layout", help="'optimize' minimizes bank conflicts"),
    Knob("frontend", str, "mini", "unknown frontend {value!r} (valid: {valid})",
         choices=_registry("repro.passes.registry:FRONTENDS"),
         error=_unknown_frontend, job=True, source_key=NON_DEFAULT,
         flag="--frontend", help="source language"),
    Knob("entry", str, "", "entry must be a string", option="py_entry",
         job=True, source_key=NON_DEFAULT, only_with="frontend",
         flag="--entry", help="entry function of a python kernel"),
    Knob("constants_in_memory", bool, False,
         "constants_in_memory must be a boolean", job=True, source_key=ALWAYS,
         flag="--memory-constants", help="place large literals in memory"),
    Knob("simplify", bool, True, "simplify must be a boolean",
         flag="--no-simplify", help="skip the CFG simplification pass"),
    Knob("rename_mode", str, "web",
         "unknown rename_mode {value!r} (valid: {valid})",
         choices=_registry("repro.ir.rename:RENAME_MODES"),
         flag="--rename-mode", help="value-renaming granularity"),
    Knob("layout", str, "interleaved",
         "unknown layout {value!r} (valid: {valid})",
         choices=_registry("repro.memsim.interleave:LAYOUTS"),
         flag="--layout", help="array layout over the modules"),
    Knob("delta", float, 1.0, "delta must be a positive number",
         check=lambda v: 0 < v < math.inf, flag="--delta",
         help="Δ: module transfer time"),
)

KNOB: dict[str, Knob] = {knob.name: knob for knob in KNOBS}
#: The fields of a batch job, a compile request and the server client.
JOB_KNOBS: tuple[Knob, ...] = tuple(knob for knob in KNOBS if knob.job)


def key_fields(site: str, job: Any) -> dict[str, object]:
    """What the ``site`` key (``"source_key"``/``"job_key"``) records of
    ``job``, which has one attribute per job knob and ``machine``."""
    fields: dict[str, object] = {}
    for knob in JOB_KNOBS:
        policy, value = getattr(knob, site), getattr(job, knob.name)
        if policy == NEVER or (policy == NON_DEFAULT and value == knob.default):
            continue
        if knob.only_with is not None and (
            getattr(job, knob.only_with) == KNOB[knob.only_with].default
        ):
            continue
        fields[knob.name] = (
            value if knob.in_key is None else knob.in_key(value, job.machine)
        )
    return fields


def pipeline_options(
    values: Mapping[str, object], machine: "MachineConfig | None" = None
) -> "PipelineOptions":
    """The :class:`PipelineOptions` carrying the knob ``values`` (by knob
    name); knobs not given keep their defaults."""
    from .artifacts import PipelineOptions

    fields: dict[str, Any] = {}
    strategy_knobs: dict[str, object] = {}
    for name, value in values.items():
        option = KNOB[name].option or name
        if option != "strategy_knobs":
            fields[option] = value
        elif value != KNOB[name].default:
            strategy_knobs[name] = value
    return PipelineOptions(
        machine=machine,
        strategy_knobs=tuple(sorted(strategy_knobs.items())),
        **fields,
    )
