"""The engine registry: pluggable, parameterizable, composable engines.

The paper's claim is hardware-obliviousness — the *same* operator plans
run on whatever execution resources exist, selected at runtime.  This
module is the API that makes the engine surface itself oblivious: rather
than a frozen dict of five labels, engines are **families** registered in
an :class:`EngineRegistry`, and a connection string is an **engine
spec** parsed by a small grammar::

    spec    :=  FAMILY [ ":" arg ("," arg)* ]
    arg     :=  COUNT "x" CHILD          (replication argument, e.g. 4xHET)
             |  WORD                     (family-defined flag, e.g. hash)
             |  NAME "=" VALUE           (family-defined parameter)

Examples::

    "CPU"             the Ocelot single-device engine
    "HET"             the heterogeneous CPU+GPU scheduler
    "SHARD:4xHET"     four simulated nodes, each running HET
    "shard:8xcpu"     case-insensitive; canonicalises to "SHARD:8xCPU"
    "SHARD:2xMS,key=lineitem.l_orderkey"   declared shard key (repeatable)

Flags are fixed words from the family's ``allowed_flags`` (e.g. the
universal ``fusion=off`` switch); parameters are ``NAME=VALUE`` pairs
whose NAME comes from the family's ``allowed_params`` and whose VALUE
is free-form (validated by the family's ``configure``) — the sharded
engine uses them for per-table shard-key declarations.  On top of its
own arguments every family accepts the engine **knobs** — fusion,
morsel, compression, trace, obs_slow_ms, timeout, admission — which are
declared once, in :data:`KNOBS`; :meth:`EngineConfig.plan` runs the one
plan pipeline, :data:`PHASES`, that they gate.

Parsing yields an :class:`EngineSpec` — ``(family, params)`` plus the
**canonical** spec string, which is what the plan cache, the serve layer
and the per-database connection cache key on.  Families resolve a spec
to an :class:`EngineConfig` (factory + optimizer pipeline + declared
properties); configs are memoised per canonical spec.

Out-of-tree engines plug in with :func:`register_engine` — the sharded
multi-node engine (:mod:`repro.shard`) registers itself exactly this
way, composing over child engines resolved through the same registry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

from .compress import passes as compress_passes
from .fuse import passes as fuse_passes
from .monetdb.backends import MonetDBParallel, MonetDBSequential
from .monetdb.interpreter import Backend
from .monetdb.mal import MALProgram
from .monetdb.ops import operator_table_markdown
from .monetdb.storage import Catalog
from .morsel import passes as morsel_passes
from .ocelot import rewriter
from .ocelot.engine import OcelotBackend
from .sched.backend import HeterogeneousBackend


class EngineSpecError(ValueError):
    """A connection string failed to parse or names no registered engine."""


# -- the knob table ----------------------------------------------------------

#: the words that switch any knob off, in a spec and in the environment
OFF_WORDS = ("off", "0", "false", "no")


@dataclass(frozen=True)
class Knob:
    """One engine knob, declared once: the spec grammar, the environment
    override, the plan-cache identity, the README table and the CI A/B
    matrix are all derived from :data:`KNOBS`."""

    name: str
    #: how the knob is written in an engine spec (docs and errors)
    syntax: str
    #: the allowed values, in words (docs and errors)
    values: str
    default: object
    #: the value every word of :data:`OFF_WORDS` stands for
    off: object
    doc: str
    #: value of a non-off word, ``ValueError`` if it is none — used for
    #: spec words and environment words alike.  ``None``: the knob can
    #: only be switched off, and is the *flag word* ``<name>=off`` in
    #: the grammar, so ``CPU:fusion=on`` stays rejected and cannot
    #: alias ``CPU`` in the connection and plan caches
    parse: Optional[Callable[[str], object]] = None
    #: environment variable overriding the knob process-wide
    env: Optional[str] = None
    #: whether the effective value is part of a compiled plan's identity
    plan_identity: bool = False
    #: REPRO_TRACE predates the table and is pinned looser than its spec
    #: parameter: *any* word that is not an off-word forces tracing on
    env_any_word_on: bool = False

    @property
    def flag(self) -> Optional[str]:
        """The knob's flag word, when it is a flag in the grammar."""
        return f"{self.name}=off" if self.parse is None else None

    def value_of(self, word: str) -> object:
        """The value ``word`` stands for; ``ValueError`` if none."""
        if word in OFF_WORDS:
            return self.off
        if self.parse is None:
            raise ValueError(word)
        return self.parse(word)

    def env_value(self) -> object:
        """The environment override, or ``None`` when the variable is
        unset, blank or holds a word the knob does not recognise."""
        if self.env is None:
            return None
        word = os.environ.get(self.env, "").strip().lower()
        if not word:
            return None
        try:
            return self.value_of(word)
        except ValueError:
            return self.value_of("on") if self.env_any_word_on else None

    def effective(self, setting: object = None) -> object:
        """Environment override > ``setting`` (an engine spec's value)
        > default.  The environment is read per call, never cached."""
        override = self.env_value()
        if override is not None:
            return override
        return self.default if setting is None else setting


def _count(word: str) -> int:
    if word.isdigit() and int(word) > 0:
        return int(word)
    raise ValueError(word)


def _morsel_rows(word: str) -> int:
    if word == "on":
        return morsel_passes.DEFAULT_MORSEL_SIZE
    return _count(word)


def _compression_mode(word: str) -> str:
    if word == "on":
        return "auto"
    if word in compress_passes.MODES:
        return word
    raise ValueError(word)


def _switch_on(word: str) -> bool:
    if word in ("on", "1", "true", "yes"):
        return True
    raise ValueError(word)


def _positive_seconds(word: str) -> float:
    seconds = float(word)
    if seconds > 0.0:
        return seconds
    raise ValueError(word)


def _millis(word: str) -> float:
    millis = float(word)
    if millis >= 0.0:
        return millis
    raise ValueError(word)


#: every engine knob, by name.  Every family accepts all of them.
KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("fusion", "fusion=off", "'off'", default=True, off=False,
         env="REPRO_FUSION", plan_identity=True,
         doc="operator fusion: collapse element-wise chains into one "
             "generated kernel (repro.fuse)"),
    Knob("morsel", "morsel=<rows>", "'off', 'on' or a positive row count",
         default=morsel_passes.DEFAULT_MORSEL_SIZE, off=0,
         parse=_morsel_rows, env="REPRO_MORSEL", plan_identity=True,
         doc="morsel-driven execution and its morsel size "
             "(repro.morsel)"),
    Knob("compression", "compression=<mode>",
         "one of " + ", ".join(compress_passes.MODES),
         default="auto", off="off",
         parse=_compression_mode, env="REPRO_COMPRESSION",
         plan_identity=True,
         doc="compressed execution, on any codec or one codec family; "
             "the environment override is the storage-time mode too "
             "(repro.compress)"),
    Knob("trace", "trace=on", "'on' or 'off'", default=False, off=False,
         parse=_switch_on, env="REPRO_TRACE", env_any_word_on=True,
         doc="query-scoped tracing of every statement (repro.obs)"),
    Knob("obs_slow_ms", "obs_slow_ms=<ms>",
         "'off' or a non-negative number of milliseconds",
         default=0.0, off=0.0, parse=_millis,
         doc="slow-query-log threshold: slower queries are appended to "
             "Connection.metrics.slow_queries"),
    Knob("timeout", "timeout=<seconds>",
         "'off' or a positive number of seconds",
         default=0.0, off=0.0, parse=_positive_seconds,
         doc="default deadline (simulated seconds) of every submit(); "
             "execute() sets none"),
    Knob("admission", "admission=<n>", "'off' or a positive query count",
         default=0, off=0, parse=_count,
         doc="how many queries — submit() or execute() — the session "
             "scheduler admits concurrently"),
)}

#: the knobs whose effective value is part of a plan's identity
_PLAN_IDENTITY = tuple(
    k.name for k in KNOBS.values() if k.plan_identity
)


def knob_settings(spec: "EngineSpec") -> dict[str, object]:
    """Every knob's value under ``spec`` (its default when absent).

    Raises :class:`EngineSpecError` for malformed or conflicting values.
    """
    settings = {}
    for knob in KNOBS.values():
        words = spec.param_values(knob.name)
        if knob.flag in spec.flags:
            words += ("off",)
        if len(words) > 1:
            raise EngineSpecError(
                f"engine spec {spec.canonical!r}: conflicting "
                f"{knob.name}= values {words!r}"
            )
        try:
            settings[knob.name] = (
                knob.value_of(words[0]) if words else knob.default
            )
        except ValueError:
            raise EngineSpecError(
                f"engine spec {spec.canonical!r}: {knob.name}= takes "
                f"{knob.values}, got {words[0]!r}"
            ) from None
    return settings


@dataclass(frozen=True)
class EngineSpec:
    """One parsed engine spec: family + parameters + canonical string."""

    family: str                       # canonical family name, upper-case
    count: Optional[int] = None       # the COUNT of a "COUNTxCHILD" arg
    child: Optional[str] = None       # canonical child spec of that arg
    flags: tuple[str, ...] = ()       # family-defined words, lower-case
    #: family-defined (name, value) parameters, lower-case, sorted;
    #: a name may repeat (e.g. several ``key=...`` declarations)
    params: tuple[tuple[str, str], ...] = ()
    canonical: str = ""               # e.g. "SHARD:4xHET"

    def param_values(self, name: str) -> tuple[str, ...]:
        """Every value given for parameter ``name``, in canonical order."""
        return tuple(v for n, v in self.params if n == name)

    def __str__(self) -> str:
        return self.canonical


_REPLICATION_ARG = re.compile(r"^(\d+)x(.+)$", re.IGNORECASE)


@dataclass(frozen=True)
class EngineConfig:
    """One resolved engine: backend factory + planning pipeline.

    ``label`` is the family display name (figure columns, result
    attribution); ``spec`` is the canonical spec string the plan cache
    and connection cache key on.  For parameterless families the two
    coincide.
    """

    label: str
    make: Callable[[Catalog, float], Backend]
    is_ocelot: bool
    #: one-line description (README engine table, examples, tooling)
    description: str = ""
    #: canonical engine spec; defaults to ``label`` for parameterless
    #: families (set via ``__post_init__`` to keep the dataclass frozen)
    spec: str = ""
    #: the spec's value of every knob in :data:`KNOBS`, filled in by
    #: :meth:`EngineRegistry.resolve`; read through :meth:`effective`
    knobs: dict = field(
        default_factory=lambda: {k.name: k.default for k in KNOBS.values()}
    )

    def __post_init__(self):
        if not self.spec:
            object.__setattr__(self, "spec", self.label)

    def effective(self, name: str) -> object:
        """The value knob ``name`` runs under: environment override >
        this engine's spec > default (see :meth:`Knob.effective`)."""
        return KNOBS[name].effective(self.knobs[name])

    def with_knob_off(self, name: str) -> "EngineConfig":
        """This engine with one knob switched off (``explain``'s
        comparison plans); same spec, different :meth:`plan_key`."""
        return replace(self, knobs={**self.knobs, name: KNOBS[name].off})

    def plan_key(self) -> tuple:
        """The effective knob values a compiled plan depends on."""
        # the effective values (engine settings AND the environment
        # overrides) are part of the identity: a fused and an unfused —
        # or a morselized and a whole-column — compilation of one
        # statement are different plans, and flipping an environment
        # variable mid-process must not serve plans compiled under the
        # other setting.  The morsel value is the size, so retuning
        # ``REPRO_MORSEL=<rows>`` recompiles instead of reusing regions
        # cut at the old size.  The compression mode is part of the
        # identity for the same reason: compressed-execution plans
        # carry ``compress.*`` instructions that an ``off`` connection
        # must never be served.
        return tuple(self.effective(name) for name in _PLAN_IDENTITY)

    def plan(self, program: MALProgram) -> MALProgram:
        """Optimizer pipeline for this configuration: every phase of
        :data:`PHASES` whose gate holds, in order.

        Deterministic per (program, engine, :meth:`plan_key`) — the
        serve layer's plan cache memoises its output keyed by SQL text,
        canonical engine spec and the plan key (see
        :mod:`repro.serve.plancache`).
        """
        for phase in PHASES:
            if phase.gate(self):
                program = phase.run(program, self)
        return program


class Phase(NamedTuple):
    """One step of the plan pipeline."""

    name: str
    gate: Callable[[EngineConfig], bool]
    run: Callable[[MALProgram, EngineConfig], MALProgram]


#: the plan pipeline, in order.  Each ``run`` reaches its pass through
#: the defining module's attribute at call time, so a wrapper installed
#: on that attribute (``perf/``'s timing spans) is the one that runs.
PHASES = (
    # first: rewrites selections, groupings and aggregates over base
    # columns into their ``compress.*`` forms, which the later passes
    # treat as opaque leaf operators (fusion never fuses them, the
    # Ocelot rewriter passes them through, the morsel pass streams the
    # selects)
    Phase("compress",
          lambda config: config.effective("compression") != "off",
          lambda program, config: compress_passes.compress_program(
              program, config.effective("compression"))),
    # before the rewriter, which then reroutes whole ``fuse.pipe``
    # regions to ``ocelot.pipe`` alongside the ordinary module swaps
    Phase("fuse",
          lambda config: config.effective("fusion"),
          lambda program, config: fuse_passes.fuse_program(program)),
    Phase("ocelot",
          lambda config: config.is_ocelot,
          lambda program, config: rewriter.rewrite_for_ocelot(program)),
    # last: collapses pipelined regions, in whichever operator
    # vocabulary the earlier phases left behind, into ``morsel.run``
    Phase("morsel",
          lambda config: config.effective("morsel") > 0,
          lambda program, config: morsel_passes.morselize_program(
              program, size=config.effective("morsel"))),
)


@dataclass(frozen=True)
class EngineFamily:
    """One registered family: how to turn parsed params into a config."""

    name: str
    configure: Callable[[EngineSpec, "EngineRegistry"], EngineConfig]
    description: str = ""
    #: spec syntax shown in listings/errors, e.g. "SHARD:<N>x<CHILD>[,hash]"
    syntax: str = ""
    #: whether the family accepts a COUNTxCHILD replication argument
    takes_child: bool = False
    #: flag words the family accepts (lower-case)
    allowed_flags: frozenset = frozenset()
    #: parameter NAMEs the family accepts as ``NAME=VALUE`` args; the
    #: VALUE side is free-form (the family's ``configure`` validates it)
    allowed_params: frozenset = frozenset()

    def __post_init__(self):
        # every family accepts every knob, on top of its own arguments
        object.__setattr__(self, "allowed_flags", self.allowed_flags | {
            k.flag for k in KNOBS.values() if k.flag
        })
        object.__setattr__(self, "allowed_params", self.allowed_params | {
            k.name for k in KNOBS.values() if not k.flag
        })


class EngineRegistry:
    """Engine families by name, with per-canonical-spec config memoisation."""

    def __init__(self):
        self._families: dict[str, EngineFamily] = {}
        self._configs: dict[str, EngineConfig] = {}

    # -- registration -------------------------------------------------------

    def register(self, family: EngineFamily, override: bool = False) -> None:
        name = family.name.upper()
        if name in self._families and not override:
            raise ValueError(
                f"engine family {name!r} is already registered "
                f"(pass override=True to replace it)"
            )
        self._families[name] = family
        # a family replacement invalidates every memoised config:
        # composite configs (SHARD:2xMS) embed child configs in their
        # factory closures, so scoping the purge to the replaced family
        # would leave stale children behind — and re-resolving is cheap
        self._configs.clear()

    def families(self) -> list[EngineFamily]:
        """Registered families, in registration order."""
        return list(self._families.values())

    def specs(self) -> list[str]:
        """Spec syntax of every family, for listings and error messages."""
        return [f.syntax or f.name for f in self._families.values()]

    # -- the spec grammar --------------------------------------------------------

    def parse(self, text: str) -> EngineSpec:
        """Parse and canonicalise one engine spec string.

        Arguments after the family separate on ``,`` or ``:``
        interchangeably (``SHARD:4xCPU:replicas=2`` names the same
        engine as ``SHARD:4xCPU,replicas=2``); the canonical form
        always uses ``,``.  Child specs of a ``<N>x<CHILD>`` argument
        are non-composite, so the extra separator is unambiguous."""
        if not isinstance(text, str) or not text.strip():
            raise EngineSpecError(
                f"engine spec must be a non-empty string, got {text!r}; "
                f"registered engines: {', '.join(self.specs())}"
            )
        head, sep, rest = text.strip().partition(":")
        name = head.strip().upper()
        family = self._families.get(name)
        if family is None:
            raise EngineSpecError(
                f"unknown engine family {head.strip()!r}; "
                f"registered engines: {', '.join(self.specs())}"
            )
        count: Optional[int] = None
        child: Optional[str] = None
        flags: list[str] = []
        params: list[tuple[str, str]] = []
        if sep:
            if not rest.strip():
                raise EngineSpecError(
                    f"engine spec {text!r}: empty parameter list after ':'"
                )
            for arg in re.split(r"[,:]", rest):
                arg = arg.strip()
                if not arg:
                    raise EngineSpecError(
                        f"engine spec {text!r}: empty parameter"
                    )
                m = _REPLICATION_ARG.match(arg)
                if m:
                    if not family.takes_child:
                        raise EngineSpecError(
                            f"engine family {name} takes no parameters "
                            f"(got {arg!r}); registered engines: "
                            f"{', '.join(self.specs())}"
                        )
                    if count is not None:
                        raise EngineSpecError(
                            f"engine spec {text!r}: duplicate "
                            f"<N>x<CHILD> argument"
                        )
                    count = int(m.group(1))
                    if count < 1:
                        raise EngineSpecError(
                            f"engine spec {text!r}: count must be >= 1"
                        )
                    child_text = m.group(2).strip()
                    if ":" in child_text:
                        raise EngineSpecError(
                            f"engine spec {text!r}: child engine "
                            f"{child_text!r} must be a non-composite spec"
                        )
                    # canonicalise (and existence-check) the child through
                    # the same registry — composition, not special-casing
                    child = self.parse(child_text).canonical
                    continue
                word = arg.lower()
                if word in family.allowed_flags:
                    if word in flags:
                        raise EngineSpecError(
                            f"engine spec {text!r}: duplicate parameter "
                            f"{arg!r}"
                        )
                    flags.append(word)
                    continue
                # NAME=VALUE parameter (flags are matched exactly above,
                # so a flag containing '=' — fusion=off — stays a flag)
                pname, eq, pvalue = word.partition("=")
                if eq and pname in family.allowed_params:
                    if not pvalue:
                        raise EngineSpecError(
                            f"engine spec {text!r}: parameter {pname!r} "
                            f"needs a value (got {arg!r})"
                        )
                    if (pname, pvalue) in params:
                        raise EngineSpecError(
                            f"engine spec {text!r}: duplicate parameter "
                            f"{arg!r}"
                        )
                    params.append((pname, pvalue))
                    continue
                allowed = sorted(family.allowed_flags) + [
                    f"{p}=<value>" for p in sorted(family.allowed_params)
                ]
                raise EngineSpecError(
                    f"engine spec {text!r}: unknown parameter {arg!r} "
                    f"for family {name}"
                    + (f" (allowed: {', '.join(allowed)})" if allowed
                       else "")
                )
        if family.takes_child and sep and count is None:
            raise EngineSpecError(
                f"engine spec {text!r}: family {name} requires an "
                f"<N>x<CHILD> argument, e.g. {family.syntax}"
            )
        # flags and parameters sort together in the canonical form so
        # "F:a,b" and "F:b,a" name one engine (one connection, one set
        # of plan-cache entries)
        flags.sort()
        params.sort()
        words = sorted(flags + [f"{n}={v}" for n, v in params])
        args = ([f"{count}x{child}"] if count is not None else []) + words
        canonical = name + (":" + ",".join(args) if args else "")
        return EngineSpec(
            family=name, count=count, child=child, flags=tuple(flags),
            params=tuple(params), canonical=canonical,
        )

    # -- resolution --------------------------------------------------------------

    def resolve(self, spec: "str | EngineSpec") -> EngineConfig:
        """The (memoised) config for one spec, parsing if necessary."""
        if isinstance(spec, str):
            spec = self.parse(spec)
        config = self._configs.get(spec.canonical)
        if config is None:
            knobs = knob_settings(spec)
            family = self._families[spec.family]
            config = replace(
                family.configure(spec, self),
                spec=spec.canonical, knobs=knobs,
            )
            self._configs[spec.canonical] = config
        return config


#: the process-wide default registry; the five paper configurations are
#: registered below, the sharded engine by :mod:`repro.shard`.
default_registry = EngineRegistry()


def register_engine(family: EngineFamily, override: bool = False) -> None:
    """Register an engine family with the default registry."""
    default_registry.register(family, override=override)


def _paper_engine(name: str, description: str, make, *,
                  is_ocelot: bool) -> None:
    """Register a family resolving to one fixed configuration (plus the
    engine knobs every family accepts, :data:`KNOBS`)."""

    def configure(spec: EngineSpec, registry) -> EngineConfig:
        return EngineConfig(label=name, make=make, is_ocelot=is_ocelot,
                            description=description)

    register_engine(EngineFamily(name=name, configure=configure,
                                 description=description, syntax=name))


# the paper's four configurations (§5.1) plus the HET extension (§7)
_paper_engine(
    "MS", "sequential MonetDB baseline (single core)",
    lambda cat, scale: MonetDBSequential(cat, data_scale=scale),
    is_ocelot=False,
)
_paper_engine(
    "MP", "parallel MonetDB (Mitosis + Dataflow, hand-tuned)",
    lambda cat, scale: MonetDBParallel(cat, data_scale=scale),
    is_ocelot=False,
)
_paper_engine(
    "CPU", "Ocelot on the simulated Intel Xeon (Intel SDK)",
    lambda cat, scale: OcelotBackend(cat, "cpu", data_scale=scale),
    is_ocelot=True,
)
_paper_engine(
    "GPU", "Ocelot on the simulated NVIDIA GTX 460",
    lambda cat, scale: OcelotBackend(cat, "gpu", data_scale=scale),
    is_ocelot=True,
)
_paper_engine(
    "HET", "heterogeneous scheduler owning CPU and GPU at once",
    lambda cat, scale: HeterogeneousBackend(cat, data_scale=scale),
    is_ocelot=True,
)


def engines() -> list[EngineFamily]:
    """The registered engine families (name, description, spec syntax)."""
    return default_registry.families()


def engine_table_markdown() -> str:
    """The README's engine table, generated from registry descriptions."""
    rows = [
        "| Engine | What it is | Options |",
        "|--------|------------|---------|",
    ]
    for family in engines():
        syntax = family.syntax or family.name
        options = sorted(family.allowed_flags) + [
            f"{name}=…" for name in sorted(family.allowed_params)
        ]
        cell = ", ".join(f"`{o}`" for o in options) or "—"
        rows.append(f"| `{syntax}` | {family.description} | {cell} |")
    return "\n".join(rows)


def knob_table_markdown() -> str:
    """The README's knob table, generated from :data:`KNOBS`."""
    rows = [
        "| Knob | Spec syntax | Values | Default | Environment override "
        "| Part of plan identity? | What it controls |",
        "|------|-------------|--------|---------|----------------------"
        "|------------------------|------------------|",
    ]
    for knob in KNOBS.values():
        if knob.default == knob.off:
            default = "off"
        else:
            default = "on" if knob.default is True else str(knob.default)
        env = f"`{knob.env}`" if knob.env else "—"
        identity = "yes" if knob.plan_identity else "no"
        rows.append(
            f"| `{knob.name}` | `{knob.syntax}` | {knob.values} "
            f"| {default} | {env} | {identity} | {knob.doc} |"
        )
    return "\n".join(rows)


def _print_tables() -> None:  # pragma: no cover - CLI convenience
    # running as ``python -m repro.engines`` executes a *copy* of this
    # module with its own registry; go through the canonical package
    # attribute so the table reflects every registration (SHARD too)
    import repro

    print(repro.engine_table_markdown())
    print()
    print(knob_table_markdown())
    print()
    print(operator_table_markdown())


if __name__ == "__main__":  # pragma: no cover
    _print_tables()
