"""Strict sectioned key-value experiment configs.

The format is deliberately tiny: `[section]` headers, `key = value` lines,
`#` comments, UTF-8. Every key a user can write is one row of `_KEYS`,
which says how its value parses (a string, an integer or a real, alone or
as a comma list), the range it must lie in, its default, whether the kinds
that take its section require it, whether only a sweep takes it, and
whether it enters the hash; the free-form `[fixture]` section also takes
numeric constructor arguments by any name. Every section is checked
against the experiment kind, every key against the table, and every value
against its row, so a typo or a value out of range fails the parse with
its line number instead of silently skewing a sweep. The parsed config
carries a hash of its canonicalized text for provenance in output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .adversary import _MAX_DOMAIN
from .engine import DEFAULT_CONSTANTS, TheoryConstants
from .fixtures import FAMILIES, available_fixtures

__all__ = [
    "ConfigError",
    "AdversarySpec",
    "ExperimentConfig",
    "fnv1a64",
    "canonicalize",
    "parse_config_text",
    "parse_config_file",
]

_KIND_SECTIONS = {
    "upper_sweep": {"experiment", "grid", "fixture", "constants"},
    "lower_bound": {"experiment", "adversary"},
    "identities": {"experiment", "identities"},
}


_MAX_SAMPLES = 2**63 - 1
"""Largest sample size n: numpy draws a sample's counts with int64 trial
counts, and len() of a sample must fit a signed 64-bit index."""

_MAX_TRIALS = 10**6
"""Most trials of a run, or of one sweep cell. Every kind holds all of its
rows in memory until it writes them; measured with tracemalloc (Python
3.11), a lower_bound game holds about 0.2 KB, a sweep trial that exits at
round 1 about 0.8 KB and an identities instance at chunk_size 1 about
1.3 KB at peak, so a run at the cap stays near 1 GB (a sweep: per cell)."""

_MAX_THREADS = 256
"""Most worker threads: the pool starts min(threads, work units) OS threads,
and a unit is numpy work that mostly holds the GIL, so threads past the
core count add no speed; the cap refuses a count that would start
thousands of threads."""


@dataclass(frozen=True)
class _Key:
    """How one config key parses and where it applies.

    type is str, int or float; many takes a comma list of that type. An
    integer lies in [low, high] (None leaves a side open), a real passes
    within, a (phrase, test) pair whose phrase completes "must ...".
    required holds for every kind that takes the section; sweep_only keys
    are refused by the other kinds; unhashed keys say only where or how wide
    to run (output paths, thread count)."""

    type: type = str
    many: bool = False
    low: int | None = None
    high: int | None = None
    within: tuple[str, Callable[[float], bool]] | None = None
    default: object = None
    required: bool = False
    sweep_only: bool = False
    hashed: bool = True


_UNIT = ("lie in (0, 1)", lambda x: 0.0 < x < 1.0)
_SCALE = ("be positive", lambda x: x > 0.0)

_KEYS = {
    ("experiment", "kind"): _Key(required=True),
    ("experiment", "seed"): _Key(int, low=0, high=2**64 - 1, required=True),
    ("experiment", "trials"): _Key(int, low=1, high=_MAX_TRIALS, required=True),
    ("experiment", "output"): _Key(required=True, hashed=False),
    ("experiment", "delta"): _Key(float, within=_UNIT, default=0.1, sweep_only=True),
    ("experiment", "trace_output"): _Key(sweep_only=True, hashed=False),
    ("experiment", "threads"): _Key(int, low=1, high=_MAX_THREADS, hashed=False),
    ("grid", "n"): _Key(int, many=True, low=3, high=_MAX_SAMPLES, required=True),
    ("grid", "tau"): _Key(float, many=True, within=_UNIT),
    ("fixture", "family"): _Key(required=True),
    **{
        ("constants", name): _Key(float, within=_SCALE, default=getattr(DEFAULT_CONSTANTS, name))
        for name in ("dev_scale", "rounds_scale", "exit_scale")
    },
    ("adversary", "u"): _Key(int, low=2, high=_MAX_DOMAIN),
    ("adversary", "tau"): _Key(float, within=_UNIT),
    ("adversary", "d"): _Key(int, low=1, required=True),
    ("adversary", "n"): _Key(int, low=1, high=_MAX_SAMPLES, required=True),
    ("adversary", "cap"): _Key(int, low=3, required=True),
    ("adversary", "skew"): _Key(float, within=("lie in [0, 1)", lambda x: 0.0 <= x < 1.0)),
    ("identities", "chunk_size"): _Key(int, low=1, default=250),
}

_SECTIONS = {section: sorted(k for s, k in _KEYS if s == section) for section, _ in _KEYS}


class ConfigError(Exception):
    """Config problem, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}: {self.message}"


@dataclass(frozen=True)
class AdversarySpec:
    """Resolved lower-bound run parameters before skew resolution."""

    u: int | None
    tau: float | None
    d: int
    n: int
    cap: int
    skew: float | None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    trials: int
    output: str
    delta: float
    trace_output: str | None
    threads: int | None
    fixture_family: str | None
    fixture_params: dict
    grid_n: tuple[int, ...] | None
    grid_tau: tuple[float, ...] | None
    constants: TheoryConstants
    adversary: AdversarySpec | None
    chunk_size: int
    source_text: str = field(repr=False)
    config_hash: str


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def canonicalize(entries: dict[tuple[str, str], tuple[str, int]]) -> str:
    """Sorted section.key=value lines, one per present key.

    Keys that only say where or how wide to run (output paths, thread
    count) are left out, so the hash identifies the experiment itself: two
    runs with equal hashes and seeds produce identical rows.
    """
    lines = [
        f"{section}.{key}={value}"
        for (section, key), (value, _) in entries.items()
        if (section, key) not in _KEYS or _KEYS[section, key].hashed
    ]
    return "\n".join(sorted(lines))


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}]; known: " + ", ".join(sorted(_SECTIONS)),
                    lineno,
                )
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key = key.strip()
        # [fixture] also takes numeric constructor arguments by any name.
        if section != "fixture" and (section, key) not in _KEYS:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; known: " + ", ".join(_SECTIONS[section]),
                lineno,
            )
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (value.strip(), lineno)
    return entries


def _value(key: str, spec: _Key, raw: str, line: int):
    """One entry's value, parsed and range-checked as its row says."""
    if spec.type is str:
        return raw
    pieces = raw.split(",") if spec.many else [raw]
    try:
        values = [spec.type(piece.strip()) for piece in pieces]
    except ValueError:
        noun = {int: ("an integer", "integers"), float: ("a number", "numbers")}[spec.type]
        if spec.many:
            raise ConfigError(f"{key!r} must be comma-separated {noun[1]}", line) from None
        raise ConfigError(f"{key!r} must be {noun[0]}, got {raw!r}", line) from None
    what = f"{key!r} values" if spec.many else repr(key)
    for value in values:
        if spec.type is float and not math.isfinite(value):
            raise ConfigError(f"{what} must be finite, got {raw!r}", line)
        if spec.low is not None and value < spec.low:
            raise ConfigError(f"{what} must be at least {spec.low}, got {value}", line)
        if spec.high is not None and value > spec.high:
            raise ConfigError(f"{what} must be at most {spec.high}, got {value}", line)
        if spec.within is not None and not spec.within[1](value):
            raise ConfigError(f"{what} must {spec.within[0]}, got {value}", line)
    return tuple(values) if spec.many else values[0]


def _coerce_number(value: str, key: str, line: int):
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            pass
    raise ConfigError(f"fixture key {key!r} must be numeric, got {value!r}", line)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document into a typed ExperimentConfig.

    Each entry is checked in file order, so of several bad lines the first
    is reported; missing keys and the rules that tie keys together follow.
    """
    entries = _parse_lines(text)
    if ("experiment", "kind") not in entries:
        raise ConfigError("missing required key 'kind' in [experiment]")
    kind, line = entries["experiment", "kind"]
    if kind not in _KIND_SECTIONS:
        raise ConfigError(f"unknown kind {kind!r}; known: " + ", ".join(_KIND_SECTIONS), line)
    taken = _KIND_SECTIONS[kind]
    for section in sorted({sec for sec, _ in entries} - taken):
        raise ConfigError(f"section [{section}] is not valid for kind {kind!r}")

    values = {name: spec.default for name, spec in _KEYS.items()}
    fixture_params: dict = {}
    for (section, key), (raw, line) in entries.items():
        spec = _KEYS.get((section, key))
        if spec is None:
            fixture_params[key] = _coerce_number(raw, key, line)
            continue
        # Only a sweep trains, so only a sweep reads delta or writes a trace.
        if spec.sweep_only and kind != "upper_sweep":
            raise ConfigError(f"{key!r} is only valid for kind 'upper_sweep'", line)
        values[section, key] = _value(key, spec, raw, line)
        if (section, key) == ("fixture", "family") and raw not in FAMILIES:
            raise ConfigError(
                f"unknown fixture family {raw!r}; available: " + ", ".join(available_fixtures()),
                line,
            )
    for (section, key), spec in _KEYS.items():
        if spec.required and section in taken and (section, key) not in entries:
            raise ConfigError(f"missing required key {key!r} in [{section}]")

    def section_values(name: str) -> dict:
        return {key: value for (sec, key), value in values.items() if sec == name}

    # A grid tau builds each cell's fixture at that tau, so a fixture tau
    # would enter the hash and then be overwritten.
    if ("grid", "tau") in entries and ("fixture", "tau") in entries:
        raise ConfigError(
            "give 'tau' in [grid] or in [fixture], not both", entries["fixture", "tau"][1]
        )

    adversary = None
    if kind == "lower_bound":
        adversary = AdversarySpec(**section_values("adversary"))
        if (adversary.u is None) == (adversary.tau is None):
            raise ConfigError("give exactly one of 'u' and 'tau' in [adversary]")
        if adversary.skew is not None and adversary.tau is not None:
            raise ConfigError(
                "'skew' is chosen with u from 'tau'; give 'u' to fix 'skew'",
                entries["adversary", "skew"][1],
            )

    canonical = canonicalize(entries)
    return ExperimentConfig(
        **section_values("experiment"),
        fixture_family=values["fixture", "family"],
        fixture_params=fixture_params,
        grid_n=values["grid", "n"],
        grid_tau=values["grid", "tau"],
        constants=TheoryConstants(**section_values("constants")),
        adversary=adversary,
        chunk_size=values["identities", "chunk_size"],
        source_text=text,
        config_hash=format(fnv1a64(canonical.encode("utf-8")), "016x"),
    )


def parse_config_file(path) -> ExperimentConfig:
    """Read a UTF-8 config file and parse it."""
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read())
