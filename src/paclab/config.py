"""Strict sectioned key-value experiment configs.

The format is deliberately tiny: `[section]` headers, `key = value` lines,
`#` comments, UTF-8. Every key is checked against the section's vocabulary
and every section against the experiment kind, so a typo fails the parse
with its line number instead of silently skewing a sweep. The parsed config
carries a hash of its canonicalized text for provenance in output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import TheoryConstants
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

KINDS = ("upper_sweep", "lower_bound", "identities")

_SECTION_KEYS = {
    "experiment": {"kind", "seed", "trials", "output", "delta", "trace_output", "threads"},
    "grid": {"n", "tau"},
    "fixture": None,
    "constants": {"dev_scale", "rounds_scale", "exit_scale"},
    "adversary": {"u", "tau", "d", "n", "cap", "skew"},
    "identities": {"chunk_size"},
}

_KIND_SECTIONS = {
    "upper_sweep": {"experiment", "grid", "fixture", "constants"},
    "lower_bound": {"experiment", "adversary"},
    "identities": {"experiment", "identities"},
}


_MAX_SAMPLES = 2**63 - 1
"""Largest sample size n: numpy draws a sample's counts with int64 trial
counts, and len() of a sample must fit a signed 64-bit index."""


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


_PLACEMENT_KEYS = {
    ("experiment", "output"),
    ("experiment", "trace_output"),
    ("experiment", "threads"),
}


def canonicalize(entries: dict[tuple[str, str], tuple[str, int]]) -> str:
    """Sorted section.key=value lines, one per present key.

    Keys that only say where or how wide to run (output paths, thread
    count) are left out, so the hash identifies the experiment itself: two
    runs with equal hashes and seeds produce identical rows.
    """
    lines = [
        f"{section}.{key}={value}"
        for (section, key), (value, _) in entries.items()
        if (section, key) not in _PLACEMENT_KEYS
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
            if section not in _SECTION_KEYS:
                raise ConfigError(
                    f"unknown section [{section}]; known: "
                    + ", ".join(sorted(_SECTION_KEYS)),
                    lineno,
                )
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key = key.strip()
        value = value.strip()
        allowed = _SECTION_KEYS[section]
        if allowed is not None and key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; known: " + ", ".join(sorted(allowed)),
                lineno,
            )
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _View:
    """Typed access to one section's raw entries, tracking what was read."""

    def __init__(self, entries, section: str):
        self.section = section
        self.raw = {
            key: (value, line)
            for (sec, key), (value, line) in entries.items()
            if sec == section
        }

    def string(self, key: str, default: str | None = None) -> str | None:
        if key not in self.raw:
            return default
        return self.raw[key][0]

    def integer(
        self, key: str, default=None, minimum: int | None = None, maximum: int | None = None
    ):
        if key not in self.raw:
            return default
        value, line = self.raw[key]
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigError(f"{key!r} must be an integer, got {value!r}", line) from None
        if minimum is not None and parsed < minimum:
            raise ConfigError(f"{key!r} must be at least {minimum}, got {parsed}", line)
        if maximum is not None and parsed > maximum:
            raise ConfigError(f"{key!r} must be at most {maximum}, got {parsed}", line)
        return parsed

    def real(self, key: str, default=None):
        if key not in self.raw:
            return default
        value, line = self.raw[key]
        try:
            parsed = float(value)
        except ValueError:
            raise ConfigError(f"{key!r} must be a number, got {value!r}", line) from None
        if not math.isfinite(parsed):
            raise ConfigError(f"{key!r} must be finite, got {value!r}", line)
        return parsed

    def integer_list(
        self, key: str, minimum: int | None = None, maximum: int | None = None
    ) -> tuple[int, ...] | None:
        if key not in self.raw:
            return None
        value, line = self.raw[key]
        try:
            parsed = tuple(int(piece.strip()) for piece in value.split(","))
        except ValueError:
            raise ConfigError(f"{key!r} must be comma-separated integers", line) from None
        for item in parsed:
            if minimum is not None and item < minimum:
                raise ConfigError(f"{key!r} values must be at least {minimum}, got {item}", line)
            if maximum is not None and item > maximum:
                raise ConfigError(f"{key!r} values must be at most {maximum}, got {item}", line)
        return parsed

    def real_list(self, key: str) -> tuple[float, ...] | None:
        if key not in self.raw:
            return None
        value, line = self.raw[key]
        try:
            return tuple(float(piece.strip()) for piece in value.split(","))
        except ValueError:
            raise ConfigError(f"{key!r} must be comma-separated numbers", line) from None


def _coerce_number(value: str, key: str, line: int):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"fixture key {key!r} must be numeric, got {value!r}", line) from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document into a typed ExperimentConfig."""
    entries = _parse_lines(text)

    experiment = _View(entries, "experiment")
    kind = experiment.string("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind' in [experiment]")
    if kind not in KINDS:
        _, line = experiment.raw["kind"]
        raise ConfigError(f"unknown kind {kind!r}; known: " + ", ".join(KINDS), line)

    present_sections = {sec for sec, _ in entries}
    for section in sorted(present_sections - _KIND_SECTIONS[kind]):
        raise ConfigError(f"section [{section}] is not valid for kind {kind!r}")

    seed = experiment.integer("seed", minimum=0, maximum=2**64 - 1)
    if seed is None:
        raise ConfigError("missing required key 'seed' in [experiment]")
    trials = experiment.integer("trials", minimum=1)
    if trials is None:
        raise ConfigError("missing required key 'trials' in [experiment]")
    output = experiment.string("output")
    if output is None:
        raise ConfigError("missing required key 'output' in [experiment]")
    # Only a sweep trains, so only a sweep reads delta or writes a trace.
    for key in ("delta", "trace_output"):
        if key in experiment.raw and kind != "upper_sweep":
            _, line = experiment.raw[key]
            raise ConfigError(f"{key!r} is only valid for kind 'upper_sweep'", line)
    delta = experiment.real("delta", default=0.1)
    if not 0.0 < delta < 1.0:
        _, line = experiment.raw["delta"]
        raise ConfigError(f"'delta' must lie in (0, 1), got {delta}", line)
    trace_output = experiment.string("trace_output")
    threads = experiment.integer("threads", minimum=1)

    constants = TheoryConstants()
    if "constants" in present_sections:
        view = _View(entries, "constants")
        values = {}
        for name in _SECTION_KEYS["constants"]:
            parsed = view.real(name)
            if parsed is not None:
                if parsed <= 0:
                    _, line = view.raw[name]
                    raise ConfigError(f"{name!r} must be positive, got {parsed}", line)
                values[name] = parsed
        constants = TheoryConstants(**values)

    fixture_family = None
    fixture_params: dict = {}
    grid_n = None
    grid_tau = None
    adversary = None
    chunk_size = 250

    if kind == "upper_sweep":
        fixture = _View(entries, "fixture")
        fixture_family = fixture.string("family")
        if fixture_family is None:
            raise ConfigError("missing required key 'family' in [fixture]")
        if fixture_family not in FAMILIES:
            _, line = fixture.raw["family"]
            raise ConfigError(
                f"unknown fixture family {fixture_family!r}; available: "
                + ", ".join(available_fixtures()),
                line,
            )
        for key, (value, line) in fixture.raw.items():
            if key == "family":
                continue
            fixture_params[key] = _coerce_number(value, key, line)
        grid = _View(entries, "grid")
        grid_n = grid.integer_list("n", minimum=3, maximum=_MAX_SAMPLES)
        if grid_n is None:
            raise ConfigError("missing required key 'n' in [grid]")
        grid_tau = grid.real_list("tau")
        if grid_tau is not None:
            for value in grid_tau:
                if not 0.0 < value < 1.0:
                    raise ConfigError(f"grid tau values must lie in (0, 1), got {value}")
    elif kind == "lower_bound":
        view = _View(entries, "adversary")
        u = view.integer("u", minimum=2)
        tau = view.real("tau")
        if (u is None) == (tau is None):
            raise ConfigError("give exactly one of 'u' and 'tau' in [adversary]")
        if tau is not None and not 0.0 < tau < 1.0:
            _, line = view.raw["tau"]
            raise ConfigError(f"'tau' must lie in (0, 1), got {tau}", line)
        d = view.integer("d", minimum=1)
        if d is None:
            raise ConfigError("missing required key 'd' in [adversary]")
        n = view.integer("n", minimum=1, maximum=_MAX_SAMPLES)
        if n is None:
            raise ConfigError("missing required key 'n' in [adversary]")
        cap = view.integer("cap", minimum=3)
        if cap is None:
            raise ConfigError("missing required key 'cap' in [adversary]")
        skew = view.real("skew")
        if skew is not None:
            _, line = view.raw["skew"]
            if tau is not None:
                raise ConfigError("'skew' is chosen with u from 'tau'; give 'u' to fix 'skew'", line)
            if not 0.0 <= skew < 1.0:
                raise ConfigError(f"'skew' must lie in [0, 1), got {skew}", line)
        adversary = AdversarySpec(u, tau, d, n, cap, skew)
    else:
        view = _View(entries, "identities")
        chunk_size = view.integer("chunk_size", default=250, minimum=1)

    canonical = canonicalize(entries)
    digest = format(fnv1a64(canonical.encode("utf-8")), "016x")
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        trials=trials,
        output=output,
        delta=delta,
        trace_output=trace_output,
        threads=threads,
        fixture_family=fixture_family,
        fixture_params=fixture_params,
        grid_n=grid_n,
        grid_tau=grid_tau,
        constants=constants,
        adversary=adversary,
        chunk_size=chunk_size,
        source_text=text,
        config_hash=digest,
    )


def parse_config_file(path) -> ExperimentConfig:
    """Read a UTF-8 config file and parse it."""
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read())
