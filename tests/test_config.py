"""Tests for config parsing, validation, and the experiment hash."""

import functools
from pathlib import Path

import pytest

from paclab.config import (
    _KEYS,
    _KIND_SECTIONS,
    ConfigError,
    canonicalize,
    fnv1a64,
    parse_config_file,
    parse_config_text,
)

SWEEP_TEXT = """\
# comment line
[experiment]
kind = upper_sweep
seed = 7
trials = 5
output = rows.csv
delta = 0.05
trace_output = trace.csv
threads = 2

[grid]
n = 3000, 10000
tau = 0.1, 0.2

[fixture]
family = two_experts

[constants]
dev_scale = 2.0
"""

LOWER_TEXT = """\
[experiment]
kind = lower_bound
seed = 1
trials = 10
output = lb.csv

[adversary]
tau = 0.05
d = 2
n = 1000
cap = 576
"""

IDENTITIES_TEXT = """\
[experiment]
kind = identities
seed = 0
trials = 500
output = id.csv

[identities]
chunk_size = 100
"""


class TestParseConfigText:
    def test_upper_sweep_full_parse(self):
        config = parse_config_text(SWEEP_TEXT)
        assert config.kind == "upper_sweep"
        assert config.seed == 7
        assert config.trials == 5
        assert config.output == "rows.csv"
        assert config.delta == 0.05
        assert config.trace_output == "trace.csv"
        assert config.threads == 2
        assert config.fixture_family == "two_experts"
        assert config.fixture_params == {}
        assert config.grid_n == (3000, 10000)
        assert config.grid_tau == (0.1, 0.2)
        assert config.constants.dev_scale == 2.0
        assert config.constants.exit_scale == 1.0
        assert len(config.config_hash) == 16
        assert config.source_text == SWEEP_TEXT

    def test_fixture_parameters_are_coerced(self):
        text = SWEEP_TEXT.replace(
            "family = two_experts", "family = dsubset_adversary\nd = 2\nalpha = 0.5"
        )
        config = parse_config_text(text)
        assert config.fixture_params == {"d": 2, "alpha": 0.5}
        assert isinstance(config.fixture_params["d"], int)

    def test_lower_bound_full_parse(self):
        config = parse_config_text(LOWER_TEXT)
        assert config.kind == "lower_bound"
        assert config.adversary.tau == 0.05
        assert config.adversary.u is None
        assert config.adversary.d == 2
        assert config.adversary.n == 1000
        assert config.adversary.cap == 576
        assert config.adversary.skew is None
        assert config.delta == 0.1

    def test_lower_bound_with_u_keeps_a_given_skew(self):
        config = parse_config_text(LOWER_TEXT.replace("tau = 0.05", "u = 23\nskew = 0.0123"))
        assert (config.adversary.u, config.adversary.tau) == (23, None)
        assert config.adversary.skew == 0.0123

    def test_identities_parse_and_defaults(self):
        config = parse_config_text(IDENTITIES_TEXT)
        assert config.chunk_size == 100
        bare = IDENTITIES_TEXT.split("\n\n")[0]
        defaults = parse_config_text(bare)
        assert defaults.chunk_size == 250
        assert defaults.threads is None

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(LOWER_TEXT, encoding="utf-8")
        assert parse_config_file(path).kind == "lower_bound"


class TestParseErrors:
    def assert_fails(self, text, match, line=None):
        with pytest.raises(ConfigError, match=match) as excinfo:
            parse_config_text(text)
        if line is not None:
            assert excinfo.value.line == line
            assert str(excinfo.value).startswith(f"line {line}:")

    def test_unknown_section(self):
        self.assert_fails("[experiment]\nkind = identities\n[bogus]\n", "unknown section", line=3)

    def test_unknown_key(self):
        self.assert_fails(
            "[experiment]\nkind = identities\nbogus = 3\n", "unknown key", line=3
        )

    def test_duplicate_key(self):
        self.assert_fails(
            "[experiment]\nkind = identities\nseed = 1\nseed = 2\n",
            "duplicate",
            line=4,
        )

    def test_key_outside_section(self):
        self.assert_fails("kind = identities\n", "outside", line=1)

    def test_not_key_value(self):
        self.assert_fails("[experiment]\nwhat even is this\n", "key = value", line=2)

    def test_missing_kind(self):
        self.assert_fails("[experiment]\nseed = 1\n", "kind")

    def test_unknown_kind(self):
        self.assert_fails("[experiment]\nkind = sideways\n", "unknown kind", line=2)

    def test_bad_integer(self):
        self.assert_fails(
            "[experiment]\nkind = identities\nseed = abc\n", "integer", line=3
        )

    def test_seed_must_fit_in_64_bits(self):
        self.assert_fails(
            f"[experiment]\nkind = identities\nseed = {2**64}\n", "at most", line=3
        )
        top = IDENTITIES_TEXT.replace("seed = 0", f"seed = {2**64 - 1}")
        assert parse_config_text(top).seed == 2**64 - 1

    def test_sample_sizes_must_fit_in_a_signed_64_bit_integer(self):
        """numpy draws counts with int64 trial counts and len() of a sample
        is a signed 64-bit index, so n >= 2**63 fails at the line."""
        grid = SWEEP_TEXT.replace("3000, 10000", f"3000, {2**63}")
        self.assert_fails(grid, f"'n' values must be at most {2**63 - 1}", line=12)
        adversary = LOWER_TEXT.replace("n = 1000", f"n = {2**63}")
        self.assert_fails(adversary, f"'n' must be at most {2**63 - 1}", line=10)
        top = 2**63 - 1
        assert parse_config_text(SWEEP_TEXT.replace("3000, 10000", f"3000, {top}")).grid_n == (
            3000, top
        )
        assert parse_config_text(LOWER_TEXT.replace("n = 1000", f"n = {top}")).adversary.n == top

    def test_section_kind_mismatch(self):
        self.assert_fails(
            IDENTITIES_TEXT + "\n[grid]\nn = 100\n", "not valid for kind"
        )

    def test_trace_output_restricted_to_sweeps(self):
        text = LOWER_TEXT.replace(
            "output = lb.csv", "output = lb.csv\ntrace_output = t.csv"
        )
        self.assert_fails(text, "only valid for kind 'upper_sweep'")

    @pytest.mark.parametrize(
        "text",
        [
            LOWER_TEXT.replace("output = lb.csv", "output = lb.csv\ndelta = 1.5"),
            SWEEP_TEXT.replace("delta = 0.05", "delta = 1.5"),
        ],
        ids=["lower_bound", "upper_sweep"],
    )
    def test_delta_range(self, text):
        self.assert_fails(text, "delta")

    @pytest.mark.parametrize("text", [LOWER_TEXT, IDENTITIES_TEXT], ids=["lower_bound", "identities"])
    def test_delta_restricted_to_sweeps(self, text):
        """Only a sweep trains, so delta elsewhere would change the config
        hash and nothing else."""
        self.assert_fails(
            text.replace("\n\n[", "\ndelta = 0.05\n\n[", 1),
            "'delta' is only valid for kind 'upper_sweep'",
            line=6,
        )

    def test_grid_n_too_small(self):
        self.assert_fails(SWEEP_TEXT.replace("3000, 10000", "2, 10000"), "at least 3", line=12)

    def test_grid_tau_range(self):
        self.assert_fails(SWEEP_TEXT.replace("0.1, 0.2", "0.1, 1.2"), "tau")

    def test_missing_required_keys(self):
        self.assert_fails("[experiment]\nkind = identities\nseed = 1\n", "trials")
        self.assert_fails(
            "[experiment]\nkind = identities\nseed = 1\ntrials = 5\n", "output"
        )
        self.assert_fails(
            SWEEP_TEXT.replace("family = two_experts", "tau = 0.1"), "family"
        )
        self.assert_fails(LOWER_TEXT.replace("d = 2\n", ""), "'d'")

    def test_unknown_fixture_family(self):
        self.assert_fails(
            SWEEP_TEXT.replace("family = two_experts", "family = nope"),
            "unknown fixture family",
        )

    def test_adversary_needs_exactly_one_size(self):
        self.assert_fails(
            LOWER_TEXT.replace("tau = 0.05", "tau = 0.05\nu = 40"), "exactly one"
        )
        self.assert_fails(LOWER_TEXT.replace("tau = 0.05\n", ""), "exactly one")

    def test_skew_beside_tau(self):
        """tau chooses u and skew together, so a skew beside it is refused at
        its line rather than ignored."""
        self.assert_fails(LOWER_TEXT + "skew = 0.5\n", "'skew' is chosen with u from 'tau'", line=12)

    @pytest.mark.parametrize("skew", ["1.0", "-0.1"])
    def test_skew_range(self, skew):
        self.assert_fails(
            LOWER_TEXT.replace("tau = 0.05", f"u = 23\nskew = {skew}"),
            r"'skew' must lie in \[0, 1\)",
            line=9,
        )

    def test_nonpositive_constant(self):
        self.assert_fails(
            SWEEP_TEXT.replace("dev_scale = 2.0", "dev_scale = 0"), "positive"
        )

    def test_removed_constants_are_unknown_keys(self):
        removed = [
            (SWEEP_TEXT.replace("dev_scale = 2.0", f"dev_scale = 2.0\n{name} = 64"), name, "constants", 20)
            for name in ("noise_scale", "sample_scale", "prob_scale")
        ]
        removed.append((IDENTITIES_TEXT + "tolerance = 1e-8\n", "tolerance", "identities", 9))
        for text, name, section, line in removed:
            self.assert_fails(text, f"unknown key '{name}' in \\[{section}\\]", line=line)

    def test_non_numeric_fixture_value(self):
        self.assert_fails(
            SWEEP_TEXT.replace("family = two_experts", "family = two_experts\ntau = abc"),
            "fixture key 'tau' must be numeric",
            line=17,
        )

    def test_error_string_without_line(self):
        error = ConfigError("broken")
        assert str(error) == "broken"
        assert ConfigError("broken", line=3).line == 3


class TestHashing:
    def test_fnv_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_hash_ignores_placement_keys(self):
        """Where the rows go must not change what the experiment is."""
        base = parse_config_text(SWEEP_TEXT)
        moved = parse_config_text(SWEEP_TEXT.replace("rows.csv", "elsewhere.csv"))
        threaded = parse_config_text(SWEEP_TEXT.replace("threads = 2", "threads = 8"))
        untraced = parse_config_text(
            SWEEP_TEXT.replace("trace_output = trace.csv\n", "")
        )
        assert base.config_hash == moved.config_hash
        assert base.config_hash == threaded.config_hash
        assert base.config_hash == untraced.config_hash

    def test_hash_tracks_experiment_keys(self):
        base = parse_config_text(SWEEP_TEXT)
        reseeded = parse_config_text(SWEEP_TEXT.replace("seed = 7", "seed = 8"))
        regridded = parse_config_text(SWEEP_TEXT.replace("0.1, 0.2", "0.1, 0.3"))
        assert base.config_hash != reseeded.config_hash
        assert base.config_hash != regridded.config_hash

    def test_canonical_form_is_sorted_lines(self):
        entries = {
            ("grid", "n"): ("5", 10),
            ("experiment", "kind"): ("identities", 1),
            ("experiment", "output"): ("x.csv", 2),
        }
        assert canonicalize(entries) == "experiment.kind=identities\ngrid.n=5"


def with_value(text, section, key, value):
    """text with key set to value as the first line of [section], and that
    line's number."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, f"{key} = {value}")
    return "\n".join(lines) + "\n", at + 1


BASE_TEXTS = {
    "experiment": IDENTITIES_TEXT,
    "identities": IDENTITIES_TEXT,
    "grid": SWEEP_TEXT,
    "adversary": LOWER_TEXT,
}

OUT_OF_BOUNDS = [
    pytest.param(section, key, value, id=f"{section}.{key}={value}")
    for (section, key), spec in _KEYS.items()
    if spec.type is int
    for value in (spec.low - 1, None if spec.high is None else spec.high + 1)
    if value is not None
]

EVERY_KEY = {
    ("experiment", "seed"): ("12345", "seed", 12345),
    ("experiment", "trials"): ("3", "trials", 3),
    ("experiment", "output"): ("o.csv", "output", "o.csv"),
    ("experiment", "delta"): ("0.25", "delta", 0.25),
    ("experiment", "trace_output"): ("t.csv", "trace_output", "t.csv"),
    ("experiment", "threads"): ("3", "threads", 3),
    ("grid", "n"): ("30, 40", "grid_n", (30, 40)),
    ("grid", "tau"): ("0.125, 0.25", "grid_tau", (0.125, 0.25)),
    ("fixture", "family"): ("dsubset_adversary", "fixture_family", "dsubset_adversary"),
    ("constants", "dev_scale"): ("1.5", "constants.dev_scale", 1.5),
    ("constants", "rounds_scale"): ("2.5", "constants.rounds_scale", 2.5),
    ("constants", "exit_scale"): ("0.5", "constants.exit_scale", 0.5),
    ("adversary", "u"): ("40", "adversary.u", 40),
    ("adversary", "tau"): ("0.05", "adversary.tau", 0.05),
    ("adversary", "d"): ("3", "adversary.d", 3),
    ("adversary", "n"): ("500", "adversary.n", 500),
    ("adversary", "cap"): ("7", "adversary.cap", 7),
    ("adversary", "skew"): ("0.01", "adversary.skew", 0.01),
    ("identities", "chunk_size"): ("17", "chunk_size", 17),
}
"""A valid value other than the default for every key but kind, the
ExperimentConfig field it must reach, and the value parsed there."""

# u and tau exclude each other, and skew goes only with u.
KIND_VARIANTS = {
    "upper_sweep": (),
    "lower_bound_u": (("adversary", "tau"),),
    "lower_bound_tau": (("adversary", "u"), ("adversary", "skew")),
    "identities": (),
}


def every_key_text(kind, left_out):
    """A config of this kind that sets every key it takes but left_out,
    and the (section, key) pairs it sets."""
    lines = []
    written = []
    for section in dict.fromkeys(sec for sec, _ in _KEYS if sec in _KIND_SECTIONS[kind]):
        lines.append(f"[{section}]")
        for (sec, key), spec in _KEYS.items():
            if sec != section or (sec, key) in left_out:
                continue
            if spec.sweep_only and kind != "upper_sweep":
                continue
            lines.append(f"{key} = {kind if key == 'kind' else EVERY_KEY[sec, key][0]}")
            written.append((sec, key))
    return "\n".join(lines) + "\n", written


def variant_kind(variant):
    return variant.removesuffix("_u").removesuffix("_tau")


class TestKeyTable:
    @pytest.mark.parametrize("section, key, value", OUT_OF_BOUNDS)
    def test_integer_bounds_fail_at_the_key_line(self, section, key, value):
        text, line = with_value(BASE_TEXTS[section], section, key, value)
        with pytest.raises(ConfigError, match=f"'{key}' (values )?must be at (least|most)") as excinfo:
            parse_config_text(text)
        assert excinfo.value.line == line

    @pytest.mark.parametrize("variant", KIND_VARIANTS)
    def test_every_key_reaches_its_field(self, variant):
        """A key the parse accepts but never reads would leave its field at
        the default."""
        kind = variant_kind(variant)
        text, written = every_key_text(kind, KIND_VARIANTS[variant])
        config = parse_config_text(text)
        assert config.kind == kind
        for section, key in written:
            if key == "kind":
                continue
            _, path, expected = EVERY_KEY[section, key]
            assert expected != _KEYS[section, key].default
            assert functools.reduce(getattr, path.split("."), config) == expected, (section, key)

    def test_the_variants_cover_every_key(self):
        assert set(EVERY_KEY) | {("experiment", "kind")} == set(_KEYS)
        covered = set()
        for variant, left_out in KIND_VARIANTS.items():
            covered.update(every_key_text(variant_kind(variant), left_out)[1])
        assert covered == set(_KEYS)

    def test_readme_table_lists_every_key(self):
        """The README's key table names each row of _KEYS once, with whether
        it enters the config hash."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = [
            [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in readme.splitlines()
            if line.startswith("| `[")
        ]
        table = {(cells[0].strip("[]"), cells[1]): cells[-1] for cells in rows}
        assert len(table) == len(rows)
        assert set(table) == set(_KEYS)
        for name, spec in _KEYS.items():
            assert table[name] == ("yes" if spec.hashed else "no"), name

    def test_a_bad_grid_tau_names_its_line(self):
        with pytest.raises(ConfigError, match=r"'tau' values must lie in \(0, 1\)") as excinfo:
            parse_config_text(SWEEP_TEXT.replace("0.1, 0.2", "0.1, 1.2"))
        assert excinfo.value.line == 13

    def test_the_first_bad_line_is_reported(self):
        """Of several bad lines the first in the file is named, whatever
        the order of the keys' rows."""
        text = IDENTITIES_TEXT.replace("[experiment]\n", "[experiment]\nthreads = 0\n")
        with pytest.raises(ConfigError, match="'threads' must be at least 1") as excinfo:
            parse_config_text(text.replace("seed = 0", "seed = x"))
        assert excinfo.value.line == 2
