"""Tests for the experiment runner, its CSV outputs, and the command line."""

import csv
import hashlib
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import paclab
from paclab import (
    BREAK_REASONS,
    DiscreteDistribution,
    HypothesisClass,
    RngStream,
    SamplePieces,
    train,
    true_error,
)
from paclab.cli import main
from paclab.config import ConfigError, parse_config_text
from paclab.fixtures import FAMILIES, Fixture, two_experts
from paclab.runner import (
    ADVERSARY_COLUMNS,
    IDENTITY_COLUMNS,
    RESULT_COLUMNS,
    TRACE_COLUMNS,
    _error_floors,
    _ordered_map,
    resolve_threads,
    run,
)


def sweep_config(tmp_path, **overrides):
    values = {
        "seed": 11,
        "trials": 3,
        "n": "300, 600",
        "tau": "0.1, 0.2",
        "family": "two_experts",
        "extra": "",
    }
    values.update(overrides)
    text = f"""\
[experiment]
kind = upper_sweep
seed = {values["seed"]}
trials = {values["trials"]}
output = {tmp_path / "rows.csv"}
{values["extra"]}

[grid]
n = {values["n"]}
{f"tau = {values['tau']}" if values["tau"] else ""}

[fixture]
family = {values["family"]}
"""
    return parse_config_text(text)


def over_cap_text(tmp_path):
    """A sweep whose class, d = 3 at tau = 0.002, has 70,031,500 rows, past
    the enumeration cap."""
    return (
        "[experiment]\nkind = upper_sweep\nseed = 1\ntrials = 2\n"
        f"output = {tmp_path / 'out.csv'}\n\n[grid]\nn = 3000\ntau = 0.002\n\n"
        "[fixture]\nfamily = dsubset_adversary\nd = 3\n"
    )


OVER_CAP_MESSAGE = "fixture 'dsubset_adversary': class of size 70031500 exceeds the enumeration cap"


def random_mass_fixture(seed):
    """A class of up to 19 distinct random rows over 4 to 11 points, under
    gamma(1) masses: irregular masses, whose sums round differently in
    different orders."""
    rng = np.random.default_rng(seed)
    u = int(rng.integers(4, 12))
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(int(rng.integers(2, 20)), u))
    klass = HypothesisClass(np.unique(labels, axis=0))
    mass = rng.gamma(1.0, size=(u, 2))
    dist = DiscreteDistribution(mass / mass.sum())
    return Fixture("random_mass", klass, dist, 1, min(true_error(h, dist) for h in klass))


def read_csv(path):
    """Comment header lines and data rows, parsed separately."""
    comments, rows = [], []
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


class TestResolveThreads:
    def _config(self, threads=None):
        extra = f"threads = {threads}" if threads else ""
        text = (
            "[experiment]\nkind = identities\nseed = 0\ntrials = 10\n"
            f"output = x.csv\n{extra}\n"
        )
        return parse_config_text(text)

    def test_environment_wins(self, monkeypatch):
        monkeypatch.setenv("PACLAB_THREADS", "5")
        assert resolve_threads(self._config(threads=2)) == 5

    def test_invalid_environment_value(self, monkeypatch):
        monkeypatch.setenv("PACLAB_THREADS", "many")
        with pytest.raises(ValueError, match="PACLAB_THREADS"):
            resolve_threads(self._config())
        monkeypatch.setenv("PACLAB_THREADS", "0")
        with pytest.raises(ValueError, match="PACLAB_THREADS"):
            resolve_threads(self._config())

    def test_config_then_hardware(self, monkeypatch):
        monkeypatch.delenv("PACLAB_THREADS", raising=False)
        assert resolve_threads(self._config(threads=3)) == 3
        assert resolve_threads(self._config()) >= 1


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [0, 1, 5, 9])
    def test_item_order_and_one_call_per_item(self, threads, count):
        items = [f"item{i}" for i in range(count)]
        calls = Counter()
        workers = set()
        lock = threading.Lock()

        def worker(item):
            with lock:
                calls[item] += 1
                workers.add(threading.get_ident())
            return item.upper()

        assert _ordered_map(worker, items, threads) == [item.upper() for item in items]
        assert calls == Counter(items)
        assert len(workers) <= max(1, min(threads, count))

    def test_a_worker_error_propagates(self):
        def worker(item):
            if item == 4:
                raise ValueError("item 4")
            return item

        with pytest.raises(ValueError, match="item 4"):
            _ordered_map(worker, list(range(7)), 3)


class TestUpperSweep:
    def test_row_layout_and_ids(self, tmp_path):
        config = sweep_config(tmp_path)
        result = run(config)
        assert result.kind == "upper_sweep"
        assert len(result.rows) == 2 * 2 * 3 * 2

        expected_cells = [0] * 6 + [1] * 6 + [2] * 6 + [3] * 6
        assert [row.cell for row in result.rows] == expected_cells
        for row in result.rows:
            assert row.config_hash == config.config_hash
            assert row.d == 1
        per_trial = result.rows[::2], result.rows[1::2]
        for de_row, erm_row in zip(*per_trial):
            assert de_row.trial_id == erm_row.trial_id
            assert de_row.algorithm == "disagreeing_experts"
            assert erm_row.algorithm == "erm"
            assert erm_row.break_reason == "" and erm_row.r is None
            assert de_row.break_reason in (
                "completed",
                "gamma_below_Zt",
                "no_disagreeing_pair",
                "empty_Ti",
            )
        ids = [row.trial_id for row in result.rows[::2]]
        assert ids == list(range(12))

    def test_cells_enumerate_tau_outer_n_inner(self, tmp_path):
        config = sweep_config(tmp_path)
        result = run(config)
        seen = {(s["cell"], s["tau"], s["n"]) for s in result.summary}
        assert (0, 0.1, 300) in seen
        assert (1, 0.1, 600) in seen
        assert (2, 0.2, 300) in seen
        assert (3, 0.2, 600) in seen

    def test_each_fixture_is_built_once_per_tau(self, tmp_path, monkeypatch):
        built = []

        def counting_family(**params):
            built.append(params["tau"])
            return two_experts(**params)

        monkeypatch.setitem(FAMILIES, "two_experts", counting_family)
        result = run(sweep_config(tmp_path))
        assert built == [0.1, 0.2]
        assert len(result.rows) == 4 * 3 * 2

    def test_rerun_is_deterministic(self, tmp_path):
        first = run(sweep_config(tmp_path))
        second = run(sweep_config(tmp_path))
        assert [r.csv_values() for r in first.rows] == [
            r.csv_values() for r in second.rows
        ]
        assert first.summary_lines == second.summary_lines

    def test_thread_count_changes_nothing(self, tmp_path, monkeypatch):
        serial = run(sweep_config(tmp_path))
        monkeypatch.setenv("PACLAB_THREADS", "4")
        threaded = run(sweep_config(tmp_path))
        assert [r.csv_values() for r in serial.rows] == [
            r.csv_values() for r in threaded.rows
        ]

    def test_excess_never_negative(self, tmp_path):
        result = run(sweep_config(tmp_path))
        for row in result.rows:
            assert row.excess_error >= -1e-12

    def test_summary_matches_rows(self, tmp_path):
        result = run(sweep_config(tmp_path))
        for entry in result.summary:
            sample = [
                row.excess_error
                for row in result.rows
                if row.cell == entry["cell"] and row.algorithm == entry["algorithm"]
            ]
            assert len(sample) == 3
            assert entry["mean_excess"] == pytest.approx(np.mean(sample), abs=1e-12)
            assert entry["p95_excess"] == pytest.approx(
                np.percentile(sample, 95), abs=1e-12
            )

    def test_csv_round_trips_the_rows(self, tmp_path):
        config = sweep_config(tmp_path)
        result = run(config)
        comments, header, rows = read_csv(config.output)
        assert tuple(header) == RESULT_COLUMNS
        assert comments[0].startswith("# paclab ")
        assert comments[1] == "# kind: upper_sweep"
        assert comments[2] == f"# config_hash: {config.config_hash}"
        assert comments[3] == f"# seed: {config.seed}"
        assert comments[4].startswith("# generated_at: ")
        assert comments[5] == f"# numpy: {np.__version__}"
        assert len(rows) == len(result.rows)
        for text_row, row in zip(rows, result.rows):
            assert float(text_row[7]) == row.excess_error
            assert int(text_row[2]) == row.trial_id

    def test_trace_file_marks_only_terminal_rounds(self, tmp_path):
        config = sweep_config(
            tmp_path, extra=f"trace_output = {tmp_path / 'trace.csv'}"
        )
        result = run(config)
        assert result.trace_path is not None
        _, header, rows = read_csv(result.trace_path)
        assert tuple(header) == TRACE_COLUMNS
        assert len(rows) == len(result.trace_rows)
        by_trial = {}
        for row in rows:
            by_trial.setdefault(int(row[0]), []).append(row)
        assert set(by_trial) == set(range(12))
        for trial_rows in by_trial.values():
            *early, last = trial_rows
            assert last[7] != ""
            assert all(row[7] == "" for row in early)

    def test_realizable_family_drives_excess_to_zero(self, tmp_path):
        config = sweep_config(
            tmp_path, family="realizable_uniform", tau="", n="900, 1800"
        )
        result = run(config)
        for row in result.rows:
            if row.algorithm == "erm":
                assert row.excess_error == 0.0
        assert all(s["tau"] is None for s in result.summary)

    def test_incompatible_fixture_parameters_fail_cleanly(self, tmp_path):
        config = sweep_config(tmp_path, family="realizable_uniform")
        with pytest.raises(ConfigError, match="fixture"):
            run(config)

    def test_a_class_over_the_enumeration_cap_fails_cleanly(self, tmp_path):
        with pytest.raises(ConfigError, match=OVER_CAP_MESSAGE):
            run(parse_config_text(over_cap_text(tmp_path)))

    @pytest.mark.parametrize("n", ["3", "12", "17", "17, 3000"])
    def test_a_grid_n_too_small_for_the_fixture_fails_cleanly(self, tmp_path, n):
        """A trial needs (n // 3) // 2 > d, that is n >= 6(d + 1) = 18 at d = 2."""
        config = sweep_config(tmp_path, family="dsubset_adversary", tau="0.1", n=n)
        with pytest.raises(ConfigError, match=r"n >= 6\(d \+ 1\) = 18"):
            run(config)

    def test_the_smallest_grid_n_runs(self, tmp_path):
        config = sweep_config(tmp_path, family="dsubset_adversary", tau="0.1", n="18")
        assert len(run(config).rows) == 2 * 3

    def test_rounds_up_to_the_filter_half_run(self, tmp_path):
        """At n = 18 the filter half has 3 samples and the smallest clamped
        estimate, 1/12, gives rounds_scale * ln 12 rounds: 1.2 gives 3 and
        runs, 1.21 would give 4 and is refused before any trial draws."""
        def config(scale):
            extra = f"\n[constants]\nrounds_scale = {scale}"
            return sweep_config(tmp_path, family="dsubset_adversary", tau="0.1", n="18", extra=extra)

        assert len(run(config(1.2)).rows) == 2 * 3
        with pytest.raises(ConfigError, match="'rounds_scale' = 1.21 gives a trial at grid n = 18"):
            run(config(1.21))

    def test_true_errors_match_true_error_per_trial(self, tmp_path):
        """The batch's stacked true errors equal measures.true_error on each
        trial's own train result, bit for bit."""
        config = sweep_config(tmp_path, family="dsubset_adversary", tau="0.05", n="3000", trials=5)
        result = run(config)
        fixture = FAMILIES["dsubset_adversary"](tau=0.05)
        tau_true = result.rows[0].tau_true
        for trial in range(5):
            pieces = SamplePieces.drawn(fixture.distribution, 3000, RngStream(config.seed, 1 + trial))
            trained = train(pieces, fixture.klass, fixture.vc_dim, config.delta, config.constants)
            learned, erm = result.rows[2 * trial : 2 * trial + 2]
            assert learned.excess_error == true_error(trained.output_hypothesis(), fixture.distribution) - tau_true
            assert erm.excess_error == true_error(trained.erm_hypothesis, fixture.distribution) - tau_true

    @pytest.mark.parametrize("seed", [3, 4, 6])
    def test_tau_true_is_the_least_member_true_error(self, seed):
        """On these classes a mass product and the where-sum of true_error
        give the optimum's error in different last bits."""
        fixture = random_mass_fixture(seed)
        tau_true, _ = _error_floors(fixture)
        assert tau_true == fixture.opt_error

    def test_an_output_equal_to_the_optimum_has_zero_excess(self, tmp_path, monkeypatch):
        """Every trial of this class outputs its optimum, from both learners:
        each excess is exactly 0.0, and no trial counts as improper."""
        fixture = random_mass_fixture(4)
        monkeypatch.setitem(FAMILIES, "two_experts", lambda **_: fixture)
        result = run(sweep_config(tmp_path, tau="", n="3000", trials=4))
        optimum = min(fixture.klass, key=lambda h: true_error(h, fixture.distribution))
        for trial in range(4):
            pieces = SamplePieces.drawn(fixture.distribution, 3000, RngStream(11, 1 + trial))
            trained = train(pieces, fixture.klass, 1, 0.1)
            assert trained.output_hypothesis().labels.tolist() == optimum.labels.tolist()
            assert trained.erm_hypothesis.labels.tolist() == optimum.labels.tolist()
        assert [row.excess_error for row in result.rows] == [0.0] * 8
        assert result.summary[0]["improper"] == 0
        assert " improper=0/4 " in result.summary_lines[0]


class TestLowerBound:
    def _config(self, tmp_path, trials=150):
        text = f"""\
[experiment]
kind = lower_bound
seed = 5
trials = {trials}
output = {tmp_path / "lb.csv"}

[adversary]
tau = 0.05
d = 2
n = 400
cap = 576
"""
        return parse_config_text(text)

    def test_run_shape_and_summary(self, tmp_path):
        config = self._config(tmp_path)
        result = run(config)
        assert len(result.rows) == 150
        assert result.ok is True
        entry = result.summary[0]
        assert entry["u"] == 40 and entry["skew"] == 1 / 576
        rate = sum(row[2] for row in result.rows) / 150
        assert entry["failure_rate"] == pytest.approx(rate, abs=1e-12)
        assert "failure_rate=" in result.summary_lines[0]
        _, header, rows = read_csv(config.output)
        assert tuple(header) == ADVERSARY_COLUMNS
        assert len(rows) == 150
        assert all(row[2] in ("0", "1") for row in rows)

    def test_chunked_execution_is_deterministic(self, tmp_path, monkeypatch):
        serial = run(self._config(tmp_path))
        monkeypatch.setenv("PACLAB_THREADS", "4")
        threaded = run(self._config(tmp_path))
        assert serial.rows == threaded.rows

    def test_bad_parameters_become_config_errors(self, tmp_path):
        config = self._config(tmp_path)
        broken = parse_config_text(
            config.source_text.replace("tau = 0.05", "tau = 0.6")
        )
        with pytest.raises(ConfigError, match="adversary parameters"):
            run(broken)


class TestIdentitiesRun:
    def test_chunks_and_verdict(self, tmp_path):
        text = f"""\
[experiment]
kind = identities
seed = 3
trials = 120
output = {tmp_path / "id.csv"}

[identities]
chunk_size = 50
"""
        result = run(parse_config_text(text))
        assert result.ok is True
        assert len(result.rows) == 3 * 5
        assert result.summary_lines[-1] == "all identity checks passed"
        _, header, rows = read_csv(tmp_path / "id.csv")
        assert tuple(header) == IDENTITY_COLUMNS
        counts = [int(row[2]) for row in rows]
        assert sum(counts) == 5 * 120
        assert {int(row[4]) for row in rows} == {0}


class TestCli:
    def test_run_reports_a_grid_n_too_small(self, tmp_path, capsys):
        path = tmp_path / "small.cfg"
        path.write_text(
            "[experiment]\nkind = upper_sweep\nseed = 1\ntrials = 2\n"
            f"output = {tmp_path / 'out.csv'}\n\n[grid]\nn = 12\ntau = 0.1\n\n"
            "[fixture]\nfamily = dsubset_adversary\nd = 2\n",
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "grid n = 12 is too small" in err and "n >= 6(d + 1) = 18" in err

    def test_run_reports_more_rounds_than_a_filter_half_has_samples(self, tmp_path, capsys):
        """rounds_scale = 1e300 would lay out more blocks than fit in memory
        (an OverflowError); it is a ConfigError before any trial draws."""
        path = tmp_path / "rounds.cfg"
        path.write_text(
            "[experiment]\nkind = upper_sweep\nseed = 1\ntrials = 2\n"
            f"output = {tmp_path / 'out.csv'}\n\n[grid]\nn = 3000\ntau = 0.1\n\n"
            "[fixture]\nfamily = dsubset_adversary\nd = 2\n\n[constants]\nrounds_scale = 1e300\n",
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'rounds_scale' = 1e+300" in err and "grid n = 3000" in err
        assert not (tmp_path / "out.csv").exists()

    def test_run_reports_a_skew_given_with_tau(self, tmp_path, capsys):
        """tau chooses u and skew together, so a fixed skew beside it would
        be ignored; it is a ConfigError at its line."""
        path = tmp_path / "skew.cfg"
        path.write_text(
            "[experiment]\nkind = lower_bound\nseed = 1\ntrials = 2\n"
            f"output = {tmp_path / 'out.csv'}\n\n"
            "[adversary]\ntau = 0.05\nd = 2\nn = 1000\ncap = 576\nskew = 0.5\n",
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 2
        assert "line 12: 'skew'" in capsys.readouterr().err

    def test_run_reports_a_class_over_the_enumeration_cap(self, tmp_path, capsys):
        path = tmp_path / "over.cfg"
        path.write_text(over_cap_text(tmp_path), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert OVER_CAP_MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("kind, line", [("grid", 8), ("adversary", 10)])
    def test_run_reports_a_sample_size_beyond_64_bits(self, tmp_path, capsys, kind, line):
        """n = 2**63 is a ConfigError at its line (exit 2), not an
        OverflowError from numpy or len() (exit 1)."""
        head = f"[experiment]\nseed = 1\ntrials = 2\noutput = {tmp_path / 'out.csv'}\n"
        if kind == "grid":
            text = head + (
                f"kind = upper_sweep\n\n[grid]\nn = {2**63}\ntau = 0.1\n\n"
                "[fixture]\nfamily = dsubset_adversary\nd = 2\n"
            )
        else:
            text = head + f"kind = lower_bound\n\n[adversary]\nu = 50\nd = 2\nn = {2**63}\ncap = 576\n"
        path = tmp_path / "huge.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and f"at most {2**63 - 1}, got {2**63}" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[adversary]\nu = 9223372036854775808\nd = 2\nn = 1000\ncap = 576\n",
             "line 7: 'u' must be at most 16777216"),
            ("[adversary]\nu = 1000000000000\nd = 2\nn = 1000\ncap = 576\n",
             "line 7: 'u' must be at most 16777216"),
            ("[adversary]\nu = 100000000\nd = 2\nn = 1000\ncap = 576\n",
             "line 7: 'u' must be at most 16777216"),
            ("[adversary]\ntau = 1e-300\nd = 2\nn = 1000\ncap = 576\n",
             "adversary domain 1.997e+300 exceeds 16777216 points"),
            ("[adversary]\ntau = 1e-320\nd = 2\nn = 1000\ncap = 576\n",
             "adversary parameters: cannot convert float infinity to integer"),
            (f"[adversary]\ntau = 0.05\nd = {10**400}\nn = 1000\ncap = 576\n",
             "adversary parameters: int too large to convert to float"),
            ("[grid]\nn = 3000\n[fixture]\nfamily = dsubset_adversary\nu = 1000000\nd = 1\n",
             "class of 1000000 x 1000000 labels exceeds 2147483648 cells"),
            ("[grid]\nn = 3000\n[fixture]\nfamily = realizable_uniform\nu = 100000\n",
             "class of 100001 x 100000 labels exceeds 2147483648 cells"),
            ("[grid]\nn = 3000\n[fixture]\nfamily = dsubset_adversary\nu = 1000000000000\nd = 1\n",
             "class of size 1000000000000 exceeds the enumeration cap"),
            ("[grid]\nn = 3000\ntau = 1e-320\n[fixture]\nfamily = dsubset_adversary\nd = 1\n",
             "fixture 'dsubset_adversary': cannot convert float infinity to integer"),
        ],
        ids=[
            "adversary_u_2e63", "adversary_u_1e12", "adversary_u_1e8", "adversary_tau_1e-300",
            "adversary_tau_1e-320", "adversary_d_1e400", "dsubset_u_1e6_d_1",
            "realizable_u_1e5", "dsubset_u_1e12_d_1", "dsubset_grid_tau_1e-320",
        ],
    )
    def test_run_refuses_an_oversized_domain_before_allocating(self, tmp_path, body, message):
        """Each config asks for an array of 1.49 GiB to 7.28 TiB, for one
        past numpy's dimension limit, or for a domain size that overflows a
        float. Run in a child limited to 1 GiB of address space, so any
        attempt to allocate it would end in a MemoryError and exit 1."""
        kind = "lower_bound" if body.startswith("[adversary]") else "upper_sweep"
        path = tmp_path / "huge.cfg"
        path.write_text(
            f"[experiment]\nkind = {kind}\nseed = 1\ntrials = 2\n"
            f"output = {tmp_path / 'out.csv'}\n{body}",
            encoding="utf-8",
        )
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from paclab.cli import main\n"
            "sys.exit(main(['run', sys.argv[1]]))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(paclab.__file__).resolve().parents[1]),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert message in done.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "paclab 0.1.0"

    def test_fixtures_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("dsubset_adversary", "realizable_uniform", "two_experts"):
            assert name in out

    def test_run_executes_a_config(self, tmp_path, capsys):
        path = tmp_path / "id.cfg"
        path.write_text(
            "[experiment]\nkind = identities\nseed = 1\ntrials = 50\n"
            f"output = {tmp_path / 'out.csv'}\n",
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "all identity checks passed" in out
        assert (tmp_path / "out.csv").exists()

    def test_run_reports_parse_errors_with_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkind = sideways\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "line 2:" in err

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_selftest_writes_its_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["selftest", "--trials", "200", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "all identity checks passed" in out
        assert (tmp_path / "selftest.csv").exists()


def data_digest(path):
    """sha256 of a CSV's header and data rows, without the `#` metadata."""
    with open(path, "rb") as handle:
        rows = b"".join(line for line in handle if not line.startswith(b"#"))
    return hashlib.sha256(rows).hexdigest()


class TestPinnedRows:
    """Data-row digests of small runs of each kind, recorded when the sweep
    trained one trial at a time, each adversary game was checked on its
    own, and the CSV was written row by row. The second lower-bound run has
    d = 3, so a game's error sums more than two masses."""

    SWEEP = """\
[experiment]
kind = upper_sweep
seed = 4242
trials = 70
output = {out}/sweep.csv
trace_output = {out}/sweep_trace.csv

[grid]
n = 3000, 30000
tau = 0.05, 0.1

[fixture]
family = dsubset_adversary
d = 2
alpha = 0.5
"""
    FILTER_SWEEP = """\
[experiment]
kind = upper_sweep
seed = 4243
trials = 6
output = {out}/filter.csv
trace_output = {out}/filter_trace.csv

[grid]
n = 30000

[fixture]
family = dsubset_adversary
u = 30
d = 3
alpha = 0.5

[constants]
exit_scale = 1e-3
"""
    LOWER_BOUND = """\
[experiment]
kind = lower_bound
seed = 4244
trials = 150
output = {out}/lb.csv

[adversary]
tau = 0.05
d = 2
n = 400
cap = 576
"""
    LOWER_BOUND_D3 = """\
[experiment]
kind = lower_bound
seed = 4246
trials = 150
output = {out}/lb3.csv

[adversary]
u = 23
d = 3
n = 2000
cap = 576
skew = 0.0123
"""
    IDENTITIES = """\
[experiment]
kind = identities
seed = 4245
trials = 60
output = {out}/id.csv

[identities]
chunk_size = 25
"""

    @pytest.mark.parametrize(
        "text, digests",
        [
            (SWEEP, (
                "00914828b5dd82c1a9a18b21a99c2da32001b6aa005d33d1c299344dca5a22ab",
                "737bed0ab33e4e4f5e97beef047e6a8657fcbfe4036e1f8c3e419b35cb63da06",
            )),
            (FILTER_SWEEP, (
                "99a9bf7daad7edfaa7951ed288468e8062391d074b81822da0eb1f4ced9b6cdf",
                "456564ee187a94c1922eb0a95c35e6cc19a8435226d101c325203951ee8c3d37",
            )),
            (LOWER_BOUND, ("c155a8edd5f827f38eac6f345b8cf5249e13f1821c2f29d0d66d61f666165d8f",)),
            (LOWER_BOUND_D3, ("d215befdf7edff2a0893ae5cf834ce885f5c2da70b559f296b91a9b0127fb6f0",)),
            (IDENTITIES, ("49b2e00905e2ae21ad247f70a654e1c08ef1acfe67bc52c9db665dcf97aa4c63",)),
        ],
        ids=["upper_sweep", "filter_sweep", "lower_bound", "lower_bound_d3", "identities"],
    )
    def test_data_rows_are_unchanged(self, tmp_path, text, digests):
        result = run(parse_config_text(text.format(out=tmp_path)))
        paths = [result.output_path] + ([result.trace_path] if result.trace_path else [])
        assert tuple(data_digest(path) for path in paths) == digests


class TestSweepSummary:
    def test_learner_lines_count_breaks_pairs_and_core_picks(self, tmp_path):
        config = parse_config_text(
            TestPinnedRows.FILTER_SWEEP.replace("trials = 6", "trials = 3").format(out=tmp_path)
        )
        result = run(config)
        fixture = FAMILIES["dsubset_adversary"](u=30, d=3, alpha=0.5)
        chose_core = 0
        for trial in range(3):
            pieces = SamplePieces.drawn(fixture.distribution, 30_000, RngStream(config.seed, 1 + trial))
            chose_core += train(pieces, fixture.klass, 3, config.delta, config.constants).chose_core
        learned = [row for row in result.rows if row.algorithm == "disagreeing_experts"]
        reasons = Counter(row.break_reason for row in learned)
        pairs = sum(row.r for row in learned)
        assert pairs >= 3
        breaks = ",".join(f"{reason}:{reasons[reason]}" for reason in BREAK_REASONS if reasons[reason])
        learner_line, erm_line = result.summary_lines
        assert learner_line.endswith(f" breaks={breaks} pairs={pairs} chose_core={chose_core}/3")
        assert "breaks=" not in erm_line and "chose_core" not in erm_line
        entry = result.summary[0]
        assert (entry["break_reasons"], entry["pairs"], entry["chose_core"]) == (
            dict(reasons), pairs, chose_core
        )
        trace = read_csv(result.trace_path)[2]
        rounds = len(trace) / 3
        improper = sum(row.excess_error < 0 for row in learned)
        assert improper >= 1
        assert f" rounds={rounds:.6g} improper={improper}/3 breaks=" in learner_line
        assert (entry["rounds"], entry["improper"]) == (rounds, improper)
        assert "rounds=" not in erm_line and "improper=" not in erm_line

    def test_a_cell_that_exits_at_round_one_says_so(self, tmp_path):
        result = run(sweep_config(tmp_path, family="dsubset_adversary", tau="0.1", n="3000"))
        assert result.summary_lines[0].endswith(" breaks=gamma_below_Zt:3 pairs=0 chose_core=3/3")
        assert " rounds=1 improper=0/3 breaks=" in result.summary_lines[0]
        assert (result.summary[0]["rounds"], result.summary[0]["improper"]) == (1.0, 0)
