"""Command-line interface behavior and exit codes."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

from choqfuse.aggregate import choquet_fuse, choquet_fuse_batch
from choqfuse.cli import main
from choqfuse.data import LabeledScoreSet, synthetic_dataset, write_csv
from choqfuse.ga import GaConfig, evolve
from choqfuse.measures import LambdaMeasure


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_measure_lines(stdout):
    values = {}
    for line in stdout.splitlines():
        if line.startswith("lambda"):
            values["lambda"] = float(line.split("=")[1])
        elif line.startswith("m({"):
            key = line[line.index("{") + 1 : line.index("}")]
            values[key] = float(line.split("=")[1])
    return values


class TestFuse:
    def test_prints_measure_table_and_writes_scores(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fuse", "--synthetic", "--densities", "0.35,0.25,0.3",
            "--out", str(tmp_path),
        )
        assert code == 0
        values = parse_measure_lines(out)
        assert values["lambda"] == pytest.approx(0.361, abs=5e-4)
        assert values["1,2"] == pytest.approx(0.631, abs=1e-3)
        assert values["2,3"] == pytest.approx(0.577, abs=1e-3)
        with open(tmp_path / "fused_scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        measure = LambdaMeasure((0.35, 0.25, 0.3))
        data = synthetic_dataset()
        first = rows[0]
        assert first["person_id"] == "P1" and first["label"] == "client"
        assert float(first["fused"]) == pytest.approx(
            choquet_fuse(data.client_scores[0], measure), abs=1e-12
        )

    def test_additive_densities_print_zero_lambda(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fuse", "--synthetic", "--densities", "0.3,0.3,0.4",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert parse_measure_lines(out)["lambda"] == 0.0

    def test_requires_a_measure(self, capsys, tmp_path):
        code, _, err = run(capsys, "fuse", "--synthetic", "--out", str(tmp_path))
        assert code == 1
        assert "densities" in err

    @pytest.mark.parametrize("ids,n_clients,n_impostors", [
        (["a,b", 'say "hi"', "x\ny", "cr\rlf", '"', "P1", "plain id", "semi;colon"], 5, 3),
        (None, 8191, 1),
        (None, 8192, 8193),
        (None, 3, 16385),
    ])
    def test_bytes_equal_the_csv_writer_loop(self, capsys, tmp_path, ids, n_clients,
                                             n_impostors):
        rng = np.random.default_rng(n_clients + n_impostors)
        total = n_clients + n_impostors
        ids = ids or [f"p{i}" if i % 7 else f'p,{i}"q' for i in range(total)]
        scores = rng.choice([0.0, 1.0, 0.25, 0.5], (total, 3))
        scores[::3] = rng.uniform(0.0, 1.0, (len(scores[::3]), 3))
        data = LabeledScoreSet(ids[:n_clients], scores[:n_clients],
                               ids[n_clients:], scores[n_clients:])
        source = tmp_path / "scores.csv"
        write_csv(data, source)
        code, _, _ = run(capsys, "fuse", "--input", str(source),
                         "--densities", "0.35,0.25,0.3", "--out", str(tmp_path))
        assert code == 0
        # The writer the CLI used before it wrote in blocks, kept as the reference.
        measure = LambdaMeasure((0.35, 0.25, 0.3))
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["person_id", "label", "fused"])
            for label, pids, rows in (("client", data.client_ids, data.client_scores),
                                      ("impostor", data.impostor_ids, data.impostor_scores)):
                for pid, value in zip(pids, choquet_fuse_batch(rows, measure)):
                    writer.writerow([pid, label, repr(float(value))])
        written = (tmp_path / "fused_scores.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        with open(tmp_path / "fused_scores.csv", newline="", encoding="utf-8") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == list(ids)


class TestOptimize:
    def test_writes_report_and_history(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "optimize", "--synthetic", "--seed", "5",
            "--generations", "12", "--population", "8", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "measure.json").read_text())
        assert report["stop_reason"] == "max_generations"
        assert len(report["densities"]) == 3
        assert 0.0 <= report["eer"] <= 1.0
        assert report["config"]["rng_seed"] == 5
        assert "subset_measures" in report
        with open(tmp_path / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generation", "best_eer", "gene1", "gene2", "gene3"]
        assert len(rows) == 14  # header + generations 0..12

    def test_identical_seeds_give_byte_identical_outputs(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(
                capsys, "optimize", "--synthetic", "--seed", "9",
                "--generations", "10", "--population", "6", "--out", str(out_dir),
            )
            assert code == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "measure.json").read_bytes() == (out_b / "measure.json").read_bytes()

    def test_default_seed_zero_history_is_pinned(self, capsys, tmp_path):
        # The full 1000-generation trajectory of the default run: any change
        # to a fitness value, a random stream or an operator shows here.
        code, _, _ = run(capsys, "optimize", "--synthetic", "--seed", "0",
                         "--out", str(tmp_path))
        assert code == 0
        digest = hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest()
        assert digest == "314c7cfd0c4bf19ce8021d8839c14f887ecba9775af977edfc4b7a7252c53d87"

    def test_short_history_bytes_equal_the_csv_writer_loop(self, capsys, tmp_path):
        code, _, _ = run(capsys, "optimize", "--synthetic", "--seed", "5", "--generations",
                         "12", "--population", "8", "--out", str(tmp_path))
        assert code == 0
        # The writer the CLI used before it wrote in blocks, kept as the reference.
        _, history = evolve(synthetic_dataset(),
                            GaConfig(population_size=8, max_generations=12, rng_seed=5))
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_eer", "gene1", "gene2", "gene3"])
            for record in history:
                writer.writerow([record.generation, repr(record.eer)]
                                + [repr(g) for g in record.genes])
        written = (tmp_path / "history.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        digest = hashlib.sha256(written).hexdigest()
        assert digest == "8084492859b0c7b2d0548e8ea423a7c83ece71ec0130189eaf9c6220c348ab05"

    def test_separable_input_stops_on_threshold(self, capsys, tmp_path):
        data = LabeledScoreSet(
            ("c1", "c2"), [[0.9, 0.95, 0.9], [0.85, 0.9, 0.95]],
            ("i1", "i2"), [[0.1, 0.05, 0.1], [0.15, 0.1, 0.05]],
        )
        source = tmp_path / "toy.csv"
        write_csv(data, source)
        code, _, _ = run(
            capsys, "optimize", "--input", str(source), "--population", "6",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "measure.json").read_text())
        assert report["stop_reason"] == "eer_threshold"
        assert report["eer"] == 0.0
        assert report["generations_run"] == 0


class TestCompare:
    def test_reproduces_reference_error_rates(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "compare", "--synthetic", "--densities", "0.411,0.547,0.362",
            "--out", str(tmp_path),
        )
        assert code == 0
        rates = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1].replace(".", "").isdigit():
                rates[parts[0]] = float(parts[1])
        expected = {
            "m1": 13.33, "m2": 20.00, "m3": 38.33,
            "and": 28.33, "or": 30.00, "prod": 40.00,
            "mean": 8.33, "majority_vote": 13.33, "choquet": 5.00,
        }
        for rule, value in expected.items():
            assert rates[rule] == pytest.approx(value, abs=0.005), rule
        with open(tmp_path / "comparison.csv", newline="") as fh:
            table = {row["rule"]: float(row["error_rate_percent"])
                     for row in csv.DictReader(fh)}
        for rule, value in expected.items():
            assert table[rule] == pytest.approx(value, abs=0.005)
        for rule in expected:
            roc = tmp_path / f"roc_{rule}.csv"
            assert roc.exists()
            header = roc.read_text().splitlines()[0]
            assert header == "threshold,far,frr"

    def test_comparison_bytes_equal_the_csv_writer_loop(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--synthetic", "--densities", "0.35,0.25,0.3",
                           "--out", str(tmp_path))
        assert code == 0
        printed = [line.split() for line in out.splitlines()[1:-1]]
        # The writer the CLI used before it wrote in blocks, kept as the reference.
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rule", "error_rate_percent"])
            for name, rate in printed:
                writer.writerow([name, f"{float(rate):.2f}"])
        written = (tmp_path / "comparison.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written == (
            b"rule,error_rate_percent\r\nm1,13.33\r\nm2,20.00\r\nm3,38.33\r\n"
            b"and,28.33\r\nor,30.00\r\nprod,40.00\r\nmean,8.33\r\nmin,28.33\r\n"
            b"max,30.00\r\nmajority_vote,13.33\r\nchoquet,6.67\r\n"
        )

    def test_without_measure_skips_choquet_row(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--synthetic", "--out", str(tmp_path))
        assert code == 0
        assert "skipping the choquet row" in out
        assert not (tmp_path / "roc_choquet.csv").exists()


class TestEval:
    def test_mean_rule_report(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "eval", "--synthetic", "--rule", "mean", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["rule"] == "mean"
        assert report["error_rate_at_threshold"] == pytest.approx(5 / 60, abs=1e-12)
        assert report["n_clients"] == 30 and report["n_impostors"] == 30
        assert (tmp_path / "roc_mean.csv").exists()

    def test_choquet_eval_needs_a_measure(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--synthetic", "--out", str(tmp_path))
        assert code == 1
        assert "measure" in err

    def test_choquet_eval_reports_measure(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "eval", "--synthetic", "--densities", "0.411,0.547,0.362",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["min_error_rate"] == pytest.approx(0.05, abs=1e-12)
        assert report["measure"]["lambda"] == pytest.approx(-0.6134, abs=1e-3)


class TestExitCodes:
    def test_usage_error_for_conflicting_inputs(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fuse", "--synthetic", "--input", "x.csv",
            "--densities", "0.3,0.3,0.3", "--out", str(tmp_path),
        )
        assert code == 1 and "exactly one input source" in err

    def test_data_error_for_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fuse", "--input", str(tmp_path / "missing.csv"),
            "--densities", "0.3,0.3,0.3", "--out", str(tmp_path),
        )
        assert code == 2 and "not found" in err

    def test_data_error_for_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("person_id,label,m1\na,client,1.7\nb,impostor,0.2\n")
        code, _, err = run(
            capsys, "eval", "--input", str(bad), "--rule", "mean",
            "--out", str(tmp_path),
        )
        assert code == 2 and "1.7" in err

    def test_usage_error_for_bad_densities(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "fuse", "--synthetic", "--densities", "a,b,c",
            "--out", str(tmp_path),
        )
        assert code == 1

    def test_usage_error_for_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_a_negative_seed_is_named(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run(capsys, "optimize", "--synthetic", "--seed", "-1", "--out", str(out))
        assert code == 1 and err == "error: rng_seed must be non-negative\n"
        assert not out.exists()

    def test_one_modality_input_is_refused_before_any_output(self, capsys, tmp_path):
        source, out = tmp_path / "one.csv", tmp_path / "out"
        source.write_text("person_id,label,m1\na,client,0.9\nb,impostor,0.1\n")
        code, out_text, err = run(capsys, "optimize", "--input", str(source),
                                  "--out", str(out))
        assert code == 1 and out_text == ""
        assert err == "error: the GA needs at least 2 modalities, the data has 1\n"
        assert not out.exists()

    def test_usage_error_for_invalid_density_values(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "fuse", "--synthetic", "--densities", "0.5,1.5",
            "--out", str(tmp_path),
        )
        assert code == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "synthetic": True, "densities": "0.35,0.25,0.3", "out": str(tmp_path),
        }))
        code, out, _ = run(capsys, "fuse", "--config", str(cfg))
        assert code == 0
        assert parse_measure_lines(out)["lambda"] == pytest.approx(0.361, abs=5e-4)

    def test_explicit_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "synthetic": True, "densities": "0.35,0.25,0.3", "out": str(tmp_path),
        }))
        code, out, _ = run(
            capsys, "fuse", "--config", str(cfg), "--densities", "0.3,0.3,0.4",
        )
        assert code == 0
        assert parse_measure_lines(out)["lambda"] == 0.0

    @pytest.mark.parametrize("key,value", [("mystery", 1), ("command", "eval"), ("seed", 3)])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, key, value):
        # "command" is the subcommand's own attribute, "seed" an option of optimize only.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synthetic": True, "densities": "0.35,0.25,0.3", key: value}))
        code, _, err = run(capsys, "fuse", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1 and repr(key) in err
        assert not (tmp_path / "o").exists()

    def test_nested_config_key_rejected(self, capsys, tmp_path):
        # The outer file is already the config: an inner "config" would be
        # silently ignored, so it is refused instead.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"config": str(tmp_path / "inner.json"), "synthetic": True,
                                   "densities": "0.35,0.25,0.3"}))
        code, _, err = run(capsys, "fuse", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1 and "'config'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("from_config", [False, True])
    def test_normalize_with_synthetic_is_a_usage_error(self, capsys, tmp_path, from_config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"normalize": True} if from_config else {}))
        flags = [] if from_config else ["--normalize"]
        code, _, err = run(capsys, "fuse", "--synthetic", "--densities", "0.35,0.25,0.3",
                           "--config", str(cfg), *flags, "--out", str(tmp_path / "o"))
        assert code == 1 and "--normalize" in err
        assert not (tmp_path / "o").exists()


class TestFailuresWriteNothing:
    @pytest.mark.parametrize("fault", ["stray quote", "not UTF-8"])
    def test_unreadable_csv_is_a_data_error(self, capsys, tmp_path, fault):
        rng = np.random.default_rng(5)
        lines = ["person_id,label,m1,m2,m3"] + [
            f"P{i},{('client', 'impostor')[i % 2]}," + ",".join(f"{v:.3f}" for v in row)
            for i, row in enumerate(rng.uniform(0, 1, (20_000, 3)))]
        if fault == "stray quote":
            lines[5] = '"' + lines[5]
        body = ("\r\n".join(lines) + "\r\n").encode()
        if fault == "not UTF-8":
            body = body[:300_000] + b"\xff" + body[300_000:]
        bad = tmp_path / "scores.csv"
        bad.write_bytes(body)
        out = tmp_path / "out"
        code, _, err = run(capsys, "compare", "--input", str(bad),
                           "--densities", "0.35,0.25,0.3", "--out", str(out))
        assert code == 2 and err.startswith(f"data error: {bad}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unterminated_quote_on_the_last_line_is_a_data_error(self, capsys, tmp_path):
        bad = tmp_path / "scores.csv"
        bad.write_bytes(b'person_id,label,m1\r\nP1,client,0.9\r\n"P3",impostor,"0.3\r\n')
        out = tmp_path / "out"
        code, _, err = run(capsys, "eval", "--input", str(bad), "--rule", "mean",
                           "--out", str(out))
        assert code == 2
        assert err == f"data error: {bad}: row 3 is not valid CSV (unexpected end of data)\n"
        assert not out.exists()

    def test_compare_with_wrong_measure_size_writes_no_file(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "compare", "--synthetic", "--densities", "0.3,0.3", "--out", str(out),
        )
        assert code == 1 and "2 densities" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("command", [["compare"], ["eval", "--rule", "mean"]])
    def test_threshold_outside_the_unit_interval_writes_no_file(self, capsys, tmp_path,
                                                                command, threshold):
        out = tmp_path / "out"
        code, _, err = run(capsys, *command, "--synthetic", "--densities", "0.35,0.25,0.3",
                           f"--threshold={threshold}", "--out", str(out))
        assert code == 1 and "--threshold" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["fuse", "compare", "eval"])
    def test_densities_too_small_for_a_float_lambda_exit_1(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, command, "--synthetic",
                               "--densities", "5e-324,5e-324,5e-324", "--out", str(out))
        assert code == 1 and "too small" in err and "Warning" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("value,code", [("1e-100", 0), ("1e-150", 0), ("1e-300", 1)])
    def test_tiny_densities_with_a_huge_lambda_never_exit_3(self, capsys, tmp_path, value, code):
        # lambda is about 1e150 and 1e225 for the first two, beyond the
        # largest float for the last.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result, _, err = run(capsys, "fuse", "--synthetic",
                                 "--densities", ",".join([value] * 3), "--out", str(out))
        assert result == code and "Warning" not in err
        if code:
            assert f"densities [{value}, {value}, {value}] are too small" in err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert (out / "fused_scores.csv").exists()

    @pytest.mark.parametrize("command", ["fuse", "compare", "eval"])
    def test_measure_width_mismatch_is_one_message(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--synthetic", "--densities", "0.3,0.3",
                           "--out", str(out))
        assert code == 1 and "measure has 2 densities but the data has 3 modalities" in err
        assert not out.exists() or not any(out.iterdir())

    def test_config_value_of_wrong_type_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"generations": "5"}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "optimize", "--synthetic", "--config", str(cfg),
                           "--out", str(out))
        assert code == 1 and "generations" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("values", [
        {"synthetic": 1}, {"population": True}, {"stop_eer": "0.1"}, {"densities": [0.3]},
    ])
    def test_config_types_are_checked(self, capsys, tmp_path, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, _, err = run(capsys, "optimize", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1 and next(iter(values)) in err

    def test_integer_config_value_accepted_for_a_float_option(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synthetic": True, "threshold": 1}))
        code, _, _ = run(capsys, "compare", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0

    @pytest.mark.parametrize("payload", [{"densities": 0.3}, [0.3, 0.3, 0.4],
                                         {"densities": ["a", 0.3, 0.4]}, {"lambda": 0.1}])
    def test_malformed_measure_file_is_a_usage_error(self, capsys, tmp_path, payload):
        source = tmp_path / "measure.json"
        source.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code, _, err = run(capsys, "fuse", "--synthetic", "--measure-file", str(source),
                           "--out", str(out))
        assert code == 1 and "densities" in err
        assert not out.exists() or not any(out.iterdir())
