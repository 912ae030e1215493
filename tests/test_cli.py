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
from choqfuse.measures import ConvergenceError, LambdaMeasure


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

    def test_a_measure_past_six_criteria_is_shown_by_lambda_alone(self, capsys, tmp_path):
        # 127 subsets are too many to print or report one by one.
        rng = np.random.default_rng(7)
        source, densities = tmp_path / "seven.csv", "0.1,0.15,0.2,0.05,0.1,0.12,0.08"
        write_csv(LabeledScoreSet(["a", "b"], rng.uniform(0, 1, (2, 7)),
                                  ["c", "d", "e"], rng.uniform(0, 1, (3, 7))), source)
        code, out, _ = run(capsys, "fuse", "--input", str(source), "--densities", densities,
                           "--out", str(tmp_path / "fuse"))
        lam = LambdaMeasure(tuple(map(float, densities.split(",")))).lam
        assert code == 0
        assert out == f"lambda = {lam:.6f}\nwrote {tmp_path / 'fuse' / 'fused_scores.csv'}\n"
        code, _, _ = run(capsys, "eval", "--input", str(source), "--densities", densities,
                         "--out", str(tmp_path / "eval"))
        assert code == 0
        measure = json.loads((tmp_path / "eval" / "eval.json").read_text())["measure"]
        assert sorted(measure) == ["densities", "lambda", "n_modalities"]
        assert measure["n_modalities"] == 7

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

    # sha256 of history.csv and measure.json of the default run per seed.
    SEED_DIGESTS = {
        0: ("314c7cfd0c4bf19ce8021d8839c14f887ecba9775af977edfc4b7a7252c53d87",
            "d53334f51c861136ced20ca823dbf393e91ef5343d736d3b33f9861ca08e0d7c"),
        1: ("97122cf185ab352f92faaf85c189b055e76aa62a872e98a7c3b9a640dcaaac12",
            "b65bf41df03bab359a83cfad2fe46d26fc425a506a7ce3d69915d690f7336bc1"),
        2: ("d96c06e77f7dc69cb9d8da7033d4ad2e7d29645d366dcce1e6235b1a7b930a8c",
            "add986dd190f15435d0fb64b00e1fe1999773625847f4d8f46024e86db9de075"),
        3: ("bb1f1116889676c4b792e80c837bce94049f8047ece1943b2f00ece0df0f187b",
            "c5dd15bc4f75c0dcf7dd9520ccaf61b8435d210c1f83ac7de7f077e9b9ec0ab9"),
        4: ("3f0ac3f3d2c2bbe4be2872d07041c4abfbbb0ca29185236d1f11365759a7b086",
            "1a64bfedabed973ef9db75b77ab3bdc24d1ff052de7b8f5df62339b3e079f63e"),
        5: ("c76d40dd99e1d91da3ba7a56eea02cf4def02915ea1c56dfd13fdb310a725d9e",
            "93373ae4a8c54ac560864503b3c89a7c791729e3539ee90392ce492190f7a65d"),
        6: ("f982ff30fc7c1a47c03a68132baa98fb771b574068f463d50ce6e813cf950159",
            "4f206e3cfb422aa8c4531e867f3009c61d60d840a3b5f48f09960e29fd086959"),
        7: ("b49ea3f06b01999f788fddd5ce7943ae69c067c35cb9c5179c7c3c4cf6a7250a",
            "7080485358b1ee7c72b57eade8ed4b69d93fc1f2efbcd5d79ec2124ad63c17ca"),
        8: ("8b443a7763480018e756916e43daeaf3b848b132470b83f199b4384301f2075e",
            "1bf367c57dc5046ebce472e8b0ef574f0385d157b4c012d478ce8cd90b239055"),
        9: ("24f66b94bdc66474217ddc688c8053f41ecb72306395028ece8b5448107112d8",
            "1a2bfd94fd03ed03ea3b1f4e33748719e5276e42fe104053aec55b7bad4de4be"),
    }

    @pytest.mark.parametrize("seed", range(10))
    def test_default_runs_of_ten_seeds_are_pinned(self, capsys, tmp_path, seed):
        # Every generation of ten default runs: the lambda solve, the fuse,
        # the sweep and the survivor pool must keep their bits on each.
        code, _, _ = run(capsys, "optimize", "--synthetic", "--seed", str(seed),
                         "--out", str(tmp_path))
        assert code == 0
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("history.csv", "measure.json"))
        assert digests == self.SEED_DIGESTS[seed]

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

    def test_every_output_of_a_large_tied_file_is_pinned(self, capsys, tmp_path):
        # 20,000 rows per class of 3-decimal scores over 4 modalities: every
        # classical rule's ROC meets ties and full-precision sums and products.
        rng = np.random.default_rng(27)
        clients = np.maximum(*rng.integers(0, 1001, (2, 20_000, 4))) / 1000
        impostors = np.minimum(*rng.integers(0, 1001, (2, 20_000, 4))) / 1000
        ids = [f"P{i}" for i in range(40_000)]
        write_csv(LabeledScoreSet(tuple(ids[:20_000]), clients, tuple(ids[20_000:]), impostors),
                  tmp_path / "scores.csv")
        code, _, _ = run(capsys, "compare", "--input", str(tmp_path / "scores.csv"),
                         "--densities", "0.3,0.2,0.25,0.15", "--out", str(tmp_path / "out"))
        assert code == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (tmp_path / "out").iterdir()}
        assert digests == {
            "comparison.csv": "8d444a1a89f93310a494dfe59cda09c1719110970b0beb2ee98ba6dc3d3ff562",
            "roc_m1.csv": "99ef5bbe8d71f3371a89a11dffefdb7f8c8c6d6421af90413705d9fb7cce0877",
            "roc_m2.csv": "6cc9185872ac5b228ae6d2dab145663759cf5b7e14eb4a1517ffa24fafebfb84",
            "roc_m3.csv": "4046c7f94c102e0e616625b1981b08998884d7d4a57e75f6b08c33e0fc38d1df",
            "roc_m4.csv": "9b1310be3c5791b1458ee73a8d0c3f52ee95c87afec2bd0a79a2abb3bdd7b654",
            "roc_and.csv": "2692673ae455c0ccfc213c4335e9e886eca8188d94c3fc021c305ec68760f89a",
            "roc_or.csv": "34fe49a2bc20c577f5e1fe3d814eeed957de7cfab5615e9d360605e81a619b48",
            "roc_prod.csv": "db54e8a6faf5fc555d9fb1f82c57348396ec699a3c882e1a8b9564406ecd08e0",
            "roc_mean.csv": "814b059e65f20416066f024d4fe04747387c2af9598d858d5c927b36bec02aec",
            "roc_min.csv": "ef54bcbdd40d2359bf7977204a0e85006e6257c287313dc1d2c94b464fa4ce23",
            "roc_max.csv": "d8b8e0c6d62a29cb4e873e0f5ca765ed25cd515193563bcaceceea5eebb40c02",
            "roc_majority_vote.csv":
                "66dcd1e06fe2567d7d526a1773c41a7f3db717ca66080ed8287198f1955463a9",
            "roc_choquet.csv": "afd9b0e4954fe64736141323def72ecd85705b475f9ee4a1fa59f8585aa81241",
        }

    def test_without_measure_skips_choquet_row(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compare", "--synthetic", "--out", str(tmp_path))
        assert code == 0
        assert "skipping the choquet row" in out
        assert not (tmp_path / "roc_choquet.csv").exists()


def test_negative_zero_scores_give_the_bytes_of_zero(capsys, tmp_path):
    # np.sort orders tied zeros of both signs per SIMD level; read as 0 they
    # give the same outputs at every level.
    rng = np.random.default_rng(24)
    cells = np.where(rng.uniform(size=(400, 3)) < 0.3, "-0",
                     rng.choice(["0", "0.25", "0.5", "1"], (400, 3)))
    lines = [f"P{i},{'client' if i % 2 else 'impostor'}," + ",".join(row)
             for i, row in enumerate(cells)]
    text = "person_id,label,m1,m2,m3\n" + "\n".join(lines) + "\n"
    for name, body in (("signed", text), ("zero", text.replace(",-0", ",0"))):
        (tmp_path / f"{name}.csv").write_text(body)
        for args in (["compare", "--densities", "0.3,0.3,0.3"], ["eval", "--rule", "min"]):
            code, _, _ = run(capsys, *args, "--input", str(tmp_path / f"{name}.csv"),
                             "--out", str(tmp_path / name / args[0]))
            assert code == 0
    signed = [path for path in (tmp_path / "signed").rglob("*") if path.is_file()]
    assert len(signed) == 14
    for path in signed:
        twin = tmp_path / "zero" / path.relative_to(tmp_path / "signed")
        assert path.read_bytes() == twin.read_bytes(), path.name


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

    @pytest.mark.parametrize("key,value", [("mystery", 1), ("command", "eval"), ("run", "eval"),
                                           ("seed", 3)])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, key, value):
        # "command" and "run" are the subcommand's own attributes, "seed" an option of
        # optimize only.
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

    @pytest.mark.parametrize("values", [
        {"stop-eer": 1}, {"stop-eer": 0.5, "stop_eer": 0.01}, {"stop_eer": 0.01, "stop-eer": 0.5},
    ], ids=["dash", "dash-first", "underscore-first"])
    def test_a_key_has_one_spelling(self, capsys, tmp_path, values):
        # A key is its option's name; the flag's dash spelling is refused, so
        # two spellings of one option cannot both stand in a file.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, "optimize", "--synthetic", "--generations", "3",
                             "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == "error: config key 'stop-eer' is not an option a config file can set\n"
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

    @pytest.mark.parametrize("command, key, flag, report", [
        (["optimize", "--generations", "3"], "stop_eer", "--stop-eer", "measure.json"),
        (["eval", "--rule", "mean"], "threshold", "--threshold", "eval.json"),
    ], ids=["optimize", "eval"])
    def test_an_integer_in_a_config_file_writes_the_bytes_of_the_flag(
            self, capsys, tmp_path, command, key, flag, report):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1}))
        for name, source in (("config", ["--config", str(cfg)]), ("flag", [flag, "1"])):
            code, _, _ = run(capsys, *command, "--synthetic", *source,
                             "--out", str(tmp_path / name))
            assert code == 0
        written = [(tmp_path / name / report).read_bytes() for name in ("config", "flag")]
        assert written[0] == written[1]


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

    def test_a_lambda_solver_failure_is_a_numeric_failure(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        source, out = tmp_path / "scores.csv", tmp_path / "out"
        write_csv(LabeledScoreSet(["a", "b"], rng.uniform(0, 1, (2, 4)),
                                  ["c", "d"], rng.uniform(0, 1, (2, 4))), source)
        monkeypatch.setattr("choqfuse.measures._MAX_ITER", 0)
        code, stdout, err = run(capsys, "fuse", "--input", str(source),
                                "--densities", "0.3,0.2,0.25,0.15", "--out", str(out))
        assert code == 3 and stdout == ""
        assert err.startswith("numeric failure: root residual ") and err.count("\n") == 1
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

    @pytest.mark.parametrize("command", [["fuse", "--densities", "0.35,0.25,0.3"],
                                         ["optimize", "--generations", "2"],
                                         ["compare"], ["eval", "--rule", "mean"]])
    def test_an_out_path_under_a_regular_file_prints_nothing(self, capsys, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        code, stdout, err = run(capsys, command[0], "--synthetic", *command[1:],
                                "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and str(out) in err

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


class TestLearnThenFuse:
    @pytest.mark.parametrize("command", [["fuse"], ["eval"], ["compare"]])
    def test_a_learned_measure_file_equals_its_densities(self, capsys, tmp_path, command):
        # optimize writes measure.json; reading it back with --measure-file
        # gives the bytes and stdout of the same densities given inline.
        run_dir, out = tmp_path / "run", tmp_path / "out"
        code, _, _ = run(capsys, "optimize", "--synthetic", "--generations", "5",
                         "--out", str(run_dir))
        assert code == 0
        densities = json.loads((run_dir / "measure.json").read_text())["densities"]
        results = []
        for source in (["--measure-file", str(run_dir / "measure.json")],
                       ["--densities", ",".join(map(repr, densities))]):
            code, stdout, err = run(capsys, *command, "--synthetic", *source, "--out", str(out))
            assert code == 0 and err == ""
            results.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
            for path in out.iterdir():
                path.unlink()
        assert results[0] == results[1] and results[0][1]


class TestErrorPaths:
    def test_a_header_only_csv_has_no_data_rows(self, capsys, tmp_path):
        source, out = tmp_path / "empty.csv", tmp_path / "out"
        source.write_text("person_id,label,m1,m2\n")
        code, _, err = run(capsys, "eval", "--input", str(source), "--rule", "mean",
                           "--out", str(out))
        assert code == 2 and err == f"data error: {source}: no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        (None, "config file not found: {path}"),
        ("{not json", "config file {path} is not valid JSON: "),
        ("[1, 2]", "config file {path} must hold a JSON object"),
        (None, "measure file not found: {path}"),
        ("{not json", "measure file {path} is not valid JSON: "),
    ])
    def test_a_config_that_is_missing_not_json_or_not_an_object(self, capsys, tmp_path, body,
                                                                 message):
        # The message names the file each case reads: a config, or a measure file.
        path, out = tmp_path / "run.json", tmp_path / "out"
        if body is not None:
            path.write_text(body)
        source = (["--config", str(path), "--densities", "0.35,0.25,0.3"]
                  if message.startswith("config") else ["--measure-file", str(path)])
        code, _, err = run(capsys, "fuse", *source, "--synthetic", "--out", str(out))
        assert code == 1 and err.startswith("error: " + message.format(path=path))
        assert not out.exists()

    def test_densities_and_a_measure_file_together(self, capsys, tmp_path):
        source, out = tmp_path / "measure.json", tmp_path / "out"
        source.write_text(json.dumps({"densities": [0.35, 0.25, 0.3]}))
        code, _, err = run(capsys, "fuse", "--synthetic", "--densities", "0.35,0.25,0.3",
                           "--measure-file", str(source), "--out", str(out))
        assert code == 1
        assert err == "error: give either --densities or --measure-file, not both\n"
        assert not out.exists()

    def test_a_convergence_error_is_a_numeric_failure(self, capsys, tmp_path, monkeypatch):
        def fail(data, cfg):
            raise ConvergenceError("root residual 1.000e-03 exceeds 1e-10")

        monkeypatch.setattr("choqfuse.cli.evolve", fail)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "optimize", "--synthetic", "--out", str(out))
        assert code == 3 and stdout == ""
        assert err == "numeric failure: root residual 1.000e-03 exceeds 1e-10\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["99999999999999999999", str(2 ** 63)])
    def test_more_generations_than_int64_holds_are_refused(self, capsys, tmp_path, value):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "optimize", "--synthetic", "--generations", value,
                                "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: max_generations must lie in [1, {2 ** 63 - 65}]\n"
        assert not out.exists()

    def test_a_byte_order_mark_in_a_config_and_a_measure_file(self, capsys, tmp_path):
        # Editors that save "UTF-8 with BOM" start the file with U+FEFF.
        config, measure, out = tmp_path / "run.json", tmp_path / "measure.json", tmp_path / "out"
        config.write_text("\ufeff" + json.dumps({"synthetic": True}), encoding="utf-8")
        measure.write_text("\ufeff" + json.dumps({"densities": [0.35, 0.25, 0.3]}),
                           encoding="utf-8")
        code, stdout, err = run(capsys, "fuse", "--config", str(config),
                                "--measure-file", str(measure), "--out", str(out))
        assert code == 0 and err == ""
        assert parse_measure_lines(stdout)["lambda"] == pytest.approx(0.361, abs=5e-4)
