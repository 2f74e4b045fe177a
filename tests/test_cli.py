import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from disq import cli, protocol
from disq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.mark.parametrize(
    "argv, env",
    [
        (("order", "--N", "15", "--a", "7", "--seed", "-1"), None),
        (("factor", "--N", "15", "--seed", "-3"), None),
        (("order", "--N", "15", "--a", "7"), "-2"),
    ],
    ids=["order-flag", "factor-flag", "env"],
)
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("DISQ_SEED", raising=False)
    else:
        monkeypatch.setenv("DISQ_SEED", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--N", "15", "--a", "7", "--shots", "2", "--seed", "1"),
        ("factor", "--N", "15", "--seed", "1"),
        # Refused as usage before the size check, which would exit 1.
        ("order", "--N", "1000000007", "--shots", "1"),
        ("factor", "--N", "1000000016000000063"),
    ],
    ids=["order", "factor", "order-oversized", "factor-oversized"],
)
def test_monolithic_engine_has_no_joint_oracle(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--engine", "monolithic", "--mode", "joint-oracle")
    assert code == 2 and out == "" and "joint-oracle" in err


def test_monolithic_engine_accepts_the_sequential_mode(capsys):
    argv = ("order", "--N", "33", "--a", "2", "--shots", "5", "--seed", "3",
            "--engine", "monolithic")
    assert run_cli(capsys, *argv, "--mode", "sequential-teleport") == run_cli(capsys, *argv)


# One argv per exit path: a run, a capacity failure, usage errors found by
# the handler and by argparse itself.
REPEATED_ARGV = [
    (["order", "--N", "15", "--a", "7", "--shots", "3", "--seed", "1"], 0),
    (["order", "--N", "33", "--a", "2", "--shots", "2", "--seed", "3",
      "--engine", "monolithic", "--format", "csv"], 0),
    (["resources", "--L", "4"], 0),
    (["order", "--N", "4097", "--shots", "1"], 1),
    (["factor", "--N", "13"], 2),
    (["order", "--N", "15", "--a", "7", "--epsilon", "2"], 2),
    (["order", "--a", "7"], 2),
]


# Epsilons whose numerator or denominator has more than EPSILON_DIGITS digits,
# written as an exponent, as a ratio, as a long decimal and with an exponent
# too long to parse.
HUGE_EPSILONS = [
    "1e-5000",
    "1e-10000000",
    "1e5000",
    "1/" + "9" * 301,
    "0." + "0" * 300 + "1",
    "1e-" + "9" * 5000,
]


@pytest.mark.parametrize("epsilon", HUGE_EPSILONS, ids=range(len(HUGE_EPSILONS)))
@pytest.mark.parametrize(
    "argv",
    [
        ("resources", "--L", "8"),
        ("resources", "--sweep-L", "4:8:4"),
        ("order", "--N", "15", "--a", "7", "--shots", "1"),
        ("factor", "--N", "15"),
    ],
    ids=["resources", "sweep", "order", "factor"],
)
def test_huge_epsilon_is_a_usage_error(capsys, argv, epsilon):
    code, out, err = run_cli(capsys, *argv, "--epsilon", epsilon)
    assert code == 2 and out == ""
    assert err.startswith("error: epsilon") and "Traceback" not in err and len(err) < 200


@pytest.mark.parametrize(
    "epsilon", ["1e-299", "1/" + "9" * 300, "1000e-302", "0." + "0" * 298 + "1"]
)
def test_longest_epsilon_is_accepted(capsys, epsilon):
    code, out, _ = run_cli(capsys, "resources", "--L", "8", "--epsilon", epsilon)
    assert code == 0 and out


@pytest.mark.parametrize("epsilon", ["1e-1__0", "1e5_", "1e", "e-5"])
def test_malformed_exponent_is_a_usage_error(capsys, epsilon):
    code, out, err = run_cli(capsys, "resources", "--L", "8", "--epsilon", epsilon)
    assert code == 2 and out == "" and err.startswith("error: cannot parse epsilon")


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main reuses one parser per process; each call must still print and
    # return what the same argv gives a process of its own.
    monkeypatch.delenv("DISQ_SEED", raising=False)
    env = {k: v for k, v in os.environ.items() if k != "DISQ_SEED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = [
        subprocess.run([sys.executable, "-m", "disq.cli", *argv], capture_output=True,
                       env=env, timeout=120)
        for argv, _ in REPEATED_ARGV
    ]
    for _ in range(2):
        for (argv, code), proc in zip(REPEATED_ARGV, fresh):
            try:
                got = main(list(argv))
            except SystemExit as exc:  # argparse's own usage errors
                got = exc.code
            out, err = capsys.readouterr()
            assert got == proc.returncode == code
            assert (out, err) == (proc.stdout.decode(), proc.stderr.decode())


class TestOrder:
    def test_dyadic_run_is_fully_successful(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order", "--N", "15", "--a", "7", "--shots", "100",
            "--engine", "distributed", "--seed", "4",
        )
        assert code == 0
        objects = parse_jsonl(out)
        shots = [o for o in objects if o["type"] == "shot"]
        summary = objects[-1]
        assert summary["type"] == "summary"
        assert len(shots) == 100
        assert summary["success_rate"] == 1.0
        assert all(o["estimation_error"] == "0" for o in shots)
        assert all(len(o["channel"]) == 8 for o in shots)
        assert all(o["schema"] == 1 for o in objects)

    def test_nondyadic_meets_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order", "--N", "33", "--a", "2", "--epsilon", "0.25", "--shots", "40",
            "--engine", "distributed", "--seed", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["N"] == "33" and row["a"] == "2" and row["epsilon"] == "1/4"
        sigma = math.sqrt(0.75 * 0.25 / 40)
        assert float(row["success-rate"]) >= 0.75 - 3 * sigma
        assert float(row["theorem2-bound"]) == 0.75

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("order", "--N", "15", "--a", "7", "--shots", "25", "--seed", "99")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "flags", [(), ("--mode", "joint-oracle"), ("--engine", "monolithic")]
    )
    def test_workers_preserve_output(self, capsys, flags):
        base = ("order", "--N", "15", "--a", "7", "--shots", "12", "--seed", "31", *flags)
        _, serial, _ = run_cli(capsys, *base, "--workers", "1")
        for workers in ("2", "3"):
            _, threaded, _ = run_cli(capsys, *base, "--workers", workers)
            assert serial == threaded

    @pytest.mark.blas
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--N", "15", "--a", "7", "--shots", "20", "--seed", "11"),
                "4d4959b5d15b973601b797c22009870f07a69f329fea98e4b123917306dfd4ab",
            ),
            # N=21 a=2: of the pinned cases, the one whose node-B state a
            # teleport that rounded the work register would move most often.
            (
                ("--N", "21", "--a", "2", "--shots", "200", "--seed", "3"),
                "b23049a1573d5d809dbcd8c45ec87db3cc885da076c9fd3fae6cfe07e97a85f5",
            ),
            # N=65 a=2: node B's rows (2^18 floats) are wider than
            # statevec._SQUARE_GROUP, and its marginal streams 128 chunks.
            (
                ("--N", "65", "--a", "2", "--shots", "20", "--seed", "4"),
                "8e3280d5aab73ac0e0476282c5bee7b56d3bb17de2249bdaf694c90cf7230bfa",
            ),
        ],
        ids=["n15", "n21", "n65"],
    )
    def test_seeded_output_is_pinned(self, capsys, argv, digest):
        # Seeded records are part of the output contract: a faster kernel
        # must reproduce them byte for byte.
        _, out, _ = run_cli(capsys, "order", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.blas
    def test_seeded_joint_oracle_output_is_pinned(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "order", "--N", "15", "--a", "7", "--shots", "20", "--seed", "11",
            "--mode", "joint-oracle",
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3d415daaf7a2dfacb2113ad6d8c1a78937a829b09da31d5c255f3503243a956a"
        )

    @pytest.mark.blas
    @pytest.mark.parametrize(
        "engine, digest",
        [
            ("distributed", "fb0b285a2466b490e17d5042649f69f5e73de71a4e9a4deea7fe80447efd213b"),
            ("monolithic", "14484efb5e6fc2f27a13d70f24e7a39eaf5c12989b7a51ace92c114c4a3a69ec"),
        ],
    )
    def test_seeded_n33_output_is_pinned(self, capsys, engine, digest):
        # N=33 a=2 holds only the 10 powers of 2 among node B's 64 work
        # values, so node B stores 10 of its 64 work rows.
        _, out, _ = run_cli(
            capsys,
            "order", "--N", "33", "--a", "2", "--shots", "20", "--seed", "11",
            "--engine", engine,
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unwritable_output_rejected(self, capsys, tmp_path):
        path = tmp_path / "missing" / "records.jsonl"
        code, out, err = run_cli(
            capsys, "order", "--N", "15", "--a", "7", "--shots", "2", "--output", str(path)
        )
        assert code == 2 and out == "" and "output" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run_cli(
            capsys, "order", "--N", "15", "--a", "7", "--shots", "2", "--workers", workers
        )
        assert code == 2 and out == "" and "workers" in err

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("DISQ_SEED", "123")
        _, with_env, _ = run_cli(capsys, "order", "--N", "15", "--a", "7", "--shots", "10")
        monkeypatch.delenv("DISQ_SEED")
        _, with_flag, _ = run_cli(
            capsys, "order", "--N", "15", "--a", "7", "--shots", "10", "--seed", "123"
        )
        assert with_env == with_flag

    def test_random_base_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--N", "15", "--shots", "5", "--seed", "1")
        assert code == 0
        summary = parse_jsonl(out)[-1]
        assert math.gcd(summary["a"], 15) == 1

    def test_monolithic_engine(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "order", "--N", "15", "--a", "7", "--shots", "20",
            "--engine", "monolithic", "--seed", "2",
        )
        assert code == 0
        shots = [o for o in parse_jsonl(out) if o["type"] == "shot"]
        assert all(o["m1"] is None and o["m2"] is None for o in shots)
        assert all(len(o["m"]) == 11 for o in shots)  # t_mono for N=15, eps=1/4

    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "order", "--N", "15", "--a", "6", "--shots", "5")
        assert code == 2 and "gcd" in err
        code, _, err = run_cli(capsys, "order", "--N", "15", "--a", "7", "--epsilon", "2")
        assert code == 2
        code, _, err = run_cli(capsys, "order", "--N", "1", "--shots", "5")
        assert code == 2

    def test_capacity_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "order", "--N", "4097", "--shots", "1")
        assert code == 1
        assert "qubits" in err

    def test_oversized_run_refused_before_base_is_drawn(self, capsys, monkeypatch):
        # Drawing a base lists every coprime below N; past the guard that
        # list alone would take gigabytes.
        def no_pick(*_):
            raise AssertionError("_pick_base called")

        monkeypatch.setattr(cli, "_pick_base", no_pick)
        code, out, err = run_cli(
            capsys, "order", "--N", "1000000007", "--shots", "1", "--seed", "1"
        )
        assert code == 1 and out == "" and "qubits" in err

    def test_bad_base_is_a_usage_error_before_capacity(self, capsys):
        code, _, err = run_cli(capsys, "order", "--N", "4097", "--a", "4097", "--shots", "1")
        assert code == 2 and "gcd" in err

    @pytest.mark.parametrize("seed", [0, 11, 49])
    def test_base_draw_does_not_share_a_shot_stream(self, capsys, monkeypatch, seed):
        # The generator that draws the base must not read the random words
        # of any shot's generator, shot 0's included.
        firsts = []
        pick = cli._pick_base

        def recording(N, rng):
            firsts.append(copy.deepcopy(rng).random(4).tolist())
            return pick(N, rng)

        monkeypatch.setattr(cli, "_pick_base", recording)
        shots = 5
        code, _, _ = run_cli(
            capsys, "order", "--N", "35", "--shots", str(shots), "--seed", str(seed)
        )
        assert code == 0 and len(firsts) == 1
        for i in range(shots):
            assert firsts[0] != protocol.shot_rng(seed, i).random(4).tolist()

    @pytest.mark.blas
    def test_seeded_csv_output_is_pinned(self, capsys):
        _, out, _ = run_cli(
            capsys, "order", "--N", "35", "--shots", "10", "--seed", "11", "--format", "csv"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "abb692381c42e2cba2ba041d4b8cfc9b192796b8dece156f1573b63ad47e6631"
        )

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys,
            "order", "--N", "15", "--a", "7", "--shots", "5", "--seed", "8",
            "--output", str(path),
        )
        assert code == 0 and out == ""
        objects = [json.loads(line) for line in path.read_text().splitlines()]
        assert objects[-1]["type"] == "summary"


class TestFactor:
    def test_factors_15(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "15", "--seed", "1")
        assert code == 0
        result = json.loads(out)
        assert result["factor"] in (3, 5)
        assert result["factor"] * result["cofactor"] == 15
        assert 1 <= result["attempts"] <= 10

    def test_factors_21_with_odd_bit_length(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--N", "21", "--seed", "2")
        assert code == 0
        assert json.loads(out)["factor"] in (3, 7)

    def test_joint_oracle_is_guarded_by_its_law(self, capsys):
        # N=21: L=6, t1=7, t2=14.  The joint law spans t1 + t2 = 21 qubits'
        # outcomes (16 MiB); with the work register they would be 27.
        code, out, _ = run_cli(capsys, "factor", "--N", "21", "--seed", "9",
                               "--mode", "joint-oracle")
        assert code == 0
        result = json.loads(out)
        assert result["factor"] in (3, 7)

    @pytest.mark.blas
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--N", "33", "--seed", "11"),
                "e619f74444356696ae769fbded415584db9eb8da84b822b6c8d14211824dcc89",
            ),
            (
                ("--N", "15", "--seed", "10"),
                "694e23eaf38aa62aed7b8753126cd7672458f43c556ad98e1b133f473e0c46c7",
            ),
        ],
        ids=["n33", "n15"],
    )
    def test_seeded_output_is_pinned(self, capsys, argv, digest):
        # Both seeds draw bases that share no factor with N, so each attempt
        # runs a sequential shot (4 at N=33, 3 at N=15).  The attempts share
        # one generator, so a shot that read one more uniform, or one fewer,
        # would change the bases drawn after it and the attempt count.
        _, out, _ = run_cli(capsys, "factor", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rejects_even_prime_and_prime_power(self, capsys):
        for bad in ("16", "13", "27"):
            code, _, err = run_cli(capsys, "factor", "--N", bad)
            assert code == 2, bad
            assert err

    def test_max_attempts_below_one_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--N", "15", "--max-attempts", "0")
        assert code == 2 and out == "" and "max-attempts" in err

    @staticmethod
    def forbid_trial_division(monkeypatch):
        # Trial division takes O(sqrt(N)) steps; past the guard it would not end.
        def no_division(*_):
            raise AssertionError("_smallest_prime_factor called")

        monkeypatch.setattr(cli, "_smallest_prime_factor", no_division)

    def test_oversized_run_refused_before_trial_division(self, capsys, monkeypatch):
        self.forbid_trial_division(monkeypatch)
        code, out, err = run_cli(capsys, "factor", "--N", "1000000016000000063", "--seed", "1")
        assert code == 1 and out == "" and "qubits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--N", "1000000016000000064"),
            ("--N", "1000000016000000063", "--max-attempts", "0"),
        ],
    )
    def test_usage_errors_come_before_size_check(self, capsys, monkeypatch, argv):
        self.forbid_trial_division(monkeypatch)
        code, out, err = run_cli(capsys, "factor", *argv)
        assert code == 2 and out == "" and "qubits" not in err


class TestResources:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--L", "6", "--epsilon", "1/4")
        assert code == 0
        assert "qubits, node A" in out and "12" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "resources", "--L", "8", "--format", "json", "--b-constant", "1"
        )
        assert code == 0
        d = json.loads(out)
        assert d["L"] == 8 and d["b_aux"] == 1

    def test_sweep_emits_csv(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--sweep-L", "4:64:4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["L"]) for r in rows] == list(range(4, 65, 4))
        assert all(int(r["classical-bits-distributed"]) == 2 * int(r["L"]) for r in rows)

    @pytest.mark.blas
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--sweep-L", "2:40:2", "--b-constant", "3", "--epsilon", "0.1"),
                "f233c4f1ce52398b3e52c9c7317db6f93b2146be42e5cc9dd238a14a4f12d98b",
            ),
            (
                ("--L", "10", "--format", "json", "--epsilon", "1/100"),
                "2585876dc716fbe46c873e1f58b283d024d3d6ce164a8ebaed88426249f83850",
            ),
            (("--L", "8"), "a200ae92b0df86d5304d7de9f1a16d5a384e71927c28c072f37c912dc35f04d6"),
        ],
    )
    def test_output_is_pinned(self, capsys, argv, digest):
        _, out, _ = run_cli(capsys, "resources", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_requires_L_or_sweep(self, capsys):
        code, _, err = run_cli(capsys, "resources")
        assert code == 2 and "--L" in err

    def test_odd_L_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "resources", "--L", "5")
        assert code == 2

    def test_negative_b_constant_rejected_before_sweep_output(self, capsys):
        code, out, err = run_cli(capsys, "resources", "--sweep-L", "2:6:2", "--b-constant", "-1")
        assert code == 2 and out == "" and "b-constant" in err
