import json
import time

import pytest

from dccsim import cli, noise, protocol
from dccsim.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from dccsim.protocol import ProtocolConfig, family15, run_trial


def run(argv):
    return main(argv)


class TestBuildVerify:
    @pytest.mark.parametrize("stage", ["doubled", "gadget", "final"])
    def test_t1_roundtrip(self, tmp_path, stage, capsys):
        out = tmp_path / "code.json"
        assert run(["build", "--t", "1", "--stage", stage, "--out", str(out)]) == EXIT_OK
        assert run(["verify", str(out)]) == EXIT_OK
        report = capsys.readouterr().out
        assert "cleanable cosets = 996" in report if stage in ("doubled", "final") else True

    def test_t2_final_counts(self, tmp_path):
        out = tmp_path / "t2.json"
        assert run(["build", "--t", "2", "--stage", "final", "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["n"] == 59
        assert obj["qubit_counts"] == {"doubled": 53, "gadget": 59, "local": 61, "final": 59}

    def test_t2_doubled_is_53(self, tmp_path):
        out = tmp_path / "t2d.json"
        assert run(["build", "--t", "2", "--stage", "doubled", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["n"] == 53

    def test_tampered_file_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(["build", "--t", "1", "--stage", "final", "--out", str(out)])
        obj = json.loads(out.read_text())
        # Flip one bit of one generator's support.
        gen = obj["generators"][0]
        if 0 in gen["support"]:
            gen["support"].remove(0)
        else:
            gen["support"].append(0)
        out.write_text(json.dumps(obj))
        assert run(["verify", str(out)]) == EXIT_VERIFY

    def test_heavy_generator_fails_locality(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(["build", "--t", "1", "--stage", "final", "--out", str(out)])
        obj = json.loads(out.read_text())
        supports = [set(g["support"]) for g in obj["generators"]]
        first, second = next(
            (a, b) for a in supports for b in supports if not a & b and len(a | b) > 6
        )
        # The XOR of two generators leaves the span unchanged.
        obj["generators"].append({"kind": "face_a", "level": 1, "support": sorted(first | second)})
        out.write_text(json.dumps(obj))
        assert run(["verify", str(out)]) == EXIT_VERIFY
        report = capsys.readouterr().out
        assert "PASS  generator list spans the dot space" in report
        assert "FAIL  every generator has weight <= 6" in report

    def test_t2_verify_with_budget(self, tmp_path, capsys):
        out = tmp_path / "t2.json"
        run(["build", "--t", "2", "--stage", "final", "--out", str(out)])
        assert run(["verify", str(out), "--distance-budget", "3"]) == EXIT_OK
        report = capsys.readouterr().out
        assert "exceeds budget 3" in report

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        run(["build", "--t", "1", "--stage", "final", "--out", str(out)])
        capsys.readouterr()
        assert run(["verify", str(out), "--distance-budget", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--distance-budget" in captured.err
        assert "PASS" not in captured.out

    def test_code_json_without_witness(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(["build", "--t", "1", "--stage", "final", "--out", str(out)])
        obj = json.loads(out.read_text())
        del obj["witness"]
        out.write_text(json.dumps(obj))
        assert run(["verify", str(out)]) == EXIT_USAGE
        assert "is not a code JSON: KeyError 'witness'" in capsys.readouterr().err

    def test_unsupported_t(self, tmp_path):
        assert run(["build", "--t", "9", "--out", str(tmp_path / "x.json")]) == EXIT_USAGE

    def test_capacity_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        # CapacityError is a ValueError; it must not fall into the usage branch.
        out = tmp_path / "code.json"
        assert run(["build", "--t", "1", "--stage", "final", "--out", str(out)]) == EXIT_OK
        monkeypatch.setattr("dccsim.csscode.CLEANABILITY_QUBIT_LIMIT", 14)
        assert run(["verify", str(out)]) == EXIT_CAPACITY
        assert "capacity:" in capsys.readouterr().err

    def test_distance_budget_above_join_limit_exits_3(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t2.json"
        assert run(["build", "--t", "2", "--stage", "final", "--out", str(out)]) == EXIT_OK
        monkeypatch.setattr("dccsim.f2.JOIN_SUM_LIMIT", 58)  # budget 3 keeps all 59 columns
        assert run(["verify", str(out), "--distance-budget", "3"]) == EXIT_CAPACITY
        assert "capacity: a distance budget of 3 at n = 59" in capsys.readouterr().err

    def test_t4_budget_9_exits_3_without_searching(self, tmp_path, capsys):
        # Budget 9 at n = 279 would keep C(279, 4), about 2.5e8 column sums.
        out = tmp_path / "t4.json"
        assert run(["build", "--t", "4", "--stage", "final", "--out", str(out)]) == EXIT_OK
        start = time.perf_counter()
        assert run(["verify", str(out), "--distance-budget", "9"]) == EXIT_CAPACITY
        assert time.perf_counter() - start < 30
        assert "capacity: a distance budget of 9 at n = 279" in capsys.readouterr().err

    def test_t2_gadget_roundtrip(self, tmp_path):
        out = tmp_path / "t2g.json"
        assert run(["build", "--t", "2", "--stage", "gadget", "--out", str(out)]) == EXIT_OK
        assert run(["verify", str(out)]) == EXIT_OK

    @pytest.mark.slow
    def test_t3_final_roundtrip(self, tmp_path):
        out = tmp_path / "t3.json"
        assert run(["build", "--t", "3", "--stage", "final", "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        assert obj["n"] == 2 * 27 + 8 * 9 + 6 * 3 - 1
        assert run(["verify", str(out)]) == EXIT_OK


class TestSimulate:
    def test_noiseless_upper_bound(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run([
            "simulate", "--p", "0", "--trials", "3", "--max-gates", "50",
            "--decoder", "sparse", "--seed", "9", "--threads", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        text = out.read_text().splitlines()
        assert text[0].startswith("# dccsim")
        assert "p_L" in text[1]
        row = text[2].split(",")
        assert row[0] == "0.0" or row[0] == "0"
        printed = capsys.readouterr().out
        assert "config:" in printed and "seed" in printed

    def test_deterministic_csv(self, tmp_path):
        args = [
            "simulate", "--p", "0.02", "--trials", "4", "--max-gates", "100",
            "--decoder", "sparse", "--seed", "5", "--threads", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        # Drop the wall-clock column before comparing.
        a_rows = [l.rsplit(",", 1)[0] for l in a.read_text().splitlines()[2:]]
        b_rows = [l.rsplit(",", 1)[0] for l in b.read_text().splitlines()[2:]]
        assert a_rows == b_rows

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCC_SEED", "777")
        out = tmp_path / "env.csv"
        run(["simulate", "--p", "0", "--trials", "1", "--max-gates", "10",
             "--threads", "1", "--out", str(out)])
        assert "777" in out.read_text().splitlines()[0]

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCC_SEED", "abc")
        assert run(["simulate", "--p", "0", "--trials", "1", "--max-gates", "10",
                    "--threads", "1", "--out", str(tmp_path / "env.csv")]) == EXIT_USAGE
        assert "DCC_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, env", [
        pytest.param(["simulate", "--p", "0", "--seed", "-1"], None, id="simulate-flag"),
        pytest.param(["sweep", "--p-list", "0,0.01", "--seed", "-1"], None, id="sweep-flag"),
        pytest.param(["simulate", "--p", "0"], "-3", id="simulate-env"),
    ])
    def test_negative_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, env):
        if env is not None:
            monkeypatch.setenv("DCC_SEED", env)
        out = tmp_path / "run.csv"
        assert run(argv + ["--trials", "1", "--max-gates", "2", "--threads", "1",
                           "--out", str(out)]) == EXIT_USAGE
        printed = capsys.readouterr()
        assert "usage error: seed must be at least 0" in printed.err
        assert "config:" not in printed.out
        assert not out.exists()

    def test_rejects_bad_p(self):
        assert run(["simulate", "--p", "1.5", "--trials", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        pytest.param(["--max-gates", "0"], id="max-gates-0"),
        pytest.param(["--eps", "-1"], id="eps-negative"),
        pytest.param(["--eps", "1.5"], id="eps-above-one"),
        pytest.param(["--threads", "-1"], id="threads-negative"),
    ])
    def test_rejects_out_of_range_settings(self, flags):
        assert run(["simulate", "--p", "0", "--trials", "1", "--max-gates", "2",
                    "--threads", "1", *flags]) == EXIT_USAGE

    @pytest.mark.parametrize("p, noted", [(0.06, True), (0.05, False)])
    def test_sparse_high_p_note(self, tmp_path, capsys, p, noted):
        assert run(["simulate", "--p", str(p), "--trials", "1", "--max-gates", "1",
                    "--decoder", "sparse", "--threads", "1",
                    "--out", str(tmp_path / "run.csv")]) == EXIT_OK
        err = capsys.readouterr().err
        assert ("--decoder exact" in err) == noted
        assert err.count("note:") == noted

    def test_csv_counts_every_trial(self, tmp_path):
        out = tmp_path / "run.csv"
        run(["simulate", "--p", "0", "--trials", "2", "--max-gates", "5",
             "--seed", "1", "--threads", "1", "--out", str(out)])
        header, row = out.read_text().splitlines()[1:]
        fields = dict(zip(header.split(","), row.split(",")))
        assert header.endswith(",n_retry_limit,p_L_geometric,wall_seconds")
        assert fields["n_retry_limit"] == "0"
        assert fields["p_L_geometric"] == "0"

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--p", "0.01"], id="simulate"),
        pytest.param(["sweep", "--p-list", "0.01,0.02"], id="sweep"),
    ])
    def test_unwritable_out_runs_no_trial(self, tmp_path, monkeypatch, argv):
        def no_trials(config):
            raise AssertionError("trials ran before --out was opened")

        monkeypatch.setattr(cli, "estimate_pl", no_trials)
        out = str(tmp_path / "missing" / "x.csv")
        assert run(argv + ["--trials", "20", "--threads", "1", "--out", out]) == EXIT_USAGE

    def test_degenerate_posterior_exits_3(self, capsys):
        # Weight-15 errors at p = 1 lie outside the sparse engine's
        # weight <= 1 memory kernel, so its posterior vanishes.
        code = run(["simulate", "--p", "1", "--decoder", "sparse", "--trials", "2",
                    "--max-gates", "3", "--threads", "1"])
        assert code == EXIT_CAPACITY
        assert "sparse decoder" in capsys.readouterr().err


class TestSweep:
    def test_two_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run([
            "sweep", "--p-list", "0.0,0.0", "--trials", "2", "--max-gates", "20",
            "--decoder", "sparse", "--seed", "3", "--threads", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # comment, header, two rows

    def test_comment_line_reruns_every_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--p-list", "0.0,0.01", "--trials", "1", "--max-gates", "5",
            "--eps", "1e-5", "--decoder", "exact", "--seed", "3", "--threads", "1",
            "--out", str(out),
        ]) == EXIT_OK
        comment, header, *rows = out.read_text().splitlines()
        assert comment.startswith("# dccsim ")
        config_text, hashes = comment.split(" config=", 1)[1].split(" config_hash=")
        shared = json.loads(config_text)
        assert shared["max_gates"] == 5 and shared["decoder"] == "exact"
        assert {"p", "threads"}.isdisjoint(shared)
        ps = [dict(zip(header.split(","), row.split(",")))["p"] for row in rows]
        rebuilt = [ProtocolConfig(p=float(p), **shared).hash() for p in ps]
        assert rebuilt == hashes.split(",")
        assert len(set(rebuilt)) == 2

    def test_empty_list_usage_error(self):
        assert run(["sweep", "--p-list", ",", "--trials", "1"]) == EXIT_USAGE


class TestDecodeTrace:
    def test_scripted_stream(self, tmp_path):
        events = tmp_path / "events.jsonl"
        stream = [
            {"type": "deform", "to": "base"},
            {"type": "deform", "to": "c"},
            {"type": "memory"},
            {"type": "syndrome", "bits": [0] * 14, "q": 0.01},
            {"type": "clifford", "action": 1},
            {"type": "deform", "to": "base"},
            {"type": "deform", "to": "t"},
            {"type": "memory"},
            {"type": "syndrome", "bits": [0] * 9, "q": 0.01},
            {"type": "recovery"},
            {"type": "T"},
            {"type": "truncate", "eps": 1e-6},
        ]
        events.write_text("\n".join(json.dumps(e) for e in stream) + "\n")
        out = tmp_path / "trace.jsonl"
        code = run([
            "decode-trace", "--events", str(events), "--p", "0.01",
            "--decoder", "sparse", "--out", str(out),
        ])
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == len(stream)
        assert records[-1]["argmax"] == 0
        assert all("entropy" in r for r in records)

    @pytest.mark.parametrize("decoder", ["exact", "sparse"])
    def test_memory_at_base_matches_memory_after_split(self, tmp_path, decoder):
        # Spread the posterior first, so the memory update has work to do.
        prefix = [{"type": "memory"}, {"type": "syndrome", "bits": [1] + [0] * 8, "q": 0.05}]
        memory = {"type": "memory"}
        to_base, to_c = {"type": "deform", "to": "base"}, {"type": "deform", "to": "c"}
        last = []
        for order in ([to_base, memory, to_c], [to_base, to_c, memory]):
            events, out = tmp_path / "events.jsonl", tmp_path / "out.jsonl"
            events.write_text("".join(json.dumps(e) + "\n" for e in prefix + order))
            assert run(["decode-trace", "--events", str(events), "--p", "0.02",
                        "--decoder", decoder, "--out", str(out)]) == EXIT_OK
            last.append(json.loads(out.read_text().splitlines()[-1]))
        first, second = last
        assert first["stage"] == second["stage"] == "c"
        assert first["argmax"] == second["argmax"]
        assert first["support"] == second["support"] > 1
        assert first["entropy"] == pytest.approx(second["entropy"], abs=1e-9)

    @pytest.mark.parametrize("decoder", ["exact", "sparse"])
    def test_replays_simulated_trials(self, tmp_path, monkeypatch, decoder):
        """Simulated trials written out as events and replayed through
        decode-trace reach the decoder state the protocol observed after
        every round. A round is a merge to the base code, memory, then the
        split, noisy syndrome and truncation that measure fuses."""
        config = ProtocolConfig(p=0.02, trials=3, max_gates=20, decoder=decoder, seed=4)
        fam = family15()
        events, observed, measured = [], [], []

        def flip(q, bits, width, rng):
            measured.append(noise.flip_syndrome(q, bits, width, rng))
            return measured[-1]

        def clifford(rng):
            action = noise.sample_clifford(rng)
            events.append({"type": "clifford", "action": noise.CLIFFORD_CLASSES.index(action)})
            return action

        def t_gate(frame, prop, rng):
            events.extend([{"type": "recovery"}, {"type": "T"}])
            noise.propagate_through_t(frame, prop, rng)

        def observer(kind, stage, rho, frame):
            width = fam.syndromes[stage.name].width
            events.extend([
                {"type": "deform", "to": "base"},
                {"type": "memory"},
                {"type": "deform", "to": stage.name},
                {"type": "syndrome", "bits": [(measured[-1] >> i) & 1 for i in range(width)],
                 "q": config.p},
                {"type": "truncate", "eps": config.eps},
            ])
            observed.append((len(events), stage.name, rho.final_coset(), rho.support_size()))

        monkeypatch.setattr(protocol, "flip_syndrome", flip)
        monkeypatch.setattr(protocol, "sample_clifford", clifford)
        monkeypatch.setattr(protocol, "propagate_through_t", t_gate)
        rounds = 0
        for i in range(config.trials):
            events.clear()
            observed.clear()
            rounds += run_trial(config, i, observer).rounds
            path, out = tmp_path / "events.jsonl", tmp_path / "trace.jsonl"
            path.write_text("".join(json.dumps(e) + "\n" for e in events))
            assert run(["decode-trace", "--events", str(path), "--p", str(config.p),
                        "--decoder", decoder, "--out", str(out)]) == EXIT_OK
            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert len(records) == len(events)
            for step, stage, argmax, support in observed:
                record = records[step - 1]
                assert record["type"] == "truncate"
                assert (record["stage"], record["argmax"], record["support"]) == (stage, argmax, support)
        assert rounds >= 20

    def test_unknown_event(self, tmp_path):
        events = tmp_path / "bad.jsonl"
        events.write_text('{"type": "warp"}\n')
        assert run(["decode-trace", "--events", str(events)]) == EXIT_USAGE

    def test_usage_error_on_unknown_flag(self):
        assert run(["simulate", "--p", "0.1", "--bogus"]) == EXIT_USAGE

    TO_C = [{"type": "deform", "to": "base"}, {"type": "deform", "to": "c"}]

    @pytest.mark.parametrize("events, flags", [
        pytest.param(["[1, 2]"], [], id="not-an-object"),
        pytest.param([{"to": "base"}], [], id="no-type"),
        pytest.param([{"type": "deform", "to": "x"}], [], id="unknown-target"),
        pytest.param([{"type": "deform", "to": "t"}], [], id="deform-to-current-stage"),
        pytest.param(TO_C + [{"type": "clifford", "action": 6}], [], id="clifford-index-6"),
        pytest.param(TO_C + [{"type": "clifford", "action": -1}], [], id="clifford-index-negative"),
        pytest.param([{"type": "syndrome", "bits": [0] * 40}], [], id="bits-overflow"),
        pytest.param([{"type": "syndrome", "bits": [0] * 10}], [], id="bits-above-width"),
        pytest.param([{"type": "syndrome", "bits": [0] * 8}], [], id="bits-below-width"),
        pytest.param([{"type": "syndrome", "bits": [0] * 9, "q": 1.5}], [], id="q-above-one"),
        pytest.param([{"type": "memory"}], ["--p", "2"], id="p-above-one"),
        pytest.param(TO_C[:1] + [{"type": "syndrome", "bits": [0] * 9}], ["--decoder", "sparse"],
                     id="syndrome-at-base"),
        # JSON true and false are not the numbers 1 and 0.
        pytest.param(TO_C + [{"type": "clifford", "action": True}], [], id="clifford-index-true"),
        pytest.param([{"type": "syndrome", "bits": [True] + [0] * 8}], [], id="bits-true"),
        pytest.param([{"type": "syndrome", "bits": [0] * 9, "q": True}], [], id="q-true"),
        pytest.param([{"type": "truncate", "eps": False}], [], id="eps-false"),
        pytest.param([{"type": "memory"}, "{type: memory}"], [], id="not-json"),
        pytest.param([{"type": "clifford", "action": 1}], [], id="clifford-at-t"),
        pytest.param(TO_C + [{"type": "T"}], [], id="t-at-c"),
        pytest.param([{"type": ["T"]}], [], id="type-not-a-string"),
    ])
    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys, events, flags):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(e if isinstance(e, str) else json.dumps(e) for e in events) + "\n")
        code = run(["decode-trace", "--events", str(path), "--out", str(tmp_path / "out.jsonl")] + flags)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error:" in err
        if "--p" not in flags:  # otherwise the last event is at fault, and named
            assert f"usage error: line {len(events)}:" in err


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        pytest.param(["decode-trace", "--events", "{dir}/missing.jsonl"], id="missing-events"),
        pytest.param(["verify", "{dir}/missing.json"], id="missing-code"),
        pytest.param(["build", "--t", "1", "--out", "{dir}/no/such/dir.json"], id="unwritable-out"),
        pytest.param(["verify", "{dir}/empty.json"], id="code-json-without-keys"),
        pytest.param(["verify", "{dir}/list.json"], id="code-json-not-an-object"),
    ])
    def test_exit_4(self, tmp_path, capsys, argv):
        (tmp_path / "empty.json").write_text("{}\n")
        (tmp_path / "list.json").write_text("[]\n")
        assert run([a.format(dir=tmp_path) for a in argv]) == EXIT_USAGE
        assert "usage error:" in capsys.readouterr().err
