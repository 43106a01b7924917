import json

import pytest

from clara import corpus, taxonomy
from clara.benchmarks import build_taxonomy, make_examples, make_sessions
from clara.cli import main


@pytest.fixture
def workspace(tmp_path):
    tax = build_taxonomy()
    kb = tmp_path / "kb.jsonl"
    taxonomy.save_taxonomy(tax, kb)
    examples = make_examples(tax, 300, seed=7)
    examples_path = tmp_path / "examples.jsonl"
    corpus.save_examples(examples, examples_path)
    sessions = make_sessions(tax, 60, seed=8)
    sessions_path = tmp_path / "sessions.jsonl"
    corpus.save_sessions(sessions, sessions_path)
    return tmp_path, kb, examples_path, sessions_path


def run(args):
    return main([str(a) for a in args])


SESSION = json.dumps({"id": "s1", "turns": ["where is my parcel"]})
PREDICTION = json.dumps({"session_id": "s1", "intent_id": "I011"})
REPLAY = json.dumps({"completed_flow": True, "transferred": False, "bad_rating": False})
PSEUDO = {
    "session": {"id": "s1", "turns": ["hi"], "history_intents": None, "gold_intent": None},
    "intent_id": "I011",
    "template": "base",
    "k": 2,
    "runs": [],
    "consistent": True,
}
KB_RECORD = {"id": "I1", "title": "Track", "category": ["Orders"], "rep_query": "where"}
EXAMPLE = json.dumps({"query": "where is my parcel", "intent_id": "I011"})

STATS = ["corpus", "stats", "--kb", "{kb}", "--examples", "{examples}", "--sessions", "{bad}"]
EVAL = ["eval", "--predictions", "{bad}", "--sessions", "{sessions}"]
MOCK = ["pseudo-label", "--kb", "{kb}", "--examples", "{examples}", "--sessions", "{sessions}"]
MOCK += ["--backend", "mock", "--mock-rules", "{bad}", "-o", "{out}"]
SYNTH = ["corpus", "synth", "--examples", "{examples}", "--transitions", "{bad}", "-n", "3"]
SYNTH += ["-o", "{out}"]
CONFIG = ["--config", "{bad}", "taxonomy", "validate", "{kb}"]

# (id, argv with "{bad}" for the malformed file, its content, "line N" expected or None)
MALFORMED = [
    ("array", STATS, f"{SESSION}\n\n[1, 2]\n", "line 3"),
    ("null", STATS, f"{SESSION}\n\nnull\n", "line 3"),
    ("turns-is-a-string", STATS, f'{SESSION}\n\n{{"id": "s9", "turns": "hello there"}}\n', "line 3"),
    ("turn-not-a-string", STATS, f'{SESSION}\n\n{{"id": "s9", "turns": ["hi", 3]}}\n', "line 3"),
    ("predictions-bad-json", EVAL, f"{PREDICTION}\n{{not json\n", "line 2"),
    ("predictions-array", EVAL, f"{PREDICTION}\n[1,2]\n", "line 2"),
    ("predictions-no-intent", EVAL, f'{PREDICTION}\n{{"session_id": "s2"}}\n', "line 2"),
    ("replay-bad-json", ["eval", "--replay", "{bad}"], f"{REPLAY}\n{{not json\n", "line 2"),
    (
        "replay-no-completed-flow",
        ["eval", "--replay", "{bad}"],
        f'{REPLAY}\n{{"transferred": false, "bad_rating": false}}\n',
        "line 2",
    ),
    ("config-bad-json", CONFIG, "{bad", "line 1"),
    ("config-not-an-object", CONFIG, "[1]", None),
    ("mock-rules-bad-json", MOCK, '{"rules": []\n{bad', "line 2"),
    ("mock-rule-no-contains", MOCK, '{"rules": [{"response": "Track Package"}]}', None),
    ("transitions-bad-json", SYNTH, "{bad", "line 1"),
    (
        "transitions-length-dist-not-an-object",
        SYNTH,
        json.dumps(
            {"states": ["I011"], "start_dist": [1.0], "trans": [[1.0]], "length_dist": [["2", 1.0]]}
        ),
        None,
    ),
    (
        "chat-log-sequence-is-a-string",
        ["corpus", "transitions", "--logs", "{bad}", "-o", "{out}"],
        '{"intent_sequence": ["I011"]}\n{"intent_sequence": "I011"}\n',
        "line 2",
    ),
    (
        "pseudo-turns-is-a-string",
        ["train", "--kb", "{kb}", "--pseudo", "{bad}", "-o", "{out}", "--epochs", "1"],
        json.dumps(PSEUDO)
        + "\n"
        + json.dumps({**PSEUDO, "session": {**PSEUDO["session"], "turns": "hello there"}}),
        "line 2",
    ),
    (
        "pseudo-unknown-intent",
        ["train", "--kb", "{kb}", "--pseudo", "{bad}", "-o", "{out}", "--epochs", "1"],
        json.dumps(PSEUDO) + "\n" + json.dumps({**PSEUDO, "intent_id": "nope"}),
        "line 2",
    ),
    (
        "pseudo-intent-id-is-a-list",
        ["train", "--kb", "{kb}", "--pseudo", "{bad}", "-o", "{out}", "--epochs", "1"],
        json.dumps(PSEUDO) + "\n" + json.dumps({**PSEUDO, "intent_id": ["I011"]}),
        "line 2",
    ),
    (
        "kb-compressed-not-a-string",
        ["taxonomy", "validate", "{bad}"],
        json.dumps(KB_RECORD) + "\n" + json.dumps({**KB_RECORD, "id": "I2", "compressed": 5}),
        "line 2",
    ),
    (
        "examples-empty-query",
        ["train", "--kb", "{kb}", "--examples", "{bad}", "-o", "{out}", "--epochs", "1"],
        f'{EXAMPLE}\n{{"query": "", "intent_id": "I011"}}\n',
        "line 2",
    ),
]

# (id, argv with "{bad}" for the file, its content): a field of the wrong type
MISTYPED = [
    ("config-llm-not-an-object", CONFIG, '{"llm": 5}'),
    ("config-llm-endpoint", CONFIG, '{"llm": {"endpoint": 5}}'),
    ("config-llm-model", CONFIG, '{"llm": {"endpoint": "http://localhost:1", "model": ["m"]}}'),
    ("config-llm-api-key", CONFIG, '{"llm": {"api_key": 5}}'),
    ("config-mock-rules", CONFIG, '{"mock_rules": 5}'),
    ("mock-rules-default", MOCK, '{"rules": [], "default": 5}'),
    ("mock-rule-contains", MOCK, '{"rules": [{"contains": 5, "response": "Track Package"}]}'),
    ("mock-rule-response", MOCK, '{"rules": [{"contains": "", "response": 5}]}'),
]


class TestTaxonomyCommands:
    def test_validate_ok(self, workspace, capsys):
        _, kb, _, _ = workspace
        assert run(["taxonomy", "validate", kb]) == 0
        assert "24" in capsys.readouterr().out

    def test_validate_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        assert run(["taxonomy", "validate", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_compress(self, workspace):
        tmp_path, kb, _, _ = workspace
        out = tmp_path / "compressed.jsonl"
        report = tmp_path / "report.json"
        assert run(["taxonomy", "compress", kb, "-o", out, "--report", report]) == 0
        updated = taxonomy.load_taxonomy(out)
        labels = [i.compressed_label for i in updated.intents]
        assert all(labels)
        assert len(set(labels)) == len(labels)
        assert json.loads(report.read_text())["entries"]


class TestCorpusCommands:
    def test_stats(self, workspace, capsys):
        _, kb, examples_path, sessions_path = workspace
        code = run(
            ["corpus", "stats", "--kb", kb, "--examples", examples_path, "--sessions", sessions_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "en" in out and "300" in out

    def test_transitions_and_synth(self, workspace):
        tmp_path, kb, examples_path, _ = workspace
        logs = tmp_path / "logs.jsonl"
        tax = taxonomy.load_taxonomy(kb)
        ids = [i.id for i in tax.intents][:4]
        corpus.save_chat_logs([[ids[0], ids[1]], [ids[0], ids[2]], [ids[1], ids[3]]], logs)
        tm_path = tmp_path / "tm.json"
        assert run(["corpus", "transitions", "--logs", logs, "--kb", kb, "-o", tm_path]) == 0

        out = tmp_path / "synth.jsonl"
        code = run(
            [
                "--seed", 3,
                "corpus", "synth",
                "--examples", examples_path,
                "--transitions", tm_path,
                "-n", 25,
                "-o", out,
            ]
        )
        assert code == 0
        sessions = corpus.load_sessions(out)
        assert len(sessions) == 25
        assert all(s.gold_intent for s in sessions)


    @pytest.mark.parametrize(
        "argv, content, where",
        [row[1:] for row in MALFORMED],
        ids=[row[0] for row in MALFORMED],
    )
    def test_malformed_session_names_its_line(self, workspace, capsys, argv, content, where):
        """Every input file: a malformed record exits 2, naming its line where it has one."""
        tmp_path, kb, examples_path, sessions_path = workspace
        bad = tmp_path / "bad-input"
        bad.write_text(content, encoding="utf-8")
        paths = {"kb": kb, "examples": examples_path, "sessions": sessions_path, "bad": bad}
        paths["out"] = tmp_path / "out"
        code = run([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ")
        if where is not None:
            assert where in err

    @pytest.mark.parametrize(
        "argv, content", [row[1:] for row in MISTYPED], ids=[row[0] for row in MISTYPED]
    )
    def test_mistyped_field_names_its_file(self, workspace, capsys, argv, content):
        """A well-formed --config or --mock-rules file with a wrong field type exits 2."""
        tmp_path, kb, examples_path, sessions_path = workspace
        bad = tmp_path / "bad-input"
        bad.write_text(content, encoding="utf-8")
        paths = {"kb": kb, "examples": examples_path, "sessions": sessions_path, "bad": bad}
        paths["out"] = tmp_path / "out"
        code = run([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("argv", [CONFIG, STATS], ids=["config", "sessions"])
    def test_bad_json_names_its_file(self, workspace, capsys, argv):
        tmp_path, kb, examples_path, sessions_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text("{bad\n", encoding="utf-8")
        paths = {"kb": kb, "examples": examples_path, "sessions": sessions_path, "bad": bad}
        code = run([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {bad}: line 1: invalid JSON")


class TestPipelineCommands:
    def test_train_unknown_intent_names_its_line(self, workspace, capsys):
        tmp_path, kb, _, _ = workspace
        examples_path = tmp_path / "bad-examples.jsonl"
        known = taxonomy.load_taxonomy(kb).intents[0].id
        examples_path.write_text(
            json.dumps({"query": "cancel it", "intent_id": known})
            + "\n"
            + json.dumps({"query": "do the thing", "intent_id": "nope"})
            + "\n",
            encoding="utf-8",
        )
        code = run(["train", "--kb", kb, "--examples", examples_path, "-o", tmp_path / "m.npz"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'nope'" in err

    def test_pseudo_label_worker_determinism(self, workspace):
        tmp_path, kb, examples_path, sessions_path = workspace
        outputs = {}
        for workers in (1, 4):
            out = tmp_path / f"pseudo-{workers}.jsonl"
            stats = tmp_path / f"stats-{workers}.json"
            code = run(
                [
                    "--seed", 7,
                    "--workers", workers,
                    "pseudo-label",
                    "--kb", kb,
                    "--examples", examples_path,
                    "--sessions", sessions_path,
                    "--backend", "oracle",
                    "--ordering-sensitivity", 0.2,
                    "--template", "formatted",
                    "--k", 4,
                    "-o", out,
                    "--stats", stats,
                ]
            )
            assert code == 0
            outputs[workers] = (out.read_bytes(), stats.read_bytes())
        assert outputs[1] == outputs[4]

    def test_train_predict_eval_flow(self, workspace, capsys):
        tmp_path, kb, examples_path, sessions_path = workspace
        pseudo = tmp_path / "pseudo.jsonl"
        assert (
            run(
                [
                    "--seed", 7,
                    "pseudo-label",
                    "--kb", kb,
                    "--examples", examples_path,
                    "--sessions", sessions_path,
                    "--backend", "oracle",
                    "--template", "base",
                    "--k", 4,
                    "-o", pseudo,
                ]
            )
            == 0
        )

        model = tmp_path / "model.npz"
        assert (
            run(
                [
                    "--seed", 7,
                    "train",
                    "--kb", kb,
                    "--examples", examples_path,
                    "--pseudo", pseudo,
                    "--epochs", 4,
                    "-o", model,
                ]
            )
            == 0
        )
        assert model.exists()

        predictions = tmp_path / "preds.jsonl"
        assert (
            run(
                [
                    "predict",
                    "--kb", kb,
                    "--model", model,
                    "--sessions", sessions_path,
                    "--strategy", "naive_concat",
                    "-o", predictions,
                ]
            )
            == 0
        )

        capsys.readouterr()
        assert run(["eval", "--predictions", predictions, "--sessions", sessions_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")

    def test_train_determinism(self, workspace):
        tmp_path, kb, examples_path, _ = workspace
        blobs = []
        for name in ("m1.npz", "m2.npz"):
            model = tmp_path / name
            assert (
                run(
                    [
                        "--seed", 13,
                        "train",
                        "--kb", kb,
                        "--examples", examples_path,
                        "--epochs", 3,
                        "-o", model,
                    ]
                )
                == 0
            )
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1]

    def test_mock_backend_from_rules_file(self, workspace):
        tmp_path, kb, examples_path, sessions_path = workspace
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [], "default": "Track Package"}), encoding="utf-8")
        out = tmp_path / "pseudo-mock.jsonl"
        code = run(
            [
                "pseudo-label",
                "--kb", kb,
                "--examples", examples_path,
                "--sessions", sessions_path,
                "--backend", "mock",
                "--mock-rules", rules,
                "--k", 2,
                "-o", out,
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records
        assert all(r["intent_id"] == "I011" for r in records)  # Track Package


class TestEvalReplay:
    def test_replay_metrics(self, tmp_path, capsys):
        replay = tmp_path / "replay.jsonl"
        rows = [
            {"completed_flow": True, "transferred": False, "bad_rating": False, "rating": "good"},
            {"completed_flow": True, "transferred": True, "bad_rating": False, "rating": "bad"},
            {"completed_flow": False, "transferred": False, "bad_rating": False},
            {"completed_flow": True, "transferred": False, "bad_rating": False, "rating": "good"},
        ]
        replay.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        assert run(["eval", "--replay", replay]) == 0
        out = capsys.readouterr().out
        assert "resolution_rate 0.5000" in out
        assert "scsat 0.6667" in out


class TestAblateCommand:
    def test_single_variant_report(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "templates": ["base"],
                    "consistency": [True],
                    "modes": ["n_word"],
                    "k": 3,
                    "ordering_sensitivity": 0.1,
                    "n_train": 120,
                    "n_sessions": 60,
                }
            ),
            encoding="utf-8",
        )
        md = tmp_path / "report.md"
        csv_path = tmp_path / "report.csv"
        code = run(["--config", config, "--seed", 7, "ablate", "-o", md, "--csv", csv_path])
        assert code == 0
        assert md.read_text().count("\n") == 3  # header, rule, one row
        assert csv_path.exists()


def test_eval_requires_inputs(capsys):
    assert run(["eval"]) == 2
    assert "error" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert run(["taxonomy", "validate", missing]) == 1
    assert "unexpected error" in capsys.readouterr().err
