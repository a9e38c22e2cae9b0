import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from asrnoise import cli
from asrnoise import corpus as C
from asrnoise import synthetic, training
from asrnoise.errors import ConfigParseError, UnknownConfigKeyError
from asrnoise.model import Model, ModelConfig

from oracles import loss_terms


def _header_hash(path):
    return path.read_text().splitlines()[0].rsplit("config-hash: ", 1)[1]


class TestLoadConfig:
    def test_empty_file_gives_pure_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = cli.load_config(path)
        assert config == cli.DEFAULTS
        assert config["p_z"] == 0.15

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("p_z = 0.45\nepochs = 3\nphoneme_head = false\n")
        config = cli.load_config(path)
        assert config["p_z"] == 0.45
        assert config["epochs"] == 3
        assert config["phoneme_head"] is False

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("p_z = 0.45\n")
        config = cli.load_config(path, overrides={"p_z": 0.21})
        assert config["p_z"] == 0.21

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 5\n")
        assert cli.load_config(path)["seed"] == 5

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nthis is not a pair\n")
        with pytest.raises(ConfigParseError) as err:
            cli.load_config(path)
        assert err.value.line == 2

    def test_bad_value_names_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigParseError) as err:
            cli.load_config(path)
        assert err.value.line == 1

    def test_repeated_key_names_both_line_numbers(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("epochs = 2\n# a comment\nepochs = 3\n")
        with pytest.raises(ConfigParseError, match="line 3: epochs is already set on line 1") as err:
            cli.load_config(path)
        assert err.value.line == 3
        corpus = tmp_path / "c.tsv"
        corpus.write_text("a b\ta b\n")
        assert cli.main(["vocab", str(corpus), "--out", str(tmp_path / "v.txt"), "--config", str(path)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(UnknownConfigKeyError):
            cli.load_config(path)

    def test_unknown_override_rejected(self):
        with pytest.raises(UnknownConfigKeyError):
            cli.load_config(None, overrides={"warp_speed": 9})

    def test_defaults_are_the_documented_keys_and_values(self):
        # the README's table; ModelConfig/TrainConfig supply twelve of these
        documented = {
            "seed": 0, "p_z": 0.15, "lambda_w": 0.5, "lambda_ph": 0.5, "mode": "sample",
            "temperature": 1.0, "d_model": 32, "n_heads": 4, "vocab_size": 256,
            "max_gen_len": 5, "max_len": 64, "learning_rate": 0.001, "epochs": 20,
            "batch_size": 32, "clip_norm": 5.0, "phoneme_head": True,
        }
        assert cli.DEFAULTS == documented
        # the default's type decides how a config-file value parses
        assert {k: type(v) for k, v in cli.DEFAULTS.items()} == {k: type(v) for k, v in documented.items()}

    def test_hash_is_stable_and_sensitive(self):
        a = cli.load_config(None)
        b = cli.load_config(None, overrides={"seed": 1})
        assert cli.config_hash(a) == cli.config_hash(dict(a))
        assert cli.config_hash(a) != cli.config_hash(b)


def _write_corpus(tmp_path, n_pairs=14, seed=3):
    pairs = synthetic.make_parallel_corpus(n_pairs, seed=seed, min_words=3, max_words=5)
    path = tmp_path / "corpus.tsv"
    C.write_pairs_tsv(path, pairs)
    return path, pairs


#: positional and required arguments of each command
_COMMAND_ARGS = {
    "vocab": ["corpus.tsv", "--out", "vocab.txt"],
    "g2p": ["cue"],
    "align": ["corpus.tsv", "--out", "align.tsv"],
    "train": ["corpus.tsv", "--vocab", "vocab.txt", "--checkpoint", "model.ckpt"],
    "corrupt": ["texts.txt", "--checkpoint", "model.ckpt", "--out", "noised.txt"],
    "eval": ["--ref", "texts.txt", "--hyp", "noised.txt", "--out", "metrics"],
}
#: the config and lexicon flags each command takes (21 in all): ``--config``,
#: a flag per key it reads, and ``--lexicon``/``--inventory`` if it loads a lexicon
_COMMAND_FLAGS = {
    "vocab": {"--config", "--size"},
    "g2p": {"--config", "--lexicon", "--inventory"},
    "align": {"--config", "--lexicon", "--inventory"},
    "train": {"--config", "--seed", "--lambda-w", "--lambda-ph", "--lexicon", "--inventory"},
    "corrupt": {"--config", "--seed", "--p-z", "--mode"},
    "eval": {"--config", "--lexicon", "--inventory"},
}
#: each command's input paths ("input" is the positional one) and output flags
_PATHS = {
    "corrupt": (["--checkpoint", "input", "--config"], ["--out", "--report"]),
    "vocab": (["input", "--config"], ["--out"]),
    "g2p": (["--config", "--lexicon", "--inventory"], ["--out"]),
    "align": (["input", "--config", "--lexicon", "--inventory"], ["--out"]),
    "train": (["input", "--vocab", "--config", "--lexicon", "--inventory"], ["--checkpoint", "--out"]),
    "eval": (["--ref", "--hyp", "--config", "--lexicon", "--inventory"], ["--out"]),
}
#: flag -> (parsed attribute, raw value, parsed value)
_FLAG_VALUES = {
    "--config": ("config", "run.cfg", "run.cfg"),
    "--seed": ("seed", "7", 7),
    "--p-z": ("p_z", "0.3", 0.3),
    "--lambda-w": ("lambda_w", "0.4", 0.4),
    "--lambda-ph": ("lambda_ph", "0.6", 0.6),
    "--mode": ("mode", "greedy", "greedy"),
    "--lexicon": ("lexicon", "lexicon.tsv", "lexicon.tsv"),
    "--inventory": ("inventory", "inventory.tsv", "inventory.tsv"),
    "--size": ("vocab_size", "40", 40),
}


class TestCommands:
    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 1

    def test_missing_input_is_data_error(self, tmp_path):
        rc = cli.main(["vocab", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "v.txt")])
        assert rc == 2

    def test_g2p_prints_codes(self, capsys):
        rc = cli.main(["g2p", "cue", "bestial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cue\tK Y UW" in out

    def test_g2p_reads_each_word_as_align_does(self, tmp_path, capsys):
        assert cli.main(["g2p", "Café", "naïve", "CUE"]) == 0
        assert capsys.readouterr().out.splitlines() == ["cafe\tK AE F EH", "naive\tN AE IH V EH", "cue\tK Y UW"]
        corpus_path, out = tmp_path / "c.tsv", tmp_path / "align.tsv"
        corpus_path.write_text("Café\tcafe\n")
        assert cli.main(["align", str(corpus_path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "0\tcafe\tcafe\tmatch"

    @pytest.mark.parametrize("word", ["x-y", "two words", "!!", ""])
    def test_g2p_word_that_is_not_one_word_once_normalized_is_a_data_error(self, capsys, word):
        assert cli.main(["g2p", "cue", word]) == 2
        captured = capsys.readouterr()
        assert f"g2p argument {word!r}" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_vocab_command_writes_header_and_pieces(self, tmp_path):
        corpus_path, _ = _write_corpus(tmp_path)
        out = tmp_path / "vocab.txt"
        rc = cli.main(["vocab", str(corpus_path), "--out", str(out), "--size", "120"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# produced-by: asrnoise vocab")
        vocab = C.SubwordVocab.load(out)
        assert len(vocab) == 120

    def test_hash_lines_are_corpus_pairs(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("#metoo the cue\tthe queue\nthe gag\tthe gags\n")
        pairs = C.load_pairs_tsv(path)
        assert [(p.id, p.gt, p.asr) for p in pairs] == [
            ("0", "#metoo the cue", "the queue"),
            ("1", "the gag", "the gags"),
        ]
        assert cli.main(["vocab", str(path), "--out", str(tmp_path / "v.txt"), "--size", "40"]) == 0
        # only blank lines and a first-line header are skipped
        path.write_text("# produced-by: asrnoise vocab\n\n#metoo the cue\tthe queue\n \n")
        assert [p.id for p in C.load_pairs_tsv(path)] == ["2"]

    @pytest.mark.parametrize("bad_line", ["!!!\tfoo", "\tfoo"], ids=["punctuation-only", "empty"])
    def test_line_without_ground_truth_words_is_rejected_by_line(self, tmp_path, capsys, bad_line):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"the cue\tthe queue\n\n{bad_line}\nthe gag\tthe gags\n")
        for command in ("align", "vocab"):
            rc = cli.main([command, str(path), "--out", str(tmp_path / f"{command}.out")])
            assert rc == 2
            assert f"{path}: line 3: ground-truth side" in capsys.readouterr().err
        assert not (tmp_path / "align.out").exists()

    def test_third_column_is_rejected_by_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.tsv"
        path.write_text("the cue\tthe queue\nthe queue\tthe cue\textra words\n")
        with pytest.raises(ValueError, match="line 2: expected GT<TAB>ASR"):
            C.load_pairs_tsv(path)
        assert cli.main(["vocab", str(path), "--out", str(tmp_path / "v.txt")]) == 2
        assert f"{path}: line 2: expected GT<TAB>ASR" in capsys.readouterr().err

    def test_align_command_writes_entries(self, tmp_path):
        corpus_path, pairs = _write_corpus(tmp_path)
        out = tmp_path / "align.tsv"
        rc = cli.main(["align", str(corpus_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "sentence_id\tgt_word\tasr_words\tlabel"
        assert len(lines) > 2

    def test_train_divergence_writes_last_good_checkpoint(self, tmp_path, monkeypatch, lexicon):
        corpus_path, pairs = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "120"]) == 0
        original_step = training._Adam.step

        def poisoned_step(self, params, grads):
            original_step(self, params, grads)
            params[:] = np.inf

        monkeypatch.setattr(training._Adam, "step", poisoned_step)
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(
            ["train", str(corpus_path), "--vocab", str(vocab_path), "--checkpoint", str(ckpt), "--seed", "2"]
        )
        assert rc == 2
        assert not ckpt.exists()
        model = training.load_checkpoint(tmp_path / "model.ckpt.last_good")
        alignments = [C.align_pair(p.gt, p.asr, lexicon) for p in pairs]
        items = C.build_training_items(alignments, model.vocab, max_target_len=model.config.max_gen_len)
        l_tot, _, _ = loss_terms(items, model, lexicon)
        assert np.isfinite(float(l_tot.data))

    def test_diverging_loss_exits_2_whatever_the_warning_filter(self, tmp_path, capsys):
        # lambda_ph 1e308 overflows the first batch's loss; numpy's overflow
        # warning, an error under -W error::RuntimeWarning, once ended the run
        # in a traceback with exit 1 and no .last_good
        corpus_path, _ = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "120"]) == 0
        ckpt = tmp_path / "model.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(
                ["train", str(corpus_path), "--vocab", str(vocab_path), "--checkpoint", str(ckpt),
                 "--lambda-ph", "1e308"]
            )
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert rc == 2
        err = capsys.readouterr().err
        assert "loss diverged" in err and "RuntimeWarning" not in err
        assert not ckpt.exists()
        model = training.load_checkpoint(tmp_path / "model.ckpt.last_good")
        assert all(np.all(np.isfinite(a)) for a in model.params.values())

    def test_train_last_good_naming_an_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # the .last_good a diverging run writes once replaced this vocabulary
        # with a checkpoint
        monkeypatch.chdir(tmp_path)
        corpus_path, _ = _write_corpus(tmp_path)
        assert cli.main(["vocab", "corpus.tsv", "--out", "m.last_good", "--size", "120"]) == 0
        vocab = (tmp_path / "m.last_good").read_bytes()
        capsys.readouterr()

        def no_work(*args):
            raise AssertionError("read the corpus before checking the outputs")

        monkeypatch.setattr(cli.corpus_mod, "load_pairs_tsv", no_work)
        rc = cli.main(["train", "corpus.tsv", "--vocab", "m.last_good", "--checkpoint", "m", "--lambda-ph", "1e308"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "asrnoise: usage error: --checkpoint m would overwrite --vocab m.last_good"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.tsv", "m.last_good"]
        assert (tmp_path / "m.last_good").read_bytes() == vocab

    def test_train_rejects_an_over_long_line_by_number_before_aligning(self, tmp_path, capsys, monkeypatch):
        corpus_path = tmp_path / "corpus.tsv"
        long_gt, long_asr = " ".join(["cat"] * 80), " ".join(["cap"] * 80)
        corpus_path.write_text(f"the cat\tthe cap\na cap\ta cat\n{long_gt}\t{long_asr}\nthe cap\tthe cat\n")
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "40"]) == 0
        capsys.readouterr()

        def no_alignment(*args):
            raise AssertionError("aligned before the length check")

        monkeypatch.setattr(C, "align_pair", no_alignment)
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(["train", str(corpus_path), "--vocab", str(vocab_path), "--checkpoint", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {corpus_path}: line 3: 80 tokens exceed max_len=64" in err
        assert not ckpt.exists()

    def test_config_parse_error_exit_code(self, tmp_path):
        corpus_path, _ = _write_corpus(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope\n")
        rc = cli.main(
            ["vocab", str(corpus_path), "--out", str(tmp_path / "v.txt"), "--config", str(cfg)]
        )
        assert rc == 1


    @pytest.mark.parametrize(
        "bad",
        ["n_heads = 3\n", "epochs = 0\n", "lambda_w = 1.5\n", "lambda_ph = nan\n",
         "learning_rate = nan\n", "clip_norm = nan\n", "n_heads = 0\n", "d_model = 8\nn_heads = -4\n",
         "max_len = 3\n", "max_gen_len = 65\n"],
    )
    def test_invalid_config_value_is_usage_error(self, tmp_path, capsys, bad):
        corpus_path, _ = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "120"]) == 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad)
        rc = cli.main(
            ["train", str(corpus_path), "--vocab", str(vocab_path),
             "--checkpoint", str(tmp_path / "m.ckpt"), "--config", str(cfg)]
        )
        assert rc == 1
        assert "usage error: invalid config value" in capsys.readouterr().err

    def test_negative_training_seed_is_usage_error(self, tmp_path, capsys):
        # both commands take a seed in [0, 2**64): a larger one would decode
        # as its low 64 bits.  The check precedes reading any input, so
        # inputs that do not exist are never opened.
        missing = tmp_path / "missing"
        commands = {
            "train": ["train", str(missing), "--vocab", str(missing), "--checkpoint", str(tmp_path / "m.ckpt")],
            "corrupt": ["corrupt", str(missing), "--checkpoint", str(missing), "--out", str(tmp_path / "out.txt"),
                        "--report", str(tmp_path / "spans.tsv")],
        }
        for argv in commands.values():
            for seed in ("-1", str(2**64)):
                assert cli.main([*argv, "--seed", seed]) == 1
                err = capsys.readouterr().err
                assert "usage error: invalid config value" in err and "seed" in err
                assert "Traceback" not in err
                assert sorted(tmp_path.iterdir()) == []

    def test_lexicon_without_inventory_is_usage_error(self, tmp_path, capsys):
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text("CUE\tK Y UW\n")
        assert cli.main(["g2p", "cue", "--lexicon", str(lexicon_path)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_fallback_phoneme_missing_from_inventory_reads_unk(self, tmp_path, capsys):
        # d, o and g fall back to D, AA and G, which this inventory lacks;
        # they once raised KeyError: 'D'
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text("UNK\tconsonant\tglottal\tstop\tvoiceless\nK\tconsonant\tvelar\tstop\tvoiceless\n")
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text("cat\tK\n")
        argv = ["g2p", "dog", "kid", "cat", "--lexicon", str(lexicon_path), "--inventory", str(inventory_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "dog\tUNK UNK UNK\nkid\tK UNK UNK\ncat\tK\n"

    def test_lexicon_phoneme_missing_from_inventory_is_data_error(self, tmp_path, capsys):
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text("T\tconsonant\talveolar\tstop\tvoiceless\nAA\tvowel\tlow\tback\tunrounded\n")
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text("tot\tT ZZ T\n")
        rc = cli.main(["g2p", "tot", "--lexicon", str(lexicon_path), "--inventory", str(inventory_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and "ZZ" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("tat\tT AA T\nTat\tT AA\n", "line 2: word 'Tat' is already listed at line 1"),
            ("t t\tT T\n", "line 1: word 't t' is not [a-z0-9]+ once lowercased"),
        ],
        ids=["repeat", "unreachable"],
    )
    def test_rejected_lexicon_word_is_data_error(self, tmp_path, capsys, entries, message):
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text("T\tconsonant\talveolar\tstop\tvoiceless\nAA\tvowel\tlow\tback\tunrounded\n")
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text(entries)
        rc = cli.main(["g2p", "tat", "--lexicon", str(lexicon_path), "--inventory", str(inventory_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert "Traceback" not in err

    def test_rejected_vocab_file_is_data_error(self, tmp_path, capsys):
        corpus_path, _ = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("[BOS]\n[EOS]\na\nb\n")  # no [UNK]
        rc = cli.main(
            ["train", str(corpus_path), "--vocab", str(vocab_path), "--checkpoint", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        ["##", "[UNK]", "Two Words", "##Q!", "ab "],
        ids=["bare-continuation-prefix", "duplicate", "space-and-upper-case", "continued-punctuation",
             "trailing-space"],
    )
    def test_bad_vocab_piece_is_rejected_by_line_before_training(self, tmp_path, monkeypatch, capsys, bad):
        corpus_path, _ = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "40"]) == 0
        n_lines = len(vocab_path.read_text().splitlines())
        vocab_path.write_text(vocab_path.read_text() + bad + "\n")
        monkeypatch.setattr(cli.corpus_mod, "align_pair", None)  # rejected before any pair is aligned
        rc = cli.main(
            ["train", str(corpus_path), "--vocab", str(vocab_path), "--checkpoint", str(tmp_path / "m.ckpt")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{vocab_path}: line {n_lines + 1}: piece '{bad}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
    def test_a_command_takes_exactly_the_flags_it_reads(self, capsys, command):
        argv = [command, *_COMMAND_ARGS[command]]
        reads = cli.build_parser().parse_args(argv).reads
        assert {cli._FLAGS[key] for key in reads if key in cli._FLAGS} <= _COMMAND_FLAGS[command]
        for flag in _COMMAND_FLAGS[command]:
            dest, raw, parsed = _FLAG_VALUES[flag]
            assert getattr(cli.build_parser().parse_args([*argv, flag, raw]), dest) == parsed
        for flag in sorted(_FLAG_VALUES.keys() - _COMMAND_FLAGS[command]):
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, flag, _FLAG_VALUES[flag][1]])
            assert err.value.code == 1
            assert f"usage error: unrecognized arguments: {flag} " in capsys.readouterr().err

    def test_mode_is_checked_only_by_corrupt_before_its_checkpoint(self, tmp_path, capsys):
        beam = tmp_path / "beam.cfg"
        beam.write_text("mode = beam\n")
        assert cli.main(["g2p", "cue", "--config", str(beam)]) == 0
        texts = tmp_path / "texts.txt"
        texts.write_text("the cue\n")
        argv = ["corrupt", str(texts), "--checkpoint", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "o.txt")]
        for extra in (["--config", str(beam)], ["--mode", "beam"]):
            capsys.readouterr()
            assert cli.main([*argv, *extra]) == 1
            assert "usage error: unknown decode mode 'beam'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--ref", ".", "--hyp", "h.txt", "--out", "m"],
         ["vocab", "corpus.tsv", "--out", ".", "--size", "40"],
         ["g2p", "cue", "--config", "."],
         ["corrupt", "h.txt", "--checkpoint", ".", "--out", "o.txt"]],
        ids=["eval-ref", "vocab-out", "g2p-config", "corrupt-checkpoint"],
    )
    def test_a_directory_path_is_a_data_error(self, tmp_path, monkeypatch, capsys, argv):
        _write_corpus(tmp_path)
        (tmp_path / "h.txt").write_text("the cue\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("asrnoise: data error")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [("vocab", "--out"), ("g2p", "--out"), ("align", "--out"), ("train", "--checkpoint"),
         ("train", "--out"), ("corrupt", "--out"), ("corrupt", "--report"), ("eval", "--out")],
    )
    def test_an_output_path_outside_a_directory_fails_before_the_work(
        self, tmp_path, monkeypatch, capsys, lexicon, command, flag
    ):
        _, pairs = _write_corpus(tmp_path)
        vocab = C.induce_vocab([p.gt for p in pairs], 40)
        vocab.save(tmp_path / "vocab.txt")
        model = Model.build(vocab, lexicon, ModelConfig(d_model=8, n_heads=2))
        training.save_checkpoint(tmp_path / "model.ckpt", model)
        for name in ("texts.txt", "noised.txt"):
            (tmp_path / name).write_text("the cue\n")

        def main_work(*args, **kwargs):
            raise AssertionError("the command's main work ran")

        for module, name in [(cli.training, "train"), (cli.generation, "corrupt_corpus"),
                             (cli.corpus_mod, "induce_vocab"), (cli.corpus_mod, "align_pair"),
                             (cli.evaluation, "error_type_breakdown"), (cli.phonetics, "g2p")]:
            monkeypatch.setattr(module, name, main_work)
        monkeypatch.chdir(tmp_path)
        argv = [command, *_COMMAND_ARGS[command]]
        if flag in argv:
            argv[argv.index(flag) + 1] = "nodir/out"
        else:
            argv += [flag, "nodir/out"]
        assert cli.main(argv) == 2
        assert f"asrnoise: data error: {flag} nodir/out: nodir is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["train", "corpus.tsv", "--vocab", "vocab.txt", "--checkpoint", "same.out", "--out", "same.out"],
         ["train", "corpus.tsv", "--vocab", "vocab.txt", "--checkpoint", "m", "--out", "m.last_good"],
         ["corrupt", "texts.txt", "--checkpoint", "model.ckpt", "--out", "both.txt", "--report", "both.txt"],
         ["corrupt", "texts.txt", "--checkpoint", "model.ckpt", "--out", "out.txt", "--report", "./out.txt"]],
        ids=["train-checkpoint-out", "train-last-good-out", "corrupt-out-report", "dot-slash"],
    )
    def test_two_outputs_naming_one_file_are_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # no input exists, so reading one would exit 2
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("asrnoise: usage error: --")
        assert "name one file" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, source, output",
        [(command, source, output)
         for command, (sources, outputs) in _PATHS.items() for source in sources for output in outputs],
    )
    def test_an_output_naming_an_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, source,
                                                        output):
        # the first case is `corrupt texts.txt --checkpoint m2.ckpt --out m2.ckpt`,
        # which once wrote its transcripts over the checkpoint and exited 0
        monkeypatch.chdir(tmp_path)
        argv = [command, *_COMMAND_ARGS[command]]
        kept = "m2.txt" if command == "eval" else "m2.ckpt"  # eval's --out m2 writes m2.txt

        def give(flag, value):
            if flag == "input":
                argv[1] = value
            elif flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv.extend([flag, value])

        give(source, f"./{kept}")
        give(output, "m2" if command == "eval" else kept)
        (tmp_path / kept).write_text("kept\n")
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"asrnoise: usage error: {output} ")
        assert "would overwrite" in err and "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == [kept]
        assert (tmp_path / kept).read_text() == "kept\n"

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("the cue\n")

        def broken(references, hypotheses):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli.evaluation, "word_error_rate", broken)
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["eval", "--ref", str(texts), "--hyp", str(texts), "--out", str(tmp_path / "m")])
        assert "usage error" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run: vocab -> train -> corrupt -> eval."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_path, pairs = _write_corpus(root, n_pairs=16, seed=5)
    cfg = root / "run.cfg"
    cfg.write_text(
        "d_model = 8\nn_heads = 2\nvocab_size = 120\nepochs = 2\n"
        "learning_rate = 0.002\nbatch_size = 16\nseed = 3\n"
    )
    vocab_path = root / "vocab.txt"
    ckpt = root / "model.ckpt"
    losslog = root / "loss.csv"
    assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--config", str(cfg)]) == 0
    assert (
        cli.main(
            [
                "train", str(corpus_path),
                "--vocab", str(vocab_path),
                "--checkpoint", str(ckpt),
                "--out", str(losslog),
                "--config", str(cfg),
            ]
        )
        == 0
    )
    texts = root / "texts.txt"
    texts.write_text("\n".join(p.gt for p in pairs[:8]) + "\n")
    return root, cfg, vocab_path, ckpt, losslog, texts


class TestPipeline:
    def test_loss_log_written(self, pipeline):
        *_, losslog, _ = pipeline
        lines = losslog.read_text().splitlines()
        assert lines[1] == "epoch,L_tot,L_n,L_ph"
        assert len(lines) == 4  # header, columns, 2 epochs

    def test_corrupt_zero_prior_matches_input_modulo_normalization(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        out = root / "identity.txt"
        rc = cli.main(
            ["corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(out),
             "--p-z", "0", "--config", str(cfg)]
        )
        assert rc == 0
        got = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        expected = [C.normalize(l) for l in texts.read_text().splitlines() if l.strip()]
        assert got == expected

    def test_corrupt_and_eval_produce_reports(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        out = root / "noised.txt"
        report = root / "spans.tsv"
        rc = cli.main(
            ["corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(out),
             "--report", str(report), "--p-z", "0.45", "--seed", "9", "--config", str(cfg)]
        )
        assert rc == 0
        assert report.read_text().splitlines()[1].startswith("sentence_id")
        metrics = root / "metrics"
        rc = cli.main(
            ["eval", "--ref", str(texts), "--hyp", str(out), "--out", str(metrics), "--config", str(cfg)]
        )
        assert rc == 0
        text = (root / "metrics.txt").read_text()
        assert "wer" in text
        csv = (root / "metrics.csv").read_text().splitlines()
        assert csv[1] == "metric,value"

    def test_train_is_seed_deterministic(self, pipeline):
        root, cfg, vocab_path, ckpt, _, _ = pipeline
        corpus_path = root / "corpus.tsv"
        again = root / "again.ckpt"
        rc = cli.main(
            ["train", str(corpus_path), "--vocab", str(vocab_path),
             "--checkpoint", str(again), "--config", str(cfg)]
        )
        assert rc == 0
        assert again.read_bytes() == ckpt.read_bytes()

    def test_corrupt_is_seed_deterministic(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        outs = []
        for name in ("c1.txt", "c2.txt"):
            out = root / name
            rc = cli.main(
                ["corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(out),
                 "--p-z", "0.3", "--seed", "4", "--config", str(cfg)]
            )
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_config_hash_covers_only_keys_the_command_reads(self, pipeline, capsys):
        root, cfg, vocab_path, ckpt, losslog, texts = pipeline
        lambda_cfg = root / "lambda_w.cfg"
        lambda_cfg.write_text(cfg.read_text() + "lambda_w = 0.9\n")
        corrupt_hashes = []
        for config in (cfg, lambda_cfg):
            out = root / "hashed.txt"
            capsys.readouterr()
            rc = cli.main(
                ["corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(out), "--config", str(config)]
            )
            assert rc == 0
            corrupt_hashes.append(_header_hash(out))
            echoed = [l.split()[2] for l in capsys.readouterr().err.splitlines() if " = " in l]
            assert sorted(echoed) == ["mode", "p_z", "seed", "temperature"]
        assert corrupt_hashes[0] == corrupt_hashes[1]
        other_log = root / "loss_lambda_w.csv"
        rc = cli.main(
            ["train", str(root / "corpus.tsv"), "--vocab", str(vocab_path),
             "--checkpoint", str(root / "lambda_w.ckpt"), "--out", str(other_log),
             "--config", str(lambda_cfg)]
        )
        assert rc == 0
        assert _header_hash(other_log) != _header_hash(losslog)

    def test_nonpositive_sampling_temperature_is_usage_error(self, pipeline, capsys):
        root, cfg, _, ckpt, _, texts = pipeline
        long_file = root / "all_long.txt"
        long_file.write_text(" ".join(["the cue gag"] * 30) + "\n")
        cases = [("temperature = 0\n", texts), ("temperature = nan\n", texts), ("temperature = inf\n", texts),
                 ("p_z = 2\n", long_file), ("p_z = nan\n", long_file)]
        # a missing checkpoint is a data error (exit 2), so exit 1 shows the value is checked first
        for checkpoint in (ckpt, root / "absent.ckpt"):
            for bad, inputs in cases:
                cold = root / "cold.cfg"
                cold.write_text(cfg.read_text() + bad)
                capsys.readouterr()
                rc = cli.main(
                    ["corrupt", str(inputs), "--checkpoint", str(checkpoint), "--out", str(root / "cold.txt"),
                     "--config", str(cold)]
                )
                assert rc == 1, (bad, checkpoint)
                assert "usage error" in capsys.readouterr().err

    def test_over_long_line_passes_through(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        first, second = texts.read_text().splitlines()[:2]
        long_line = " ".join(["the cue gag"] * 30)
        long_file = root / "long.txt"
        long_file.write_text(f"{first}\n{long_line}\n{second}\n")
        out = root / "long_out.txt"
        rc = cli.main(
            ["corrupt", str(long_file), "--checkpoint", str(ckpt), "--out", str(out),
             "--p-z", "0.45", "--seed", "9", "--config", str(cfg)]
        )
        assert rc == 0
        got = out.read_text().splitlines()[1:]
        assert len(got) == 3
        assert got[1] == C.normalize(long_line)

    def test_one_output_line_per_input_line(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        first, second, third = texts.read_text().splitlines()[:3]
        lines = [first, "", "#hashtag " + second, "", third]
        gappy = root / "gappy.txt"
        gappy.write_text("\n".join(lines) + "\n")
        for p_z in ("0", "0.45"):
            out = root / f"gappy_{p_z}.txt"
            rc = cli.main(
                ["corrupt", str(gappy), "--checkpoint", str(ckpt), "--out", str(out),
                 "--p-z", p_z, "--seed", "9", "--config", str(cfg)]
            )
            assert rc == 0
            got = out.read_text().splitlines()[1:]
            assert len(got) == len(lines)
            assert got[1] == got[3] == ""
        identity = root / "gappy_0.txt"
        assert identity.read_text().splitlines()[1:] == [C.normalize(l) for l in lines]
        # eval pairs line i with line i, blank lines and the hypothesis header included
        assert cli.main(["eval", "--ref", str(gappy), "--hyp", str(identity), "--out", str(root / "gappy_eval")]) == 0
        assert "total_errors,0" in (root / "gappy_eval.csv").read_text().splitlines()

    def test_cr_inside_a_line_splits_no_line(self, pipeline):
        root, cfg, _, ckpt, _, texts = pipeline
        first, second = texts.read_text().splitlines()[:2]
        messy = root / "messy.txt"
        messy.write_bytes(f"{first}\r{second}\n{second}\n".encode("utf-8"))
        out = root / "messy_out.txt"
        rc = cli.main(
            ["corrupt", str(messy), "--checkpoint", str(ckpt), "--out", str(out),
             "--p-z", "0", "--config", str(cfg)]
        )
        assert rc == 0
        assert out.read_text().split("\n")[1:] == [C.normalize(f"{first} {second}"), C.normalize(second), ""]

    def test_bom_header_and_bad_bytes_in_corrupt_input(self, pipeline, capsys):
        root, cfg, _, ckpt, _, texts = pipeline
        first = texts.read_text().splitlines()[0]
        marked = root / "marked.txt"
        marked.write_bytes(f"\ufeff# produced-by: asrnoise corrupt\r\n{first}\r\n".encode("utf-8"))
        out = root / "marked_out.txt"
        argv = ["corrupt", str(marked), "--checkpoint", str(ckpt), "--out", str(out), "--p-z", "0"]
        assert cli.main(argv) == 0
        assert out.read_text().splitlines()[1:] == [C.normalize(first)]
        marked.write_bytes(f"{first}\n{first}\n\xff\n".encode("latin-1"))
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert f"{marked}: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err


def test_eval_cr_inside_a_reference_line(tmp_path):
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_bytes(b"a b\rc\n")
    hyp.write_bytes(b"a b c\n")
    assert cli.main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(tmp_path / "m")]) == 0
    assert "wer,0.0" in (tmp_path / "m.csv").read_text().splitlines()


def test_eval_appends_the_report_suffixes_to_a_dotted_basename(tmp_path, monkeypatch):
    (tmp_path / "ref.txt").write_text("the cue\n")
    monkeypatch.chdir(tmp_path)
    for out in ("run.v1", "run.v2", "metrics", "metrics.txt", "other.csv"):
        assert cli.main(["eval", "--ref", "ref.txt", "--hyp", "ref.txt", "--out", out]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics.csv", "metrics.txt", "other.csv", "other.txt", "ref.txt",
        "run.v1.csv", "run.v1.txt", "run.v2.csv", "run.v2.txt",
    ]


def test_eval_checks_the_report_paths_it_writes(tmp_path, monkeypatch, capsys):
    (tmp_path / "ref.txt").write_text("the cue\n")
    (tmp_path / "m.csv").mkdir()
    monkeypatch.chdir(tmp_path)

    def main_work(*args, **kwargs):
        raise AssertionError("the command's main work ran")

    monkeypatch.setattr(cli.evaluation, "error_type_breakdown", main_work)
    assert cli.main(["eval", "--ref", "ref.txt", "--hyp", "ref.txt", "--out", "m"]) == 2
    assert "asrnoise: data error: --out m: m.csv is a directory" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def _run_at_blas_threads(threads: str, *argv: str) -> None:
    """Run ``asrnoise *argv`` in a child process with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "asrnoise.cli", *argv], env=env, capture_output=True, check=True, timeout=120)


@pytest.mark.parametrize(
    "mode, p_z",
    [("sample", 0.5), ("greedy", 0.5), ("sample", 1.0), ("greedy", 1.0)],
    ids=["sample", "greedy", "sample-full-prior", "greedy-full-prior"],
)
def test_corrupt_output_does_not_depend_on_the_blas_thread_count(tmp_path, lexicon, mode, p_z):
    # decoding's products split over output rows, which keeps each row's bits
    # at any thread count (training's test is below).  At p_z = 1 every
    # position is a span, so each step runs its sentence's widest multi-row
    # products.
    pairs = synthetic.make_parallel_corpus(120, seed=1)
    vocab = C.induce_vocab([p.gt for p in pairs] + [p.asr for p in pairs if p.asr], 384)
    assert len(vocab) > 300
    ckpt = tmp_path / "model.ckpt"
    training.save_checkpoint(ckpt, Model.build(vocab, lexicon, ModelConfig(), seed=1))
    texts = tmp_path / "texts.txt"
    texts.write_text("".join(p.gt + "\n" for p in pairs[:40]))
    results = []
    for threads in ("1", "2"):
        out, report = tmp_path / f"noised{threads}.txt", tmp_path / f"spans{threads}.tsv"
        _run_at_blas_threads(
            threads, "corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(out),
            "--report", str(report), "--p-z", str(p_z), "--seed", "1", "--mode", mode,
        )
        results.append((out.read_bytes(), report.read_bytes()))
    assert len(results[0][1].splitlines()) > 40
    assert results[0] == results[1]


def test_training_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 600 pairs give batches of several hundred encoder rows, so each weight
    # gradient sums more than one block of autodiff.WEIGHT_GRAD_ROWS rows:
    # one product over all of them would let BLAS split the sum by thread.
    # The default 256-piece vocabulary keeps the heads' widths multiples of
    # 8; other widths can still depend on the count (README, "Notes on
    # determinism"), which this test does not cover
    pairs = synthetic.make_parallel_corpus(600, seed=1)
    corpus, vocab, config = tmp_path / "corpus.tsv", tmp_path / "vocab.txt", tmp_path / "run.cfg"
    C.write_pairs_tsv(corpus, pairs)
    config.write_text("epochs = 2\n")
    assert cli.main(["vocab", str(corpus), "--out", str(vocab)]) == 0
    results = []
    for threads in ("1", "2"):
        ckpt, log = tmp_path / f"model{threads}.ckpt", tmp_path / f"loss{threads}.csv"
        _run_at_blas_threads(
            threads, "train", str(corpus), "--vocab", str(vocab), "--checkpoint", str(ckpt),
            "--out", str(log), "--config", str(config),
        )
        results.append((ckpt.read_bytes(), log.read_bytes()))
    assert len(results[0][1].splitlines()) == 4
    assert results[0] == results[1]
