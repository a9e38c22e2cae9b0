import numpy as np
import pytest

from asrnoise import cli
from asrnoise import corpus as C
from asrnoise import synthetic, training
from asrnoise.errors import ConfigParseError, UnknownConfigKeyError
from asrnoise.model import loss_total


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(UnknownConfigKeyError):
            cli.load_config(path)

    def test_unknown_override_rejected(self):
        with pytest.raises(UnknownConfigKeyError):
            cli.load_config(None, overrides={"warp_speed": 9})

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

    def test_vocab_command_writes_header_and_pieces(self, tmp_path):
        corpus_path, _ = _write_corpus(tmp_path)
        out = tmp_path / "vocab.txt"
        rc = cli.main(["vocab", str(corpus_path), "--out", str(out), "--size", "120"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# produced-by: asrnoise vocab")
        vocab = C.SubwordVocab.load(out)
        assert len(vocab) == 120

    def test_align_command_writes_entries_and_prior(self, tmp_path):
        corpus_path, pairs = _write_corpus(tmp_path)
        out = tmp_path / "align.tsv"
        prior = tmp_path / "prior.tsv"
        rc = cli.main(["align", str(corpus_path), "--out", str(out), "--prior-out", str(prior)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "sentence_id\tgt_word\tasr_words\tlabel"
        assert len(lines) > 2
        assert prior.exists()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_train_divergence_writes_last_good_checkpoint(self, tmp_path, monkeypatch, lexicon):
        corpus_path, pairs = _write_corpus(tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        assert cli.main(["vocab", str(corpus_path), "--out", str(vocab_path), "--size", "120"]) == 0
        original_step = training._Adam.step

        def poisoned_step(self, params, grads):
            original_step(self, params, grads)
            params.arrays["b_n"][0] = np.inf

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
        l_tot, _, _ = loss_total(items, model, lexicon)
        assert np.isfinite(float(l_tot.data))

    def test_config_parse_error_exit_code(self, tmp_path):
        corpus_path, _ = _write_corpus(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope\n")
        rc = cli.main(
            ["vocab", str(corpus_path), "--out", str(tmp_path / "v.txt"), "--config", str(cfg)]
        )
        assert rc == 1


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
