"""End-to-end tests for the command line pipeline.

Every test drives the real entry point in process via main([...]) so the
argparse wiring, exit codes, and artifact layout are all exercised exactly
as a shell user would see them.
"""

import dataclasses
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qpatch
from qpatch.cli import main
from qpatch.config import ExperimentConfig, load_config
from qpatch import cli, dsp, patches
from qpatch.metrics import auroc
from qpatch.spoof import read_manifest
from qpatch.svm import decision_scores, kernel_matrix

from _oracles import rbf_kernel
from test_spoof import assert_split_by_source


def base_args(work_dir, *extra):
    return ["--work-dir", str(work_dir), "--train-per-class", "4",
            "--dev-per-class", "2", *map(str, extra)]


def run_synth(work_dir, *extra):
    return main(base_args(work_dir, *extra) + ["synth"])


def run_stage(work_dir, stage, *extra):
    return main(base_args(work_dir) + list(map(str, stage.split())) + list(map(str, extra)))


class TestSynth:
    def test_creates_manifest_and_audio(self, tmp_path):
        assert run_synth(tmp_path) == 0
        manifest = (tmp_path / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "id,path,label,split,source_id"
        assert len(manifest) == 1 + 12  # 6 bona fide + 6 spoofs
        assert len(list((tmp_path / "bonafide").glob("*.wav"))) == 6
        assert len(list((tmp_path / "spoof").glob("*.wav"))) == 6

    def test_manifest_paths_are_relative_to_work_dir(self, tmp_path):
        run_synth(tmp_path)
        for line in (tmp_path / "manifest.csv").read_text().splitlines()[1:]:
            rel = line.split(",")[1]
            assert not rel.startswith("/")
            assert (tmp_path / rel).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run_synth(tmp_path)
        first = (tmp_path / "manifest.csv").read_bytes()
        wav = (tmp_path / "spoof" / "utt000_spoof.wav").read_bytes()
        run_synth(tmp_path)
        assert (tmp_path / "manifest.csv").read_bytes() == first
        assert (tmp_path / "spoof" / "utt000_spoof.wav").read_bytes() == wav

    def test_seed_changes_audio_but_not_layout(self, tmp_path):
        run_synth(tmp_path / "a")
        assert run_synth(tmp_path / "b", "--seed", 8) == 0
        a = dsp.load_wav(tmp_path / "a" / "bonafide" / "utt000.wav")
        b = dsp.load_wav(tmp_path / "b" / "bonafide" / "utt000.wav")
        assert a.samples.shape == b.samples.shape
        assert not np.allclose(a.samples, b.samples)

    def test_missing_input_dir_without_generation_fails(self, tmp_path):
        missing = tmp_path / "no_such_dir"
        assert main(base_args(tmp_path / "w", "--input-dir", missing) + ["synth"]) == 2
        assert str(missing) in (tmp_path / "w" / "run.log").read_text()

    def test_too_few_files_fails(self, tmp_path):
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 3, seed=11)
        assert main(base_args(tmp_path / "w", "--input-dir", corpus) + ["synth"]) == 2
        last = (tmp_path / "w" / "run.log").read_text().splitlines()[-1]
        assert f"need 6 bona fide WAV files in {corpus}, found 3 (short 3)" in last

    def test_a_stray_voice_in_the_work_dir_stays_out_of_the_manifest(self, tmp_path):
        # a WAV left in work/bonafide, say by a run under another seed, that
        # sorts before the voices synth generates
        from qpatch.spoof import generate_synthetic_corpus
        (stray,) = generate_synthetic_corpus(tmp_path / "old", 1, seed=99)
        (tmp_path / "bonafide").mkdir()
        stray.rename(tmp_path / "bonafide" / "a.wav")
        assert run_synth(tmp_path) == 0
        sources = {e.source_id for e in read_manifest(tmp_path / "manifest.csv")}
        assert sources == {f"utt{i:03d}" for i in range(6)}

    def test_existing_corpus_via_input_dir(self, tmp_path):
        corpus = tmp_path / "voices"
        from qpatch.spoof import generate_synthetic_corpus
        generate_synthetic_corpus(corpus, 6, seed=11)
        args = base_args(tmp_path / "w", "--input-dir", corpus) + ["synth"]
        assert main(args) == 0
        assert (tmp_path / "w" / "manifest.csv").exists()


    def test_a_rate_needing_a_huge_resampling_filter_exits_2_naming_the_file(self, tmp_path):
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 6, seed=11)
        odd = corpus / "utt003.wav"
        # a rate the resampler refuses, then a silent file no SNR can be set against
        for work, samples, rate, message in [
                (tmp_path / "w", np.zeros(4410), 44101, "sample rate 44101 Hz"),
                (tmp_path / "silent", np.zeros(16000), 16000,
                 "cannot set an SNR against a zero-power signal")]:
            dsp.save_wav(odd, dsp.Waveform(samples, rate))
            assert main(base_args(work, "--input-dir", corpus) + ["synth"]) == 2
            log_text = (work / "run.log").read_text()
            assert f"{odd}: {message}" in log_text
            assert "Traceback" not in log_text
            assert not (work / "manifest.csv").exists()
            # the spoofs made before the failure are removed, not left as orphans
            assert not list((work / "spoof").glob("*.wav"))

    @pytest.mark.parametrize("n, message", [
        (399, "signal too short: 399 samples < one 400-sample window"),
        (879, "spectrogram too short for one patch: 3 frames < 4")],
        ids=["window", "patch_row"])
    def test_a_clip_too_short_to_featurize_exits_2_naming_the_file(self, tmp_path, n, message):
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 6, seed=11)
        short = corpus / "utt003.wav"
        dsp.save_wav(short, dsp.Waveform(0.1 * np.sin(0.05 * np.arange(n)), 16000))
        work = tmp_path / "w"
        assert main(base_args(work, "--input-dir", corpus) + ["synth"]) == 2
        log_text = (work / "run.log").read_text()
        assert f"{short}: {message}" in log_text.splitlines()[-1]
        assert "Traceback" not in log_text
        assert not list((work / "spoof").glob("*.wav"))
        for name in ("manifest.csv", "features.csv", "features.json"):
            assert not (work / name).exists(), name

    def test_float_samples_above_max_sample_exit_2_before_any_spoof(self, tmp_path):
        from scipy.io import wavfile
        corpus = tmp_path / "voices"
        corpus.mkdir()
        # finite float64 samples whose squares overflow, at the front end's rate and
        # at one it resamples from; then a float WAV peaking at 2.0, still accepted
        for work, rate, peak, code in [(tmp_path / "w16", 16000, 1e300, 2),
                                       (tmp_path / "w44", 44100, 1.7e308, 2),
                                       (tmp_path / "hot", 16000, 2.0, 0)]:
            for i in range(6):
                wave = peak * np.sin(np.arange(rate // 2) * (0.05 + 0.01 * i))
                wavfile.write(corpus / f"utt{i:03d}.wav", rate, wave)
            assert main(base_args(work, "--input-dir", corpus) + ["synth"]) == code
            if code:
                last = (work / "run.log").read_text().splitlines()[-1]
                assert (f"{corpus / 'utt000.wav'}: non-finite samples, or samples above "
                        "1e+100 in magnitude") in last
                assert not (work / "manifest.csv").exists()
                assert not list((work / "spoof").glob("*.wav"))

    def test_a_stem_taking_another_files_spoof_id_exits_2_before_any_spoof(self, tmp_path):
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 6, seed=11)
        clash = corpus / "utt000_spoof.wav"
        (corpus / "utt005.wav").rename(clash)
        assert main(base_args(tmp_path / "w", "--input-dir", corpus) + ["synth"]) == 2
        last = (tmp_path / "w" / "run.log").read_text().splitlines()[-1]
        assert f"{clash} has the id of the spoof of {corpus / 'utt000.wav'}" in last
        assert not list((tmp_path / "w").glob("spoof/*.wav"))
        assert not (tmp_path / "w" / "manifest.csv").exists()

class TestFeatures:
    """synth writes features.csv from the audio it reads once."""

    def test_writes_one_row_per_utterance(self, tmp_path):
        assert run_synth(tmp_path) == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 12
        header = lines[0].split(",")
        assert header[:2] == ["id", "label"]
        assert sum(1 for h in header if h.startswith("x")) == 8  # k=2
        # the one record of synth; the front end and the patch side are fixed, so
        # it records neither
        made_under = json.loads((tmp_path / "features.json").read_text())
        manifest, features = ((tmp_path / name).read_bytes()
                              for name in ("manifest.csv", "features.csv"))
        assert made_under == {"spoof_config": {"seed": 7, "snr_db": 20.0,
                                               "tilt_high": 0.6, "tilt_low": -0.6},
                              "split_counts": {"train_per_class": 4, "dev_per_class": 2},
                              "k": 2, "manifest": hashlib.sha256(manifest).hexdigest(),
                              "sha256": hashlib.sha256(features).hexdigest()}

    def test_k_controls_vector_length(self, tmp_path):
        assert run_synth(tmp_path, "--k", 1) == 0
        header = (tmp_path / "features.csv").read_text().splitlines()[0]
        assert sum(1 for h in header.split(",") if h.startswith("x")) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        run_synth(tmp_path)
        first = [(tmp_path / name).read_bytes() for name in ("features.csv", "features.json")]
        run_synth(tmp_path)
        assert [(tmp_path / name).read_bytes()
                for name in ("features.csv", "features.json")] == first

    def test_missing_manifest_fails(self, tmp_path):
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(
            f"missing {tmp_path / 'manifest.csv'}; run synth first")

    def test_an_internal_error_exits_1_and_skips_no_file(self, tmp_path, monkeypatch):
        """Only what a bad WAV raises is refused as input: a bug in the code
        fails synth as an internal error, with its traceback in run.log."""

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a bad file")

        monkeypatch.setattr(patches, "extract_features", broken)
        assert run_synth(tmp_path) == 1
        log_text = (tmp_path / "run.log").read_text()
        assert "internal error" in log_text and "Traceback" in log_text
        assert "a bug, not a bad file" in log_text
        assert not (tmp_path / "features.csv").exists()
        assert not (tmp_path / "features.json").exists()
        assert not list((tmp_path / "spoof").glob("*.wav"))


def prepared(tmp_path):
    run_synth(tmp_path)
    return tmp_path


def stored_model(work, kind):
    """model_<kind>.json as a dict, its arrays rebuilt, after checking that
    it holds exactly the solver's eight keys and the kernel's two, and that
    its scores of the dev x train rows in cross_<kind>.csv give the report's AUROC."""
    model = json.loads((work / f"model_{kind}.json").read_text())
    assert set(model) == {"dual_coefs", "support_indices", "bias", "C", "n_train",
                          "kkt_gap", "n_iter", "converged", "kernel_params", "feature_ref"}
    model.update(dual_coefs=np.array(model["dual_coefs"]),
                 support_indices=np.array(model["support_indices"]))
    # the %.17g export holds the cross rows exactly, dev entries in manifest order
    scores = decision_scores(model, np.loadtxt(work / f"cross_{kind}.csv", delimiter=","))
    dev = [int(e.label == "bonafide") for e in read_manifest(work / "manifest.csv")
           if e.split == "dev"]
    report = json.loads((work / f"report_{kind}.json").read_text())
    assert auroc(scores, dev) == report["auroc"]
    return model


class TestKernel:
    """train-eval computes its kernel and exports the train Gram and cross rows."""

    def test_quantum_gram_shapes_and_diagonal(self, tmp_path):
        prepared(tmp_path)
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 0
        gram = np.loadtxt(tmp_path / "gram_quantum.csv", delimiter=",")
        cross = np.loadtxt(tmp_path / "cross_quantum.csv", delimiter=",")
        assert gram.shape == (8, 8)
        assert cross.shape == (4, 8)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)

    def test_rbf_differs_from_quantum(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "train-eval", "--kind", "quantum")
        run_stage(tmp_path, "train-eval", "--kind", "rbf")
        q = np.loadtxt(tmp_path / "gram_quantum.csv", delimiter=",")
        r = np.loadtxt(tmp_path / "gram_rbf.csv", delimiter=",")
        assert q.shape == r.shape
        assert not np.allclose(q, r)

    def test_missing_features_fails(self, tmp_path):
        run_synth(tmp_path)
        (tmp_path / "features.csv").unlink()
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2

    @pytest.mark.parametrize("flag", [["--k", "4"]], ids=["k"])
    def test_features_made_under_another_config_are_refused(self, tmp_path, flag):
        prepared(tmp_path)  # features at k 2
        run_stage(tmp_path, "train-eval", "--kind", "rbf")
        gram, report = ((tmp_path / f"{name}_rbf.{ext}").read_bytes()
                        for name, ext in (("gram", "csv"), ("report", "json")))
        assert main(base_args(tmp_path, *flag) + ["train-eval", "--kind", "rbf"]) == 2
        assert (tmp_path / "gram_rbf.csv").read_bytes() == gram
        assert (tmp_path / "report_rbf.json").read_bytes() == report
        field = flag[0][2:].replace("-", "_")
        last = (tmp_path / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"features.csv was made under another {field}; rerun synth")

    def test_features_without_their_sidecar_are_refused(self, tmp_path):
        prepared(tmp_path)
        (tmp_path / "features.json").unlink()
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2
        assert not (tmp_path / "gram_quantum.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "train-eval", "--kind", "quantum")
        first = (tmp_path / "gram_quantum.csv").read_bytes()
        run_stage(tmp_path, "train-eval", "--kind", "quantum")
        assert (tmp_path / "gram_quantum.csv").read_bytes() == first


class TestTrainEval:
    def test_report_contents(self, tmp_path):
        prepared(tmp_path)
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 0
        report = json.loads((tmp_path / "report_quantum.json").read_text())
        assert 0.0 <= report["auroc"] <= 1.0
        assert 0.0 <= report["eer"] <= 1.0
        assert report["n_train"] == 8 and report["n_dev"] == 4
        assert report["positive_label"] == "bonafide"
        assert report["kernel"]["kind"] == "quantum"
        assert report["kernel"]["gamma_resolved"] is None
        assert report["svm"]["n_support"] >= 1
        structure = report["kernel_structure"]
        assert set(structure) == {"same_sample", "within_class", "cross_class",
                                  "cross_class_per_slot"}
        roc = (tmp_path / "roc_quantum.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr,fnr"

    def test_rbf_structure_uses_the_models_gamma(self, tmp_path):
        """The structure block is computed with gamma_resolved (resolved on
        the train features), not with a gamma re-resolved on the dev set."""
        from qpatch.patches import read_features_csv
        prepared(tmp_path)
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        report = json.loads((tmp_path / "report_rbf.json").read_text())
        gamma = report["kernel"]["gamma_resolved"]
        # one dict is the kernel's identity: the model's and the report's
        model = stored_model(tmp_path, "rbf")
        assert model["kernel_params"] == {"kind": "rbf", "gamma": gamma}
        dev_ids = {e.uid for e in read_manifest(tmp_path / "manifest.csv")
                   if e.split == "dev"}
        dev = [(label, stats) for uid, label, stats
               in read_features_csv(tmp_path / "features.csv") if uid in dev_ids]
        cross = [rbf_kernel(a, b, gamma) for i, (la, a) in enumerate(dev)
                 for lb, b in dev[i + 1:] if la != lb]
        got = report["kernel_structure"]["cross_class"]
        assert got["n_pairs"] == len(cross) == 4
        assert got["mean"] == pytest.approx(np.mean(cross), abs=1e-12)

    def test_model_file_roundtrips(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "train-eval", "--kind", "rbf")
        model = stored_model(tmp_path, "rbf")
        assert model["n_train"] == 8
        assert model["kernel_params"]["kind"] == "rbf"
        assert model["feature_ref"] == str(tmp_path / "features.csv")

    def test_features_rerun_with_another_k_are_refused(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "train-eval", "--kind", "rbf")
        report = (tmp_path / "report_rbf.json").read_bytes()
        assert run_synth(tmp_path, "--k", "4") == 0
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert (tmp_path / "report_rbf.json").read_bytes() == report
        last = (tmp_path / "run.log").read_text().splitlines()[-1]
        assert last.endswith("features.csv was made under another k; rerun synth")


class TestMadeUnder:
    """features.json, synth's one record, holds the config fields synth read
    and the sha256 of manifest.csv and of features.csv; train-eval refuses a
    mismatch."""

    def test_manifest_sidecar_records_the_spoof_config_and_split(self, tmp_path):
        run_synth(tmp_path, "--seed", 8)
        made_under = json.loads((tmp_path / "features.json").read_text())
        assert made_under["spoof_config"] == {"seed": 8, "snr_db": 20.0,
                                              "tilt_high": 0.6, "tilt_low": -0.6}
        assert made_under["split_counts"] == {"train_per_class": 4, "dev_per_class": 2}
        # synth reads each WAV once, so no later stage needs the WAVs' hashes
        assert set(made_under) == {"spoof_config", "split_counts", "k", "manifest", "sha256"}

    def test_synth_writes_no_manifest_sidecar(self, tmp_path):
        assert run_synth(tmp_path) == 0
        assert sorted(path.name for path in tmp_path.glob("*.json")) == ["features.json"]

    @pytest.mark.parametrize("flag", [["--seed", "8"], ["--snr-db", "10"]],
                             ids=["seed", "snr_db"])
    def test_resynth_refuses_kernel_and_train_eval(self, tmp_path, flag):
        prepared(tmp_path)  # seed 7, 20 dB
        assert run_synth(tmp_path, *flag) == 0
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert not (tmp_path / "gram_rbf.csv").exists()
        assert not (tmp_path / "report_rbf.json").exists()
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(
            "features.csv was made under another spoof_config; rerun synth")

    @pytest.mark.parametrize("flag, stale", [(["--seed", "8"], "manifest, spoof_config"),
                                             (["--snr-db", "10"], "spoof_config")],
                             ids=["seed", "snr_db"])
    def test_features_under_another_config_than_synth_are_refused(self, tmp_path, flag,
                                                                   stale):
        # features.csv and its record copied in from a synth under another config;
        # the seed also reshuffles the splits, so the manifest differs too
        prepared(tmp_path / "work")
        run_synth(tmp_path / "other", *flag)
        for name in ("features.csv", "features.json"):
            (tmp_path / "work" / name).write_bytes((tmp_path / "other" / name).read_bytes())
        assert run_stage(tmp_path / "work", "train-eval", "--kind", "rbf") == 2
        assert not (tmp_path / "work" / "gram_rbf.csv").exists()
        assert (tmp_path / "work" / "run.log").read_text().splitlines()[-1].endswith(
            f"features.csv was made under another {stale}; rerun synth")

    def test_a_hand_edited_manifest_is_refused(self, tmp_path):
        # two bona fide rows swap splits: the file stays well formed and balanced
        prepared(tmp_path)
        path = tmp_path / "manifest.csv"
        lines = path.read_text().splitlines()
        bona = [i for i, line in enumerate(lines) if ",bonafide," in line]
        first = next(i for i in bona if ",train," in lines[i])
        second = next(i for i in bona if ",dev," in lines[i])
        lines[first], lines[second] = (lines[first].replace(",train,", ",dev,"),
                                       lines[second].replace(",dev,", ",train,"))
        path.write_text("\n".join(lines) + "\n")
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert not (tmp_path / "gram_rbf.csv").exists()
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(
            "features.csv was made under another manifest; rerun synth")

    def test_a_hand_edited_feature_value_is_refused(self, tmp_path):
        # one statistic of a train row changes: the file stays well formed
        prepared(tmp_path)
        path = tmp_path / "features.csv"
        _edit_line(path, 1, lambda s: _set_field(s, 2, repr(float(s.split(",")[2]) + 0.5)))
        assert len(patches.read_features_csv(path)) == 12
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert not (tmp_path / "gram_rbf.csv").exists()
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(DIGEST_REFUSAL)

    def test_swapped_feature_rows_are_refused(self, tmp_path):
        # a train row and a dev row trade places: every row is still as synth wrote it
        prepared(tmp_path)
        path = tmp_path / "features.csv"
        lines = path.read_text().splitlines()
        lines[1], lines[5] = lines[5], lines[1]
        path.write_text("\n".join(lines) + "\n")
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2
        assert not (tmp_path / "gram_quantum.csv").exists()
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(DIGEST_REFUSAL)

    def test_a_record_without_the_features_digest_is_refused(self, tmp_path):
        # an older qpatch recorded k, the manifest's sha256, the spoof config and
        # the split counts, but no sha256 of features.csv
        prepared(tmp_path)
        sidecar = tmp_path / "features.json"
        made_under = json.loads(sidecar.read_text())
        del made_under["sha256"]
        sidecar.write_text(json.dumps(made_under, indent=2, sort_keys=True) + "\n")
        assert sorted(made_under) == ["k", "manifest", "split_counts", "spoof_config"]
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(DIGEST_REFUSAL)

    @pytest.mark.parametrize("content", [b"{}\n", b"\x00 not json"], ids=["object", "garbage"])
    def test_a_manifest_sidecar_left_by_an_older_qpatch_is_never_read(self, tmp_path,
                                                                      content):
        prepared(tmp_path)
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        report = (tmp_path / "report_rbf.json").read_bytes()
        (tmp_path / "manifest.json").write_bytes(content)
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        assert (tmp_path / "report_rbf.json").read_bytes() == report
        assert (tmp_path / "manifest.json").read_bytes() == content

    def test_features_sidecar_with_an_old_front_end_block_is_accepted(self, tmp_path):
        # a features.json written by an older qpatch, which recorded the front end
        prepared(tmp_path)
        sidecar = tmp_path / "features.json"
        made_under = json.loads(sidecar.read_text())
        made_under["front_end"] = {"f_high": 8000.0, "f_low": 0.0, "fft_size": 1024,
                                   "hop_ms": 10.0, "n_mels": 64,
                                   "sample_rate": 16000, "win_ms": 25.0}
        sidecar.write_text(json.dumps(made_under, indent=2, sort_keys=True) + "\n")
        for kind in ("quantum", "rbf"):
            assert run_stage(tmp_path, "train-eval", "--kind", kind) == 0
            assert (tmp_path / f"report_{kind}.json").exists()

    def test_a_features_record_of_an_older_qpatch_is_refused(self, tmp_path):
        # it recorded k, patch_size and a digest of manifest.csv and manifest.json
        prepared(tmp_path)
        (tmp_path / "features.json").write_text(json.dumps(
            {"k": 2, "manifest": "0" * 64, "patch_size": 4}, indent=2, sort_keys=True) + "\n")
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2
        assert not (tmp_path / "gram_rbf.csv").exists()
        assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(
            "features.csv was made under another manifest, split_counts, spoof_config; "
            "rerun synth")

    def test_failed_synth_leaves_no_sidecar_for_the_old_manifest(self, tmp_path):
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 6, seed=11)
        args = base_args(tmp_path, "--input-dir", corpus)
        assert main(args + ["synth"]) == 0
        # the last file is unreadable: synth fails after rewriting some spoofs
        last = corpus / "utt005.wav"
        audio = last.read_bytes()
        last.write_bytes(b"not audio")
        assert main(args + ["--seed", "8", "synth"]) == 2
        last.write_bytes(audio)
        assert (tmp_path / "manifest.csv").exists()
        assert not (tmp_path / "features.json").exists()
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 2


DIGEST_REFUSAL = "features.csv does not match the sha256 in features.json; rerun synth"
MANIFEST_REFUSAL = "features.csv was made under another manifest; rerun synth"


def _edit_line(path, line, edit):
    """Replace line `line` (0 is the header) of a text file with edit(line)."""
    lines = path.read_text().splitlines()
    lines[line] = edit(lines[line])
    path.write_text("\n".join(lines) + "\n")


def _set_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


def _rows_of_k_4(path):
    """Rewrite a k = 2 features.csv with k = 4 rows: each row's statistics twice."""
    rows = patches.read_features_csv(path)
    patches.write_features_csv(path, [(uid, label, np.tile(stats, 2), np.zeros((4, 2), int))
                                      for uid, label, stats in rows])


def _relabel_first_train_bonafide(path):
    line = next(i for i, s in enumerate(path.read_text().splitlines())
                if s.split(",")[2:4] == ["bonafide", "train"])
    _edit_line(path, line, lambda s: _set_field(s, 2, "spoof"))


def _keep_columns(path, columns):
    """Rewrite a CSV file keeping only the given columns of every line."""
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[i] for i in columns) + "\n"
                            for line in lines))


# (file to damage, damage, stage that reads it, what the error must name); every
# change to manifest.csv or features.csv is refused by the sha256 that
# features.json holds for it
MALFORMED = {
    "features_short_row": ("features.csv",
                           lambda p: _edit_line(p, 3, lambda s: s.rsplit(",", 1)[0]),
                           "train-eval --kind rbf", DIGEST_REFUSAL),
    "features_non_numeric": ("features.csv",
                             lambda p: _edit_line(p, 2, lambda s: _set_field(s, 2, "abc")),
                             "train-eval --kind rbf", DIGEST_REFUSAL),
    # utt003, a train row at the default seed
    "features_nan": ("features.csv",
                     lambda p: _edit_line(p, 4, lambda s: _set_field(s, 2, "nan")),
                     "train-eval --kind quantum", DIGEST_REFUSAL),
    # six values and three corner columns: every row is as wide as the header
    "features_header_not_k_patches": ("features.csv",
                                      lambda p: _keep_columns(p, [*range(8), 10, 11, 12]),
                                      "train-eval --kind rbf", DIGEST_REFUSAL),
    "features_duplicate_id": ("features.csv",
                              lambda p: _edit_line(p, 12, lambda s: f"{s}\n{s}"),
                              "train-eval --kind rbf", DIGEST_REFUSAL),
    "manifest_three_fields": ("manifest.csv",
                              lambda p: _edit_line(p, 1, lambda s: s.rsplit(",", 2)[0]),
                              "train-eval --kind rbf", MANIFEST_REFUSAL),
    "manifest_unknown_split": ("manifest.csv",
                               lambda p: _edit_line(p, 1, lambda s: _set_field(s, 3, "test")),
                               "train-eval --kind rbf", MANIFEST_REFUSAL),
    # the first train bona fide row relabeled: the train split holds 3 bona fide and 5 spoofs
    "manifest_unbalanced": ("manifest.csv", _relabel_first_train_bonafide,
                            "train-eval --kind rbf", MANIFEST_REFUSAL),
    # every row of another k, beside the k = 2 sidecar: train-eval refuses it for either kind
    "features_rows_of_k_4": ("features.csv", _rows_of_k_4, "train-eval --kind quantum",
                             DIGEST_REFUSAL),
    "features_rows_of_k_4_train_eval": ("features.csv", _rows_of_k_4, "train-eval --kind rbf",
                                        DIGEST_REFUSAL),
    # every row moved to dev: the empty train split, which the RBF gamma would
    # otherwise meet as an internal error, is refused by the manifest's sha256
    "manifest_empty_split": ("manifest.csv",
                             lambda p: p.write_text(p.read_text().replace(",train,", ",dev,")),
                             "train-eval --kind rbf", MANIFEST_REFUSAL),
    "features_json_list": ("features.json", lambda p: p.write_text("[1]\n"),
                           "train-eval --kind rbf", "features.json is missing or holds no"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_stage_input_exits_2_naming_the_file(tmp_path, case):
    name, damage, stage, expected = MALFORMED[case]
    prepared(tmp_path)
    damage(tmp_path / name)
    assert run_stage(tmp_path, stage) == 2
    log_text = (tmp_path / "run.log").read_text()
    assert "Traceback" not in log_text
    assert expected in log_text.splitlines()[-1]
    assert not list(tmp_path.glob("gram_*.csv"))


@pytest.mark.parametrize("case", [case for case in MALFORMED if case.startswith("manifest_")])
def test_a_damaged_manifest_is_refused_before_either_file_is_parsed(tmp_path, monkeypatch,
                                                                     case):
    name, damage, stage, expected = MALFORMED[case]
    prepared(tmp_path)
    damage(tmp_path / name)

    parsed = []  # the path of each file a reader is asked to parse
    monkeypatch.setattr(qpatch.spoof, "read_manifest", parsed.append)
    monkeypatch.setattr(patches, "read_features_csv", parsed.append)
    assert run_stage(tmp_path, stage) == 2
    assert parsed == []
    assert (tmp_path / "run.log").read_text().splitlines()[-1].endswith(expected)
    assert not list(tmp_path.glob("gram_*.csv"))


def key_paths(obj, prefix=""):
    """All nested key paths of a JSON-like dict, ignoring leaf values."""
    if not isinstance(obj, dict):
        return {prefix}
    out = set()
    for key, val in obj.items():
        out |= key_paths(val, f"{prefix}.{key}")
    return out


class TestRunAll:
    def test_produces_both_reports_with_equal_schema(self, tmp_path):
        assert main(base_args(tmp_path) + ["run-all"]) == 0
        q = json.loads((tmp_path / "report_quantum.json").read_text())
        r = json.loads((tmp_path / "report_rbf.json").read_text())
        assert key_paths(q) == key_paths(r)
        assert q["kernel"]["gamma_resolved"] is None
        assert r["kernel"]["gamma_resolved"] > 0
        assert q["svm"]["converged"] is True and r["svm"]["converged"] is True
        # per kind, two CSV exports holding the bytes np.savetxt writes for the
        # train Gram and cross rows of the kernel of the stacked train and dev rows
        kernel_files = {path.name for path in tmp_path.iterdir()
                        if path.name.startswith(("kernel_", "gram_", "cross_", "dev_"))}
        assert kernel_files == {f"{name}_{kind}.csv" for kind in cli.KINDS
                                for name in ("gram", "cross")}
        rows = {uid: stats for uid, _, stats in
                patches.read_features_csv(tmp_path / "features.csv")}
        manifest = read_manifest(tmp_path / "manifest.csv")
        x = np.array([rows[e.uid] for split in ("train", "dev")
                      for e in manifest if e.split == split])
        for kind in cli.KINDS:
            params = json.loads((tmp_path / f"model_{kind}.json").read_text())["kernel_params"]
            k = kernel_matrix(x, **params)
            for name, block in (("gram", k[:8, :8]), ("cross", k[8:, :8])):
                expected = io.BytesIO()
                np.savetxt(expected, block, delimiter=",", fmt="%.17g")
                csv = tmp_path / f"{name}_{kind}.csv"
                assert csv.read_bytes() == expected.getvalue(), csv.name

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("corpus", ["built_in", "input_dir"])
    def test_each_source_lies_in_one_split(self, tmp_path, corpus, seed):
        """run-all's manifest, of the built-in voices or of seven speaker-named
        files given by --input-dir, keeps each source in one split."""
        extra = []
        if corpus == "input_dir":
            from qpatch.spoof import generate_synthetic_corpus
            for i, path in enumerate(generate_synthetic_corpus(tmp_path / "made", 7, seed=11)):
                path.rename(path.with_name(f"spk{i % 3}-take{i // 3}.wav"))
            extra = ["--input-dir", tmp_path / "made"]
        assert main(base_args(tmp_path / "w", "--seed", seed, *extra) + ["run-all"]) == 0
        assert_split_by_source(read_manifest(tmp_path / "w" / "manifest.csv"), 4, 2)

    def test_two_runs_same_config_are_byte_identical(self, tmp_path, monkeypatch):
        # same work dir *name* from two different parents, so every stored
        # path string matches and whole artifacts can be compared as bytes
        for sub in ("a", "b"):
            parent = tmp_path / sub
            parent.mkdir()
            monkeypatch.chdir(parent)
            assert main(["--work-dir", "work", "--train-per-class", "4",
                         "--dev-per-class", "2", "run-all"]) == 0
        names = ["manifest.csv", "features.csv", "gram_quantum.csv",
                 "gram_rbf.csv", "cross_quantum.csv", "cross_rbf.csv",
                 "model_quantum.json", "model_rbf.json",
                 "report_quantum.json", "report_rbf.json",
                 "roc_quantum.csv", "roc_rbf.csv"]
        for name in names:
            a = (tmp_path / "a" / "work" / name).read_bytes()
            b = (tmp_path / "b" / "work" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_stage_by_stage_writes_the_bytes_of_run_all(self, tmp_path, monkeypatch):
        """synth, then train-eval per kind write what run-all
        writes, sidecars included: every file but run.log. Per kind that is
        the model, report, ROC and the gram_ and cross_ exports, and no
        stored kernel."""
        monkeypatch.chdir(tmp_path)
        args = ["--work-dir", "work", "--train-per-class", "4", "--dev-per-class", "2"]
        assert main(args + ["run-all"]) == 0
        (tmp_path / "work").rename(tmp_path / "run_all")
        assert main(args + ["synth"]) == 0
        for kind in cli.KINDS:
            assert main(args + ["train-eval", "--kind", kind]) == 0

        def files(root):
            return sorted(str(path.relative_to(root)) for path in root.rglob("*")
                          if path.is_file() and path.name != "run.log")

        names = files(tmp_path / "run_all")
        assert len(names) == 25 and files(tmp_path / "work") == names
        assert {f"{name}_{kind}.{ext}" for kind in cli.KINDS
                for name, ext in (("model", "json"), ("report", "json"), ("roc", "csv"),
                                  ("gram", "csv"), ("cross", "csv"))} <= set(names)
        assert not [name for name in names if name.startswith("kernel_")]
        for name in names:
            one, two = tmp_path / "run_all" / name, tmp_path / "work" / name
            assert one.read_bytes() == two.read_bytes(), name

    def test_train_eval_is_the_one_stage_per_kind(self, tmp_path, capsys):
        """The kernel subcommand is gone: argparse refuses it. The
        kernel_<kind>.npy and .json an older qpatch left are never read."""
        prepared(tmp_path)
        with pytest.raises(SystemExit) as done:
            run_stage(tmp_path, "kernel", "--kind", "rbf")
        assert done.value.code == 2
        assert "invalid choice: 'kernel'" in capsys.readouterr().err
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        written = {path.name: path.read_bytes() for path in tmp_path.glob("*_rbf.*")}
        assert sorted(written) == ["cross_rbf.csv", "gram_rbf.csv", "model_rbf.json",
                                   "report_rbf.json", "roc_rbf.csv"]
        for name in ("kernel_rbf.npy", "kernel_rbf.json"):
            (tmp_path / name).write_bytes(b"left by an older qpatch")
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        for name, data in written.items():
            assert (tmp_path / name).read_bytes() == data, name

    def test_the_features_stage_is_gone(self, tmp_path, capsys):
        """synth writes features.csv; argparse refuses the former features stage."""
        with pytest.raises(SystemExit) as done:
            run_stage(tmp_path, "features")
        assert done.value.code == 2
        assert "invalid choice: 'features'" in capsys.readouterr().err
        assert not (tmp_path / "run.log").exists()


def usable_cpus(monkeypatch, n):
    """Make the worker pool see n usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


BYTE_IDENTICAL = ["manifest.csv", "features.json", "features.csv",
                  *(f"{name}_{kind}.{ext}" for kind in cli.KINDS
                    for name, ext in (("gram", "csv"), ("cross", "csv"),
                                      ("report", "json"), ("roc", "csv")))]


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux")
class TestWorkers:
    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch):
        for n in (1, 2):
            parent = tmp_path / f"cpus{n}"
            parent.mkdir()
            monkeypatch.chdir(parent)
            usable_cpus(monkeypatch, n)
            assert main(["--work-dir", "work", "--train-per-class", "4",
                         "--dev-per-class", "2", "run-all"]) == 0
        for name in BYTE_IDENTICAL:
            one = (tmp_path / "cpus1" / "work" / name).read_bytes()
            two = (tmp_path / "cpus2" / "work" / name).read_bytes()
            assert one == two, f"{name} differs between one and two workers"

    def test_a_worker_that_dies_fails_the_stage(self, tmp_path):
        # a fresh interpreter under a timeout: a map that hung would fail here
        code = textwrap.dedent("""
            import os
            from qpatch import cli, spoof
            os.sched_getaffinity = lambda pid: {0, 1}
            parent, spoof_one = os.getpid(), spoof._spoof_one
            def dies_in_a_worker(path, *args):
                if os.getpid() != parent and path.stem == "utt002":
                    os._exit(3)
                return spoof_one(path, *args)
            spoof._spoof_one = dies_in_a_worker
            args = ["--work-dir", "w", "--train-per-class", "4", "--dev-per-class", "2"]
            print(cli.main(args + ["synth"]))
        """)
        done = run_fresh_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]
        assert "exited with code 3 before sending its results" in (
            tmp_path / "w" / "run.log").read_text()
        assert not list((tmp_path / "w" / "spoof").glob("*.wav"))
        for name in ("features.json", "features.csv"):
            assert not (tmp_path / "w" / name).exists(), name

    def test_an_input_error_in_a_kind_chain_exits_2(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        kernel = cli.cmd_kernel

        def refuses_rbf(config, kind):
            if kind == "rbf":
                raise cli.CliInputError("rbf input refused")
            return kernel(config, kind)

        monkeypatch.setattr(cli, "cmd_kernel", refuses_rbf)
        assert main(base_args(tmp_path) + ["run-all"]) == 2
        log_text = (tmp_path / "run.log").read_text()
        assert "Traceback" not in log_text
        assert log_text.splitlines()[-1].endswith("rbf input refused")
        assert (tmp_path / "report_quantum.json").exists()
        assert not (tmp_path / "report_rbf.json").exists()

    def test_run_all_never_imports_numpy_ma(self, tmp_path):
        """np.unique imports numpy.ma in every process that calls it; the ROC
        of a one-CPU run-all, which runs every stage in this process, does
        without it."""
        code = textwrap.dedent("""
            import os, sys
            os.sched_getaffinity = lambda pid: {0}
            from qpatch import cli
            args = ["--work-dir", "w", "--train-per-class", "4", "--dev-per-class", "2"]
            print(cli.main(args + ["run-all"]), "numpy.ma" in sys.modules)
        """)
        done = run_fresh_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_import_runs_blas_on_one_thread(tmp_path):
    code = textwrap.dedent(f"""
        import os
        for name in {BLAS_THREAD_VARS!r}:
            os.environ.pop(name, None)  # as a caller that set none of them
        import qpatch.cli
        print(len(os.listdir("/proc/self/task")))
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


def test_a_blas_thread_count_set_by_the_caller_is_kept(tmp_path):
    code = textwrap.dedent("""
        import os
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        import qpatch.cli
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]


class TestConfigHandling:
    def test_config_file_is_honored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path / "w"), "k": 1,
                                   "train_per_class": 4, "dev_per_class": 2}))
        assert main(["--config", str(cfg), "synth"]) == 0
        header = (tmp_path / "w" / "features.csv").read_text().splitlines()[0]
        assert sum(1 for h in header.split(",") if h.startswith("x")) == 4

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path / "w"), "k": 1,
                                   "train_per_class": 4, "dev_per_class": 2}))
        assert main(["--config", str(cfg), "--k", "2", "synth"]) == 0
        header = (tmp_path / "w" / "features.csv").read_text().splitlines()[0]
        assert sum(1 for h in header.split(",") if h.startswith("x")) == 8

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path / "w"), "snr": 10}))
        assert main(["--config", str(cfg), "synth"]) == 2

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "synth"]) == 2

    def test_numeric_gamma_flag(self, tmp_path):
        prepared(tmp_path)
        assert main(base_args(tmp_path, "--gamma", "0.25")
                    + ["train-eval", "--kind", "rbf"]) == 0
        model = json.loads((tmp_path / "model_rbf.json").read_text())
        assert model["kernel_params"]["gamma"] == 0.25
        # a config file's integer gamma is recorded as that integer
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 2}))
        assert main(base_args(tmp_path, "--config", config)
                    + ["train-eval", "--kind", "rbf"]) == 0
        model = json.loads((tmp_path / "model_rbf.json").read_text())
        assert model["kernel_params"] == {"kind": "rbf", "gamma": 2}
        assert type(model["kernel_params"]["gamma"]) is int

    @pytest.mark.parametrize("bad", [{"k": 3}, {"k": 0}, {"depth": 4}, {"depth": 0},
                                     {"s3_axis": "W"}, {"patch_size": 1},
                                     {"patch_size": 5},
                                     {"gamma": "foo"}, {"gamma": -5},
                                     {"train_per_class": 0}, {"dev_per_class": -3},
                                     {"tilt_low": 2}, {"tilt_low": 0.5, "tilt_high": 0.1},
                                     {"snr_db": float("nan")}, {"snr_db": 4000},
                                     {"snr_db": -4000},
                                     {"seed": -1}, {"svm_c": 0},
                                     {"seed": "x"}, {"depth": 1.0},
                                     {"k": True}, {"input_dir": 5},
                                     # the front end's former fields, at values they refused
                                     {"fft_size": 256}, {"n_mels": "64"},
                                     {"fft_size": 1024.5}, {"f_high": 9000.0},
                                     {"f_low": 8000.0}, {"n_mels": 0}, {"hop_ms": 0},
                                     {"win_ms": 0},
                                     # and at their old defaults
                                     {"win_ms": 25.0}, {"hop_ms": 10.0}, {"fft_size": 1024},
                                     {"n_mels": 64}, {"f_low": 0.0}, {"f_high": 8000.0},
                                     # the patch side's former field, at its old default
                                     {"patch_size": 4}],
                             ids=["k3", "k0", "depth4", "depth0", "axisW",
                                  "patch1", "patch5", "gammafoo", "gammaneg",
                                  "train0", "devneg3", "tilt2", "tiltreversed", "snrnan",
                                  "snr4000", "snrneg4000",
                                  "seedneg", "svmc0", "seedstr", "depthfloat",
                                  "ktrue", "inputint",
                                  "fft256", "melsstr", "fftfloat", "fhigh9000",
                                  "flowhigh", "mels0", "hop0", "win0",
                                  "win_ms", "hop_ms", "fft_size",
                                  "n_mels", "f_low", "f_high", "patch_size"])
    def test_bad_config_exits_before_any_work(self, tmp_path, bad, capsys):
        cfg = tmp_path / "cfg.json"
        # the small split sits in the file, so a bad split value can override it
        cfg.write_text(json.dumps({"train_per_class": 4, "dev_per_class": 2, **bad}))
        code = main(["--work-dir", str(tmp_path / "w"), "--config", str(cfg), "run-all"])
        assert code == 2
        assert not (tmp_path / "w" / "features.csv").exists()
        assert not (tmp_path / "w").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        removed = bad.keys() - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if removed:
            assert f"unknown config keys: {sorted(removed)}" in err

    def test_readme_configuration_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "exp.json").write_text(example)
        config = load_config(tmp_path / "exp.json")
        assert {key: getattr(config, key) for key in json.loads(example)} == json.loads(example)

    @pytest.mark.parametrize("flag", [["--k", "3"], ["--depth", "4"]], ids=["k3", "depth4"])
    def test_bad_flag_exits_before_any_work(self, tmp_path, flag):
        assert main(base_args(tmp_path, *flag) + ["run-all"]) == 2
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        (["--patch-size", "4"], "invalid choice: '4'"),
        (["--patch-size=4"], "unrecognized arguments: --patch-size=4")], ids=["spaced", "joined"])
    def test_the_patch_size_flag_is_gone(self, tmp_path, capsys, flag, message):
        with pytest.raises(SystemExit) as done:
            main(base_args(tmp_path, *flag) + ["run-all"])
        assert done.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.log").exists()

    def test_an_unusable_work_dir_exits_2_naming_it(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        work = blocker / "work"
        assert main(base_args(work) + ["run-all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(work) in err
        assert "Traceback" not in err

    def test_run_log_is_written(self, tmp_path):
        run_synth(tmp_path)
        log_text = (tmp_path / "run.log").read_text()
        assert "manifest" in log_text

    def test_warnings_reach_run_log(self, tmp_path):
        from scipy.io import wavfile
        from qpatch.spoof import generate_synthetic_corpus
        corpus = tmp_path / "voices"
        generate_synthetic_corpus(corpus, 6, seed=11)
        wav = sorted(corpus.glob("*.wav"))[0]
        rate, mono = wavfile.read(wav)
        wavfile.write(wav, rate, np.stack([mono, mono], axis=1))
        assert main(base_args(tmp_path / "w", "--input-dir", corpus) + ["synth"]) == 0
        log_text = (tmp_path / "w" / "run.log").read_text()
        assert f"{wav}: averaging 2 channels to mono" in log_text


def test_run_all_on_resampled_inputs_needs_no_scipy(tmp_path):
    """A fresh interpreter in which scipy cannot be imported runs run-all on
    44.1 and 48 kHz WAVs, so every stage resamples, and loads no scipy module."""
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import numpy as np
        from qpatch import dsp
        from qpatch.cli import main
        rng = np.random.default_rng(3)
        for i in range(6):
            rate = (44100, 48000)[i % 2]
            t = np.arange(rate // 4) / rate
            tone = 0.3 * np.sin(2 * np.pi * rng.uniform(100, 300) * t)
            noise = 0.05 * rng.standard_normal(t.size)
            dsp.save_wav(f"in/utt{i}.wav", dsp.Waveform(tone + noise, rate))
        code = main(["--work-dir", "w", "--input-dir", "in", "--train-per-class", "4",
                     "--dev-per-class", "2", "run-all"])
        assert code == 0, code
        loaded = [m for m, module in sys.modules.items()
                  if m.split(".")[0] == "scipy" and module is not None]
        assert not loaded, loaded
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "w" / "report_quantum.json").exists()


# numpy's x86-64-v2 baseline loops in place of its AVX2 and AVX-512 ones, and
# OpenBLAS's Haswell kernels in place of the ones it picks for this CPU
OTHER_CPU_PATHS = {
    "numpy_x86_64_v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
# the largest change measured on the default workload under these two settings
# was 1.3e-15 in a feature and 2.1e-15 in a kernel entry
CPU_PATH_ATOL = 1e-14


def run_default_run_all(cwd, **env):
    """Default run-all into cwd/run in a new interpreter, with env added."""
    cwd.mkdir(parents=True, exist_ok=True)
    done = run_fresh_python("import sys\nfrom qpatch.cli import main\n"
                            "sys.exit(main(['--work-dir', 'run', 'run-all']))", cwd, **env)
    assert done.returncode == 0, done.stderr
    return cwd / "run"


@pytest.fixture(scope="module")
def native_default_run(tmp_path_factory):
    return run_default_run_all(tmp_path_factory.mktemp("native"))


@pytest.mark.parametrize("setting", list(OTHER_CPU_PATHS))
def test_default_run_all_agrees_on_other_cpu_code_paths(tmp_path, native_default_run, setting):
    """Byte identity holds on one machine, numpy build and BLAS build. Another
    CPU's SIMD loops or BLAS kernel may move the features and kernels in
    their last bits; the audio must stay the same bytes, the features and
    kernels within CPU_PATH_ATOL, and AUROC and EER exactly. Where this CPU
    lacks the disabled features (no AVX2 or AVX-512, or not x86) numpy
    ignores the setting, and the test compares identical builds."""
    native = native_default_run
    other = run_default_run_all(tmp_path, **OTHER_CPU_PATHS[setting])
    assert (other / "manifest.csv").read_bytes() == (native / "manifest.csv").read_bytes()
    wavs = sorted(path.relative_to(native) for path in native.rglob("*.wav"))
    assert len(wavs) == 100
    assert sorted(path.relative_to(other) for path in other.rglob("*.wav")) == wavs
    for wav in wavs:
        assert (other / wav).read_bytes() == (native / wav).read_bytes(), wav
    rows = [patches.read_features_csv(run / "features.csv") for run in (native, other)]
    assert [row[:2] for row in rows[1]] == [row[:2] for row in rows[0]]
    np.testing.assert_allclose([row[2] for row in rows[1]], [row[2] for row in rows[0]],
                               rtol=0, atol=CPU_PATH_ATOL)
    for kind in cli.KINDS:
        for name in (f"gram_{kind}.csv", f"cross_{kind}.csv"):
            np.testing.assert_allclose(np.loadtxt(other / name, delimiter=","),
                                       np.loadtxt(native / name, delimiter=","),
                                       rtol=0, atol=CPU_PATH_ATOL)
        reports = [json.loads((run / f"report_{kind}.json").read_text())
                   for run in (native, other)]
        for name in ("auroc", "eer"):
            assert reports[1][name] == reports[0][name], (kind, name)


def run_fresh_python(code, cwd, **env):
    """Run code in a new interpreter that imports qpatch from this checkout,
    with env added to this process's environment. It runs in its own
    session, so a timeout kills every worker it forked along with it."""
    src = str(Path(qpatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_benchmark_tracer_finds_every_function_it_wraps(tmp_path):
    """perfbench/tracing.py wraps qpatch functions by name (save_gram,
    load_gram, metrics.fidelity_kernel, ...); a rename must fail here, not
    only in a traced benchmark run. A 44.1 kHz clip through the installed
    tracer must record the resample its wrapper reads the rate of."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(perfbench)!r})
        import numpy as np
        import tracing
        from qpatch import dsp
        tracer = tracing.Tracer()
        tracing.install(tracer)
        dsp.logmel_spectrogram(dsp.Waveform(np.zeros(4410), 44100))
        names = [span[0] for span in tracer.spans]
        assert "dsp.resample_to" in names, names
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
