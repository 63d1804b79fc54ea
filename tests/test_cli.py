"""End-to-end tests for the command line pipeline.

Every test drives the real entry point in process via main([...]) so the
argparse wiring, exit codes, and artifact layout are all exercised exactly
as a shell user would see them.
"""

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
from qpatch import cli, dsp, patches
from qpatch.metrics import auroc
from qpatch.spoof import read_manifest
from qpatch.svm import decision_scores

from _oracles import rbf_kernel


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
    def test_writes_one_row_per_utterance(self, tmp_path):
        run_synth(tmp_path)
        assert run_stage(tmp_path, "features") == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 12
        header = lines[0].split(",")
        assert header[:2] == ["id", "label"]
        assert sum(1 for h in header if h.startswith("x")) == 8  # k=2
        made_under = json.loads((tmp_path / "features.json").read_text())
        assert made_under["k"] == 2 and made_under["patch_size"] == 4
        assert made_under["front_end"] == {"f_high": 8000.0, "f_low": 0.0, "fft_size": 1024,
                                           "hop_ms": 10.0, "n_mels": 64,
                                           "sample_rate": 16000, "win_ms": 25.0}

    def test_k_controls_vector_length(self, tmp_path):
        run_synth(tmp_path)
        assert main(base_args(tmp_path, "--k", 1) + ["features"]) == 0
        header = (tmp_path / "features.csv").read_text().splitlines()[0]
        assert sum(1 for h in header.split(",") if h.startswith("x")) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        run_synth(tmp_path)
        run_stage(tmp_path, "features")
        first = (tmp_path / "features.csv").read_bytes()
        run_stage(tmp_path, "features")
        assert (tmp_path / "features.csv").read_bytes() == first

    def test_missing_manifest_fails(self, tmp_path):
        assert run_stage(tmp_path, "features") == 2

    def test_unreadable_wav_is_skipped_with_error_exit(self, tmp_path):
        run_synth(tmp_path)
        (tmp_path / "bonafide" / "utt002.wav").write_bytes(b"not audio")
        assert run_stage(tmp_path, "features") == 2
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 11  # the bad file is missing, the rest survive
        assert not any(line.startswith("utt002,") for line in lines)

    def test_a_rate_needing_a_huge_resampling_filter_is_skipped(self, tmp_path):
        """A WAV that synth read and that needs a filter above the bound (here
        swapped in behind synth's back) is skipped with the reason."""
        run_synth(tmp_path)
        wav = tmp_path / "bonafide" / "utt002.wav"
        sidecar = tmp_path / "manifest.json"
        facts = json.loads(sidecar.read_text())
        facts["wav_sha256"]["bonafide/utt002.wav"] = dsp.save_wav(
            wav, dsp.Waveform(np.zeros(4410), 44101))
        sidecar.write_text(json.dumps(facts))
        assert run_stage(tmp_path, "features") == 2
        log_text = (tmp_path / "run.log").read_text()
        assert "skipping utt002: sample rate 44101 Hz" in log_text
        assert "Traceback" not in log_text
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 11 and not any(line.startswith("utt002,") for line in lines)

    def test_an_internal_error_exits_1_and_skips_no_file(self, tmp_path, monkeypatch):
        """Only what a bad WAV raises skips its file: a bug in the code fails
        the stage as an internal error, with its traceback in run.log."""
        run_synth(tmp_path)

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a bad file")

        monkeypatch.setattr(patches, "extract_features", broken)
        assert run_stage(tmp_path, "features") == 1
        log_text = (tmp_path / "run.log").read_text()
        assert "internal error" in log_text and "Traceback" in log_text
        assert "a bug, not a bad file" in log_text and "skipping" not in log_text
        assert not (tmp_path / "features.csv").exists()


def prepared(tmp_path):
    run_synth(tmp_path)
    run_stage(tmp_path, "features")
    return tmp_path


def stored_model(work, kind):
    """model_<kind>.json as a dict, its arrays rebuilt, after checking that
    it holds exactly the solver's eight keys and the kernel's two, and that
    its scores of the stored kernel's dev x train rows give the report's AUROC."""
    model = json.loads((work / f"model_{kind}.json").read_text())
    assert set(model) == {"dual_coefs", "support_indices", "bias", "C", "n_train",
                          "kkt_gap", "n_iter", "converged", "kernel_params", "feature_ref"}
    model.update(dual_coefs=np.array(model["dual_coefs"]),
                 support_indices=np.array(model["support_indices"]))
    n = model["n_train"]
    # the kernel's rows are the manifest's train then dev entries in file order
    scores = decision_scores(model, np.load(work / f"kernel_{kind}.npy")[n:, :n])
    dev = [int(e.label == "bonafide") for e in read_manifest(work / "manifest.csv")
           if e.split == "dev"]
    report = json.loads((work / f"report_{kind}.json").read_text())
    assert auroc(scores, dev) == report["auroc"]
    return model


class TestKernel:
    def test_quantum_gram_shapes_and_diagonal(self, tmp_path):
        prepared(tmp_path)
        assert run_stage(tmp_path, "kernel", "--kind", "quantum") == 0
        gram = np.loadtxt(tmp_path / "gram_quantum.csv", delimiter=",")
        cross = np.loadtxt(tmp_path / "cross_quantum.csv", delimiter=",")
        assert gram.shape == (8, 8)
        assert cross.shape == (4, 8)
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
        sidecar = json.loads((tmp_path / "kernel_quantum.json").read_text())
        assert sidecar["params"] == {"kind": "quantum", "depth": 1, "s3_axis": "Z"}
        assert sorted(sidecar) == ["features", "manifest", "params", "sha256"]
        npy = (tmp_path / "kernel_quantum.npy").read_bytes()
        assert sidecar["sha256"] == hashlib.sha256(npy).hexdigest()
        kernel = np.load(tmp_path / "kernel_quantum.npy")
        assert kernel.shape == (12, 12)
        np.testing.assert_allclose(np.diag(kernel), 1.0, atol=1e-10)

    def test_rbf_differs_from_quantum(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        q = np.loadtxt(tmp_path / "gram_quantum.csv", delimiter=",")
        r = np.loadtxt(tmp_path / "gram_rbf.csv", delimiter=",")
        assert q.shape == r.shape
        assert not np.allclose(q, r)

    def test_missing_features_fails(self, tmp_path):
        run_synth(tmp_path)
        assert run_stage(tmp_path, "kernel", "--kind", "quantum") == 2

    @pytest.mark.parametrize("flag", [["--k", "4"], ["--patch-size", "8"]],
                             ids=["k", "patch_size"])
    def test_features_made_under_another_config_are_refused(self, tmp_path, flag):
        prepared(tmp_path)  # features at k 2, patch size 4
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        gram = (tmp_path / "gram_rbf.csv").read_bytes()
        for stage in (["kernel", "--kind", "rbf"], ["train-eval", "--kind", "rbf"]):
            assert main(base_args(tmp_path, *flag) + stage) == 2
        assert (tmp_path / "gram_rbf.csv").read_bytes() == gram
        assert not (tmp_path / "report_rbf.json").exists()
        field = flag[0][2:].replace("-", "_")
        assert f"features.csv was made under another {field}" in (
            tmp_path / "run.log").read_text()

    def test_features_without_their_sidecar_are_refused(self, tmp_path):
        prepared(tmp_path)
        (tmp_path / "features.json").unlink()
        assert run_stage(tmp_path, "kernel", "--kind", "quantum") == 2
        assert not (tmp_path / "gram_quantum.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        first = (tmp_path / "gram_quantum.csv").read_bytes()
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        assert (tmp_path / "gram_quantum.csv").read_bytes() == first


class TestTrainEval:
    def test_report_contents(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
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

    def test_missing_kernel_fails(self, tmp_path):
        prepared(tmp_path)
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2

    def test_rbf_structure_uses_the_models_gamma(self, tmp_path):
        """The structure block is computed with gamma_resolved (resolved on
        the train features), not with a gamma re-resolved on the dev set."""
        from qpatch.patches import read_features_csv
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        assert run_stage(tmp_path, "train-eval", "--kind", "rbf") == 0
        report = json.loads((tmp_path / "report_rbf.json").read_text())
        gamma = report["kernel"]["gamma_resolved"]
        # one dict is the kernel's identity: the sidecar's, the model's and the report's
        sidecar = json.loads((tmp_path / "kernel_rbf.json").read_text())
        model = stored_model(tmp_path, "rbf")
        assert sidecar["params"] == model["kernel_params"] == {"kind": "rbf", "gamma": gamma}
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
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        run_stage(tmp_path, "train-eval", "--kind", "rbf")
        model = stored_model(tmp_path, "rbf")
        assert model["n_train"] == 8
        assert model["kernel_params"]["kind"] == "rbf"
        assert model["feature_ref"] == str(tmp_path / "features.csv")

    def test_a_hand_edited_non_psd_kernel_is_refused(self, tmp_path):
        """A stored kernel edited to be symmetric, unit-diagonal and not PSD
        no longer has the sha256 its sidecar records: train-eval refuses it
        before training and writes nothing."""
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        path = tmp_path / "kernel_quantum.npy"
        k = np.load(path)
        k[0, 1] = k[1, 0] = 2.0  # the train minor [[1, 2], [2, 1]] has eigenvalue -1
        np.save(path, k)
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2
        last = (tmp_path / "run.log").read_text().splitlines()[-1]
        assert str(path) in last and last.endswith("rerun kernel --kind quantum")
        assert not (tmp_path / "model_quantum.json").exists()
        assert not (tmp_path / "report_quantum.json").exists()

    def test_kernel_files_from_another_depth_are_refused(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        code = main(base_args(tmp_path, "--depth", "2")
                    + ["train-eval", "--kind", "quantum"])
        assert code == 2
        assert not (tmp_path / "report_quantum.json").exists()
        assert "kernel_quantum.npy was made under another params" in (
            tmp_path / "run.log").read_text()

    def test_features_rerun_with_another_k_are_refused(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        assert main(base_args(tmp_path, "--k", "4") + ["features"]) == 0
        code = main(base_args(tmp_path, "--k", "4") + ["train-eval", "--kind", "rbf"])
        assert code == 2
        assert not (tmp_path / "report_rbf.json").exists()
        assert "kernel_rbf.npy was made under another features" in (
            tmp_path / "run.log").read_text()

    def test_cross_block_in_another_split_order_is_refused(self, tmp_path):
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        # the same entries in reverse order: kernel rows no longer line up
        manifest = tmp_path / "manifest.csv"
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([header, *rows[::-1]]) + "\n")
        assert run_stage(tmp_path, "features") == 0
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2
        assert "kernel_quantum.npy was made under another features, manifest" in (
            tmp_path / "run.log").read_text()

    def test_work_dir_in_the_three_block_layout_is_refused(self, tmp_path):
        # a work dir made when kernel wrote the train Gram, cross and dev
        # blocks as files of their own holds no kernel_<kind>.npy
        prepared(tmp_path)
        run_stage(tmp_path, "kernel", "--kind", "quantum")
        kernel = tmp_path / "kernel_quantum.npy"
        k, sidecar = np.load(kernel), kernel.with_suffix(".json").read_text()
        for block, values in (("gram", k[:8, :8]), ("cross", k[8:, :8]), ("dev", k[8:, 8:])):
            np.save(tmp_path / f"{block}_quantum.npy", values)
            (tmp_path / f"{block}_quantum.json").write_text(sidecar)
        kernel.unlink()
        kernel.with_suffix(".json").unlink()
        assert run_stage(tmp_path, "train-eval", "--kind", "quantum") == 2
        assert not (tmp_path / "report_quantum.json").exists()
        last = (tmp_path / "run.log").read_text().splitlines()[-1]
        assert "kernel_quantum.npy" in last and "kernel --kind quantum" in last


class TestMadeUnder:
    """Each artifact's .json sidecar records the config fields its stage read
    and the hashes of its input files; a later stage refuses a mismatch."""

    def test_manifest_sidecar_records_the_spoof_config_and_split(self, tmp_path):
        run_synth(tmp_path, "--seed", 8)
        made_under = json.loads((tmp_path / "manifest.json").read_text())
        assert made_under["spoof_config"] == {"seed": 8, "snr_db": 20.0,
                                              "tilt_high": 0.6, "tilt_low": -0.6}
        assert made_under["split_counts"] == {"train_per_class": 4, "dev_per_class": 2}

    @pytest.mark.parametrize("flag", [["--seed", "8"], ["--snr-db", "10"]],
                             ids=["seed", "snr_db"])
    def test_resynth_refuses_kernel_and_train_eval(self, tmp_path, flag):
        prepared(tmp_path)  # seed 7, 20 dB
        run_stage(tmp_path, "kernel", "--kind", "rbf")
        assert run_synth(tmp_path, *flag) == 0
        for stage in (["kernel", "--kind", "rbf"], ["train-eval", "--kind", "rbf"]):
            assert main(base_args(tmp_path, *flag) + stage) == 2
        assert not (tmp_path / "report_rbf.json").exists()
        assert "features.csv was made under another manifest; rerun features" in (
            tmp_path / "run.log").read_text()

    @pytest.mark.parametrize("flag", [["--seed", "8"], ["--snr-db", "10"]],
                             ids=["seed", "snr_db"])
    def test_features_under_another_config_than_synth_are_refused(self, tmp_path, flag):
        run_synth(tmp_path)
        assert main(base_args(tmp_path, *flag) + ["features"]) == 2
        assert not (tmp_path / "features.csv").exists()
        assert "manifest.csv was made under another spoof_config; rerun synth" in (
            tmp_path / "run.log").read_text()

    def test_wav_edited_after_synth_is_refused_by_features(self, tmp_path):
        prepared(tmp_path)
        made_under = json.loads((tmp_path / "manifest.json").read_text())
        manifest = (tmp_path / "manifest.csv").read_text().splitlines()[1:]
        assert sorted(made_under["wav_sha256"]) == sorted(
            line.split(",")[1] for line in manifest)
        # the spoof of utt000 was made from the old audio
        bonafide = tmp_path / "bonafide"
        (bonafide / "utt000.wav").write_bytes((bonafide / "utt001.wav").read_bytes())
        assert run_stage(tmp_path, "features") == 2
        log_text = (tmp_path / "run.log").read_text()
        assert f"{bonafide / 'utt000.wav'} is not the file synth read; rerun synth" in log_text
        rows = (tmp_path / "features.csv").read_text().splitlines()
        assert not any(row.startswith("utt000,") for row in rows)

    def test_manifest_without_its_sidecar_is_refused(self, tmp_path):
        run_synth(tmp_path)
        (tmp_path / "manifest.json").unlink()
        assert run_stage(tmp_path, "features") == 2
        assert not (tmp_path / "features.csv").exists()
        assert "manifest.json is missing" in (tmp_path / "run.log").read_text()

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
        assert not (tmp_path / "manifest.json").exists()
        assert run_stage(tmp_path, "features") == 2


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


def _set_entry(path, index, value):
    """Rewrite one entry of a .npy kernel block."""
    values = np.load(path)
    values[index] = value
    np.save(path, values)


def _keep_columns(path, columns):
    """Rewrite a CSV file keeping only the given columns of every line."""
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[i] for i in columns) + "\n"
                            for line in lines))


NPY_RBF_EDITED = ("kernel_rbf.npy has changed since it was written: sha256 mismatch; "
                  "rerun kernel --kind rbf")

# (file to damage, damage, stage that reads it, what the error must name)
MALFORMED = {
    "features_short_row": ("features.csv",
                           lambda p: _edit_line(p, 3, lambda s: s.rsplit(",", 1)[0]),
                           "kernel --kind rbf", "features.csv:4: expected 14 fields"),
    "features_non_numeric": ("features.csv",
                             lambda p: _edit_line(p, 2, lambda s: _set_field(s, 2, "abc")),
                             "kernel --kind rbf", "features.csv:3: non-numeric"),
    # a dev row (utt003): only the cross block would hold its nan
    "features_nan": ("features.csv",
                     lambda p: _edit_line(p, 4, lambda s: _set_field(s, 2, "nan")),
                     "kernel --kind quantum", "features.csv:5: non-finite value"),
    # six values and three corner columns: every row is as wide as the header
    "features_header_not_k_patches": ("features.csv",
                                      lambda p: _keep_columns(p, [*range(8), 10, 11, 12]),
                                      "kernel --kind rbf", "features.csv:1: header is not"),
    "features_duplicate_id": ("features.csv",
                              lambda p: _edit_line(p, 12, lambda s: f"{s}\n{s}"),
                              "kernel --kind rbf", "features.csv:14: duplicate id"),
    "manifest_three_fields": ("manifest.csv",
                              lambda p: _edit_line(p, 1, lambda s: s.rsplit(",", 2)[0]),
                              "features", "manifest.csv:2: expected 5 fields"),
    "manifest_unknown_split": ("manifest.csv",
                               lambda p: _edit_line(p, 1, lambda s: _set_field(s, 3, "test")),
                               "kernel --kind rbf", "manifest.csv:2: unknown label"),
    # utt000 relabeled: the train split holds 3 bona fide and 5 spoofs
    "manifest_unbalanced": ("manifest.csv",
                            lambda p: _edit_line(p, 1, lambda s: _set_field(s, 2, "spoof")),
                            "features", "manifest.csv: train split unbalanced: 3 bonafide vs 5"),
    # every row of another k, beside the k = 2 sidecar: kernel and train-eval refuse it
    "features_rows_of_k_4": ("features.csv", _rows_of_k_4, "kernel --kind quantum",
                             "features.csv has 16 statistics per row, not 4 * k = 8; "
                             "rerun features"),
    "features_rows_of_k_4_train_eval": ("features.csv", _rows_of_k_4, "train-eval --kind rbf",
                                        "features.csv has 16 statistics per row, "
                                        "not 4 * k = 8; rerun features"),
    # every row moved to dev: features refuses the empty train split, which
    # kernel --kind rbf would otherwise meet as an internal error
    "manifest_empty_split": ("manifest.csv",
                             lambda p: p.write_text(p.read_text().replace(",train,", ",dev,")),
                             "features", "manifest.csv: train split has no rows"),
    "features_json_list": ("features.json", lambda p: p.write_text("[1]\n"),
                           "kernel --kind rbf", "features.json is missing or holds no"),
    "gram_json_without_kernel_kind": (
        "kernel_rbf.json",
        lambda p: p.write_text(json.dumps({"config_hash": "0", "params": {"kind": "rbf"}})),
        "train-eval --kind rbf", "kernel_rbf.npy was made under another"),
    # a manifest.json written before synth recorded the WAVs it read
    "manifest_json_without_wav_hashes": (
        "manifest.json",
        lambda p: p.write_text(json.dumps(
            {k: v for k, v in json.loads(p.read_text()).items() if k != "wav_sha256"})),
        "features", "manifest.json records no wav_sha256; rerun synth"),
    # a kernel_rbf.json written before kernel recorded the .npy's sha256
    "kernel_json_without_sha256": (
        "kernel_rbf.json",
        lambda p: p.write_text(json.dumps(
            {k: v for k, v in json.loads(p.read_text()).items() if k != "sha256"})),
        "train-eval --kind rbf", "kernel_rbf.json records no sha256; rerun kernel --kind rbf"),
    # a damaged kernel: train-eval reads the .npy, not the CSV exports. Its 12
    # rows and columns are the 8 train then the 4 dev entries. A damaged entry
    # names its case for the block it lands in: the train Gram, the dev x
    # train cross rows or the dev Gram behind the structure report. A damage
    # to the whole file (0-d, truncated, wrong shape) keeps its case's name.
    # Every one changes the file's bytes, so its sha256 is not the sidecar's
    "cross_npy_nan": ("kernel_rbf.npy", lambda p: _set_entry(p, (9, 2), np.nan),
                      "train-eval --kind rbf", NPY_RBF_EDITED),
    "gram_npy_0d": ("kernel_rbf.npy", lambda p: np.save(p, np.float64(1.0)),
                    "train-eval --kind rbf", NPY_RBF_EDITED),
    "cross_npy_truncated": ("kernel_rbf.npy", lambda p: p.write_bytes(p.read_bytes()[:100]),
                            "train-eval --kind rbf", NPY_RBF_EDITED),
    "gram_npy_inf": ("kernel_rbf.npy", lambda p: _set_entry(p, (0, 1), np.inf),
                     "train-eval --kind rbf", NPY_RBF_EDITED),
    "gram_npy_asymmetric": ("kernel_rbf.npy",
                            lambda p: _set_entry(p, (0, 1), np.load(p)[0, 1] + 0.1),
                            "train-eval --kind rbf", NPY_RBF_EDITED),
    "gram_npy_diagonal_not_one": ("kernel_rbf.npy", lambda p: _set_entry(p, (2, 2), 0.5),
                                  "train-eval --kind rbf", NPY_RBF_EDITED),
    "cross_npy_wrong_shape": ("kernel_rbf.npy", lambda p: np.save(p, np.load(p)[:, :-1]),
                              "train-eval --kind rbf", NPY_RBF_EDITED),
    "dev_npy_nan": ("kernel_rbf.npy", lambda p: _set_entry(p, (9, 10), np.nan),
                    "train-eval --kind rbf", NPY_RBF_EDITED),
    "dev_npy_asymmetric": ("kernel_rbf.npy",
                           lambda p: _set_entry(p, (8, 9), np.load(p)[8, 9] + 0.1),
                           "train-eval --kind rbf", NPY_RBF_EDITED),
    "dev_npy_diagonal_not_one": ("kernel_rbf.npy", lambda p: _set_entry(p, (10, 10), 0.5),
                                 "train-eval --kind rbf", NPY_RBF_EDITED),
    # a cross entry and its mirror in the train x dev columns disagree
    "cross_npy_mirror": ("kernel_rbf.npy",
                         lambda p: _set_entry(p, (9, 2), np.load(p)[9, 2] + 0.1),
                         "train-eval --kind rbf", NPY_RBF_EDITED),
    "cross_npy_upper": ("kernel_rbf.npy",
                        lambda p: _set_entry(p, (2, 9), np.load(p)[2, 9] + 0.1),
                        "train-eval --kind rbf", NPY_RBF_EDITED),
    # the kernel of a split with one dev entry fewer
    "dev_npy_wrong_shape": ("kernel_rbf.npy", lambda p: np.save(p, np.load(p)[:-1, :-1]),
                            "train-eval --kind rbf", NPY_RBF_EDITED),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_stage_input_exits_2_naming_the_file(tmp_path, case):
    name, damage, stage, expected = MALFORMED[case]
    prepared(tmp_path)
    assert run_stage(tmp_path, "kernel", "--kind", "rbf") == 0
    damage(tmp_path / name)
    assert run_stage(tmp_path, stage) == 2
    log_text = (tmp_path / "run.log").read_text()
    assert "Traceback" not in log_text
    assert expected in log_text.splitlines()[-1]


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
        # per kind, one kernel and its sidecar, and two CSV exports holding
        # the bytes np.savetxt writes for its train Gram and cross rows
        kernel_files = {path.name for path in tmp_path.iterdir()
                        if path.name.startswith(("kernel_", "gram_", "cross_", "dev_"))}
        assert kernel_files == {f"{name}_{kind}.{ext}" for kind in cli.KINDS
                                for name, ext in (("kernel", "npy"), ("kernel", "json"),
                                                  ("gram", "csv"), ("cross", "csv"))}
        for kind in cli.KINDS:
            k = np.load(tmp_path / f"kernel_{kind}.npy")
            for name, block in (("gram", k[:8, :8]), ("cross", k[8:, :8])):
                expected = io.BytesIO()
                np.savetxt(expected, block, delimiter=",", fmt="%.17g")
                csv = tmp_path / f"{name}_{kind}.csv"
                assert csv.read_bytes() == expected.getvalue(), csv.name

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
        """synth, features, then kernel and train-eval per kind write what
        run-all writes, sidecars included: every file but run.log."""
        monkeypatch.chdir(tmp_path)
        args = ["--work-dir", "work", "--train-per-class", "4", "--dev-per-class", "2"]
        assert main(args + ["run-all"]) == 0
        (tmp_path / "work").rename(tmp_path / "run_all")
        assert main(args + ["synth"]) == 0
        assert main(args + ["features"]) == 0
        for stage in ("kernel", "train-eval"):
            for kind in cli.KINDS:
                assert main(args + [stage, "--kind", kind]) == 0

        def files(root):
            return sorted(str(path.relative_to(root)) for path in root.rglob("*")
                          if path.is_file() and path.name != "run.log")

        names = files(tmp_path / "run_all")
        assert len(names) == 30 and files(tmp_path / "work") == names
        for name in names:
            one, two = tmp_path / "run_all" / name, tmp_path / "work" / name
            assert one.read_bytes() == two.read_bytes(), name


def usable_cpus(monkeypatch, n):
    """Make the worker pool see n usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


BYTE_IDENTICAL = ["manifest.csv", "manifest.json", "features.csv",
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
            from qpatch import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            parent, extract = os.getpid(), cli._extract_one
            def dies_in_a_worker(entry, *args):
                if os.getpid() != parent and entry.uid == "utt002":
                    os._exit(3)
                return extract(entry, *args)
            cli._extract_one = dies_in_a_worker
            args = ["--work-dir", "w", "--train-per-class", "4", "--dev-per-class", "2"]
            assert cli.main(args + ["synth"]) == 0
            print(cli.main(args + ["features"]))
        """)
        done = run_fresh_python(code, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]
        assert "exited with code 3 before sending its results" in (
            tmp_path / "w" / "run.log").read_text()
        assert not (tmp_path / "w" / "features.csv").exists()

    def test_the_parent_logs_a_skipped_wav(self, tmp_path, monkeypatch, caplog):
        run_synth(tmp_path)
        (tmp_path / "bonafide" / "utt002.wav").write_bytes(b"not audio")
        usable_cpus(monkeypatch, 2)
        assert run_stage(tmp_path, "features") == 2
        # records that a worker logs never reach this process's caplog
        skipped = [r for r in caplog.records if r.getMessage().startswith("skipping utt002")]
        assert [r.process for r in skipped] == [os.getpid()]
        assert len((tmp_path / "features.csv").read_text().splitlines()) == 1 + 11

    def test_an_input_error_in_a_kind_chain_exits_2(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        kernel = cli.cmd_kernel

        def stale_rbf_sidecar(config, kind):
            kernel(config, kind)
            if kind == "rbf":
                (tmp_path / "kernel_rbf.json").write_text(json.dumps({"params": {}}))

        monkeypatch.setattr(cli, "cmd_kernel", stale_rbf_sidecar)
        assert main(base_args(tmp_path) + ["run-all"]) == 2
        log_text = (tmp_path / "run.log").read_text()
        assert "Traceback" not in log_text
        assert "kernel_rbf.npy was made under another" in log_text.splitlines()[-1]
        assert (tmp_path / "report_quantum.json").exists()

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
        assert main(["--config", str(cfg), "features"]) == 0
        header = (tmp_path / "w" / "features.csv").read_text().splitlines()[0]
        assert sum(1 for h in header.split(",") if h.startswith("x")) == 4

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"work_dir": str(tmp_path / "w"), "k": 1,
                                   "train_per_class": 4, "dev_per_class": 2}))
        main(["--config", str(cfg), "synth"])
        assert main(["--config", str(cfg), "--k", "2", "features"]) == 0
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
                    + ["kernel", "--kind", "rbf"]) == 0
        sidecar = json.loads((tmp_path / "kernel_rbf.json").read_text())
        assert sidecar["params"]["gamma"] == 0.25
        # a config file's integer gamma is recorded as that integer
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 2}))
        assert main(base_args(tmp_path, "--config", config)
                    + ["kernel", "--kind", "rbf"]) == 0
        sidecar = json.loads((tmp_path / "kernel_rbf.json").read_text())
        assert sidecar["params"] == {"kind": "rbf", "gamma": 2}
        assert type(sidecar["params"]["gamma"]) is int

    @pytest.mark.parametrize("bad", [{"k": 3}, {"k": 0}, {"depth": 4}, {"depth": 0},
                                     {"s3_axis": "W"}, {"patch_size": 1},
                                     {"patch_size": 5}, {"fft_size": 256},
                                     {"gamma": "foo"}, {"gamma": -5},
                                     {"train_per_class": 0}, {"dev_per_class": -3},
                                     {"tilt_low": 2}, {"tilt_low": 0.5, "tilt_high": 0.1},
                                     {"snr_db": float("nan")}, {"snr_db": 4000},
                                     {"snr_db": -4000},
                                     {"seed": -1}, {"svm_c": 0},
                                     {"seed": "x"}, {"depth": 1.0}, {"n_mels": "64"},
                                     {"k": True}, {"fft_size": 1024.5},
                                     {"input_dir": 5}, {"f_high": 9000.0},
                                     {"f_low": 8000.0}, {"n_mels": 0}, {"hop_ms": 0},
                                     {"win_ms": 0}],
                             ids=["k3", "k0", "depth4", "depth0", "axisW",
                                  "patch1", "patch5", "fft256", "gammafoo", "gammaneg",
                                  "train0", "devneg3", "tilt2", "tiltreversed", "snrnan",
                                  "snr4000", "snrneg4000",
                                  "seedneg", "svmc0", "seedstr", "depthfloat",
                                  "melsstr", "ktrue", "fftfloat", "inputint",
                                  "fhigh9000", "flowhigh", "mels0", "hop0", "win0"])
    def test_bad_config_exits_before_any_work(self, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        # the small split sits in the file, so a bad split value can override it
        cfg.write_text(json.dumps({"train_per_class": 4, "dev_per_class": 2, **bad}))
        code = main(["--work-dir", str(tmp_path / "w"), "--config", str(cfg), "run-all"])
        assert code == 2
        assert not (tmp_path / "w" / "features.csv").exists()
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("flag", [["--k", "3"], ["--depth", "4"]], ids=["k3", "depth4"])
    def test_bad_flag_exits_before_any_work(self, tmp_path, flag):
        assert main(base_args(tmp_path, *flag) + ["run-all"]) == 2
        assert not (tmp_path / "features.csv").exists()

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
    for name in ("manifest.csv", "manifest.json"):
        assert (other / name).read_bytes() == (native / name).read_bytes(), name
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
        np.testing.assert_allclose(np.load(other / f"kernel_{kind}.npy"),
                                   np.load(native / f"kernel_{kind}.npy"),
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
        from qpatch.config import ExperimentConfig
        tracer = tracing.Tracer()
        tracing.install(tracer)
        dsp.logmel_spectrogram(dsp.Waveform(np.zeros(4410), 44100), ExperimentConfig())
        names = [span[0] for span in tracer.spans]
        assert "dsp.resample_to" in names, names
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
