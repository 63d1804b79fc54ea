"""Front-end tests: framing, STFT against a direct DFT oracle, mel filterbank,
log standardization, WAV round trips."""

import io
import math
import re
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from qpatch.dsp import (
    EPS,
    Waveform,
    _polyphase,
    build_mel_filterbank,
    hann_window,
    hz_to_mel,
    load_wav,
    log_standardize,
    logmel_spectrogram,
    mel_energies,
    mel_to_hz,
    resample_to,
    save_wav,
    stft,
)


def dft_frame_oracle(samples, start, win_len, fft_size):
    """Direct DFT of one windowed frame: X[k] = sum_n w[n] x[start+n] e^{-2pi i k n / N}.

    Zero padding past the window contributes nothing, so the sum stops at
    win_len. Deliberately an explicit loop, independent of np.fft.
    """
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(win_len) / win_len))
    frame = samples[start:start + win_len] * window
    n_bins = fft_size // 2 + 1
    out = np.zeros(n_bins, dtype=complex)
    for k in range(n_bins):
        acc = 0.0 + 0.0j
        for n in range(win_len):
            acc += frame[n] * np.exp(-2j * np.pi * k * n / fft_size)
        out[k] = acc
    return out


def mel_energy_oracle(spectrum, weights):
    """Naive double loop: E[t, f] = sum_k |X[t, k]|^2 H[f, k], fsum for exactness."""
    n_frames, n_bins = spectrum.shape
    n_mels = weights.shape[0]
    out = np.zeros((n_frames, n_mels))
    for t in range(n_frames):
        for f in range(n_mels):
            out[t, f] = math.fsum(
                abs(spectrum[t, k]) ** 2 * weights[f, k] for k in range(n_bins))
    return out


def scipy_wav_oracle(path):
    """The reader load_wav replaced: scipy.io.wavfile with the same scaling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # unknown chunks
        rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, rate, bits, width, subformat=None):
    """A fmt chunk; with a subformat tag it is WAVE_FORMAT_EXTENSIBLE."""
    block = channels * width
    body = struct.pack("<HHIIHH", tag if subformat is None else 0xFFFE,
                       channels, rate, rate * block, block, bits)
    if subformat is not None:
        body += struct.pack("<HHII", 22, bits, 0, subformat) + GUID_TAIL
    return chunk(b"fmt ", body)


def pcm24(values):
    """Little-endian 3-byte two's complement samples."""
    return values.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def _wav_cases():
    """name -> file bytes, for every sample format load_wav reads."""
    rng = np.random.default_rng(40)
    i16 = rng.integers(-2 ** 15, 2 ** 15, size=(101, 2)).astype("<i2")
    i24 = rng.integers(-2 ** 23, 2 ** 23, size=(101, 2))
    f32 = rng.uniform(-1, 1, size=(101, 3)).astype("<f4")
    cases = {}
    for name, data in {"u8": rng.integers(0, 256, 101).astype(np.uint8),
                       "i16": i16[:, 0], "i16_stereo": i16,
                       "i32": rng.integers(-2 ** 31, 2 ** 31, 101).astype("<i4"),
                       "f32": f32[:, 0], "f32_3ch": f32,
                       "f64": rng.uniform(-1, 1, 101)}.items():
        buf = io.BytesIO()
        wavfile.write(buf, 44100, data)
        cases[name] = buf.getvalue()
    cases["i24"] = riff(fmt_chunk(1, 1, 44100, 24, 3), chunk(b"data", pcm24(i24[:, 0])))
    cases["i24_stereo"] = riff(fmt_chunk(1, 2, 48000, 24, 3),
                               chunk(b"data", pcm24(i24.ravel())))
    cases["ext_i16"] = riff(fmt_chunk(1, 1, 22050, 16, 2, subformat=1),
                            chunk(b"data", i16[:, 0].tobytes()))
    cases["ext_i24_stereo"] = riff(fmt_chunk(1, 2, 44100, 24, 3, subformat=1),
                                   chunk(b"data", pcm24(i24.ravel())))
    cases["ext_f32"] = riff(fmt_chunk(3, 1, 8000, 32, 4, subformat=3),
                            chunk(b"data", f32[:, 0].tobytes()))
    # unknown and odd-length chunks around fmt; an odd-length 8-bit data chunk
    cases["odd_chunks_u8"] = riff(chunk(b"JUNK", b"abc"), fmt_chunk(1, 1, 16000, 8, 1),
                                  chunk(b"LIST", b"INFOisft\x05\x00\x00\x00qpat\x00"),
                                  chunk(b"data", bytes(range(7))), chunk(b"zzzz", b"?"))
    return cases


WAV_CASES = _wav_cases()


class TestWaveform:
    """Waveform itself is unchecked; audio that would make a bad one is
    refused by load_wav, where it enters, for the reason it is bad."""

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(riff(fmt_chunk(1, 1, 16000, 16, 2), chunk(b"data", b"")))
        with pytest.raises(ValueError, match="no audio: 0 samples"):
            load_wav(path)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.wav"
        wavfile.write(path, 16000, np.array([0.0, np.nan, 0.25]))
        with pytest.raises(ValueError, match="non-finite samples"):
            load_wav(path)

    @pytest.mark.parametrize("peak", [1e300, 1.7e308])
    def test_rejects_float_samples_above_max_sample(self, tmp_path, peak):
        # finite, but their squares overflow in the SNR and STFT powers
        path = tmp_path / "loud.wav"
        wavfile.write(path, 16000, np.array([0.0, peak, -0.25]))
        with pytest.raises(ValueError, match=f"{path}: .*above 1e\\+100 in magnitude"):
            load_wav(path)

    def test_accepts_float_samples_above_one(self, tmp_path):
        path = tmp_path / "hot.wav"
        wavfile.write(path, 16000, np.array([0.0, 2.0, -1.5]))
        np.testing.assert_array_equal(load_wav(path).samples, [0.0, 2.0, -1.5])


class TestStft:
    def test_zero_signal_gives_zero_stft(self):
        w = Waveform(np.zeros(16000), 16000)
        out = stft(w)
        assert np.all(out == 0)

    def test_frame_count_one_second(self):
        # floor((16000 - 400) / 160) + 1
        w = Waveform(np.random.default_rng(0).standard_normal(16000) * 0.1, 16000)
        out = stft(w)
        assert out.shape == (98, 513)

    @pytest.mark.parametrize("n_samples,expected", [
        (400, 1),
        (559, 1),
        (560, 2),
        (16000, 98),
        (8000, 48),
    ])
    def test_frame_count_formula(self, n_samples, expected):
        w = Waveform(np.ones(n_samples) * 0.5, 16000)
        assert stft(w).shape[0] == expected
        assert expected == (n_samples - 400) // 160 + 1

    def test_too_short_raises(self):
        w = Waveform(np.zeros(399), 16000)
        with pytest.raises(ValueError, match="too short"):
            stft(w)

    def test_sine_peak_bin_and_dft_oracle(self):
        """1 kHz sine at 16 kHz: per-frame magnitude peaks at bin
        round(1000 * 1024 / 16000) = 64, and the frame matches a direct
        DFT summation."""
        t = np.arange(16000) / 16000.0
        w = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)
        out = stft(w)
        mags = np.abs(out)
        assert np.all(np.argmax(mags, axis=1) == 64)
        for frame_idx in (0, 7, 97):
            oracle = dft_frame_oracle(w.samples, frame_idx * 160, 400, 1024)
            np.testing.assert_allclose(out[frame_idx], oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_frames_match_dft_oracle(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(800) * 0.3
        out = stft(Waveform(samples, 16000))
        for frame_idx in range(out.shape[0]):
            oracle = dft_frame_oracle(samples, frame_idx * 160, 400, 1024)
            np.testing.assert_allclose(out[frame_idx], oracle, atol=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(1000) * 0.2
        scale = rng.uniform(0.1, 3.0)
        a = stft(Waveform(samples * scale, 16000))
        b = stft(Waveform(samples, 16000)) * scale
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_hann_window_periodic_formula(self):
        w = hann_window(400)
        n = np.arange(400)
        np.testing.assert_array_equal(w, 0.5 * (1 - np.cos(2 * np.pi * n / 400)))
        assert w[0] == 0.0
        # periodic form: w[L/2] is exactly 1
        assert w[200] == 1.0


class TestMelScale:
    def test_htk_formula(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip(self, seed):
        f = np.random.default_rng(seed).uniform(0, 8000, size=32)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)


def center_freqs(n_mels=64):
    """Filter centers: n_mels points uniform on the mel scale inside [0, 8 kHz]."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), n_mels + 2))[1:-1]


class TestMelFilterbank:
    def test_shapes_and_nonnegativity(self):
        fb = build_mel_filterbank()
        assert fb.shape == (64, 513)
        assert np.all(fb >= 0)
        assert np.all(fb.max(axis=1) > 0)
        with pytest.raises(ValueError, match="read-only"):
            fb[0, 0] = 1.0

    def test_center_freqs_monotone(self):
        """The centers rise with the filter index, and each filter's largest
        weight sits on the FFT bin nearest its center."""
        fb = build_mel_filterbank()
        centers = center_freqs()
        assert np.all(np.diff(centers) > 0)
        nearest = np.abs(np.arange(513)[None] * 16000 / 1024 - centers[:, None]).argmin(axis=1)
        np.testing.assert_array_equal(fb.argmax(axis=1), nearest)

    def test_rows_unimodal(self):
        """Each triangle rises then falls: the sign of the first difference
        changes at most once over the support."""
        fb = build_mel_filterbank()
        for row in fb:
            d = np.diff(row)
            signs = np.sign(d[d != 0])
            flips = np.count_nonzero(np.diff(signs) != 0)
            assert flips <= 1

    def test_disjoint_filters_at_distance_two(self):
        fb = build_mel_filterbank()
        centers = center_freqs()
        for m in range(2, 64):
            center_bin = int(round(centers[m - 2] * 1024 / 16000))
            # filter m's support starts at filter m-1's center
            assert fb[m, center_bin] == 0.0

    def test_triangle_values_match_scalar_oracle(self):
        fb = build_mel_filterbank()
        mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 66)
        hz_pts = mel_to_hz(mel_pts)
        bin_freqs = np.arange(513) * 16000.0 / 1024.0
        for m in range(64):
            left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
            for k in range(0, 513, 7):
                fk = bin_freqs[k]
                expected = max(0.0, min((fk - left) / (center - left),
                                        (right - fk) / (right - center)))
                assert fb[m, k] == pytest.approx(expected, abs=1e-12)


class TestMelEnergies:
    def test_zero_spectrum(self):
        fb = build_mel_filterbank()
        out = mel_energies(np.zeros((5, 513), dtype=complex), fb)
        assert out.shape == (5, 64)
        assert np.all(out == 0)

    def test_single_bin_impulse_selects_filterbank_column(self):
        fb = build_mel_filterbank()
        for k0 in (10, 64, 300):
            spec = np.zeros((1, 513), dtype=complex)
            spec[0, k0] = 1.0
            np.testing.assert_allclose(mel_energies(spec, fb)[0], fb[:, k0],
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spec = rng.standard_normal((4, 513)) + 1j * rng.standard_normal((4, 513))
        fb = build_mel_filterbank()
        np.testing.assert_allclose(mel_energies(spec, fb),
                                   mel_energy_oracle(spec, fb),
                                   rtol=0, atol=1e-12)


class TestLogStandardize:
    def test_constant_input_gives_zeros(self):
        # sigma is 0 so the eps in the denominator takes over; the numerator
        # is zero up to one ulp of the shared log value
        out = log_standardize(np.full((7, 4), 3.5))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_hand_computed_two_by_two(self):
        # log(E + eps) = [[1, 3], [1, 3]], mean 2, population std 1
        e = np.array([[np.exp(1) - EPS, np.exp(3) - EPS],
                      [np.exp(1) - EPS, np.exp(3) - EPS]])
        out = log_standardize(e)
        np.testing.assert_allclose(out, [[-1, 1], [-1, 1]], atol=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_output_standardized(self, seed):
        e = np.random.default_rng(seed).uniform(0.0, 5.0, size=(20, 64))
        out = log_standardize(e)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6


class TestResample:
    def test_passthrough_at_target(self):
        w = Waveform(np.random.default_rng(1).standard_normal(100) * 0.1, 16000)
        assert resample_to(w) is w

    @pytest.mark.parametrize("src_rate", [8000, 22050, 44100, 48000])
    def test_length_scales_with_ratio(self, src_rate):
        w = Waveform(np.random.default_rng(2).standard_normal(src_rate) * 0.1, src_rate)
        out = resample_to(w)
        assert out.sample_rate == 16000
        assert abs(out.samples.size - 16000) <= 2

    def test_preserves_low_frequency_tone(self):
        t = np.arange(48000) / 48000.0
        w = Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), 48000)
        out = resample_to(w)
        t16 = np.arange(out.samples.size) / 16000.0
        ref = 0.5 * np.sin(2 * np.pi * 440.0 * t16)
        # compare away from filter edge effects
        np.testing.assert_allclose(out.samples[800:-800], ref[800:-800], atol=5e-4)

    # 11127 and 44056 Hz share only a small factor with 16 kHz: up*down is
    # 1.8e8 and 1.1e7
    @pytest.mark.parametrize("src_rate", [44100, 48000, 22050, 11025, 8000,
                                          24000, 32000, 96000, 11127, 44056])
    @pytest.mark.parametrize("length", ["1", "2", "3", "7", "odd", "1s"])
    def test_matches_default_window_resample_poly(self, src_rate, length):
        # the same filter, summed in another order: within 8 ulp of max|x|
        n = {"1": 1, "2": 2, "3": 3, "7": 7, "odd": 1001, "1s": src_rate}[length]
        x = np.random.default_rng(src_rate + n).standard_normal(n) * 0.1
        g = math.gcd(16000, src_rate)
        out = resample_to(Waveform(x, src_rate))
        expected = resample_poly(x, 16000 // g, src_rate // g)
        assert out.samples.shape == expected.shape
        assert np.max(np.abs(out.samples - expected)) <= 8 * 2.0 ** -52 * np.max(np.abs(x))

    def test_lowpass_designed_once_per_rate_pair_and_read_only(self):
        _polyphase.cache_clear()
        x = np.random.default_rng(7).standard_normal(441) * 0.1
        for rate in (44100, 48000, 44100, 48000, 44100):
            resample_to(Waveform(x, rate))
        info = _polyphase.cache_info()
        assert (info.misses, info.hits) == (2, 3)
        firsts, matrices = _polyphase(160, 441)
        # 160 columns in all, one per polyphase branch: together they hold
        # each of firwin's taps (times up = 160) once, and zeros elsewhere
        groups, _, cols = matrices.shape
        assert groups * cols == 160 and firsts.shape == (groups,)
        h = 160 * firwin(8821, 1 / 441, window=("kaiser", 5.0))
        expected = np.sort(np.append(h, np.zeros(matrices.size - h.size)))
        np.testing.assert_allclose(np.sort(matrices.ravel()), expected, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            matrices[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            firsts[0] = 0

    @pytest.mark.parametrize("src_rate", [16001, 44101, 96001])
    def test_a_rate_needing_a_huge_filter_is_refused_before_it_is_designed(self, src_rate):
        # 16000:44101 would take 882,021 taps; 11127 Hz (16000:11127) is the largest allowed
        before = _polyphase.cache_info()
        with pytest.raises(ValueError, match=f"sample rate {src_rate} Hz needs a 16000:"
                                             f"{src_rate} resampling filter"):
            resample_to(Waveform(np.zeros(100), src_rate))
        assert _polyphase.cache_info() == before

    @pytest.mark.parametrize("src_rate", [44100, 22050, 11127, 44056])
    def test_plan_size_grows_with_the_filter_not_with_up_times_down(self, src_rate):
        # one (width, up) matrix for every clip would hold up*down entries:
        # 1.8e8 (1.4 GB) at 11127 Hz
        g = math.gcd(16000, src_rate)
        up, down = 16000 // g, src_rate // g
        _, matrices = _polyphase(up, down)
        assert matrices.size <= 5 * (20 * max(up, down) + 1)


class TestFullFrontEnd:
    def test_shape_and_standardization(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(16000) * 0.1, 16000)
        spec = logmel_spectrogram(w)
        assert spec.shape == (98, 64)
        assert abs(spec.mean()) < 1e-6
        assert abs(spec.std() - 1.0) < 1e-6

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(16000) * 0.1
        a = logmel_spectrogram(Waveform(samples, 16000))
        b = logmel_spectrogram(Waveform(samples.copy(), 16000))
        np.testing.assert_array_equal(a, b)

    def test_resamples_non_target_input(self):
        rng = np.random.default_rng(5)
        w = Waveform(rng.standard_normal(48000) * 0.1, 48000)
        spec = logmel_spectrogram(w)
        assert spec.shape == (98, 64)


class TestWavIO:
    def test_roundtrip_pcm16(self, tmp_path):
        rng = np.random.default_rng(6)
        w = Waveform(rng.uniform(-0.9, 0.9, size=1600), 16000)
        path = tmp_path / "a.wav"
        save_wav(path, w)
        back = load_wav(path)
        assert back.sample_rate == 16000
        # write scales by 32767, read divides by 32768, plus half-step rounding
        np.testing.assert_allclose(back.samples, w.samples, atol=1.5 / 32768)

    @pytest.mark.parametrize("samples", [
        np.array([0.0, 1.5, -2.0, 0.5, -1.0000001]),
        np.zeros(1600),
        np.random.default_rng(7).uniform(-0.9, 0.9, 1001),
        np.array([1.0, -1.0, 1.0, 0.0, -1.0])],
        ids=["clipped", "silence", "odd_length", "full_scale"])
    def test_save_returns_what_load_reads_back(self, tmp_path, samples):
        path = tmp_path / "a.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clipping
            written = save_wav(path, Waveform(samples, 44100))
        back = load_wav(path)
        assert written.sample_rate == back.sample_rate == 44100
        assert written.samples.dtype == back.samples.dtype == np.float64
        assert written.samples.tobytes() == back.samples.tobytes()

    def test_save_clips_out_of_range_with_warning(self, tmp_path):
        w = Waveform(np.array([0.0, 1.5, -2.0, 0.5]), 16000)
        path = tmp_path / "clip.wav"
        with pytest.warns(UserWarning, match="clipping"):
            save_wav(path, w)
        back = load_wav(path)
        assert np.max(np.abs(back.samples)) <= 1.0

    def test_stereo_averaged_with_warning(self, tmp_path):
        from scipy.io import wavfile
        stereo = np.stack([np.full(100, 8192, dtype=np.int16),
                           np.full(100, 16384, dtype=np.int16)], axis=1)
        path = tmp_path / "st.wav"
        wavfile.write(str(path), 16000, stereo)
        with pytest.warns(UserWarning, match="mono"):
            w = load_wav(path)
        assert w.samples.ndim == 1
        np.testing.assert_allclose(w.samples, (8192.0 + 16384.0) / 2.0 / 32768.0)

    @pytest.mark.parametrize("case", sorted(WAV_CASES))
    def test_reads_what_scipy_wavfile_reads(self, tmp_path, case):
        path = tmp_path / f"{case}.wav"
        path.write_bytes(WAV_CASES[case])
        rate, expected = scipy_wav_oracle(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # averaging channels to mono
            w = load_wav(path)
        assert w.sample_rate == rate
        assert np.array_equal(w.samples, expected)

    @pytest.mark.parametrize("case", ["not_riff", "truncated_data", "truncated_header",
                                      "int64", "format_tag2", "header_only", "nan_f32",
                                      "rate_0"])
    def test_unreadable_files_raise_naming_the_path(self, tmp_path, case):
        int64 = io.BytesIO()
        wavfile.write(int64, 16000, np.arange(10, dtype=np.int64))
        raw = {"not_riff": b"not audio at all",
               "truncated_data": WAV_CASES["i16"][:-7],
               "truncated_header": WAV_CASES["i16"][:30],
               "int64": int64.getvalue(),
               "format_tag2": riff(fmt_chunk(2, 1, 16000, 4, 1),
                                   chunk(b"data", bytes(8))),
               "header_only": riff(fmt_chunk(1, 1, 16000, 16, 2), chunk(b"data", b"")),
               "nan_f32": riff(fmt_chunk(3, 1, 16000, 32, 4),
                               chunk(b"data", np.array([0.5, np.nan], "<f4").tobytes())),
               "rate_0": riff(fmt_chunk(1, 1, 0, 16, 2), chunk(b"data", bytes(8))),
               }[case]
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_wav(path)

    @pytest.mark.parametrize("n,rate", [(1, 16000), (2, 44100), (1001, 8000)])
    def test_save_writes_the_bytes_of_wavfile_write(self, tmp_path, n, rate):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        save_wav(tmp_path / "a.wav", Waveform(x, rate))
        expected = io.BytesIO()
        wavfile.write(expected, rate, np.round(x * 32767.0).astype(np.int16))
        assert (tmp_path / "a.wav").read_bytes() == expected.getvalue()
