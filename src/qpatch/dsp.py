"""Audio front end: WAV loading, resampling, STFT, mel filterbank, log-mel standardization.

All operations are pure functions. The pipeline per utterance is: load ->
resample to 16 kHz -> STFT (Hann window, power spectrum) -> mel filterbank
energies -> log compression -> per-utterance standardization. The front
end is the paper's, fixed as the constants below. Only the input audio is
wrapped, in Waveform, an unchecked pair of samples and rate; load_wav,
where audio enters, is its one check. The filterbank is a plain
(N_MELS, bins) weight array and the log-mel spectrogram a plain
(frames, N_MELS) float array.

The runtime needs only numpy. WAV files are read and written by the small
RIFF chunk parser below. Inputs at another rate are resampled with the
low-pass filter of scipy's resample_poly, designed in numpy once per pair
of rates and applied as one batched matrix product per clip; a rate whose
filter would exceed 320,001 taps is refused.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write

# Single numerical-stability constant used across the feature pipeline.
EPS = 1e-8

TARGET_SAMPLE_RATE = 16000

# the front end at TARGET_SAMPLE_RATE: 25 ms periodic Hann frames every 10 ms,
# a 1024-point FFT, and 64 HTK mel bands over 0-8 kHz
WIN_LEN, HOP_LEN, FFT_SIZE, N_MELS = 400, 160, 1024, 64

# the largest sample magnitude load_wav accepts: its square, and a 1024-point
# STFT power of such samples, stay far inside the float64 range
MAX_SAMPLE = 1e100


class Waveform(NamedTuple):
    """Mono float64 audio samples in nominal range [-1, 1] with their sample
    rate, unchecked: load_wav checks the audio that enters the program."""

    samples: np.ndarray
    sample_rate: int


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window w[n] = 0.5 * (1 - cos(2*pi*n/L))."""
    n = np.arange(length, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


def stft(w: Waveform) -> np.ndarray:
    """Short-time Fourier transform of TARGET_SAMPLE_RATE audio with a
    periodic Hann window.

    Returns a complex matrix with one row per frame and FFT_SIZE // 2 + 1
    columns (non-negative frequency bins). Frames of WIN_LEN samples are
    hopped by HOP_LEN, windowed, then zero-padded to FFT_SIZE; trailing
    samples shorter than one window are dropped.
    """
    if w.samples.size < WIN_LEN:
        raise ValueError(
            f"signal too short: {w.samples.size} samples < one {WIN_LEN}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, WIN_LEN)[::HOP_LEN]
    return np.fft.rfft(frames * hann_window(WIN_LEN), n=FFT_SIZE, axis=1)


def mel_energies(stft_out: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Filterbank energies E(f, tau) = sum_k |X(k, tau)|^2 H_f(k), frames x n_mels."""
    return np.abs(stft_out) ** 2 @ weights.T


def log_standardize(energies: np.ndarray) -> np.ndarray:
    """Log-compress energies and standardize over all time-frequency entries.

    M = log(E + eps), then (M - mean) / (std + eps) with the population
    standard deviation taken over the whole utterance. Returns the
    (frames, n_mels) matrix. Samples within load_wav's MAX_SAMPLE give
    energies below about 4e204, so the result is finite.
    """
    logmel = np.log(energies + EPS)
    mu = logmel.mean()
    sigma = logmel.std()
    return (logmel - mu) / (sigma + EPS)


@functools.cache
def build_mel_filterbank() -> np.ndarray:
    """N_MELS triangular filters with centers uniformly spaced on the HTK mel
    scale over 0-8 kHz.

    Returns the (N_MELS, FFT_SIZE // 2 + 1) weights: one row per filter,
    one column per non-negative FFT bin. Triangles have unnormalized peak
    height 1; adjacent filters cross at each other's feet. Built once and
    shared, so the array is read-only.
    """
    hz_pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(TARGET_SAMPLE_RATE / 2.0),
                                   N_MELS + 2))
    bin_freqs = np.arange(FFT_SIZE // 2 + 1, dtype=np.float64) * TARGET_SAMPLE_RATE / FFT_SIZE
    left, center, right = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    weights = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.flags.writeable = False
    return weights


# the largest reduced up or down factor resample_to designs a filter for,
# 20 * 16000 + 1 taps: 11127 Hz needs 16000, every standard rate at most 640
_MAX_RESAMPLE_FACTOR = 16000

# outputs one input window makes (a row of the matmul): a multiple of `up`
# up to this, else the largest divisor of `up` not above it
_BLOCK_OUTPUTS = 64


@functools.lru_cache(maxsize=8)
def _polyphase(up: int, down: int) -> tuple[np.ndarray, np.ndarray]:
    """resample_poly's default low-pass for (up, down), as (groups, width, cols) matrices.

    firwin's Kaiser-windowed sinc (20*max(up, down)+1 taps, beta 5) with gain
    `up`. Matrix g makes `cols` consecutive outputs from the `width` inputs
    at firsts[g] on; the groups repeat every groups*cols*down/up inputs. In all
    max(64, up) columns of about (64*down + 20*max(up, down))/up rows: a few
    times the filter's size once up > 64. Shared, so read-only.
    """
    max_rate = max(up, down)
    half_len = 10 * max_rate
    m = np.arange(-half_len, half_len + 1)
    h = np.sinc(m / max_rate) / max_rate * np.kaiser(m.size, 5.0)
    taps = np.append(h / h.sum() * up, 0.0)
    cols = (up * (_BLOCK_OUTPUTS // up) if up <= _BLOCK_OUTPUTS else
            max(d for d in range(1, _BLOCK_OUTPUTS + 1) if up % d == 0))
    j = np.arange(0, max(cols, up), cols)[:, None, None] + np.arange(cols)
    # output j takes tap j*down + half_len - i*up of input i, as resample_poly does
    firsts = -((half_len - j[:, 0, 0] * down) // up)
    width = int(((j[:, 0, -1] * down + half_len) // up - firsts).max()) + 1
    k = j * down + half_len - (firsts[:, None, None] + np.arange(width)[:, None]) * up
    matrices = taps[np.where((k >= 0) & (k < m.size), k, m.size)]
    firsts.flags.writeable = matrices.flags.writeable = False
    return firsts, matrices


def resample_to(w: Waveform, target_rate: int = TARGET_SAMPLE_RATE) -> Waveform:
    """Windowed-sinc polyphase resampling: resample_poly's default output to a
    few ulp, by one batched matmul; pass-through when already at target. A
    rate whose reduced ratio needs a factor above _MAX_RESAMPLE_FACTOR is
    refused before its filter is designed."""
    if w.sample_rate == target_rate:
        return w
    g = math.gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    if max(up, down) > _MAX_RESAMPLE_FACTOR:
        raise ValueError(
            f"sample rate {w.sample_rate} Hz needs a {up}:{down} resampling filter of "
            f"{20 * max(up, down) + 1} taps, above the {20 * _MAX_RESAMPLE_FACTOR + 1} "
            "supported")
    firsts, matrices = _polyphase(up, down)
    groups, width, cols = matrices.shape
    n, lead, step = w.samples.size, -firsts[0], groups * cols * down // up
    n_out = -(-n * up // down)
    periods = -(-n_out // (groups * cols))
    padded = np.zeros(max(lead + firsts[-1] + (periods - 1) * step + width, lead + n))
    padded[lead:lead + n] = w.samples
    starts = lead + firsts[:, None] + step * np.arange(periods)
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    samples = (windows @ matrices).transpose(1, 0, 2).ravel()[:n_out]
    return Waveform(samples, target_rate)


def logmel_spectrogram(w: Waveform) -> np.ndarray:
    """Full front end: resample to 16 kHz, STFT, mel energies, log
    compression, standardization. Returns the standardized (frames, N_MELS)
    log-mel matrix.
    """
    return log_standardize(mel_energies(stft(resample_to(w)), build_mel_filterbank()))


# WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT and WAVE_FORMAT_EXTENSIBLE; an
# extensible file names PCM or float in its subformat GUID, whose last
# 12 bytes are this fixed tail
PCM, IEEE_FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_chunks(raw: memoryview):
    """(id, body) of each chunk after the RIFF/WAVE header; odd sizes are padded."""
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated {chunk_id!r} chunk: {len(body)} of {size} bytes")
        yield chunk_id, body
        pos += 8 + size + size % 2


def _wav_format(fmt: memoryview) -> tuple[int, int, int, int, int]:
    """Format tag (extensible resolved), channels, rate, block align and bits."""
    if len(fmt) < 16:
        raise ValueError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
            raise ValueError("extensible fmt chunk shorter than 40 bytes")
        if fmt[28:40] == _GUID_TAIL:
            tag = struct.unpack_from("<I", fmt, 24)[0]
    return tag, channels, rate, block_align, bits


def _decode_wav(raw: memoryview) -> tuple[int, np.ndarray]:
    """Sample rate and float64 samples (frames, or frames x channels)."""
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt = None
    for chunk_id, body in _wav_chunks(raw):
        if chunk_id == b"fmt ":
            fmt = _wav_format(body)
        elif chunk_id == b"data":
            break
    else:
        raise ValueError("no data chunk")
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    tag, channels, rate, block_align, bits = fmt
    width = block_align // channels if channels else 0
    if width == 0 or width * channels != block_align:
        raise ValueError(f"block align {block_align} does not fit {channels} channels")
    body = body[:len(body) - len(body) % block_align]  # whole frames only
    if tag == PCM and 0 < bits <= 64 and (width == 1 if bits <= 8 else 1 < width <= 4):
        if width == 3:  # left-justified in int32: the low byte is zero
            wide = np.zeros((len(body) // 3, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
            ints, width = wide.view("<i4")[:, 0], 4
        else:
            ints = np.frombuffer(body, dtype={1: "u1", 2: "<i2", 4: "<i4"}[width])
        scale = 2.0 ** (8 * width - 1)  # 8-bit PCM is unsigned, centred on 128
        samples = (ints.astype(np.float64) - (scale if width == 1 else 0.0)) / scale
    elif tag == IEEE_FLOAT and bits == 8 * width in (32, 64):
        samples = np.frombuffer(body, dtype=f"<f{width}").astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format: format tag {tag:#x}, "
                         f"{bits}-bit samples in {width}-byte containers")
    return rate, samples.reshape(-1, channels) if channels > 1 else samples


def load_wav(path) -> Waveform:
    """Read a PCM (8/16/24/32-bit) or IEEE float (32/64-bit) WAV file.

    Integer samples are scaled to [-1, 1) as scipy.io.wavfile reads them
    (unsigned 8-bit around 128, 24-bit left-justified in int32); more than
    one channel is averaged to mono with a warning. Anything else, and a
    file with no samples, a rate of 0, or a NaN, inf or float sample above
    MAX_SAMPLE (1e100) in magnitude, raises ValueError naming the path.
    """
    try:
        rate, samples = _decode_wav(memoryview(Path(path).read_bytes()))
        if samples.ndim == 2:
            warnings.warn(f"{path}: averaging {samples.shape[1]} channels to mono")
            samples = samples.mean(axis=1)
        if samples.size == 0 or rate == 0:
            raise ValueError(f"no audio: {samples.size} samples at {rate} Hz")
        if not np.all(np.abs(samples) <= MAX_SAMPLE):  # false for NaN too
            raise ValueError(f"non-finite samples, or samples above {MAX_SAMPLE:g} in magnitude")
        return Waveform(samples, rate)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def save_wav(path, w: Waveform) -> Waveform:
    """Write 16-bit PCM mono and return what load_wav reads back from the
    file, sample for sample, without reading it.

    Values outside [-1, 1] are clipped with a warning.
    """
    samples = w.samples
    n_clipped = int(np.count_nonzero(np.abs(samples) > 1.0))
    if n_clipped:
        warnings.warn(f"{path}: clipping {n_clipped}/{samples.size} samples to [-1, 1]")
        samples = np.clip(samples, -1.0, 1.0)
    pcm = np.round(samples * 32767.0).astype("<i2")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                         b"fmt ", 16, PCM, 1, w.sample_rate, 2 * w.sample_rate, 2, 16,
                         b"data", pcm.nbytes)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm.tobytes())
    return Waveform(pcm.astype(np.float64) / 32768.0, w.sample_rate)
