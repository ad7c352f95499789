"""Independent reference implementations used to pin expected values.

Everything here is written from the mathematical definitions (dense DFT
matrix, scalar triangle construction, plain-Python statistics) and must
stay free of holonsim internals so the two code paths cannot share bugs.
"""

import collections
import math

import numpy as np
from scipy.signal import butter, lfilter

RATE = 32000
N = 1024
HOP = N // 2
N_BINS = N // 2 + 1
N_BANDS = 128
FMIN = 80.0
FMAX = 16000.0


def oracle_hann(n=N):
    return [0.5 - 0.5 * math.cos(2.0 * math.pi * i / n) for i in range(n)]


def naive_dft_magnitude(frame):
    """Magnitude of the DFT of the Hann-windowed frame, by definition.

    Dense O(N^2) basis-matrix evaluation, no FFT.
    """
    n = len(frame)
    windowed = np.asarray(frame) * np.asarray(oracle_hann(n))
    k = np.arange(n // 2 + 1)[:, None]
    i = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * i / n)
    return np.abs(basis @ windowed)


def oracle_mel(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def oracle_mel_inv(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def oracle_mel_edges():
    lo, hi = oracle_mel(FMIN), oracle_mel(FMAX)
    return [oracle_mel_inv(lo + (hi - lo) * j / (N_BANDS + 1))
            for j in range(N_BANDS + 2)]


def oracle_mel_weights():
    """Triangle weights built with scalar arithmetic, band by band."""
    edges = oracle_mel_edges()
    weights = [[0.0] * N_BINS for _ in range(N_BANDS)]
    for b in range(N_BANDS):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        for k in range(N_BINS):
            f = k * RATE / N
            if left < f <= center:
                weights[b][k] = (f - left) / (center - left)
            elif center < f < right:
                weights[b][k] = (right - f) / (right - center)
    return weights


_MEL_WEIGHTS = None


def oracle_mel_energies(magnitude):
    """Band energies as explicit weighted sums of squared magnitudes."""
    global _MEL_WEIGHTS
    if _MEL_WEIGHTS is None:
        _MEL_WEIGHTS = oracle_mel_weights()
    out = []
    for b in range(N_BANDS):
        row = _MEL_WEIGHTS[b]
        out.append(sum(row[k] * float(magnitude[k]) ** 2
                       for k in range(N_BINS) if row[k] != 0.0))
    return np.array(out)


def oracle_dct2_ortho(values):
    """Orthonormal DCT-II from the definition, dense cosine matrix."""
    n = len(values)
    out = []
    for j in range(n):
        scale = math.sqrt((1.0 if j == 0 else 2.0) / n)
        out.append(scale * sum(
            float(values[i]) * math.cos(math.pi * (i + 0.5) * j / n)
            for i in range(n)))
    return np.array(out)


def oracle_rms(samples):
    """Root mean square of a block, in the numpy order of operations that
    the hearing uses, so a level can be compared bit for bit."""
    return float(np.sqrt(np.mean(np.square(samples))))


def oracle_zero_crossings(samples):
    """Sign changes counted one sample at a time, zero counted positive."""
    count = 0
    prev = 1 if samples[0] >= 0 else -1
    for x in samples[1:]:
        cur = 1 if x >= 0 else -1
        if cur != prev:
            count += 1
        prev = cur
    return count


def _pstdev(values):
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def oracle_novelty_decision(member_vectors, member_nbytes, candidate_vector,
                            candidate_nbytes, max_items, capacity_bytes):
    """Brute-force accept/replace/reject decision.

    Returns ('append', None), ('replace', index) or ('reject', None).
    Normalisation statistics always include the candidate; a dimension
    with zero spread normalises to zero everywhere; the novelty score of
    a set is the sum over dimensions of population standard deviations.
    """
    members = [list(map(float, v)) for v in member_vectors]
    cand = list(map(float, candidate_vector))
    if not members:
        if candidate_nbytes > capacity_bytes:
            return ("reject", None)
        return ("append", None)

    dims = len(cand)
    pool = members + [cand]
    normed = [[0.0] * dims for _ in pool]
    for d in range(dims):
        col = [v[d] for v in pool]
        mean = sum(col) / len(col)
        std = _pstdev(col)
        if std > 0.0:
            for i, v in enumerate(pool):
                normed[i][d] = (v[d] - mean) / std
    norm_members, norm_cand = normed[:-1], normed[-1]

    def score(subset):
        return sum(_pstdev([v[d] for v in subset]) for d in range(dims))

    base = score(norm_members)
    total_bytes = sum(member_nbytes)
    full = (len(members) >= max_items
            or total_bytes + candidate_nbytes > capacity_bytes)
    if not full:
        if score(norm_members + [norm_cand]) > base:
            return ("append", None)
        return ("reject", None)

    dists = [math.sqrt(sum((m[d] - norm_cand[d]) ** 2 for d in range(dims)))
             for m in norm_members]
    nearest = dists.index(min(dists))
    swapped = [v for i, v in enumerate(norm_members) if i != nearest]
    swapped.append(norm_cand)
    fits = (total_bytes - member_nbytes[nearest] + candidate_nbytes
            <= capacity_bytes)
    if fits and score(swapped) > base:
        return ("replace", nearest)
    return ("reject", None)


class OracleOnsetDetector:
    """One stream of the spectral-flux onset detector, as it was written
    before detectors were batched: a deque of past flux values whose
    threshold is mean + k * std of a 1-D array built from the deque.

    The reductions are numpy's 1-D mean and std, so a batched detector
    must fire on exactly the same ticks, not merely close ones.
    """

    def __init__(self, k=2.0, window=43, refractory_ticks=9,
                 flux_floor=1e-6):
        self.k = k
        self.flux_floor = flux_floor
        self.refractory_ticks = refractory_ticks
        self.prev = None
        self.history = collections.deque(maxlen=window)
        self.cooldown = 0

    def update(self, magnitude, armed=True):
        magnitude = np.array(magnitude, dtype=float)
        if self.prev is None:
            flux = 0.0
        else:
            flux = float(np.sum(np.maximum(magnitude - self.prev, 0.0)))
        self.prev = magnitude
        if self.history:
            hist = np.fromiter(self.history, dtype=float)
            threshold = float(np.mean(hist) + self.k * np.std(hist))
        else:
            threshold = 0.0
        fired = (armed and self.cooldown == 0
                 and flux > max(threshold, self.flux_floor))
        self.history.append(flux)
        if self.cooldown > 0:
            self.cooldown -= 1
        if fired:
            self.cooldown = self.refractory_ticks
        return fired


class OracleSpectralProfile:
    """One listener's spectral memory, updated one frame at a time."""

    def __init__(self, n_bands, long_half_life_s, short_half_life_s,
                 dt_s=0.016, log_floor=1e-10):
        self.alpha_long = 1.0 - 2.0 ** (-dt_s / long_half_life_s)
        self.alpha_short = 1.0 - 2.0 ** (-dt_s / short_half_life_s)
        self.log_floor = log_floor
        self.ema = np.zeros(n_bands)
        self.short = np.zeros(n_bands)
        self.peak = np.zeros(n_bands)
        self.floor = np.zeros(n_bands)
        self.seen = False

    def update(self, energies):
        e = np.asarray(energies, dtype=float)
        self.ema += self.alpha_long * (e - self.ema)
        self.short += self.alpha_short * (e - self.short)
        level = 10.0 * np.log10(e + self.log_floor)
        if not self.seen:
            self.peak = level.copy()
            self.floor = level.copy()
            self.seen = True
            return
        self.peak = np.maximum(
            level, self.peak + self.alpha_long * (level - self.peak))
        self.floor = np.minimum(
            level, self.floor + self.alpha_long * (level - self.floor))


class OracleToneTracker:
    """One collector's count of consecutive frames that one narrowband
    peak dominates, as each collector kept it before the count moved to
    the batched hearing: a frame heard while the collector hears itself
    (echo) ends the run; a frame flatter than flatness_max ends it too;
    a tonal frame extends the run when its loudest band is the run's, and
    starts a new run of 1 in its band otherwise."""

    def __init__(self, flatness_max):
        self.flatness_max = flatness_max
        self.band = -1
        self.run = 0

    def update(self, flatness, band, echo):
        if echo:
            self.run = 0
        elif flatness < self.flatness_max and band == self.band:
            self.run += 1
        elif flatness < self.flatness_max:
            self.band = band
            self.run = 1
        else:
            self.run = 0


def oracle_distance_gain(d_m, d_ref_m=2.0):
    """Propagation attenuation 1 / (1 + d / d_ref): 1 at the source, 1/2
    at d_ref."""
    return 1.0 / (1.0 + d_m / d_ref_m)


def oracle_highpass(samples, cutoff_hz=80.0, rate=RATE):
    """One-shot 2nd-order Butterworth high-pass from zero state."""
    b, a = butter(2, cutoff_hz, btype="highpass", fs=rate)
    return lfilter(b, a, samples)


class OracleLedger:
    """One agent's battery ledger, stepped one tick at a time: harvest and
    costs in watts over a 16 ms tick, the battery clamped to its pack."""

    def __init__(self, model, battery_wh, dt_s=0.016):
        self.model = model
        self.dt_h = dt_s / 3600.0
        self.battery_wh = battery_wh
        self.harvested_wh = self.consumed_wh = 0.0

    def step(self, harvest_w, emitted):
        model = self.model
        cost = model.cost_idle_w + model.cost_listen_w
        if emitted:
            cost += model.cost_emit_w
        raw = self.battery_wh + (harvest_w - cost) * self.dt_h
        self.harvested_wh += harvest_w * self.dt_h
        self.consumed_wh += cost * self.dt_h
        if raw > model.battery_max_wh:
            raw = model.battery_max_wh
        elif raw < 0.0:
            raw = 0.0
        self.battery_wh = raw


def oracle_band_noise_ticks(rng, band_hz, level_dbfs, start, stop, n_ticks):
    """Band noise rendered a whole hop at a time over every hop that
    overlaps the sample window [start, stop), and silent elsewhere.

    A one second probe from rng, band-passed, calibrates the in-band RMS to
    level_dbfs; then each of those hops draws HOP fresh normals and filters
    them, the filter state carried from hop to hop.
    """
    b, a = butter(2, list(band_hz), btype="bandpass", fs=RATE)
    probe = lfilter(b, a, rng.standard_normal(RATE))
    scale = 10.0 ** (level_dbfs / 20.0) / float(np.sqrt(np.mean(
        np.square(probe))))
    state = np.zeros(max(len(a), len(b)) - 1)
    out = np.zeros(n_ticks * HOP)
    for tick in range(start // HOP, min(n_ticks, -(-stop // HOP))):
        y, state = lfilter(b, a, rng.standard_normal(HOP), zi=state)
        out[tick * HOP:(tick + 1) * HOP] = y * scale
    return out


def oracle_chirp_train(rng, freqs, level_dbfs, start, period, width, calls,
                       n_samples):
    """A chirp train rendered call by call, with every call's phases drawn
    up front as one (calls, bands) block from rng.

    Call k sounds on the samples [start + k*period, start + k*period +
    width), cut at n_samples: a sine at each frequency in freqs, at that
    call's phase for it, the sum scaled to an RMS of level_dbfs.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(calls, len(freqs)))
    amp = 10.0 ** (level_dbfs / 20.0) * np.sqrt(2.0 / len(freqs))
    out = np.zeros(n_samples)
    for k in range(calls):
        lo = start + k * period
        idx = np.arange(lo, min(lo + width, n_samples))
        t = idx / RATE
        partials = np.sin(2.0 * np.pi * np.asarray(freqs)[:, None]
                          * t[None, :] + phases[k][:, None])
        out[idx] += amp * partials.sum(axis=0)
    return out


# The sound kernels as whole-array formulas, one temporary per step: a
# note, the four transforms and one hop of a chirp call. Each rewritten
# kernel must give these bytes.

def oracle_note(freq_hz, amp, n, attack, decay, rate=RATE):
    """A whole note: sine times an envelope of ones whose first attack
    samples ramp up and whose last decay samples ramp down, the decay
    ramp written last, cast to float32."""
    t = np.arange(n) / rate
    tone = amp * np.sin(2.0 * np.pi * freq_hz * t)
    env = np.ones(n)
    if attack > 0:
        env[:attack] = np.arange(attack) / attack
    if decay > 0:
        env[n - decay:] = np.arange(decay, 0, -1) / decay
    return (tone * env).astype(np.float32)


def oracle_pitch_shift_octave(pcm, direction):
    """np.interp at every second sample (+1) or every half sample (-1)."""
    pcm = np.asarray(pcm, dtype=float)
    n = len(pcm)
    if n == 0:
        return pcm.copy()
    if direction > 0:
        positions = np.arange((n - 1) // 2 + 1) * 2.0
    else:
        positions = np.arange(2 * n - 1) * 0.5
    return np.interp(positions, np.arange(n), pcm)


def oracle_ring_mod(pcm, carrier_hz, rate=RATE):
    pcm = np.asarray(pcm, dtype=float)
    i = np.arange(len(pcm))
    return pcm * np.sin(2.0 * np.pi * carrier_hz * i / rate)


def oracle_freq_mod(pcm, carrier_hz, fm_index, rate=RATE):
    """sin of the running sum of 2 pi (carrier + index * x) / rate."""
    pcm = np.asarray(pcm, dtype=float)
    increments = 2.0 * np.pi * (carrier_hz + fm_index * pcm) / rate
    return np.sin(np.cumsum(increments))


def oracle_chirp_partials(freqs, amp, phases, idx, rate=RATE):
    """One call's samples at the sample indices idx: its partials, one
    sine per frequency at its phase, summed band by band and scaled."""
    t = idx / rate
    partials = np.sin(2.0 * np.pi * np.asarray(freqs)[:, None] * t[None, :]
                      + phases[:, None])
    return amp * partials.sum(axis=0)


def oracle_occupation_metrics(events, occupation, meta, n_ticks,
                              percentile=25.0, floor=0.5, hop=HOP):
    """The niche metrics window by window and note by note: each window's
    threshold is its own percentile call over the bands' mean per-frame
    energies, floored, and each window a note sounds in is tallied on its
    own. percentile and floor are the composers' default occupancy
    parameters."""
    window_ticks = int(meta["window_ticks"])
    non_cyber = [i for i, c in enumerate(meta["channels"])
                 if c != "cyberphony"]
    energy = occupation[non_cyber].sum(axis=0)
    n_windows = energy.shape[0]
    frames_per = np.full(n_windows, window_ticks, dtype=float)
    if n_windows:
        frames_per[-1] = n_ticks - window_ticks * (n_windows - 1)
    mean_energy = energy / np.maximum(frames_per[:, None], 1.0)
    thresholds = [max(float(np.percentile(mean_energy[w], percentile)),
                      floor) for w in range(n_windows)]

    total_windows = overlapped = 0
    bands_used = set()
    composers = {}
    for record in events:
        if record.get("event") != "emission_start":
            continue
        payload = record["payload"]
        band = payload["band"]
        tick = record["tick"]
        n_hops = -(-payload["n_samples"] // hop)
        bands_used.add(band)
        first, last = tick + 1, min(tick + n_hops, n_ticks - 1)
        if first <= last:
            for w in range(first // window_ticks, last // window_ticks + 1):
                total_windows += 1
                if mean_energy[w, band] >= thresholds[w]:
                    overlapped += 1
        info = composers.setdefault(record["agent_id"], {
            "preferred_band": payload.get("preferred_band"),
            "bands": [], "departures": 0, "returns": 0})
        info["bands"].append(band)
        info["preferred_band"] = payload.get("preferred_band")

    switch_events = 0
    for info in composers.values():
        at_home = True
        for band in info["bands"]:
            if at_home and band != info["preferred_band"]:
                info["departures"] += 1
                at_home = False
            elif not at_home and band == info["preferred_band"]:
                info["returns"] += 1
                at_home = True
        info["bands"] = sorted(set(info["bands"]))
        switch_events += info["departures"] + info["returns"]

    return {
        "overlap_ratio": (overlapped / total_windows if total_windows
                          else None),
        "niche_spread": len(bands_used),
        "switch_events": switch_events,
        "emission_windows": total_windows,
        "composers": composers,
        "partial_data": not events or events[-1].get("event") != "end",
    }
