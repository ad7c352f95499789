"""The three agent behaviours and their shared plumbing.

Composers listen for quiet spectral territory and sing sinusoid notes
into it; collectors record onsets and keep the recordings that diversify
their collection, playing them back at night when they hear a composer
tone; disruptors grab whatever sounds loud, mangle it and throw it back.

A Hearing does all the listening once per tick for every agent, on arrays
with one row per agent: onset detection, recording segmentation, spectral
memory, the collectors' tone count and hop levels. Each agent reads its
own row and keeps only its decisions. All sound leaves through an
emission queue that the bus deals one hop per tick once every agent has
stepped (audible to everyone the next tick); the Hearing's battery ledger
and echo veto read who sent a hop from that deal alone. Agents never
inspect each other: sound on the bus is the only channel.
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import dsp_transforms as dsp
from . import features as ft
from .audio_core import SimClock, default_filterbank
from .params import (FRAME_HOP, FRAME_SIZE, LOG_FLOOR, N_MEL_BANDS,
                     SAMPLE_RATE, TICK_SECONDS)

class LedMode(Enum):
    OFF = "off"
    EMITTING = "emitting"
    ACQUIRING_RED = "acquiring_red"
    ACCEPTED_BLUE = "accepted_blue"


# --- energy ---------------------------------------------------------------

@dataclass
class EnergyModel:
    """Solar harvest in, listening and singing out.

    liveliness() is the emission hazard rate (events per second); it
    never decreases with battery charge, which is what makes sunnier
    days audibly busier nights.
    """

    battery_max_wh: float = 10.0
    harvest_peak_w: float = 2.0
    cost_idle_w: float = 0.05
    cost_listen_w: float = 0.0
    cost_emit_w: float = 1.0
    liveliness_per_s: float = 0.5
    day_liveliness_scale: float = 1.0
    emission_floor_wh: float = 0.01

    def liveliness(self, battery_wh: float, is_night: bool) -> float:
        frac = min(max(battery_wh / self.battery_max_wh, 0.0), 1.0)
        rate = self.liveliness_per_s * frac
        return rate if is_night else rate * self.day_liveliness_scale


def daylight(clock: SimClock) -> float:
    """The tick's insolation as a share of the peak: a sine arc over the
    day, zero during night."""
    if clock.is_night:
        return 0.0
    night_lo, night_hi = clock.night_window
    day_start = night_hi % 1.0
    day_len = (night_lo - night_hi) % 1.0
    if day_len == 0.0:
        day_len = 1.0  # empty night window: the arc spans the whole cycle
    progress = ((clock.day_fraction - day_start) % 1.0) / day_len
    return float(np.sin(np.pi * progress))


def energy_step(hearing: "Hearing", sun: float, sent: np.ndarray):
    """Integrate one tick of harvest and consumption into every agent's
    row of the ledger, each battery clamped to its pack.

    Each agent harvests its peak times sun, the tick's daylight(), and an
    agent that sent a hop this tick (sent, the bus deal's mask) pays its
    emission cost too. Charge past a full pack and a cost an empty pack
    cannot pay are lost.
    """
    h = hearing
    dt_h = TICK_SECONDS / 3600.0
    harvest = h.harvest_peak_w * sun
    cost = np.where(sent, h.cost_base_w + h.cost_emit_w, h.cost_base_w)
    raw = h.battery_wh + (harvest - cost) * dt_h
    h.harvested_wh += harvest * dt_h
    h.consumed_wh += cost * dt_h
    over, under = raw > h.battery_max_wh, raw < 0.0
    h.battery_wh = np.where(over, h.battery_max_wh, np.where(under, 0.0, raw))


# --- spectral memory --------------------------------------------------------

def _ema_alpha(half_life_s: float) -> float:
    return 1.0 - 2.0 ** (-TICK_SECONDS / half_life_s)


def _row_alphas(half_lives: list) -> np.ndarray:
    """(n, 1) EMA weights, each worked out in Python floats by _ema_alpha."""
    return np.reshape([_ema_alpha(h) for h in half_lives], (-1, 1))


class SpectralProfile:
    """Two-timescale memory of the Mel band energies heard, one row per
    listener (n rows of N_MEL_BANDS).

    ema_energy tracks the long-term mean energy per band (slow EMA),
    short_term the recent occupancy (fast EMA), and ema_range a per-band
    dynamic range in dB from fast-attack/slow-release peak and floor
    followers. Each row has its own pair of half-lives.
    """

    def __init__(self, long_half_life_s: list, short_half_life_s: list):
        n = len(long_half_life_s)
        self._alpha_long = _row_alphas(long_half_life_s)
        self._alpha_short = _row_alphas(short_half_life_s)
        self.ema_energy = np.zeros((n, N_MEL_BANDS))
        self.short_term_energy = np.zeros((n, N_MEL_BANDS))
        self._peak_db = np.zeros((n, N_MEL_BANDS))
        self._floor_db = np.zeros((n, N_MEL_BANDS))
        self._seen = np.zeros((n, 1), dtype=bool)

    def update(self, mel_energies: np.ndarray, rows):
        """Fold one frame per row into memory; rows (per row or shared)
        says which rows listen this tick, the rest keep their state."""
        e = np.asarray(mel_energies, dtype=float)
        rows = np.reshape(rows, (-1, 1))
        a_long = self._alpha_long
        self.ema_energy = np.where(
            rows, self.ema_energy + a_long * (e - self.ema_energy),
            self.ema_energy)
        self.short_term_energy = np.where(
            rows, self.short_term_energy
            + self._alpha_short * (e - self.short_term_energy),
            self.short_term_energy)
        level_db = 10.0 * np.log10(e + LOG_FLOOR)
        # a row's first frame seeds both followers; after that peaks jump
        # up instantly and sag slowly, and floors mirror that
        peak = np.maximum(level_db,
                          self._peak_db + a_long * (level_db - self._peak_db))
        floor = np.minimum(level_db, self._floor_db
                           + a_long * (level_db - self._floor_db))
        self._peak_db = np.where(
            rows, np.where(self._seen, peak, level_db), self._peak_db)
        self._floor_db = np.where(
            rows, np.where(self._seen, floor, level_db), self._floor_db)
        self._seen |= rows

    @property
    def ema_range_db(self) -> np.ndarray:
        return self._peak_db - self._floor_db


# --- emissions ---------------------------------------------------------------

NOTE_BLOCK_HOPS = 32  # a note is synthesized this many hops at a time


class EmissionQueue:
    """Holds one outgoing sound and deals it out a hop at a time.

    The sound is n samples that render(start, stop) gives as float32, one
    block at a time as the hops reach it: a note NOTE_BLOCK_HOPS hops a
    block (sing), a recorded clip as one block that never refills (start).
    """

    def __init__(self):
        self._render = self._block = None
        self._n = self._pos = self._block_end = 0

    @property
    def active(self) -> bool:
        return self._render is not None

    @property
    def ending(self) -> bool:
        """Whether the next hop dealt is the sound's last."""
        return self.active and self._pos + FRAME_HOP >= self._n

    def start(self, pcm: np.ndarray):
        pcm = np.asarray(pcm, dtype=np.float32)
        self._begin(len(pcm), len(pcm), lambda start, stop: pcm[start:stop])

    def sing(self, n_samples: int, render):
        self._begin(n_samples, NOTE_BLOCK_HOPS * FRAME_HOP, render)

    def _begin(self, n_samples: int, block_samples: int, render):
        self._render, self._n, self._block_n = render, n_samples, block_samples
        self._pos = self._block_end = 0

    def next_hop(self) -> np.ndarray | None:
        if self._render is None:
            return None
        if self._pos >= self._block_end:
            # blocks hold whole hops, so no hop straddles two
            self._block_at = self._pos
            self._block_end = min(self._pos + self._block_n, self._n)
            self._block = self._render(self._block_at, self._block_end)
        i = self._pos - self._block_at
        chunk = self._block[i:i + FRAME_HOP]
        self._pos += FRAME_HOP
        if self._pos >= self._n:
            self._render = self._block = None
        if len(chunk) < FRAME_HOP:
            chunk = np.pad(chunk, (0, FRAME_HOP - len(chunk)))
        return chunk


def synth_tone(freq_hz: float, amp: float, n_samples: int,
               attack_samples: int, decay_samples: int,
               sample_rate: int, start: int, stop: int) -> np.ndarray:
    """Samples [start, stop) of a sinusoid with linear attack/decay ramps,
    as float32.

    Pure function of its arguments so a logged note can be re-rendered
    bit for bit, and any slice of a note has the bytes of the same slice
    of the whole note. Where the ramps meet, the decay wins.
    """
    out = np.arange(start, stop, dtype=float)
    out /= sample_rate
    out *= 2.0 * np.pi * freq_hz
    np.sin(out, out=out)
    out *= amp
    n, a, d = n_samples, attack_samples, decay_samples
    hi = min(stop, a, n - d)
    if start < hi:
        out[:hi - start] *= np.arange(start, hi) / a
    lo = max(start, n - d)
    if lo < stop:
        out[lo - start:] *= np.arange(n - lo, n - stop, -1) / d
    return out.astype(np.float32)


# --- agents -------------------------------------------------------------------

class AgentBase:
    """An agent built from its scenario entry (an AgentSpec) and its own
    random stream; each kind names itself as kind, its parameter
    dataclass as Params and the AgentSpec keys only it reads as
    spec_keys."""

    spec_keys = ()

    def __init__(self, spec, rng: np.random.Generator):
        self.agent_id = spec.id
        self.rng = rng
        self.energy = EnergyModel(**spec.energy)
        self.params = self.Params(**spec.params)
        # the charge the Hearing's ledger starts this agent's row with
        self.start_wh = (self.energy.battery_max_wh
                         if spec.battery_wh is None else spec.battery_wh)
        self.led = LedMode.OFF
        self.queue = EmissionQueue()
        self.row = None          # this agent's row in the Hearing

    def _set_led(self, mode: LedMode, events: list):
        if mode is not self.led:
            events.append({"event": "led", "mode": mode.value})
        self.led = mode

    def step(self, hearing: "Hearing", clock):
        """Decide this tick from this agent's row of the Hearing, which
        has listened to the tick already; returns the tick's events. A
        queue active after the step sends its next hop this tick."""
        raise NotImplementedError


def occupancy_threshold(energies, percentile: float, floor: float):
    """The percentile of the band energies along the last axis, floored at
    an absolute level: one threshold for a composer's row of energies, or
    one per row of a stack of them."""
    return np.maximum(np.percentile(energies, percentile, axis=-1), floor)


@dataclass
class ComposerParams:
    slot_s: float = 4.0              # emission decisions happen on this grid
    occupancy_floor: float = 0.5     # absolute band-energy occupancy level
    occupancy_percentile: float = 25.0
    note_min_s: float = 0.5
    note_max_s: float = 3.0
    amplitude: float = 0.5
    range_full_db: float = 60.0      # ema_range mapping to attack/decay
    attack_fast_s: float = 0.005
    attack_slow_s: float = 0.4
    long_half_life_s: float = 120.0
    short_half_life_s: float = 2.0

    @property
    def slot_ticks(self) -> int:
        return max(1, int(round(self.slot_s / TICK_SECONDS)))


class ComposerAgent(AgentBase):
    """Claims the quietest Mel niche it can find and sings there.

    A note can start only on the agent's slot grid; one uniform draw per
    slot boundary happens whether or not a note follows, so two runs of
    the same seed stay draw-aligned even when their batteries differ.
    The preferred band is whatever the first selection picked; busy
    preferred bands force a detour to the emptiest free band, and if
    nothing at all is free the composer just waits.
    """

    kind = "composer"
    Params = ComposerParams
    spec_keys = ("preferred_band", "slot_offset_ticks")

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.profile = self.profile_row = None  # set by the Hearing
        self.preferred_band = spec.preferred_band
        self.slot_ticks = self.params.slot_ticks
        self.slot_offset_ticks = spec.slot_offset_ticks % self.slot_ticks
        self.current_band = None
        self.night_emissions = 0
        self.total_emissions = 0

    def select_band(self, instant_mel: np.ndarray) -> int | None:
        """Target band for a new note, or None when everything is busy.

        A band counts as occupied when its short-term memory or the
        instantaneous energy reaches the occupancy threshold: the 25th
        percentile of the long-term energies, floored at an absolute
        level. Anchoring the percentile to the slow memory is what makes
        a sudden broadband call cover every band (the composer waits it
        out) while a chronically loud field re-baselines over minutes
        and frees its quietest quartile again.
        """
        p = self.params
        ema = self.profile.ema_energy[self.profile_row]
        threshold = occupancy_threshold(ema, p.occupancy_percentile,
                                        p.occupancy_floor)
        effective = np.maximum(
            self.profile.short_term_energy[self.profile_row], instant_mel)
        occupied = effective >= threshold
        if self.preferred_band is not None and not occupied[self.preferred_band]:
            return self.preferred_band
        free = np.flatnonzero(~occupied)
        if len(free) == 0:
            return None
        band = int(free[np.argmin(ema[free])])
        if self.preferred_band is None:
            self.preferred_band = band
        return band

    def _attack_decay_s(self, band: int) -> float:
        p = self.params
        r = min(float(self.profile.ema_range_db[self.profile_row, band]),
                p.range_full_db)
        return p.attack_slow_s + (p.attack_fast_s - p.attack_slow_s) * (
            r / p.range_full_db)

    def step(self, hearing, clock):
        events = []
        p = self.params
        battery = hearing.battery_wh[self.row]
        if (clock.tick + self.slot_offset_ticks) % self.slot_ticks == 0:
            # one draw per boundary no matter what, so the stream stays
            # tick-aligned between runs whose batteries diverge
            u = float(self.rng.random())
            rate = self.energy.liveliness(battery, clock.is_night)
            p_slot = 1.0 - float(np.exp(-rate * p.slot_s))
            if (not self.queue.active
                    and battery >= self.energy.emission_floor_wh
                    and u < p_slot):
                band = self.select_band(hearing.mels[self.row])
                if band is not None:
                    self._start_note(band, battery, clock, events)

        if self.queue.active:
            self._set_led(LedMode.EMITTING, events)
            if self.queue.ending:
                events.append({"event": "emission_end",
                               "band": self.current_band})
                self.current_band = None
        else:
            self._set_led(LedMode.OFF, events)
        return events

    def _start_note(self, band: int, battery: float, clock, events: list):
        p = self.params
        frac = min(max(battery / self.energy.battery_max_wh, 0.0), 1.0)
        duration_s = p.note_min_s + (p.note_max_s - p.note_min_s) * frac
        n = int(round(duration_s * SAMPLE_RATE))
        ad = min(self._attack_decay_s(band), duration_s / 2.0)
        ad_n = int(round(ad * SAMPLE_RATE))
        freq = float(default_filterbank().band_centers_hz[band])
        self.queue.sing(n, partial(synth_tone, freq, p.amplitude, n, ad_n,
                                   ad_n, SAMPLE_RATE))
        self.current_band = band
        self.total_emissions += 1
        if clock.is_night:
            self.night_emissions += 1
        events.append({
            "event": "emission_start",
            "band": band,
            "preferred_band": self.preferred_band,
            "freq_hz": freq,
            "amp": p.amplitude,
            "n_samples": n,
            "attack_samples": ad_n,
            "decay_samples": ad_n,
        })

    def summary(self) -> dict:
        return {"total_emissions": self.total_emissions,
                "night_emissions": self.night_emissions,
                "preferred_band": self.preferred_band}


@dataclass
class CollectorParams:
    tone_frames: int = 20           # consecutive same-argmax frames to call it a tone
    flatness_max: float = 0.3
    playback_refractory_s: float = 10.0
    accepted_blue_s: float = 2.0
    record_max_s: float = ft.MAX_RECORD_S
    max_items: int = ft.DEFAULT_MAX_ITEMS
    capacity_bytes: int = ft.DEFAULT_CAPACITY_BYTES


class CollectorAgent(AgentBase):
    """Keeps the recordings that diversify its collection, and answers
    composer tones at night with a stored sound."""

    kind = "collector"
    Params = CollectorParams

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.collection = ft.SampleCollection(
            max_items=self.params.max_items,
            capacity_bytes=self.params.capacity_bytes)
        self._refractory_until = -1
        self._blue_until = -1

    def step(self, hearing, clock):
        events = []
        if hearing.fired[self.row]:
            events.append({"event": "record_start"})
        sample = hearing.finished.get(self.row)
        if sample is not None:
            events.append({"event": "record_end",
                           "duration_s": sample.duration_s,
                           "nbytes": sample.nbytes})
            decision = self.collection.add(sample)
            events.append({
                "event": "sample_decision",
                "verdict": decision.verdict.value,
                "replace_index": decision.replace_index,
                "collection_size": len(self.collection),
                "total_bytes": self.collection.total_bytes,
                "_pcm": sample.pcm if decision.accepted else None,
                "captured_at": sample.captured_at,
            })
            if decision.accepted:
                self._blue_until = clock.tick + int(
                    round(self.params.accepted_blue_s / TICK_SECONDS))

        recording = hearing.recording[self.row]
        if self._tone_trigger_ready(recording, hearing, clock):
            self._start_playback(hearing, clock, events)

        if self.queue.ending:
            events.append({"event": "playback_end"})

        if recording:
            self._set_led(LedMode.ACQUIRING_RED, events)
        elif clock.tick < self._blue_until:
            self._set_led(LedMode.ACCEPTED_BLUE, events)
        elif self.queue.active:
            self._set_led(LedMode.EMITTING, events)
        else:
            self._set_led(LedMode.OFF, events)
        return events

    def _tone_trigger_ready(self, recording, hearing, clock) -> bool:
        # the agent's own state first: a recording collector never asks
        # the clock whether it is night
        return (not recording
                and not self.queue.active
                and len(self.collection) > 0
                and hearing.tone_run[self.row] >= self.params.tone_frames
                and clock.tick >= self._refractory_until
                and hearing.battery_wh[self.row]
                >= self.energy.emission_floor_wh
                and clock.is_night)

    def _start_playback(self, hearing, clock, events: list):
        index = int(self.rng.integers(len(self.collection)))
        sample = self.collection.items[index]
        self.queue.start(sample.pcm)
        self._refractory_until = clock.tick + int(
            round(self.params.playback_refractory_s / TICK_SECONDS))
        # the clip is logged once, by the sample_decision that kept it, and
        # captured_at names that decision
        events.append({
            "event": "playback_start",
            "sample_index": index,
            "captured_at": sample.captured_at,
            "n_samples": len(sample.pcm),
            "tone_band": int(hearing.tone_band[self.row]),
        })

    def summary(self) -> dict:
        return {"collection_size": len(self.collection),
                "collection_bytes": self.collection.total_bytes}


@dataclass
class DisruptorParams:
    capture_max_s: float = 5.0


class DisruptorAgent(AgentBase):
    """Warps whatever it captured nearby and plays it back."""

    kind = "disruptor"
    Params = DisruptorParams

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.disruptions = 0

    def step(self, hearing, clock):
        events = []
        if hearing.fired[self.row]:
            events.append({"event": "capture_start"})
        sample = hearing.finished.get(self.row)
        if sample is not None:
            events.append({"event": "capture_end",
                           "duration_s": sample.duration_s})
            self._disrupt(sample, hearing.battery_wh[self.row], events)

        if self.queue.active:
            self._set_led(LedMode.EMITTING, events)
            if self.queue.ending:
                events.append({"event": "disrupt_end"})
        elif hearing.recording[self.row]:
            self._set_led(LedMode.ACQUIRING_RED, events)
        else:
            self._set_led(LedMode.OFF, events)
        return events

    def _disrupt(self, sample: ft.SoundSample, battery: float, events: list):
        spec = dsp.random_spec(self.rng)
        if battery < self.energy.emission_floor_wh:
            events.append({"event": "disrupt_skipped",
                           "reason": "battery_floor"})
            return
        out = dsp.apply_transform(sample.pcm, spec).astype(np.float32)
        self.queue.start(out)
        self.disruptions += 1
        events.append({
            "event": "disrupt_start",
            "transform": spec.kind,
            "carrier_hz": spec.carrier_hz,
            "fm_index": dsp.FM_INDEX,
            "in_samples": len(sample.pcm),
            "out_samples": len(out),
            "_pcm": out,
        })

    def summary(self) -> dict:
        return {"disruptions": self.disruptions}


class Hearing:
    """What a group of agents hears each tick, worked out for all at once.

    listen() takes the tick's frames, the previous tick's frames, their
    spectra and Mel energies, one row per agent in the order given, and
    does all the listening on arrays. For collectors and disruptors it
    detects onsets, armed in rows neither recording nor hearing
    themselves, feeds each open recording the tick's hop, hands out the
    samples that close (`finished`) and opens a recording pre-rolled with
    the previous frame in each row that fired (`recording`). It updates
    the spectral memory of composers not hearing themselves, whose rows
    become the composers' own, and counts each collector's run of frames
    that one narrowband peak dominates (`tone_run`, in Mel band
    `tone_band`), zero while it hears itself. Each agent's step() then
    reads its row; agents do not hear each other within a tick.

    It also holds each agent's battery ledger, which energy_step()
    advances, and its echo veto, which veto_echo() sets: both read who sent
    a hop from the bus deal's mask. It keeps no agent; it gathers what it
    needs of their parameters when built. n_ticks is the run's length,
    which bounds what a recording can still be fed.
    """

    def __init__(self, agents, n_ticks: int):
        agents = list(agents)
        self._n_ticks = n_ticks
        kinds = [a.kind for a in agents]
        caps = {"collector": "record_max_s", "disruptor": "capture_max_s"}
        # the rows of each kind, as arrays: they gather faster than lists
        self._listeners = np.flatnonzero([k in caps for k in kinds])
        self._composers = np.flatnonzero([k == "composer" for k in kinds])
        self._collectors = np.flatnonzero([k == "collector" for k in kinds])
        self._max_s = {j: getattr(agents[j].params, caps[kinds[j]])
                       for j in self._listeners.tolist()}
        self._flatness_max = np.array(
            [agents[j].params.flatness_max for j in self._collectors])
        self.onsets = ft.OnsetDetector(len(self._listeners))
        composers = [agents[j] for j in self._composers]
        self.profile = SpectralProfile(
            [c.params.long_half_life_s for c in composers],
            [c.params.short_half_life_s for c in composers])
        for row, composer in enumerate(composers):
            composer.profile, composer.profile_row = self.profile, row
        for row, agent in enumerate(agents):
            agent.row = row
        n = len(agents)
        (self.battery_max_wh, self.harvest_peak_w, self.cost_base_w,
         self.cost_emit_w) = np.array(
            [[e.battery_max_wh, e.harvest_peak_w, e.cost_idle_w
              + e.cost_listen_w, e.cost_emit_w]
             for e in (a.energy for a in agents)]).reshape(n, 4).T
        self.battery_wh = np.array([a.start_wh for a in agents], float)
        self.harvested_wh, self.consumed_wh = np.zeros((2, n))
        self.echo_until = np.full(n, -1)
        self.fired = np.zeros(n, dtype=bool)
        self.levels = np.zeros(n)              # RMS of each row's new hop
        self.recording = np.zeros(n, dtype=bool)
        self._sessions = {}                    # row -> its open recording
        self.finished = {}                     # row -> sample closed this tick
        self.tone_run = np.zeros(n, dtype=int)
        self.tone_band = np.full(n, -1)
        self.hops = self.mels = self.echo = None

    def veto_echo(self, sent: np.ndarray, tick: int):
        """The agents that sent a hop at tick hear themselves (`echo`)
        through tick + 2: the hop reaches everyone next tick and lingers
        in the overlapping frame for one more."""
        self.echo_until[sent] = tick + 2

    def energy_summary(self, row: int) -> dict:
        return {"battery_wh": float(self.battery_wh[row]),
                "harvested_wh": float(self.harvested_wh[row]),
                "consumed_wh": float(self.consumed_wh[row])}

    def listen(self, frames: np.ndarray, prev_frames: np.ndarray,
               spectra: np.ndarray, mel_energies: np.ndarray, clock):
        self.hops = frames[:, FRAME_SIZE - FRAME_HOP:]
        self.mels = mel_energies
        # an agent emitting this tick sent a hop last tick, so the echo
        # veto covers it too
        self.echo = clock.tick <= self.echo_until
        rows = self._listeners
        self.onsets.update(spectra[rows], ~(self.recording | self.echo)[rows])
        self.fired[rows] = self.onsets.fired
        self.levels[rows] = np.sqrt(
            np.mean(np.square(self.hops[rows]), axis=1))
        # feed the open recordings, then open one in each row that fired
        hops, levels = self.hops, self.levels.tolist()
        self.finished = {}
        for r, session in list(self._sessions.items()):
            sample = session.feed(hops[r], levels[r])
            if sample is not None:
                self.finished[r] = sample
                del self._sessions[r]
                self.recording[r] = False
        for r in np.flatnonzero(self.fired).tolist():
            session = self._sessions[r] = ft.RecordingSession(
                clock.tick, prev_frames[r], self._max_s[r],
                self._n_ticks - clock.tick)
            # a sample this first feed returns (a cap of at most pre-roll
            # and one hop) is handed out by the next feed
            session.feed(hops[r], levels[r])
        self.recording |= self.fired
        rows = self._composers
        self.profile.update(mel_energies[rows], ~self.echo[rows])
        rows = self._collectors
        mels = mel_energies[rows]
        tonal = ((ft.spectral_flatness(mels) < self._flatness_max)
                 & ~self.echo[rows])
        band, held = np.argmax(mels, axis=1), self.tone_band[rows]
        self.tone_run[rows] = tonal * np.where(
            band == held, self.tone_run[rows] + 1, 1)
        self.tone_band[rows] = np.where(tonal, band, held)


AGENT_KINDS = {cls.kind: cls
               for cls in (ComposerAgent, CollectorAgent, DisruptorAgent)}
