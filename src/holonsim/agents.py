"""The three agent behaviours and their shared plumbing.

Composers listen for quiet spectral territory and sing sinusoid notes
into it; collectors record onsets and keep the recordings that diversify
their collection, playing them back at night when they hear a composer
tone; disruptors grab whatever sounds loud, mangle it and throw it back.

All hearing arithmetic runs once per tick for every agent at once, on
arrays with one row per agent held by a Hearing: onset detection, spectral
memory, tone features and hop levels. Each agent reads its own row and
keeps only its decisions. All sound leaves through an emission queue that
the scheduler drains one hop per tick (audible to everyone the next tick).
Agents never inspect each other: sound on the bus is the only channel.
"""

from dataclasses import dataclass
from enum import Enum

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

    def harvest_w(self, clock: SimClock) -> float:
        """Sinusoidal insolation arc over the day; zero during night."""
        if clock.is_night:
            return 0.0
        night_lo, night_hi = clock.night_window
        day_start = night_hi % 1.0
        day_len = (night_lo - night_hi) % 1.0
        if day_len == 0.0:
            day_len = 1.0  # empty night window: the arc spans the whole cycle
        progress = ((clock.day_fraction - day_start) % 1.0) / day_len
        return self.harvest_peak_w * float(np.sin(np.pi * progress))

    def liveliness(self, battery_wh: float, is_night: bool) -> float:
        frac = min(max(battery_wh / self.battery_max_wh, 0.0), 1.0)
        rate = self.liveliness_per_s * frac
        return rate if is_night else rate * self.day_liveliness_scale


def energy_step(agent: "AgentBase", harvest: float,
                dt_s: float = TICK_SECONDS):
    """Integrate one tick of harvest and consumption, clamped to the pack.

    harvest is agent.energy.harvest_w(clock) for the tick. It depends only
    on the model's values and the clock, so the scheduler works it out
    once per distinct model.
    """
    model = agent.energy
    cost = model.cost_idle_w + model.cost_listen_w
    if agent.emitted_this_tick:
        cost += model.cost_emit_w
    dt_h = dt_s / 3600.0
    raw = agent.battery_wh + (harvest - cost) * dt_h
    agent.harvested_wh += harvest * dt_h
    agent.consumed_wh += cost * dt_h
    if raw > model.battery_max_wh:
        agent.overflow_wh += raw - model.battery_max_wh
        raw = model.battery_max_wh
    elif raw < 0.0:
        agent.unpaid_wh += -raw
        raw = 0.0
    agent.battery_wh = raw


# --- spectral memory --------------------------------------------------------

def _ema_alpha(half_life_s: float, dt_s: float = TICK_SECONDS) -> float:
    return 1.0 - 2.0 ** (-dt_s / half_life_s)


def _row_alphas(half_life_s, n: int) -> np.ndarray:
    """(n, 1) EMA weights, each worked out in Python floats by _ema_alpha."""
    return np.array([[_ema_alpha(h)]
                     for h in np.broadcast_to(half_life_s, (n,)).tolist()])


class SpectralProfile:
    """Two-timescale memory of the Mel band energies heard, one row per
    listener (n rows of n_bands).

    ema_energy tracks the long-term mean energy per band (slow EMA),
    short_term the recent occupancy (fast EMA), and ema_range a per-band
    dynamic range in dB from fast-attack/slow-release peak and floor
    followers. Half-lives are scalars or one per row.
    """

    def __init__(self, n: int = 1, n_bands: int = N_MEL_BANDS,
                 long_half_life_s=120.0, short_half_life_s=2.0):
        self._alpha_long = _row_alphas(long_half_life_s, n)
        self._alpha_short = _row_alphas(short_half_life_s, n)
        self.ema_energy = np.zeros((n, n_bands))
        self.short_term_energy = np.zeros((n, n_bands))
        self._peak_db = np.zeros((n, n_bands))
        self._floor_db = np.zeros((n, n_bands))
        self._seen = np.zeros((n, 1), dtype=bool)

    def update(self, mel_energies: np.ndarray, rows=True):
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

class EmissionQueue:
    """Holds one outgoing clip and deals it out a hop at a time."""

    def __init__(self):
        self._pcm = None
        self._pos = 0

    @property
    def active(self) -> bool:
        return self._pcm is not None

    def start(self, pcm: np.ndarray):
        self._pcm = np.asarray(pcm, dtype=np.float32)
        self._pos = 0

    def next_hop(self) -> np.ndarray | None:
        if self._pcm is None:
            return None
        chunk = self._pcm[self._pos:self._pos + FRAME_HOP]
        self._pos += FRAME_HOP
        if self._pos >= len(self._pcm):
            self._pcm = None
        if len(chunk) < FRAME_HOP:
            chunk = np.pad(chunk, (0, FRAME_HOP - len(chunk)))
        return chunk


def synth_tone(freq_hz: float, amp: float, n_samples: int,
               attack_samples: int, decay_samples: int,
               sample_rate: int) -> np.ndarray:
    """Sinusoid with linear attack/decay ramps, as a float32 clip.

    Pure function of its arguments so a logged note can be re-rendered
    bit for bit.
    """
    t = np.arange(n_samples) / sample_rate
    tone = amp * np.sin(2.0 * np.pi * freq_hz * t)
    env = np.ones(n_samples)
    if attack_samples > 0:
        ramp = np.arange(attack_samples) / attack_samples
        env[:attack_samples] = ramp
    if decay_samples > 0:
        ramp = np.arange(decay_samples, 0, -1) / decay_samples
        env[n_samples - decay_samples:] = ramp
    return (tone * env).astype(np.float32)


# --- agents -------------------------------------------------------------------

class AgentBase:
    """An agent built from its scenario entry (an AgentSpec) and its own
    random stream; each kind names its parameter dataclass as Params."""

    kind = "agent"

    def __init__(self, spec, rng: np.random.Generator):
        self.agent_id = spec.id
        self.rng = rng
        self.energy = EnergyModel(**spec.energy)
        self.params = self.Params(**spec.params)
        self.battery_wh = (self.energy.battery_max_wh
                           if spec.battery_wh is None else spec.battery_wh)
        self.led = LedMode.OFF
        self.queue = EmissionQueue()
        self.emitted_this_tick = False
        self._self_audible_until = -1
        self.row = None          # this agent's row in the Hearing
        self.harvested_wh = 0.0
        self.consumed_wh = 0.0
        self.overflow_wh = 0.0
        self.unpaid_wh = 0.0

    @property
    def is_emitting(self) -> bool:
        return self.queue.active

    def _drain_queue(self, tick: int):
        """Pop the tick's outgoing hop and extend the self-audibility veto."""
        hop = self.queue.next_hop()
        if hop is not None:
            # the hop reaches everyone (us included) next tick and lingers
            # in the overlapping frame for one more
            self._self_audible_until = tick + 2
        return hop

    def hears_self(self, tick: int) -> bool:
        return tick <= self._self_audible_until

    def _set_led(self, mode: LedMode, events: list):
        if mode is not self.led:
            events.append({"event": "led", "mode": mode.value})
        self.led = mode

    def step(self, hearing: "Hearing", clock):
        """Decide this tick from this agent's row of the Hearing, which
        has listened to the tick already; returns (hop or None, events)."""
        raise NotImplementedError

    def summary(self) -> dict:
        return {
            "battery_wh": self.battery_wh,
            "harvested_wh": self.harvested_wh,
            "consumed_wh": self.consumed_wh,
        }


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
        threshold = max(
            float(np.percentile(ema, p.occupancy_percentile)),
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
        if (clock.tick + self.slot_offset_ticks) % self.slot_ticks == 0:
            # one draw per boundary no matter what, so the stream stays
            # tick-aligned between runs whose batteries diverge
            u = float(self.rng.random())
            rate = self.energy.liveliness(self.battery_wh, clock.is_night)
            p_slot = 1.0 - float(np.exp(-rate * p.slot_s))
            if (not self.is_emitting
                    and self.battery_wh >= self.energy.emission_floor_wh
                    and u < p_slot):
                band = self.select_band(hearing.mels[self.row])
                if band is not None:
                    self._start_note(band, clock, events)

        hop = self._drain_queue(clock.tick)
        self.emitted_this_tick = hop is not None
        if hop is not None:
            self._set_led(LedMode.EMITTING, events)
            if not self.queue.active:
                events.append({"event": "emission_end",
                               "band": self.current_band})
                self.current_band = None
        else:
            self._set_led(LedMode.OFF, events)
        return hop, events

    def _start_note(self, band: int, clock, events: list):
        p = self.params
        frac = min(max(self.battery_wh / self.energy.battery_max_wh, 0.0), 1.0)
        duration_s = p.note_min_s + (p.note_max_s - p.note_min_s) * frac
        n = int(round(duration_s * SAMPLE_RATE))
        ad = min(self._attack_decay_s(band), duration_s / 2.0)
        ad_n = int(round(ad * SAMPLE_RATE))
        freq = float(default_filterbank().band_centers_hz[band])
        pcm = synth_tone(freq, p.amplitude, n, ad_n, ad_n, SAMPLE_RATE)
        self.queue.start(pcm)
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
        out = super().summary()
        out.update({
            "total_emissions": self.total_emissions,
            "night_emissions": self.night_emissions,
            "preferred_band": self.preferred_band,
        })
        return out


class _Listener(AgentBase):
    """An agent that records whatever its onset detector row catches."""

    session = None

    def armed(self, tick: int) -> bool:
        """Whether an onset heard this tick may open a recording."""
        return (self.session is None and not self.is_emitting
                and not self.hears_self(tick))

    def _record(self, hearing: "Hearing", tick: int, max_s: float,
                start_event: str, events: list) -> "ft.SoundSample | None":
        """Feed the tick's hop to the open recording, or open one on an
        onset; returns the sample once its recording closes."""
        r = self.row
        if self.session is not None:
            sample = self.session.feed(hearing.hops[r], hearing.levels[r])
            if sample is not None:
                self.session = None
            return sample
        if hearing.fired[r]:
            self.session = ft.RecordingSession(
                tick, preroll=hearing.prev_frames[r], max_s=max_s)
            self.session.feed(hearing.hops[r], hearing.levels[r])
            events.append({"event": start_event})
        return None


@dataclass
class CollectorParams:
    tone_frames: int = 20           # consecutive same-argmax frames to call it a tone
    flatness_max: float = 0.3
    playback_refractory_s: float = 10.0
    accepted_blue_s: float = 2.0
    record_max_s: float = ft.MAX_RECORD_S
    max_items: int = ft.DEFAULT_MAX_ITEMS
    capacity_bytes: int = ft.DEFAULT_CAPACITY_BYTES


class CollectorAgent(_Listener):
    """Records onsets, keeps what diversifies its collection, and answers
    composer tones at night with a stored sound."""

    kind = "collector"
    Params = CollectorParams

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.collection = ft.SampleCollection(
            max_items=self.params.max_items,
            capacity_bytes=self.params.capacity_bytes)
        self._tone_band = -1
        self._tone_run = 0
        self._refractory_until = -1
        self._blue_until = -1

    @property
    def is_recording(self) -> bool:
        return self.session is not None

    def step(self, hearing, clock):
        events = []
        sample = self._record(hearing, clock.tick, self.params.record_max_s,
                              "record_start", events)
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

        self._update_tone_tracker(hearing, clock)
        if self._tone_trigger_ready(clock):
            self._start_playback(clock, events)

        hop = self._drain_queue(clock.tick)
        self.emitted_this_tick = hop is not None
        if hop is not None and not self.queue.active:
            events.append({"event": "playback_end"})

        if self.is_recording:
            self._set_led(LedMode.ACQUIRING_RED, events)
        elif clock.tick < self._blue_until:
            self._set_led(LedMode.ACCEPTED_BLUE, events)
        elif hop is not None:
            self._set_led(LedMode.EMITTING, events)
        else:
            self._set_led(LedMode.OFF, events)
        return hop, events

    def _update_tone_tracker(self, hearing, clock):
        """Count consecutive frames dominated by one narrowband peak."""
        if self.is_emitting or self.hears_self(clock.tick):
            self._tone_run = 0
            return
        band = int(hearing.tone_bands[self.row])
        flat = hearing.flatness[self.row]
        if flat < self.params.flatness_max and band == self._tone_band:
            self._tone_run += 1
        elif flat < self.params.flatness_max:
            self._tone_band = band
            self._tone_run = 1
        else:
            self._tone_run = 0

    def _tone_trigger_ready(self, clock) -> bool:
        # the agent's own state first: a recording collector never asks
        # the clock whether it is night
        return (not self.is_recording
                and not self.is_emitting
                and len(self.collection) > 0
                and self._tone_run >= self.params.tone_frames
                and clock.tick >= self._refractory_until
                and self.battery_wh >= self.energy.emission_floor_wh
                and clock.is_night)

    def _start_playback(self, clock, events: list):
        index = int(self.rng.integers(len(self.collection)))
        sample = self.collection.items[index]
        self.queue.start(sample.pcm)
        self._refractory_until = clock.tick + int(
            round(self.params.playback_refractory_s / TICK_SECONDS))
        self._tone_run = 0
        events.append({
            "event": "playback_start",
            "sample_index": index,
            "captured_at": sample.captured_at,
            "n_samples": len(sample.pcm),
            "tone_band": self._tone_band,
            "_pcm": sample.pcm,
        })

    def summary(self) -> dict:
        out = super().summary()
        out.update({
            "collection_size": len(self.collection),
            "collection_bytes": self.collection.total_bytes,
        })
        return out


@dataclass
class DisruptorParams:
    capture_max_s: float = 5.0


class DisruptorAgent(_Listener):
    """Captures whatever starts up nearby, warps it, and plays it back."""

    kind = "disruptor"
    Params = DisruptorParams

    def __init__(self, spec, rng):
        super().__init__(spec, rng)
        self.disruptions = 0

    @property
    def is_capturing(self) -> bool:
        return self.session is not None

    def step(self, hearing, clock):
        events = []
        sample = self._record(hearing, clock.tick, self.params.capture_max_s,
                              "capture_start", events)
        if sample is not None:
            events.append({"event": "capture_end",
                           "duration_s": sample.duration_s})
            self._disrupt(sample, clock, events)

        hop = self._drain_queue(clock.tick)
        self.emitted_this_tick = hop is not None
        if hop is not None:
            self._set_led(LedMode.EMITTING, events)
            if not self.queue.active:
                events.append({"event": "disrupt_end"})
        elif self.is_capturing:
            self._set_led(LedMode.ACQUIRING_RED, events)
        else:
            self._set_led(LedMode.OFF, events)
        return hop, events

    def _disrupt(self, sample: ft.SoundSample, clock, events: list):
        spec = dsp.random_spec(self.rng)
        if self.battery_wh < self.energy.emission_floor_wh:
            events.append({"event": "disrupt_skipped",
                           "reason": "battery_floor"})
            return
        out = dsp.apply_transform(sample.pcm, spec).astype(np.float32)
        self.queue.start(out)
        self.disruptions += 1
        events.append({
            "event": "disrupt_start",
            "transform": spec.kind.value,
            "carrier_hz": spec.carrier_hz,
            "fm_index": spec.fm_index,
            "in_samples": len(sample.pcm),
            "out_samples": len(out),
            "_pcm": out,
        })

    def summary(self) -> dict:
        out = super().summary()
        out["disruptions"] = self.disruptions
        return out


class Hearing:
    """What a group of agents hears each tick, worked out for all at once.

    listen() takes the tick's frames, the previous tick's frames, their
    spectra and Mel energies, one row per agent in the order given, and
    runs the hearing arithmetic on arrays: onset detection for collectors
    and disruptors, armed from each one's state before anyone steps
    (agents do not hear each other within a tick); spectral memory for
    composers not hearing themselves, in a profile whose rows become the
    composers' own; and the collectors' tone features. Each agent's step()
    then reads its row.
    """

    def __init__(self, agents):
        self.agents = list(agents)
        kinds = [a.kind for a in self.agents]
        self._listeners = [j for j, k in enumerate(kinds)
                           if k in ("collector", "disruptor")]
        self._composers = [j for j, k in enumerate(kinds) if k == "composer"]
        self._collectors = [j for j, k in enumerate(kinds)
                            if k == "collector"]
        self.onsets = ft.OnsetDetector(len(self._listeners))
        composers = [self.agents[j] for j in self._composers]
        self.profile = SpectralProfile(
            len(composers),
            long_half_life_s=[c.params.long_half_life_s for c in composers],
            short_half_life_s=[c.params.short_half_life_s
                               for c in composers])
        for row, composer in enumerate(composers):
            composer.profile, composer.profile_row = self.profile, row
        for row, agent in enumerate(self.agents):
            agent.row = row
        # the listener rows are gathered into buffers kept for the run
        self._spectra = np.empty((len(self._listeners), FRAME_SIZE // 2 + 1))
        self._hop_rows = np.empty((len(self._listeners), FRAME_HOP))
        n = len(self.agents)
        self.fired = np.zeros(n, dtype=bool)
        self.levels = np.zeros(n)              # RMS of each row's new hop
        self.tone_bands = np.zeros(n, dtype=int)
        self.flatness = np.zeros(n)
        self.hops = self.prev_frames = self.mels = None

    def listen(self, frames: np.ndarray, prev_frames: np.ndarray,
               spectra: np.ndarray, mel_energies: np.ndarray, clock):
        tick = clock.tick
        self.hops = frames[:, FRAME_SIZE - FRAME_HOP:]
        self.prev_frames = prev_frames
        self.mels = mel_energies
        rows = self._listeners
        if rows:
            armed = [self.agents[j].armed(tick) for j in rows]
            # mode "clip": the rows are in range, and "raise" would copy out
            self.onsets.update(np.take(spectra, rows, axis=0,
                                       out=self._spectra, mode="clip"), armed)
            self.fired[rows] = self.onsets.fired
            hops = np.take(self.hops, rows, axis=0, out=self._hop_rows,
                           mode="clip")
            self.levels[rows] = np.sqrt(
                np.mean(np.square(hops, out=hops), axis=1))
        rows = self._composers
        if rows:
            self.profile.update(
                mel_energies[rows],
                [not self.agents[j].hears_self(tick) for j in rows])
        rows = self._collectors
        if rows:
            self.tone_bands[rows] = np.argmax(mel_energies[rows], axis=1)
            self.flatness[rows] = ft.spectral_flatness(mel_energies[rows])


AGENT_KINDS = {
    "composer": ComposerAgent,
    "collector": CollectorAgent,
    "disruptor": DisruptorAgent,
}
