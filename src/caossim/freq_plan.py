"""Design and audit of FDMA channel-frequency ladders.

A slot carries P carriers at once, so every carrier must sit exactly on a
spectrum bin and no carrier may coincide with an odd harmonic of another
(alias folds included).  Both constraints are met by the power-of-two
ladder f_j = 2**(j-1) * f_1 with f_1 = 2**(m-1) * delta_f in a window of
fs = 2**p * delta_f: every member is fs/2**k (k >= 2), so it has a whole,
even number of samples per period and zero even harmonics.  In Q = 2**p
bins two bin-exact carriers collide exactly when their folded bins have the
same largest power-of-two factor, which distinct ladder members never do.

Bins are integers: a frequency becomes a bin once (``whole_number`` where it
must be exact, ``nearest_bin`` for a plan's placements), and every fold and
collision test after that is integer arithmetic on bins and Q, the lowest
colliding odd harmonic included: it is solved for, not scanned.

``design_plan`` builds such a ladder; ``validate_plan`` audits an
arbitrary frequency set and reports every violation it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .waveform import SamplingWindow, fold_bin, nearest_bin, whole_number

__all__ = [
    "MainsGuardWarning",
    "FrequencyPlan",
    "HarmonicCollision",
    "ValidationReport",
    "design_plan",
    "plan_from_frequencies",
    "validate_plan",
    "available_slots",
]

MAINS_GUARD_HZ = 50.0


class MainsGuardWarning(UserWarning):
    """Carrier at or below the AC mains fundamental; allowed but risky.  A TDMA run warns
    once from its plan's audit (``ValidationReport.mains_guard_note``)."""


@dataclass(frozen=True)
class FrequencyPlan:
    """A validated carrier set plus its sampling bookkeeping.

    p is the ADC exponent (fs = 2**p * delta_f, Q = 2**p); m is the base
    exponent of the lowest carrier (f_1 = 2**(m-1) * delta_f).  m is None
    for plans wrapped around an explicit, possibly non-ladder frequency
    list.
    """

    delta_f: float
    T: float
    fs: float
    Q: int
    p: int
    m: int | None
    channels: tuple[float, ...]
    bins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.channels) < 1:
            raise ValueError("plan needs at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channels must be distinct")

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def window(self) -> SamplingWindow:
        return SamplingWindow(fs=self.fs, T=self.T, Q=self.Q, delta_f=self.delta_f)


class HarmonicCollision(NamedTuple):
    """Channel sitting on the (possibly alias-folded) h-th harmonic of another."""

    frequency: float
    source: float
    harmonic: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-frequency audit findings; passes iff every hard-flag list is empty.

    below_mains_guard is a warning list: it mirrors a practical layout rule,
    not a mathematical one, and does not affect the verdict.  on_mains_bin
    lists the carriers whose bin the simulated mains tone hits.
    """

    frequencies: tuple[float, ...]
    not_multiple_of_delta_f: tuple[float, ...]
    not_power_of_two_ladder: tuple[float, ...]
    odd_harmonic_collision: tuple[HarmonicCollision, ...]
    below_mains_guard: tuple[float, ...]
    on_mains_bin: tuple[float, ...] = ()

    @property
    def passed(self) -> bool:
        return not (
            self.not_multiple_of_delta_f
            or self.not_power_of_two_ladder
            or self.odd_harmonic_collision
            or self.on_mains_bin
        )

    def flagged_indices(self) -> tuple[int, ...]:
        """Positions (0-based) of input frequencies carrying a hard flag."""
        bad = set(self.not_multiple_of_delta_f) | set(self.not_power_of_two_ladder)
        bad |= {c.frequency for c in self.odd_harmonic_collision} | set(self.on_mains_bin)
        return tuple(i for i, f in enumerate(self.frequencies) if f in bad)

    def mains_guard_note(self) -> str:
        """One line naming the carriers at or below the mains guard ('' when none is)."""
        if not self.below_mains_guard:
            return ""
        low = ", ".join(f"{f:g} Hz" for f in self.below_mains_guard)
        return f"carriers at or below the {MAINS_GUARD_HZ:g} Hz mains fundamental: {low}"

    def summary(self) -> str:
        lines = [f"verdict: {'pass' if self.passed else 'FAIL'}"]
        lines += [f"  {f} Hz: not a multiple of delta_f" for f in self.not_multiple_of_delta_f]
        lines += [f"  {f} Hz: breaks power-of-two ladder" for f in self.not_power_of_two_ladder]
        lines += [f"  {c.frequency} Hz: collides with harmonic {c.harmonic} of {c.source} Hz"
                  for c in self.odd_harmonic_collision]
        lines += [f"  {f} Hz: on the bin of the mains tone (noise.mains_freq)"
                  for f in self.on_mains_bin]
        lines += [f"  {f} Hz: warning, at or below {MAINS_GUARD_HZ:g} Hz mains"
                  for f in self.below_mains_guard]
        return "\n".join(lines)


def design_plan(T: float, p: int, m: int, P: int) -> FrequencyPlan:
    """Build the P-channel power-of-two ladder for a window of 2**p samples.

    delta_f = 1/T, fs = 2**p * delta_f, f_1 = 2**(m-1) * delta_f and
    f_j = 2**(j-1) * f_1.  The fastest carrier must keep at least four
    samples per period (f_P <= fs/4, i.e. m + P <= p).
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    window = SamplingWindow.design(T, p)
    if m + P > p:
        raise ValueError(
            f"fastest carrier 2**{m + P - 2} * delta_f exceeds fs/4 = 2**{p - 2} * delta_f "
            "(fewer than 4 samples per period)"
        )
    f1 = 2.0 ** (m - 1) * window.delta_f
    return _plan(window, p, m, tuple(f1 * 2.0 ** (j - 1) for j in range(1, P + 1)))


def plan_from_frequencies(
    frequencies: Sequence[float], T: float, p: int
) -> FrequencyPlan:
    """Wrap an explicit (not necessarily valid) frequency list in a plan.

    Bins are nearest-bin placements so that misconfigured carriers can
    still be scheduled and decoded for crosstalk demonstrations; a carrier
    above fs/2 has no bin and is rejected.
    """
    w = SamplingWindow.design(T, p)
    for f in frequencies:
        # nearest_bin would accept f within half a bin above fs/2, which no sampler can reach
        if f > w.fs / 2:
            raise ValueError(f"{f} Hz lies outside the spectrum 0..{w.fs / 2:g} Hz")
    return _plan(w, p, None, tuple(float(f) for f in frequencies))


def _plan(w: SamplingWindow, p: int, m: int | None, channels: tuple[float, ...]) -> FrequencyPlan:
    """The plan of `channels` in window `w`, each placed on its nearest bin."""
    bins = tuple(nearest_bin(f, w.delta_f, w.Q) for f in channels)
    return FrequencyPlan(w.delta_f, w.T, w.fs, w.Q, p, m, channels, bins)


def _on_ladder(n: int | None) -> bool:
    """n = fs/f samples per period is a whole power of two >= 4."""
    return n is not None and n >= 4 and n & (n - 1) == 0


def _lowest_odd_harmonic(b: int, v: int, q: int) -> int | None:
    """The lowest odd h with fold_bin(h * b, q) == v, or None when no odd h has it.

    fold_bin(h * b, q) == v exactly when h * b = +-v (mod q).  With g = gcd(b, q)
    and m = q / g that needs g | v, and then h = +-(v/g) * (b/g)**-1 (mod m).  Of
    each class, the least positive member is odd, or is even and has an odd
    member, that plus m, only when m is odd.
    """
    g = math.gcd(b, q)
    if v % g:
        return None
    m = q // g
    r = v // g * pow(b // g, -1, m) % m
    return min((h if h % 2 else h + m for h in (r or m, m - r) if h % 2 or m % 2), default=None)


def validate_plan(
    frequencies: Sequence[float],
    delta_f: float,
    fs: float,
    *,
    mains_hz: float | None = None,
) -> ValidationReport:
    """Audit a carrier set against the whole-cycle and no-collision rules.

    Flags, per frequency: (a) not an integer multiple of delta_f, (b) fs/f
    is not a whole power of two >= 4, (c) coinciding, after alias folding
    about fs, with an odd harmonic h >= 1 (h = 1: the same bin) of another
    bin-exact member, (d) with ``mains_hz``, a mains tone on a whole bin
    that folds onto the carrier's bin.  The tone is a pure sine, so only
    its fundamental can land on a bin.  A collision is charged to the
    channel whose bin is hit, with the lowest such h, however high.
    Findings are sorted by frequency, so the report is independent of
    input order.  A report is always produced, unless fs is not a whole
    multiple of delta_f (ValueError).
    """
    if not frequencies:
        raise ValueError("frequency list must be nonempty")
    freqs = tuple(float(f) for f in frequencies)
    if any(f <= 0 for f in freqs):
        raise ValueError("frequencies must be positive")
    q = whole_number(fs / delta_f)
    if q is None:
        raise ValueError(f"fs / delta_f = {fs / delta_f:g} is not a whole number of bins")

    # the folded bin of each bin-exact member, keyed by input position
    exact = {i: whole_number(f / delta_f) for i, f in enumerate(freqs)}
    bins = {i: fold_bin(b, q) for i, b in exact.items() if b is not None}
    not_multiple = tuple(sorted(f for i, f in enumerate(freqs) if i not in bins))

    ladder_breaks = sorted(freqs[i] for i in bins if not _on_ladder(whole_number(fs / freqs[i])))
    collisions = sorted(
        HarmonicCollision(freqs[victim], freqs[source], h)
        for source, b in bins.items() for victim, v in bins.items()
        if victim != source and (h := _lowest_odd_harmonic(b, v, q)) is not None
    )

    tone = None if mains_hz is None else whole_number(mains_hz / delta_f)
    on_tone = [] if tone is None else [freqs[i] for i, b in bins.items() if b == fold_bin(tone, q)]
    mains = tuple(sorted(f for f in freqs if f <= MAINS_GUARD_HZ))
    return ValidationReport(
        frequencies=freqs,
        not_multiple_of_delta_f=not_multiple,
        not_power_of_two_ladder=tuple(ladder_breaks),
        odd_harmonic_collision=tuple(collisions),
        below_mains_guard=mains,
        on_mains_bin=tuple(sorted(on_tone)),
    )


def available_slots(
    f_a: float, used: Sequence[float], horizon: int = 8
) -> list[float]:
    """Even multiples of f_a still usable as additional carriers.

    A multiple k*f_a (k even, k <= horizon) is available when it is not an
    odd harmonic h >= 1 of any used frequency (h = 1: already used).
    """
    if horizon < 2:
        raise ValueError(f"horizon {horizon} holds no even multiple of f_a; it must be >= 2")
    if not used:
        raise ValueError("used list must be nonempty")
    used_mult = []
    for u in used:
        m = whole_number(u / f_a)
        if m is None:
            raise ValueError(f"used frequency {u} is not a multiple of f_a = {f_a}")
        if m < 1:
            raise ValueError(f"used frequency {u} is below f_a = {f_a}")
        used_mult.append(m)

    return [k * f_a for k in range(2, horizon + 1, 2)
            if not any(k % m == 0 and k // m % 2 for m in used_mult)]
