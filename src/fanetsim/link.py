"""Radio link physics: power conversions, free-space propagation, BER, packet loss.

All operations are pure functions; every value is carried in full double
precision and converted to percent only at reporting boundaries.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from fanetsim.topology import Topology, distance

# Propagation constant used throughout (not the CODATA value; the link
# budget is defined in terms of c = 3e8 exactly).
SPEED_OF_LIGHT_M_S = 3.0e8


class BerModel(Enum):
    """Exponential BER approximations for binary signaling over AWGN.

    EXP_HALF_SNR: ber = 0.5 * exp(-snr / 2)
    EXP_SNR:      ber = 0.5 * exp(-snr)

    Both take the SNR on a linear scale. EXP_HALF_SNR is the default and
    is the model behind every shipped default dataset.
    """

    EXP_HALF_SNR = "exp-half-snr"
    EXP_SNR = "exp-snr"


# A NamedTuple body may not define __new__, so RadioParams's checks run in a subclass.
class _RadioParams(NamedTuple):
    tx_power_dbm: float = 7.0
    noise_floor_dbm: float = -100.0
    frequency_hz: float = 2.4e9
    ber_model: BerModel = BerModel.EXP_HALF_SNR


class RadioParams(_RadioParams):
    """Transmitter/receiver parameters shared by every link of a topology."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.frequency_hz > 0:
            raise ValueError("frequency_hz must be positive")
        return self


class LinkQuality(NamedTuple):
    """Full link-budget chain for one distance and packet size."""

    rx_power_dbm: float
    snr_db: float
    snr_linear: float
    ber: float
    loss_prob: float


def _from_db(value_db: float, quantity: str, unit: str) -> float:
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{quantity} of {value_db:g} {unit} overflows a double on the linear scale") from None


def dbm_to_mw(power_dbm: float) -> float:
    return _from_db(power_dbm, "power", "dBm")


def mw_to_dbm(power_mw: float) -> float:
    if power_mw <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(power_mw)


def friis_gain_linear(distance_m: float, frequency_hz: float) -> float:
    """Free-space power gain (wavelength / 4 pi d)^2; always < 1 in the far field."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    ratio = wavelength / (4.0 * math.pi * distance_m)
    return ratio * ratio


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB: 20log10(d) + 20log10(f) + 20log10(4 pi / c).

    Grows by 20log10(2) ~ 6.02 dB per doubling of either distance or
    frequency, and equals -10log10(friis_gain_linear) by construction.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return (
        20.0 * math.log10(distance_m)
        + 20.0 * math.log10(frequency_hz)
        + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT_M_S)
    )


def ber_from_snr(snr_linear: float, model: BerModel = BerModel.EXP_HALF_SNR) -> float:
    if snr_linear < 0:
        raise ValueError("linear SNR must be non-negative")
    if model is BerModel.EXP_HALF_SNR:
        return 0.5 * math.exp(-snr_linear / 2.0)
    return 0.5 * math.exp(-snr_linear)


def packet_loss_prob(ber: float, packet_size_bits: int) -> float:
    """Probability that at least one of packet_size_bits i.i.d. bits is corrupted.

    1 - (1 - ber)^bits is taken as -expm1(bits * log1p(-ber)), which keeps
    its relative accuracy at tiny BER, where 1 - ber rounds away most of
    ber's digits (Higham, Accuracy and Stability of Numerical Algorithms,
    1.14.1). A 1-bit packet, and a BER of 1, lose exactly ber.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must lie in [0, 1]")
    if not isinstance(packet_size_bits, int) or packet_size_bits < 1:
        raise ValueError("packet_size_bits must be an integer >= 1")
    if packet_size_bits == 1 or ber == 1.0:
        return ber
    return -math.expm1(packet_size_bits * math.log1p(-ber))


def _budget(distance_m: float, radio: RadioParams) -> tuple[float, float, float, float]:
    """Chain TX power -> Friis gain -> RX power -> SNR -> BER: (rx dBm, SNR dB, SNR linear, BER)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    gain = friis_gain_linear(distance_m, radio.frequency_hz)
    rx_power_mw = dbm_to_mw(radio.tx_power_dbm) * gain
    try:
        rx_power_dbm = mw_to_dbm(rx_power_mw)
    except ValueError:  # the product underflowed to 0 mW
        raise ValueError(
            f"received power from {radio.tx_power_dbm:g} dBm transmitted over {distance_m:g} m "
            "underflows a double on the linear scale"
        ) from None
    snr_db = rx_power_dbm - radio.noise_floor_dbm
    snr_linear = _from_db(snr_db, "SNR", "dB")
    return rx_power_dbm, snr_db, snr_linear, ber_from_snr(snr_linear, radio.ber_model)


def link_quality(distance_m: float, radio: RadioParams, packet_size_bits: int) -> LinkQuality:
    """Chain TX power -> Friis gain -> RX power -> SNR -> BER -> packet loss."""
    rx_power_dbm, snr_db, snr_linear, ber = _budget(distance_m, radio)
    return LinkQuality(rx_power_dbm, snr_db, snr_linear, ber, packet_loss_prob(ber, packet_size_bits))


def pair_mean_losses_percent(distances: list[float], radio: RadioParams, sizes: tuple[int, ...]) -> list[float]:
    """mean_pair_loss_percent at each packet size, from one BER per pair distance.

    The radio's transmit power in mW, wavelength, 4 pi and BER exponent are
    computed once, and each pair runs _budget's expressions in _budget's
    order, so every BER and mean is the scalar chain's double. A pair that
    leaves the fast path (a distance <= 0, 0 mW received, an SNR past a
    double) goes through _budget, which raises the chain's own message; an
    invalid size or a NaN BER raises packet_loss_prob's.
    """
    if not distances:
        raise ValueError("topology has no communicating pairs")
    _budget(distances[0], radio)  # the chain's checks of the radio itself, pair 0's message first
    tx_mw = dbm_to_mw(radio.tx_power_dbm)
    wavelength = SPEED_OF_LIGHT_M_S / radio.frequency_hz
    four_pi = 4.0 * math.pi
    noise_dbm = radio.noise_floor_dbm
    # ber_from_snr's two models; dividing by 1.0 is exact.
    snr_divisor = 2.0 if radio.ber_model is BerModel.EXP_HALF_SNR else 1.0
    log10, exp, expm1, log1p = math.log10, math.exp, math.expm1, math.log1p
    bers = []
    for d in distances:
        ratio = wavelength / (four_pi * d) if d > 0 else 0.0
        rx_mw = tx_mw * (ratio * ratio)
        try:
            snr_linear = 10.0 ** ((10.0 * log10(rx_mw) - noise_dbm) / 10.0)
            ber = 0.5 * exp(-snr_linear / snr_divisor)
        except (ValueError, OverflowError):
            ber = _budget(d, radio)[3]
        bers.append(ber)
    log_qs = [log1p(-ber) for ber in bers]  # packet_loss_prob's log1p(-ber), once per pair
    n = len(bers)
    if all(isinstance(size, int) and size >= 1 for size in sizes):
        means = []
        for size in sizes:
            total = 0.0
            if size == 1:
                for ber in bers:
                    total += ber * 100.0
            else:
                for log_q in log_qs:
                    total += -expm1(size * log_q) * 100.0
            means.append(total / n)
        if all(mean == mean for mean in means):  # a NaN radio field or distance gives a NaN BER
            return means
    for size in sizes:  # packet_loss_prob's message for the first bad (size, pair)
        for ber in bers:
            packet_loss_prob(ber, size)
    raise AssertionError("unreachable: an invalid size or a NaN BER fails packet_loss_prob")


def mean_pair_loss_percent(topology: Topology, radio: RadioParams, packet_size_bits: int) -> float:
    """Arithmetic mean of per-pair loss probabilities, in percent."""
    distances = [distance(topology, src, dst) for src, dst in topology.pairs]
    return pair_mean_losses_percent(distances, radio, (packet_size_bits,))[0]
