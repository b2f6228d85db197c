"""Link-budget physics: conversions, Friis propagation, BER, packet loss."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    SPEED_OF_LIGHT_M_S,
    AreaSpec,
    BerModel,
    RadioParams,
    Topology,
    ber_from_snr,
    dbm_to_mw,
    friis_gain_linear,
    fspl_db,
    link_quality,
    mean_pair_loss_percent,
    mw_to_dbm,
    packet_loss_prob,
    pair_mean_losses_percent,
)

LOG2_20 = 20.0 * math.log10(2.0)


def test_dbm_to_mw_examples():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(10.0) == 10.0
    assert dbm_to_mw(7.0) == pytest.approx(5.011872336272722, rel=1e-12)


def test_mw_to_dbm_examples():
    assert mw_to_dbm(1.0) == 0.0
    assert mw_to_dbm(5.011872336272722) == pytest.approx(7.0, abs=1e-4)


def test_mw_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        mw_to_dbm(0.0)
    with pytest.raises(ValueError):
        mw_to_dbm(-3.0)


def test_power_conversion_round_trip():
    for p_dbm in range(-150, 51):
        back = mw_to_dbm(dbm_to_mw(float(p_dbm)))
        if p_dbm == 0:
            assert back == 0.0
        else:
            assert abs(back - p_dbm) / abs(p_dbm) <= 1e-12


def test_friis_gain_spot_value():
    # wavelength 0.125 m at 2.4 GHz
    assert friis_gain_linear(100.0, 2.4e9) == pytest.approx(9.8947e-9, rel=1e-4)


def test_friis_inverse_square_doublings():
    picker = random.Random(7)
    for _ in range(200):
        d = picker.uniform(0.1, 1e5)
        f = picker.uniform(1e8, 1e11)
        assert friis_gain_linear(2.0 * d, f) == friis_gain_linear(d, f) / 4.0
        assert friis_gain_linear(d, 2.0 * f) == friis_gain_linear(d, f) / 4.0


def test_friis_domain_errors():
    with pytest.raises(ValueError):
        friis_gain_linear(0.0, 2.4e9)
    with pytest.raises(ValueError):
        friis_gain_linear(100.0, 0.0)
    with pytest.raises(ValueError):
        fspl_db(-1.0, 2.4e9)
    with pytest.raises(ValueError):
        fspl_db(100.0, -2.4e9)


def test_fspl_spot_value():
    assert fspl_db(100.0, 2.4e9) == pytest.approx(80.0465, abs=1e-3)
    direct = (
        20.0 * math.log10(100.0)
        + 20.0 * math.log10(2.4e9)
        + 20.0 * math.log10(4.0 * math.pi / 3.0e8)
    )
    assert fspl_db(100.0, 2.4e9) == direct


def test_fspl_doubling_laws():
    picker = random.Random(99)
    for _ in range(1000):
        d = picker.uniform(0.1, 1e5)
        f = picker.uniform(1e8, 1e11)
        assert abs(fspl_db(2.0 * d, f) - fspl_db(d, f) - LOG2_20) <= 1e-9
        assert abs(fspl_db(d, 2.0 * f) - fspl_db(d, f) - LOG2_20) <= 1e-9


def test_fspl_matches_linear_gain():
    picker = random.Random(55)
    for _ in range(1000):
        d = picker.uniform(0.1, 1e5)
        f = picker.uniform(1e8, 1e11)
        assert abs(fspl_db(d, f) + 10.0 * math.log10(friis_gain_linear(d, f))) <= 1e-9


def test_ber_at_zero_snr_is_half():
    assert ber_from_snr(0.0, BerModel.EXP_HALF_SNR) == 0.5
    assert ber_from_snr(0.0, BerModel.EXP_SNR) == 0.5


def test_ber_spot_values():
    assert ber_from_snr(2.0, BerModel.EXP_HALF_SNR) == pytest.approx(0.18393972058572117, rel=1e-12)
    assert ber_from_snr(2.0, BerModel.EXP_SNR) == pytest.approx(0.06766764161830635, rel=1e-12)


def test_ber_rejects_negative_snr():
    with pytest.raises(ValueError):
        ber_from_snr(-0.1)


def test_half_snr_model_dominates_full_snr_model():
    picker = random.Random(31)
    for _ in range(500):
        snr = picker.uniform(1e-6, 50.0)
        assert ber_from_snr(snr, BerModel.EXP_HALF_SNR) > ber_from_snr(snr, BerModel.EXP_SNR)


def test_packet_loss_examples():
    assert packet_loss_prob(0.0, 12345) == 0.0
    assert packet_loss_prob(0.5, 1) == 0.5
    assert packet_loss_prob(1.0, 10) == 1.0
    # the log1p/expm1 route that packet_loss_prob takes; the mpmath tests below check its accuracy
    expected = -math.expm1(1000 * math.log1p(-1e-3))
    assert packet_loss_prob(1e-3, 1000) == pytest.approx(expected, rel=1e-12)
    assert packet_loss_prob(1e-3, 1000) == pytest.approx(0.63230, abs=1e-5)


def test_packet_loss_single_bit_identity():
    picker = random.Random(17)
    for _ in range(200):
        ber = picker.uniform(0.0, 1.0)
        assert packet_loss_prob(ber, 1) == ber


@pytest.mark.parametrize("ber", [1e-12, 1e-15, 1e-17])
@pytest.mark.parametrize("packet_size", [2, 1000, 20000])
def test_packet_loss_relative_error_at_tiny_ber(ber, packet_size):
    # 1 - (1 - ber)^1000 was off by 2.2e-5 at 1e-12 and 8e-4 at 1e-15, and returned exactly 0 at 1e-17.
    with mpmath.workdps(60):
        exact = 1 - (1 - mpmath.mpf(ber)) ** packet_size
        relative_error = abs((mpmath.mpf(packet_loss_prob(ber, packet_size)) - exact) / exact)
    assert relative_error <= 4 * 2.0**-53


def test_packet_loss_union_bound():
    picker = random.Random(23)
    for _ in range(500):
        ber = picker.uniform(0.0, 1.0)
        n = picker.randint(1, 10_000)
        assert packet_loss_prob(ber, n) <= n * ber + 1e-15


def test_packet_loss_argument_errors():
    with pytest.raises(ValueError):
        packet_loss_prob(-0.1, 10)
    with pytest.raises(ValueError):
        packet_loss_prob(1.1, 10)
    with pytest.raises(ValueError):
        packet_loss_prob(0.1, 0)
    with pytest.raises(ValueError):
        packet_loss_prob(0.1, -5)
    with pytest.raises(ValueError):
        packet_loss_prob(0.1, 10.0)


def _mp_chain(distance_m, packet_size, tx_dbm="7", noise_dbm="-100", freq="2.4e9"):
    """High-precision independent evaluation of the full link chain."""
    with mpmath.workdps(60):
        wavelength = mpmath.mpf("3e8") / mpmath.mpf(freq)
        gain = (wavelength / (4 * mpmath.pi * mpmath.mpf(distance_m))) ** 2
        rx_mw = mpmath.power(10, mpmath.mpf(tx_dbm) / 10) * gain
        rx_dbm = 10 * mpmath.log10(rx_mw)
        snr_db = rx_dbm - mpmath.mpf(noise_dbm)
        snr_linear = mpmath.power(10, snr_db / 10)
        ber = mpmath.mpf("0.5") * mpmath.exp(-snr_linear / 2)
        loss = 1 - (1 - ber) ** packet_size
        return (float(rx_dbm), float(snr_db), float(snr_linear), float(ber), float(loss))


@pytest.mark.parametrize("packet_size", [10, 1000])
def test_chain_against_high_precision_calculator(packet_size):
    rx_dbm, snr_db, snr_linear, ber, loss = _mp_chain(1000.0, packet_size)
    got = link_quality(1000.0, RadioParams(), packet_size)
    assert got.rx_power_dbm == pytest.approx(rx_dbm, rel=1e-12)
    assert got.snr_db == pytest.approx(snr_db, rel=1e-12)
    assert got.snr_linear == pytest.approx(snr_linear, rel=1e-12)
    assert got.ber == pytest.approx(ber, rel=1e-12)
    assert got.loss_prob == pytest.approx(loss, abs=1e-12)


def test_chain_limit_behaviour():
    near = link_quality(1e-3, RadioParams(), 10_000)
    assert near.loss_prob == pytest.approx(0.0, abs=1e-12)
    far = link_quality(1e7, RadioParams(), 10)
    assert far.loss_prob == pytest.approx(1.0, abs=1e-3)
    assert far.ber == pytest.approx(0.5, abs=1e-3)


def test_chain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        link_quality(0.0, RadioParams(), 100)


def test_overflow_is_a_value_error_naming_the_quantity():
    with pytest.raises(ValueError, match=r"^power of 3100 dBm overflows"):
        dbm_to_mw(3100.0)
    with pytest.raises(ValueError, match=r"^power of 1e\+308 dBm overflows"):
        link_quality(100.0, RadioParams(tx_power_dbm=1e308), 10)
    with pytest.raises(ValueError, match=r"^SNR of [0-9.]+ dB overflows"):
        link_quality(100.0, RadioParams(noise_floor_dbm=-4000.0), 10)
    assert dbm_to_mw(3000.0) == pytest.approx(1e300, rel=1e-12)


def test_received_power_underflow_is_a_value_error_naming_the_quantity():
    with pytest.raises(ValueError, match=r"^received power from -3300 dBm transmitted over 100 m underflows a double"):
        link_quality(100.0, RadioParams(tx_power_dbm=-3300.0), 10)


def test_radio_params_validation_and_defaults():
    radio = RadioParams()
    assert radio.tx_power_dbm == 7.0
    assert radio.noise_floor_dbm == -100.0
    assert radio.frequency_hz == 2.4e9
    assert radio.ber_model is BerModel.EXP_HALF_SNR
    with pytest.raises(ValueError, match="^frequency_hz must be positive$"):
        RadioParams(frequency_hz=0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RadioParams(5.0, -90.0, 5.8e9, BerModel.EXP_SNR),
        lambda: link_quality(100.0, RadioParams(), 1000),
    ],
)
def test_records_are_immutable_values(make):
    record = make()
    assert make() == record
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_loss_monotonic_in_packet_size_distance_frequency():
    picker = random.Random(61)
    for _ in range(200):
        radio = RadioParams(tx_power_dbm=picker.uniform(-10, 20))
        d = picker.uniform(50.0, 5000.0)
        n = picker.randint(1, 5000)
        base = link_quality(d, radio, n).loss_prob
        assert link_quality(d, radio, n + picker.randint(1, 5000)).loss_prob >= base
        assert link_quality(d * picker.uniform(1.1, 4.0), radio, n).loss_prob >= base
        higher_f = RadioParams(
            tx_power_dbm=radio.tx_power_dbm,
            frequency_hz=radio.frequency_hz * picker.uniform(1.1, 4.0),
        )
        assert link_quality(d, higher_f, n).loss_prob >= base


def test_loss_nonincreasing_in_tx_power():
    picker = random.Random(67)
    for _ in range(200):
        d = picker.uniform(50.0, 5000.0)
        n = picker.randint(1, 5000)
        p = picker.uniform(-10.0, 15.0)
        low = link_quality(d, RadioParams(tx_power_dbm=p), n).loss_prob
        high = link_quality(d, RadioParams(tx_power_dbm=p + picker.uniform(0.5, 10.0)), n).loss_prob
        assert high <= low


def _pair_topology(positions, pairs):
    return Topology(tuple(positions), tuple(pairs), 0, AreaSpec(1e4, 1e4))


def test_mean_pair_loss_single_pair():
    t = _pair_topology([(0.0, 0.0), (800.0, 0.0)], [(0, 1)])
    expected = link_quality(800.0, RadioParams(), 1000).loss_prob * 100.0
    assert mean_pair_loss_percent(t, RadioParams(), 1000) == expected


def test_mean_pair_loss_identical_distances_equal_single():
    two = _pair_topology([(0.0, 0.0), (800.0, 0.0), (0.0, 500.0), (800.0, 500.0)], [(0, 1), (2, 3)])
    one = _pair_topology([(0.0, 0.0), (800.0, 0.0)], [(0, 1)])
    assert mean_pair_loss_percent(two, RadioParams(), 1000) == pytest.approx(
        mean_pair_loss_percent(one, RadioParams(), 1000), rel=1e-15
    )


def test_mean_pair_loss_golden_value(seed42_topology):
    # Frozen from the first run on the seed-42 constellation.
    got = mean_pair_loss_percent(seed42_topology, RadioParams(), 1000)
    assert got == pytest.approx(79.00857561387753, rel=1e-9)


def test_mean_pair_loss_requires_pairs():
    t = Topology(((0.0, 0.0), (1.0, 1.0)), (), 0, AreaSpec(10.0, 10.0))
    with pytest.raises(ValueError):
        mean_pair_loss_percent(t, RadioParams(), 100)


def _distance_at_snr(radio, snr_db):
    """The distance at which the radio's link has the given SNR."""
    return (SPEED_OF_LIGHT_M_S / radio.frequency_hz / (4.0 * math.pi)
            * 10.0 ** ((radio.tx_power_dbm - radio.noise_floor_dbm - snr_db) / 20.0))


def _chain_means(distances, radio, sizes):
    """The scalar chain's pair-mean loss in percent at each size: link_quality per pair, summed in pair order."""
    means = []
    for size in sizes:
        total = 0.0
        for d in distances:
            total += link_quality(d, radio, size).loss_prob * 100.0
        means.append(total / len(distances))
    return means


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    tx_power_dbm=st.floats(-30.0, 40.0),
    noise_floor_dbm=st.floats(-120.0, -60.0),
    frequency_hz=st.floats(1e8, 6e10),
    ber_model=st.sampled_from(list(BerModel)),
    sizes=st.lists(st.integers(1, 20000), min_size=1, max_size=5),
)
def test_pair_mean_losses_equal_the_scalar_chain(data, tx_power_dbm, noise_floor_dbm, frequency_hz, ber_model, sizes):
    radio = RadioParams(tx_power_dbm, noise_floor_dbm, frequency_hz, ber_model)
    # Most distances in 1e-3..1e5 m saturate the loss at 0 or 1, where the last bits of the
    # budget do not show, so some distances are drawn to put the SNR at -5..25 dB.
    live = st.floats(-5.0, 25.0).map(lambda snr_db: _distance_at_snr(radio, snr_db))
    distances = data.draw(st.lists(st.floats(1e-3, 1e5) | live, min_size=1, max_size=30))
    assert pair_mean_losses_percent(distances, radio, tuple(sizes)) == _chain_means(distances, radio, sizes)


def test_pair_mean_losses_equal_the_scalar_chain_on_unsaturated_links():
    # A one-ulp change in the received power survives log10 on only ~2% of links, so many links are needed.
    picker = random.Random(71)
    for _ in range(40):
        radio = RadioParams(picker.uniform(-30.0, 40.0), picker.uniform(-120.0, -60.0), picker.uniform(1e8, 6e10),
                            picker.choice(list(BerModel)))
        distances = [_distance_at_snr(radio, picker.uniform(-5.0, 25.0)) for _ in range(100)]
        sizes = (1, picker.randint(2, 100), picker.randint(100, 20000))
        assert pair_mean_losses_percent(distances, radio, sizes) == _chain_means(distances, radio, sizes)


@pytest.mark.parametrize(
    "distance_m, radio, size",
    [
        (0.0, RadioParams(), 10),
        (-1.0, RadioParams(), 10),
        (100.0, RadioParams(tx_power_dbm=1e308), 10),
        (0.0, RadioParams(tx_power_dbm=1e308), 10),
        (100.0, RadioParams()._replace(frequency_hz=-2.4e9), 10),
        (100.0, RadioParams(tx_power_dbm=-3300.0), 10),
        (100.0, RadioParams(noise_floor_dbm=-4000.0), 10),
        (100.0, RadioParams(tx_power_dbm=math.nan), 10),
        (100.0, RadioParams(), 0),
        (100.0, RadioParams(), 10.0),
    ],
)
@pytest.mark.parametrize("position", [0, 2])
def test_pair_mean_losses_raise_the_scalar_chains_message(distance_m, radio, size, position):
    with pytest.raises(ValueError):
        link_quality(distance_m, radio, size)
    distances = [50.0, 700.0, 1200.0]
    distances[position] = distance_m
    # A fault of the radio shows at pair 0, whatever pair holds the bad distance.
    with pytest.raises(ValueError) as chain:
        _chain_means(distances, radio, (1000, size))
    with pytest.raises(ValueError) as kernel:
        pair_mean_losses_percent(distances, radio, (1000, size))
    assert str(kernel.value) == str(chain.value)
