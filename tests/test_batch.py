"""Batch cells: a config with an array n0 or rate, or a policy with array fields, is one row per element."""

import dataclasses

import numpy as np
import pytest

from starwpn import analytics, cli, montecarlo, system
from starwpn.channel import NakagamiParams

NAK2 = NakagamiParams(m=2.0, omega=1.0)
NAK3 = NakagamiParams(m=3.0, omega=1.0)

TEP = system.TepPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap=0.5, beta_t=0.6, beta_r=0.4)
EEP = system.EepPolicy(alpha_et=0.5, alpha_it=0.5, beta_t=0.6, beta_r=0.4)
TDMA = system.TdmaPolicy(alpha_t=0.25, alpha_r=0.25, alpha_ap_t=0.25, alpha_ap_r=0.25)

SNR_DB = cli.parse_grid("20:50:5")  # fig4's grid
RATES = cli.parse_grid("0.02:4.96:0.02")  # the analytic-sweep grid: crosses R = 1
SPLITS = cli.parse_grid("0.05:0.95:0.05")  # fig8's alpha and fig10's beta_r grid


def make_config(fading_r=NAK2, **over):
    base = dict(
        p_ap=1.0, n0=1e-4, d0=30.0, d_t=2.0, d_r=4.0, exp0=2.0, exp_t=2.0, exp_r=2.0, n_elements=30,
        fading_ris=NAK2, fading_t=NAK2, fading_r=fading_r, rate=1.0,
    )
    base.update(over)
    return system.SystemConfig(**base)


def batch_and_rows():
    """Batch cells mixed with one-row cells on two laws, and the same rows as one-row cells.

    The noise powers, thresholds and policy fields of a batch are formed as
    the CLI forms them: noise powers and rates as Python floats, policy
    fields by elementwise array arithmetic.
    """
    base, m3 = make_config(), make_config(fading_r=NAK3)
    noise = [1.0 / 10.0 ** (snr_db / 10.0) for snr_db in SNR_DB]
    split = np.array(SPLITS)
    alpha = dict(tep=dict(alpha_ap=split, alpha_t=(1.0 - split) / 2.0, alpha_r=(1.0 - split) / 2.0),
                 eep=dict(alpha_it=split, alpha_et=1.0 - split))
    beta = dict(beta_r=split, beta_t=1.0 - split)
    batches = [
        ("tep", base, TEP),
        ("tep", dataclasses.replace(base, n0=np.array(noise)), TEP),
        ("tdma", dataclasses.replace(m3, n0=np.array(noise)), TDMA),
        ("eep", m3, EEP),
        ("tep", dataclasses.replace(base, rate=np.array(RATES)), TEP),
        ("eep", dataclasses.replace(m3, rate=np.array(RATES)), EEP),
        ("tdma", m3, TDMA),
        ("tep", m3, dataclasses.replace(TEP, **alpha["tep"])),
        ("eep", base, dataclasses.replace(EEP, **alpha["eep"])),
        ("eep", m3, dataclasses.replace(EEP, **beta)),
        ("tep", base, dataclasses.replace(TEP, **beta)),
    ]
    rows = []
    for scheme, config, policy in batches:
        fields = vars(policy)
        for i in range(max(np.size(v) for v in (config.n0, config.rate, *fields.values()))):
            def pick(v):
                return v[i].item() if np.ndim(v) else v

            one = dataclasses.replace(config, n0=pick(config.n0), rate=pick(config.rate))
            rows.append((scheme, one, type(policy)(**{k: pick(v) for k, v in fields.items()})))
    return batches, rows


def test_batch_cells_give_one_row_per_element():
    batches, rows = batch_and_rows()
    assert len(rows) == 3 + 2 * len(SNR_DB) + 2 * len(RATES) + 4 * len(SPLITS)
    # each row's config and policy hold floats only, and its threshold is the Python float 2^R - 1
    for _, config, policy in rows:
        assert isinstance(config.n0, float) and isinstance(config.rate, float)
        assert all(isinstance(v, float) for v in vars(policy).values())
        assert config.snr_threshold == 2.0 ** config.rate - 1.0
    index = np.concatenate([group[1] for group in system.cell_groups(batches)])
    assert sorted(index.tolist()) == list(range(len(rows)))


def test_batch_closed_forms_equal_one_row_closed_forms():
    batches, rows = batch_and_rows()
    got = analytics.closed_forms(batches)
    want = analytics.closed_forms(rows)
    assert got.shape == (len(rows), 3) and np.array_equal(got, want)
    # a batch's rows do not depend on the cells evaluated with it
    assert np.array_equal(analytics.closed_forms(batches[4:5]), want[2 + 2 * len(SNR_DB):][: len(RATES)])


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_mc_counts_equal_one_row_mc_counts(threads):
    batches, rows = batch_and_rows()
    mc = montecarlo.McConfig(trials=3 * 2**16 + 123, seed=2027)
    got = montecarlo.mc_counts(batches, mc, threads)
    assert len(got) == len(rows)
    assert got == montecarlo.mc_counts(rows, mc, threads)


def test_batch_config_names_its_first_bad_element():
    with pytest.raises(ValueError, match=r"^n0 must be finite and > 0, got 0.0$"):
        make_config(n0=np.array([1e-4, 0.0, -1.0]))
    with pytest.raises(ValueError, match=r"^rate 2000.0 gives no finite positive decoding threshold"):
        make_config(rate=np.array([1.0, 2000.0, 1e-300]))
    with pytest.raises(ValueError, match=r"^rate 1e-300 gives no finite positive decoding threshold"):
        make_config(rate=np.array([1.0, 2.0, 1e-300]))
    with pytest.raises(ValueError, match=r"^alpha_ap must lie strictly inside \(0,1\), got 1.5$"):
        dataclasses.replace(TEP, alpha_ap=np.array([0.5, 1.5, -1.0]))


@pytest.mark.parametrize("n0, rate", [
    (np.array([1e-4, 1e-3]), np.array([1.0, 2.0, 3.0])),
    (np.array([1e-4]), np.array([1.0, 2.0, 3.0])),  # would broadcast
    (np.array([[1e-4, 1e-3]]), 1.0),  # not 1-D
])
def test_batch_config_rejects_unequal_lengths(n0, rate):
    with pytest.raises(ValueError, match="equal length"):
        make_config(n0=n0, rate=rate)


def test_batch_cell_rejects_a_policy_of_another_length():
    config = make_config(n0=np.array([1e-4, 1e-3, 1e-2]))
    for beta_r in (np.array([0.4, 0.5]), np.array([0.4])):
        policy = dataclasses.replace(TEP, beta_r=beta_r, beta_t=1.0 - beta_r)
        for engine in (analytics.closed_forms, system.cell_groups):
            with pytest.raises(ValueError, match="equal length"):
                engine([("tep", config, policy)])
    with pytest.raises(ValueError, match="equal length"):
        dataclasses.replace(TEP, beta_r=np.array([0.4, 0.5]), beta_t=np.array([0.6]))


def test_one_row_calls_reject_a_batch_cell():
    # outage, success_prob, perf_report, mc_outage and mc_success price one
    # operating point; a batch would otherwise give its first row only
    batch = ("tep", make_config(rate=np.array([0.5, 1.0])), TEP)
    mc = montecarlo.McConfig(trials=1000, seed=1)
    for call in (analytics.outage, analytics.success_prob, analytics.perf_report):
        with pytest.raises(ValueError):
            call(*batch)
    for call in (montecarlo.mc_outage, montecarlo.mc_success):
        with pytest.raises(ValueError):
            call(*batch, mc)
