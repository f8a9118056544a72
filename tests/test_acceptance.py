"""End-to-end acceptance criteria.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run with `pytest -s`
or `-rA` to see them on success). Criteria 4-6 pin the published comparison
protocol: 16 nodes, d = 5, theta_o = 1/sqrt(5), CTA, the per-experiment step
sizes, 200 realizations. The correntropy kernel width and the logarithmic
damping scale were never published for that comparison; the values used here
(0.005 and 10) are calibrated so the reported qualitative behaviour is
reproduced at the stated horizons, and are set explicitly per experiment
rather than as package defaults.
"""

from dataclasses import replace

import numpy as np
import pytest

from diffnet.diffusion import NPDLMS, bounded_error_gain
from diffnet.harness import (
    config_from_dict,
    export_csv,
    run_experiment,
    sweep,
    theory_inputs_from_config,
)
from diffnet.network import build_topology, combination_weights
from diffnet.noise import AlphaStable, characteristic_function, empirical_characteristic_function, sample
from diffnet.theory import (
    TheoryInputs,
    build_moments,
    spectral_radius,
    steady_state_metrics,
    stepsize_upper_bound,
    to_db,
    transient_curves,
)
from oracles import EstimateBuffer, SharedData, log_local_objective, mu_weights, npdlms_gradient

pytestmark = pytest.mark.acceptance


def _report(number: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# --- criterion 1: gradient oracle -------------------------------------------


def test_criterion_1_gradient_matches_finite_differences():
    r = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        d = int(r.integers(1, 5))
        m = int(r.integers(1, 4))
        b = int(r.integers(2, 6))
        neighbors = tuple(range(1, m + 1))
        buffers = EstimateBuffer(b, neighbors)
        for _ in range(b):
            for l in neighbors:
                buffers.push(l, r.normal(0, 1, d))
        shared = SharedData(node=1, neighbors=neighbors, u=r.normal(0, 1, (m, d)),
                            d=r.normal(0, 1, m), theta_prev=r.normal(0, 1, (m, d)))
        params = NPDLMS(sigma=float(r.uniform(0.5, 2)), h=float(r.uniform(0.5, 2)),
                        delta=float(r.uniform(0.1, 1)))
        theta = r.normal(0, 1, d)
        grad = npdlms_gradient(theta, shared, buffers, params)
        fd = np.zeros(d)
        for j in range(d):
            e_j = np.zeros(d)
            e_j[j] = 1e-5
            fd[j] = (log_local_objective(theta + e_j, shared, buffers, params)
                     - log_local_objective(theta - e_j, shared, buffers, params)) / 2e-5
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12))
    assert _report(1, worst <= 1e-6, f"worst relative FD error {worst:.2e} (<= 1e-6)")


# --- criterion 2: step-size bound is bidirectional ---------------------------


def test_criterion_2_stability_bound_bidirectional():
    r = np.random.default_rng(2)
    rho_low, rho_high = [], []
    for _ in range(20):
        n = int(r.integers(2, 5))
        d = int(r.integers(1, 4))
        edges = [(int(r.integers(1, k)), k) for k in range(2, n + 1)]
        for _ in range(int(r.integers(0, n))):
            i, j = r.integers(1, n + 1, 2)
            if i != j:
                edges.append((int(i), int(j)))
        topo = build_topology(n, edges)
        variances = []
        for _ in range(n):
            mat = r.standard_normal((d, d))
            variances.append(np.trace(mat @ mat.T + 0.3 * np.eye(d)) / d)   # white: r_l I
        inputs = TheoryInputs(
            topology=topo, combination=combination_weights(topo),
            regressor_variances=variances, noise_variances=r.uniform(0.01, 1, n),
            step_sizes=np.ones(n), theta_o=r.standard_normal(d), delta=0.25,
        )
        bounds = np.array([stepsize_upper_bound(inputs, k) for k in range(1, n + 1)])
        low, high = (build_moments(replace(inputs, step_sizes=c * bounds)) for c in (0.9, 1.5))
        rho_low.append(max(abs(np.linalg.eigvals(low.mean_transition))))
        rho_high.append(max(abs(np.linalg.eigvals(high.mean_transition))))
    ok = max(rho_low) < 1.0 and min(rho_high) > 1.0
    assert _report(2, ok, f"rho at 0.9x in [{min(rho_low):.3f}, {max(rho_low):.3f}], "
                          f"rho at 1.5x in [{min(rho_high):.3f}, {max(rho_high):.3f}]")


# --- criterion 3: theory vs simulation ---------------------------------------


def _theory_vs_sim_config(delta, step):
    return {
        "topology": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "d": 2,
        "regressor_variances": [1.1, 0.9, 1.0, 0.95],
        "noise": {"kind": "gaussian", "snr_db": 20},
        "theta_o": [2.0**-0.5, 2.0**-0.5],
        "algorithms": [{"kind": "npdlms", "step_size": step, "delta": delta,
                        "h": 1.0, "sigma": 1.0, "buffer": 3, "eta": 0.0}],
        "iterations": 500,
        "realizations": 500,
        "base_seed": 3,
    }


def _theory_vs_sim_gaps(delta, step):
    cfg = config_from_dict(_theory_vs_sim_config(delta, step))
    moments = build_moments(theory_inputs_from_config(cfg))  # r_l = B, beta = I defaults
    steady_db = float(to_db(steady_state_metrics(moments).steady_network_msd))
    theory_db = to_db(transient_curves(moments, n_max=cfg.iterations).network_msd)
    result = run_experiment(cfg)
    sim_db = result.network_msd_db("npdlms")
    sim_steady = result.steady_state_msd_db("npdlms")
    steady_gap = abs(steady_db - sim_steady)
    transient_gap = float(np.max(np.abs(theory_db[21:] - sim_db[20:])))
    return steady_gap, transient_gap


def test_criterion_3_theory_vs_simulation_at_stated_delta():
    """Closed-form theory against a 500-realization simulation at delta = 0.25.

    The theory linearizes the bounded gain by its Gaussian-expected slope at
    the current error variance, so at delta = 0.25 it runs the step that the
    simulated filter runs. Both the steady-state and the transient gap must
    stay within 3 dB.
    """
    steady_gap, transient_gap = _theory_vs_sim_gaps(0.25, 0.03)
    ok = steady_gap <= 3.0 and transient_gap <= 3.0
    assert _report(3, ok, f"delta=0.25: steady-state gap {steady_gap:.2f} dB, "
                          f"transient gap {transient_gap:.2f} dB (<= 3 dB)")


def test_theory_vs_simulation_companion_at_matched_slope():
    """Implementation evidence for criterion 3 (not itself a spec criterion):
    the identical pipeline at delta = 0.5 and a larger step agrees within the
    3 dB budget."""
    steady_gap, transient_gap = _theory_vs_sim_gaps(0.5, 0.1)
    ok = steady_gap <= 3.0 and transient_gap <= 3.0
    print(f"ACCEPTANCE 3 (companion, delta=0.5): {'PASS' if ok else 'FAIL'} - "
          f"steady-state gap {steady_gap:.2f} dB, transient gap {transient_gap:.2f} dB")
    assert ok


# --- criteria 4-6: published comparison protocol ------------------------------


PROTOCOL = {
    "topology": "builtin:16",
    "d": 5,
    "regressor_variances": "builtin:16",
    "iterations": 500,
    "realizations": 200,
    "base_seed": 11,
    "strategy": "cta",
}


def _comparison(noise, steps, npdlms_extra=None, environment=None, iterations=500):
    algorithms = [
        {"kind": "dlms", "step_size": steps["dlms"]},
        {"kind": "dse_lms", "step_size": steps["dse_lms"]},
        {"kind": "dmcc", "step_size": steps["dmcc"], "kernel_width": 0.005},
        {"kind": "dlms_f", "step_size": steps["dlms_f"]},
        {"kind": "dllad", "step_size": steps["dllad"], "scale": 10.0},
        {"kind": "npdlms", "step_size": steps["npdlms"], "eta": 0.0, **(npdlms_extra or {})},
    ]
    raw = dict(PROTOCOL, noise=noise, algorithms=algorithms, iterations=iterations)
    if environment:
        raw["environment"] = environment
    return run_experiment(config_from_dict(raw))


def test_criterion_4_stationary_gaussian_snr30_ordering(tmp_path):
    result = _comparison(
        noise={"kind": "gaussian", "snr_db": 30},
        steps={"dse_lms": 0.2, "dmcc": 0.1, "dlms_f": 0.25, "dlms": 0.13,
               "dllad": 0.35, "npdlms": 0.11},
    )
    export_csv(result, tmp_path / "protocol.csv")
    assert len((tmp_path / "protocol.csv").read_text().splitlines()) == 501
    ss = {label: result.steady_state_msd_db(label) for label in result.labels}
    reference = min(ss["dmcc"], ss["dse_lms"])
    margins = {label: reference - ss[label] for label in ("npdlms", "dlms", "dlms_f", "dllad")}
    ok = all(margin >= 1.0 for margin in margins.values())
    detail = ", ".join(f"{label} {ss[label]:.1f} dB (margin {margins.get(label, 0):+.1f})"
                       if label in margins else f"{label} {ss[label]:.1f} dB"
                       for label in result.labels)
    assert _report(4, ok, detail)


def test_criterion_5_stationary_alpha_stable():
    result = _comparison(
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        steps={"dlms": 0.008, "dlms_f": 0.01, "dmcc": 0.09, "dse_lms": 0.06,
               "dllad": 0.1, "npdlms": 0.06},
    )
    checks = []
    for label in ("dlms", "dlms_f"):
        initial = result.network_msd_db(label)[0]
        final = result.steady_state_msd_db(label)
        checks.append(result.diverged[label] > 0 or final > initial)
    npd_initial = result.network_msd_db("npdlms")[0]
    npd_final = result.steady_state_msd_db("npdlms")
    checks.append(npd_final <= npd_initial - 10.0)
    checks.append(npd_final <= result.steady_state_msd_db("dmcc"))
    ok = all(checks)
    assert _report(5, ok, f"dlms diverged={result.diverged['dlms']}, "
                          f"dlms_f diverged={result.diverged['dlms_f']}, "
                          f"npdlms {npd_final:.1f} dB vs initial {npd_initial:.1f} dB, "
                          f"dmcc {result.steady_state_msd_db('dmcc'):.1f} dB")


def test_criterion_6_nonstationary_alpha_stable_similarity():
    result = _comparison(
        noise={"kind": "alpha_stable", "alpha": 1.2, "beta": 0, "gamma": 1, "delta": 0},
        steps={"dlms": 0.0005, "dlms_f": 0.0005, "dse_lms": 0.05, "dmcc": 0.22,
               "dllad": 0.08, "npdlms": 0.03},
        npdlms_extra={"delta": 2.0},
        environment={"kind": "random_walk", "q_variance": 1e-4},
        iterations=1000,
    )
    ss = {label: result.steady_state_msd_db(label) for label in result.labels}
    gap_dse = abs(ss["npdlms"] - ss["dse_lms"])
    gap_dllad = abs(ss["npdlms"] - ss["dllad"])
    below = all(ss[label] < ss["dmcc"] for label in ("npdlms", "dse_lms", "dllad"))
    ok = gap_dse <= 3.0 and gap_dllad <= 3.0 and below
    assert _report(6, ok, f"npdlms {ss['npdlms']:.1f}, dse {ss['dse_lms']:.1f}, "
                          f"dllad {ss['dllad']:.1f}, dmcc {ss['dmcc']:.1f} dB; "
                          f"gaps {gap_dse:.1f}/{gap_dllad:.1f} dB (<= 3)")


# --- criterion 7: threshold sweep ---------------------------------------------


def test_criterion_7_threshold_sweep():
    raw = dict(
        PROTOCOL,
        noise={"kind": "gaussian", "snr_db": -20},
        algorithms=[{"kind": "npdlms", "step_size": 0.12, "delta": 0.25, "eta": 0.0}],
        realizations=100,
    )
    cfg = config_from_dict(raw)
    values = [0.0, 100.0, 200.0, 300.0, 400.0, 600.0, 1000.0]
    results = sweep(cfg, "eta", values)
    kappas = np.array([r.kappa_mean("npdlms") for r in results])
    msd = np.array([r.steady_state_msd_db("npdlms") for r in results])
    strictly_decreasing = bool(np.all(np.diff(kappas) < 0)) and kappas[0] == cfg.iterations
    half = cfg.iterations / 2
    at_half = int(np.argmin(np.abs(kappas - half)))
    grid_covers_half = abs(kappas[at_half] - half) <= 0.15 * cfg.iterations
    degradation = msd[at_half] - msd[0]
    ok = strictly_decreasing and grid_covers_half and degradation <= 1.0
    assert _report(7, ok, f"kappa {np.round(kappas, 1).tolist()}, "
                          f"kappa at eta={values[at_half]:g} is {kappas[at_half]:.1f} "
                          f"(target {half:.0f}), degradation {degradation:+.2f} dB (<= 1)")


# --- criterion 8: alpha-stable sampler vs characteristic function -------------


def test_criterion_8_sampler_against_characteristic_function():
    rng = np.random.default_rng(8)
    grid = np.array([0.1, 0.5, 1.0, 2.0])
    sup_errors = {}
    for spec in (AlphaStable(1.2, 0, 1, 0), AlphaStable(1.5, 0.5, 1, 0), AlphaStable(2, 0, 1, 0)):
        draws = sample(spec, rng, 10**6)
        emp = empirical_characteristic_function(draws, grid)
        ref = characteristic_function(spec, grid)
        sup_errors[spec.alpha] = float(np.max(np.abs(emp - ref)))
    gauss = sample(AlphaStable(2.0, 0.0, 1.0, 0.0), rng, 10**6)
    var_ok = abs(gauss.var() - 2.0) <= 0.1  # 2 gamma^2 at gamma = 1, within 5 percent
    ok = max(sup_errors.values()) <= 0.01 and var_ok
    assert _report(8, ok, f"CF sup errors {dict((k, round(v, 4)) for k, v in sup_errors.items())}, "
                          f"alpha=2 variance {gauss.var():.3f}")


# --- criterion 9: invariant suites --------------------------------------------


def test_criterion_9_invariant_suites(tmp_path):
    r = np.random.default_rng(9)
    # mu normalisation over 1000 random buffer configurations
    mu_err = 0.0
    for _ in range(1000):
        b = int(r.integers(1, 7))
        d = int(r.integers(1, 5))
        mw = mu_weights(r.normal(0, 2, (b, d)), r.normal(0, 2, (b, d)),
                        r.normal(0, 2, d), r.normal(0, 2, d),
                        float(r.uniform(0.2, 2)), float(r.uniform(0.2, 2)))
        mu_err = max(mu_err, abs(mw.mu_kli.sum() - 1.0), abs(mw.mu_ki.sum() - 1.0))
    # left-stochastic columns on random topologies
    col_err = 0.0
    for _ in range(50):
        n = int(r.integers(2, 9))
        edges = [(k, k + 1) for k in range(1, n)]
        topo = build_topology(n, edges)
        for rule in ("uniform", "metropolis"):
            a = combination_weights(topo, rule).matrix
            col_err = max(col_err, float(np.max(np.abs(a.sum(axis=0) - 1.0))))
    # bounded likelihood direction, exact
    gains = bounded_error_gain(0.25, np.concatenate([
        np.linspace(-1e6, 1e6, 10001), np.array([-1e300, 1e300, -1e-300, 1e-300])
    ]))
    gain_ok = bool(np.all(np.abs(gains) <= 0.25))
    # idealized-buffer equalities
    theta_l = np.array([0.2, -0.4])
    buf_l = np.stack([theta_l, theta_l, theta_l + 40.0, theta_l + 40.0])
    mw = mu_weights(np.tile(np.ones(2), (4, 1)), buf_l, np.ones(2), theta_l, 1.0, 1.0)
    appendix_ok = (np.max(np.abs(mw.mu_ki - 0.25)) <= 1e-12
                   and abs(mw.mu_kli[0] - 0.5) <= 1e-12
                   and abs(mw.mu_kli[1] - 0.5) <= 1e-12
                   and abs(mw.mu_kli[2]) <= 1e-12)
    # determinism: bit-identical CSV
    raw = {
        "topology": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "d": 2, "regressor_variances": 1.0,
        "noise": {"kind": "gaussian", "snr_db": 20},
        "algorithms": [{"kind": "npdlms", "step_size": 0.05, "eta": 0.0},
                       {"kind": "dlms", "step_size": 0.05}],
        "iterations": 40, "realizations": 3, "base_seed": 9,
    }
    blobs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        export_csv(run_experiment(config_from_dict(raw)), path)
        blobs.append(path.read_bytes())
    deterministic = blobs[0] == blobs[1]
    ok = (mu_err <= 1e-12 and col_err <= 1e-12 and gain_ok and appendix_ok and deterministic)
    assert _report(9, ok, f"mu err {mu_err:.1e}, column err {col_err:.1e}, "
                          f"gain bounded {gain_ok}, appendix {appendix_ok}, "
                          f"deterministic {deterministic}")


# --- criterion 10: transient limit meets steady state -------------------------


def test_criterion_10_transient_meets_steady_state():
    topo = build_topology(3, [(1, 2), (2, 3), (1, 3)])
    inputs = TheoryInputs(
        topology=topo, combination=combination_weights(topo),
        regressor_variances=[1.0, 1.2, 0.9],
        noise_variances=np.array([0.02, 0.03, 0.025]),
        step_sizes=0.02, theta_o=np.ones(2) / np.sqrt(2), delta=0.25,
    )
    moments = build_moments(inputs)
    rho = spectral_radius(moments.mean_transition)
    n_needed = int(np.ceil(np.log(1e-6) / np.log(rho))) + 1
    curves = transient_curves(moments, n_max=n_needed)
    steady = steady_state_metrics(moments)
    gap_msd = abs(float(to_db(curves.network_msd[-1])) - float(to_db(steady.steady_network_msd)))
    gap_emse = abs(float(to_db(curves.network_emse[-1])) - float(to_db(steady.steady_network_emse)))
    ok = gap_msd <= 0.1 and gap_emse <= 0.1
    assert _report(10, ok, f"rho^n < 1e-6 at n={n_needed}; MSD gap {gap_msd:.2e} dB, "
                           f"EMSE gap {gap_emse:.2e} dB (<= 0.1)")
