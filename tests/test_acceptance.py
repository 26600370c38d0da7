"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Every numeric tolerance below is frozen; oracles are closed forms or
regression values measured once on the reference configurations.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from degenheat.criteria import (blowup_certificate, critical_mass_growth,
                                decay_fit, evaluate, osgood_tail)
from degenheat.dynamics import (ForcingTerm, Nonlinearity, SimConfig,
                                TimeProfile, compare_runs, monotone_iterates,
                                simulate)
from degenheat.grids import Field, Geometry, GridSpec, InitialProfile
from degenheat.lab import (EscalationLevel, RunSpec, SweepSpec, classify_point,
                           points_to_csv, run_sweep)
from degenheat.semigroup import (apply_semigroup, build_operator, kernel_column,
                                 semigroup_defect)
from conftest import (axis_weight, constant_field, gaussian_field, line_grid,
                      power_forcing, power_tail_field)


def report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"CRITERION {number} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared criterion-6 sweeps (also consumed by criterion 11)

def _fujita_sweep_spec(alpha: float, p_values, escalation) -> SweepSpec:
    run = RunSpec(
        weight=axis_weight(alpha),
        grid=escalation[0].grid,
        forcings=(power_forcing(2.0),),
        profile=InitialProfile("gaussian", 1.0, 5.0),
        tol=1e-2,
    )
    return SweepSpec(run, (("p", list(p_values)),
                           ("amplitude", [1e-3, 1e-1, 1.0, 10.0, 1e3])),
                     tuple(escalation))


def _line(extent, nodes):
    return GridSpec(Geometry.LINE, extent, nodes)


@pytest.fixture(scope="module")
def fujita_sweeps():
    """Both criterion-6 sweeps at worker counts 1 and 8."""
    esc0 = (EscalationLevel(10.0, _line(100.0, 1601)),
            EscalationLevel(1e3, _line(600.0, 4801)),
            EscalationLevel(1e5, _line(4000.0, 16001)))
    esc5 = (EscalationLevel(10.0, _line(100.0, 1601)),
            EscalationLevel(1e3, _line(1000.0, 4001)),
            EscalationLevel(1e5, _line(5000.0, 20001)))
    out = {}
    for alpha, p_values, esc in ((0.0, (2.0, 4.0), esc0), (0.5, (2.2, 3.5), esc5)):
        spec = _fujita_sweep_spec(alpha, p_values, esc)
        serial = run_sweep(spec, worker_count=1)
        parallel = run_sweep(spec, worker_count=8)
        out[alpha] = {"points": serial,
                      "csv1": points_to_csv(serial),
                      "csv8": points_to_csv(parallel)}
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_osgood_closed_forms():
    """Closed-form Osgood tails match adaptive quadrature to 1e-10 relative."""
    zs = np.geomspace(1e-2, 1e2, 20)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        nl = Nonlinearity.power(p)
        for z in zs:
            ref, _ = quad(lambda s: s ** -p, z, np.inf,
                          epsabs=0, epsrel=1e-13, limit=400)
            worst = max(worst, abs(osgood_tail(nl, z) - ref) / ref)
    for q in (1.5, 2.0, 3.0):
        nl = Nonlinearity.log_power(q)
        for z in zs:
            # substitution u = ln(1+s) reduces the integrand to u^{-q}
            ref, _ = quad(lambda u: u ** -q, math.log1p(z), np.inf,
                          epsabs=0, epsrel=1e-13, limit=400)
            worst = max(worst, abs(osgood_tail(nl, z) - ref) / ref)
    report(1, "osgood closed forms", worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_2_semigroup_correctness():
    """Gaussian oracle, mass conservation, and defect halving at alpha=0."""
    grid = line_grid(15.0, 601)
    op = build_operator(grid, axis_weight(0.0))
    u0 = gaussian_field(grid, 1.0, 1.0)

    # exact Gaussian evolution: sigma^2 -> sigma^2 + 2t
    t = 1.0
    evolved = apply_semigroup(op, u0, t, tol=1e-5)
    s2 = 1.0 + 2.0 * t
    exact = np.exp(-grid.positions() ** 2 / (2.0 * s2)) / math.sqrt(s2)
    sup_err = float(np.max(np.abs(evolved.values - exact)))

    # mass conservation pre-leak: the Dirichlet rows keep the data, and
    # nothing reaches them
    fixed = apply_semigroup(op, u0, t, n_steps=64)
    edges = [0, -1]
    kept = np.array_equal(fixed.values[edges], u0.values[edges])
    leak = float(np.max(np.abs(fixed.values[edges]))) / fixed.sup()
    mass_err = abs(fixed.mass() - u0.mass()) / u0.mass()

    # defect halving per step-refinement level plus the frozen regression bound
    defects = [semigroup_defect(op, u0, 1.0, 0.5, n_steps=n) for n in (16, 32, 64)]
    rates = [math.log2(a / b) for a, b in zip(defects, defects[1:])]
    frozen = semigroup_defect(op, u0, 1.0, 0.5, n_steps=64, scheme="cn")
    d_half = semigroup_defect(op, u0, 1.0, 0.5, n_steps=64)
    d_quarter = semigroup_defect(op, u0, 1.0, 0.25, n_steps=64)

    ok = (sup_err <= 1e-3 and kept and leak < 1e-12 and mass_err <= 1e-6
          and all(r >= 0.9 for r in rates) and frozen <= 1e-4
          and 0.5 <= d_half / d_quarter <= 2.0)
    report(2, "semigroup correctness", ok,
           f"sup err {sup_err:.1e}, mass err {mass_err:.1e}, "
           f"rates {['%.2f' % r for r in rates]}, frozen {frozen:.1e}")


def test_criterion_3_kernel_decay_exponents():
    """On-diagonal kernel decay slope within 0.05 of -1/(2-alpha)."""
    grid = line_grid(40.0, 2001)
    times = np.geomspace(0.5, 5.0, 8)
    details = []
    ok = True
    for alpha in (0.0, 0.25, 0.5):
        op = build_operator(grid, axis_weight(alpha))
        sups = [kernel_column(op, grid.nodes // 2, t, tol=1e-6).sup()
                for t in times]
        slope = float(np.polyfit(np.log(times), np.log(sups), 1)[0])
        target = -1.0 / (2.0 - alpha)
        ok = ok and abs(slope - target) <= 0.05
        details.append(f"a={alpha}: {slope:+.4f} vs {target:+.4f}")
    report(3, "kernel decay exponents", ok, "; ".join(details))


def test_criterion_4_decay_classes():
    """Slow data (1+|x|)^(-rho): sup decay slope within 0.07 of rho/(2-alpha)."""
    window = (4e3, 4.8e4)
    grid = line_grid(4000.0, 12001)
    times = np.geomspace(window[0], window[1], 12)
    ok = True
    details = []
    for alpha in (0.0, 0.5):
        op = build_operator(grid, axis_weight(alpha))
        for rho in (0.25, 0.5, 0.75):
            state = power_tail_field(grid, rho)
            prev = 0.0
            sups = []
            for t in times:
                state = apply_semigroup(op, state, t - prev, tol=1e-5)
                prev = t
                sups.append(state.sup())
            env = decay_fit((times, np.array(sups)), window)
            target = rho / (2.0 - alpha)
            ok = ok and abs(env.theta - target) <= 0.07
            details.append(f"a={alpha},rho={rho}: {env.theta:.3f}/{target:.3f}")
    report(4, "decay classes", ok, "; ".join(details))


def test_criterion_5_ode_blowup_oracle():
    """Diffusionless runs reproduce the four closed-form blow-up times to 2%."""
    grid = line_grid(1.0, 5)
    w = axis_weight(0.0)
    cases = [
        # (forcing, u0 value, threshold, exact t*)
        (power_forcing(2.0, 0.0), 1.0, 1e8, 1.0),
        (power_forcing(2.0, 1.0), 1.0, 1e8, math.sqrt(2.0)),
        (power_forcing(3.0, 0.0), 1.0, 1e8, 0.5),
        (ForcingTerm(TimeProfile.power(0.0), Nonlinearity.log_power(2.0)),
         math.e - 1.0, 1e30, 1.0),
    ]
    ok = True
    details = []
    for term, amp, threshold, exact in cases:
        cfg = SimConfig(w, grid, [term], constant_field(grid, amp), 3.0,
                        blowup_threshold=threshold, tol=1e-4, diffusionless=True)
        res = simulate(cfg)
        err = abs(res.t_star - exact) / exact if res.blew_up else math.inf
        ok = ok and res.blew_up and err <= 0.02
        details.append(f"t*={res.t_star:.4f} vs {exact:.4f}")
    report(5, "ode blow-up oracle", ok, "; ".join(details))


def test_criterion_6_fujita_dichotomy(fujita_sweeps):
    """Sub/supercritical dichotomy at alpha = 0 and alpha = 0.5."""
    cls = {alpha: {pt.axis_values: pt.classification
                   for pt in fujita_sweeps[alpha]["points"]}
           for alpha in (0.0, 0.5)}

    ok = True
    # alpha = 0: p = 2 < p* = 3 blows up at every tested amplitude
    for amp in (1e-3, 1e-1, 1.0, 10.0):
        ok = ok and cls[0.0][(2.0, amp)] == "BlowUp"
    # alpha = 0: p = 4 > p* = 3: small data global, large data blow-up
    ok = ok and cls[0.0][(4.0, 1e-3)] == "GlobalLike"
    ok = ok and cls[0.0][(4.0, 1e3)] == "BlowUp"
    # alpha = 0.5, p* = 2.5: p = 2.2 subcritical, p = 3.5 supercritical
    for amp in (1e-1, 1.0, 10.0):
        ok = ok and cls[0.5][(2.2, amp)] == "BlowUp"
    ok = ok and cls[0.5][(3.5, 1e-3)] == "GlobalLike"
    ok = ok and cls[0.5][(3.5, 1e3)] == "BlowUp"
    # comparison-principle proxy: BlowUp upward closed along each amplitude axis
    for alpha, table in cls.items():
        for p in sorted({k[0] for k in table}):
            flags = [table[(p, amp)] == "BlowUp"
                     for amp in (1e-3, 1e-1, 1.0, 10.0, 1e3)]
            ok = ok and flags == sorted(flags)
    report(6, "fujita dichotomy desk check", ok,
           f"alpha 0: {sorted(cls[0.0].items())}; "
           f"alpha 0.5: {sorted(cls[0.5].items())}")


# Serial criterion-6 CSVs, recorded once: a change to step control or to the
# source arithmetic moves t_star, index_I or certificate_tau here first.
FUJITA_CSV = {
    0.0: """\
axis1,axis2,classification,t_star,horizon,index_I,certificate_tau
2,0.001,BlowUp,31972.78088,100000,inf,
2,0.1,BlowUp,13.98235981,1000,inf,
2,1,BlowUp,1.079950311,10,inf,1.535
2,10,BlowUp,0.1050198822,10,inf,0.127
2,1000,BlowUp,0.001072520256,10,inf,0.003
4,0.001,GlobalLike,,100000,inf,
4,0.1,GlobalLike,,100000,inf,
4,1,BlowUp,0.3749340888,10,inf,0.511
4,10,BlowUp,0.0003840773664,10,inf,0.001
4,1000,BlowUp,3.846362233e-10,10,inf,0.001
""",
    0.5: """\
axis1,axis2,classification,t_star,horizon,index_I,certificate_tau
2.2,0.001,Undetermined,,100000,inf,
2.2,0.1,BlowUp,35.12601664,1000,inf,
2.2,1,BlowUp,0.90458746,10,inf,1.023
2.2,10,BlowUp,0.05491516934,10,inf,0.063
2.2,1000,BlowUp,0.0002259146273,10,inf,0.001
3.5,0.001,GlobalLike,,100000,inf,
3.5,0.1,GlobalLike,,100000,inf,
3.5,1,BlowUp,0.4422845363,10,inf,0.511
3.5,10,BlowUp,0.001436208114,10,inf,0.003
3.5,1000,BlowUp,1.424085349e-08,10,inf,0.001
""",
}


def test_criterion_6_recorded_values(fujita_sweeps):
    """Axes, verdicts, empty and inf fields exact; numbers to 1e-9 relative."""
    mismatches = []
    for alpha, recorded in FUJITA_CSV.items():
        got = [line.split(",") for line in fujita_sweeps[alpha]["csv1"].splitlines()]
        want = [line.split(",") for line in recorded.splitlines()]
        if len(got) != len(want) or got[0] != want[0]:
            mismatches.append(f"alpha {alpha}: rows or header differ")
            continue
        for g, w in zip(got[1:], want[1:]):
            same = g[:3] == w[:3] and all(
                a == b if b in ("", "inf") else a not in ("", "inf")
                and math.isclose(float(a), float(b), rel_tol=1e-9)
                for a, b in zip(g[3:], w[3:]))
            if not same:
                mismatches.append(f"alpha {alpha}: {','.join(g)} vs {','.join(w)}")
    report(6, "recorded sweep values", not mismatches, "; ".join(mismatches))


def test_criterion_7_monotone_iteration_consistency():
    """I < 1 for delta*v0 implies GlobalLike at every horizon plus a clean
    monotone iteration with geometric contraction."""
    delta = 0.5
    w = axis_weight(0.0)
    term = ForcingTerm(TimeProfile.constant(1.0), Nonlinearity.power(4.0))

    # smallness index of the scaled data from the linear trace
    grid = line_grid(80.0, 1601)
    lin = SimConfig(w, grid, [], gaussian_field(grid, delta, 1.0), 200.0,
                    blowup_threshold=math.inf, tol=1e-3)
    rep = evaluate(simulate(lin).trace(), [term], w)
    index_small = rep.smallness_index is not None and rep.smallness_index < 1.0

    # GlobalLike at every escalation horizon
    run = RunSpec(w, line_grid(80.0, 801), (term,),
                  InitialProfile("gaussian", delta, 1.0))
    global_all = all(
        classify_point(run, (EscalationLevel(h),)).classification == "GlobalLike"
        for h in (10.0, 100.0, 1000.0))

    # monotone iteration at the reference resolution
    cfg = SimConfig(w, grid, [term], gaussian_field(grid, 1.0, 1.0), 50.0)
    it = monotone_iterates(cfg, gaussian_field(grid, 1.0, 1.0), beta=1.0,
                           k_max=6, delta=delta)
    ratios = [b / a for a, b in zip(it.gaps, it.gaps[1:])]
    contraction = all(r < 0.5 for r in ratios)

    ok = (index_small and global_all and it.monotone_ok and it.cap_ok
          and contraction)
    report(7, "theorem 1.2(i) consistency", ok,
           f"I={rep.smallness_index:.4f}, global at all horizons={global_all}, "
           f"cap={it.cap_ok}, gap ratios {['%.3f' % r for r in ratios]}")


def test_criterion_8_blowup_certificate_consistency():
    """Certificate from the analytic Gaussian trace implies simulated blow-up."""
    # exact linear trace for a unit-width Gaussian of amplitude 2 at alpha=0
    amp = 2.0
    times = np.linspace(0.0, 3.0, 1201)
    sups = amp / np.sqrt(1.0 + 2.0 * times)
    term = power_forcing(2.0)
    tau = blowup_certificate((times, sups), [term])
    # analytic firing time: sqrt(1+2 tau) = 2 tau  =>  tau = (1+sqrt(5))/4
    tau_exact = (1.0 + math.sqrt(5.0)) / 4.0
    cert_ok = tau is not None and abs(tau - tau_exact) <= 0.01

    grid = line_grid(30.0, 601)
    cfg = SimConfig(axis_weight(0.0), grid, [term], gaussian_field(grid, amp, 1.0),
                    10.0, tol=1e-3)
    res = simulate(cfg)
    report(8, "theorem 1.2(ii) consistency", cert_ok and res.blew_up,
           f"tau={tau}, exact {tau_exact:.4f}, simulate status {res.status} "
           f"t*={res.t_star}")


def test_criterion_9_comparison_principle():
    """Ordered data stay ordered: defect <= 1e-10 * scale on 10 random pairs."""
    rng = np.random.default_rng(20240817)
    grid = line_grid(20.0, 401)
    worst = 0.0
    for k in range(10):
        alpha = rng.choice([0.0, 0.3, 0.5])
        terms = [power_forcing(float(rng.uniform(1.5, 3.0)),
                               float(rng.uniform(0.0, 1.0)))]
        if rng.random() < 0.5:
            terms.append(ForcingTerm(TimeProfile.constant(float(rng.uniform(0.2, 1.0))),
                                     Nonlinearity.log_power(float(rng.uniform(1.5, 3.0)))))
        v0 = gaussian_field(grid, float(rng.uniform(0.2, 0.8)),
                            float(rng.uniform(0.8, 2.0)))
        u0 = Field(grid, v0.values * float(rng.uniform(0.1, 0.9)))
        cfg = SimConfig(axis_weight(float(alpha)), grid, terms, v0, 2.0, tol=1e-3)
        rep = compare_runs(cfg, u0, v0)
        worst = max(worst, rep.max_defect / max(rep.scale, 1e-300))
    report(9, "comparison principle", worst <= 1e-10, f"worst defect {worst:.2e}")


def test_criterion_10_critical_case_diagnostic():
    """At p = p* exactly the windowed mass grows logarithmically pre-blow-up."""
    grid = line_grid(100.0, 2001)
    cfg = SimConfig(axis_weight(0.0), grid, [power_forcing(3.0)],
                    gaussian_field(grid, 0.5, 1.0), 2000.0, tol=1e-3)
    res = simulate(cfg)
    t_end = res.t_star if res.blew_up else cfg.horizon
    window = (t_end / 100.0, t_end / 2.0)
    slope, resid = critical_mass_growth(res.times, res.window_mass_history, window)
    span = math.log(window[1] / window[0])
    ok = res.blew_up and slope > 0.0 and resid <= 0.2 * slope * span
    report(10, "critical-case diagnostic", ok,
           f"t*={t_end:.1f}, slope {slope:.4f}, residual {resid:.4f}")


def test_criterion_11_determinism(fujita_sweeps):
    """Sweep CSV byte-identical for worker counts 1 and 8."""
    same = all(fujita_sweeps[a]["csv1"] == fujita_sweeps[a]["csv8"]
               for a in (0.0, 0.5))
    report(11, "determinism", same)


def test_criterion_15_exact_kernel_oracle():
    """Gamma(x, t) = t^(-1/beta) exp(-|x|^beta / (beta^2 t)), beta = 2 - alpha,
    solves u_t = (|x|^alpha u_x)_x: Gamma(., 1) evolved by t = 9 must give
    Gamma(., 10), with an observed order of at least 1.5 in the node spacing."""
    details = []
    ok = True
    for alpha in (0.0, 0.5, 0.9):
        beta = 2.0 - alpha
        errors = []
        for nodes in (1001, 2001, 4001):
            grid = line_grid(100.0, nodes)
            r = np.abs(grid.positions())

            def kernel(t):
                return t ** (-1.0 / beta) * np.exp(-r ** beta / (beta ** 2 * t))

            evolved = apply_semigroup(build_operator(grid, axis_weight(alpha)),
                                      Field(grid, kernel(1.0)), 9.0, tol=1e-10)
            exact = kernel(10.0)
            errors.append(float(np.max(np.abs(evolved.values - exact)) / np.max(exact)))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        ok = ok and all(order >= 1.5 for order in orders)
        details.append(f"a={alpha}: errors {['%.2e' % e for e in errors]}, "
                       f"orders {['%.2f' % o for o in orders]}")
    report(15, "exact kernel oracle", ok, "; ".join(details))
