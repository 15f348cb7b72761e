"""Quick tests of the benchmark itself: every check rejects a corrupted
output, tracing leaves the check results unchanged and restores the
package, the speed probe stays out of the pass clock, and the command
refuses a level-cap override."""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from checks import Arith, CheckFailed  # noqa: E402
from hecke_lab import cli, lattice, pairs  # noqa: E402
from hecke_lab.coeffs import QC  # noqa: E402
from hecke_lab.pairs import family_from_config  # noqa: E402


def family(config):
    return family_from_config(config), Arith(config)


def small_ops():
    """One cheap operation of every kind the three exact and float workloads use."""
    import random

    rng = random.Random(5)
    ops = []
    for config, s in ((wl.BOST_CONNES, 6), (wl.PADIC_3, 2), (wl.MATRIX, (1, 1))):
        fam, ar = family(config)
        ops.append(wl._intertwine(fam, ar, s, wl.raw_pairs(ar, rng, 2)))
        ops.append(wl._theta_roundtrip(fam, ar, s, wl.raw_pairs(ar, rng, 2)))
        ops.append(wl._product(fam, ar, wl.raw_pairs(ar, rng, 3), wl.raw_pairs(ar, rng, 3)))
    fam, ar = family(wl.BOST_CONNES)
    ops.append(wl._convolve_refine(fam, ar, 2, wl.raw_pairs(ar, rng, 2), 3, wl.raw_pairs(ar, rng, 2), 12))
    ops.append(wl._isometries(fam, ar, [1, 2, 3]))
    ops.append(wl._corner_roundtrip(fam, ar, 2, 3, wl.raw_pairs(ar, rng, 2)))
    ops.append(wl._corner_product(fam, ar, 2, 3, wl.raw_pairs(ar, rng, 2), wl.raw_pairs(ar, rng, 2)))
    fam, ar = family(wl.PADIC_3)
    ops.append(wl._module_pairing(fam, ar, 1, 0, wl.corner_pairs(ar, rng), wl.corner_pairs(ar, rng)))
    fam, ar = family(wl.BOST_CONNES)
    rep = wl.repspace.regular_covariant(fam, check=False)
    vecs = [wl.raw_vector(ar, rng) for _ in range(3)]
    ops.append(wl._covariance(fam, ar, rep, [2, 3, 2], [Fraction(1, 3), Fraction(1, 2), Fraction(0)], vecs))
    return ops


def run_ops(ops):
    return run.run_pass(ops)[1]


def test_every_small_operation_passes():
    assert all(status == "ok" for _, status, _ in run_ops(small_ops()))


def intertwine_output():
    fam, ar = family(wl.BOST_CONNES)
    op = wl._intertwine(fam, ar, 6, [(Fraction(7, 3), QC(Fraction(1), Fraction(1, 2)))])
    return op, op[1]()


def rebuilt(lhs, values):
    return wl.autodil.LocFun(lhs.family, lhs.level, values)


@pytest.mark.parametrize("corrupt", ["drop", "coefficient", "non-canonical", "extra"])
def test_exact_function_check_rejects_corruption(corrupt):
    (label, action, verdict), (a, lhs, rhs, equal) = intertwine_output()
    verdict((a, lhs, rhs, equal))
    values = dict(rhs.values)
    key = next(iter(values))
    if corrupt == "drop":
        del values[key]
    elif corrupt == "coefficient":
        values[key] = values[key] + QC(Fraction(1), Fraction(0))
    elif corrupt == "non-canonical":
        values[key + 1] = values.pop(key)
    else:
        values[Fraction(1, 97)] = QC(Fraction(1), Fraction(0))
    with pytest.raises(CheckFailed):
        verdict((a, lhs, rebuilt(rhs, values), equal))


def test_equality_verdict_is_required():
    (label, action, verdict), (a, lhs, rhs, equal) = intertwine_output()
    with pytest.raises(CheckFailed):
        verdict((a, lhs, rhs, False))


def test_inexact_coefficient_is_rejected():
    (label, action, verdict), (a, lhs, rhs, equal) = intertwine_output()
    values = {k: complex(v) for k, v in rhs.values.items()}
    with pytest.raises(CheckFailed):
        verdict((a, lhs, rebuilt(rhs, values), equal))


def test_mass_check_rejects_scaled_function():
    ar = Arith(wl.MATRIX)
    Q = ar.common_denominators([(Fraction(1, 2), Fraction(0))], (1, 0))
    values = {(Fraction(1, 2), Fraction(0)): QC(Fraction(3), Fraction(0))}
    expected = {(Q[0] // 2, 0): (Fraction(3), Fraction(0))}
    want = (Fraction(1, 2), Fraction(0))  # 3 / index 6 at level (1,0)
    checks.check_mass(ar, (1, 0), checks.check_function(ar, (1, 0), values, expected, Q, "f"), want, "f")
    with pytest.raises(CheckFailed):
        checks.check_mass(ar, (1, 0), (Fraction(6), Fraction(0)), want, "f")


def test_matrix_box_uses_per_coordinate_moduli():
    ar = Arith(wl.MATRIX)
    assert ar.moduli((2, 1)) == (20, 9) and ar.index((3, 3)) == 27_000
    checks.check_keys_in_box(ar, (1, 0), {(Fraction(1), Fraction(2)): 1})
    with pytest.raises(CheckFailed):
        checks.check_keys_in_box(ar, (1, 0), {(Fraction(2), Fraction(0)): 1})
    Q = ar.common_denominators([(Fraction(1, 2), Fraction(2, 3))], (1, 0))
    assert Q == (4, 9)
    assert checks.encode(ar, (1, 0), {(Fraction(3, 2), Fraction(2, 3)): 1}, Q) == {(6, 6): 1}
    for bad in ((Fraction(5, 2), Fraction(0)), (Fraction(1, 5), Fraction(0)), (1, Fraction(0))):
        with pytest.raises(CheckFailed):
            checks.encode(ar, (1, 0), {bad: 1}, Q)


def test_float_checks_reject_perturbed_vector():
    fam, ar = family(wl.BOST_CONNES)
    rep = wl.repspace.regular_covariant(fam, check=False)
    h = wl.repspace.SparseVector({Fraction(1, 3): 0.5 + 0.25j, Fraction(0): -0.75j})
    label, action, verdict = wl._covariance(fam, ar, rep, [3], [Fraction(1, 2)], [h])
    (s, n, v, lhs, vs, back), = out = action()
    verdict(out)
    key = next(iter(lhs.values))
    for bad in (
        (s, n, v, wl.repspace.SparseVector({**lhs.values, key: lhs.values[key] + 1e-6}), vs, back),
        (s, n, v, lhs, vs.scale(1 + 1e-6), back),
        (s, n, v, lhs, vs, wl.repspace.SparseVector({**back.values, Fraction(1, 5): 1e-6})),
    ):
        with pytest.raises(CheckFailed):
            verdict([bad])


def corner_product_output():
    import random

    fam, ar = family(wl.BOST_CONNES)
    rng = random.Random(3)
    op = wl._corner_product(fam, ar, 2, 3, wl.corner_pairs(ar, rng), wl.corner_pairs(ar, rng))
    return fam, op, op[1]()


@pytest.mark.parametrize("corrupt", ["zero", "drop", "coefficient", "scaled", "moved"])
def test_corner_check_rejects_corrupted_product(corrupt):
    fam, (label, action, verdict), (d, triples, equal) = corner_product_output()
    verdict((d, triples, equal))
    g, f = next(iter(d.terms.items()))
    values = dict(f.values)
    key = next(iter(values))
    if corrupt == "drop":
        del values[key]
    elif corrupt == "coefficient":
        values[key] = values[key] + QC(Fraction(1), Fraction(0))
    elif corrupt == "scaled":
        values = {k: c * 2 for k, c in values.items()}
    terms = {g: wl.autodil.LocFun(fam, f.level, values)}
    if corrupt == "zero":
        terms = {}
    elif corrupt == "moved":
        terms = {fam.g_mul(g, fam.g_from_s(2)): f}
    with pytest.raises(CheckFailed):
        verdict((wl.xprod.CrossedElement(fam, terms), triples, equal))


def test_corner_check_rejects_wrong_decomposition():
    fam, (label, action, verdict), (d, triples, equal) = corner_product_output()
    s, a, t = triples[0]
    bad = [(s, wl.grpalg.GroupAlgebraElement(fam, {k: c * 2 for k, c in a.values.items()}), t)]
    with pytest.raises(CheckFailed):
        verdict((d, bad + triples[1:], equal))


def test_speed_probe_samples_and_is_left_out_of_the_clock():
    with run.SpeedProbe() as probe:
        spent0, t0, c0 = probe.spent, run.time.thread_time(), probe.clock()
        while run.time.thread_time() - t0 < 0.3:
            run.reference_loop()
        t1, c1 = run.time.thread_time(), probe.clock()
    assert len(probe.samples) > 1 and all(x > 0 for x in probe.samples)
    assert abs((t1 - t0) - (c1 - c0) - (probe.spent - spent0)) < 0.01


def test_gram_check_rejects_indefinite_matrix():
    checks.check_psd([[1, 0], [0, 1]], [1, 1], "gram")
    with pytest.raises(CheckFailed):
        checks.check_psd([[1, 2], [2, 1]], [1, 1], "gram")
    with pytest.raises(CheckFailed):
        checks.check_psd([[1, 0.5], [0.4, 1]], [1, 1], "gram")


def test_verify_verdict_rejects_non_passing_report():
    label, action, verdict = wl._verify_job(wl.BOST_CONNES, "tower")
    reports = cli.run(cli.RunConfig(family=wl.BOST_CONNES, suite="tower", seed=1, trials=4))
    verdict(reports)
    reports[0].status = "skipped"
    with pytest.raises(CheckFailed):
        verdict(reports)
    with pytest.raises(CheckFailed):
        verdict([])


def test_tracing_keeps_check_results_and_restores_package():
    originals = (pairs.MatrixFamily.canon, pairs.hnf_reduce, list(cli.CHECKS), QC.__mul__)
    plain = run_ops(small_ops())
    tracer = tracing.Tracer().install()
    try:
        assert pairs.hnf_reduce is not originals[1]
        traced = run_ops(small_ops())
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert [o[:2] for o in traced] == [o[:2] for o in plain]
    assert (pairs.MatrixFamily.canon, pairs.hnf_reduce, list(cli.CHECKS), QC.__mul__) == originals
    assert pairs.hnf_reduce is lattice.hnf_reduce
    assert metrics["pairs.canon.calls"][0] > 0 and metrics["xprod.mul.calls"][0] > 0
    assert metrics["repspace.apply_V.calls"][0] > 0 and metrics["coeffs.qc_mul.calls"][0] > 0


def test_level_cap_override_is_refused(monkeypatch):
    monkeypatch.setenv(run.ENV_LEVEL_CAP, "9")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "corner", "--seed", "1", "--seconds", "1"])
    assert exc.value.code == 2
